//! # hefv-core
//!
//! The Fan-Vercauteren (FV/BFV) somewhat-homomorphic encryption scheme, as
//! implemented by the HPCA 2019 paper *"FPGA-Based High-Performance Parallel
//! Architecture for Homomorphic Computing on Encrypted Data"*: RNS
//! representation throughout, with both the traditional-CRT and the HPS
//! `Lift`/`Scale` datapaths selectable per multiplication.
//!
//! Each evaluation op runs on the caller's thread, with one body that
//! draws its buffers from a [`scratch::Arena`] (see [`eval`]). Services
//! get their parallelism from independent jobs on separate threads, one
//! arena each.
//!
//! # Quickstart
//!
//! ```
//! use hefv_core::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), hefv_core::Error> {
//! let ctx = FvContext::new(FvParams::insecure_toy())?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let (sk, pk, rlk) = keygen(&ctx, &mut rng);
//!
//! let t = ctx.params().t;
//! let n = ctx.params().n;
//! let two = encrypt(&ctx, &pk, &Plaintext::new(vec![2], t, n), &mut rng);
//! let three = encrypt(&ctx, &pk, &Plaintext::new(vec![3], t, n), &mut rng);
//! let prod = mul(&ctx, &two, &three, &rlk, Backend::default());
//! assert_eq!(decrypt(&ctx, &sk, &prod).coeffs()[0], 6);
//! # Ok(())
//! # }
//! ```

pub mod context;
pub mod crc32;
pub mod encoder;
pub mod encrypt;
pub mod error;
pub mod eval;
pub mod galois;
pub mod keys;
mod keyswitch;
pub mod noise;
pub mod params;
pub mod rnspoly;
pub mod sampler;
pub mod scratch;
pub mod security;
pub mod wire;

pub use error::Error;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::context::FvContext;
    pub use crate::encoder::{BatchEncoder, IntegerEncoder, Plaintext};
    pub use crate::encrypt::{decrypt, encrypt, encrypt_symmetric, trivial_encrypt, Ciphertext};
    pub use crate::error::Error;
    pub use crate::eval::{add, mul, mul_plain, neg, sub, Backend, PlainOperand};
    pub use crate::galois::{
        apply_galois, rotate_many, sum_slots, GaloisKey, GaloisKeySet, HoistedCiphertext,
    };
    pub use crate::keys::{keygen, PublicKey, RelinKey, SecretKey};
    pub use crate::noise::measure;
    pub use crate::params::FvParams;
    pub use crate::rnspoly::{Domain, RnsPoly};
    pub use crate::scratch::Arena;
    pub use hefv_math::rns::HpsPrecision;
}
