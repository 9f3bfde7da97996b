//! Key material: secret key, public key, relinearization key.
//!
//! The relinearization key follows the RNS gadget the paper's *faster*
//! architecture uses: `WordDecomp` with word size `w = 2^30` aligned to the
//! RNS limbs, so each relinearization key is "a vector of six polynomials"
//! (§VI-C). Digit `i` of a polynomial `a ∈ R_q` is simply its residue row
//! `a mod q_i`, and the gadget constants are the CRT idempotents
//! `h_i = q̃_i·(q/q_i) mod q` (so `Σ_i a_i·h_i ≡ a (mod q)`).

use crate::context::FvContext;
use crate::keyswitch::KeySwitchKey;
use crate::rnspoly::RnsPoly;
use crate::sampler;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The secret key `s` (ternary), stored in NTT domain over the `q` basis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SecretKey {
    /// `s` in NTT domain.
    pub(crate) s_ntt: RnsPoly,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &FvContext, rng: &mut R) -> Self {
        let mut s = sampler::ternary_poly(rng, ctx.base_q(), ctx.params().n);
        s.ntt_forward(ctx.ntt_q());
        SecretKey { s_ntt: s }
    }

    /// The secret in NTT domain (needed by decryption and noise analysis).
    pub fn s_ntt(&self) -> &RnsPoly {
        &self.s_ntt
    }
}

/// The public key `(p0, p1) = (-(a·s + e), a)`, stored in NTT domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublicKey {
    pub(crate) p0_ntt: RnsPoly,
    pub(crate) p1_ntt: RnsPoly,
}

impl PublicKey {
    /// Derives a public key from the secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &FvContext, sk: &SecretKey, rng: &mut R) -> Self {
        let basis = ctx.base_q();
        let n = ctx.params().n;
        let mut a = sampler::uniform_poly(rng, basis, n);
        a.ntt_forward(ctx.ntt_q());
        let mut e = sampler::gaussian_poly(rng, basis, n, ctx.params().sigma);
        e.ntt_forward(ctx.ntt_q());
        // p0 = -(a*s + e)
        let p0 = a.pointwise_mul(&sk.s_ntt, basis).add(&e, basis).neg(basis);
        PublicKey {
            p0_ntt: p0,
            p1_ntt: a,
        }
    }

    /// `p0` in NTT domain.
    pub fn p0_ntt(&self) -> &RnsPoly {
        &self.p0_ntt
    }

    /// `p1` in NTT domain.
    pub fn p1_ntt(&self) -> &RnsPoly {
        &self.p1_ntt
    }
}

/// Relinearization key: for each RNS digit `i`, a pair
/// `(rlk0_i, rlk1_i) = (-(a_i·s + e_i) + h_i·s², a_i)` in NTT domain — the
/// key switch from `s²` to `s`, stored once in the 32-bit digit-major
/// tables the key-switch SoP reads (as a `g = 1` key, unpermuted).
///
/// Because `h_i` is the CRT idempotent (`h_i ≡ δ_{ij} mod q_j`), the
/// `h_i·s²` term touches only residue row `i`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelinKey {
    pub(crate) key: KeySwitchKey,
}

impl RelinKey {
    /// Generates the relinearization key for `s`.
    pub fn generate<R: Rng + ?Sized>(ctx: &FvContext, sk: &SecretKey, rng: &mut R) -> Self {
        let s2 = sk.s_ntt.pointwise_mul(&sk.s_ntt, ctx.base_q());
        RelinKey {
            key: KeySwitchKey::generate(ctx, sk, &s2, 1, ctx.params().k(), rng),
        }
    }

    /// Number of digits (equals the number of `q` primes).
    pub fn digits(&self) -> usize {
        self.key.digits()
    }

    /// `rlk0_i` in NTT domain, as an owned `u64` copy of the stored
    /// 32-bit table.
    pub fn rlk0(&self, i: usize) -> RnsPoly {
        self.key.digit(0, i)
    }

    /// `rlk1_i` in NTT domain, as an owned `u64` copy.
    pub fn rlk1(&self, i: usize) -> RnsPoly {
        self.key.digit(1, i)
    }

    /// Total size in bytes when each coefficient is stored as 4 bytes —
    /// the quantity the coprocessor must DMA during relinearization
    /// (§VI-A: "Only during the relinearization steps, data transfer is
    /// needed to load the large relinearization keys"), and the key's
    /// in-memory size.
    pub fn transfer_bytes(&self) -> usize {
        self.key.bytes()
    }
}

/// Generates a full key set `(sk, pk, rlk)`.
pub fn keygen<R: Rng + ?Sized>(ctx: &FvContext, rng: &mut R) -> (SecretKey, PublicKey, RelinKey) {
    let sk = SecretKey::generate(ctx, rng);
    let pk = PublicKey::generate(ctx, &sk, rng);
    let rlk = RelinKey::generate(ctx, &sk, rng);
    (sk, pk, rlk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FvParams;
    use crate::rnspoly::Domain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> FvContext {
        FvContext::new(FvParams::insecure_toy()).unwrap()
    }

    #[test]
    fn keygen_shapes() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        assert_eq!(sk.s_ntt().k(), ctx.params().k());
        assert_eq!(pk.p0_ntt().domain(), Domain::Ntt);
        assert_eq!(rlk.digits(), ctx.params().k());
    }

    #[test]
    fn public_key_relation_holds() {
        // p0 + p1*s = -e must be a small polynomial.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let basis = ctx.base_q();
        let mut v = pk
            .p0_ntt()
            .add(&pk.p1_ntt().pointwise_mul(sk.s_ntt(), basis), basis);
        v.ntt_inverse(ctx.ntt_q());
        // every coefficient must be small (|e| <= 12σ) once centered
        for c in 0..ctx.params().n {
            let residues: Vec<u64> = (0..basis.len()).map(|i| v.row(i)[c]).collect();
            let centered = basis.decode_centered(&residues);
            let mag = centered.magnitude().to_u64().expect("small");
            assert!(mag <= (12.0 * ctx.params().sigma) as u64 + 1, "coeff {c}");
        }
    }

    #[test]
    fn relin_key_encodes_idempotent_s2() {
        // rlk0_i + rlk1_i*s = h_i*s^2 - e_i; verify row i carries s² and
        // other rows carry only noise.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let basis = ctx.base_q();
        let s2 = sk.s_ntt().pointwise_mul(sk.s_ntt(), basis);
        for i in 0..rlk.digits() {
            let mut v = rlk
                .rlk0(i)
                .add(&rlk.rlk1(i).pointwise_mul(sk.s_ntt(), basis), basis)
                .sub(
                    &{
                        // h_i * s²: zero except row i
                        let mut h = RnsPoly::zero_in(basis.len(), ctx.params().n, Domain::Ntt);
                        h.row_mut(i).copy_from_slice(s2.row(i));
                        h
                    },
                    basis,
                );
            v.ntt_inverse(ctx.ntt_q());
            for c in 0..ctx.params().n {
                let residues: Vec<u64> = (0..basis.len()).map(|r| v.row(r)[c]).collect();
                let centered = basis.decode_centered(&residues);
                let mag = centered.magnitude().to_u64().expect("noise is small");
                assert!(mag <= (12.0 * ctx.params().sigma) as u64 + 1);
            }
        }
    }

    #[test]
    fn rlk_transfer_bytes_match_paper_shape() {
        // For the paper's set: 6 digits × 2 polys × 6 residues × n × 4B.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let k = ctx.params().k();
        let n = ctx.params().n;
        assert_eq!(rlk.transfer_bytes(), k * 2 * k * n * 4);
    }
}
