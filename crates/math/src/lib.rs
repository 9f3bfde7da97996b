//! # hefv-math
//!
//! Arithmetic substrate for the HEAT-rs reproduction of the HPCA 2019 paper
//! *"FPGA-Based High-Performance Parallel Architecture for Homomorphic
//! Computing on Encrypted Data"* (Sinha Roy et al.).
//!
//! This crate implements, in pure Rust, every arithmetic building block the
//! paper's FPGA datapath implements in Verilog:
//!
//! * [`zq`] — arithmetic modulo 30-bit NTT-friendly primes, including both a
//!   Barrett-style reduction and the paper's §V-A4 *sliding-window* reduction.
//! * [`primes`] — generation of the RNS bases (`q_i ≡ 1 mod 2n`).
//! * [`bigint`] — arbitrary-precision integers used by the *traditional CRT*
//!   datapath (Fig. 5 / Fig. 8) and as the exactness oracle for HPS.
//! * [`ntt`] — the negacyclic Number Theoretic Transform with precomputed
//!   twiddle tables (the paper stores twiddles in on-chip ROM).
//! * [`poly`] — residue polynomials and coefficient-wise operations.
//! * [`rns`] — RNS contexts: exact CRT reconstruction, traditional and HPS
//!   base extension (`Lift q→Q`), traditional and HPS scaling (`Scale Q→q`).
//! * [`fixed`] — the fixed-point reciprocal arithmetic the paper substitutes
//!   for HPS's floating-point divisions (89-bit fractions).
//! * [`dispatch`] — the runtime kernel seam: the NTT butterflies, the
//!   pointwise products, the hoisted key-switch sum-of-products and the
//!   HPS `Lift`/`Scale` basis conversions all route through a per-process
//!   function table that picks AVX2 lane implementations when the CPU has
//!   them (scalar fallback otherwise, `HEFV_FORCE_SCALAR` /
//!   `HEFV_KERNEL` to override).
//!
//! # The kernel dispatch seam
//!
//! [`dispatch::kernels`] resolves once per process, in order: an explicit
//! `HEFV_KERNEL=scalar|avx2` request, then `HEFV_FORCE_SCALAR`, then
//! `is_x86_feature_detected!` for `avx2` and `pclmulqdq`. Backend choice
//! is unobservable except in speed: every dispatched kernel ends with an
//! exact reduction to the canonical `[0, q)` representative, and since
//! that representative is unique, any backend that computes congruent
//! intermediates within its proven lane ranges produces **bit-identical**
//! output (the CRC-32 entry is exact integer arithmetic with one answer,
//! so the same holds for it). The AVX2 lanes
//! (in the crate-private `simd` module) come in two widths — a narrow path
//! for `q < 2^30` whose relaxed `[0, 4q)` values fit 32-bit `pmuludq`
//! operands (the truncated Shoup constant `⌊w·2^32/q⌋` is just the high
//! half of the stored 64-bit one, so no extra twiddle storage), and a wide
//! path for any `q < 2^62` that evaluates the exact scalar formulas with
//! 4×64-bit lanes. `tests/simd_equivalence.rs` property-tests bit-identity
//! across both widths, including `[0, 4q)` extremes near `q = 2^62`.
//!
//! # Lazy-reduction range invariants
//!
//! The NTT hot path uses Harvey's lazy reduction: butterflies operate on
//! *relaxed* residues instead of strictly reduced ones, and a single exact
//! pass restores canonical `[0, q)` form at the end. The invariants, all
//! checked by property tests:
//!
//! * [`zq::ShoupMul::mul_lazy`] returns a value in `[0, 2q)` congruent to
//!   the strict product, for **any** 64-bit operand — the Shoup quotient
//!   estimate undershoots by at most one, so at most one extra `q`
//!   survives.
//! * [`ntt::NttTable::forward`] keeps coefficients in `[0, 4q)` across
//!   Cooley-Tukey stages (each butterfly folds its upper operand once into
//!   `[0, 2q)`, then adds/subtracts a lazy product `< 2q`).
//! * [`ntt::NttTable::inverse`] keeps coefficients in `[0, 2q)` across
//!   Gentleman-Sande stages; the strict `n^{-1}` scaling pass doubles as
//!   the final reduction.
//!
//! These are safe because [`zq::Modulus::new`] enforces `q < 2^62`, so the
//! relaxed bound `4q` never exceeds `2^64` and `u64` arithmetic cannot
//! wrap. The lazy transforms are bit-identical to the strict reference
//! paths ([`ntt::NttTable::forward_strict`] /
//! [`ntt::NttTable::inverse_strict`]), which stay in-tree as oracles and
//! as the before/after benchmark baseline.
//!
//! # Example
//!
//! ```
//! use hefv_math::{ntt::NttTable, primes::ntt_prime, zq::Modulus};
//!
//! let q = ntt_prime(30, 1 << 8, 0).expect("prime exists");
//! let table = NttTable::new(Modulus::new(q), 1 << 8).expect("NTT-friendly");
//! let mut a = vec![0u64; 256];
//! a[1] = 1; // the polynomial x
//! let orig = a.clone();
//! table.forward(&mut a);
//! table.inverse(&mut a);
//! assert_eq!(a, orig);
//! ```

pub mod bigint;
pub mod dispatch;
pub mod fixed;
pub mod ntt;
pub mod poly;
pub mod primes;
pub mod rns;
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod zq;

pub use bigint::UBig;
pub use ntt::NttTable;
pub use poly::ResiduePoly;
pub use rns::{RnsBasis, RnsContext};
pub use zq::Modulus;
