//! The FV evaluation context: every precomputed table an instance needs.

use crate::error::Error;
use crate::keyswitch::DigitGroup;
use crate::noise::NoiseModel;
use crate::params::FvParams;
use hefv_math::bigint::UBig;
use hefv_math::ntt::{GaloisPermutation, NttTable};
use hefv_math::rns::{RnsBasis, RnsContext, ScaleContext};
use hefv_math::zq::Modulus;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Precomputed context for one FV parameter set: RNS bases and extenders,
/// NTT tables for every prime of `Q`, the scaling constants, `Δ = ⌊q/t⌋`
/// in RNS form, and the digit grouping of its Galois keys.
///
/// Build once, share (`FvContext` is `Send + Sync`) — the paper's analogue
/// is the constants burnt into on-chip ROM at configuration time.
///
/// # Example
///
/// ```
/// use hefv_core::{context::FvContext, params::FvParams};
/// let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
/// assert_eq!(ctx.params().n, 64);
/// ```
#[derive(Debug)]
pub struct FvContext {
    params: FvParams,
    rns: RnsContext,
    scale: ScaleContext,
    /// NTT tables for all primes of `Q`: the `k` q-primes first, then the
    /// `l` p-primes.
    tables_full: Vec<NttTable>,
    /// `Δ = ⌊q/t⌋ mod q_i`.
    delta_rns: Vec<u64>,
    /// `Δ` as a big integer (used by decryption and noise measurement).
    delta: UBig,
    /// Lazily built NTT-domain automorphism permutation tables, one per
    /// Galois exponent (shared by every prime — see [`GaloisPermutation`]).
    auto_perms: Mutex<HashMap<usize, Arc<GaloisPermutation>>>,
    /// Digits of every Galois key ([`FvContext::galois_digits`]).
    galois_digits: usize,
    /// The prime groups and basis extensions of those digits, built on
    /// the first grouped (`galois_digits < k`) decomposition, so contexts
    /// that never rotate do not pay for the extension tables.
    digit_groups: OnceLock<Vec<DigitGroup>>,
}

impl FvContext {
    /// Builds the context.
    ///
    /// # Errors
    ///
    /// Returns an error if the primes are not NTT-friendly for `n`, overlap
    /// between bases, lie outside `[2^29, 2^31)`, or the plaintext modulus
    /// is out of range.
    pub fn new(params: FvParams) -> Result<Self, Error> {
        let rns = RnsContext::new(&params.q_primes, &params.p_primes).map_err(Error::Math)?;
        if params.t < 2 {
            return Err(Error::InvalidParams(
                "plaintext modulus must be at least 2".into(),
            ));
        }
        let scale = ScaleContext::new(&rns, params.t);
        let mut tables_full = Vec::with_capacity(params.k() + params.l());
        for &p in params.q_primes.iter().chain(&params.p_primes) {
            tables_full.push(NttTable::new(Modulus::new(p), params.n).map_err(Error::Math)?);
        }
        let delta = rns.base_q().product().div_rem(&UBig::from(params.t)).0;
        let delta_rns = rns.base_q().encode(&delta);
        let galois_digits = NoiseModel::galois_digits_for(&params);
        Ok(FvContext {
            params,
            rns,
            scale,
            tables_full,
            delta_rns,
            delta,
            auto_perms: Mutex::new(HashMap::new()),
            galois_digits,
            digit_groups: OnceLock::new(),
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &FvParams {
        &self.params
    }

    /// The RNS context (bases and extenders).
    pub fn rns(&self) -> &RnsContext {
        &self.rns
    }

    /// The `Scale Q→q` constants.
    pub fn scale(&self) -> &ScaleContext {
        &self.scale
    }

    /// The ciphertext basis `q`.
    pub fn base_q(&self) -> &RnsBasis {
        self.rns.base_q()
    }

    /// NTT tables for the `q` primes.
    pub fn ntt_q(&self) -> &[NttTable] {
        &self.tables_full[..self.params.k()]
    }

    /// NTT tables for the `p` primes.
    pub fn ntt_p(&self) -> &[NttTable] {
        &self.tables_full[self.params.k()..]
    }

    /// NTT tables for all primes of `Q` (q primes first).
    pub fn ntt_full(&self) -> &[NttTable] {
        &self.tables_full
    }

    /// `Δ = ⌊q/t⌋` reduced modulo each `q_i`.
    pub fn delta_rns(&self) -> &[u64] {
        &self.delta_rns
    }

    /// `Δ = ⌊q/t⌋`.
    pub fn delta(&self) -> &UBig {
        &self.delta
    }

    /// Digits of every Galois key built for this context: the fewest for
    /// which the worst-case [`NoiseModel`] still closes a slot sum at the
    /// declared depth ([`NoiseModel::galois_digits_for`]). Digit `i` groups
    /// the primes [`FvContext::digit_rows`]`(d, i)`. Relinearization keys
    /// always use one digit per prime (`k`).
    pub fn galois_digits(&self) -> usize {
        self.galois_digits
    }

    /// The `q` residue rows digit `i` of a `d`-digit key switch groups:
    /// consecutive primes, split as evenly as possible.
    ///
    /// # Panics
    ///
    /// Panics unless `i < d ≤ k`.
    pub fn digit_rows(&self, d: usize, i: usize) -> std::ops::Range<usize> {
        crate::keyswitch::digit_rows(self.params.k(), d, i)
    }

    /// The prime groups of the Galois digits, with their extensions.
    pub(crate) fn digit_groups(&self) -> &[DigitGroup] {
        self.digit_groups
            .get_or_init(|| DigitGroup::split(self.base_q(), self.galois_digits))
    }

    /// Spreads a single-residue digit row (values `< q_i`) to a full set of
    /// `q`-basis rows: `a mod q_j` is `a` or `a − q_j` since all primes are
    /// the same width. This is the cheap `WordDecomp` residue-spread the
    /// microcode charges as coefficient-wise work (§II-B, Table II).
    ///
    /// Returns one flat limb-major `k·n` buffer (row `j` at stride
    /// `digit_row.len()`), ready for [`crate::rnspoly::RnsPoly::from_flat`].
    pub fn spread_digit(&self, digit_row: &[u64]) -> Vec<u64> {
        let moduli = self.base_q().moduli();
        let mut out = vec![0u64; moduli.len() * digit_row.len()];
        self.spread_digit_into(digit_row, &mut out);
        out
    }

    /// [`FvContext::spread_digit`] writing into a caller-provided flat
    /// `k·n` buffer (the arena-recycled hot path — no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != k · digit_row.len()`.
    pub fn spread_digit_into(&self, digit_row: &[u64], out: &mut [u64]) {
        let moduli = self.base_q().moduli();
        let n = digit_row.len();
        assert_eq!(out.len(), moduli.len() * n, "spread buffer size mismatch");
        for (j, m) in moduli.iter().enumerate() {
            let q = m.value();
            for (d, &a) in out[j * n..(j + 1) * n].iter_mut().zip(digit_row) {
                *d = if a >= q { a - q } else { a };
            }
        }
    }

    /// The NTT-domain permutation table for `σ_g`, built on first use and
    /// cached for the context's lifetime (the software analogue of the
    /// coprocessor's Memory-Rearrange address ROM). One table serves every
    /// residue row — the permutation depends only on `(n, g)`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid odd exponent in `[1, 2n)`.
    pub fn automorphism_table(&self, g: usize) -> Arc<GaloisPermutation> {
        let mut cache = self.auto_perms.lock().unwrap();
        Arc::clone(
            cache
                .entry(g)
                .or_insert_with(|| Arc::new(GaloisPermutation::new(self.params.n, g))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_for_all_named_sets() {
        for p in [FvParams::insecure_toy(), FvParams::insecure_medium()] {
            let ctx = FvContext::new(p).unwrap();
            assert_eq!(ctx.ntt_full().len(), ctx.params().k() + ctx.params().l());
        }
    }

    #[test]
    fn delta_is_q_over_t() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let q = ctx.base_q().product();
        let t = UBig::from(ctx.params().t);
        let recomposed = &(ctx.delta() * &t) + &q.div_rem(&t).1;
        assert_eq!(&recomposed, q);
        assert_eq!(ctx.delta_rns(), ctx.base_q().encode(ctx.delta()));
    }

    #[test]
    fn rejects_bad_t() {
        let mut p = FvParams::insecure_toy();
        p.t = 1;
        assert!(FvContext::new(p).is_err());
    }

    #[test]
    fn rejects_primes_outside_the_30_31_bit_range() {
        use hefv_math::primes::ntt_primes;
        for bits in [28u32, 32, 40] {
            let bad = ntt_primes(bits, 64, 4).unwrap();
            let toy = FvParams::insecure_toy();
            let in_q = FvParams {
                q_primes: bad[..3].to_vec(),
                ..toy.clone()
            };
            let in_p = FvParams {
                p_primes: bad.clone(),
                ..toy
            };
            for params in [in_q, in_p] {
                match FvContext::new(params) {
                    Err(Error::Math(msg)) => assert!(msg.contains("[2^29, 2^31)"), "{msg}"),
                    other => panic!("{bits}-bit primes: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn spread_digit_values() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let q0 = ctx.base_q().modulus(0).value();
        let spread = ctx.spread_digit(&[0, 1, q0 - 1]);
        assert_eq!(spread.len(), ctx.base_q().len() * 3);
        for (j, m) in ctx.base_q().moduli().iter().enumerate() {
            assert_eq!(spread[j * 3], 0);
            assert_eq!(spread[j * 3 + 1], 1);
            let expect = (q0 - 1) % m.value();
            assert_eq!(spread[j * 3 + 2], expect, "j={j}");
        }
    }
}
