//! Noise measurement: the invariant-noise budget of a ciphertext.
//!
//! The paper's parameter set is chosen for multiplicative depth 4 (§III-A);
//! this module lets the test suite *demonstrate* that, instead of asserting
//! it: decrypting drains no budget, each `Mult` consumes a measurable slice,
//! and decryption fails once the budget reaches zero.

use crate::context::FvContext;
use crate::encrypt::{decrypt_phase, Ciphertext};
use crate::keys::SecretKey;
use crate::params::FvParams;
use hefv_math::bigint::{center, UBig};

/// Noise statistics of a ciphertext.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseReport {
    /// `log2` of the largest noise coefficient (`|v − Δ·m|`, centered).
    pub noise_bits: f64,
    /// Remaining budget in bits; decryption fails at ≤ 0.
    pub budget_bits: f64,
}

/// Measures the noise of `ct` with the secret key.
///
/// Computes `v = [c0 + c1·s]_q`, subtracts `Δ·m` for the decrypted `m`, and
/// reports the infinity norm of the remainder against the failure threshold
/// `q / (2t)`.
pub fn measure(ctx: &FvContext, sk: &SecretKey, ct: &Ciphertext) -> NoiseReport {
    let basis = ctx.base_q();
    let q = basis.product();
    let t = UBig::from(ctx.params().t);
    let v = decrypt_phase(ctx, sk, ct);
    let n = ctx.params().n;
    let mut buf = vec![0u64; basis.len()];
    let mut max_noise = UBig::zero();
    for c in 0..n {
        for (slot, row) in buf.iter_mut().zip(v.rows()) {
            *slot = row[c];
        }
        let vc = basis.decode(&buf);
        // m_c = round(t*v/q) mod t ; noise = v - Δ·m - (rounding part of Δ)
        let centered = center(&vc, q);
        let m = centered.scale_round(&t, q).rem_euclid(&t);
        // w = v - Δ*m (mod q), centered
        let dm = ctx.delta() * &m;
        let w = if centered.is_negative() {
            // v ≡ q - |v|; noise = v - Δm computed mod q
            let vv = q - centered.magnitude();
            center(&(&vv + &(q - &(&dm % q))).div_rem(q).1, q)
        } else {
            let vv = centered.magnitude().clone();
            center(&(&vv + &(q - &(&dm % q))).div_rem(q).1, q)
        };
        if w.magnitude() > &max_noise {
            max_noise = w.magnitude().clone();
        }
    }
    let noise_bits = if max_noise.is_zero() {
        0.0
    } else {
        max_noise.to_f64().log2()
    };
    // Failure threshold: |noise| must stay below q/(2t).
    let threshold_bits = q.to_f64().log2() - 1.0 - (ctx.params().t as f64).log2();
    NoiseReport {
        noise_bits,
        budget_bits: threshold_bits - noise_bits,
    }
}

/// The multiplicative depth the paper's parameter set targets (§III-A).
/// The Galois digit count is chosen so that a slot sum still closes at
/// the end of a chain this deep (or as deep as the parameters support,
/// when that is less).
pub const DECLARED_DEPTH: u32 = 4;

/// Worst-case analytic noise model (after the FV paper's Lemmas 1–4,
/// adapted to the digit gadget of the key-switching core): predicts upper
/// bounds on noise magnitude per operation and the supported
/// multiplicative depth. Measurements ([`measure`]) always sit below these
/// bounds; the test suite checks both directions.
///
/// A key switch with `d` digits of magnitude at most `w` adds
/// `d·n·w·B`. Relinearization (inside [`NoiseModel::after_mul`]) uses one
/// digit per prime, `w` the largest residue; Galois key switches
/// ([`NoiseModel::after_key_switch`]) use the context's
/// [`FvContext::galois_digits`], whose grouped digits are centered
/// (`w = max_i Q_i/2`).
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    n: f64,
    t: f64,
    sigma: f64,
    /// `log2 q`.
    log_q: f64,
    /// The key-switch term `d·n·w·B` of relinearization (one digit per
    /// prime) and of a Galois key switch (`galois_digits` digits).
    relin_switch: f64,
    galois_switch: f64,
}

impl NoiseModel {
    /// Builds the model from a context.
    pub fn new(ctx: &FvContext) -> Self {
        Self::for_params(ctx.params(), ctx.galois_digits())
    }

    /// The model of `params` with `galois_digits`-digit Galois keys (a
    /// context's own model is [`NoiseModel::new`]; this one prices other
    /// digit counts).
    pub fn for_params(params: &FvParams, galois_digits: usize) -> Self {
        let q = &params.q_primes;
        let (n, b) = (params.n as f64, 12.0 * params.sigma);
        let switch = |d: usize| d as f64 * n * Self::digit_word(q, d) * b;
        NoiseModel {
            n,
            t: params.t as f64,
            sigma: params.sigma,
            log_q: q.iter().map(|&p| (p as f64).log2()).sum(),
            relin_switch: switch(q.len()),
            galois_switch: switch(galois_digits),
        }
    }

    /// The largest digit magnitude `w` of a `d`-digit decomposition over
    /// the primes `q`: a residue below `max(q_i, 2^30)` for one prime per
    /// digit, else half the largest group product (grouped digits are
    /// centered; see `keyswitch`'s module docs).
    fn digit_word(q: &[u64], d: usize) -> f64 {
        let k = q.len();
        if d == k {
            let max = q.iter().copied().max().unwrap_or(0) as f64;
            return max.max(2f64.powi(30));
        }
        (0..d)
            .map(|i| {
                let rows = crate::keyswitch::digit_rows(k, d, i);
                q[rows].iter().map(|&p| p as f64).product::<f64>() / 2.0
            })
            .fold(0.0, f64::max)
    }

    /// The Galois digit count for `params`: the fewest digits `d < k` for
    /// which a full slot sum of `log2(n)` rounds, applied to the output of
    /// a chain of `min(DECLARED_DEPTH, supported_depth)` squarings, stays
    /// under the decryption threshold — else `k`. A few dozen `f64`
    /// operations per candidate.
    pub fn galois_digits_for(params: &FvParams) -> usize {
        let k = params.k();
        let rounds = crate::galois::slot_sum_rounds(params.n);
        (1..k)
            .find(|&d| {
                let model = Self::for_params(params, d);
                let depth = DECLARED_DEPTH.min(model.supported_depth());
                let noise = model.after_sum_slots(model.after_squarings(depth), rounds);
                noise.log2() < model.threshold_bits()
            })
            .unwrap_or(k)
    }

    /// Worst-case fresh-encryption noise magnitude.
    pub fn fresh(&self) -> f64 {
        // v = Δm + e1 + e2·s + u·e_pk: ≤ B(2n + 1) + t, with the error
        // tail bound B = 12σ.
        12.0 * self.sigma * (2.0 * self.n + 1.0) + self.t
    }

    /// Noise after a homomorphic addition of noises `n1`, `n2`.
    pub fn after_add(&self, n1: f64, n2: f64) -> f64 {
        n1 + n2 + self.t
    }

    /// Noise after a homomorphic multiplication of noises `n1`, `n2`
    /// (tensor + scale + relinearization, one digit per prime).
    pub fn after_mul(&self, n1: f64, n2: f64) -> f64 {
        let tensor =
            2.0 * self.n * self.t * (n1 + n2 + 1.0) + 4.0 * self.n * self.n * self.t * self.t;
        tensor + self.relin_switch
    }

    /// Noise after multiplying by a plaintext polynomial: the operand
    /// noise is scaled by the plaintext's worst-case 1-norm `t·n`.
    pub fn after_mul_plain(&self, n1: f64) -> f64 {
        n1 * self.t * self.n
    }

    /// Noise after one Galois key switch (rotation): the operand noise
    /// plus the SoP term `d·n·w·B` of the Galois digits.
    pub fn after_key_switch(&self, n1: f64) -> f64 {
        n1 + self.galois_switch
    }

    /// Noise after a slot sum of `rounds` doubling rounds: each round
    /// key-switches the accumulator and adds it back on,
    /// `acc ← 2·acc + ks + t` (a hoisted group of `J` rounds adds `2^J`
    /// copies of its input and `2^J − 1` switches, which this bounds).
    pub fn after_sum_slots(&self, n1: f64, rounds: usize) -> f64 {
        (0..rounds).fold(n1, |acc, _| self.after_add(self.after_key_switch(acc), acc))
    }

    /// Noise after `depth` chained squarings of a fresh ciphertext.
    pub fn after_squarings(&self, depth: u32) -> f64 {
        (0..depth).fold(self.fresh(), |noise, _| self.after_mul(noise, noise))
    }

    /// The decryption-failure threshold `q / (2t)` in bits.
    pub fn threshold_bits(&self) -> f64 {
        self.log_q - 1.0 - self.t.log2()
    }

    /// Maximum multiplicative depth the parameters support under the
    /// worst-case model (a chain of squarings from fresh ciphertexts).
    pub fn supported_depth(&self) -> u32 {
        (0..64)
            .find(|&depth| self.after_squarings(depth + 1).log2() >= self.threshold_bits())
            .unwrap_or(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Plaintext;
    use crate::encrypt::{decrypt, encrypt};
    use crate::eval::{mul, Backend};
    use crate::keys::keygen;
    use crate::params::FvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measured_noise_stays_below_worst_case_model() {
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let model = NoiseModel::new(&ctx);
        let mut rng = StdRng::seed_from_u64(17);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let pt = Plaintext::new(vec![1], ctx.params().t, ctx.params().n);
        let ct = encrypt(&ctx, &pk, &pt, &mut rng);

        let fresh_measured = measure(&ctx, &sk, &ct).noise_bits;
        assert!(
            fresh_measured <= model.fresh().log2(),
            "fresh: measured {fresh_measured:.1} vs bound {:.1}",
            model.fresh().log2()
        );

        let mut bound = model.fresh();
        let mut acc = ct.clone();
        for level in 1..=2 {
            acc = mul(&ctx, &acc, &ct, &rlk, Backend::default());
            bound = model.after_mul(bound, model.fresh());
            let measured = measure(&ctx, &sk, &acc).noise_bits;
            assert!(
                measured <= bound.log2(),
                "level {level}: measured {measured:.1} vs bound {:.1}",
                bound.log2()
            );
        }
    }

    #[test]
    fn model_predicts_at_least_the_papers_depth() {
        let ctx = FvContext::new(FvParams::hpca19()).unwrap();
        let model = NoiseModel::new(&ctx);
        assert!(
            model.supported_depth() >= 4,
            "paper's depth-4 claim: model says {}",
            model.supported_depth()
        );
    }

    #[test]
    fn model_add_is_cheaper_than_mul() {
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let model = NoiseModel::new(&ctx);
        let f = model.fresh();
        assert!(model.after_add(f, f) < model.after_mul(f, f));
    }

    #[test]
    fn fresh_ciphertext_has_budget() {
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let pt = Plaintext::new(vec![1], ctx.params().t, ctx.params().n);
        let ct = encrypt(&ctx, &pk, &pt, &mut rng);
        let r = measure(&ctx, &sk, &ct);
        assert!(r.budget_bits > 50.0, "fresh budget {:.1}", r.budget_bits);
        assert!(r.noise_bits > 0.0);
    }

    #[test]
    fn mult_consumes_budget_monotonically() {
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let pt = Plaintext::new(vec![1], ctx.params().t, ctx.params().n);
        let one = encrypt(&ctx, &pk, &pt, &mut rng);
        let mut acc = one.clone();
        let mut last = measure(&ctx, &sk, &acc).budget_bits;
        for level in 1..=3 {
            acc = mul(&ctx, &acc, &one, &rlk, Backend::default());
            let r = measure(&ctx, &sk, &acc);
            assert!(
                r.budget_bits < last,
                "level {level}: budget must shrink ({} -> {})",
                last,
                r.budget_bits
            );
            last = r.budget_bits;
            assert_eq!(
                decrypt(&ctx, &sk, &acc).coeffs()[0],
                1,
                "still decryptable at level {level}"
            );
        }
    }
}
