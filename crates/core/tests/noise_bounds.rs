//! The worst-case [`NoiseModel`] must upper-bound every Galois op class,
//! not only `Mult` chains. On the toy, medium and paper batching sets,
//! with Galois keys of the context's grouped digit count, the measured
//! noise after a rotation, a hoisted sum of four rotations, a slot sum of
//! a fresh ciphertext and a slot sum at the end of a chain of the
//! declared depth stays at or below the model's bound, and every result
//! decrypts to the plaintext arithmetic.

use hefv_core::galois::{rotate_many, slot_sum_rounds, GaloisKeySet};
use hefv_core::noise::{measure, NoiseModel, DECLARED_DEPTH};
use hefv_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `σ_g(m)` on plaintext coefficients: `x^i ↦ x^(i·g mod 2n)`, negated
/// past `n`.
fn automorphism(m: &[u64], g: usize, t: u64) -> Vec<u64> {
    let n = m.len();
    let mut out = vec![0u64; n];
    for (i, &c) in m.iter().enumerate() {
        let pos = i * g % (2 * n);
        if pos < n {
            out[pos] = (out[pos] + c) % t;
        } else {
            out[pos - n] = (out[pos - n] + t - c) % t;
        }
    }
    out
}

fn add_into(acc: &mut [u64], x: &[u64], t: u64) {
    for (a, &b) in acc.iter_mut().zip(x) {
        *a = (*a + b) % t;
    }
}

/// Measured noise bits of `ct`, checked against `bound` (a magnitude)
/// and against the expected decryption.
fn check(what: &str, ctx: &FvContext, sk: &SecretKey, ct: &Ciphertext, bound: f64, want: &[u64]) {
    let measured = measure(ctx, sk, ct).noise_bits;
    assert!(
        measured <= bound.log2(),
        "{}: {what}: measured {measured:.1} bits above the bound {:.1}",
        ctx.params().name,
        bound.log2()
    );
    assert_eq!(
        decrypt(ctx, sk, ct).coeffs(),
        want,
        "{}: {what} decrypts",
        ctx.params().name
    );
}

fn check_galois_ops(params: FvParams, seed: u64) {
    let ctx = FvContext::new(params).unwrap();
    let model = NoiseModel::new(&ctx);
    assert!(
        ctx.galois_digits() < ctx.params().k(),
        "{}: Galois keys group primes",
        ctx.params().name
    );
    let (t, n) = (ctx.params().t, ctx.params().n);
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let keys = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
    let m: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
    let ct = encrypt(&ctx, &pk, &Plaintext::new(m.clone(), t, n), &mut rng);
    let fresh = model.fresh();

    // One rotation, then a hoisted sum of four.
    let four: Vec<&GaloisKey> = keys.keys().iter().take(4).collect();
    let rotated = rotate_many(&ctx, &ct, &four);
    let switched = model.after_key_switch(fresh);
    check(
        "rotate",
        &ctx,
        &sk,
        &rotated[0],
        switched,
        &automorphism(&m, four[0].g, t),
    );
    let mut sum = rotated[0].clone();
    let mut bound = switched;
    let mut want = automorphism(&m, four[0].g, t);
    for (r, key) in rotated.iter().zip(&four).skip(1) {
        sum = add(&ctx, &sum, r);
        bound = model.after_add(bound, switched);
        add_into(&mut want, &automorphism(&m, key.g, t), t);
    }
    check("hoisted 4-rotation sum", &ctx, &sk, &sum, bound, &want);

    // A slot sum folds over the whole Galois group: every odd exponent.
    let mut total = vec![0u64; n];
    for g in (1..2 * n).step_by(2) {
        add_into(&mut total, &automorphism(&m, g, t), t);
    }
    let rounds = slot_sum_rounds(n);
    assert_eq!(keys.rounds(), rounds);
    check(
        "slot sum of a fresh ciphertext",
        &ctx,
        &sk,
        &sum_slots(&ctx, &ct, &keys),
        model.after_sum_slots(fresh, rounds),
        &total,
    );

    // A slot sum at the end of a chain of the declared depth: multiply
    // by encryptions of 1, so the plaintext is unchanged.
    let depth = DECLARED_DEPTH.min(model.supported_depth());
    let one = Plaintext::new(vec![1], t, n);
    let mut acc = ct.clone();
    let mut bound = fresh;
    for _ in 0..depth {
        acc = mul(
            &ctx,
            &acc,
            &encrypt(&ctx, &pk, &one, &mut rng),
            &rlk,
            Backend::default(),
        );
        bound = model.after_mul(bound, fresh);
    }
    check(
        &format!("slot sum after {depth} Muls"),
        &ctx,
        &sk,
        &sum_slots(&ctx, &acc, &keys),
        model.after_sum_slots(bound, rounds),
        &total,
    );
}

#[test]
fn galois_ops_stay_under_the_model_on_toy() {
    check_galois_ops(FvParams::insecure_toy(), 0x70);
}

#[test]
fn galois_ops_stay_under_the_model_on_medium() {
    check_galois_ops(FvParams::insecure_medium(), 0x71);
}

#[test]
fn galois_ops_stay_under_the_model_on_the_batching_set() {
    check_galois_ops(FvParams::hpca19_batching(), 0x72);
}

/// The model's digit rule on the paper's sets: two digits of three
/// primes for the batching set, where a slot sum at depth 4 reads 2^160.2
/// against the 2^163.0 threshold, and the trade it makes. With one digit
/// per prime, three `Mul`s fit after rotating a fresh ciphertext; with
/// two digits, one does.
#[test]
fn galois_digit_rule_on_the_paper_sets() {
    let ctx = FvContext::new(FvParams::hpca19_batching()).unwrap();
    let model = NoiseModel::new(&ctx);
    assert_eq!(ctx.galois_digits(), 2);
    assert_eq!(ctx.digit_rows(2, 0), 0..3);
    assert_eq!(ctx.digit_rows(2, 1), 3..6);
    assert_eq!(model.supported_depth(), DECLARED_DEPTH);
    let rounds = slot_sum_rounds(ctx.params().n);
    let at_depth = model.after_sum_slots(model.after_squarings(DECLARED_DEPTH), rounds);
    assert!(at_depth.log2() < model.threshold_bits());
    let muls_after_rotation = |model: &NoiseModel| {
        let mut noise = model.after_key_switch(model.fresh());
        (0..)
            .find(|_| {
                noise = model.after_mul(noise, model.fresh());
                noise.log2() >= model.threshold_bits()
            })
            .unwrap()
    };
    assert_eq!(muls_after_rotation(&model), 1);
    let per_prime = NoiseModel::for_params(ctx.params(), ctx.params().k());
    assert_eq!(muls_after_rotation(&per_prime), 3);
    // The same chain ends a slot sum under the threshold either way.
    let at_depth = per_prime.after_sum_slots(per_prime.after_squarings(DECLARED_DEPTH), rounds);
    assert!(at_depth.log2() < per_prime.threshold_bits());
}
