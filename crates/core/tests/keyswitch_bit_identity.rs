//! Every key switch — relinearization, hoisted rotations, slot sums —
//! runs one decomposition and one narrow sum-of-products routine. These
//! tests pin that routine **bit-identical** to per-digit oracles built
//! from the generic `pointwise_mul_acc` kernel, which reduce after every
//! product and never touch the 32-bit key tables' layout. The rotation
//! oracle builds each grouped Galois digit by long-integer CRT over its
//! primes (the centered integer), independent of the HPS extension the
//! library runs.
//!
//! The shapes cover the toy and medium sets, the paper's n = 4096 set,
//! and three n = 64 bases whose digit dots can exceed `u64` without the
//! SoP's partial folds: six 31-bit primes, twenty 30-bit primes, and
//! twenty 31-bit primes, where an unfolded sum of random residues wraps
//! on about half the slots. The suite
//! runs under whichever kernel lane the process selected; CI runs it
//! with and without `HEFV_FORCE_SCALAR=1`.

use hefv_core::eval::{self, Backend, TensorResult};
use hefv_core::galois::{
    apply_automorphism, apply_automorphism_ntt, apply_galois, apply_galois_reference, rotate_many,
    sum_slots, sum_slots_in, sum_slots_reference, GaloisKey, GaloisKeySet, HoistedCiphertext,
};
use hefv_core::prelude::*;
use hefv_math::primes::ntt_primes;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::digit_oracle;

/// An n = 64, t = 2 set over `k` `bits`-bit `q` primes.
fn custom(name: &str, bits: u32, k: usize) -> FvParams {
    let ps = ntt_primes(bits, 64, 2 * k + 1).unwrap();
    FvParams {
        name: name.into(),
        n: 64,
        q_primes: ps[..k].to_vec(),
        p_primes: ps[k..].to_vec(),
        t: 2,
        sigma: 3.2,
    }
}

fn shapes() -> Vec<FvParams> {
    vec![
        FvParams::insecure_toy(),
        FvParams::insecure_medium(),
        FvParams::hpca19(),
        custom("31-bit k=6", 31, 6),
        custom("30-bit k=20", 30, 20),
        custom("31-bit k=20", 31, 20),
    ]
}

struct Fixture {
    ctx: FvContext,
    sk: SecretKey,
    pk: PublicKey,
    rlk: RelinKey,
    rng: StdRng,
}

fn fixture(params: FvParams, seed: u64) -> Fixture {
    let ctx = FvContext::new(params).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    Fixture {
        ctx,
        sk,
        pk,
        rlk,
        rng,
    }
}

impl Fixture {
    fn encrypt(&mut self, coeffs: &[u64]) -> Ciphertext {
        let (t, n) = (self.ctx.params().t, self.ctx.params().n);
        let pt = Plaintext::new(coeffs.iter().map(|c| c % t).collect(), t, n);
        encrypt(&self.ctx, &self.pk, &pt, &mut self.rng)
    }
}

/// The per-digit relinearization loop: spread, transform, and multiply-
/// accumulate each digit against the `u64` key digits.
fn relinearize_oracle(ctx: &FvContext, t: &TensorResult, rlk: &RelinKey) -> Ciphertext {
    let basis = ctx.base_q();
    let (k, n) = (ctx.params().k(), ctx.params().n);
    let mut acc0 = RnsPoly::zero_in(k, n, Domain::Ntt);
    let mut acc1 = RnsPoly::zero_in(k, n, Domain::Ntt);
    for i in 0..k {
        let mut digit = RnsPoly::from_flat(ctx.spread_digit(t.d2.row(i)), k, Domain::Coefficient);
        digit.ntt_forward(ctx.ntt_q());
        acc0.pointwise_mul_acc(&digit, &rlk.rlk0(i), basis);
        acc1.pointwise_mul_acc(&digit, &rlk.rlk1(i), basis);
    }
    acc0.ntt_inverse(ctx.ntt_q());
    acc1.ntt_inverse(ctx.ntt_q());
    Ciphertext::from_parts(acc0.add(&t.d0, basis), acc1.add(&t.d1, basis))
}

/// A decompose-first rotation through generic kernels: each digit is
/// materialized, permuted in the NTT domain and multiply-accumulated.
fn rotate_oracle(ctx: &FvContext, ct: &Ciphertext, key: &GaloisKey) -> Ciphertext {
    let basis = ctx.base_q();
    let (k, n) = (ctx.params().k(), ctx.params().n);
    let mut acc0 = RnsPoly::zero_in(k, n, Domain::Ntt);
    let mut acc1 = RnsPoly::zero_in(k, n, Domain::Ntt);
    for i in 0..key.digits() {
        let mut digit = digit_oracle(ctx, ct.c1(), key.digits(), i);
        digit.ntt_forward(ctx.ntt_q());
        let permuted = apply_automorphism_ntt(ctx, &digit, key.g);
        acc0.pointwise_mul_acc(&permuted, &key.ksk0(i), basis);
        acc1.pointwise_mul_acc(&permuted, &key.ksk1(i), basis);
    }
    acc0.ntt_inverse(ctx.ntt_q());
    acc1.ntt_inverse(ctx.ntt_q());
    let c0 = apply_automorphism(ctx, ct.c0(), key.g).add(&acc0, basis);
    Ciphertext::from_parts(c0, acc1)
}

/// The hoisted slot sum's arithmetic, one oracle rotation at a time: each
/// hoist group adds every subset rotation of the group's input.
fn sum_slots_oracle(ctx: &FvContext, ct: &Ciphertext, keys: &GaloisKeySet) -> Ciphertext {
    let mut acc = ct.clone();
    for group in keys.groups() {
        let rotations: Vec<Ciphertext> = group
            .iter()
            .map(|&i| rotate_oracle(ctx, &acc, &keys.keys()[i]))
            .collect();
        for r in &rotations {
            acc = eval::add(ctx, &acc, r);
        }
    }
    acc
}

#[test]
fn relinearize_and_mul_match_the_per_digit_loop() {
    for (s, params) in shapes().into_iter().enumerate() {
        let name = params.name.clone();
        let mut f = fixture(params, 0x5E1F + s as u64);
        let a = f.encrypt(&[1, 0, 1, 1]);
        let b = f.encrypt(&[1, 1]);
        let ctx = &f.ctx;
        let t = eval::tensor(ctx, &a, &b, Backend::default());
        let want = relinearize_oracle(ctx, &t, &f.rlk);
        assert_eq!(
            eval::relinearize(ctx, &t, &f.rlk),
            want,
            "{name}: relinearize"
        );
        let arena = Arena::new();
        assert_eq!(
            eval::relinearize_in(ctx, &t, &f.rlk, &arena),
            want,
            "{name}: relinearize_in"
        );
        assert_eq!(
            eval::mul(ctx, &a, &b, &f.rlk, Backend::default()),
            want,
            "{name}: mul"
        );
        assert_eq!(
            eval::mul_in(ctx, &a, &b, &f.rlk, Backend::default(), &arena),
            want,
            "{name}: mul_in"
        );
        let expect = {
            let pa = decrypt(ctx, &f.sk, &a);
            let pb = decrypt(ctx, &f.sk, &b);
            let (n, tm) = (ctx.params().n, ctx.params().t);
            let mut prod = vec![0u64; n];
            for (i, &x) in pa.coeffs().iter().enumerate() {
                for (j, &y) in pb.coeffs().iter().enumerate() {
                    let v = x * y % tm;
                    let at = (i + j) % n;
                    prod[at] = if i + j < n {
                        (prod[at] + v) % tm
                    } else {
                        (prod[at] + tm - v) % tm
                    };
                }
            }
            prod
        };
        assert_eq!(
            decrypt(ctx, &f.sk, &want).coeffs(),
            &expect[..],
            "{name}: decrypts"
        );
    }
}

#[test]
fn rotations_and_slot_sums_match_the_oracles() {
    for (s, params) in shapes().into_iter().enumerate() {
        let name = params.name.clone();
        let mut f = fixture(params, 0x6A10 + s as u64);
        let n = f.ctx.params().n;
        let ct = f.encrypt(&(0..n as u64).map(|i| i * 7 + 3).collect::<Vec<_>>());
        let keys = GaloisKeySet::for_slot_sum(&f.ctx, &f.sk, &mut f.rng);
        let ctx = &f.ctx;
        assert_eq!(keys.digits(), ctx.galois_digits(), "{name}: key digits");

        let picked: Vec<&GaloisKey> = keys.keys().iter().take(3).collect();
        let hoisted = HoistedCiphertext::new(ctx, &ct);
        let many = rotate_many(ctx, &ct, &picked);
        for (key, got) in picked.iter().zip(&many) {
            let want = rotate_oracle(ctx, &ct, key);
            assert_eq!(&want, got, "{name}: rotate_many g={}", key.g);
            assert_eq!(hoisted.rotate(ctx, key), want, "{name}: rotate g={}", key.g);
            assert_eq!(
                apply_galois(ctx, &ct, key),
                want,
                "{name}: apply_galois g={}",
                key.g
            );
            assert_eq!(
                decrypt(ctx, &f.sk, &want),
                decrypt(ctx, &f.sk, &apply_galois_reference(ctx, &ct, key)),
                "{name}: rotation decrypts like the reference, g={}",
                key.g
            );
        }

        let want = sum_slots_oracle(ctx, &ct, &keys);
        assert_eq!(sum_slots(ctx, &ct, &keys), want, "{name}: sum_slots");
        assert_eq!(
            sum_slots_in(ctx, &ct, &keys, &Arena::new()),
            want,
            "{name}: sum_slots_in"
        );
        assert_eq!(
            decrypt(ctx, &f.sk, &want),
            decrypt(ctx, &f.sk, &sum_slots_reference(ctx, &ct, &keys)),
            "{name}: slot sum decrypts like the reference"
        );
    }
}

#[test]
fn a_relin_key_is_a_g1_galois_key() {
    // Relinearization is the g = 1 key switch of c̃2: rotating (d0, d2)
    // with the relinearization key's digits and adding d1 reproduces it.
    // Galois keys share the relinearization shape only where grouped
    // digits cannot close a slot sum: on two primes, one digit of both.
    let mut f = fixture(custom("30-bit k=2", 30, 2), 0x91);
    let a = f.encrypt(&[1, 1, 0, 1]);
    let ctx = &f.ctx;
    let k = ctx.params().k();
    assert_eq!(ctx.galois_digits(), k, "one digit per prime");
    let t = eval::tensor(ctx, &a, &a, Backend::default());
    let as_galois = GaloisKey::from_parts(
        ctx,
        1,
        (0..k).map(|i| f.rlk.rlk0(i)).collect(),
        (0..k).map(|i| f.rlk.rlk1(i)).collect(),
    )
    .unwrap();
    let switched = apply_galois(
        ctx,
        &Ciphertext::from_parts(t.d0.clone(), t.d2.clone()),
        &as_galois,
    );
    let (c0, c1) = switched.into_parts();
    let via_rotation = Ciphertext::from_parts(c0, c1.add(&t.d1, ctx.base_q()));
    assert_eq!(eval::relinearize(ctx, &t, &f.rlk), via_rotation);
}

#[test]
fn a_galois_key_has_the_context_digit_count() {
    // Where Galois digits group primes, a key with one digit per prime
    // (a relinearization key's shape) is refused, so every hoist, slot
    // sum and wire decode meets keys of one digit count.
    let f = fixture(FvParams::insecure_medium(), 0x92);
    let ctx = &f.ctx;
    let k = ctx.params().k();
    assert!(ctx.galois_digits() < k, "grouped Galois digits");
    let refused = GaloisKey::from_parts(
        ctx,
        1,
        (0..k).map(|i| f.rlk.rlk0(i)).collect(),
        (0..k).map(|i| f.rlk.rlk1(i)).collect(),
    );
    assert!(
        matches!(&refused, Err(Error::Wire(msg)) if msg.contains("digits")),
        "{:?}",
        refused.err()
    );
}
