//! Property tests for the wire format and the Galois machinery.

use hefv_core::galois::{apply_automorphism, apply_galois, GaloisKey};
use hefv_core::prelude::*;
use hefv_core::wire::{decode_ciphertext, encode_ciphertext};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

mod common;
use common::digit_oracle;

struct Fix {
    ctx: FvContext,
    sk: SecretKey,
    pk: PublicKey,
}

fn fix() -> &'static Fix {
    static F: OnceLock<Fix> = OnceLock::new();
    F.get_or_init(|| {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        Fix { ctx, sk, pk }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wire_roundtrips_any_ciphertext(msg in prop::collection::vec(0u64..16, 1..32), seed in any::<u64>()) {
        let f = fix();
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = Plaintext::new(msg, f.ctx.params().t, f.ctx.params().n);
        let ct = encrypt(&f.ctx, &f.pk, &pt, &mut rng);
        let bytes = encode_ciphertext(&ct);
        let back = decode_ciphertext(&f.ctx, &bytes).unwrap();
        prop_assert_eq!(&back, &ct);
        prop_assert_eq!(decrypt(&f.ctx, &f.sk, &back), pt);
    }

    #[test]
    fn wire_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let f = fix();
        // Any byte soup must be cleanly rejected or decoded — no panic.
        let _ = decode_ciphertext(&f.ctx, &bytes);
    }

    #[test]
    fn wire_rejects_any_truncation(msg in prop::collection::vec(0u64..16, 1..8), cut in 1usize..64, seed in any::<u64>()) {
        let f = fix();
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = Plaintext::new(msg, f.ctx.params().t, f.ctx.params().n);
        let ct = encrypt(&f.ctx, &f.pk, &pt, &mut rng);
        let mut bytes = encode_ciphertext(&ct);
        let cut = cut.min(bytes.len() - 1);
        bytes.truncate(bytes.len() - cut);
        prop_assert!(decode_ciphertext(&f.ctx, &bytes).is_err());
    }

    #[test]
    fn automorphism_group_law_holds(ga in 0usize..32, gb in 0usize..32, seed in any::<u64>()) {
        let f = fix();
        let n = f.ctx.params().n;
        let ga = 2 * ga + 1; // odd exponents
        let gb = 2 * gb + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range(-8i64..8)).collect();
        let p = RnsPoly::from_signed(&coeffs, f.ctx.base_q());
        let lhs = apply_automorphism(&f.ctx, &apply_automorphism(&f.ctx, &p, gb), ga);
        let rhs = apply_automorphism(&f.ctx, &p, (ga * gb) % (2 * n));
        prop_assert_eq!(lhs, rhs);
    }

    /// The PR-5 acceptance pin: across random `(q, n, exponent)` — prime
    /// widths 30/31 bits (all `FvContext` supports: the `Lift`/`Scale`
    /// reciprocal ROMs are 30-bit-lane hardware), ring degrees 16..128,
    /// digit counts 1..7 — a hoisted rotation is **bit-identical** to
    /// `apply_galois`, and both match an independently evaluated
    /// decompose → NTT-permute → pointwise-SoP oracle. At 31-bit primes
    /// with k ≥ 4 the dot exceeds `u64`, so the draws cover SoPs that run
    /// whole and SoPs that take partial folds.
    #[test]
    fn hoisted_rotation_bit_identical_to_apply_galois(
        bits in 30u32..32,
        log_n in 4u32..8,
        k in 1usize..7,
        g_raw in 0usize..256,
        seed in any::<u64>(),
    ) {
        use hefv_core::galois::{apply_automorphism_ntt, HoistedCiphertext};
        use hefv_core::rnspoly::Domain;
        use hefv_math::primes::ntt_primes;

        let n = 1usize << log_n;
        let g = (2 * g_raw + 1) % (2 * n);
        // k ciphertext primes plus one extension prime of the same width.
        let Ok(ps) = ntt_primes(bits, n, k + 1) else {
            // Some (bits, n) pools are too small; skip such draws.
            return Ok(());
        };
        let params = FvParams {
            name: "prop".into(),
            n,
            q_primes: ps[..k].to_vec(),
            p_primes: ps[k..].to_vec(),
            t: 2,
            sigma: 3.2,
        };
        let Ok(ctx) = FvContext::new(params) else { return Ok(()); };
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let key = GaloisKey::generate(&ctx, &sk, g, &mut rng);
        let pt = Plaintext::new(vec![1, 0, 1, 1], 2, n);
        let ct = encrypt(&ctx, &pk, &pt, &mut rng);

        // One hoist, rotated — must equal the one-shot path bit for bit.
        let hoisted = HoistedCiphertext::new(&ctx, &ct);
        let via_hoist = hoisted.rotate(&ctx, &key);
        let via_apply = apply_galois(&ctx, &ct, &key);
        prop_assert_eq!(&via_hoist, &via_apply);

        // Independent oracle through different code: materialize each
        // permuted digit with the NTT-domain automorphism and run the SoP
        // with the generic pointwise kernels.
        let basis = ctx.base_q();
        let kk = ctx.params().k();
        let mut acc0 = RnsPoly::zero_in(kk, n, Domain::Ntt);
        let mut acc1 = RnsPoly::zero_in(kk, n, Domain::Ntt);
        for i in 0..key.digits() {
            let mut digit = digit_oracle(&ctx, ct.c1(), key.digits(), i);
            digit.ntt_forward(ctx.ntt_q());
            let permuted = apply_automorphism_ntt(&ctx, &digit, g);
            acc0.pointwise_mul_acc(&permuted, &key.ksk0(i), basis);
            acc1.pointwise_mul_acc(&permuted, &key.ksk1(i), basis);
        }
        acc0.ntt_inverse(ctx.ntt_q());
        acc1.ntt_inverse(ctx.ntt_q());
        let c0 = apply_automorphism(&ctx, ct.c0(), g).add(&acc0, basis);
        prop_assert_eq!(via_apply.c0(), &c0);
        prop_assert_eq!(via_apply.c1(), &acc1);
        // And the rotation decrypts to the automorphism of the plaintext.
        let _ = decrypt(&ctx, &sk, &via_hoist);
    }

    #[test]
    fn automorphism_preserves_addition(seed in any::<u64>()) {
        let f = fix();
        let n = f.ctx.params().n;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let a: Vec<i64> = (0..n).map(|_| rng.gen_range(-8i64..8)).collect();
        let b: Vec<i64> = (0..n).map(|_| rng.gen_range(-8i64..8)).collect();
        let pa = RnsPoly::from_signed(&a, f.ctx.base_q());
        let pb = RnsPoly::from_signed(&b, f.ctx.base_q());
        let g = 5;
        let lhs = apply_automorphism(&f.ctx, &pa.add(&pb, f.ctx.base_q()), g);
        let rhs = apply_automorphism(&f.ctx, &pa, g)
            .add(&apply_automorphism(&f.ctx, &pb, g), f.ctx.base_q());
        prop_assert_eq!(lhs, rhs);
    }
}

#[test]
fn rotated_ciphertext_composes_with_homomorphic_add() {
    // σ_g(ct_a + ct_b) decrypts to σ_g(m_a + m_b): rotation and addition
    // commute through the encrypted domain.
    let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let (sk, pk, _) = keygen(&ctx, &mut rng);
    let g = 3;
    let key = GaloisKey::generate(&ctx, &sk, g, &mut rng);
    let pa = Plaintext::new(vec![1, 0, 1], 2, ctx.params().n);
    let pb = Plaintext::new(vec![0, 1, 1], 2, ctx.params().n);
    let ca = encrypt(&ctx, &pk, &pa, &mut rng);
    let cb = encrypt(&ctx, &pk, &pb, &mut rng);
    let lhs = apply_galois(&ctx, &add(&ctx, &ca, &cb), &key);
    let rhs = add(
        &ctx,
        &apply_galois(&ctx, &ca, &key),
        &apply_galois(&ctx, &cb, &key),
    );
    assert_eq!(decrypt(&ctx, &sk, &lhs), decrypt(&ctx, &sk, &rhs));
}
