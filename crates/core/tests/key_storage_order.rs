//! Switching keys are stored pre-permuted by their own automorphism, in
//! the digit-major layout the key-switch sum of products streams. None of
//! that may leak: a key built by generation, by `from_parts` or by a wire
//! decode presents the same natural-order digit polynomials and encodes
//! to the same bytes, and the natural-order digits satisfy the key
//! equation `ksk0_i + ksk1_i·s = h_i·σ_g(s) − e_i` with small `e_i`,
//! where `h_i` is the idempotent of digit `i`'s prime group.

use hefv_core::galois::{apply_automorphism, GaloisKey, GaloisKeySet};
use hefv_core::prelude::*;
use hefv_core::wire;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `min(c, q − c)` over every residue of `p`: the largest centered
/// magnitude.
fn max_centered(ctx: &FvContext, p: &RnsPoly) -> u64 {
    p.rows()
        .enumerate()
        .flat_map(|(j, row)| {
            let q = ctx.base_q().modulus(j).value();
            row.iter().map(move |&c| c.min(q - c))
        })
        .max()
        .unwrap()
}

fn one_key_set(key: &GaloisKey) -> Vec<u8> {
    let set = GaloisKeySet::from_parts(vec![key.clone()], vec![0], vec![vec![0]]).unwrap();
    wire::encode_galois_key_set(&set)
}

#[test]
fn generated_assembled_and_decoded_keys_agree() {
    let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
    let n = ctx.params().n;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let (sk, _, _) = keygen(&ctx, &mut rng);
    let mut s = sk.s_ntt().clone();
    s.ntt_inverse(ctx.ntt_q());
    for g in [1, 3, 5, 2 * n - 1] {
        let key = GaloisKey::generate(&ctx, &sk, g, &mut rng);
        let ksk0: Vec<RnsPoly> = (0..key.digits()).map(|i| key.ksk0(i)).collect();
        let ksk1: Vec<RnsPoly> = (0..key.digits()).map(|i| key.ksk1(i)).collect();
        let bytes = one_key_set(&key);
        let assembled = GaloisKey::from_parts(&ctx, g, ksk0.clone(), ksk1.clone()).unwrap();
        let decoded = wire::decode_galois_key_set(&ctx, &bytes).unwrap().keys()[0].clone();
        for (how, other) in [("from_parts", &assembled), ("wire decode", &decoded)] {
            assert_eq!(other.g, g, "{how} g={g}");
            for i in 0..key.digits() {
                assert_eq!(other.ksk0(i), ksk0[i], "{how} ksk0({i}) g={g}");
                assert_eq!(other.ksk1(i), ksk1[i], "{how} ksk1({i}) g={g}");
            }
            assert_eq!(one_key_set(other), bytes, "{how} wire bytes g={g}");
        }

        // The natural-order digits are a switching key for σ_g(s).
        let mut s_g = apply_automorphism(&ctx, &s, g);
        s_g.ntt_forward(ctx.ntt_q());
        let basis = ctx.base_q();
        for i in 0..key.digits() {
            let mut e = ksk0[i].add(&ksk1[i].pointwise_mul(sk.s_ntt(), basis), basis);
            // h_i is 1 on the digit's prime group and 0 elsewhere.
            for j in ctx.digit_rows(key.digits(), i) {
                let m = *basis.modulus(j);
                for (x, &y) in e.row_mut(j).iter_mut().zip(s_g.row(j)) {
                    *x = m.sub(*x, y);
                }
            }
            e.ntt_inverse(ctx.ntt_q());
            assert!(
                max_centered(&ctx, &e) < 64,
                "digit {i} g={g} is no key for σ_g(s)"
            );
        }
    }
}

#[test]
fn relin_keys_round_trip_in_natural_order() {
    let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
    let (_, _, rlk) = keygen(&ctx, &mut StdRng::seed_from_u64(11));
    let bytes = wire::encode_relin_key(&rlk);
    let decoded = wire::decode_relin_key(&ctx, &bytes).unwrap();
    for i in 0..rlk.digits() {
        assert_eq!(decoded.rlk0(i), rlk.rlk0(i), "rlk0({i})");
        assert_eq!(decoded.rlk1(i), rlk.rlk1(i), "rlk1({i})");
    }
    assert_eq!(wire::encode_relin_key(&decoded), bytes);
}
