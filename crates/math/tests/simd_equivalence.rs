//! Bit-identity of the AVX2 kernel table against the scalar fallback.
//!
//! Every dispatched kernel ends with an exact reduction to the canonical
//! `[0, q)` representative, so the SIMD and scalar paths must agree
//! **bit-for-bit** — not just mod q. These tests compare the two tables
//! directly via `dispatch::scalar_kernels()` / `dispatch::avx2_kernels()`,
//! independently of which one the process-wide `HEFV_FORCE_SCALAR` /
//! `HEFV_KERNEL` selection installed, so the suite is meaningful under
//! both settings of the CI matrix (on non-AVX2 hardware the comparisons
//! skip and only the scalar self-checks remain).
//!
//! Coverage deliberately includes both dispatch widths: moduli from 20
//! bits (narrow `pmuludq` path, `q < 2^30`), through the pointwise
//! narrow/wide boundary at `2^32`, up to the largest admissible primes
//! just under `2^62` (wide path), with inputs relaxed across the full
//! Harvey lazy range `[0, 4q)` for the forward transform and `[0, 2q)`
//! for the inverse.
//!
//! The key-switch sum of products is pinned on both lanes against an
//! exact `u128` oracle, for 30-, 31- and 32-bit moduli and up to 24
//! digits, so every digit-chunk boundary is crossed, with and without
//! the `c0` seed.
//!
//! The HPS basis conversions (`Lift` and `Scale`) are pinned the same way
//! and, in addition, against the per-coefficient `u128` oracles
//! `Extender::extend_hps` / `ScaleContext::scale_hps` on every column,
//! across four bases: the paper's 6 + 7 limbs, a toy 3 + 4, Table V's
//! 48 + 49 (whose sums of products take partial reductions) and 31-bit
//! primes (the `SmallReciprocal` ceiling).

use hefv_math::dispatch::{self, Kernels};
use hefv_math::ntt::NttTable;
use hefv_math::primes::{ntt_prime, ntt_primes};
use hefv_math::rns::{HpsPrecision, RnsContext, ScaleContext};
use hefv_math::zq::Modulus;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

fn both_tables() -> Option<(&'static Kernels, &'static Kernels)> {
    dispatch::avx2_kernels().map(|avx2| (dispatch::scalar_kernels(), avx2))
}

/// Deterministic fill of `len` values in `[0, bound)` from a seed.
fn fill(seed: u64, len: usize, bound: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        })
        .collect()
}

/// One HPS basis pair with its scale context and a test ring degree.
struct HpsShape {
    name: &'static str,
    n: usize,
    ctx: RnsContext,
    sc: ScaleContext,
}

/// The four HPS shapes, built once per process (the 97-prime context is
/// not cheap).
fn hps_shapes() -> &'static [HpsShape] {
    static SHAPES: OnceLock<Vec<HpsShape>> = OnceLock::new();
    SHAPES.get_or_init(|| {
        let shape = |name, n, primes: Vec<u64>, k: usize, t| {
            let ctx = RnsContext::new(&primes[..k], &primes[k..]).unwrap();
            let sc = ScaleContext::new(&ctx, t);
            HpsShape { name, n, ctx, sc }
        };
        vec![
            shape("paper 6+7", 4096, ntt_primes(30, 4096, 13).unwrap(), 6, 2),
            shape("toy 3+4", 200, ntt_primes(30, 64, 7).unwrap(), 3, 2),
            // The `FvParams::table5(3)` basis (n = 32768), on fewer columns.
            shape(
                "table5(3) 48+49",
                150,
                ntt_primes(30, 4096 << 3, 97).unwrap(),
                48,
                2,
            ),
            shape(
                "31-bit 6+7",
                200,
                ntt_primes(31, 4096, 13).unwrap(),
                6,
                65537,
            ),
        ]
    })
}

/// `rows × n` residues, canonical except every 29th value, which is a raw
/// 64-bit word (the kernels reduce any input, as the oracles do).
fn residue_rows(seed: u64, moduli: &[Modulus], n: usize) -> Vec<u64> {
    let raw = fill(seed, moduli.len() * n, u64::MAX);
    raw.iter()
        .enumerate()
        .map(|(idx, &r)| {
            if idx % 29 == 7 {
                r
            } else {
                r % moduli[idx / n].value()
            }
        })
        .collect()
}

/// The oracle's output rows for columns `cols`, laid out like the
/// polynomial kernels' (`rows × cols.len()`).
fn oracle_cols(
    src: &[u64],
    src_rows: usize,
    n: usize,
    cols: Range<usize>,
    out_rows: usize,
    f: impl Fn(&[u64]) -> Vec<u64>,
) -> Vec<u64> {
    let w = cols.len();
    let mut out = vec![0u64; out_rows * w];
    for (o, c) in cols.enumerate() {
        let column: Vec<u64> = (0..src_rows).map(|i| src[i * n + c]).collect();
        for (j, v) in f(&column).into_iter().enumerate() {
            out[j * w + o] = v;
        }
    }
    out
}

/// Lift and Scale of `cols` through every available kernel table, in both
/// precisions, against the per-coefficient oracles.
fn check_hps_cols(shape: &HpsShape, seed: u64, cols: Range<usize>) -> Result<(), TestCaseError> {
    let HpsShape { name, n, ctx, sc } = shape;
    let (n, k, l) = (*n, ctx.base_q().len(), ctx.base_p().len());
    let w = cols.len();
    let lanes: Vec<&Kernels> = std::iter::once(dispatch::scalar_kernels())
        .chain(dispatch::avx2_kernels())
        .collect();
    let lift_src = residue_rows(seed, ctx.base_q().moduli(), n);
    let scale_src = residue_rows(seed ^ 0x5CA1E, ctx.base_full().moduli(), n);
    for prec in [HpsPrecision::Fixed, HpsPrecision::F64] {
        let lift_want = oracle_cols(&lift_src, k, n, cols.clone(), l, |a| {
            ctx.lift().extend_hps(a, prec)
        });
        let scale_want = oracle_cols(&scale_src, k + l, n, cols.clone(), k, |a| {
            sc.scale_hps(ctx, &a[..k], &a[k..], prec)
        });
        for lane in &lanes {
            let backend = lane.backend().name();
            let mut got = vec![0u64; l * w];
            lane.hps_extend_cols(ctx.lift(), &lift_src, n, cols.clone(), &mut got, prec);
            prop_assert_eq!(
                &got,
                &lift_want,
                "lift {} {} {:?} cols={:?}",
                name,
                backend,
                prec,
                cols
            );
            let mut got = vec![0u64; k * w];
            lane.hps_scale_cols(sc, ctx, &scale_src, n, cols.clone(), &mut got, prec);
            prop_assert_eq!(
                &got,
                &scale_want,
                "scale {} {} {:?} cols={:?}",
                name,
                backend,
                prec,
                cols
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ntt_bit_identical_across_widths(
        bits in 20u32..=62,
        log_n in 4u32..=12,
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        let n = 1usize << log_n;
        let Some(q) = ntt_prime(bits, n, 0) else { return Ok(()); };
        let table = NttTable::new(Modulus::new(q), n).unwrap();

        // Forward accepts the relaxed Harvey range [0, 4q) — min with
        // 2^64 for the largest moduli where 4q wraps.
        let relaxed = (4u128 * q as u128).min(u128::from(u64::MAX) + 1) as u64;
        let input = fill(seed, n, relaxed.max(1));
        let (mut a, mut b) = (input.clone(), input.clone());
        scalar.ntt_forward(&table, &mut a);
        avx2.ntt_forward(&table, &mut b);
        prop_assert_eq!(&a, &b, "forward q={} n={}", q, n);
        prop_assert!(a.iter().all(|&x| x < q), "forward output not canonical");

        // Inverse keeps values in [0, 2q); feed it the relaxed range too.
        let input = fill(seed ^ 0xDEAD_BEEF, n, 2 * q);
        let (mut a, mut b) = (input.clone(), input);
        scalar.ntt_inverse(&table, &mut a);
        avx2.ntt_inverse(&table, &mut b);
        prop_assert_eq!(&a, &b, "inverse q={} n={}", q, n);
        prop_assert!(a.iter().all(|&x| x < q), "inverse output not canonical");
    }

    #[test]
    fn pointwise_bit_identical_across_widths(
        bits in 20u32..=62,
        len in 1usize..200,
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        // Pointwise operands are canonical [0, q); any odd modulus works.
        let q = ntt_prime(bits, 8, 0).unwrap();
        let m = Modulus::new(q);
        let a = fill(seed, len, q);
        let b = fill(seed ^ 0x5EED, len, q);
        let acc = fill(seed ^ 0xACC, len, q);

        let (mut d0, mut d1) = (vec![0u64; len], vec![0u64; len]);
        scalar.pointwise_mul(&m, &a, &b, &mut d0);
        avx2.pointwise_mul(&m, &a, &b, &mut d1);
        prop_assert_eq!(&d0, &d1, "mul q={} len={}", q, len);

        let (mut d0, mut d1) = (a.clone(), a.clone());
        scalar.pointwise_mul_assign(&m, &mut d0, &b);
        avx2.pointwise_mul_assign(&m, &mut d1, &b);
        prop_assert_eq!(&d0, &d1, "mul_assign q={} len={}", q, len);

        let (mut d0, mut d1) = (acc.clone(), acc);
        scalar.pointwise_mul_acc(&m, &a, &b, &mut d0);
        avx2.pointwise_mul_acc(&m, &a, &b, &mut d1);
        prop_assert_eq!(&d0, &d1, "mul_acc q={} len={}", q, len);
    }

    #[test]
    fn sop_bit_identical_across_digit_counts(
        log_n in 2u32..=8,
        bits in 30u32..=32,
        k in 1usize..=24,
        with_seed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        // 30-bit primes take digit chunks of 15, 31-bit of 3 and 32-bit of
        // 1, so k up to 24 crosses every chunk boundary.
        let q = ntt_prime(bits, n, 0).unwrap();
        let m = Modulus::new(q);
        let digits: Vec<u32> = fill(seed, n * k, q).iter().map(|&v| v as u32).collect();
        let ksk0: Vec<u32> = fill(seed ^ 0xF00D, n * k, q).iter().map(|&v| v as u32).collect();
        let ksk1: Vec<u32> = fill(seed ^ 0xBEEF, n * k, q).iter().map(|&v| v as u32).collect();
        let c0: Vec<u64> = fill(seed ^ 0xC0, n, q);
        let c0_row = with_seed.then_some(c0.as_slice());
        // An arbitrary permutation (index reversal) exercises the gather.
        let perm: Vec<u32> = (0..n as u32).rev().collect();
        let acc_init0 = fill(seed ^ 0xA0, n, q);
        let acc_init1 = fill(seed ^ 0xA1, n, q);

        let (mut s0, mut s1) = (acc_init0.clone(), acc_init1.clone());
        let scalar = dispatch::scalar_kernels();
        scalar.sop_narrow_row(&m, &perm, &digits, &ksk0, &ksk1, c0_row, &mut s0, &mut s1);
        let (w0, w1) = sop_oracle(q, &perm, &digits, &ksk0, &ksk1, c0_row, &acc_init0, &acc_init1);
        prop_assert_eq!(&s0, &w0, "scalar sop acc0 q={} n={} k={}", q, n, k);
        prop_assert_eq!(&s1, &w1, "scalar sop acc1 q={} n={} k={}", q, n, k);
        let Some((_, avx2)) = both_tables() else { return Ok(()); };
        let (mut v0, mut v1) = (acc_init0, acc_init1);
        avx2.sop_narrow_row(&m, &perm, &digits, &ksk0, &ksk1, c0_row, &mut v0, &mut v1);
        prop_assert_eq!(&s0, &v0, "sop acc0 q={} n={} k={}", q, n, k);
        prop_assert_eq!(&s1, &v1, "sop acc1 q={} n={} k={}", q, n, k);
    }
}

/// The SoP row in exact `u128` arithmetic, one reduction per slot.
#[allow(clippy::too_many_arguments)]
fn sop_oracle(
    q: u64,
    perm: &[u32],
    digits: &[u32],
    ksk0: &[u32],
    ksk1: &[u32],
    c0_row: Option<&[u64]>,
    acc0: &[u64],
    acc1: &[u64],
) -> (Vec<u64>, Vec<u64>) {
    let n = perm.len();
    let k = digits.len() / n;
    let q = q as u128;
    let (mut out0, mut out1) = (acc0.to_vec(), acc1.to_vec());
    for t in 0..n {
        let p = perm[t] as usize;
        let mut s0 = c0_row.map_or(0, |row| row[p] as u128);
        let mut s1 = 0u128;
        for i in 0..k {
            let d = digits[p * k + i] as u128;
            s0 += d * ksk0[t * k + i] as u128;
            s1 += d * ksk1[t * k + i] as u128;
        }
        out0[t] = ((out0[t] as u128 + s0) % q) as u64;
        out1[t] = ((out1[t] as u128 + s1) % q) as u64;
    }
    (out0, out1)
}

/// The SoP's worst case: every digit, key word, seed and accumulator at
/// `q − 1`, for 30-, 31- and 32-bit primes and up to 24 digits. Without
/// the digit chunks every one of these sums past 15 products (past 3 at
/// 31 bits) would wrap `u64`.
#[test]
fn sop_extremes_at_every_width() {
    let n = 16usize;
    let perm: Vec<u32> = (0..n as u32).collect();
    for bits in [30u32, 31, 32] {
        let q = ntt_prime(bits, n, 0).unwrap();
        let m = Modulus::new(q);
        for k in [1usize, 3, 4, 6, 15, 16, 20, 24] {
            let max = vec![(q - 1) as u32; n * k];
            let seed = vec![q - 1; n];
            let acc = vec![q - 1; n];
            let (w0, w1) = sop_oracle(q, &perm, &max, &max, &max, Some(&seed), &acc, &acc);
            let mut lanes = vec![dispatch::scalar_kernels()];
            lanes.extend(dispatch::avx2_kernels());
            for kernels in lanes {
                let (mut a0, mut a1) = (acc.clone(), acc.clone());
                kernels.sop_narrow_row(&m, &perm, &max, &max, &max, Some(&seed), &mut a0, &mut a1);
                let lane = kernels.backend().name();
                assert_eq!(a0, w0, "{lane} acc0 bits={bits} k={k}");
                assert_eq!(a1, w1, "{lane} acc1 bits={bits} k={k}");
            }
        }
    }
}

/// A permutation entry past the row is caller error: both lanes panic
/// instead of reading past the digit table.
#[test]
fn sop_rejects_out_of_range_permutation() {
    let (n, k) = (16usize, 6usize);
    let q = ntt_prime(30, n, 0).unwrap();
    let m = Modulus::new(q);
    let lines = vec![1u32; n * k];
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm[9] = n as u32;
    let mut lanes = vec![dispatch::scalar_kernels()];
    lanes.extend(dispatch::avx2_kernels());
    for kernels in lanes {
        let caught = std::panic::catch_unwind(|| {
            let (mut a0, mut a1) = (vec![0u64; n], vec![0u64; n]);
            kernels.sop_narrow_row(&m, &perm, &lines, &lines, &lines, None, &mut a0, &mut a1);
        });
        assert!(caught.is_err(), "{} lane", kernels.backend().name());
    }
}

/// The `4q ≤ 2^64` invariant is tightest for the largest admissible
/// moduli: pin bit-identity with every coefficient at the extreme ends
/// of the relaxed range for a prime just below `2^62`.
#[test]
fn ntt_extremes_near_62_bit_bound() {
    let Some((scalar, avx2)) = both_tables() else {
        eprintln!("skipping: AVX2 not available on this CPU");
        return;
    };
    for n in [16usize, 256, 4096] {
        let q = ntt_prime(62, n, 0).unwrap();
        assert!(q > (1 << 61), "expected a 62-bit prime");
        let table = NttTable::new(Modulus::new(q), n).unwrap();
        // Alternate the extremes of [0, 4q): 0, 4q−1, q−1, 2q, 2q−1, 3q...
        let four_q_minus_1 = q.wrapping_mul(4).wrapping_sub(1); // 4q − 1 mod 2^64
        let pattern = [0u64, four_q_minus_1, q - 1, 2 * q, 2 * q - 1, 3 * q, 1, q];
        let input: Vec<u64> = (0..n).map(|i| pattern[i % pattern.len()]).collect();
        let (mut a, mut b) = (input.clone(), input);
        scalar.ntt_forward(&table, &mut a);
        avx2.ntt_forward(&table, &mut b);
        assert_eq!(a, b, "forward extremes q={q} n={n}");

        let inv_pattern = [0u64, 2 * q - 1, q, q - 1, 1, 2 * q - 2];
        let input: Vec<u64> = (0..n).map(|i| inv_pattern[i % inv_pattern.len()]).collect();
        let (mut a, mut b) = (input.clone(), input);
        scalar.ntt_inverse(&table, &mut a);
        avx2.ntt_inverse(&table, &mut b);
        assert_eq!(a, b, "inverse extremes q={q} n={n}");
    }
}

/// The narrow/wide NTT boundary (`2^30`) and the narrow/wide pointwise
/// boundary (`2^32`) both dispatch correctly: primes straddling each
/// boundary agree with scalar and with the strict oracle.
#[test]
fn dispatch_width_boundaries() {
    let Some((scalar, avx2)) = both_tables() else {
        eprintln!("skipping: AVX2 not available on this CPU");
        return;
    };
    let n = 64usize;
    for bits in [29u32, 30, 31, 32, 33] {
        let Some(q) = ntt_prime(bits, n, 0) else {
            continue;
        };
        let table = NttTable::new(Modulus::new(q), n).unwrap();
        let m = Modulus::new(q);
        let input = fill(0x1234_5678 + bits as u64, n, q);
        let (mut a, mut b, mut strict) = (input.clone(), input.clone(), input.clone());
        scalar.ntt_forward(&table, &mut a);
        avx2.ntt_forward(&table, &mut b);
        table.forward_strict(&mut strict);
        assert_eq!(a, b, "forward bits={bits}");
        assert_eq!(a, strict, "forward vs strict bits={bits}");

        let x = fill(0x9999 + bits as u64, n, q);
        let (mut d0, mut d1) = (vec![0u64; n], vec![0u64; n]);
        scalar.pointwise_mul(&m, &x, &input, &mut d0);
        avx2.pointwise_mul(&m, &x, &input, &mut d1);
        assert_eq!(d0, d1, "pointwise bits={bits}");
    }
}

/// The process-wide selection honors the documented env-override order;
/// whichever table is active, its output matches the scalar table.
#[test]
fn active_table_matches_scalar() {
    let n = 256usize;
    let q = ntt_prime(30, n, 0).unwrap();
    let table = NttTable::new(Modulus::new(q), n).unwrap();
    let input = fill(42, n, q);
    let (mut active, mut scalar) = (input.clone(), input);
    dispatch::kernels().ntt_forward(&table, &mut active);
    dispatch::scalar_kernels().ntt_forward(&table, &mut scalar);
    assert_eq!(active, scalar, "backend={}", dispatch::backend_name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random column range plus fixed edge ranges — width 1, an odd
    /// start with a width past one block that is no multiple of 4, and a
    /// span that ends at the last column — on every shape.
    #[test]
    fn hps_lift_scale_bit_identical_to_oracle(
        shape in 0usize..4,
        start in any::<u64>(),
        width in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let shape = &hps_shapes()[shape];
        let n = shape.n;
        let start = (start % n as u64) as usize;
        let width = 1 + (width % (n - start) as u64) as usize;
        let ranges = [start..start + width, 1..2, 5..5 + 71, n - 7..n];
        for cols in ranges {
            check_hps_cols(shape, seed, cols)?;
        }
    }
}

/// The paper shape over all `n = 4096` columns, which also runs every
/// full block of the streaming kernels.
#[test]
fn hps_paper_shape_full_width() {
    let shape = &hps_shapes()[0];
    check_hps_cols(shape, 0xF00D, 0..shape.n).unwrap();
}
