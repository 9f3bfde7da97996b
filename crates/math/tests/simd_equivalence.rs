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
//! oracle that knows nothing of its storage order: natural-order digit
//! and key lines, the automorphism `π` applied as an explicit gather, and
//! a `u128` reduction after every product. The kernel gets the keys
//! pre-permuted by `π` and `π⁻¹` as its scatter table. Moduli of 30, 31
//! and 32 bits with up to 24 digits cross every partial-fold boundary,
//! with and without the `c0` seed, for random and identity permutations
//! and ring sizes below and off the vector lane's 8-coefficient step.
//!
//! The HPS basis conversions (`Lift` and `Scale`) are pinned the same way
//! and, in addition, against the per-coefficient `u128` oracles
//! `Extender::extend_hps` / `ScaleContext::scale_hps` on every column,
//! across four bases: the paper's 6 + 7 limbs, a toy 3 + 4, Table V's
//! 48 + 49 (whose sums of products take partial reductions) and 31-bit
//! primes (the `SmallReciprocal` ceiling). The same Lift blocks carry the
//! grouped key-switch digits' extension from a group of `q` primes to the
//! others; that use is pinned on both lanes against the exact centered
//! CRT integer.
//!
//! The CRC-32 entry is pinned on both lanes against an in-test
//! byte-at-a-time oracle — every length up to 4 KiB at random
//! misalignments, megabyte buffers, constant buffers — and against
//! known answers computed offline with Python's `zlib.crc32`.

use hefv_math::dispatch::{self, Kernels};
use hefv_math::ntt::NttTable;
use hefv_math::primes::{ntt_prime, ntt_primes};
use hefv_math::rns::{Extender, HpsPrecision, RnsBasis, RnsContext, ScaleContext};
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
    fn sop_matches_the_natural_order_oracle(
        n in 1usize..=300,
        bits in 30u32..=32,
        k in 1usize..=24,
        with_seed in any::<bool>(),
        identity in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // 30-bit primes fold every 15 digits, 31-bit every 3 and 32-bit
        // every digit, so k up to 24 crosses every fold boundary.
        let q = ntt_prime(bits, 16, 0).unwrap();
        let line = |salt: u64| -> Vec<u32> {
            fill(seed ^ salt, n * k, q).iter().map(|&v| v as u32).collect()
        };
        let (digits, key0, key1) = (line(0), line(0xF00D), line(0xBEEF));
        let c0 = fill(seed ^ 0xC0, n, q);
        let c0_row = with_seed.then_some(c0.as_slice());
        let pi: Vec<u32> = if identity {
            (0..n as u32).collect()
        } else {
            shuffled(seed ^ 0x5EED, n)
        };
        let acc = [fill(seed ^ 0xA0, n, q), fill(seed ^ 0xA1, n, q)];
        let want = sop_oracle(q, &pi, &digits, [&key0, &key1], c0_row, &acc);
        let got = sop_lanes(q, &pi, &digits, [&key0, &key1], c0_row, &acc);
        for (lane, out) in got {
            prop_assert_eq!(&out, &want, "{} lane q={} n={} k={}", lane, q, n, k);
        }
    }
}

/// A deterministic shuffle of `0..n` (Fisher–Yates over [`fill`]).
fn shuffled(seed: u64, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    let draws = fill(seed, n, u64::MAX);
    for i in (1..n).rev() {
        p.swap(i, (draws[i] % (i as u64 + 1)) as usize);
    }
    p
}

/// The SoP row as key switching defines it, in natural order: output
/// slot `t` gathers digit slot `π(t)`, and every product is reduced as it
/// is added.
///
/// `acc_b[t] += c0[π(t)] (b = 0 only) + Σ_i D_i[π(t)] · K_b,i[t]  (mod q)`
fn sop_oracle(
    q: u64,
    pi: &[u32],
    digits: &[u32],
    keys: [&[u32]; 2],
    c0_row: Option<&[u64]>,
    acc: &[Vec<u64>; 2],
) -> [Vec<u64>; 2] {
    let n = pi.len();
    let k = digits.len() / n;
    let q = q as u128;
    let mut out = acc.clone();
    for t in 0..n {
        let p = pi[t] as usize;
        for (b, key) in keys.iter().enumerate() {
            let mut s = out[b][t] as u128;
            if let (0, Some(row)) = (b, c0_row) {
                s = (s + row[p] as u128) % q;
            }
            for i in 0..k {
                s = (s + digits[i * n + p] as u128 * key[i * n + t] as u128) % q;
            }
            out[b][t] = s as u64;
        }
    }
    out
}

/// Runs the SoP row on every lane in storage order: each key line stored
/// pre-permuted (`K'[π(t)] = K[t]`) and `π⁻¹` as the scatter table.
fn sop_lanes(
    q: u64,
    pi: &[u32],
    digits: &[u32],
    keys: [&[u32]; 2],
    c0_row: Option<&[u64]>,
    acc: &[Vec<u64>; 2],
) -> Vec<(&'static str, [Vec<u64>; 2])> {
    let n = pi.len();
    let mut scatter = vec![0u32; n];
    for (t, &p) in pi.iter().enumerate() {
        scatter[p as usize] = t as u32;
    }
    let [stored0, stored1] = keys.map(|key| {
        let mut stored = vec![0u32; key.len()];
        for (line, src) in stored.chunks_mut(n).zip(key.chunks(n)) {
            for (&p, &v) in pi.iter().zip(src) {
                line[p as usize] = v;
            }
        }
        stored
    });
    let m = Modulus::new(q);
    lanes()
        .into_iter()
        .map(|kernels| {
            let [mut a0, mut a1] = acc.clone();
            kernels.sop_narrow_row(
                &m, &scatter, digits, &stored0, &stored1, c0_row, &mut a0, &mut a1,
            );
            (kernels.backend().name(), [a0, a1])
        })
        .collect()
}

/// The SoP's worst case: every digit, key word, seed and accumulator at
/// `q − 1`, for 30-, 31- and 32-bit primes and up to 24 digits, on a row
/// of whole vector steps and on one with a 5-coefficient tail. Without
/// the partial folds every one of these sums past 15 products (past 3 at
/// 31 bits) would wrap `u64`.
#[test]
fn sop_extremes_at_every_width() {
    for n in [16usize, 13] {
        let pi: Vec<u32> = (0..n as u32).rev().collect();
        for bits in [30u32, 31, 32] {
            let q = ntt_prime(bits, 16, 0).unwrap();
            for k in [1usize, 3, 4, 6, 15, 16, 20, 24] {
                let max = vec![(q - 1) as u32; n * k];
                let seed = vec![q - 1; n];
                let acc = [vec![q - 1; n], vec![q - 1; n]];
                let want = sop_oracle(q, &pi, &max, [&max, &max], Some(&seed), &acc);
                for (lane, out) in sop_lanes(q, &pi, &max, [&max, &max], Some(&seed), &acc) {
                    assert_eq!(out, want, "{lane} lane n={n} bits={bits} k={k}");
                }
            }
        }
    }
}

/// A scatter entry past the row is caller error: both lanes panic at
/// the store instead of writing past the accumulators.
#[test]
fn sop_rejects_out_of_range_permutation() {
    let (n, k) = (16usize, 6usize);
    let q = ntt_prime(30, n, 0).unwrap();
    let m = Modulus::new(q);
    let lines = vec![1u32; n * k];
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm[9] = n as u32;
    for kernels in lanes() {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The grouped key-switch digit step: the HPS extension from a group
    /// of consecutive `q` primes to the other primes. Both lanes agree bit
    /// for bit, and every output column holds the residues of the exact
    /// centered CRT integer of its group residues, for groups of one, two
    /// and three 30- or 31-bit primes at every position.
    #[test]
    fn digit_group_extension_is_exact_on_both_lanes(
        bits in 30u32..32,
        group in 0usize..6,
        seed in any::<u64>(),
    ) {
        let primes = ntt_primes(bits, 4096, 6).unwrap();
        let rows = [0..3, 3..6, 0..2, 2..4, 4..6, 1..2][group].clone();
        let rest: Vec<u64> = primes[..rows.start]
            .iter()
            .chain(&primes[rows.end..])
            .copied()
            .collect();
        let from = RnsBasis::new(&primes[rows.clone()]).unwrap();
        let to = RnsBasis::new(&rest).unwrap();
        let ext = Extender::new(&from, &to);
        let n = 300;
        let src: Vec<u64> = rows
            .clone()
            .enumerate()
            .flat_map(|(r, j)| fill(seed ^ r as u64, n, primes[j]))
            .collect();
        let want = oracle_cols(&src, rows.len(), n, 0..n, rest.len(), |a| ext.extend_exact(a));
        for lane in lanes() {
            let mut got = vec![0u64; rest.len() * n];
            lane.hps_extend_cols(&ext, &src, n, 0..n, &mut got, HpsPrecision::Fixed);
            prop_assert_eq!(
                &got,
                &want,
                "{}-bit group {:?} {}",
                bits,
                rows,
                lane.backend().name()
            );
        }
    }
}

/// Every lane this CPU can run: the scalar table, then AVX2 when
/// present.
fn lanes() -> Vec<&'static Kernels> {
    std::iter::once(dispatch::scalar_kernels())
        .chain(dispatch::avx2_kernels())
        .collect()
}

/// The byte-at-a-time CRC-32 loop (reflected IEEE polynomial, init and
/// final xor `!0`): the oracle both lanes must match bit for bit.
fn crc32_oracle(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..256u32)
            .map(|i| {
                (0..8).fold(i, |c, _| {
                    if c & 1 != 0 {
                        (c >> 1) ^ 0xEDB8_8320
                    } else {
                        c >> 1
                    }
                })
            })
            .collect()
    });
    !bytes.iter().fold(!0u32, |crc, &b| {
        table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
    })
}

fn check_crc(bytes: &[u8], what: &str) {
    let want = crc32_oracle(bytes);
    for k in lanes() {
        assert_eq!(k.crc32(bytes), want, "{} lane, {what}", k.backend().name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every length from 0 to 4 KiB, each at its own offset in `0..16`,
    /// so every fold entry point (< 64 bytes, whole 64-byte blocks,
    /// trailing 16-byte blocks, a table tail) meets every alignment.
    #[test]
    fn crc32_lanes_match_oracle_at_every_length(seed in any::<u64>()) {
        let buf: Vec<u8> = fill(seed, 4096 + 16, 256).iter().map(|&v| v as u8).collect();
        let offsets = fill(seed ^ 0x0FF5, 4097, 16);
        for (len, &off) in offsets.iter().enumerate() {
            let slice = &buf[off as usize..off as usize + len];
            let want = crc32_oracle(slice);
            for k in lanes() {
                prop_assert_eq!(k.crc32(slice), want, "{} lane, len {} at offset {}",
                    k.backend().name(), len, off);
            }
        }
    }
}

#[test]
fn crc32_megabyte_and_constant_buffers() {
    for (mib, off) in [(1usize, 0usize), (4, 3)] {
        let buf: Vec<u8> = fill(mib as u64, (mib << 20) + off, 256)
            .iter()
            .map(|&v| v as u8)
            .collect();
        check_crc(&buf[off..], &format!("{mib} MiB at offset {off}"));
    }
    for byte in [0x00u8, 0xFF] {
        for len in (0..=200).chain([4096, (1 << 20) + 5]) {
            check_crc(&vec![byte; len], &format!("{len} bytes of {byte:#04x}"));
        }
    }
}

/// Known answers, computed offline:
/// `python3 -c 'import zlib; print([hex(zlib.crc32(bytes((i * i * 7 + i * s) % 251 for i in range(n)))) for s, n in ((1, 63), (2, 4109), (3, 1048583))])'`
#[test]
fn crc32_known_answers() {
    let seeded =
        |s: u64, n: u64| -> Vec<u8> { (0..n).map(|i| ((i * i * 7 + i * s) % 251) as u8).collect() };
    let cases = [
        (b"123456789".to_vec(), 0xCBF4_3926),
        (Vec::new(), 0),
        (seeded(1, 63), 0xA1F4_BDE9),
        (seeded(2, 4109), 0x1C4C_39EC),
        (seeded(3, 1_048_583), 0xAFE6_942A),
    ];
    for (bytes, want) in &cases {
        assert_eq!(crc32_oracle(bytes), *want, "oracle, {} bytes", bytes.len());
        for k in lanes().into_iter().chain([dispatch::kernels()]) {
            assert_eq!(
                k.crc32(bytes),
                *want,
                "{} lane, {} bytes",
                k.backend().name(),
                bytes.len()
            );
        }
    }
}
