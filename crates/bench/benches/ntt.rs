//! Before/after bench for the PR-4 hot-path overhaul: Harvey lazy-reduction
//! NTT vs the strict reference path, plus the end-to-end `Mult` and
//! `relinearize` kernels, emitted as machine-readable JSON.
//!
//! The strict transforms (`forward_strict`/`inverse_strict`) are the exact
//! pre-overhaul implementation, kept in-tree as the oracle — so the
//! speedup this bench reports is a live before/after measurement, not a
//! stale number. The strict and lazy transforms run in alternating
//! rounds of one measurement. Results are printed as a table and written
//! to `$BENCH_PR4_OUT` (default `BENCH_PR4.json` in the crate directory;
//! CI uploads it as an artifact).
//!
//! Since PR 7 the same binary also measures the **SIMD lane comparison**:
//! each dispatched kernel (forward/inverse NTT, pointwise product, hoisted
//! key-switch SoP line) timed through the scalar table vs the AVX2 table,
//! written to `$BENCH_PR7_OUT` (default `BENCH_PR7.json`). The two lanes
//! run in alternating rounds of one measurement, so drift on a shared
//! host lands on both and the gated ratios stay steady. On hardware
//! without AVX2 there is no second lane and the report says so — CI
//! gates the SIMD ratio only when the fresh report ran on AVX2.
//!
//! The lane report also times the two HPS basis conversions the `Mult`
//! path runs, `Lift q→Q` and `Scale Q→q` over a whole polynomial (paper
//! shape: n = 4096, 6 + 7 primes, fixed-point quotient), and records
//! their combined simd-vs-scalar ratio as
//! `acceptance.lift_scale_speedup_simd_vs_scalar`. The key-switch SoP
//! row (k = 6 digit-major lines, scattered through a permutation) is
//! recorded the same way as `acceptance.sop_row_speedup_simd_vs_scalar`.
//!
//! Environment knobs:
//! * `BENCH_PR4_OUT` / `BENCH_PR7_OUT` — output paths for the JSON reports.
//! * `BENCH_PR4_QUICK` / `BENCH_PR7_QUICK` — any value shrinks the
//!   iteration budget for CI smoke runs (either one enables quick mode).

use hefv_core::eval::{self, Backend};
use hefv_core::prelude::*;
use hefv_math::dispatch::{self, Kernels};
use hefv_math::ntt::NttTable;
use hefv_math::primes::{ntt_prime, ntt_primes};
use hefv_math::rns::{HpsPrecision, RnsContext, ScaleContext};
use hefv_math::zq::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Times the closures in `fs` in alternating rounds: every round runs one
/// batch of each, in forward order on even rounds and reverse order on
/// odd ones, so drift on a shared host lands on all sides alike and the
/// ratio between them stays steady. Returns each side's best per-call
/// time in seconds.
fn measure<const N: usize>(mut fs: [&mut dyn FnMut(); N], quick: bool) -> [f64; N] {
    // Warm up and size each side's batch to a fixed share of the round.
    let target = if quick { 0.02 } else { 0.2 };
    let batch = fs.each_mut().map(|f| {
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        ((target / 8.0 / once) as u64).clamp(1, 1 << 20)
    });
    let samples = if quick { 3 } else { 8 };
    let mut best = [f64::INFINITY; N];
    for round in 0..samples {
        for j in 0..N {
            let i = if round % 2 == 0 { j } else { N - 1 - j };
            let t = Instant::now();
            for _ in 0..batch[i] {
                fs[i]();
            }
            best[i] = best[i].min(t.elapsed().as_secs_f64() / batch[i] as f64);
        }
    }
    best
}

/// Times one kernel through both tables of `lanes` in alternating rounds;
/// `mk` builds the timed closure for one table. Returns µs per call.
fn per_lane<F: FnMut()>(
    lanes: [&'static Kernels; 2],
    mk: impl Fn(&'static Kernels) -> F,
    quick: bool,
) -> [f64; 2] {
    let (mut a, mut b) = (mk(lanes[0]), mk(lanes[1]));
    measure([&mut a, &mut b], quick).map(|t| t * 1e6)
}

/// Times the four dispatched kernels through the `[scalar, simd]` kernel
/// tables; returns `[forward, inverse, pointwise, sop]`, each as
/// `[scalar_us, simd_us]`.
fn lane_times(
    lanes: [&'static Kernels; 2],
    table: &NttTable,
    input: &[u64],
    quick: bool,
) -> [[f64; 2]; 4] {
    let n = table.n();
    let q = table.modulus().value();
    let m = *table.modulus();
    // Transform in place: the canonical [0, q) output is a valid input
    // for either direction, so the loop measures the kernel alone
    // rather than a 32 KB clone per iteration.
    let fwd = per_lane(
        lanes,
        |k| {
            let mut x = input.to_vec();
            move || k.ntt_forward(table, black_box(&mut x))
        },
        quick,
    );
    let inv = per_lane(
        lanes,
        |k| {
            let mut x = input.to_vec();
            k.ntt_forward(table, &mut x);
            move || k.ntt_inverse(table, black_box(&mut x))
        },
        quick,
    );
    let b: Vec<u64> = (0..n as u64).map(|i| (i * 69621 + 11) % q).collect();
    let pw = per_lane(
        lanes,
        |k| {
            let (b, mut dst) = (&b, vec![0u64; n]);
            move || {
                k.pointwise_mul(&m, input, b, &mut dst);
                black_box(&mut dst);
            }
        },
        quick,
    );
    // One SoP residue row at the paper's digit count (k = 6 primes in Q),
    // in storage order: six digit-major lines per operand, each output
    // scattered through a permutation (index reversal).
    let digits = 6usize;
    let line = |seed: u64| -> Vec<u32> {
        (0..n as u64 * digits as u64)
            .map(|i| ((i * 2654435761 + seed) % q) as u32)
            .collect()
    };
    let (d32, k0, k1) = (line(1), line(2), line(3));
    let perm: Vec<u32> = (0..n as u32).rev().collect();
    let sop = per_lane(
        lanes,
        |k| {
            let (perm, d32, k0, k1) = (&perm, &d32, &k0, &k1);
            let (mut a0, mut a1) = (vec![0u64; n], vec![0u64; n]);
            move || {
                k.sop_narrow_row(&m, perm, d32, k0, k1, Some(input), &mut a0, &mut a1);
                black_box((&mut a0, &mut a1));
            }
        },
        quick,
    );
    [fwd, inv, pw, sop]
}

/// Times whole-polynomial HPS `Lift` and `Scale` (fixed-point quotient)
/// through the `[scalar, simd]` kernel tables; returns `[lift, scale]`,
/// each as `[scalar_us, simd_us]`.
fn hps_lane_times(
    lanes: [&'static Kernels; 2],
    ctx: &RnsContext,
    n: usize,
    quick: bool,
) -> [[f64; 2]; 2] {
    let sc = ScaleContext::new(ctx, 2);
    let (kq, kp) = (ctx.base_q().len(), ctx.base_p().len());
    let rows = |b: &hefv_math::RnsBasis| -> Vec<u64> {
        (0..b.len() * n)
            .map(|i| (i as u64 * 2654435761 + 17) % b.modulus(i / n).value())
            .collect()
    };
    let (lift_in, scale_in) = (rows(ctx.base_q()), rows(ctx.base_full()));
    let prec = HpsPrecision::Fixed;
    let lift = per_lane(
        lanes,
        |k| {
            let (src, mut out) = (&lift_in, vec![0u64; kp * n]);
            move || {
                k.hps_extend_cols(ctx.lift(), src, n, 0..n, &mut out, prec);
                black_box(&mut out);
            }
        },
        quick,
    );
    let scale = per_lane(
        lanes,
        |k| {
            let (sc, src, mut out) = (&sc, &scale_in, vec![0u64; kq * n]);
            move || {
                k.hps_scale_cols(sc, ctx, src, n, 0..n, &mut out, prec);
                black_box(&mut out);
            }
        },
        quick,
    );
    [lift, scale]
}

fn main() {
    let quick = std::env::var_os("BENCH_PR4_QUICK").is_some()
        || std::env::var_os("BENCH_PR7_QUICK").is_some();
    let n = 4096usize;
    let q = ntt_prime(30, n, 0).unwrap();
    let table = NttTable::new(Modulus::new(q), n).unwrap();
    let input: Vec<u64> = (0..n as u64).map(|i| (i * 48271 + 3) % q).collect();

    let [strict_fwd, lazy_fwd] = measure(
        [
            &mut || {
                let mut x = input.clone();
                table.forward_strict(&mut x);
                black_box(x);
            },
            &mut || {
                let mut x = input.clone();
                table.forward(&mut x);
                black_box(x);
            },
        ],
        quick,
    )
    .map(|t| t * 1e6);
    let mut frev = input.clone();
    table.forward(&mut frev);
    let [strict_inv, lazy_inv] = measure(
        [
            &mut || {
                let mut x = frev.clone();
                table.inverse_strict(&mut x);
                black_box(x);
            },
            &mut || {
                let mut x = frev.clone();
                table.inverse(&mut x);
                black_box(x);
            },
        ],
        quick,
    )
    .map(|t| t * 1e6);

    // End-to-end Mult + relinearize at the paper's full parameter size.
    let ctx = FvContext::new(FvParams::hpca19()).unwrap();
    let mut rng = StdRng::seed_from_u64(2019);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    let pa = Plaintext::new(vec![1, 1], 2, ctx.params().n);
    let ca = encrypt(&ctx, &pk, &pa, &mut rng);
    let cb = encrypt(&ctx, &pk, &pa, &mut rng);
    let backend = Backend::Hps(HpsPrecision::Fixed);
    let tensor = eval::tensor(&ctx, &ca, &cb, backend);
    let [mult_ms, relin_ms] = measure(
        [
            &mut || {
                black_box(eval::mul(&ctx, &ca, &cb, &rlk, backend));
            },
            &mut || {
                black_box(eval::relinearize(&ctx, &tensor, &rlk));
            },
        ],
        quick,
    )
    .map(|t| t * 1e3);

    let fwd_speedup = strict_fwd / lazy_fwd;
    let inv_speedup = strict_inv / lazy_inv;
    let combined = (strict_fwd + strict_inv) / (lazy_fwd + lazy_inv);
    println!("NTT n={n}, 30-bit prime (times are per-transform minima):");
    println!("  forward  strict {strict_fwd:9.2} µs   lazy {lazy_fwd:9.2} µs   ×{fwd_speedup:.2}");
    println!("  inverse  strict {strict_inv:9.2} µs   lazy {lazy_inv:9.2} µs   ×{inv_speedup:.2}");
    println!("  forward+inverse speedup ×{combined:.2}");
    println!("End-to-end (n=4096, 6+7 primes, HPS fixed-point):");
    println!("  Mult        {mult_ms:8.2} ms");
    println!("  relinearize {relin_ms:8.2} ms");

    let json = format!(
        concat!(
            "{{\n",
            "  \"n\": {n},\n",
            "  \"ntt\": {{\n",
            "    \"strict_forward_us\": {sf:.3},\n",
            "    \"lazy_forward_us\": {lf:.3},\n",
            "    \"strict_inverse_us\": {si:.3},\n",
            "    \"lazy_inverse_us\": {li:.3},\n",
            "    \"forward_speedup\": {fs:.3},\n",
            "    \"inverse_speedup\": {is:.3},\n",
            "    \"forward_plus_inverse_speedup\": {cs:.3}\n",
            "  }},\n",
            "  \"kernels\": {{\n",
            "    \"mult_hps_fixed_ms\": {mm:.3},\n",
            "    \"relinearize_ms\": {rm:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        sf = strict_fwd,
        lf = lazy_fwd,
        si = strict_inv,
        li = lazy_inv,
        fs = fwd_speedup,
        is = inv_speedup,
        cs = combined,
        mm = mult_ms,
        rm = relin_ms,
    );
    let out = std::env::var("BENCH_PR4_OUT").unwrap_or_else(|_| "BENCH_PR4.json".into());
    std::fs::write(&out, json).expect("write bench report");
    println!("report written to {out}");

    // ---- PR 7: SIMD lane comparison (scalar table vs AVX2 table) ----
    // Without AVX2 hardware there is nothing to compare against: the
    // scalar table fills both columns (unit speedups), and the report is
    // marked so the CI gate knows to skip the ratio check.
    let scalar = dispatch::scalar_kernels();
    let avx2 = dispatch::avx2_kernels();
    let lanes = [scalar, avx2.unwrap_or(scalar)];
    let [fwd, inv, pw, sop] = lane_times(lanes, &table, &input, quick);
    let (s, v) = (
        [fwd[0], inv[0], pw[0], sop[0]],
        [fwd[1], inv[1], pw[1], sop[1]],
    );
    let cpu_avx2 = avx2.is_some();
    let names = ["forward ", "inverse ", "pointwise", "sop line "];
    println!(
        "SIMD lane comparison n={n} (backend under test: {}):",
        if cpu_avx2 {
            "avx2"
        } else {
            "scalar only — no AVX2 on this CPU"
        }
    );
    for i in 0..4 {
        println!(
            "  {} scalar {:9.2} µs   simd {:9.2} µs   ×{:.2}",
            names[i],
            s[i],
            v[i],
            s[i] / v[i]
        );
    }
    let ntt_speedup = (s[0] + s[1]) / (v[0] + v[1]);
    println!("  forward+inverse NTT simd-vs-scalar speedup ×{ntt_speedup:.2}");
    let primes = ntt_primes(30, n, 13).unwrap();
    let rns = RnsContext::new(&primes[..6], &primes[6..]).unwrap();
    let [lift, scale] = hps_lane_times(lanes, &rns, n, quick);
    let (hs, hv) = ([lift[0], scale[0]], [lift[1], scale[1]]);
    for (name, i) in [("lift     ", 0), ("scale    ", 1)] {
        println!(
            "  {name} scalar {:9.2} µs   simd {:9.2} µs   ×{:.2}",
            hs[i],
            hv[i],
            hs[i] / hv[i]
        );
    }
    let hps_speedup = (hs[0] + hs[1]) / (hv[0] + hv[1]);
    println!("  lift+scale simd-vs-scalar speedup ×{hps_speedup:.2}");
    let json7 = format!(
        concat!(
            "{{\n",
            "  \"n\": {n},\n",
            "  \"cpu_avx2\": {avx},\n",
            "  \"active_backend\": \"{backend}\",\n",
            "  \"ntt\": {{\n",
            "    \"scalar_forward_us\": {sf:.3},\n",
            "    \"simd_forward_us\": {vf:.3},\n",
            "    \"scalar_inverse_us\": {si:.3},\n",
            "    \"simd_inverse_us\": {vi:.3},\n",
            "    \"forward_speedup\": {fs:.3},\n",
            "    \"inverse_speedup\": {is:.3},\n",
            "    \"forward_plus_inverse_speedup\": {cs:.3}\n",
            "  }},\n",
            "  \"pointwise\": {{\n",
            "    \"scalar_us\": {sp:.3},\n",
            "    \"simd_us\": {vp:.3},\n",
            "    \"speedup\": {ps:.3}\n",
            "  }},\n",
            "  \"sop_row\": {{\n",
            "    \"digits\": 6,\n",
            "    \"scalar_us\": {ss:.3},\n",
            "    \"simd_us\": {vs:.3},\n",
            "    \"speedup\": {os:.3}\n",
            "  }},\n",
            "  \"lift\": {{\n",
            "    \"scalar_us\": {sl:.3},\n",
            "    \"simd_us\": {vl:.3},\n",
            "    \"speedup\": {ls:.3}\n",
            "  }},\n",
            "  \"scale\": {{\n",
            "    \"scalar_us\": {sc:.3},\n",
            "    \"simd_us\": {vc:.3},\n",
            "    \"speedup\": {cc:.3}\n",
            "  }},\n",
            "  \"acceptance\": {{\n",
            "    \"ntt_forward_plus_inverse_speedup_simd_vs_scalar\": {cs:.3},\n",
            "    \"lift_scale_speedup_simd_vs_scalar\": {hp:.3},\n",
            "    \"sop_row_speedup_simd_vs_scalar\": {os:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        avx = cpu_avx2,
        backend = dispatch::backend_name(),
        sf = s[0],
        vf = v[0],
        si = s[1],
        vi = v[1],
        fs = s[0] / v[0],
        is = s[1] / v[1],
        cs = ntt_speedup,
        sp = s[2],
        vp = v[2],
        ps = s[2] / v[2],
        ss = s[3],
        vs = v[3],
        os = s[3] / v[3],
        sl = hs[0],
        vl = hv[0],
        ls = hs[0] / hv[0],
        sc = hs[1],
        vc = hv[1],
        cc = hs[1] / hv[1],
        hp = hps_speedup,
    );
    let out7 = std::env::var("BENCH_PR7_OUT").unwrap_or_else(|_| "BENCH_PR7.json".into());
    std::fs::write(&out7, json7).expect("write lane-comparison report");
    println!("lane-comparison report written to {out7}");
}
