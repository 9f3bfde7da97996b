//! Ablation A1: accuracy and cost of the HPS quotient arithmetic —
//! exact CRT (long integers) vs `f64` (the HPS paper) vs the paper's
//! 89-bit fixed-point reciprocals.
//!
//! Measures (a) empirical mis-rounding rates of the approximate base
//! extension against the exact oracle, (b) software throughput of each
//! variant — the trade the paper's §IV-C/§V-B2 design argument rests on —
//! and (c) the whole-polynomial kernels the `Mult` path runs
//! (`extend_poly_hps_into`, `scale_poly_hps_into`) per precision and per
//! kernel lane, i.e. the host cost of choosing `F64` over `Fixed`.
//!
//! Run with `cargo run --release -p hefv-bench --bin ablation_hps`.

use hefv_math::dispatch::{self, Kernels};
use hefv_math::primes::ntt_primes;
use hefv_math::rns::{HpsPrecision, RnsContext, ScaleContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` time of one call of `f`, in microseconds.
fn best_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Part (c): whole-polynomial Lift and Scale at n = 4096 through each
/// available kernel table (the process-wide table runs the same code for
/// `extend_poly_hps_into` / `scale_poly_hps_into`).
fn poly_kernels(ctx: &RnsContext, rng: &mut StdRng) {
    let n = 4096usize;
    let sc = ScaleContext::new(ctx, 2);
    let mut rows = |moduli: &[hefv_math::Modulus]| -> Vec<u64> {
        (0..moduli.len() * n)
            .map(|i| rng.gen_range(0..moduli[i / n].value()))
            .collect()
    };
    let lift_in = rows(ctx.base_q().moduli());
    let scale_in = rows(ctx.base_full().moduli());
    let mut lift_out = vec![0u64; ctx.base_p().len() * n];
    let mut scale_out = vec![0u64; ctx.base_q().len() * n];
    println!("=== Poly kernels of the Mult path (n = {n}, 6+7 primes), best of 50, µs ===");
    println!("{:<8} {:<6} {:>10} {:>10}", "lane", "prec", "lift", "scale");
    let lanes: Vec<&Kernels> = std::iter::once(dispatch::scalar_kernels())
        .chain(dispatch::avx2_kernels())
        .collect();
    for lane in lanes {
        for (name, prec) in [("f64", HpsPrecision::F64), ("fixed", HpsPrecision::Fixed)] {
            let lift = best_us(50, || {
                lane.hps_extend_cols(ctx.lift(), &lift_in, n, 0..n, &mut lift_out, prec);
                black_box(&mut lift_out);
            });
            let scale = best_us(50, || {
                lane.hps_scale_cols(&sc, ctx, &scale_in, n, 0..n, &mut scale_out, prec);
                black_box(&mut scale_out);
            });
            println!(
                "{:<8} {name:<6} {lift:>10.1} {scale:>10.1}",
                lane.backend().name()
            );
        }
    }
    println!("(active lane: {})", dispatch::backend_name());
}

fn main() {
    let ps = ntt_primes(30, 4096, 13).expect("primes");
    let ctx = RnsContext::new(&ps[..6], &ps[6..]).expect("context");
    let mut rng = StdRng::seed_from_u64(42);

    let trials = 200_000usize;
    let inputs: Vec<Vec<u64>> = (0..trials)
        .map(|_| {
            (0..6)
                .map(|i| rng.gen_range(0..ctx.base_q().modulus(i).value()))
                .collect()
        })
        .collect();

    println!(
        "\n=== Ablation A1 — Lift q->Q quotient arithmetic ({trials} random coefficients) ==="
    );

    // Exact oracle.
    let t0 = Instant::now();
    let exact: Vec<Vec<u64>> = inputs.iter().map(|a| ctx.lift().extend_exact(a)).collect();
    let exact_time = t0.elapsed();

    for (label, prec) in [
        ("f64 (HPS paper)", HpsPrecision::F64),
        ("89-bit fixed point (this paper)", HpsPrecision::Fixed),
    ] {
        let t1 = Instant::now();
        let got: Vec<Vec<u64>> = inputs
            .iter()
            .map(|a| ctx.lift().extend_hps(a, prec))
            .collect();
        let dt = t1.elapsed();
        let mismatches = got.iter().zip(&exact).filter(|(g, e)| g != e).count();
        println!(
            "{label:<34} {:>10.1} ns/coeff   mis-rounds: {mismatches}/{trials}",
            dt.as_nanos() as f64 / trials as f64
        );
    }
    println!(
        "{:<34} {:>10.1} ns/coeff   (oracle)",
        "exact CRT, long integers",
        exact_time.as_nanos() as f64 / trials as f64
    );
    println!();
    println!("expected mis-round probability: ~2^-47 per coefficient (f64),");
    println!("~2^-53 (fixed point) — zero observed here is the expected outcome;");
    println!("a mis-round shifts the lifted value by one multiple of q, which FV");
    println!("absorbs as noise (§IV-C). The cost column shows why the hardware");
    println!("prefers the small-number datapath: the exact path is an order of");
    println!("magnitude slower even in software, and in hardware it additionally");
    println!("serializes a 390-bit datapath (Fig. 5 vs Fig. 6).");
    println!();
    poly_kernels(&ctx, &mut rng);
}
