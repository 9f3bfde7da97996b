//! The multi-threaded software axis of the §VI-E comparison (Badawi et
//! al.'s 26-thread CPU figures): sequential vs threaded Mult at the
//! paper's full parameter size, measured on the host.

use hefv_core::eval;
use hefv_core::parallel::mul_threaded;
use hefv_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let ctx = FvContext::new(FvParams::hpca19()).expect("params");
    let mut rng = StdRng::seed_from_u64(161);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    let pa = Plaintext::new(vec![1, 1], 2, ctx.params().n);
    let ca = encrypt(&ctx, &pk, &pa, &mut rng);
    let cb = encrypt(&ctx, &pk, &pa, &mut rng);

    // Warm-up and correctness cross-check.
    let seq = eval::mul(&ctx, &ca, &cb, &rlk, Backend::default());
    let par = mul_threaded(&ctx, &ca, &cb, &rlk, Backend::default());
    assert_eq!(seq, par, "threaded result must be bit-identical");

    // The two sides alternate call by call, so drift on a shared host
    // lands on both; quartiles show whether the gap beats the spread.
    let iters = 21;
    let (mut seq, mut par) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for _ in 0..iters {
        let t = Instant::now();
        let _ = eval::mul(&ctx, &ca, &cb, &rlk, Backend::default());
        seq.push(t.elapsed().as_secs_f64() * 1000.0);
        let t = Instant::now();
        let _ = mul_threaded(&ctx, &ca, &cb, &rlk, Backend::default());
        par.push(t.elapsed().as_secs_f64() * 1000.0);
    }
    let [seq_q1, seq_ms, seq_q3] = quartiles(&mut seq);
    let [par_q1, par_ms, par_q3] = quartiles(&mut par);

    println!("\n=== software Mult: sequential vs multi-threaded (n=4096, 180-bit q) ===");
    println!(
        "available parallelism: {} cores",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    println!("{iters} alternating calls per side; median [quartiles]:");
    println!(
        "{:<36} {:>8.2} ms/Mult [{:.2}, {:.2}] {:>8.1} Mult/s",
        "sequential (1 thread)",
        seq_ms,
        seq_q1,
        seq_q3,
        1000.0 / seq_ms
    );
    println!(
        "{:<36} {:>8.2} ms/Mult [{:.2}, {:.2}] {:>8.1} Mult/s",
        "threaded (lifts/tensors/scales)",
        par_ms,
        par_q1,
        par_q3,
        1000.0 / par_ms
    );
    println!(
        "speedup of medians: {:.2}x (quartile bounds {:.2}x..{:.2}x)",
        seq_ms / par_ms,
        seq_q1 / par_q3,
        seq_q3 / par_q1
    );
    println!("\nreference points (§VI-E): Badawi et al. single-thread 10 ms (60-bit q),");
    println!("26 threads 4 ms — a 2.5x gain; the coprocessor's fixed-function");
    println!("parallelism reaches 5 ms per offloaded Mult *including* transfers at");
    println!("a tenth of the CPU's power.");
}

/// Lower quartile, median and upper quartile (nearest rank) of `xs`.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |p: usize| xs[(xs.len() - 1) * p / 4];
    [at(1), at(2), at(3)]
}
