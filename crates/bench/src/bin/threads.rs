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

    let iters = 5;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = eval::mul(&ctx, &ca, &cb, &rlk, Backend::default());
    }
    let seq_ms = t0.elapsed().as_secs_f64() * 1000.0 / iters as f64;
    let t1 = Instant::now();
    for _ in 0..iters {
        let _ = mul_threaded(&ctx, &ca, &cb, &rlk, Backend::default());
    }
    let par_ms = t1.elapsed().as_secs_f64() * 1000.0 / iters as f64;

    println!("\n=== software Mult: sequential vs multi-threaded (n=4096, 180-bit q) ===");
    println!(
        "available parallelism: {} cores",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    println!(
        "{:<36} {:>10.2} ms/Mult {:>10.1} Mult/s",
        "sequential (1 thread)",
        seq_ms,
        1000.0 / seq_ms
    );
    println!(
        "{:<36} {:>10.2} ms/Mult {:>10.1} Mult/s",
        "threaded (lifts/tensors/scales)",
        par_ms,
        1000.0 / par_ms
    );
    println!("speedup: {:.2}x", seq_ms / par_ms);
    println!("\nreference points (§VI-E): Badawi et al. single-thread 10 ms (60-bit q),");
    println!("26 threads 4 ms — a 2.5x gain; the coprocessor's fixed-function");
    println!("parallelism reaches 5 ms per offloaded Mult *including* transfers at");
    println!("a tenth of the CPU's power.");
}
