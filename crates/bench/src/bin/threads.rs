//! The multi-threaded software axis of the §VI-E comparison (Badawi et
//! al.'s 26-thread CPU figures), measured the way `hefv-engine` uses the
//! cores: whole `Mult`s side by side, one thread per core, each running
//! the warm `eval::mul_in` on its own scratch arena. One thread is timed
//! against `available_parallelism()` threads at the paper's full
//! parameter size, the two sides alternating round by round.
//!
//! Run with `cargo run --release -p hefv-bench --bin threads`.

use hefv_core::eval;
use hefv_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Timed rounds per side.
const ROUNDS: usize = 15;
/// `Mult`s each thread runs per round.
const MULTS_PER_THREAD: usize = 8;

fn main() {
    let ctx = FvContext::new(FvParams::hpca19()).expect("params");
    let mut rng = StdRng::seed_from_u64(161);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    let pa = Plaintext::new(vec![1, 1], 2, ctx.params().n);
    let ca = encrypt(&ctx, &pk, &pa, &mut rng);
    let cb = encrypt(&ctx, &pk, &pa, &mut rng);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // One arena per thread, warmed (and checked against the allocating
    // entry point) before any timing.
    let reference = eval::mul(&ctx, &ca, &cb, &rlk, Backend::default());
    let arenas: Vec<Arena> = (0..cores).map(|_| Arena::new()).collect();
    for arena in &arenas {
        let out = eval::mul_in(&ctx, &ca, &cb, &rlk, Backend::default(), arena);
        assert_eq!(out, reference, "mul_in must match mul bit for bit");
        arena.recycle_ciphertext(out);
    }

    // Mult/s of `threads` threads each running MULTS_PER_THREAD warm
    // `mul_in`s on its own arena.
    let round = |threads: usize| -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for arena in &arenas[..threads] {
                s.spawn(|| {
                    for _ in 0..MULTS_PER_THREAD {
                        let out = eval::mul_in(&ctx, &ca, &cb, &rlk, Backend::default(), arena);
                        arena.recycle_ciphertext(out);
                    }
                });
            }
        });
        (threads * MULTS_PER_THREAD) as f64 / t.elapsed().as_secs_f64()
    };

    // The sides alternate (and swap order every round), so drift on a
    // shared host lands on both; quartiles show whether the gap beats
    // the spread.
    let (mut one, mut all) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for r in 0..ROUNDS {
        if r % 2 == 0 {
            one.push(round(1));
            all.push(round(cores));
        } else {
            all.push(round(cores));
            one.push(round(1));
        }
    }
    let mut ratios: Vec<f64> = all.iter().zip(&one).map(|(a, o)| a / o).collect();
    let [one_q1, one_med, one_q3] = quartiles(&mut one);
    let [all_q1, all_med, all_q3] = quartiles(&mut all);
    let [r_q1, r_med, r_q3] = quartiles(&mut ratios);

    println!("\n=== software Mult: 1 thread vs {cores} threads, one warm arena each (n=4096, 180-bit q) ===");
    println!(
        "{ROUNDS} alternating rounds of {MULTS_PER_THREAD} Mults per thread; median [quartiles]:"
    );
    println!(
        "{:<28} {:>8.1} Mult/s [{:.1}, {:.1}] {:>7.2} ms/Mult",
        "1 thread",
        one_med,
        one_q1,
        one_q3,
        1000.0 / one_med
    );
    println!(
        "{:<28} {:>8.1} Mult/s [{:.1}, {:.1}] {:>7.2} ms/Mult per thread",
        format!("{cores} threads"),
        all_med,
        all_q1,
        all_q3,
        1000.0 * cores as f64 / all_med
    );
    println!("throughput scaling per round: median {r_med:.2}x [quartiles {r_q1:.2}x, {r_q3:.2}x]");
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
