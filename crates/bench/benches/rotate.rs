//! Before/after bench for PR 5's hoisted key-switching: the per-rotation
//! reference path (`apply_galois_reference` / `sum_slots_reference`, the
//! pre-hoisting implementation kept in-tree as the oracle) against the
//! hoisted datapath (`HoistedCiphertext`, grouped `sum_slots`), emitted as
//! machine-readable JSON.
//!
//! Measured at the paper's full parameter size (n = 4096 ⇒ 4096 SIMD
//! slots, six 30-bit ciphertext primes):
//!
//! * one rotation, reference vs hoist-of-one vs the amortized marginal
//!   cost of an extra rotation on an existing hoist;
//! * `rotate_many` over a batch of exponents (one decomposition, many
//!   rotations);
//! * the 4096-slot slot sum: 12 reference rotate-and-add rounds vs the
//!   hoisted group fold.
//!
//! Environment knobs:
//! * `BENCH_PR5_OUT` — output path for the JSON report.
//! * `BENCH_PR5_QUICK` — any value shrinks the iteration budget for CI
//!   smoke runs.

use hefv_core::galois::{
    apply_galois, apply_galois_reference, sum_slots_reference, GaloisKey, GaloisKeySet,
    HoistedCiphertext,
};
use hefv_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Minimum-of-samples timer (same shape as `benches/ntt.rs`).
fn measure<F: FnMut()>(mut f: F, quick: bool) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let target = if quick { 0.05 } else { 0.4 };
    let batch = ((target / 4.0 / once) as u64).clamp(1, 1 << 16);
    let samples = if quick { 3 } else { 6 };
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / batch as f64);
    }
    best
}

fn main() {
    let quick = std::env::var_os("BENCH_PR5_QUICK").is_some();
    let ctx = FvContext::new(FvParams::hpca19_batching()).unwrap();
    let n = ctx.params().n;
    let mut rng = StdRng::seed_from_u64(2025);
    let (sk, pk, _rlk) = keygen(&ctx, &mut rng);
    let enc = BatchEncoder::new(ctx.params().t, n).unwrap();
    let vals: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
    let ct = encrypt(&ctx, &pk, &enc.encode(&vals), &mut rng);

    // A batch of 8 distinct rotation exponents for the rotate_many shape.
    let two_n = 2 * n;
    let exps: Vec<usize> = (0..8u32)
        .map(|i| {
            let mut g = 1usize;
            for _ in 0..=i {
                g = (g * 3) % two_n;
            }
            g
        })
        .collect();
    let batch_keys: Vec<GaloisKey> = exps
        .iter()
        .map(|&g| GaloisKey::generate(&ctx, &sk, g, &mut rng))
        .collect();
    let key = &batch_keys[0];
    let slot_keys = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);

    // Single rotation: reference vs hoist-of-one.
    let rot_ref_ms = measure(
        || {
            black_box(apply_galois_reference(&ctx, &ct, key));
        },
        quick,
    ) * 1e3;
    let rot_hoist1_ms = measure(
        || {
            black_box(apply_galois(&ctx, &ct, key));
        },
        quick,
    ) * 1e3;

    // Marginal hoisted rotation: decomposition amortized away entirely.
    let arena = Arena::new();
    let hoisted = HoistedCiphertext::new_in(&ctx, &ct, &arena);
    let rot_marginal_ms = {
        let m = measure(
            || {
                let out = hoisted.rotate_in(&ctx, key, &arena);
                arena.recycle_ciphertext(black_box(out));
            },
            quick,
        );
        m * 1e3
    };

    // rotate_many: 8 rotations off one decomposition vs 8 reference calls.
    let key_refs: Vec<&GaloisKey> = batch_keys.iter().collect();
    let many_ref_ms = measure(
        || {
            for k in &key_refs {
                black_box(apply_galois_reference(&ctx, &ct, k));
            }
        },
        quick,
    ) * 1e3;
    // Steady state: a persistent arena (as each engine worker keeps) with
    // outputs recycled once consumed.
    let many_arena = Arena::new();
    let many_hoisted_ms = measure(
        || {
            let outs = hefv_core::galois::rotate_many_in(&ctx, &ct, &key_refs, &many_arena);
            for out in black_box(outs) {
                many_arena.recycle_ciphertext(out);
            }
        },
        quick,
    ) * 1e3;

    // The acceptance workload: 4096-slot slot sum.
    let sum_ref_ms = measure(
        || {
            black_box(sum_slots_reference(&ctx, &ct, &slot_keys));
        },
        quick,
    ) * 1e3;
    let sum_arena = Arena::new();
    let sum_hoisted_ms = measure(
        || {
            let out = hefv_core::galois::sum_slots_in(&ctx, &ct, &slot_keys, &sum_arena);
            sum_arena.recycle_ciphertext(black_box(out));
        },
        quick,
    ) * 1e3;

    if std::env::var_os("BENCH_PR5_PROFILE").is_some() {
        let a = Arena::new();
        let hoist_ms = measure(
            || {
                let h = HoistedCiphertext::new_in(&ctx, &ct, &a);
                h.recycle(&a);
            },
            quick,
        ) * 1e3;
        let h = HoistedCiphertext::new_in(&ctx, &ct, &a);
        let group0: Vec<&GaloisKey> = slot_keys.groups()[0]
            .iter()
            .map(|&i| &slot_keys.keys()[i])
            .collect();
        let fold_ms = measure(
            || {
                let out = h.sum_self_plus_rotations_in(&ctx, group0.iter().copied(), &a);
                a.recycle_ciphertext(black_box(out));
            },
            quick,
        ) * 1e3;
        println!("PROFILE: new_in {hoist_ms:.3} ms, 7-rot group fold {fold_ms:.3} ms");
    }

    let rot_speedup = many_ref_ms / many_hoisted_ms;
    let sum_speedup = sum_ref_ms / sum_hoisted_ms;
    println!("Rotation kernels, n={n}, k=6 (per-call minima):");
    println!(
        "  one rotation   reference {rot_ref_ms:8.3} ms   hoist-of-one {rot_hoist1_ms:8.3} ms"
    );
    println!("  marginal hoisted rotation (decomposition amortized) {rot_marginal_ms:8.3} ms");
    println!("  rotate x8      reference {many_ref_ms:8.3} ms   hoisted {many_hoisted_ms:8.3} ms   x{rot_speedup:.2}");
    println!(
        "  sum_slots      reference {sum_ref_ms:8.3} ms   hoisted {sum_hoisted_ms:8.3} ms   x{sum_speedup:.2}"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"n\": {n},\n",
            "  \"slots\": {n},\n",
            "  \"rotation\": {{\n",
            "    \"reference_ms\": {rr:.3},\n",
            "    \"hoist_of_one_ms\": {h1:.3},\n",
            "    \"hoisted_marginal_ms\": {hm:.3}\n",
            "  }},\n",
            "  \"rotate_many_8\": {{\n",
            "    \"reference_ms\": {mr:.3},\n",
            "    \"hoisted_ms\": {mh:.3},\n",
            "    \"speedup\": {ms:.3},\n",
            "    \"speedup_required\": 3.0\n",
            "  }},\n",
            "  \"sum_slots\": {{\n",
            "    \"reference_ms\": {sr:.3},\n",
            "    \"hoisted_ms\": {sh:.3},\n",
            "    \"speedup\": {ss:.3},\n",
            "    \"note\": \"slot-sum doubling rounds are sequentially dependent, so one decomposition cannot serve all log2(n) rotations; the grouped fold amortizes within HOIST_GROUP_ROUNDS-round groups (6 decompositions instead of 12 at n=4096)\"\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        rr = rot_ref_ms,
        h1 = rot_hoist1_ms,
        hm = rot_marginal_ms,
        mr = many_ref_ms,
        mh = many_hoisted_ms,
        ms = rot_speedup,
        sr = sum_ref_ms,
        sh = sum_hoisted_ms,
        ss = sum_speedup,
    );
    let out = std::env::var("BENCH_PR5_OUT").unwrap_or_else(|_| "BENCH_PR5.json".into());
    std::fs::write(&out, json).expect("write bench report");
    println!("report written to {out}");
}
