//! Criterion benches of the high-level homomorphic operations at the
//! paper's full parameter size — the software baseline of the §VI-E
//! speedup comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use hefv_core::eval;
use hefv_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn setup() -> (FvContext, Ciphertext, Ciphertext, RelinKey) {
    let ctx = FvContext::new(FvParams::hpca19()).unwrap();
    let mut rng = StdRng::seed_from_u64(2019);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    let pa = Plaintext::new(vec![1, 1], 2, ctx.params().n);
    let ca = encrypt(&ctx, &pk, &pa, &mut rng);
    let cb = encrypt(&ctx, &pk, &pa, &mut rng);
    (ctx, ca, cb, rlk)
}

fn bench_mult(c: &mut Criterion) {
    let (ctx, ca, cb, rlk) = setup();
    let mut g = c.benchmark_group("fv_mult_n4096_q180");
    g.sample_size(10);
    g.bench_function("Mult HPS fixed-point", |b| {
        b.iter(|| {
            black_box(eval::mul(
                &ctx,
                &ca,
                &cb,
                &rlk,
                Backend::Hps(HpsPrecision::Fixed),
            ))
        })
    });
    g.bench_function("Mult HPS f64", |b| {
        b.iter(|| {
            black_box(eval::mul(
                &ctx,
                &ca,
                &cb,
                &rlk,
                Backend::Hps(HpsPrecision::F64),
            ))
        })
    });
    g.finish();
}

fn bench_add(c: &mut Criterion) {
    let (ctx, ca, cb, _) = setup();
    c.bench_function("fv_add_n4096_q180", |b| {
        b.iter(|| black_box(eval::add(&ctx, &ca, &cb)))
    });
}

criterion_group!(benches, bench_mult, bench_add);
criterion_main!(benches);
