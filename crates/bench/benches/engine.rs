//! Engine throughput: requests/second through the full submit → schedule →
//! execute → respond path, single-worker vs multi-worker.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

struct Fixture {
    ctx: Arc<FvContext>,
    pk: PublicKey,
    rlk: RelinKey,
}

fn fixture() -> Fixture {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_medium()).unwrap());
    let mut rng = StdRng::seed_from_u64(2019);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    Fixture { ctx, pk, rlk }
}

fn start_engine(f: &Fixture, workers: usize) -> Engine {
    let engine = Engine::start(
        Arc::clone(&f.ctx),
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    );
    engine.register_tenant(1, TenantKeys::compute(f.pk.clone(), f.rlk.clone()));
    engine
}

/// In-flight mixed Add/Mul traffic (8 jobs per iteration).
fn bench_eval_throughput(c: &mut Criterion) {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(7);
    let t = f.ctx.params().t;
    let n = f.ctx.params().n;
    let cts: Vec<Ciphertext> = (0..4u64)
        .map(|v| encrypt(&f.ctx, &f.pk, &Plaintext::new(vec![v + 1], t, n), &mut rng))
        .collect();

    let mut g = c.benchmark_group("engine_requests");
    g.sample_size(10).throughput(Throughput::Elements(8));
    for workers in [1usize, 2, 4] {
        let engine = start_engine(&f, workers);
        g.bench_function(&format!("mixed_8_jobs/{workers}_workers"), |b| {
            b.iter(|| {
                let handles: Vec<JobHandle> = (0..8)
                    .map(|i| {
                        let op: fn(ValRef, ValRef) -> EvalOp =
                            if i % 2 == 0 { EvalOp::Mul } else { EvalOp::Add };
                        let req = EvalRequest::binary(
                            1,
                            op,
                            cts[i % cts.len()].clone(),
                            cts[(i + 1) % cts.len()].clone(),
                        );
                        engine.submit(req).unwrap()
                    })
                    .collect();
                for h in handles {
                    h.wait().unwrap();
                }
            })
        });
        engine.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench_eval_throughput);
criterion_main!(benches);
