//! Shard-router throughput: mixed multi-tenant traffic through one engine
//! vs a sharded fleet.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hefv_core::galois::GaloisKeySet;
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const TENANTS: u64 = 4;
const JOBS_PER_ITER: u64 = 8;

struct Fixture {
    ctx: Arc<FvContext>,
    keys: Vec<(u64, PublicKey, RelinKey, GaloisKeySet)>,
    cts: Vec<(u64, Ciphertext)>,
}

fn fixture() -> Fixture {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_medium()).unwrap());
    let mut rng = StdRng::seed_from_u64(2019);
    let t = ctx.params().t;
    let n = ctx.params().n;
    let keys: Vec<_> = (1..=TENANTS)
        .map(|id| {
            let (sk, pk, rlk) = keygen(&ctx, &mut rng);
            let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
            (id, pk, rlk, galois)
        })
        .collect();
    let cts = keys
        .iter()
        .map(|(id, pk, _, _)| {
            (
                *id,
                encrypt(&ctx, pk, &Plaintext::new(vec![1, 1], t, n), &mut rng),
            )
        })
        .collect();
    Fixture { ctx, keys, cts }
}

fn start_router(f: &Fixture, shards: usize) -> ShardRouter {
    let router = ShardRouter::new();
    for i in 0..shards {
        router
            .add_shard(ShardSpec {
                name: format!("shard-{i}"),
                ctx: Arc::clone(&f.ctx),
                config: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }
    for (id, pk, rlk, galois) in &f.keys {
        router
            .register_tenant(
                *id,
                TenantKeys::full(pk.clone(), rlk.clone(), galois.clone()),
            )
            .unwrap();
    }
    router
}

/// A mixed Mult/Rotate burst from every tenant, routed and awaited.
fn run_burst(router: &ShardRouter, f: &Fixture) {
    let handles: Vec<JobHandle> = (0..JOBS_PER_ITER)
        .map(|i| {
            let (tenant, ct) = &f.cts[(i % TENANTS) as usize];
            let req = if i % 2 == 0 {
                EvalRequest::binary(*tenant, EvalOp::Mul, ct.clone(), ct.clone())
            } else {
                EvalRequest {
                    tenant: *tenant,
                    inputs: vec![ct.clone()],
                    plaintexts: vec![],
                    ops: vec![EvalOp::Rotate(ValRef::Input(0), 3)],
                    deadline_us: None,
                    trace_id: None,
                }
            };
            router.submit(req).unwrap()
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
}

/// One engine vs a sharded fleet on the same mixed multi-tenant burst.
fn bench_sharding(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("router_sharding");
    g.sample_size(10)
        .throughput(Throughput::Elements(JOBS_PER_ITER));
    for shards in [1usize, 2, 4] {
        let router = start_router(&f, shards);
        g.bench_function(&format!("mixed_burst/{shards}_shards"), |b| {
            b.iter(|| run_burst(&router, &f))
        });
        router.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench_sharding);
criterion_main!(benches);
