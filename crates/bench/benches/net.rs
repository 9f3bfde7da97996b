//! Loopback TCP front-end throughput: pipelined frames through
//! `hefv_net::NetServer` vs calling the router in-process.
//!
//! The interesting number is the transport tax — framing, the poll
//! loop, per-connection queues — on top of the same engine work.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_engine::wire;
use hefv_net::{Client, NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const TENANT: u64 = 9;
const FRAMES_PER_ITER: u64 = 32;

struct Fixture {
    router: Arc<ShardRouter>,
    /// A pre-encoded Add frame (the workload is transport-bound).
    frame: Vec<u8>,
}

fn fixture() -> Fixture {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let router = Arc::new(ShardRouter::new());
    for i in 0..2 {
        router
            .add_shard(ShardSpec {
                name: format!("net-{i}"),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 2,
                    queue_capacity: 256,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(7);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    router
        .register_tenant(TENANT, TenantKeys::compute(pk.clone(), rlk))
        .unwrap();
    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
    let req = EvalRequest::binary(TENANT, EvalOp::Add, enc(2, &mut rng), enc(3, &mut rng));
    Fixture {
        router,
        frame: wire::encode_request(&req),
    }
}

/// Pipelined loopback round trips vs the in-process dispatch ceiling.
fn bench_loopback(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("net_loopback");
    g.sample_size(10)
        .throughput(Throughput::Elements(FRAMES_PER_ITER));

    g.bench_function("in_process_dispatch", |b| {
        b.iter(|| {
            for _ in 0..FRAMES_PER_ITER {
                let reply = f.router.dispatch_frame(&f.frame);
                assert!(wire::peek_response_job_id(&reply).is_ok());
            }
        })
    });

    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&f.router),
        ServerConfig {
            max_inflight: FRAMES_PER_ITER as usize,
            poll_interval: std::time::Duration::from_micros(50),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    g.bench_function("tcp_pipelined", |b| {
        b.iter(|| {
            for _ in 0..FRAMES_PER_ITER {
                client.send_frame(&f.frame).unwrap();
            }
            for _ in 0..FRAMES_PER_ITER {
                client.recv_reply().unwrap();
            }
        })
    });
    let mut client2 = Client::connect(server.local_addr()).unwrap();
    g.bench_function("tcp_serial_round_trips", |b| {
        b.iter(|| {
            for _ in 0..FRAMES_PER_ITER {
                client2.call(&f.frame).unwrap();
            }
        })
    });
    g.finish();
    drop(client);
    drop(client2);
    server.shutdown();
    f.router.shutdown();
}

criterion_group!(benches, bench_loopback);
criterion_main!(benches);
