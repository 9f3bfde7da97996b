//! Deterministic end-to-end corruption test: with `corrupt:P` fault
//! injection flipping bits in front→node envelopes, every corrupted
//! frame must be caught by the CRC trailer and refused with
//! `IntegrityFailure` — and the retry machinery must still deliver every
//! job exactly once with a bit-exact result. Zero silently-wrong
//! replies, ever.
//!
//! This file is its own test binary, so setting `HEFV_NET_FAULT` here
//! (before the first `TcpConnector::connect`) is what arms the
//! process-wide fault plan — it cannot race the other net tests.

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::{RemoteShardSpec, RouterConfig, ShardSpec};
use hefv_engine::wire;
use hefv_net::{Client, NetServer, ServerConfig, TcpConnector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const FRAMES: u64 = 200;

#[test]
fn every_injected_corruption_is_caught_and_retried() {
    // Armed before any connector exists; the per-connection RNG streams
    // are seeded from a fixed process counter, so the corruption
    // pattern is deterministic for this binary.
    std::env::set_var("HEFV_NET_FAULT", "corrupt:0.05");

    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let (t, n) = (ctx.params().t, ctx.params().n);

    // One node behind TCP…
    let node = Arc::new(ShardRouter::new());
    node.add_shard(ShardSpec {
        name: "node0-s0".into(),
        ctx: Arc::clone(&ctx),
        config: EngineConfig {
            workers: 2,
            queue_capacity: 256,
            ..EngineConfig::default()
        },
    })
    .unwrap();
    let node_server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&node),
        ServerConfig {
            max_inflight: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // …behind a front whose only shard is that node's RemoteShard: the
    // front→node link is exactly the fault-injected data path.
    let front = Arc::new(ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        hedge: None,
        ..RouterConfig::default()
    }));
    front
        .add_remote_shard(RemoteShardSpec {
            name: "node0".into(),
            ctx: Arc::clone(&ctx),
            connector: Arc::new(TcpConnector::new(node_server.local_addr())),
            config: RemoteShardConfig {
                connections: 2,
                max_inflight: 256,
                // Short reply timeout: a refusal that came back under a
                // corrupted correlation id is dropped as unknown, and
                // the sweep re-sends the original after this long.
                reply_timeout: Duration::from_millis(500),
                probe_interval: Duration::from_millis(100),
                probe_timeout: Duration::from_millis(300),
                eject_after: 8,
                // Generous re-send budget: at corrupt:0.05 the chance of
                // one frame burning 12 attempts is ~0.05^12.
                send_attempts: 12,
                reconnect_backoff: Duration::from_millis(50),
            },
        })
        .unwrap();
    let front_server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&front),
        ServerConfig {
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Key registration crosses the same lossy link (acked HEVK push).
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let tenant = 0xF1u64;
    front
        .register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk))
        .unwrap();

    // Plain-client traffic to the front door is exempt from injection;
    // every corruption happens on the front→node hop.
    let mut client = Client::connect(front_server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut expected = HashMap::new();
    for f in 0..FRAMES {
        let (a, b) = (f % t, (5 * f + 3) % t);
        let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
        let req = EvalRequest::binary(tenant, EvalOp::Add, enc(a, &mut rng), enc(b, &mut rng));
        let corr = client.send_frame(&wire::encode_request(&req)).unwrap();
        expected.insert(corr, (a + b) % t);
    }
    client.finish_sending().unwrap();

    // Exactly once, bit-exact, through every injected corruption.
    let mut seen = HashSet::new();
    for _ in 0..FRAMES {
        let (corr, reply) = client.recv_reply().unwrap();
        assert!(seen.insert(corr), "duplicate reply for corr {corr}");
        let want = expected[&corr];
        match wire::decode_response(&ctx, &reply).unwrap() {
            wire::ResponseFrame::Ok(resp) => {
                let got = decrypt(&ctx, &sk, &resp.result).coeffs()[0];
                assert_eq!(
                    got, want,
                    "corr {corr} decrypted wrong — corruption got through"
                );
            }
            wire::ResponseFrame::Err { message, .. } => {
                panic!("corr {corr} failed instead of being retried: {message}")
            }
        }
    }
    assert_eq!(seen.len() as u64, FRAMES, "lost frames");

    // The CRC layer did real work: the node refused at least one
    // corrupted envelope (at corrupt:0.05 over 200+ frames the chance
    // of zero injections is ~1e-5, and the injection stream itself is
    // deterministic in-process)…
    let refused = node_server.stats().integrity_failures;
    assert!(
        refused > 0,
        "no envelope was refused — either injection or the CRC check is dead"
    );
    // …and every refusal was healed by a re-send, not surfaced to the
    // client (all FRAMES decrypted correctly above).
    let remote = &front.stats().remote[0].stats;
    assert!(
        remote.retries > 0,
        "refusals happened ({refused}) but nothing was ever re-sent"
    );
    println!(
        "corruption leg: {refused} envelopes refused by CRC, {} re-sends, {FRAMES}/{FRAMES} bit-exact",
        remote.retries
    );

    front_server.shutdown();
    front.shutdown();
    node_server.shutdown();
    node.shutdown();
}
