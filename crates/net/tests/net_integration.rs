//! End-to-end TCP front-end tests: the acceptance-scale pipelined load,
//! adversarial frame segmentation, mid-stream oversized-frame rejection,
//! backpressure, and graceful shutdown with jobs in flight.

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_engine::wire;
use hefv_net::{envelope, Client, NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

fn toy_router(shards: usize, queue_capacity: usize) -> (Arc<FvContext>, Arc<ShardRouter>) {
    toy_router_shedding(shards, queue_capacity, SheddingPolicy::default())
}

/// Like [`toy_router`] but with an explicit admission policy — the
/// shutdown tests run deliberately over-budget chains as slow filler
/// jobs, which the default noise gate would (correctly) refuse.
fn toy_router_shedding(
    shards: usize,
    queue_capacity: usize,
    shedding: SheddingPolicy,
) -> (Arc<FvContext>, Arc<ShardRouter>) {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let router = Arc::new(ShardRouter::new());
    for i in 0..shards {
        router
            .add_shard(ShardSpec {
                name: format!("s{i}"),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 2,
                    threads_per_job: 1,
                    queue_capacity,
                    shedding: shedding.clone(),
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }
    (ctx, router)
}

struct Tenant {
    id: u64,
    home: ShardId,
    sk: SecretKey,
    pk: PublicKey,
}

fn onboard(ctx: &Arc<FvContext>, router: &ShardRouter, id: u64, seed: u64) -> Tenant {
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk, rlk) = keygen(ctx, &mut rng);
    let home = router
        .register_tenant(id, TenantKeys::compute(pk.clone(), rlk))
        .unwrap();
    Tenant { id, home, sk, pk }
}

fn add_frame(ctx: &Arc<FvContext>, tenant: &Tenant, a: u64, b: u64, rng: &mut StdRng) -> Vec<u8> {
    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = |v, rng: &mut StdRng| encrypt(ctx, &tenant.pk, &Plaintext::new(vec![v], t, n), rng);
    wire::encode_request(&EvalRequest::binary(
        tenant.id,
        EvalOp::Add,
        enc(a, rng),
        enc(b, rng),
    ))
}

fn expect_ok(ctx: &FvContext, sk: &SecretKey, reply: &[u8]) -> u64 {
    match wire::decode_response(ctx, reply).unwrap() {
        wire::ResponseFrame::Ok(resp) => decrypt(ctx, sk, &resp.result).coeffs()[0],
        wire::ResponseFrame::Err { message, .. } => panic!("job failed: {message}"),
    }
}

/// The acceptance test: 4 concurrent clients, each pipelining 256 frames
/// over its own connection into a 4-shard router. Every reply must come
/// back exactly once, stamped with the tenant's shard, and decrypt to
/// the right value — with no ordering deadlock between the pipelined
/// reads and writes.
#[test]
fn four_clients_pipeline_256_frames_over_four_shards() {
    const FRAMES: u64 = 256;
    let (ctx, router) = toy_router(4, 512);

    // Four tenants on four distinct shards so every shard serves load.
    let mut tenants = Vec::new();
    let mut covered = HashSet::new();
    for candidate in 1u64.. {
        if covered.insert(router.shard_for(candidate).unwrap()) {
            tenants.push(onboard(&ctx, &router, candidate, 100 + candidate));
            if tenants.len() == 4 {
                break;
            }
        }
    }

    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            max_inflight: 48,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for (i, tenant) in tenants.iter().enumerate() {
            let ctx = Arc::clone(&ctx);
            scope.spawn(move || {
                let t = ctx.params().t;
                let mut rng = StdRng::seed_from_u64(7_000 + i as u64);
                let mut client = Client::connect(addr).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut expected = HashMap::new();
                for f in 0..FRAMES {
                    let (a, b) = (f % t, (3 * f + i as u64) % t);
                    let frame = add_frame(&ctx, tenant, a, b, &mut rng);
                    let corr = client.send_frame(&frame).unwrap();
                    expected.insert(corr, (a + b) % t);
                }
                let mut seen = HashSet::new();
                for _ in 0..FRAMES {
                    let (corr, reply) = client.recv_reply().unwrap();
                    assert!(seen.insert(corr), "duplicate reply for corr {corr}");
                    let stamp = wire::peek_response_shard(&reply).unwrap();
                    assert_eq!(
                        u16::from(stamp),
                        tenant.home,
                        "reply stamped with the wrong shard"
                    );
                    assert_eq!(expect_ok(&ctx, &tenant.sk, &reply), expected[&corr]);
                }
                assert_eq!(seen.len() as u64, FRAMES, "lost frames");
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.frames_in, 4 * FRAMES);
    assert_eq!(stats.replies_out, 4 * FRAMES);
    let fleet = router.stats();
    assert_eq!(fleet.total.jobs_completed, 4 * FRAMES);
    for shard in &fleet.per_shard {
        assert!(shard.stats.jobs_completed > 0, "an idle shard");
    }
    server.shutdown();
    router.shutdown();
}

/// Frames must reassemble no matter how TCP segments them: the envelope
/// is dribbled in 1–7 byte chunks over a raw socket.
#[test]
fn frames_split_across_arbitrary_read_boundaries() {
    let (ctx, router) = toy_router(1, 64);
    let tenant = onboard(&ctx, &router, 5, 42);
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for (corr, (a, b)) in [(11u64, (2u64, 3u64)), (12, (7, 8))] {
        let env = envelope::encode(corr, &add_frame(&ctx, &tenant, a, b, &mut rng));
        let mut off = 0;
        let mut step = 1;
        while off < env.len() {
            let end = (off + step).min(env.len());
            stream.write_all(&env[off..end]).unwrap();
            stream.flush().unwrap();
            off = end;
            step = step % 7 + 1; // 1..=7 byte chunks
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // Both replies arrive, intact, over the same raw socket.
    let read_reply = |stream: &mut std::net::TcpStream| {
        let mut header = [0u8; 12];
        stream.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let corr = u64::from_le_bytes(header[4..].try_into().unwrap());
        let mut frame = vec![0u8; len - 8];
        stream.read_exact(&mut frame).unwrap();
        (corr, frame)
    };
    let mut replies = HashMap::new();
    for _ in 0..2 {
        let (corr, frame) = read_reply(&mut stream);
        replies.insert(corr, frame);
    }
    assert_eq!(expect_ok(&ctx, &tenant.sk, &replies[&11]), 5);
    assert_eq!(expect_ok(&ctx, &tenant.sk, &replies[&12]), 15);
    server.shutdown();
    router.shutdown();
}

/// An oversized frame mid-stream gets an error reply, its body is
/// skipped, and the connection keeps serving the frames around it.
#[test]
fn oversized_frame_is_rejected_mid_stream() {
    let (ctx, router) = toy_router(1, 64);
    let tenant = onboard(&ctx, &router, 3, 77);
    let cap = 4096;
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            max_frame_bytes: cap,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(1);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let good = add_frame(&ctx, &tenant, 4, 5, &mut rng);
    assert!(good.len() <= cap, "toy frames must fit the test cap");
    let oversized = vec![0xAB; cap + 1];

    let c1 = client.send_frame(&good).unwrap();
    let c2 = client.send_frame(&oversized).unwrap();
    let c3 = client.send_frame(&good).unwrap();

    assert_eq!(
        expect_ok(&ctx, &tenant.sk, &client.recv_reply_for(c1).unwrap()),
        9
    );
    let rejection = client.recv_reply_for(c2).unwrap();
    // Transport-level failures are stamped with the reserved error
    // shard, not a real shard id.
    assert_eq!(
        wire::peek_response_shard(&rejection).unwrap(),
        wire::ERROR_SHARD
    );
    match wire::decode_response(&ctx, &rejection).unwrap() {
        wire::ResponseFrame::Err {
            job_id, message, ..
        } => {
            assert_eq!(job_id, u64::MAX);
            assert!(message.contains("cap"), "unexpected error: {message}");
        }
        wire::ResponseFrame::Ok(_) => panic!("oversized frame must not execute"),
    }
    // The stream stays usable: the frame after the oversized one runs.
    assert_eq!(
        expect_ok(&ctx, &tenant.sk, &client.recv_reply_for(c3).unwrap()),
        9
    );
    assert_eq!(server.stats().frames_rejected, 1);
    server.shutdown();
    router.shutdown();
}

/// A decode-level bad frame (garbage inside a well-formed envelope) gets
/// an error reply without poisoning the connection.
#[test]
fn malformed_frame_gets_error_reply() {
    let (ctx, router) = toy_router(1, 64);
    let tenant = onboard(&ctx, &router, 8, 11);
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let garbage = client.send_frame(&[1, 2, 3, 4]).unwrap();
    let good = client
        .send_frame(&add_frame(&ctx, &tenant, 1, 2, &mut rng))
        .unwrap();
    match wire::decode_response(&ctx, &client.recv_reply_for(garbage).unwrap()).unwrap() {
        wire::ResponseFrame::Err { job_id, .. } => assert_eq!(job_id, u64::MAX),
        wire::ResponseFrame::Ok(_) => panic!("garbage must not execute"),
    }
    assert_eq!(
        expect_ok(&ctx, &tenant.sk, &client.recv_reply_for(good).unwrap()),
        3
    );
    server.shutdown();
    router.shutdown();
}

/// `max_inflight: 1` serializes the engine but must not lose frames —
/// backpressure holds them in the socket until slots free up.
#[test]
fn backpressure_with_tiny_inflight_window_loses_nothing() {
    let (ctx, router) = toy_router(1, 64);
    let tenant = onboard(&ctx, &router, 21, 5);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let t = ctx.params().t;
    let mut corrs = Vec::new();
    for f in 0..32u64 {
        let frame = add_frame(&ctx, &tenant, f % t, 1, &mut rng);
        corrs.push((client.send_frame(&frame).unwrap(), (f % t + 1) % t));
    }
    client.finish_sending().unwrap();
    for (corr, expect) in corrs {
        let reply = client.recv_reply_for(corr).unwrap();
        assert_eq!(expect_ok(&ctx, &tenant.sk, &reply), expect);
    }
    server.shutdown();
    router.shutdown();
}

/// A shard queue far smaller than the pipelined burst: the poll loop
/// must convert engine backpressure into TCP backpressure (retrying
/// buffered frames) instead of blocking or dropping. Regression test
/// for the non-blocking dispatch seam.
///
/// The burst is encoded before the first send and every job sleeps 2 ms
/// first, so two workers drain at most one job per millisecond while the
/// poll thread dispatches the buffered frames far faster: the queue must
/// overflow however fast the ops and the checksums run.
#[test]
fn tiny_shard_queue_backpressure_loses_nothing() {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let router = Arc::new(ShardRouter::new());
    router
        .add_shard(ShardSpec {
            name: "s0".into(),
            ctx: Arc::clone(&ctx),
            config: EngineConfig {
                workers: 2,
                threads_per_job: 1,
                queue_capacity: 2,
                chaos: Some(ChaosPlan {
                    delay: Duration::from_millis(2),
                    ..ChaosPlan::default()
                }),
                ..EngineConfig::default()
            },
        })
        .unwrap();
    let tenant = onboard(&ctx, &router, 6, 23);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            max_inflight: 64, // far above the queue: the queue is the gate
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let t = ctx.params().t;
    let frames: Vec<Vec<u8>> = (0..48u64)
        .map(|f| add_frame(&ctx, &tenant, f % t, 2, &mut rng))
        .collect();
    let mut expected = HashMap::new();
    for (f, frame) in (0..48u64).zip(&frames) {
        expected.insert(client.send_frame(frame).unwrap(), (f % t + 2) % t);
    }
    client.finish_sending().unwrap();
    let mut seen = HashSet::new();
    for _ in 0..48 {
        let (corr, reply) = client.recv_reply().unwrap();
        assert!(seen.insert(corr));
        assert_eq!(expect_ok(&ctx, &tenant.sk, &reply), expected[&corr]);
    }
    // Every refused dispatch attempt is *counted*, not silently undone:
    // a 2-deep queue under a 48-frame burst must have turned work away
    // at least once, even though every frame eventually ran.
    let fleet = router.stats();
    assert!(
        fleet.total.jobs_rejected > 0,
        "a 2-deep queue absorbed a 48-frame burst without one refusal"
    );
    assert_eq!(fleet.total.jobs_completed, 48);
    server.shutdown();
    router.shutdown();
}

/// Graceful shutdown drains: every job accepted before the shutdown call
/// completes and its reply reaches the client before the socket closes.
#[test]
fn shutdown_drains_jobs_in_flight() {
    const JOBS: u64 = 24;
    let (ctx, router) = toy_router_shedding(
        1,
        64,
        SheddingPolicy {
            noise_admission: false, // the filler chains are over-budget on purpose
            ..SheddingPolicy::default()
        },
    );
    let tenant = onboard(&ctx, &router, 4, 13);
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // A deliberately heavy request: a chain of 24 squarings.
    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = |v, rng: &mut StdRng| encrypt(&ctx, &tenant.pk, &Plaintext::new(vec![v], t, n), rng);
    let mut ops = vec![EvalOp::Mul(ValRef::Input(0), ValRef::Input(0))];
    for i in 1..24 {
        ops.push(EvalOp::Mul(ValRef::Op(i - 1), ValRef::Op(i - 1)));
    }
    let req = EvalRequest {
        tenant: tenant.id,
        inputs: vec![enc(1, &mut rng)],
        plaintexts: vec![],
        ops,
        deadline_us: None,
        trace_id: None,
    };
    let frame = wire::encode_request(&req);
    let mut corrs = HashSet::new();
    for _ in 0..JOBS {
        corrs.insert(client.send_frame(&frame).unwrap());
    }
    // Wait until the server has accepted every job…
    while server.stats().frames_in < JOBS {
        std::thread::sleep(Duration::from_millis(1));
    }
    // …then shut down with most of them still queued or executing.
    server.shutdown();

    // The drain guarantees every accepted job still answers. (The chain
    // is far past the toy noise budget, so the *value* is meaningless —
    // only Ok delivery is asserted.)
    let mut seen = HashSet::new();
    for _ in 0..JOBS {
        let (corr, reply) = client.recv_reply().unwrap();
        assert!(seen.insert(corr));
        match wire::decode_response(&ctx, &reply).unwrap() {
            wire::ResponseFrame::Ok(_) => {}
            wire::ResponseFrame::Err { message, .. } => panic!("dropped in drain: {message}"),
        }
    }
    assert_eq!(seen, corrs);
    router.shutdown();
}

/// Regression: when the drain window closes with jobs still in flight,
/// the server must answer every outstanding correlation id with a typed
/// `ShuttingDown` refusal before closing the socket — not silently drop
/// them. Every id gets exactly one reply: Ok if it finished inside the
/// window, `ShuttingDown` if it did not.
#[test]
fn drain_timeout_expiry_answers_undrained_jobs_with_shutting_down() {
    const JOBS: u64 = 32;
    let (ctx, router) = toy_router_shedding(
        1,
        64,
        SheddingPolicy {
            noise_admission: false, // the filler chains are over-budget on purpose
            ..SheddingPolicy::default()
        },
    );
    let tenant = onboard(&ctx, &router, 14, 19);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            // Far shorter than the backlog needs: the drain WILL expire.
            drain_timeout: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Heavy filler: a chain of 200 squarings per job keeps two workers
    // busy far past the 20 ms drain window.
    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = |v, rng: &mut StdRng| encrypt(&ctx, &tenant.pk, &Plaintext::new(vec![v], t, n), rng);
    let mut ops = vec![EvalOp::Mul(ValRef::Input(0), ValRef::Input(0))];
    for i in 1..200 {
        ops.push(EvalOp::Mul(ValRef::Op(i - 1), ValRef::Op(i - 1)));
    }
    let req = EvalRequest {
        tenant: tenant.id,
        inputs: vec![enc(1, &mut rng)],
        plaintexts: vec![],
        ops,
        deadline_us: None,
        trace_id: None,
    };
    let frame = wire::encode_request(&req);
    let mut corrs = HashSet::new();
    for _ in 0..JOBS {
        corrs.insert(client.send_frame(&frame).unwrap());
    }
    while server.stats().frames_in < JOBS {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();

    // Every correlation id answers exactly once; the ones the window
    // cut off carry the retryable ShuttingDown code, nothing vanishes.
    let mut seen = HashSet::new();
    let mut cut_off = 0u64;
    for _ in 0..JOBS {
        let (corr, reply) = client.recv_reply().unwrap();
        assert!(seen.insert(corr), "duplicate reply for corr {corr}");
        match wire::peek_response_error(&reply).unwrap() {
            None => {} // finished inside the window
            Some(info) => {
                assert_eq!(info.code, ErrorCode::ShuttingDown, "wrong refusal class");
                assert!(info.code.retryable(), "ShuttingDown must invite a retry");
                cut_off += 1;
            }
        }
    }
    assert_eq!(seen, corrs, "a correlation id was dropped in the drain");
    assert!(
        cut_off > 0,
        "a 20 ms window cannot drain 32 deep Mul chains — the expiry path never ran"
    );
    router.shutdown();
}

/// The `HEVS` admin route end to end: after real load, a metrics scrape
/// over the same connection returns a parseable Prometheus exposition
/// with the engine, tenant, shard and transport families, and a trace
/// scrape returns spans whose trace ids are exactly the ones the client
/// stamped into its request envelopes.
#[test]
fn hevs_scrape_returns_metrics_and_matching_trace_ids() {
    const FRAMES: u64 = 16;
    let (ctx, router) = toy_router(2, 64);
    let tenant = onboard(&ctx, &router, 9, 31);
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = |v, rng: &mut StdRng| encrypt(&ctx, &tenant.pk, &Plaintext::new(vec![v], t, n), rng);
    let mut sent_ids = HashSet::new();
    for f in 0..FRAMES {
        let trace_id = 0xD00D_0000 + f;
        sent_ids.insert(trace_id);
        let req = EvalRequest::binary(tenant.id, EvalOp::Add, enc(f, &mut rng), enc(1, &mut rng))
            .with_trace_id(trace_id);
        let reply = client.call(&wire::encode_request(&req)).unwrap();
        assert_eq!(expect_ok(&ctx, &tenant.sk, &reply), (f + 1) % t);
    }

    let metrics = client.scrape_stats(wire::StatsKind::Metrics).unwrap();
    for family in [
        "hefv_jobs_submitted_total",
        "hefv_jobs_completed_total",
        "hefv_op_latency_seconds",
        "hefv_queue_wait_seconds",
        "hefv_tenant_requests_total",
        "hefv_shard_up",
        "hefv_net_connections_total",
        "hefv_net_replies_out_total",
    ] {
        assert!(metrics.contains(family), "missing family {family}");
    }
    for q in ["quantile=\"0.5\"", "quantile=\"0.95\"", "quantile=\"0.99\""] {
        assert!(metrics.contains(q), "missing {q} in exposition");
    }
    assert!(
        metrics.contains("hefv_tenant_requests_total{tenant=\"9\"} 16"),
        "per-tenant accounting missing from the scrape"
    );

    // Every trace id the dump mentions is one this client stamped, and
    // at least one request is actually in the (large enough) ring.
    let traces = client.scrape_stats(wire::StatsKind::Traces).unwrap();
    let mut matched = 0u64;
    for line in traces.lines().filter(|l| !l.starts_with('#')) {
        let token = line
            .split_whitespace()
            .find_map(|w| w.strip_prefix("trace=0x"))
            .unwrap_or_else(|| panic!("span line without a trace id: {line}"));
        let id = u64::from_str_radix(token, 16).unwrap();
        assert!(
            sent_ids.contains(&id),
            "span with an id nobody sent: {line}"
        );
        matched += 1;
    }
    assert_eq!(
        matched, FRAMES,
        "every request fits the default ring, so every span must show"
    );
    server.shutdown();
    router.shutdown();
}

/// A corrupted checked envelope is refused with `IntegrityFailure` —
/// never decoded, never silently wrong — and the connection keeps
/// serving the intact frames around it. Every reply on an upgraded
/// connection carries a verifying CRC trailer of its own.
#[test]
fn corrupted_checked_envelope_is_refused_not_decoded() {
    let (ctx, router) = toy_router(1, 64);
    let tenant = onboard(&ctx, &router, 17, 91);
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Reads one reply, verifying (and stripping) the CRC trailer when
    // the server sent a checked envelope.
    let read_reply = |stream: &mut std::net::TcpStream| {
        let mut header = [0u8; 12];
        stream.read_exact(&mut header).unwrap();
        let raw = u32::from_le_bytes(header[..4].try_into().unwrap());
        let checked = raw & envelope::CRC_FLAG != 0;
        let len = (raw & !envelope::CRC_FLAG) as usize;
        let corr = u64::from_le_bytes(header[4..].try_into().unwrap());
        let mut frame = vec![0u8; len - 8];
        stream.read_exact(&mut frame).unwrap();
        if checked {
            let mut body = header[4..].to_vec();
            body.extend_from_slice(&frame);
            let (payload, tail) = body.split_at(body.len() - 4);
            assert_eq!(
                hefv_core::crc32::crc32(payload),
                u32::from_le_bytes(tail.try_into().unwrap()),
                "server reply failed its own CRC"
            );
            frame.truncate(frame.len() - 4);
        }
        (corr, frame, checked)
    };

    // Good (checked) → corrupted (checked) → good: the middle one must
    // come back as a typed IntegrityFailure, the outer two as Ok.
    let good1 = envelope::encode_checked(31, &add_frame(&ctx, &tenant, 2, 3, &mut rng));
    let mut corrupt = envelope::encode_checked(32, &add_frame(&ctx, &tenant, 4, 4, &mut rng));
    let at = corrupt.len() / 2; // inside the frame body, past len+corr
    corrupt[at] ^= 0x04;
    let good2 = envelope::encode_checked(33, &add_frame(&ctx, &tenant, 5, 6, &mut rng));
    stream.write_all(&good1).unwrap();
    stream.write_all(&corrupt).unwrap();
    stream.write_all(&good2).unwrap();
    stream.flush().unwrap();

    let mut replies = HashMap::new();
    for _ in 0..3 {
        let (corr, frame, checked) = read_reply(&mut stream);
        assert!(checked, "upgraded connection must answer checked");
        replies.insert(corr, frame);
    }
    assert_eq!(expect_ok(&ctx, &tenant.sk, &replies[&31]), 5);
    assert_eq!(expect_ok(&ctx, &tenant.sk, &replies[&33]), 11);
    let info = wire::peek_response_error(&replies[&32])
        .unwrap()
        .expect("corrupted envelope must answer with an error frame");
    assert_eq!(info.code, ErrorCode::IntegrityFailure);
    assert!(
        info.code.retryable(),
        "IntegrityFailure must invite a re-send"
    );
    assert_eq!(server.stats().integrity_failures, 1);
    server.shutdown();
    router.shutdown();
}

/// Idle connections past the timeout are closed; busy ones are not.
#[test]
fn idle_timeout_closes_quiet_connections() {
    let (_ctx, router) = toy_router(1, 64);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    // The server closes an idle connection: read returns EOF.
    assert_eq!(stream.read(&mut buf).unwrap(), 0);
    server.shutdown();
    router.shutdown();
}
