//! Loopback TCP service smoke: the CI `net-smoke` workload.
//!
//! A four-shard router is served over TCP by `hefv_net::NetServer`; four
//! client threads (one tenant each, every tenant hashing to a distinct
//! shard) pipeline 256 encrypted additions apiece through one connection
//! each, half-close, and collect replies in completion order. Every
//! request envelope carries a deterministic trace id. The process exits
//! non-zero if any frame is lost, duplicated, misrouted (reply stamped
//! with the wrong shard), or decrypts to the wrong value — and then
//! exercises the `HEVS` admin route: a metrics scrape must return a
//! Prometheus exposition with the expected families and quantiles, and
//! a trace scrape must return spans whose ids are exactly the ones the
//! clients stamped.
//!
//! Run with: `cargo run --release --example tcp_service`
//!
//! Pass `--metrics` to dump the scraped exposition between
//! `=== HEVS metrics ===` / `=== end ===` markers (what CI parses).
//!
//! Pass `--soak` for the CI `chaos-soak` workload instead: ≥ 10⁴ frames
//! through clients that retry typed retryable refusals with backoff
//! ([`hefv::net::RetryPolicy`]), meant to run under
//! `HEFV_CHAOS=panic:0.01,delay:2ms` (worker-interior faults) and
//! `HEFV_NET_FAULT=drop:0.01,delay:5ms` (remote-transport faults, armed
//! when the topology has remote shards). The soak exits non-zero unless
//! every frame got exactly one reply (Ok or a *typed* refusal — nothing
//! vanished, nothing duplicated), client retries actually fired, an
//! infeasible-deadline burst was refused `DeadlineInfeasible` without
//! executing, and the scraped exposition parses line by line.

use hefv::core::prelude::*;
use hefv::engine::prelude::*;
use hefv::engine::router::ShardSpec;
use hefv::engine::wire;
use hefv::net::{Client, NetServer, RetryPolicy, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;
const CLIENTS: u64 = 4;
const FRAMES_PER_CLIENT: u64 = 256;
const SOAK_FRAMES_PER_CLIENT: u64 = 2_560; // 4 × 2560 = 10 240 ≥ 10⁴

/// Deterministic trace id for client `i`, frame `f` — recognizable in a
/// span dump and reproducible by the validator below.
fn trace_id(i: u64, f: u64) -> u64 {
    0x7C00_0000_0000_0000 | (i << 32) | f
}

fn main() -> Result<(), String> {
    let dump_metrics = std::env::args().any(|a| a == "--metrics");
    if std::env::args().any(|a| a == "--soak") {
        return run_soak(dump_metrics);
    }
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy())?);
    let t = ctx.params().t;
    let n = ctx.params().n;

    let router = Arc::new(ShardRouter::new());
    for i in 0..SHARDS {
        router
            .add_shard(ShardSpec {
                name: format!("net-{i}"),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 2,
                    queue_capacity: 512,
                    ..EngineConfig::default()
                },
            })
            .map_err(String::from)?;
    }

    // One tenant per client, chosen so the four tenants hash to four
    // distinct shards — every shard sees traffic.
    let mut tenants: Vec<u64> = Vec::new();
    let mut shards_covered = HashSet::new();
    for candidate in 1u64.. {
        let shard = router.shard_for(candidate).expect("router has shards");
        if shards_covered.insert(shard) {
            tenants.push(candidate);
            if tenants.len() == CLIENTS as usize {
                break;
            }
        }
    }

    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    println!("serving {SHARDS} shards on {addr}");

    let workers: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, &tenant)| {
            let ctx = Arc::clone(&ctx);
            let router = Arc::clone(&router);
            std::thread::spawn(move || -> Result<(), String> {
                let mut rng = StdRng::seed_from_u64(1000 + i as u64);
                let (sk, pk, rlk) = keygen(&ctx, &mut rng);
                let home = router
                    .register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk))
                    .map_err(String::from)?;
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;

                // Pipeline every frame before reading a single reply.
                let mut expected = std::collections::HashMap::new();
                for f in 0..FRAMES_PER_CLIENT {
                    let (a, b) = (f % t, (f + i as u64) % t);
                    let enc =
                        |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
                    let req = EvalRequest::binary(
                        tenant,
                        EvalOp::Add,
                        enc(a, &mut rng),
                        enc(b, &mut rng),
                    )
                    .with_trace_id(trace_id(i as u64, f));
                    // Every fourth frame is explicitly addressed to the
                    // tenant's home shard; the rest let the router place it.
                    let frame = if f % 4 == 0 {
                        wire::encode_request_for_shard(&req, home)
                    } else {
                        wire::encode_request(&req)
                    };
                    let corr = client.send_frame(&frame).map_err(|e| e.to_string())?;
                    expected.insert(corr, (a + b) % t);
                }
                client.finish_sending().map_err(|e| e.to_string())?;

                // Replies arrive in completion order; each corr exactly once.
                let mut seen = HashSet::new();
                for _ in 0..FRAMES_PER_CLIENT {
                    let (corr, reply) = client.recv_reply().map_err(|e| e.to_string())?;
                    if !seen.insert(corr) {
                        return Err(format!("duplicate reply for corr {corr}"));
                    }
                    let stamp = wire::peek_response_shard(&reply).map_err(String::from)?;
                    if u16::from(stamp) != home {
                        return Err(format!(
                            "misrouted: corr {corr} stamped shard {stamp}, tenant {tenant} lives on {home}"
                        ));
                    }
                    let expect = expected
                        .get(&corr)
                        .copied()
                        .ok_or_else(|| format!("reply for unknown corr {corr}"))?;
                    match wire::decode_response(&ctx, &reply).map_err(String::from)? {
                        wire::ResponseFrame::Ok(resp) => {
                            let got = decrypt(&ctx, &sk, &resp.result).coeffs()[0];
                            if got != expect {
                                return Err(format!("corr {corr}: got {got}, want {expect}"));
                            }
                        }
                        wire::ResponseFrame::Err { message, .. } => {
                            return Err(format!("corr {corr} failed: {message}"));
                        }
                    }
                }
                if seen.len() as u64 != FRAMES_PER_CLIENT {
                    return Err(format!("lost frames: {} of {FRAMES_PER_CLIENT}", seen.len()));
                }
                Ok(())
            })
        })
        .collect();

    for (i, w) in workers.into_iter().enumerate() {
        w.join()
            .map_err(|_| format!("client {i} panicked"))?
            .map_err(|e| format!("client {i}: {e}"))?;
    }

    // Transport and fleet invariants, snapshotted before the admin
    // scrapes add their own frames to the counters.
    let net = server.stats();
    let fleet = router.stats();
    let total = CLIENTS * FRAMES_PER_CLIENT;
    assert_eq!(net.frames_in, total, "server read every frame");
    assert_eq!(net.replies_out, total, "every reply was written");
    assert_eq!(fleet.total.jobs_completed, total, "every job completed");
    for s in &fleet.per_shard {
        assert!(
            s.stats.jobs_completed > 0,
            "shard {} served no traffic",
            s.id
        );
    }
    println!(
        "{} frames in, {} replies out over {} connections",
        net.frames_in, net.replies_out, net.connections
    );

    // The HEVS admin route, over the same TCP protocol as the workload.
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    let metrics = admin
        .scrape_stats(wire::StatsKind::Metrics)
        .map_err(|e| e.to_string())?;
    for family in [
        "hefv_jobs_submitted_total",
        "hefv_jobs_completed_total",
        "hefv_jobs_rejected_total",
        "hefv_op_latency_seconds",
        "hefv_queue_wait_seconds",
        "hefv_tenant_requests_total",
        "hefv_shard_up",
        "hefv_shard_op_latency_seconds",
        "hefv_net_connections_total",
        "hefv_net_replies_out_total",
    ] {
        assert!(metrics.contains(family), "scrape missing family {family}");
    }
    for q in ["quantile=\"0.5\"", "quantile=\"0.95\"", "quantile=\"0.99\""] {
        assert!(metrics.contains(q), "scrape missing {q}");
    }
    if dump_metrics {
        println!("=== HEVS metrics ===");
        print!("{metrics}");
        println!("=== end ===");
    }

    // Every span the trace dump mentions must carry an id some client
    // stamped — trace ids propagate end to end, never get reminted.
    let sent: HashSet<u64> = (0..CLIENTS)
        .flat_map(|i| (0..FRAMES_PER_CLIENT).map(move |f| trace_id(i, f)))
        .collect();
    let traces = admin
        .scrape_stats(wire::StatsKind::Traces)
        .map_err(|e| e.to_string())?;
    let mut matched = 0u64;
    for line in traces.lines().filter(|l| !l.starts_with('#')) {
        let token = line
            .split_whitespace()
            .find_map(|w| w.strip_prefix("trace=0x"))
            .ok_or_else(|| format!("span line without a trace id: {line}"))?;
        let id = u64::from_str_radix(token, 16).map_err(|e| e.to_string())?;
        if !sent.contains(&id) {
            return Err(format!("span with an id nobody sent: {line}"));
        }
        matched += 1;
    }
    assert!(matched > 0, "trace scrape returned no spans");
    println!("trace scrape: {matched} spans, all ids match sent envelopes");

    // Percentile and per-tenant summary from the merged snapshot — the
    // operator's view, not raw totals.
    let s = 1.0 / 1e9;
    for op in &fleet.total.per_op {
        if op.count == 0 {
            continue;
        }
        println!(
            "op {:>9}: {:>5} jobs  p50 {:>9.6}s  p95 {:>9.6}s  p99 {:>9.6}s  max {:>9.6}s",
            op.name,
            op.count,
            op.latency.quantile(0.5) as f64 * s,
            op.latency.quantile(0.95) as f64 * s,
            op.latency.quantile(0.99) as f64 * s,
            op.max_ns as f64 * s,
        );
    }
    for tn in &fleet.total.per_tenant {
        println!(
            "tenant {:>3}: {:>5} requests  {:>9.6}s total latency  {:.3} noise bits",
            tn.tenant,
            tn.requests,
            tn.latency_ns as f64 * s,
            tn.noise_bits,
        );
    }

    server.shutdown();
    router.shutdown();
    println!("net-smoke OK: {total} frames, exactly once, correctly stamped and traced");
    Ok(())
}

/// Per-client accounting for the soak: every frame lands in exactly one
/// bucket, so the totals reconcile against the frame count at the end.
struct SoakTally {
    ok: u64,
    /// Contained worker panics surfaced as typed `Internal` refusals
    /// after the client's retry budget ran out.
    panicked: u64,
    /// `Quarantined` refusals (not retryable — the door is fenced).
    fenced: u64,
}

/// The CI `chaos-soak` workload (`--soak`): ≥ 10⁴ frames with client
/// backoff under engine-interior chaos. See the module docs for the
/// invariants this enforces.
fn run_soak(dump_metrics: bool) -> Result<(), String> {
    // Injected worker panics would spray default-hook backtraces over
    // the output (panic:0.01 × 10⁴ frames ≈ a hundred of them); filter
    // exactly the chaos-stamped payloads, delegate everything else.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("chaos:"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("chaos:"));
        if !injected {
            prev(info);
        }
    }));
    let chaos = std::env::var("HEFV_CHAOS").unwrap_or_default();
    let chaos_armed = !chaos.is_empty();
    println!(
        "chaos-soak: HEFV_CHAOS={} HEFV_NET_FAULT={}",
        if chaos_armed {
            chaos.as_str()
        } else {
            "<unset>"
        },
        std::env::var("HEFV_NET_FAULT").unwrap_or_else(|_| "<unset>".into()),
    );

    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy())?);
    let t = ctx.params().t;
    let n = ctx.params().n;

    let router = Arc::new(ShardRouter::new());
    for i in 0..SHARDS {
        router
            .add_shard(ShardSpec {
                name: format!("soak-{i}"),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 2,
                    queue_capacity: 512,
                    // Soak-tuned fences: a panic burst trips quarantine
                    // quickly but releases within one backoff horizon,
                    // so a fenced signature costs refusals, not minutes
                    // of wall clock.
                    shedding: SheddingPolicy {
                        quarantine_after: 4,
                        quarantine_ttl: Duration::from_millis(300),
                        ..SheddingPolicy::default()
                    },
                    ..EngineConfig::default()
                },
            })
            .map_err(String::from)?;
    }
    let mut tenants: Vec<u64> = Vec::new();
    let mut shards_covered = HashSet::new();
    for candidate in 1u64.. {
        let shard = router.shard_for(candidate).expect("router has shards");
        if shards_covered.insert(shard) {
            tenants.push(candidate);
            if tenants.len() == CLIENTS as usize {
                break;
            }
        }
    }

    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let total = CLIENTS * SOAK_FRAMES_PER_CLIENT;
    println!("chaos-soak: {SHARDS} shards on {addr}, {total} frames");

    // One sequential request at a time per client, each through the
    // retry helper: a retryable refusal (e.g. a contained worker panic)
    // is re-submitted with jittered backoff; what comes back is either
    // an Ok (value-checked against the plaintext sum) or a typed
    // refusal. Anything else — a lost frame, an untyped error, an
    // unexpected refusal class — fails the soak.
    let workers: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, &tenant)| {
            let ctx = Arc::clone(&ctx);
            let router = Arc::clone(&router);
            std::thread::spawn(move || -> Result<SoakTally, String> {
                let mut rng = StdRng::seed_from_u64(9000 + i as u64);
                let (sk, pk, rlk) = keygen(&ctx, &mut rng);
                router
                    .register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk))
                    .map_err(String::from)?;
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let policy = RetryPolicy::default();
                let mut tally = SoakTally {
                    ok: 0,
                    panicked: 0,
                    fenced: 0,
                };
                for f in 0..SOAK_FRAMES_PER_CLIENT {
                    let (a, b) = (f % t, (f + i as u64) % t);
                    let enc = |v, rng: &mut StdRng| {
                        encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng)
                    };
                    let req = EvalRequest::binary(
                        tenant,
                        EvalOp::Add,
                        enc(a, &mut rng),
                        enc(b, &mut rng),
                    )
                    .with_trace_id(trace_id(i as u64, f));
                    let frame = wire::encode_request(&req);
                    let reply = client
                        .call_with_retry(&frame, &policy)
                        .map_err(|e| e.to_string())?;
                    match wire::peek_response_error(&reply).map_err(String::from)? {
                        None => {
                            let resp =
                                match wire::decode_response(&ctx, &reply).map_err(String::from)? {
                                    wire::ResponseFrame::Ok(resp) => resp,
                                    wire::ResponseFrame::Err { message, .. } => {
                                        return Err(format!(
                                            "frame {f}: peek said Ok, decode said Err: {message}"
                                        ));
                                    }
                                };
                            let got = decrypt(&ctx, &sk, &resp.result).coeffs()[0];
                            if got != (a + b) % t {
                                return Err(format!("frame {f}: got {got}, want {}", (a + b) % t));
                            }
                            tally.ok += 1;
                        }
                        Some(info) => match info.code {
                            ErrorCode::Internal => tally.panicked += 1,
                            ErrorCode::Quarantined => {
                                tally.fenced += 1;
                                // Honor the fence: wait out the hint so
                                // the client is not hammering a door
                                // that cannot open yet.
                                if let Some(us) = info.retry_after_us {
                                    std::thread::sleep(Duration::from_micros(us.min(400_000)));
                                }
                            }
                            code => {
                                return Err(format!(
                                    "frame {f}: unexpected refusal class {code}: {}",
                                    info.message
                                ));
                            }
                        },
                    }
                }
                Ok(tally)
            })
        })
        .collect();

    let (mut ok, mut panicked, mut fenced) = (0u64, 0u64, 0u64);
    for (i, w) in workers.into_iter().enumerate() {
        let tally = w
            .join()
            .map_err(|_| format!("client {i} panicked"))?
            .map_err(|e| format!("client {i}: {e}"))?;
        ok += tally.ok;
        panicked += tally.panicked;
        fenced += tally.fenced;
    }
    assert_eq!(
        ok + panicked + fenced,
        total,
        "every frame answered exactly once"
    );
    let retries = hefv::net::client_retries_total();
    println!(
        "chaos-soak: {ok} ok, {panicked} contained panics, {fenced} quarantine refusals, \
         {retries} client retries"
    );
    if chaos_armed {
        assert!(
            panicked + fenced > 0,
            "chaos armed but no injected failure surfaced"
        );
        assert!(
            retries > 0,
            "retryable refusals must have driven client backoff"
        );
    }

    // Zero lost correlations at the transport: the server answered every
    // frame it read — workload, retries and refusals included.
    let net = server.stats();
    assert_eq!(
        net.frames_in, net.replies_out,
        "every frame read got exactly one reply"
    );
    assert!(net.frames_in >= total, "retries can only add frames");

    // Infeasible-deadline burst: every frame is refused
    // `DeadlineInfeasible` at the admission door, and none executes.
    let completed_before = router.stats().total.jobs_completed;
    const BURST: u64 = 32;
    {
        let mut rng = StdRng::seed_from_u64(4242);
        let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
        let tenant = 0xDEAD;
        router
            .register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk))
            .map_err(String::from)?;
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        for f in 0..BURST {
            let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
            let req =
                EvalRequest::binary(tenant, EvalOp::Add, enc(1, &mut rng), enc(f % t, &mut rng))
                    .with_deadline(0.001); // 1 ns of budget: infeasible by construction
            let reply = client
                .call(&wire::encode_request(&req))
                .map_err(|e| e.to_string())?;
            let info = wire::peek_response_error(&reply)
                .map_err(String::from)?
                .ok_or_else(|| format!("burst frame {f}: an infeasible deadline was admitted"))?;
            if info.code != ErrorCode::DeadlineInfeasible {
                return Err(format!(
                    "burst frame {f}: want DeadlineInfeasible, got {}: {}",
                    info.code, info.message
                ));
            }
        }
    }
    let snap = router.stats();
    assert_eq!(
        snap.total.jobs_completed, completed_before,
        "the infeasible burst executed nothing"
    );
    let shed_deadline = snap
        .total
        .shed_by_reason
        .iter()
        .find(|&&(r, _)| r == "deadline_infeasible")
        .map_or(0, |&(_, v)| v);
    assert!(
        shed_deadline >= BURST,
        "deadline_infeasible shed counter covers the burst: {shed_deadline}"
    );
    println!("chaos-soak: deadline burst of {BURST} refused DeadlineInfeasible, none executed");

    // The exposition must carry the overload/containment families and
    // parse line by line: every sample is `name{labels} value` with a
    // float value — a malformed line would poison a real scraper.
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    let metrics = admin
        .scrape_stats(wire::StatsKind::Metrics)
        .map_err(|e| e.to_string())?;
    for family in [
        "hefv_jobs_submitted_total",
        "hefv_jobs_completed_total",
        "hefv_shed_total",
        "hefv_quarantine_active",
        "hefv_client_retries_total",
        "hefv_net_connections_total",
        "hefv_net_replies_out_total",
    ] {
        assert!(metrics.contains(family), "scrape missing family {family}");
    }
    let mut parsed = 0u64;
    for line in metrics.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("metrics line without a value: {line}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("unparseable sample value in: {line}"))?;
        let name = &series[..series.find('{').unwrap_or(series.len())];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name in: {line}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("unterminated label set in: {line}"));
        }
        parsed += 1;
    }
    assert!(parsed > 0, "metrics scrape was empty");
    if chaos_armed {
        let rendered: f64 = metrics
            .lines()
            .filter(|l| l.starts_with("hefv_client_retries_total"))
            .find_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse().ok()))
            .ok_or("hefv_client_retries_total sample missing")?;
        assert!(rendered > 0.0, "exposition shows zero client retries");
    }
    if dump_metrics {
        println!("=== HEVS metrics ===");
        print!("{metrics}");
        println!("=== end ===");
    }

    server.shutdown();
    router.shutdown();
    println!(
        "chaos-soak OK: {total} frames answered exactly once under chaos, \
         {parsed} metric samples parsed"
    );
    Ok(())
}
