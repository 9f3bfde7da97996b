//! Multi-node cluster smoke: the CI `cluster-smoke` workload.
//!
//! One process plays a whole deployment. Three *nodes* — each a
//! single-shard `ShardRouter` behind its own `NetServer` — sit behind a
//! *front* router that reaches them through `RemoteShard` proxies over
//! real TCP (`hefv_net::TcpConnector`), and the front is itself served
//! over TCP. Four clients pipeline 256 encrypted additions each through
//! the front door while the run exercises the cluster machinery:
//!
//! 1. **Key migration before ring commit** — a tenant is registered,
//!    then pinned to a node that verifiably does *not* hold its keys;
//!    the pin must stream the keys (HEVK push, acked) before it commits,
//!    proven by querying the new owner node directly over its own
//!    socket.
//! 2. **Node kill mid-run** — after ~300 replies one node is shut down
//!    cold. The circuit breaker must eject it, hedged retries and
//!    failover must land its tenants' jobs on the replica that already
//!    holds their keys, and every one of the 1024 frames must come back
//!    exactly once, decrypting correctly — with zero client-side key
//!    re-registration.
//! 3. **Kill and recover** — the victim's key vault is serialized to an
//!    `HEVR` snapshot the instant before the kill. A replacement node
//!    restores from that snapshot, proves it can serve a victim-homed
//!    tenant directly, and the front's existing `RemoteShard` is
//!    retargeted at it. The breaker must close on probes, the node must
//!    come back flagged *catching up* (replica-eligible, not primary),
//!    and an anti-entropy sweep must verify its keys and re-admit it as
//!    primary — proven by a victim-homed request coming back stamped
//!    with its shard id.
//!
//! The process exits non-zero if any frame is lost, duplicated, fails,
//! or decrypts wrong, if the breaker never ejects the dead node, if the
//! migrated tenant's keys are not at the new owner, or if the restored
//! node is never re-admitted.
//!
//! Run with: `cargo run --release --example cluster`
//!
//! `HEFV_NET_FAULT=drop:0.01,corrupt:0.002,delay:5ms` (see
//! `crates/net/README.md`) makes the front↔node links lossy, slow and
//! bit-flipping; the run must still end green — that is CI's
//! fault-injection leg. With `corrupt:P > 0` the nodes' own HEVS scrapes
//! must also show refused envelopes (`hefv_integrity_failures_total`,
//! summed over the nodes), or the run fails: flips that no CRC caught
//! would mean the check never ran.

use hefv::core::prelude::*;
use hefv::engine::prelude::*;
use hefv::engine::router::{RemoteShardSpec, RouterConfig, ShardSpec};
use hefv::engine::wire;
use hefv::net::{Client, NetServer, ServerConfig, TcpConnector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const CLIENTS: u64 = 4;
const FRAMES_PER_CLIENT: u64 = 256;
/// Replies through the front before one node is killed cold.
const KILL_AFTER_REPLIES: u64 = 300;

struct Node {
    addr: SocketAddr,
    server: NetServer,
    router: Arc<ShardRouter>,
}

fn spawn_node(ctx: &Arc<FvContext>, i: usize) -> Result<Node, String> {
    let router = Arc::new(ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        hedge: None,
        ..RouterConfig::default()
    }));
    router
        .add_shard(ShardSpec {
            name: format!("node{i}-s0"),
            ctx: Arc::clone(ctx),
            config: EngineConfig {
                workers: 2,
                queue_capacity: 512,
                ..EngineConfig::default()
            },
        })
        .map_err(String::from)?;
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerConfig {
            max_inflight: 256,
            // A killed node must die cold, not linger draining — that is
            // the failure the front has to absorb.
            drain_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    Ok(Node {
        addr,
        server,
        router,
    })
}

/// `hefv_integrity_failures_total` off one node's own HEVS scrape: the
/// corrupted front→node envelopes that node refused.
fn integrity_failures(addr: SocketAddr) -> Result<u64, String> {
    let metrics = Client::connect(addr)
        .and_then(|mut c| c.scrape_stats(wire::StatsKind::Metrics))
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    Ok(metrics
        .lines()
        .filter(|l| l.starts_with("hefv_integrity_failures_total"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
        .sum::<f64>() as u64)
}

/// The `corrupt:P` probability of a `HEFV_NET_FAULT` spec (0 if absent).
fn corrupt_probability(spec: &str) -> f64 {
    spec.split(',')
        .find_map(|part| part.trim().strip_prefix("corrupt:")?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Total replies the front has collected from its nodes.
fn replies_total(front: &ShardRouter) -> u64 {
    front.stats().remote.iter().map(|r| r.stats.replies).sum()
}

fn main() -> Result<(), String> {
    let fault = std::env::var("HEFV_NET_FAULT").unwrap_or_default();
    if !fault.is_empty() {
        println!("fault injection active: HEFV_NET_FAULT={fault}");
    }
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy())?);
    let (t, n) = (ctx.params().t, ctx.params().n);

    // --- The fleet: three TCP nodes behind one front router. ---------
    let mut nodes = Vec::new();
    for i in 0..NODES {
        nodes.push(spawn_node(&ctx, i)?);
    }
    let node_addrs: Vec<SocketAddr> = nodes.iter().map(|nd| nd.addr).collect();

    let front = Arc::new(ShardRouter::with_config(RouterConfig {
        key_replicas: 2,
        hedge: Some(HedgeConfig {
            delay: Duration::from_millis(150),
            deadline_fraction: 0.5,
        }),
        ..RouterConfig::default()
    }));
    let mut connectors = Vec::new();
    for (i, nd) in nodes.iter().enumerate() {
        let connector = Arc::new(TcpConnector::new(nd.addr));
        connectors.push(Arc::clone(&connector));
        let id = front
            .add_remote_shard(RemoteShardSpec {
                name: format!("node{i}"),
                ctx: Arc::clone(&ctx),
                connector,
                config: RemoteShardConfig {
                    connections: 2,
                    // Headroom for the failover surge: when a node dies,
                    // every outstanding job it held re-homes to a replica
                    // at once (on top of hedges and re-sends still waiting
                    // out dropped frames), and a replica at max_inflight
                    // refuses the failover instead of absorbing it.
                    max_inflight: 1024,
                    reply_timeout: Duration::from_secs(2),
                    probe_interval: Duration::from_millis(100),
                    probe_timeout: Duration::from_millis(300),
                    eject_after: 3,
                    send_attempts: 4,
                    reconnect_backoff: Duration::from_millis(100),
                },
            })
            .map_err(String::from)?;
        // Front shard ids mirror node indices — the stamp on a reply
        // names the node that served it.
        assert_eq!(id as usize, i);
    }
    let front_server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&front),
        ServerConfig {
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let front_addr = front_server.local_addr();
    println!("front door on {front_addr}, nodes on {node_addrs:?}");

    // --- Leg 1: key migration must precede the ring commit. ----------
    // Register a tenant, find a node that verifiably lacks its keys,
    // pin the tenant there, and prove the keys arrived by asking that
    // node directly over its own socket.
    {
        let mut rng = StdRng::seed_from_u64(7);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let tenant = 0xA110u64;
        front
            .register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk))
            .map_err(String::from)?;
        let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
        let probe_req = |rng: &mut StdRng| {
            wire::encode_request(&EvalRequest::binary(
                tenant,
                EvalOp::Add,
                enc(20, rng),
                enc(22, rng),
            ))
        };
        // With key_replicas=2 of 3 nodes, exactly one node must reject
        // the tenant as unknown — that is the migration target.
        let mut target = None;
        for (i, &addr) in node_addrs.iter().enumerate() {
            let mut probe = Client::connect(addr).map_err(|e| e.to_string())?;
            let reply = probe
                .call(&probe_req(&mut rng))
                .map_err(|e| e.to_string())?;
            if matches!(
                wire::decode_response(&ctx, &reply).map_err(String::from)?,
                wire::ResponseFrame::Err { .. }
            ) {
                target = Some(i);
            }
        }
        let target = target.ok_or("every node already held the tenant's keys")?;

        let pushes_before = front.stats().hedge.key_pushes;
        front
            .pin_tenant(tenant, target as u16)
            .map_err(String::from)?;
        if front.stats().hedge.key_pushes <= pushes_before {
            return Err("pin committed without streaming keys to the new owner".into());
        }
        // pin_tenant has returned, so the commit is done — the keys must
        // already be live at the new owner. Ask it directly.
        let mut check = Client::connect(node_addrs[target]).map_err(|e| e.to_string())?;
        let reply = check
            .call(&probe_req(&mut rng))
            .map_err(|e| e.to_string())?;
        match wire::decode_response(&ctx, &reply).map_err(String::from)? {
            wire::ResponseFrame::Ok(resp) => {
                let got = decrypt(&ctx, &sk, &resp.result).coeffs()[0];
                if got != 42 % t {
                    return Err(format!("migrated tenant computed {got}, want {}", 42 % t));
                }
            }
            wire::ResponseFrame::Err { message, .. } => {
                return Err(format!(
                    "keys were not at node {target} after the pin committed: {message}"
                ));
            }
        }
        println!("leg 1 OK: pin streamed keys to node {target} before committing");
    }

    // --- Leg 2: pipelined workload with a mid-run node kill. ---------
    // Four tenants chosen to cover all three nodes, so the victim is
    // guaranteed to be serving traffic when it dies.
    let mut tenants: Vec<u64> = Vec::new();
    let mut covered = HashSet::new();
    for candidate in 1u64.. {
        let shard = front.shard_for(candidate).expect("front has shards");
        if covered.insert(shard) || (covered.len() == NODES && tenants.len() < CLIENTS as usize) {
            tenants.push(candidate);
            if tenants.len() == CLIENTS as usize {
                break;
            }
        }
    }
    let victim = front.shard_for(tenants[0]).expect("front has shards");
    println!(
        "tenants {tenants:?} cover nodes; node {victim} will be killed after {KILL_AFTER_REPLIES} replies"
    );

    // The assassin watches the front's reply counters and takes the
    // victim node down cold — sockets closed, engine gone.
    let victim_node = nodes.remove(victim as usize);
    let assassin = {
        let front = Arc::clone(&front);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(300);
            while replies_total(&front) < KILL_AFTER_REPLIES && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let at = replies_total(&front);
            // The node's durable state, as of the instant it dies: leg 3
            // restores a replacement from exactly this snapshot.
            let snapshot = victim_node.router.snapshot_keys();
            // Its refused-envelope count dies with it: read it first.
            let caught = integrity_failures(victim_node.addr);
            victim_node.server.shutdown();
            victim_node.router.shutdown();
            (at, snapshot, caught)
        })
    };

    let rescued = Arc::new(AtomicU16::new(0));
    let clients: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, &tenant)| {
            let ctx = Arc::clone(&ctx);
            let front = Arc::clone(&front);
            let rescued = Arc::clone(&rescued);
            std::thread::spawn(move || -> Result<(), String> {
                let mut rng = StdRng::seed_from_u64(1000 + i as u64);
                let (sk, pk, rlk) = keygen(&ctx, &mut rng);
                let home = front
                    .register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk))
                    .map_err(String::from)?;
                let mut client = Client::connect(front_addr).map_err(|e| e.to_string())?;

                // Pipeline everything, then collect replies in
                // completion order.
                let mut expected = HashMap::new();
                for f in 0..FRAMES_PER_CLIENT {
                    let (a, b) = (f % t, (f + i as u64) % t);
                    let enc = |v, rng: &mut StdRng| {
                        encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng)
                    };
                    let req = EvalRequest::binary(
                        tenant,
                        EvalOp::Add,
                        enc(a, &mut rng),
                        enc(b, &mut rng),
                    );
                    let corr = client
                        .send_frame(&wire::encode_request(&req))
                        .map_err(|e| e.to_string())?;
                    expected.insert(corr, (a + b) % t);
                }
                client.finish_sending().map_err(|e| e.to_string())?;

                // Exactly once: each corr appears a single time and
                // every reply is a correct Ok — through the kill.
                let mut seen = HashSet::new();
                for _ in 0..FRAMES_PER_CLIENT {
                    let (corr, reply) = client.recv_reply().map_err(|e| e.to_string())?;
                    if !seen.insert(corr) {
                        return Err(format!("duplicate reply for corr {corr}"));
                    }
                    let stamp = wire::peek_response_shard(&reply).map_err(String::from)?;
                    if usize::from(stamp) >= NODES {
                        let detail = match wire::decode_response(&ctx, &reply) {
                            Ok(wire::ResponseFrame::Err { message, .. }) => message,
                            _ => "not an error frame".into(),
                        };
                        return Err(format!(
                            "corr {corr} stamped unknown shard {stamp}: {detail}"
                        ));
                    }
                    if u16::from(stamp) != home {
                        // Served by the hedge/failover replica, not the
                        // tenant's home node.
                        rescued.fetch_add(1, Ordering::Relaxed);
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
                Ok(())
            })
        })
        .collect();

    for (i, c) in clients.into_iter().enumerate() {
        c.join()
            .map_err(|_| format!("client {i} panicked"))?
            .map_err(|e| format!("client {i}: {e}"))?;
    }
    let (killed_at, victim_snapshot, victim_caught) =
        assassin.join().map_err(|_| "assassin panicked")?;
    let victim_caught = victim_caught?;
    println!("node {victim} killed after {killed_at} replies");
    if killed_at >= CLIENTS * FRAMES_PER_CLIENT {
        return Err("node was killed only after the workload finished — no fault tolerated".into());
    }

    // --- Verification pass. ------------------------------------------
    let stats = front.stats();
    let victim_stats = stats
        .remote
        .iter()
        .find(|r| r.id == victim)
        .ok_or("victim vanished from stats")?;
    if victim_stats.stats.healthy {
        return Err("circuit breaker never ejected the killed node".into());
    }
    if victim_stats.stats.ejections == 0 {
        return Err("no ejection recorded for the killed node".into());
    }
    for r in &stats.remote {
        if r.id != victim && !r.stats.healthy {
            return Err(format!("surviving node {} reported unhealthy", r.id));
        }
    }
    let h = stats.hedge;
    if h.fired + h.failovers == 0 {
        return Err("kill absorbed without any hedge or failover — suspicious".into());
    }
    let net = front_server.stats();
    let total = CLIENTS * FRAMES_PER_CLIENT;
    if net.frames_in != total || net.replies_out != total {
        return Err(format!(
            "front door saw {} frames in / {} replies out, want {total}/{total}",
            net.frames_in, net.replies_out
        ));
    }
    println!(
        "leg 2 OK: {total} frames exactly once through a node kill \
         ({} rescued by replica; hedges armed {} fired {} wins {}, failovers {})",
        rescued.load(Ordering::Relaxed),
        h.armed,
        h.fired,
        h.wins,
        h.failovers,
    );
    for r in &stats.remote {
        let s = &r.stats;
        println!(
            "  {} [{}]: healthy={} forwarded={} replies={} retries={} timeouts={} \
             ejections={} recoveries={}",
            r.name,
            r.endpoint,
            s.healthy,
            s.frames_forwarded,
            s.replies,
            s.retries,
            s.timeouts,
            s.ejections,
            s.recoveries,
        );
    }

    // --- Leg 3: restore from snapshot, anti-entropy re-admission. ----
    {
        // A replacement node rises from the victim's HEVR snapshot —
        // keys come from the checksummed blob, not from any client.
        let reborn = spawn_node(&ctx, NODES)?;
        let restored = reborn
            .router
            .restore_keys(&victim_snapshot)
            .map_err(String::from)?;
        if restored == 0 {
            return Err("victim snapshot restored zero tenants".into());
        }

        // The restored node serves a victim-homed tenant directly: the
        // client key seed reproduces client 0's keys exactly.
        let mut rng = StdRng::seed_from_u64(1000);
        let (sk, pk, _rlk) = keygen(&ctx, &mut rng);
        let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
        let victim_req = |rng: &mut StdRng| {
            wire::encode_request(&EvalRequest::binary(
                tenants[0],
                EvalOp::Add,
                enc(8, rng),
                enc(9, rng),
            ))
        };
        let mut check = Client::connect(reborn.addr).map_err(|e| e.to_string())?;
        let reply = check
            .call(&victim_req(&mut rng))
            .map_err(|e| e.to_string())?;
        match wire::decode_response(&ctx, &reply).map_err(String::from)? {
            wire::ResponseFrame::Ok(resp) => {
                let got = decrypt(&ctx, &sk, &resp.result).coeffs()[0];
                if got != 17 % t {
                    return Err(format!("restored node computed {got}, want {}", 17 % t));
                }
            }
            wire::ResponseFrame::Err { message, .. } => {
                return Err(format!(
                    "restored node cannot serve tenant {} from its snapshot: {message}",
                    tenants[0]
                ));
            }
        }

        // Point the front's existing RemoteShard at the replacement.
        // No re-attach, no key push from here: recovery must come from
        // the probe loop and anti-entropy alone.
        connectors[victim as usize].retarget(reborn.addr);
        let victim_snap = |front: &ShardRouter| {
            front
                .stats()
                .remote
                .into_iter()
                .find(|r| r.id == victim)
                .map(|r| r.stats)
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline && !victim_snap(&front).is_some_and(|s| s.healthy) {
            std::thread::sleep(Duration::from_millis(20));
        }
        let s = victim_snap(&front).ok_or("victim vanished from stats")?;
        if !s.healthy {
            return Err("breaker never closed on the restored node".into());
        }
        if !s.catching_up {
            return Err(
                "restored node skipped the catch-up gate: it must serve as replica only \
                 until anti-entropy verifies its keys"
                    .into(),
            );
        }

        // Anti-entropy verifies every replica set and clears the flag
        // (retried: CI runs this leg under fault injection).
        let mut repushed = 0usize;
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            repushed += front.anti_entropy_sweep();
            if victim_snap(&front).is_some_and(|s| !s.catching_up) {
                break;
            }
            // Under fault injection a sweep's pushes can be dropped or
            // refused; give the probe loop room to re-close the breaker
            // before the next attempt instead of hammering it shut.
            std::thread::sleep(Duration::from_millis(200));
        }
        let s = victim_snap(&front).ok_or("victim vanished from stats")?;
        if s.catching_up {
            return Err("anti-entropy never caught the restored node up".into());
        }

        // Re-admitted as primary: a victim-homed request through the
        // front door comes back stamped with the victim's shard id.
        let mut fclient = Client::connect(front_addr).map_err(|e| e.to_string())?;
        let mut readmitted = false;
        for _ in 0..5 {
            let reply = fclient
                .call(&victim_req(&mut rng))
                .map_err(|e| e.to_string())?;
            match wire::decode_response(&ctx, &reply).map_err(String::from)? {
                wire::ResponseFrame::Ok(resp) => {
                    let got = decrypt(&ctx, &sk, &resp.result).coeffs()[0];
                    if got != 17 % t {
                        return Err(format!("re-homed request computed {got}, want {}", 17 % t));
                    }
                }
                wire::ResponseFrame::Err { message, .. } => {
                    return Err(format!("re-homed request failed: {message}"));
                }
            }
            // A hedge replica may win an occasional race; any one
            // victim-stamped reply proves primary re-admission.
            if u16::from(wire::peek_response_shard(&reply).map_err(String::from)?) == victim {
                readmitted = true;
                break;
            }
        }
        if !readmitted {
            return Err("tenant never re-homed to the restored node".into());
        }

        // Durability counters, straight off the front's HEVS scrape.
        let metrics = fclient
            .scrape_stats(wire::StatsKind::Metrics)
            .map_err(|e| e.to_string())?;
        println!(
            "leg 3 OK: {restored} tenants restored from snapshot, {repushed} keys re-pushed \
             by anti-entropy, node {victim} re-admitted as primary"
        );
        for family in [
            "hefv_failover_total",
            "hefv_keys_replicated_total",
            "hefv_keys_evicted_total",
            "hefv_snapshot_restore_total",
            "hefv_node_catching_up",
            "hefv_integrity_failures_total",
        ] {
            if !metrics.contains(family) {
                return Err(format!("HEVS scrape missing the {family} family"));
            }
            for line in metrics.lines().filter(|l| l.starts_with(family)) {
                println!("  {line}");
            }
        }

        // Injected flips hit front→node requests, so the nodes refuse and
        // count them: sum their own scrapes (the killed node's as of its
        // kill). A corrupting run that sent frames must have caught some.
        let mut caught = victim_caught + integrity_failures(reborn.addr)?;
        for nd in &nodes {
            caught += integrity_failures(nd.addr)?;
        }
        let forwarded: u64 = front
            .stats()
            .remote
            .iter()
            .map(|r| r.stats.frames_forwarded)
            .sum();
        println!(
            "  nodes refused {caught} corrupted envelopes of {forwarded} frames forwarded \
             (hefv_integrity_failures_total summed over node scrapes)"
        );
        if corrupt_probability(&fault) > 0.0 && forwarded > 0 && caught == 0 {
            return Err(format!(
                "HEFV_NET_FAULT={fault} corrupts frames, but no node refused any of \
                 {forwarded} forwarded frames"
            ));
        }
        reborn.server.shutdown();
        reborn.router.shutdown();
    }

    front_server.shutdown();
    front.shutdown();
    for nd in nodes {
        nd.server.shutdown();
        nd.router.shutdown();
    }
    println!(
        "cluster-smoke OK: exactly-once through kill, keys migrated before commit, \
         snapshot-restored node re-admitted by anti-entropy"
    );
    Ok(())
}
