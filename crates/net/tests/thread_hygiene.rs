//! Thread-lifecycle hygiene: engines, routers and net servers must not
//! leak OS threads across repeated start/stop cycles, and an engine runs
//! no thread beyond its workers.
//!
//! The engine's workers, the router's shard engines and the net server's
//! poll thread are all joined on shutdown; this suite pins that down by
//! counting the process's live tasks around many cycles. Linux-only (it
//! reads `/proc/self/task`), which covers CI.

#![cfg(target_os = "linux")]

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_net::{Client, NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The harness runs `#[test]`s concurrently, and a sibling test's live
/// workers would skew this process's task count — every counting test
/// holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `comm` of every live task of this process that `keep(tid, comm)`
/// accepts. A task already in `do_exit` (`PF_EXITING` in its `stat`
/// flags) is not live: `join` returns once the exiting thread clears its
/// tid, a moment before the kernel unlists it, so counting it would read
/// a joined thread as a leak. Every thread that has not started exiting
/// still counts.
fn live_tasks(keep: impl Fn(u32, &str) -> bool) -> Vec<String> {
    const PF_EXITING: u64 = 0x4;
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("stat")).ok())
        .filter_map(|stat| {
            // `tid (comm) state ppid pgrp session tty_nr tpgid flags …`
            let (head, tail) = stat.rsplit_once(')')?;
            let (tid, comm) = head.split_once(" (")?;
            let flags: u64 = tail.split_whitespace().nth(6)?.parse().ok()?;
            (flags & PF_EXITING == 0 && keep(tid.parse().ok()?, comm)).then(|| comm.to_owned())
        })
        .collect()
}

/// Live tasks, leaving out the harness's threads for this file's other
/// tests. Each test runs on a thread named after it, whose `comm` is the
/// name's first 15 bytes; one that starts while this test holds
/// [`SERIAL`] would otherwise read as a leak. Until it names itself, a
/// new harness thread carries the `comm` of the harness's main thread, so
/// that name counts only for the main thread itself. Every other live
/// task counts: this test's own thread and any thread the code under test
/// starts, whatever its name.
fn live_threads() -> Vec<String> {
    let own = std::thread::current().name().unwrap_or_default().to_owned();
    let siblings: Vec<&str> = include_str!("thread_hygiene.rs")
        .split("#[test]\nfn ")
        .skip(1)
        .filter_map(|rest| Some(rest.split_once('(')?.0))
        .filter(|&test| test != own)
        .map(|test| &test[..test.len().min(15)])
        .collect();
    assert!(siblings.len() >= 3, "sibling tests found: {siblings:?}");
    let main = std::process::id();
    let main_comm = std::fs::read_to_string(format!("/proc/self/task/{main}/comm")).unwrap();
    let main_comm = main_comm.trim_end();
    // A test run on the main thread has no harness threads beside it, and
    // the unnamed threads it starts carry the main thread's name.
    let on_main = own == "main";
    live_tasks(|tid, comm| {
        !siblings.contains(&comm) && (on_main || tid == main || comm != main_comm)
    })
}

/// Live tasks named `hefv-net-poll` (the name `NetServer::bind` gives
/// its poll thread), so another test's thread that is still tearing down
/// cannot skew the count.
fn poll_threads() -> usize {
    live_tasks(|_, comm| comm == "hefv-net-poll").len()
}

fn live_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn toy_ctx() -> Arc<FvContext> {
    Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap())
}

#[test]
fn repeated_engine_start_stop_leaks_no_threads() {
    let _guard = serial();
    let ctx = toy_ctx();
    // Warm up allocator/runtime threads before taking the baseline.
    Engine::start(Arc::clone(&ctx), EngineConfig::default()).shutdown();
    let before = live_threads();
    for _ in 0..20 {
        let engine = Engine::start(
            Arc::clone(&ctx),
            EngineConfig {
                workers: 3,
                ..EngineConfig::default()
            },
        );
        std::thread::sleep(Duration::from_millis(3));
        engine.shutdown();
    }
    let after = live_threads();
    assert!(
        after.len() <= before.len(),
        "thread leak: {before:?} before, {after:?} after 20 engine cycles"
    );
}

#[test]
fn engine_runs_exactly_its_workers_on_batching_parameters() {
    let _guard = serial();
    // t = 7681 ≡ 1 (mod 2n) gives n = 256 SIMD slots: the engine must
    // still start nothing but its workers.
    let mut params = FvParams::insecure_medium();
    params.t = 7681;
    assert!(params.supports_batching());
    let ctx = Arc::new(FvContext::new(params).unwrap());
    let config = EngineConfig {
        workers: 3,
        ..EngineConfig::default()
    };
    // Warm up allocator/runtime threads before taking the baseline.
    Engine::start(Arc::clone(&ctx), config.clone()).shutdown();
    let before = live_threads();
    let engine = Engine::start(ctx, config);
    let running = live_threads();
    engine.shutdown();
    assert_eq!(
        running.len(),
        before.len() + 3,
        "an engine of 3 workers runs exactly 3 threads: {before:?} before, {running:?} running"
    );
}

#[test]
fn repeated_router_and_server_start_stop_leaks_no_threads() {
    let _guard = serial();
    let ctx = toy_ctx();
    let cycle = || {
        let router = Arc::new(ShardRouter::new());
        for i in 0..2 {
            router
                .add_shard(ShardSpec {
                    name: format!("s{i}"),
                    ctx: Arc::clone(&ctx),
                    config: EngineConfig {
                        workers: 2,
                        ..EngineConfig::default()
                    },
                })
                .unwrap();
        }
        let server =
            NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
        // Touch the socket path so the poll loop does real work.
        let _ = Client::connect(server.local_addr()).unwrap();
        server.shutdown();
        router.shutdown();
    };
    cycle(); // warm-up
    let before = live_threads();
    for _ in 0..10 {
        cycle();
    }
    let after = live_threads();
    assert!(
        after.len() <= before.len(),
        "thread leak: {before:?} before, {after:?} after 10 router+server cycles"
    );
}

/// Chaos-injected worker panics must be fully contained: across 20
/// engine lifecycles of forced panics, quarantine trips, and quarantine
/// expiry, no OS thread leaks (`catch_unwind` keeps the worker alive, a
/// panicking worker is not respawned-and-abandoned), no fd leaks, and
/// every submission gets exactly one answer — an Ok, a contained
/// `Internal` panic report, or a typed `Quarantined` refusal. Nothing
/// hangs, nothing vanishes.
#[test]
fn chaos_panic_cycles_leak_no_threads_fds_or_replies() {
    let _guard = serial();
    // Injected panics would spray default-hook backtraces over the test
    // output; filter exactly those, delegate everything else.
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

    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(77);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    let (t, n) = (ctx.params().t, ctx.params().n);
    // Long enough that the quarantine cannot lapse during a cycle's 8
    // calls on a loaded host: the requests are encrypted up front, so the
    // calls do nothing but evaluate and refuse.
    const TTL: Duration = Duration::from_millis(200);
    let cycle = |rng: &mut StdRng| {
        let engine = Engine::start(
            Arc::clone(&ctx),
            EngineConfig {
                workers: 2,
                shedding: SheddingPolicy {
                    quarantine_after: 3,
                    quarantine_ttl: TTL,
                    ..SheddingPolicy::default()
                },
                chaos: Some(ChaosPlan {
                    panic: 1.0, // every executed job panics in the worker
                    ..ChaosPlan::default()
                }),
                ..EngineConfig::default()
            },
        );
        engine.register_tenant(1, TenantKeys::compute(pk.clone(), rlk.clone()));
        let enc =
            |v: u64, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
        let reqs: Vec<EvalRequest> = (0..8)
            .map(|_| EvalRequest::binary(1, EvalOp::Mul, enc(2, rng), enc(3, rng)))
            .collect();
        let after_expiry = EvalRequest::binary(1, EvalOp::Mul, enc(4, rng), enc(5, rng));
        let (mut panicked, mut quarantined) = (0u32, 0u32);
        for req in reqs {
            // Exactly one answer per submission: a refusal at the door
            // or a (failed) reply from the worker. A lost correlation
            // would hang `call` forever — the suite timeout catches it.
            match engine.call(req) {
                Ok(_) => panic!("panic:1.0 cannot produce a clean reply"),
                Err(e) if e.code() == ErrorCode::Internal => panicked += 1,
                Err(e) if e.code() == ErrorCode::Quarantined => quarantined += 1,
                Err(e) => panic!("unexpected refusal class: {e}"),
            }
        }
        assert_eq!(panicked, 3, "exactly K strikes execute");
        assert_eq!(quarantined, 5, "the rest are fenced at admission");
        assert_eq!(engine.stats().quarantine_active, 1);
        // Quarantine expiry: after the TTL the signature is admitted
        // (and panics) again, and the gauge self-corrects on scrape.
        std::thread::sleep(TTL + Duration::from_millis(10));
        assert_eq!(engine.stats().quarantine_active, 0, "TTL sweep");
        assert_eq!(
            engine
                .call(after_expiry)
                .expect_err("still panicking")
                .code(),
            ErrorCode::Internal,
            "expired quarantine admits the signature again"
        );
        engine.shutdown();
    };
    cycle(&mut rng); // warm-up
    let (threads_before, fds_before) = (live_threads(), live_fds());
    for _ in 0..20 {
        cycle(&mut rng);
    }
    let (threads_after, fds_after) = (live_threads(), live_fds());
    assert!(
        threads_after.len() <= threads_before.len(),
        "thread leak: {threads_before:?} before, {threads_after:?} after 20 chaos cycles"
    );
    assert!(
        fds_after <= fds_before,
        "fd leak: {fds_before} fds before, {fds_after} after 20 chaos cycles"
    );
}

#[test]
fn dropping_the_server_joins_the_poll_thread() {
    let _guard = serial();
    let ctx = toy_ctx();
    let router = Arc::new(ShardRouter::new());
    router
        .add_shard(ShardSpec {
            name: "s0".into(),
            ctx,
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        })
        .unwrap();
    assert_eq!(poll_threads(), 0, "no poll thread before bind");
    {
        let _server =
            NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
        // The new thread names itself as it starts: wait for the name.
        let deadline = Instant::now() + Duration::from_secs(5);
        while poll_threads() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(poll_threads(), 1, "poll thread is running");
        // Dropped here without an explicit shutdown().
    }
    assert_eq!(poll_threads(), 0, "drop must join the poll thread");
    router.shutdown();
}
