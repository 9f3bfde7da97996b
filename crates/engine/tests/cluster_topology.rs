//! Cluster-layer integration tests, transport-free: a loopback
//! [`ShardConnector`] drives a real [`RemoteShard`] against a real
//! in-process node router over channels, so every distributed behavior —
//! proxy round trips, the non-blocking backpressure seam, the circuit
//! breaker, hedged retries with exactly-once delivery, and
//! keys-before-ring-commit migration — is tested deterministically
//! without sockets. The TCP analogue of this wiring lives in
//! `examples/cluster.rs`.

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::remote::{FrameReceiver, FrameSender, RemoteShardConfig, ShardConnector};
use hefv_engine::router::{RemoteShardSpec, RouterConfig, ShardSpec};
use hefv_engine::wire;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Connects a front router's `RemoteShard` to an in-process "node"
/// router through channels. `up` simulates the node's liveness (down =
/// connects, sends and probes all fail); `hold` swallows data frames to
/// simulate loss or an unresponsive node.
#[derive(Clone)]
struct LoopbackConnector {
    node: Arc<ShardRouter>,
    up: Arc<AtomicBool>,
    hold: Arc<AtomicBool>,
}

impl LoopbackConnector {
    fn new(node: Arc<ShardRouter>) -> Self {
        LoopbackConnector {
            node,
            up: Arc::new(AtomicBool::new(true)),
            hold: Arc::new(AtomicBool::new(false)),
        }
    }
}

struct LoopSender {
    node: Arc<ShardRouter>,
    up: Arc<AtomicBool>,
    hold: Arc<AtomicBool>,
    tx: mpsc::Sender<(u64, Vec<u8>)>,
    closed: Arc<AtomicBool>,
}

impl FrameSender for LoopSender {
    fn send(&mut self, corr: u64, frame: &[u8]) -> io::Result<()> {
        if !self.up.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "node down"));
        }
        if self.hold.load(Ordering::Acquire) {
            return Ok(()); // "lost on the wire"
        }
        if wire::is_key_frame(frame) {
            let reply = self.node.handle_key_push(frame);
            let _ = self.tx.send((corr, reply));
            return Ok(());
        }
        let tx = self.tx.clone();
        match self
            .node
            .try_dispatch_frame_with_callback(frame, move |reply| {
                let _ = tx.send((corr, reply));
            }) {
            Ok(Some(_)) => Ok(()),
            // Node saturated: the frame is dropped like an unread TCP
            // segment; the remote shard's sweep re-sends it.
            Ok(None) => Ok(()),
            Err(e) => {
                let _ = self
                    .tx
                    .send((corr, wire::encode_response(&Err((u64::MAX, e)))));
                Ok(())
            }
        }
    }

    fn close(&mut self) {
        self.closed.store(true, Ordering::Release);
    }
}

struct LoopReceiver {
    rx: mpsc::Receiver<(u64, Vec<u8>)>,
    up: Arc<AtomicBool>,
    closed: Arc<AtomicBool>,
}

impl FrameReceiver for LoopReceiver {
    fn recv(&mut self) -> io::Result<(u64, Vec<u8>)> {
        loop {
            match self.rx.recv_timeout(Duration::from_millis(10)) {
                Ok(pair) => return Ok(pair),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if !self.up.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
                        return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection lost"));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
                }
            }
        }
    }
}

impl ShardConnector for LoopbackConnector {
    fn connect(&self) -> io::Result<(Box<dyn FrameSender>, Box<dyn FrameReceiver>)> {
        if !self.up.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "node down",
            ));
        }
        let (tx, rx) = mpsc::channel();
        let closed = Arc::new(AtomicBool::new(false));
        Ok((
            Box::new(LoopSender {
                node: Arc::clone(&self.node),
                up: Arc::clone(&self.up),
                hold: Arc::clone(&self.hold),
                tx,
                closed: Arc::clone(&closed),
            }),
            Box::new(LoopReceiver {
                rx,
                up: Arc::clone(&self.up),
                closed,
            }),
        ))
    }

    fn probe(&self, _timeout: Duration) -> io::Result<()> {
        if self.up.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(io::Error::new(io::ErrorKind::TimedOut, "probe lost"))
        }
    }

    fn endpoint(&self) -> String {
        "loopback".into()
    }
}

fn toy_ctx() -> Arc<FvContext> {
    Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap())
}

/// One single-shard node router, as `examples/cluster.rs` builds per
/// process.
fn node_router(ctx: &Arc<FvContext>, name: &str) -> Arc<ShardRouter> {
    let node = Arc::new(ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        ..RouterConfig::default()
    }));
    node.add_shard(ShardSpec {
        name: name.into(),
        ctx: Arc::clone(ctx),
        config: EngineConfig {
            workers: 1,
            queue_capacity: 64,
            ..EngineConfig::default()
        },
    })
    .unwrap();
    node
}

fn fast_remote_cfg() -> RemoteShardConfig {
    RemoteShardConfig {
        connections: 1,
        max_inflight: 32,
        reply_timeout: Duration::from_millis(150),
        probe_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(50),
        eject_after: 2,
        send_attempts: 2,
        reconnect_backoff: Duration::from_millis(20),
    }
}

struct Fixture {
    ctx: Arc<FvContext>,
    sk: hefv_core::keys::SecretKey,
    pk: PublicKey,
    rng: StdRng,
}

fn fixture(seed: u64) -> (Fixture, TenantKeys) {
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let keys = TenantKeys::compute(pk.clone(), rlk);
    (Fixture { ctx, sk, pk, rng }, keys)
}

impl Fixture {
    fn add_req(&mut self, tenant: u64, a: u64, b: u64) -> EvalRequest {
        let (t, n) = (self.ctx.params().t, self.ctx.params().n);
        let ea = encrypt(
            &self.ctx,
            &self.pk,
            &Plaintext::new(vec![a], t, n),
            &mut self.rng,
        );
        let eb = encrypt(
            &self.ctx,
            &self.pk,
            &Plaintext::new(vec![b], t, n),
            &mut self.rng,
        );
        EvalRequest::binary(tenant, EvalOp::Add, ea, eb)
    }

    fn check_sum(&self, reply: &[u8], want: u64) {
        match wire::decode_response(&self.ctx, reply).unwrap() {
            wire::ResponseFrame::Ok(resp) => {
                assert_eq!(
                    decrypt(&self.ctx, &self.sk, &resp.result).coeffs()[0],
                    want % self.ctx.params().t
                );
            }
            wire::ResponseFrame::Err { message, .. } => panic!("job failed: {message}"),
        }
    }
}

/// A tenant id that hash-places onto `shard` under `router`.
fn tenant_on(router: &ShardRouter, shard: ShardId) -> u64 {
    (0..10_000u64)
        .find(|&t| router.shard_for(t) == Some(shard))
        .expect("some tenant hashes to every shard")
}

#[test]
fn remote_dispatch_round_trips_with_key_push() {
    let (mut fx, keys) = fixture(0xC0FFEE);
    let node = node_router(&fx.ctx, "node0");
    let connector = LoopbackConnector::new(Arc::clone(&node));

    let front = ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        hedge: None,
        ..RouterConfig::default()
    });
    let rid = front
        .add_remote_shard(RemoteShardSpec {
            name: "remote0".into(),
            ctx: Arc::clone(&fx.ctx),
            connector: Arc::new(connector),
            config: fast_remote_cfg(),
        })
        .unwrap();

    let tenant = tenant_on(&front, rid);
    // Registration pushes the keys over the HEVK frame and waits for the
    // node's ack.
    front.register_tenant(tenant, keys).unwrap();
    assert!(front.stats().hedge.key_pushes >= 1);

    // Pipelined frames through the proxy; replies are restamped with the
    // *front* shard id so clients see one address space.
    let done = Arc::new(Mutex::new(Vec::new()));
    for i in 0..8u64 {
        let frame = wire::encode_request(&fx.add_req(tenant, i, 1));
        let done2 = Arc::clone(&done);
        let placed = front
            .try_dispatch_frame_with_callback(&frame, move |reply| {
                done2.lock().unwrap().push((i, reply));
            })
            .unwrap();
        assert!(placed.is_some(), "proxy refused with an empty window");
        assert_eq!(placed.unwrap().0, rid);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while done.lock().unwrap().len() < 8 {
        assert!(Instant::now() < deadline, "replies never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    for (i, reply) in done.lock().unwrap().iter() {
        assert_eq!(wire::peek_response_shard(reply).unwrap(), rid as u8);
        fx.check_sum(reply, i + 1);
    }
    let stats = front.stats();
    assert_eq!(stats.remote.len(), 1);
    assert!(stats.remote[0].stats.replies >= 8);
    assert!(stats.remote[0].stats.healthy);

    front.shutdown();
    node.shutdown();
}

#[test]
fn remote_at_capacity_surfaces_as_ok_none() {
    let (mut fx, keys) = fixture(0xBEEF);
    let node = node_router(&fx.ctx, "node0");
    let connector = LoopbackConnector::new(Arc::clone(&node));
    let hold = Arc::clone(&connector.hold);

    let front = ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        hedge: None,
        ..RouterConfig::default()
    });
    let rid = front
        .add_remote_shard(RemoteShardSpec {
            name: "remote0".into(),
            ctx: Arc::clone(&fx.ctx),
            connector: Arc::new(connector),
            config: RemoteShardConfig {
                max_inflight: 2,
                // Far past the test's horizon: held frames must stay
                // pending, not resolve through the retry path.
                reply_timeout: Duration::from_secs(60),
                ..fast_remote_cfg()
            },
        })
        .unwrap();
    let tenant = tenant_on(&front, rid);
    front.register_tenant(tenant, keys).unwrap();

    // Swallow data frames: the window fills and stays full.
    hold.store(true, Ordering::Release);
    for _ in 0..2 {
        let frame = wire::encode_request(&fx.add_req(tenant, 1, 1));
        let placed = front
            .try_dispatch_frame_with_callback(&frame, |_| {})
            .unwrap();
        assert!(placed.is_some(), "window has room");
    }
    let frame = wire::encode_request(&fx.add_req(tenant, 1, 1));
    let placed = front
        .try_dispatch_frame_with_callback(&frame, |_| {})
        .unwrap();
    assert!(
        placed.is_none(),
        "remote at capacity must surface as Ok(None), preserving the backpressure seam"
    );

    front.shutdown();
    node.shutdown();
}

#[test]
fn circuit_breaker_ejects_and_probes_back() {
    let (fx, _) = fixture(0xE1EC);
    let node = node_router(&fx.ctx, "node0");
    let connector = LoopbackConnector::new(Arc::clone(&node));
    let up = Arc::clone(&connector.up);

    let front = ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        hedge: None,
        ..RouterConfig::default()
    });
    let rid = front
        .add_remote_shard(RemoteShardSpec {
            name: "remote0".into(),
            ctx: Arc::clone(&fx.ctx),
            connector: Arc::new(connector),
            config: fast_remote_cfg(),
        })
        .unwrap();

    let healthy = |front: &ShardRouter| front.stats().remote[0].stats.healthy;
    assert!(healthy(&front), "fresh shard starts healthy");

    // Kill the node: consecutive probe failures must trip the breaker.
    up.store(false, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(5);
    while healthy(&front) {
        assert!(Instant::now() < deadline, "breaker never opened");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(front.stats().remote[0].stats.ejections >= 1);
    // The breaker may have tripped on reader-side connection loss before
    // any probe ran; while the node stays down, probes must also start
    // failing.
    let deadline = Instant::now() + Duration::from_secs(5);
    while front.stats().remote[0].stats.probe_failures == 0 {
        assert!(Instant::now() < deadline, "probes never failed");
        std::thread::sleep(Duration::from_millis(10));
    }

    // While ejected, dispatch fails fast (not Ok(None) — the shard is
    // down, not busy).
    let frame = wire::encode_request_for_shard(
        &EvalRequest {
            tenant: 1,
            inputs: vec![],
            plaintexts: vec![],
            ops: vec![],
            deadline_us: None,
            trace_id: None,
        },
        rid,
    );
    assert!(front
        .try_dispatch_frame_with_callback(&frame, |_| {})
        .is_err());

    // Revive the node: the half-open breaker probes it back.
    up.store(true, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !healthy(&front) {
        assert!(Instant::now() < deadline, "breaker never closed again");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(front.stats().remote[0].stats.recoveries >= 1);

    front.shutdown();
    node.shutdown();
}

#[test]
fn lost_frames_are_retried_with_the_same_corr_exactly_once() {
    let (mut fx, keys) = fixture(0x10CC);
    let node = node_router(&fx.ctx, "node0");
    let connector = LoopbackConnector::new(Arc::clone(&node));
    let hold = Arc::clone(&connector.hold);

    let front = ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        hedge: None,
        ..RouterConfig::default()
    });
    let rid = front
        .add_remote_shard(RemoteShardSpec {
            name: "remote0".into(),
            ctx: Arc::clone(&fx.ctx),
            connector: Arc::new(connector),
            config: fast_remote_cfg(),
        })
        .unwrap();
    let tenant = tenant_on(&front, rid);
    front.register_tenant(tenant, keys).unwrap();

    // First transmission is swallowed; the sweep re-sends it under the
    // same correlation id once the link "recovers".
    hold.store(true, Ordering::Release);
    let calls = Arc::new(AtomicUsize::new(0));
    let reply_slot: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let frame = wire::encode_request(&fx.add_req(tenant, 20, 22));
    {
        let calls = Arc::clone(&calls);
        let reply_slot = Arc::clone(&reply_slot);
        front
            .try_dispatch_frame_with_callback(&frame, move |reply| {
                calls.fetch_add(1, Ordering::SeqCst);
                *reply_slot.lock().unwrap() = Some(reply);
            })
            .unwrap()
            .expect("window empty");
    }
    std::thread::sleep(Duration::from_millis(30));
    hold.store(false, Ordering::Release);

    let deadline = Instant::now() + Duration::from_secs(10);
    while calls.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "retried frame never answered");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Give a hypothetical duplicate time to double-fire, then assert
    // exactly-once.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(calls.load(Ordering::SeqCst), 1, "reply delivered twice");
    fx.check_sum(reply_slot.lock().unwrap().as_ref().unwrap(), 42);
    assert!(front.stats().remote[0].stats.retries >= 1);

    front.shutdown();
    node.shutdown();
}

#[test]
fn hedged_retry_rescues_a_dead_primary_exactly_once() {
    let (mut fx, keys) = fixture(0x4ED6);
    let node = node_router(&fx.ctx, "node0");
    let connector = LoopbackConnector::new(Arc::clone(&node));
    let up = Arc::clone(&connector.up);

    // Front fleet: one remote shard (the primary under test) and one
    // local shard (the hedge replica). key_replicas=2 puts every
    // tenant's keys on both.
    let front = ShardRouter::with_config(RouterConfig {
        key_replicas: 2,
        hedge: Some(HedgeConfig {
            delay: Duration::from_millis(40),
            deadline_fraction: 0.5,
        }),
        ..RouterConfig::default()
    });
    let rid = front
        .add_remote_shard(RemoteShardSpec {
            name: "remote0".into(),
            ctx: Arc::clone(&fx.ctx),
            connector: Arc::new(connector),
            config: fast_remote_cfg(),
        })
        .unwrap();
    let lid = front
        .add_shard(ShardSpec {
            name: "local-replica".into(),
            ctx: Arc::clone(&fx.ctx),
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        })
        .unwrap();

    let tenant = tenant_on(&front, rid);
    front.register_tenant(tenant, keys).unwrap();

    // The node dies *after* accepting the dispatch: the reply never
    // comes, the connection collapses, and the failover path must land
    // the job on the local replica — exactly once.
    let calls = Arc::new(AtomicUsize::new(0));
    let reply_slot: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let frame = wire::encode_request(&fx.add_req(tenant, 30, 12));
    up.store(false, Ordering::Release);
    {
        let calls = Arc::clone(&calls);
        let reply_slot = Arc::clone(&reply_slot);
        // The breaker may not have tripped yet; either the dispatch is
        // accepted (and hedges over) or fails fast (and the caller would
        // retry). Retry until accepted or the breaker opens.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let cb = {
                let calls = Arc::clone(&calls);
                let reply_slot = Arc::clone(&reply_slot);
                move |reply: Vec<u8>| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    *reply_slot.lock().unwrap() = Some(reply);
                }
            };
            match front.try_dispatch_frame_with_callback(&frame, cb) {
                Ok(Some(_)) => break,
                Ok(None) | Err(_) => {
                    // Ejected primary: placement now skips it entirely
                    // and the local replica serves as primary — equally
                    // a rescue; dispatch once more and stop.
                    if front.stats().remote[0].stats.healthy {
                        assert!(Instant::now() < deadline, "never dispatched");
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    let cb = {
                        let calls = Arc::clone(&calls);
                        let reply_slot = Arc::clone(&reply_slot);
                        move |reply: Vec<u8>| {
                            calls.fetch_add(1, Ordering::SeqCst);
                            *reply_slot.lock().unwrap() = Some(reply);
                        }
                    };
                    let placed = front.try_dispatch_frame_with_callback(&frame, cb).unwrap();
                    assert_eq!(placed.map(|p| p.0), Some(lid));
                    break;
                }
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while calls.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "hedge never delivered a reply");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(calls.load(Ordering::SeqCst), 1, "reply delivered twice");
    let guard = reply_slot.lock().unwrap();
    let reply = guard.as_ref().unwrap();
    assert_eq!(
        wire::peek_response_shard(reply).unwrap(),
        lid as u8,
        "the surviving replica must have produced the reply"
    );
    fx.check_sum(reply, 42);

    front.shutdown();
    node.shutdown();
}

#[test]
fn hedge_timer_wins_against_a_slow_primary() {
    let (mut fx, keys) = fixture(0x510F);
    let node = node_router(&fx.ctx, "node0");
    let connector = LoopbackConnector::new(Arc::clone(&node));
    let hold = Arc::clone(&connector.hold);

    let front = ShardRouter::with_config(RouterConfig {
        key_replicas: 2,
        hedge: Some(HedgeConfig {
            delay: Duration::from_millis(30),
            deadline_fraction: 0.5,
        }),
        ..RouterConfig::default()
    });
    let rid = front
        .add_remote_shard(RemoteShardSpec {
            name: "remote0".into(),
            ctx: Arc::clone(&fx.ctx),
            connector: Arc::new(connector),
            config: RemoteShardConfig {
                // Long reply timeout: only the hedge timer may rescue.
                reply_timeout: Duration::from_secs(60),
                ..fast_remote_cfg()
            },
        })
        .unwrap();
    let lid = front
        .add_shard(ShardSpec {
            name: "local-replica".into(),
            ctx: Arc::clone(&fx.ctx),
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        })
        .unwrap();
    let tenant = tenant_on(&front, rid);
    front.register_tenant(tenant, keys).unwrap();

    // Primary goes silent (frames swallowed, probes still fine): only
    // the hedge can answer.
    hold.store(true, Ordering::Release);
    let calls = Arc::new(AtomicUsize::new(0));
    let reply_slot: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let frame = wire::encode_request(&fx.add_req(tenant, 2, 3));
    {
        let calls = Arc::clone(&calls);
        let reply_slot = Arc::clone(&reply_slot);
        front
            .try_dispatch_frame_with_callback(&frame, move |reply| {
                calls.fetch_add(1, Ordering::SeqCst);
                *reply_slot.lock().unwrap() = Some(reply);
            })
            .unwrap()
            .expect("window empty");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while calls.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "hedge timer never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    let guard = reply_slot.lock().unwrap();
    let reply = guard.as_ref().unwrap();
    assert_eq!(wire::peek_response_shard(reply).unwrap(), lid as u8);
    fx.check_sum(reply, 5);
    let hedge = front.stats().hedge;
    assert!(hedge.armed >= 1);
    assert!(hedge.fired >= 1);
    assert!(hedge.wins >= 1);

    front.shutdown();
    node.shutdown();
}

#[test]
fn pinning_to_a_remote_shard_pushes_keys_before_commit() {
    let (mut fx, keys) = fixture(0x1216);
    let node = node_router(&fx.ctx, "node0");
    let connector = LoopbackConnector::new(Arc::clone(&node));

    let front = ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        hedge: None,
        ..RouterConfig::default()
    });
    let lid = front
        .add_shard(ShardSpec {
            name: "local0".into(),
            ctx: Arc::clone(&fx.ctx),
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        })
        .unwrap();
    let rid = front
        .add_remote_shard(RemoteShardSpec {
            name: "remote0".into(),
            ctx: Arc::clone(&fx.ctx),
            connector: Arc::new(connector),
            config: fast_remote_cfg(),
        })
        .unwrap();

    // Register while the tenant lives on the local shard (key_replicas=1
    // keeps the remote key-free).
    let tenant = tenant_on(&front, lid);
    front.register_tenant(tenant, keys).unwrap();
    let pushes_before = front.stats().hedge.key_pushes;

    // Pinning to the remote shard must stream the keys (and collect the
    // node's ack) before the pin commits — the very next job on the pin
    // target must find them.
    front.pin_tenant(tenant, rid).unwrap();
    assert!(front.stats().hedge.key_pushes > pushes_before);
    let reply = front.dispatch_frame(&wire::encode_request(&fx.add_req(tenant, 31, 11)));
    assert_eq!(wire::peek_response_shard(&reply).unwrap(), rid as u8);
    fx.check_sum(&reply, 42);

    front.shutdown();
    node.shutdown();
}

/// Satellite: topology change under sustained load, proptest-style over
/// several deterministic seeds. `remove_shard` mid-stream must lose zero
/// jobs, and every moved tenant's keys must be at the new owner before
/// its first job executes there (any gap would surface as UnknownTenant
/// failures in the stream).
#[test]
fn remove_shard_under_sustained_load_loses_nothing() {
    for seed in [1u64, 0xAB5EED, 0x7E57] {
        remove_shard_under_load(seed);
    }
}

fn remove_shard_under_load(seed: u64) {
    let (fx, keys) = fixture(seed);
    let router = Arc::new(ShardRouter::with_config(RouterConfig {
        key_replicas: 2,
        hedge: None,
        vnodes: 32,
    }));
    for i in 0..3 {
        router
            .add_shard(ShardSpec {
                name: format!("s{i}"),
                ctx: Arc::clone(&fx.ctx),
                config: EngineConfig {
                    workers: 1,
                    queue_capacity: 512,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }
    let tenants: Vec<u64> = (0..8)
        .map(|i| seed.wrapping_mul(31).wrapping_add(i))
        .collect();
    for &t in &tenants {
        router.register_tenant(t, keys.clone()).unwrap();
    }
    // The victim is whichever shard serves the first tenant, so at least
    // one tenant definitely moves.
    let victim = router.shard_for(tenants[0]).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let completed = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let failures = Arc::clone(&failures);
            let completed = Arc::clone(&completed);
            let ctx = Arc::clone(&fx.ctx);
            let pk = fx.pk.clone();
            let tenants = tenants.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (w as u64) << 32);
                let (t, n) = (ctx.params().t, ctx.params().n);
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let tenant = tenants[(w + i as usize) % tenants.len()];
                    let enc = |v, rng: &mut StdRng| {
                        encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng)
                    };
                    let req = EvalRequest::binary(
                        tenant,
                        EvalOp::Add,
                        enc(i % t, &mut rng),
                        enc(1, &mut rng),
                    );
                    match router.submit(req).and_then(|h| h.wait()) {
                        Ok(_) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => failures.lock().unwrap().push(e.to_string()),
                    }
                    i += 1;
                }
            })
        })
        .collect();

    // Let the stream build, yank a shard out from under it, let the
    // stream continue on the shrunken fleet.
    while completed.load(Ordering::Relaxed) < 20 {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(router.remove_shard(victim));
    let after_removal = completed.load(Ordering::Relaxed);
    while completed.load(Ordering::Relaxed) < after_removal + 20 {
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap();
    }

    let failures = failures.lock().unwrap();
    assert!(
        failures.is_empty(),
        "seed {seed:#x}: {} jobs failed across the removal (first: {})",
        failures.len(),
        failures[0]
    );
    // Every moved tenant's keys really are at the new owners.
    for &t in &tenants {
        let home = router.shard_for(t).unwrap();
        assert_ne!(home, victim);
    }
    router.shutdown();
}
