//! The cluster layer: a [`ShardRouter`] fronting local and remote shards.
//!
//! The paper places two coprocessors behind one cloud service; the router
//! generalizes that to N shards. It partitions tenants across shards — in-process
//! [`Engine`]s and, through [`RemoteShard`], engines living on other
//! nodes — and routes every request to its tenant's shard:
//!
//! * **Placement** is consistent hashing over a ring of virtual nodes
//!   (deterministic splitmix64 points, no wall-clock or process state), so
//!   adding or removing a shard remaps only the tenants that land on the
//!   new/removed shard's arcs; everyone else stays put. Operators can
//!   override the hash with an explicit [`ShardRouter::pin_tenant`].
//! * **Key placement precedes traffic.** The router keeps every
//!   registered tenant's keys in a vault and replicates them to
//!   [`RouterConfig::key_replicas`] shards along the ring. Topology
//!   changes ([`ShardRouter::add_shard`] / `remove_shard` / `pin_tenant` /
//!   `unpin_tenant`) compute exactly which tenants gain a new key holder
//!   and stream those keys there — over the `HEVK` key-transfer frame for
//!   remote shards — *before* the ring write commits, so a moved tenant's
//!   first job at its new owner always finds its keys.
//! * **Health and hedging.** Local shards are always up; a remote shard
//!   carries a half-open circuit breaker driven by probes and transport
//!   errors (see [`crate::remote`]). Frame placement skips ejected
//!   shards, and a dispatch to a remote primary arms a deadline-aware
//!   hedge: if no reply lands within [`HedgeConfig::delay`] (clamped to a
//!   fraction of the request deadline), the frame is re-dispatched to the
//!   tenant's replica shard. First reply wins; the loser's reply finds
//!   the completion already taken and is dropped — correlation ids make
//!   the duplicate harmless end-to-end.
//! * **Remote traffic** enters through [`ShardRouter::dispatch_frame`]:
//!   `HEVQ` request frames carry an optional shard address
//!   ([`crate::wire::peek_shard`]) and are otherwise placed by tenant
//!   hash; responses come back stamped with the shard that produced them.
//!   This is the seam a TCP/async front-end plugs into — it never needs
//!   to decode a payload to route it.
//!
//! Job ids are scoped per shard; the `(shard, job_id)` pair is globally
//! unique.
//!
//! # Example
//!
//! ```
//! use hefv_core::prelude::*;
//! use hefv_engine::prelude::*;
//! use hefv_engine::router::{ShardRouter, ShardSpec};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
//! let router = ShardRouter::new();
//! // Two shards over one parameter set; tenants spread over them by hash.
//! for name in ["shard-a", "shard-b"] {
//!     router
//!         .add_shard(ShardSpec {
//!             name: name.into(),
//!             ctx: Arc::clone(&ctx),
//!             config: EngineConfig {
//!                 workers: 1,
//!                 ..EngineConfig::default()
//!             },
//!         })
//!         .unwrap();
//! }
//! let mut rng = StdRng::seed_from_u64(9);
//! let (sk, pk, rlk) = keygen(&ctx, &mut rng);
//! let tenant = 42;
//! router.register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk)).unwrap();
//!
//! let t = ctx.params().t;
//! let n = ctx.params().n;
//! let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
//! let req = EvalRequest::binary(tenant, EvalOp::Mul, enc(2, &mut rng), enc(3, &mut rng));
//! let resp = router.call(req).unwrap();
//! assert_eq!(decrypt(&ctx, &sk, &resp.result).coeffs()[0], 6);
//! assert_eq!(router.stats().total.jobs_completed, 1);
//! router.shutdown();
//! ```

use crate::engine::{Engine, EngineConfig, JobHandle};
use crate::error::EngineError;
use crate::registry::{TenantId, TenantKeys};
use crate::remote::{RemoteShard, RemoteShardConfig, RemoteStatsSnapshot, ShardConnector};
use crate::request::{EvalRequest, EvalResponse};
use crate::stats::StatsSnapshot;
use crate::wire;
use hefv_core::context::FvContext;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Shard identifier, unique within one router. Kept below
/// [`wire::NO_SHARD`] and within a byte so it fits both frame directions.
pub type ShardId = u16;

/// Highest shard id a router hands out: the response frame stamps the
/// shard into one byte, and the top value is reserved for
/// [`wire::ERROR_SHARD`] (transport-level failures that never reached a
/// shard).
pub const MAX_SHARD_ID: ShardId = u8::MAX as ShardId - 1;

/// Everything needed to start one in-process engine shard.
pub struct ShardSpec {
    /// Operator-facing shard name.
    pub name: String,
    /// The parameter set this shard serves.
    pub ctx: Arc<FvContext>,
    /// Engine configuration.
    pub config: EngineConfig,
}

/// Everything needed to attach a shard living on another node.
pub struct RemoteShardSpec {
    /// Operator-facing shard name.
    pub name: String,
    /// The parameter set the remote node serves (used to decode replies
    /// and encode key pushes; must match the node's own context).
    pub ctx: Arc<FvContext>,
    /// Transport factory for the node (e.g. `hefv_net`'s `TcpConnector`).
    pub connector: Arc<dyn ShardConnector>,
    /// Pool/health tuning.
    pub config: RemoteShardConfig,
}

/// Hedged-retry policy for remote dispatches.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// How long to wait for the primary before dispatching the hedge to
    /// the replica shard.
    pub delay: Duration,
    /// Deadline awareness: for frames carrying a deadline, the hedge
    /// fires after at most `deadline × fraction`, so a tight-deadline job
    /// hedges sooner than the flat delay.
    pub deadline_fraction: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            delay: Duration::from_millis(50),
            deadline_fraction: 0.5,
        }
    }
}

/// Router-wide tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the hash ring (≥ 1; more vnodes =
    /// smoother placement, larger ring).
    pub vnodes: usize,
    /// How many shards along the ring hold each tenant's keys (≥ 1). The
    /// extra holders are what hedged retries fail over to.
    pub key_replicas: usize,
    /// Hedged-retry policy for remote dispatches; `None` disables
    /// hedging (a failed remote dispatch still fails over once).
    pub hedge: Option<HedgeConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: 64,
            key_replicas: 2,
            hedge: Some(HedgeConfig::default()),
        }
    }
}

/// A shard's runtime: in-process engine or proxy to another node.
enum ShardImpl {
    Local(Engine),
    Remote(RemoteShard),
}

struct Shard {
    id: ShardId,
    name: String,
    ctx: Arc<FvContext>,
    imp: ShardImpl,
}

impl Shard {
    fn local(&self) -> Option<&Engine> {
        match &self.imp {
            ShardImpl::Local(e) => Some(e),
            ShardImpl::Remote(_) => None,
        }
    }

    fn remote(&self) -> Option<&RemoteShard> {
        match &self.imp {
            ShardImpl::Local(_) => None,
            ShardImpl::Remote(r) => Some(r),
        }
    }

    /// Local shards are always up; a remote shard is up while its
    /// circuit breaker is closed.
    fn is_up(&self) -> bool {
        match &self.imp {
            ShardImpl::Local(_) => true,
            ShardImpl::Remote(r) => r.healthy(),
        }
    }
}

struct Topology {
    shards: BTreeMap<ShardId, Arc<Shard>>,
    /// Consistent-hash ring: vnode point → shard id.
    ring: BTreeMap<u64, ShardId>,
    pins: HashMap<TenantId, ShardId>,
    /// Ids reserved for engines currently starting (outside the lock):
    /// counted as taken so concurrent `add_shard`s cannot collide.
    starting: std::collections::BTreeSet<ShardId>,
}

impl Topology {
    /// Smallest id not held by a live or starting shard. Removed shards'
    /// ids are reused — a replacement shard inherits exactly the retired
    /// shard's ring arcs, so rolling replacement never exhausts the id
    /// space and never remaps bystander tenants.
    fn reserve_id(&mut self) -> Option<ShardId> {
        let id = (0..=MAX_SHARD_ID)
            .find(|id| !self.shards.contains_key(id) && !self.starting.contains(id))?;
        self.starting.insert(id);
        Some(id)
    }

    /// Distinct shards in ring order starting clockwise of `point`.
    fn ring_walk(&self, point: u64) -> Vec<ShardId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, &id) in self.ring.range(point..).chain(self.ring.range(..point)) {
            if seen.insert(id) {
                out.push(id);
            }
        }
        out
    }
}

/// One shard's stats row in a [`RouterStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard id.
    pub id: ShardId,
    /// Shard name.
    pub name: String,
    /// Liveness: local shards are always up; a remote shard is up while
    /// its circuit breaker is closed.
    pub up: bool,
    /// That engine's telemetry snapshot.
    pub stats: StatsSnapshot,
}

/// One remote shard's stats row in a [`RouterStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteShardStats {
    /// Shard id.
    pub id: ShardId,
    /// Shard name.
    pub name: String,
    /// Peer endpoint.
    pub endpoint: String,
    /// Transport/health counters.
    pub stats: RemoteStatsSnapshot,
}

/// Router-level hedging and key-migration counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HedgeStatsSnapshot {
    /// Remote dispatches that armed a hedge timer.
    pub armed: u64,
    /// Hedge timers that fired (replica dispatch attempted on timeout).
    pub fired: u64,
    /// Races the replica's reply won.
    pub wins: u64,
    /// Primary failures failed over to the replica (sync or async).
    pub failovers: u64,
    /// Tenant key payloads pushed to shards (local and remote).
    pub key_pushes: u64,
    /// Key pushes that failed after retries.
    pub key_push_failures: u64,
    /// Key sets placed on (or received by) *replica* holders — the
    /// durability copies beyond each tenant's primary.
    pub keys_replicated: u64,
}

/// Aggregated router telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterStats {
    /// Per-shard snapshots, in shard-id order (local shards only —
    /// remote shards' engine stats live on their own node).
    pub per_shard: Vec<ShardStats>,
    /// Remote shards' transport/health counters, in shard-id order.
    pub remote: Vec<RemoteShardStats>,
    /// Hedging and key-migration counters.
    pub hedge: HedgeStatsSnapshot,
    /// Tenants evicted from local shards' key registries (LRU pressure).
    /// Nonzero means some replicas may be missing until the next
    /// anti-entropy sweep re-pushes them.
    pub keys_evicted: u64,
    /// All local shards folded together.
    pub total: StatsSnapshot,
}

impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.per_shard {
            writeln!(
                f,
                "shard {} ({}){}:",
                s.id,
                s.name,
                if s.up { "" } else { " [DOWN]" }
            )?;
            for line in s.stats.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        for r in &self.remote {
            writeln!(
                f,
                "remote shard {} ({}) at {}: {} | inflight {} | forwarded {} | replies {} | \
                 ejections {} | recoveries {} | retries {} | timeouts {}",
                r.id,
                r.name,
                r.endpoint,
                if r.stats.healthy { "up" } else { "EJECTED" },
                r.stats.inflight,
                r.stats.frames_forwarded,
                r.stats.replies,
                r.stats.ejections,
                r.stats.recoveries,
                r.stats.retries,
                r.stats.timeouts,
            )?;
        }
        if self.hedge != HedgeStatsSnapshot::default() {
            writeln!(
                f,
                "hedging: armed {} | fired {} | wins {} | failovers {} | key pushes {} ({} failed)",
                self.hedge.armed,
                self.hedge.fired,
                self.hedge.wins,
                self.hedge.failovers,
                self.hedge.key_pushes,
                self.hedge.key_push_failures,
            )?;
        }
        writeln!(f, "total:")?;
        for line in self.total.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// splitmix64 finalizer: a stable, process-independent mixing function so
/// ring points (and therefore placement) are identical across runs.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Default)]
struct HedgeCounters {
    armed: AtomicU64,
    fired: AtomicU64,
    wins: AtomicU64,
    failovers: AtomicU64,
    key_pushes: AtomicU64,
    key_push_failures: AtomicU64,
    keys_replicated: AtomicU64,
}

impl HedgeCounters {
    fn snapshot(&self) -> HedgeStatsSnapshot {
        HedgeStatsSnapshot {
            armed: self.armed.load(Ordering::Relaxed),
            fired: self.fired.load(Ordering::Relaxed),
            wins: self.wins.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            key_pushes: self.key_pushes.load(Ordering::Relaxed),
            key_push_failures: self.key_push_failures.load(Ordering::Relaxed),
            keys_replicated: self.keys_replicated.load(Ordering::Relaxed),
        }
    }
}

/// A boxed frame-reply continuation, as handed to the dispatch paths.
type FrameCallback = Box<dyn FnOnce(Vec<u8>) + Send>;

/// One-shot reply slot: whichever arm (primary or hedge) completes first
/// consumes the callback; the loser finds it taken.
struct OnceReply {
    done: Mutex<Option<FrameCallback>>,
}

impl OnceReply {
    fn new(done: FrameCallback) -> Self {
        OnceReply {
            done: Mutex::new(Some(done)),
        }
    }

    /// Delivers `frame` if nobody has yet; reports whether this call won.
    fn complete(&self, frame: Vec<u8>) -> bool {
        let taken = self.done.lock().unwrap().take();
        match taken {
            Some(f) => {
                f(frame);
                true
            }
            None => false,
        }
    }

    fn is_done(&self) -> bool {
        self.done.lock().unwrap().is_none()
    }
}

/// One hedged remote dispatch: the frame, its replica target, and the
/// shared reply slot. `live` counts in-flight arms; when it hits zero
/// with nobody having replied, the job fails.
struct HedgeTask {
    once: Arc<OnceReply>,
    /// Whether the replica dispatch has been attempted (timer or
    /// failover) — it happens at most once.
    fired: AtomicBool,
    live: AtomicI64,
    frame: Vec<u8>,
    replica: Arc<Shard>,
    counters: Arc<HedgeCounters>,
}

impl HedgeTask {
    /// Dispatches the frame to the replica shard (local or remote),
    /// wiring its reply into the shared slot. Returns the replica-side
    /// job id, `None` when the replica is at capacity.
    fn dispatch_replica(self: &Arc<Self>) -> Result<Option<u64>, EngineError> {
        let stamp = self.replica.id as u8;
        match &self.replica.imp {
            ShardImpl::Local(engine) => {
                let req = wire::decode_request(&self.replica.ctx, &self.frame)?;
                let me = Arc::clone(self);
                engine.try_submit_with_callback(req, move |outcome| {
                    let outcome = outcome.map_err(|e| (u64::MAX, e));
                    me.complete_reply(wire::encode_response_from_shard(&outcome, stamp), true);
                })
            }
            ShardImpl::Remote(r) => {
                let me = Arc::clone(self);
                r.try_dispatch(&self.frame, move |result| match result {
                    Ok(mut frame) => {
                        wire::restamp_response_shard(&mut frame, stamp);
                        me.complete_reply(frame, true);
                    }
                    Err(_) => me.on_arm_error(),
                })
            }
        }
    }

    /// Timer expiry: dispatch the hedge unless a reply already landed or
    /// a failover beat the timer to the replica.
    fn fire_timer(self: &Arc<Self>) {
        if self.once.is_done() || self.fired.swap(true, Ordering::AcqRel) {
            return;
        }
        self.counters.fired.fetch_add(1, Ordering::Relaxed);
        if let Ok(Some(_)) = self.dispatch_replica() {
            self.live.fetch_add(1, Ordering::AcqRel);
        }
        // Replica refused or errored: the primary is still in flight —
        // its reply (or error) resolves the job.
    }

    fn complete_reply(&self, frame: Vec<u8>, from_replica: bool) {
        if self.once.complete(frame) && from_replica {
            self.counters.wins.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An in-flight arm reported a transport error. Fail over to the
    /// replica if it has not been tried yet; once no arm is left and no
    /// reply landed, fail the job.
    fn on_arm_error(self: &Arc<Self>) {
        self.live.fetch_sub(1, Ordering::AcqRel);
        if !self.fired.swap(true, Ordering::AcqRel) {
            self.counters.failovers.fetch_add(1, Ordering::Relaxed);
            if let Ok(Some(_)) = self.dispatch_replica() {
                self.live.fetch_add(1, Ordering::AcqRel);
                return;
            }
        }
        if self.live.load(Ordering::Acquire) <= 0 {
            self.once.complete(wire::encode_response(&Err((
                u64::MAX,
                EngineError::Internal("remote dispatch failed on primary and hedge replica".into()),
            ))));
        }
    }
}

struct HedgerState {
    due: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    tasks: HashMap<u64, Arc<HedgeTask>>,
    next_seq: u64,
    stopped: bool,
}

/// The hedge-timer thread's shared state: a monotonic timer wheel that
/// fires [`HedgeTask::fire_timer`] at each armed deadline.
struct Hedger {
    state: Mutex<HedgerState>,
    wake: Condvar,
}

impl Hedger {
    fn new() -> Self {
        Hedger {
            state: Mutex::new(HedgerState {
                due: BinaryHeap::new(),
                tasks: HashMap::new(),
                next_seq: 0,
                stopped: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn arm(&self, at: Instant, task: Arc<HedgeTask>) {
        let mut st = self.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.due.push(std::cmp::Reverse((at, seq)));
        st.tasks.insert(seq, task);
        self.wake.notify_all();
    }

    fn stop(&self) {
        self.state.lock().unwrap().stopped = true;
        self.wake.notify_all();
    }

    fn run(&self) {
        let mut fire: Vec<Arc<HedgeTask>> = Vec::new();
        loop {
            {
                let mut st = self.state.lock().unwrap();
                loop {
                    if st.stopped {
                        return;
                    }
                    let now = Instant::now();
                    match st.due.peek().map(|std::cmp::Reverse((at, _))| *at) {
                        Some(at) if at <= now => {
                            let std::cmp::Reverse((_, seq)) = st.due.pop().expect("peeked");
                            if let Some(task) = st.tasks.remove(&seq) {
                                fire.push(task);
                            }
                        }
                        Some(at) => {
                            if !fire.is_empty() {
                                break;
                            }
                            st = self
                                .wake
                                .wait_timeout(st, at - now)
                                .unwrap_or_else(|e| e.into_inner())
                                .0;
                        }
                        None => {
                            if !fire.is_empty() {
                                break;
                            }
                            st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                    }
                }
            }
            for task in fire.drain(..) {
                task.fire_timer();
            }
        }
    }
}

/// Routes tenants to local and remote shards. See the module docs.
pub struct ShardRouter {
    topo: RwLock<Topology>,
    cfg: RouterConfig,
    /// Keys of every registered tenant, for replication on topology
    /// changes. The router never decrypts — these are evaluation keys.
    vault: Mutex<HashMap<TenantId, Arc<TenantKeys>>>,
    /// Serializes topology changes so each sees a settled key placement.
    change_lock: Mutex<()>,
    /// Lazily-spawned hedge-timer thread.
    hedger: Mutex<Option<(Arc<Hedger>, std::thread::JoinHandle<()>)>>,
    counters: Arc<HedgeCounters>,
}

impl Default for ShardRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardRouter {
    /// An empty router with the default configuration (64 virtual nodes
    /// per shard — placement imbalance a few percent at realistic fleet
    /// sizes — two key holders per tenant, 50 ms hedge).
    pub fn new() -> Self {
        Self::with_config(RouterConfig::default())
    }

    /// An empty router with an explicit virtual-node count per shard.
    pub fn with_vnodes(vnodes: usize) -> Self {
        Self::with_config(RouterConfig {
            vnodes,
            ..RouterConfig::default()
        })
    }

    /// An empty router with explicit tuning.
    pub fn with_config(cfg: RouterConfig) -> Self {
        ShardRouter {
            topo: RwLock::new(Topology {
                shards: BTreeMap::new(),
                ring: BTreeMap::new(),
                pins: HashMap::new(),
                starting: std::collections::BTreeSet::new(),
            }),
            cfg: RouterConfig {
                vnodes: cfg.vnodes.max(1),
                key_replicas: cfg.key_replicas.max(1),
                ..cfg
            },
            vault: Mutex::new(HashMap::new()),
            change_lock: Mutex::new(()),
            hedger: Mutex::new(None),
            counters: Arc::new(HedgeCounters::default()),
        }
    }

    fn ring_points(&self, id: ShardId) -> Vec<u64> {
        (0..self.cfg.vnodes)
            .map(|replica| mix64(mix64(u64::from(id) + 1) ^ replica as u64))
            .collect()
    }

    /// The shards that should hold `tenant`'s keys under `(ring, pins)`:
    /// its pin (if any) first, then distinct ring successors, truncated
    /// to [`RouterConfig::key_replicas`]. Pure — health plays no part,
    /// so key placement is stable while nodes flap.
    fn key_targets_in(
        &self,
        ring: &BTreeMap<u64, ShardId>,
        pins: &HashMap<TenantId, ShardId>,
        tenant: TenantId,
    ) -> Vec<ShardId> {
        let mut out = Vec::new();
        if let Some(&pin) = pins.get(&tenant) {
            out.push(pin);
        }
        let point = mix64(tenant);
        let mut seen: HashSet<ShardId> = out.iter().copied().collect();
        for (_, &id) in ring.range(point..).chain(ring.range(..point)) {
            if out.len() >= self.cfg.key_replicas {
                break;
            }
            if seen.insert(id) {
                out.push(id);
            }
        }
        out
    }

    fn key_targets(&self, topo: &Topology, tenant: TenantId) -> Vec<ShardId> {
        self.key_targets_in(&topo.ring, &topo.pins, tenant)
    }

    /// Starts a new engine shard and joins it to the ring, reusing the
    /// smallest free shard id (a replacement for a removed shard inherits
    /// its ring arcs exactly). Before the ring write commits, every
    /// registered tenant whose key-holder set gains the new shard has its
    /// keys pushed there — so remapped tenants never race their keys.
    ///
    /// # Errors
    ///
    /// [`EngineError::Validation`] while all `MAX_SHARD_ID + 1` ids are
    /// held by live (or still-starting) shards.
    pub fn add_shard(&self, spec: ShardSpec) -> Result<ShardId, EngineError> {
        let engine = Engine::start(Arc::clone(&spec.ctx), spec.config);
        self.attach_shard(spec.name, spec.ctx, ShardImpl::Local(engine))
    }

    /// Attaches a shard on another node, reachable through `connector`.
    /// Same ring semantics as [`ShardRouter::add_shard`]; key material
    /// for remapped tenants is streamed over `HEVK` key-transfer frames
    /// — and acknowledged — before the ring write commits. If any push
    /// fails, the attach is aborted and the topology is unchanged.
    ///
    /// # Errors
    ///
    /// Shard-id exhaustion as in [`ShardRouter::add_shard`], or the key
    /// push failure that aborted the attach.
    pub fn add_remote_shard(&self, spec: RemoteShardSpec) -> Result<ShardId, EngineError> {
        let shard = RemoteShard::new(spec.name.clone(), spec.connector, spec.config);
        self.attach_shard(spec.name, spec.ctx, ShardImpl::Remote(shard))
    }

    fn attach_shard(
        &self,
        name: String,
        ctx: Arc<FvContext>,
        imp: ShardImpl,
    ) -> Result<ShardId, EngineError> {
        let _change = self.change_lock.lock().unwrap();
        // Reserve the id under the lock, then migrate keys outside it:
        // remote pushes are slow and routing must not block on them.
        let id = {
            let mut topo = self.topo.write().unwrap();
            topo.reserve_id().ok_or_else(|| {
                EngineError::Validation(format!(
                    "router is at its {}-shard capacity",
                    u32::from(MAX_SHARD_ID) + 1
                ))
            })?
        };
        let shard = Arc::new(Shard { id, name, ctx, imp });
        // Key migration happens against the *prospective* ring, before
        // the write commits: any tenant whose key-holder set gains the
        // new shard gets its keys there first.
        let migration = self.plan_gains(|ring, pins| {
            for point in self.ring_points(id) {
                ring.insert(point, id);
            }
            let _ = pins;
        });
        for (tenant, keys, gained) in migration {
            debug_assert!(gained.iter().all(|&g| g == id));
            if gained.contains(&id) {
                if let Err(e) = self.push_keys_to(&shard, tenant, &keys) {
                    // Abort: free the reserved id and tear the shard
                    // down; the ring never saw it.
                    self.topo.write().unwrap().starting.remove(&id);
                    if let Some(r) = shard.remote() {
                        r.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        let mut topo = self.topo.write().unwrap();
        for point in self.ring_points(id) {
            topo.ring.insert(point, id);
        }
        topo.starting.remove(&id);
        topo.shards.insert(id, shard);
        Ok(id)
    }

    /// For a prospective topology change (applied by `mutate` to copies
    /// of the ring and pins), the tenants whose key-holder set gains
    /// shards, with their keys: `(tenant, keys, gained shard ids)`.
    fn plan_gains(
        &self,
        mutate: impl FnOnce(&mut BTreeMap<u64, ShardId>, &mut HashMap<TenantId, ShardId>),
    ) -> Vec<(TenantId, Arc<TenantKeys>, Vec<ShardId>)> {
        let (old_ring, old_pins) = {
            let topo = self.topo.read().unwrap();
            (topo.ring.clone(), topo.pins.clone())
        };
        let mut new_ring = old_ring.clone();
        let mut new_pins = old_pins.clone();
        mutate(&mut new_ring, &mut new_pins);
        let vault: Vec<(TenantId, Arc<TenantKeys>)> = {
            let vault = self.vault.lock().unwrap();
            vault.iter().map(|(&t, k)| (t, Arc::clone(k))).collect()
        };
        let mut out = Vec::new();
        for (tenant, keys) in vault {
            let old: HashSet<ShardId> = self
                .key_targets_in(&old_ring, &old_pins, tenant)
                .into_iter()
                .collect();
            let gained: Vec<ShardId> = self
                .key_targets_in(&new_ring, &new_pins, tenant)
                .into_iter()
                .filter(|id| !old.contains(id))
                .collect();
            if !gained.is_empty() {
                out.push((tenant, keys, gained));
            }
        }
        out
    }

    /// Pushes one tenant's keys to one shard: a registry write for local
    /// shards, an acknowledged `HEVK` push for remote ones. A push to
    /// any shard other than the tenant's current primary goes out with
    /// the replica direction bit set and counts toward
    /// [`HedgeStatsSnapshot::keys_replicated`].
    fn push_keys_to(
        &self,
        shard: &Shard,
        tenant: TenantId,
        keys: &Arc<TenantKeys>,
    ) -> Result<(), EngineError> {
        let replica = {
            let topo = self.topo.read().unwrap();
            Self::place(&topo, tenant) != Some(shard.id)
        };
        let outcome = match &shard.imp {
            ShardImpl::Local(engine) => {
                engine.register_tenant(tenant, (**keys).clone());
                Ok(())
            }
            ShardImpl::Remote(r) => {
                let frame = if replica {
                    wire::encode_replica_key_push(tenant, keys)
                } else {
                    wire::encode_key_push(tenant, keys)
                };
                r.push_keys(tenant, &frame)
            }
        };
        match &outcome {
            Ok(()) => {
                self.counters.key_pushes.fetch_add(1, Ordering::Relaxed);
                if replica {
                    self.counters
                        .keys_replicated
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.counters
                    .key_push_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Pushes keys for every `(tenant, keys, gained)` row of a migration
    /// plan. Failures are counted and skipped — used on the shrink path,
    /// where aborting would leave the fleet wedged on a dead node.
    fn push_gains_best_effort(&self, plan: &[(TenantId, Arc<TenantKeys>, Vec<ShardId>)]) {
        for (tenant, keys, gained) in plan {
            for &gid in gained {
                let target = self.topo.read().unwrap().shards.get(&gid).cloned();
                if let Some(target) = target {
                    let _ = self.push_keys_to(&target, *tenant, keys);
                }
            }
        }
    }

    /// Removes a shard from the ring: no new requests route to it, and
    /// its engine shuts down (pending jobs finish, workers join) as soon
    /// as the last in-flight reference drops — immediately when no
    /// request is mid-dispatch, otherwise when that request completes.
    /// Tenants mapped there move to the ring's next shard — their keys
    /// are pushed to each new holder *before* the ring write commits, so
    /// a moved tenant's first job at its new owner finds its keys. Pins
    /// to the removed shard are dropped. Returns `false` if the shard is
    /// unknown.
    pub fn remove_shard(&self, id: ShardId) -> bool {
        let _change = self.change_lock.lock().unwrap();
        if !self.topo.read().unwrap().shards.contains_key(&id) {
            return false;
        }
        let plan = self.plan_gains(|ring, pins| {
            ring.retain(|_, v| *v != id);
            pins.retain(|_, v| *v != id);
        });
        self.push_gains_best_effort(&plan);
        let removed = {
            let mut topo = self.topo.write().unwrap();
            let removed = topo.shards.remove(&id);
            if removed.is_some() {
                topo.ring.retain(|_, v| *v != id);
                topo.pins.retain(|_, v| *v != id);
            }
            removed
        };
        // Dropping the (usually last) Arc shuts the engine down; done
        // outside the lock so routing never blocks on a draining shard.
        if let Some(shard) = &removed {
            if let Some(r) = shard.remote() {
                r.shutdown();
            }
        }
        removed.is_some()
    }

    /// Shard ids and names, in id order.
    pub fn shards(&self) -> Vec<(ShardId, String)> {
        self.topo
            .read()
            .unwrap()
            .shards
            .values()
            .map(|s| (s.id, s.name.clone()))
            .collect()
    }

    /// The shard a tenant routes to right now: its pin if set, otherwise
    /// the first ring point clockwise of the tenant's hash. `None` when
    /// the router has no shards. Health-blind — the *dispatch* paths
    /// additionally skip ejected shards.
    pub fn shard_for(&self, tenant: TenantId) -> Option<ShardId> {
        let topo = self.topo.read().unwrap();
        Self::place(&topo, tenant)
    }

    fn place(topo: &Topology, tenant: TenantId) -> Option<ShardId> {
        if let Some(&pin) = topo.pins.get(&tenant) {
            return Some(pin);
        }
        if topo.ring.is_empty() {
            return None;
        }
        let point = mix64(tenant);
        topo.ring
            .range(point..)
            .next()
            .or_else(|| topo.ring.iter().next())
            .map(|(_, &id)| id)
    }

    /// Health-aware placement: `(primary, hedge replica)`. The primary
    /// is the pin, else the first *up* shard clockwise of the tenant's
    /// hash (falling back to the pure ring choice when every shard is
    /// ejected — someone has to take the error). The replica is the next
    /// distinct up shard, the failover/hedge target.
    fn place_pair(
        &self,
        topo: &Topology,
        tenant: TenantId,
    ) -> Option<(Arc<Shard>, Option<Arc<Shard>>)> {
        let order: Vec<ShardId> = match topo.pins.get(&tenant) {
            Some(&pin) => std::iter::once(pin)
                .chain(
                    topo.ring_walk(mix64(tenant))
                        .into_iter()
                        .filter(move |&s| s != pin),
                )
                .collect(),
            None => topo.ring_walk(mix64(tenant)),
        };
        if order.is_empty() {
            return None;
        }
        let up = |id: &ShardId| topo.shards.get(id).is_some_and(|s| s.is_up());
        // A node that recovered from an ejection serves as a replica but
        // is not promoted back to primary until an anti-entropy sweep
        // has re-verified its key material (it may have restarted
        // empty) — so the primary prefers up-and-caught-up shards.
        let trusted = |id: &ShardId| {
            topo.shards
                .get(id)
                .is_some_and(|s| s.is_up() && s.remote().is_none_or(|r| !r.needs_catchup()))
        };
        let primary_id = *order
            .iter()
            .find(|id| trusted(id))
            .or_else(|| order.iter().find(|id| up(id)))
            .unwrap_or(&order[0]);
        let primary = topo.shards.get(&primary_id)?.clone();
        // Only the first key_replicas shards hold this tenant's keys —
        // hedging past them would just manufacture UnknownTenant errors.
        let replica = order
            .iter()
            .take(self.cfg.key_replicas)
            .find(|&&id| id != primary_id && up(&id))
            .and_then(|id| topo.shards.get(id).cloned());
        Some((primary, replica))
    }

    fn shard(&self, id: ShardId) -> Result<Arc<Shard>, EngineError> {
        self.topo
            .read()
            .unwrap()
            .shards
            .get(&id)
            .cloned()
            .ok_or_else(|| EngineError::Validation(format!("unknown shard {id}")))
    }

    fn shard_of(&self, tenant: TenantId) -> Result<Arc<Shard>, EngineError> {
        let topo = self.topo.read().unwrap();
        let id = Self::place(&topo, tenant)
            .ok_or_else(|| EngineError::Validation("router has no shards".into()))?;
        topo.shards
            .get(&id)
            .cloned()
            .ok_or_else(|| EngineError::Validation(format!("shard {id} is gone")))
    }

    /// Pins a tenant to an explicit shard, overriding the hash ring. If
    /// the tenant is registered, its keys are pushed to the new holder —
    /// and acknowledged — *before* the pin commits, so its very next job
    /// can execute there.
    ///
    /// # Errors
    ///
    /// [`EngineError::Validation`] when the shard does not exist, or the
    /// key push failure that aborted the pin.
    pub fn pin_tenant(&self, tenant: TenantId, shard: ShardId) -> Result<(), EngineError> {
        let _change = self.change_lock.lock().unwrap();
        if !self.topo.read().unwrap().shards.contains_key(&shard) {
            return Err(EngineError::Validation(format!("unknown shard {shard}")));
        }
        let plan = self.plan_gains(|_, pins| {
            pins.insert(tenant, shard);
        });
        for (t, keys, gained) in &plan {
            for gid in gained {
                let target = self.shard(*gid)?;
                self.push_keys_to(&target, *t, keys)?;
            }
        }
        self.topo.write().unwrap().pins.insert(tenant, shard);
        Ok(())
    }

    /// Removes a tenant's pin (it reverts to hash placement, its keys
    /// migrating to the hash-placed holders first). Returns whether a
    /// pin existed.
    pub fn unpin_tenant(&self, tenant: TenantId) -> bool {
        let _change = self.change_lock.lock().unwrap();
        if !self.topo.read().unwrap().pins.contains_key(&tenant) {
            return false;
        }
        let plan = self.plan_gains(|_, pins| {
            pins.remove(&tenant);
        });
        self.push_gains_best_effort(&plan);
        self.topo.write().unwrap().pins.remove(&tenant).is_some()
    }

    /// Registers a tenant's keys: they are stored in the router's vault
    /// and pushed to every key-holder shard (the routed shard plus
    /// [`RouterConfig::key_replicas`]` − 1` ring successors — remote
    /// holders receive them over acknowledged `HEVK` frames). Returns
    /// the shard the tenant routes to.
    ///
    /// # Errors
    ///
    /// [`EngineError::Validation`] when the router has no shards; a
    /// failed push to the *primary* holder (replica push failures are
    /// counted but not fatal — the tenant can serve without a replica).
    pub fn register_tenant(
        &self,
        tenant: TenantId,
        keys: TenantKeys,
    ) -> Result<ShardId, EngineError> {
        let _change = self.change_lock.lock().unwrap();
        let keys = Arc::new(keys);
        let (primary, targets) = {
            let topo = self.topo.read().unwrap();
            let primary = Self::place(&topo, tenant)
                .ok_or_else(|| EngineError::Validation("router has no shards".into()))?;
            (primary, self.key_targets(&topo, tenant))
        };
        for id in targets {
            let target = self.shard(id)?;
            let outcome = self.push_keys_to(&target, tenant, &keys);
            if id == primary {
                outcome?;
            }
        }
        self.vault.lock().unwrap().insert(tenant, keys);
        Ok(primary)
    }

    /// Handles an inbound `HEVK` key push (the receiving half of
    /// cross-node key migration): decodes the keys against the tenant's
    /// routed shard context, registers them with every local key-holder
    /// shard and the vault, and returns the ack frame to send back.
    pub fn handle_key_push(&self, frame: &[u8]) -> Vec<u8> {
        let tenant = match wire::peek_key_tenant(frame) {
            Ok(t) => t,
            Err(e) => return wire::encode_key_ack(u64::MAX, Err(&e.to_string())),
        };
        match self.apply_key_push(tenant, frame) {
            Ok(()) => wire::encode_key_ack(tenant, Ok(())),
            Err(e) => wire::encode_key_ack(tenant, Err(&e.to_string())),
        }
    }

    fn apply_key_push(&self, tenant: TenantId, frame: &[u8]) -> Result<(), EngineError> {
        let shard = self.shard_of(tenant)?;
        let (_, keys) = wire::decode_key_push(&shard.ctx, frame)?;
        // Count durability copies received: this node is holding the
        // tenant's keys as a replica, not its primary.
        if wire::peek_key_push_replica(frame).unwrap_or(false) {
            self.counters
                .keys_replicated
                .fetch_add(1, Ordering::Relaxed);
        }
        let keys = Arc::new(keys);
        let targets = {
            let topo = self.topo.read().unwrap();
            self.key_targets(&topo, tenant)
        };
        // Local holders only: a front router re-pushing to *its* remotes
        // would bounce key frames around the cluster.
        for id in targets {
            if let Ok(target) = self.shard(id) {
                if let Some(engine) = target.local() {
                    engine.register_tenant(tenant, (*keys).clone());
                }
            }
        }
        self.vault.lock().unwrap().insert(tenant, keys);
        Ok(())
    }

    /// Anti-entropy sweep: re-checks every vaulted tenant's replica set
    /// and re-pushes keys to any holder that is missing them. A local
    /// holder is "missing" when its registry no longer contains the
    /// tenant (including LRU eviction — see
    /// [`RouterStats::keys_evicted`]); a healthy remote holder that is
    /// flagged as catching up after a breaker ejection is re-pushed
    /// every vaulted tenant it should hold, then — if every push
    /// succeeded — re-admitted as a primary candidate via
    /// [`RemoteShard::mark_caught_up`]. Down remotes are skipped; the
    /// next sweep retries them.
    ///
    /// Returns the number of key pushes performed.
    ///
    /// [`RemoteShard::mark_caught_up`]: crate::remote::RemoteShard::mark_caught_up
    pub fn anti_entropy_sweep(&self) -> usize {
        let _change = self.change_lock.lock().unwrap();
        // Remote shards that are up but still flagged stale: assume they
        // can be caught up, and clear the assumption on any failed push.
        let mut catchup_ok: HashMap<ShardId, bool> = self
            .all_shards()
            .iter()
            .filter(|s| s.remote().is_some_and(|r| r.healthy() && r.needs_catchup()))
            .map(|s| (s.id, true))
            .collect();
        let vault: Vec<(TenantId, Arc<TenantKeys>)> = {
            let vault = self.vault.lock().unwrap();
            vault.iter().map(|(&t, k)| (t, Arc::clone(k))).collect()
        };
        let mut repaired = 0usize;
        for (tenant, keys) in vault {
            let targets = {
                let topo = self.topo.read().unwrap();
                self.key_targets(&topo, tenant)
            };
            for id in targets {
                let Ok(target) = self.shard(id) else { continue };
                let needs = match &target.imp {
                    ShardImpl::Local(engine) => !engine.registry().contains(tenant),
                    ShardImpl::Remote(r) => {
                        if !r.healthy() {
                            continue;
                        }
                        catchup_ok.contains_key(&id)
                    }
                };
                if !needs {
                    continue;
                }
                match self.push_keys_to(&target, tenant, &keys) {
                    Ok(()) => repaired += 1,
                    Err(_) => {
                        if let Some(flag) = catchup_ok.get_mut(&id) {
                            *flag = false;
                        }
                    }
                }
            }
        }
        for (id, ok) in catchup_ok {
            if !ok {
                continue;
            }
            if let Ok(shard) = self.shard(id) {
                if let Some(r) = shard.remote() {
                    r.mark_caught_up();
                }
            }
        }
        repaired
    }

    /// Serializes every vaulted tenant's keys as a checksummed `HEVR`
    /// snapshot (see [`wire::encode_registry_snapshot`]). Byte-for-byte
    /// deterministic for a given tenant population: entries are sorted
    /// by tenant id.
    pub fn snapshot_keys(&self) -> Vec<u8> {
        let mut entries: Vec<(TenantId, Arc<TenantKeys>)> = {
            let vault = self.vault.lock().unwrap();
            vault.iter().map(|(&t, k)| (t, Arc::clone(k))).collect()
        };
        entries.sort_by_key(|(t, _)| *t);
        wire::encode_registry_snapshot(&entries)
    }

    /// Restores tenants from an `HEVR` snapshot produced by
    /// [`Self::snapshot_keys`] (or [`crate::registry::KeyRegistry::snapshot`]):
    /// each tenant is re-registered through [`Self::register_tenant`],
    /// so keys land in the vault and on every current key-holder shard.
    /// Returns the number of tenants restored.
    ///
    /// # Errors
    ///
    /// [`EngineError::IntegrityFailure`] when the snapshot's CRC does
    /// not verify or its structure is malformed — nothing is restored in
    /// that case (verification happens before any registration).
    /// [`EngineError::Validation`] when the router has no shards.
    pub fn restore_keys(&self, bytes: &[u8]) -> Result<usize, EngineError> {
        let ctx = {
            let shards = self.all_shards();
            let Some(first) = shards.first() else {
                return Err(EngineError::Validation("router has no shards".into()));
            };
            Arc::clone(&first.ctx)
        };
        let entries = match wire::decode_registry_snapshot(&ctx, bytes) {
            Ok(entries) => entries,
            Err(e) => {
                crate::registry::note_snapshot_restore(false);
                return Err(e);
            }
        };
        let restored = entries.len();
        for (tenant, keys) in entries {
            self.register_tenant(tenant, keys)?;
        }
        crate::registry::note_snapshot_restore(true);
        Ok(restored)
    }

    /// Sets a tenant's fair-share weight on its current shard.
    ///
    /// # Errors
    ///
    /// [`EngineError::Validation`] when the router has no shards or the
    /// tenant routes to a remote shard (weights are a node-local knob).
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: f64) -> Result<(), EngineError> {
        let shard = self.shard_of(tenant)?;
        match shard.local() {
            Some(engine) => {
                engine.set_tenant_weight(tenant, weight);
                Ok(())
            }
            None => Err(EngineError::Validation(format!(
                "tenant {tenant} routes to remote shard {}; set its weight on that node",
                shard.id
            ))),
        }
    }

    /// Routes a request to its tenant's shard and submits it. Requests
    /// routed to a remote shard are forwarded as frames (with hedging)
    /// and the reply decoded back.
    ///
    /// # Errors
    ///
    /// See [`Engine::submit`]; additionally fails when the router has no
    /// shards.
    pub fn submit(&self, req: EvalRequest) -> Result<JobHandle, EngineError> {
        let (tx, rx) = mpsc::channel();
        let (_, id) = self.submit_with_callback(req, move |outcome| {
            let _ = tx.send(outcome);
        })?;
        Ok(JobHandle::from_channel(id, rx))
    }

    /// Routes a request and delivers the outcome to `done` from the
    /// owning shard's worker thread (or, for remote shards, the reply
    /// reader thread). Returns `(shard, job_id)` — job ids are scoped
    /// per shard.
    ///
    /// # Errors
    ///
    /// See [`Engine::submit_with_callback`]; additionally fails when the
    /// router has no shards.
    pub fn submit_with_callback<F>(
        &self,
        req: EvalRequest,
        done: F,
    ) -> Result<(ShardId, u64), EngineError>
    where
        F: FnOnce(Result<EvalResponse, EngineError>) + Send + 'static,
    {
        let shard = self.shard_of(req.tenant)?;
        match &shard.imp {
            ShardImpl::Local(engine) => {
                let id = engine.submit_with_callback(req, done)?;
                Ok((shard.id, id))
            }
            ShardImpl::Remote(_) => {
                let frame = wire::encode_request(&req);
                let ctx = Arc::clone(&shard.ctx);
                self.dispatch_frame_with_callback(&frame, move |reply| {
                    let outcome = match wire::decode_response(&ctx, &reply) {
                        Ok(wire::ResponseFrame::Ok(resp)) => Ok(resp),
                        // Re-raise a proxied refusal with its original
                        // code and hint intact, not as a transport error.
                        Ok(wire::ResponseFrame::Err {
                            code,
                            retry_after_us,
                            message,
                            ..
                        }) => Err(EngineError::from_wire(code, retry_after_us, message)),
                        Err(e) => Err(e),
                    };
                    done(outcome);
                })
            }
        }
    }

    /// Submit and wait (convenience).
    ///
    /// # Errors
    ///
    /// See [`ShardRouter::submit`].
    pub fn call(&self, req: EvalRequest) -> Result<EvalResponse, EngineError> {
        self.submit(req)?.wait()
    }

    /// Routes a serialized `HEVQ` request frame: an explicit shard address
    /// wins, an unrouted frame is placed by tenant hash; the request is
    /// decoded against that shard's context, evaluated, and the outcome
    /// returned as an `HEVP` frame stamped with the producing shard.
    /// Transport-level failures (bad frame, no shards) come back as error
    /// frames with job id `u64::MAX`.
    pub fn dispatch_frame(&self, frame: &[u8]) -> Vec<u8> {
        let (tx, rx) = mpsc::channel();
        match self.dispatch_frame_with_callback(frame, move |reply| {
            let _ = tx.send(reply);
        }) {
            Ok(_) => rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    wire::encode_response(&Err((
                        u64::MAX,
                        EngineError::Internal("no reply within 60s".into()),
                    )))
                }),
            Err(e) => wire::encode_response(&Err((u64::MAX, e))),
        }
    }

    /// Resolves a frame's target shards from its header alone: an
    /// explicit shard address wins (and opts out of hedging — the caller
    /// chose); an unrouted frame is placed health-aware by tenant hash,
    /// with the tenant's key replica as hedge target.
    fn resolve_pair(&self, frame: &[u8]) -> Result<(Arc<Shard>, Option<Arc<Shard>>), EngineError> {
        match wire::peek_shard(frame)? {
            Some(id) => Ok((self.shard(id)?, None)),
            None => {
                let tenant = wire::peek_tenant(frame)?;
                let topo = self.topo.read().unwrap();
                self.place_pair(&topo, tenant)
                    .ok_or_else(|| EngineError::Validation("router has no shards".into()))
            }
        }
    }

    /// The pipelined frame seam: routes a serialized `HEVQ` request frame
    /// like [`ShardRouter::dispatch_frame`], but returns as soon as the
    /// job is queued (or forwarded, for remote shards) and delivers the
    /// stamped `HEVP` reply frame to `done`. This is what a TCP
    /// front-end uses to keep many frames in flight per connection.
    ///
    /// Jobs that fail *after* submission come back through `done` as
    /// error frames stamped with the producing shard and job id
    /// `u64::MAX` (the engine's callback does not carry the id on the
    /// error path); transports that need exact correlation attach their
    /// own envelope around the frame, as `hefv-net` does.
    ///
    /// # Errors
    ///
    /// Routing, decode and submission failures are returned synchronously
    /// — `done` is *not* called — so the caller can encode them itself
    /// (e.g. with [`wire::encode_response`]) without giving up the
    /// callback.
    pub fn dispatch_frame_with_callback<F>(
        &self,
        frame: &[u8],
        done: F,
    ) -> Result<(ShardId, u64), EngineError>
    where
        F: FnOnce(Vec<u8>) + Send + 'static,
    {
        let (primary, replica) = self.resolve_pair(frame)?;
        if let Some(engine) = primary.local() {
            let req = wire::decode_request(&primary.ctx, frame)?;
            let stamp = primary.id as u8;
            let id = engine.submit_with_callback(req, move |outcome| {
                let outcome = outcome.map_err(|e| (u64::MAX, e));
                done(wire::encode_response_from_shard(&outcome, stamp));
            })?;
            return Ok((primary.id, id));
        }
        // Remote primary: there is no blocking submit on the proxy, so
        // absorb backpressure here by retrying the non-blocking path.
        let cell: Arc<Mutex<Option<FrameCallback>>> = Arc::new(Mutex::new(Some(Box::new(done))));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let cell2 = Arc::clone(&cell);
            let attempt = Box::new(move |reply: Vec<u8>| {
                if let Some(f) = cell2.lock().unwrap().take() {
                    f(reply);
                }
            });
            match self.dispatch_remote(&primary, replica.clone(), frame, attempt)? {
                Some(placed) => return Ok(placed),
                None => {
                    if Instant::now() >= deadline {
                        // 30 s of sustained backpressure is an overload
                        // refusal, not an internal fault — the caller's
                        // retry policy should see it as such.
                        return Err(EngineError::Overload {
                            retry_after_us: None,
                        });
                    }
                    if let Some(r) = primary.remote() {
                        r.wait_for_space(Duration::from_millis(5));
                    }
                }
            }
        }
    }

    /// Non-blocking [`ShardRouter::dispatch_frame_with_callback`]:
    /// `Ok(None)` means the owning shard's queue (or the remote proxy's
    /// in-flight window) is at capacity — nothing was enqueued, `done`
    /// was dropped unused, and the caller should hold the frame and
    /// retry. This is what lets the TCP poll thread turn engine
    /// backpressure into TCP backpressure instead of parking mid-sweep.
    ///
    /// # Errors
    ///
    /// Same as [`ShardRouter::dispatch_frame_with_callback`]; a full
    /// queue is `Ok(None)`, not an error.
    pub fn try_dispatch_frame_with_callback<F>(
        &self,
        frame: &[u8],
        done: F,
    ) -> Result<Option<(ShardId, u64)>, EngineError>
    where
        F: FnOnce(Vec<u8>) + Send + 'static,
    {
        let (primary, replica) = self.resolve_pair(frame)?;
        match &primary.imp {
            ShardImpl::Local(engine) => {
                // Header-only pre-check: while the shard is saturated,
                // refuse before paying for the payload decode — a stalled
                // caller may retry the same multi-MB frame every sweep.
                // The try-push below remains the authority on the race.
                if engine.queue_is_full() {
                    engine.shared().stats().on_refused();
                    return Ok(None);
                }
                let req = wire::decode_request(&primary.ctx, frame)?;
                let stamp = primary.id as u8;
                let id = engine.try_submit_with_callback(req, move |outcome| {
                    let outcome = outcome.map_err(|e| (u64::MAX, e));
                    done(wire::encode_response_from_shard(&outcome, stamp));
                })?;
                Ok(id.map(|id| (primary.id, id)))
            }
            ShardImpl::Remote(_) => self.dispatch_remote(&primary, replica, frame, Box::new(done)),
        }
    }

    /// Forwards a frame to a remote primary, arming a hedge to `replica`
    /// when configured. Returns the proxy correlation id as the job id.
    fn dispatch_remote(
        &self,
        primary: &Arc<Shard>,
        replica: Option<Arc<Shard>>,
        frame: &[u8],
        done: FrameCallback,
    ) -> Result<Option<(ShardId, u64)>, EngineError> {
        let r = primary.remote().expect("dispatch_remote on local shard");
        if r.at_capacity() {
            return Ok(None);
        }
        let once = Arc::new(OnceReply::new(done));
        let task = match (&self.cfg.hedge, replica) {
            (Some(_), Some(rep)) => Some(Arc::new(HedgeTask {
                once: Arc::clone(&once),
                fired: AtomicBool::new(false),
                live: AtomicI64::new(1),
                frame: frame.to_vec(),
                replica: rep,
                counters: Arc::clone(&self.counters),
            })),
            _ => None,
        };
        let stamp = primary.id as u8;
        let cb = {
            let once = Arc::clone(&once);
            let task = task.clone();
            move |result: Result<Vec<u8>, EngineError>| match result {
                Ok(mut reply) => {
                    wire::restamp_response_shard(&mut reply, stamp);
                    match &task {
                        Some(t) => t.complete_reply(reply, false),
                        None => {
                            once.complete(reply);
                        }
                    }
                }
                Err(e) => match &task {
                    Some(t) => t.on_arm_error(),
                    None => {
                        once.complete(wire::encode_response(&Err((u64::MAX, e))));
                    }
                },
            }
        };
        match r.try_dispatch(frame, cb) {
            Ok(Some(corr)) => {
                if let Some(t) = &task {
                    let hedge = self.cfg.hedge.as_ref().expect("task implies hedge config");
                    self.counters.armed.fetch_add(1, Ordering::Relaxed);
                    self.arm_hedge(Instant::now() + hedge_delay(hedge, frame), Arc::clone(t));
                }
                Ok(Some((primary.id, corr)))
            }
            Ok(None) => Ok(None),
            Err(e) => match task {
                // Synchronous failure (circuit open, pool dead): fail
                // over to the replica immediately.
                Some(t) => {
                    t.fired.store(true, Ordering::Release);
                    match t.dispatch_replica() {
                        Ok(Some(id)) => {
                            self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                            Ok(Some((t.replica.id, id)))
                        }
                        Ok(None) => Ok(None),
                        Err(_) => Err(e),
                    }
                }
                None => Err(e),
            },
        }
    }

    /// Arms the (lazily spawned) hedge-timer thread.
    fn arm_hedge(&self, at: Instant, task: Arc<HedgeTask>) {
        let mut guard = self.hedger.lock().unwrap();
        if guard.is_none() {
            let hedger = Arc::new(Hedger::new());
            let runner = Arc::clone(&hedger);
            let handle = std::thread::Builder::new()
                .name("hefv-hedge-timer".into())
                .spawn(move || runner.run())
                .expect("spawn hedge timer thread");
            *guard = Some((hedger, handle));
        }
        guard.as_ref().expect("just spawned").0.arm(at, task);
    }

    fn stop_hedger(&self) {
        if let Some((hedger, handle)) = self.hedger.lock().unwrap().take() {
            hedger.stop();
            let _ = handle.join();
        }
    }

    fn all_shards(&self) -> Vec<Arc<Shard>> {
        self.topo.read().unwrap().shards.values().cloned().collect()
    }

    /// Telemetry: every local shard's snapshot, every remote shard's
    /// transport counters, hedging counters, plus the local-fleet total.
    pub fn stats(&self) -> RouterStats {
        let mut total: Option<StatsSnapshot> = None;
        let mut per_shard = Vec::new();
        let mut remote = Vec::new();
        let mut keys_evicted = 0u64;
        for shard in self.all_shards() {
            match &shard.imp {
                ShardImpl::Local(engine) => {
                    let stats = engine.stats();
                    keys_evicted += engine.registry().evictions();
                    match &mut total {
                        None => total = Some(stats.clone()),
                        Some(t) => t.absorb(&stats),
                    }
                    per_shard.push(ShardStats {
                        id: shard.id,
                        name: shard.name.clone(),
                        up: true,
                        stats,
                    });
                }
                ShardImpl::Remote(r) => {
                    remote.push(RemoteShardStats {
                        id: shard.id,
                        name: shard.name.clone(),
                        endpoint: r.endpoint(),
                        stats: r.stats(),
                    });
                }
            }
        }
        RouterStats {
            per_shard,
            remote,
            hedge: self.counters.snapshot(),
            keys_evicted,
            total: total.unwrap_or_else(|| crate::stats::EngineStats::default().snapshot()),
        }
    }

    /// The most recent job spans from every local shard's flight
    /// recorder, as `(shard id, shard name, spans oldest-first)`.
    pub fn trace_spans(&self) -> Vec<(ShardId, String, Vec<crate::trace::SpanRecord>)> {
        self.all_shards()
            .into_iter()
            .filter_map(|s| {
                let engine = s.local()?;
                Some((s.id, s.name.clone(), engine.recorder().recent()))
            })
            .collect()
    }

    /// The most recent *slow* job spans (over each engine's slow-job
    /// threshold) from every local shard's flight recorder.
    pub fn slow_spans(&self) -> Vec<(ShardId, String, Vec<crate::trace::SpanRecord>)> {
        self.all_shards()
            .into_iter()
            .filter_map(|s| {
                let engine = s.local()?;
                Some((s.id, s.name.clone(), engine.recorder().slow_spans()))
            })
            .collect()
    }

    /// Plain-text rendering of [`ShardRouter::trace_spans`] and
    /// [`ShardRouter::slow_spans`] — the `HEVS` traces payload: one
    /// `trace=0x…` line per span, grouped per shard, slow spans last.
    pub fn render_traces(&self) -> String {
        let mut out = String::new();
        for (section, groups) in [("recent", self.trace_spans()), ("slow", self.slow_spans())] {
            for (id, name, spans) in groups {
                out.push_str(&format!(
                    "# shard {id} ({name}): {} {section} spans\n",
                    spans.len()
                ));
                for span in spans {
                    out.push_str(&span.to_string());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Shuts every shard down: pending jobs drain, workers join, remote
    /// pools disconnect. Takes `&self` so a router shared behind an
    /// [`Arc`] (e.g. with a TCP front-end) can be stopped by any holder;
    /// the router is empty — but valid — afterwards, and refuses traffic
    /// like a fresh one.
    pub fn shutdown(&self) {
        self.stop_hedger();
        let shards = {
            let mut topo = self.topo.write().unwrap();
            topo.ring.clear();
            topo.pins.clear();
            std::mem::take(&mut topo.shards)
        };
        for shard in shards.values() {
            if let Some(r) = shard.remote() {
                r.shutdown();
            }
        }
        drop(shards);
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.stop_hedger();
    }
}

/// The hedge delay for one frame: the configured delay, clamped to a
/// fraction of the frame's deadline when it carries one.
fn hedge_delay(cfg: &HedgeConfig, frame: &[u8]) -> Duration {
    let mut delay = cfg.delay;
    if let Ok(Some(deadline_us)) = wire::peek_deadline(frame) {
        let scaled = (deadline_us * cfg.deadline_fraction / 1e6).max(0.0);
        delay = delay.min(Duration::from_secs_f64(scaled));
    }
    delay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_router(n_shards: usize) -> ShardRouter {
        use hefv_core::params::FvParams;
        let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
        let router = ShardRouter::new();
        for i in 0..n_shards {
            router
                .add_shard(ShardSpec {
                    name: format!("s{i}"),
                    ctx: Arc::clone(&ctx),
                    config: EngineConfig {
                        workers: 1,
                        ..EngineConfig::default()
                    },
                })
                .unwrap();
        }
        router
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let router = bare_router(3);
        for tenant in 0..200u64 {
            let a = router.shard_for(tenant).unwrap();
            let b = router.shard_for(tenant).unwrap();
            assert_eq!(a, b);
            assert!(a < 3);
        }
        router.shutdown();
    }

    #[test]
    fn every_shard_owns_some_tenants() {
        let router = bare_router(3);
        let mut seen = std::collections::HashSet::new();
        for tenant in 0..500u64 {
            seen.insert(router.shard_for(tenant).unwrap());
        }
        assert_eq!(seen.len(), 3, "ring leaves a shard empty");
        router.shutdown();
    }

    #[test]
    fn pins_override_the_ring() {
        let router = bare_router(2);
        let tenant = 7;
        let hashed = router.shard_for(tenant).unwrap();
        let other = 1 - hashed;
        router.pin_tenant(tenant, other).unwrap();
        assert_eq!(router.shard_for(tenant), Some(other));
        assert!(router.unpin_tenant(tenant));
        assert_eq!(router.shard_for(tenant), Some(hashed));
        assert!(router.pin_tenant(tenant, 99).is_err(), "unknown shard");
        router.shutdown();
    }

    #[test]
    fn removed_shard_ids_are_reused() {
        use hefv_core::params::FvParams;
        let router = bare_router(2);
        assert!(router.remove_shard(0));
        assert!(!router.remove_shard(0), "already gone");
        let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
        let id = router
            .add_shard(ShardSpec {
                name: "replacement".into(),
                ctx,
                config: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
        assert_eq!(id, 0, "rolling replacement reuses the retired id");
        assert_eq!(router.shards().len(), 2);
        router.shutdown();
    }

    #[test]
    fn empty_router_rejects_traffic() {
        let router = ShardRouter::new();
        assert_eq!(router.shard_for(1), None);
        assert!(router.register_tenant(1, TenantKeys::default()).is_err());
        router.shutdown();
    }

    #[test]
    fn key_targets_follow_pins_and_ring() {
        let router = bare_router(3);
        let tenant = 11;
        {
            let topo = router.topo.read().unwrap();
            let targets = router.key_targets(&topo, tenant);
            assert_eq!(targets.len(), 2, "key_replicas=2 over 3 shards");
            assert_eq!(targets[0], ShardRouter::place(&topo, tenant).unwrap());
            assert_ne!(targets[0], targets[1]);
        }
        // A pin prepends the pinned shard and keeps a ring successor.
        let pinned = {
            let topo = router.topo.read().unwrap();
            let hashed = ShardRouter::place(&topo, tenant).unwrap();
            (0..3).find(|id| *id != hashed).unwrap()
        };
        router.pin_tenant(tenant, pinned).unwrap();
        {
            let topo = router.topo.read().unwrap();
            let targets = router.key_targets(&topo, tenant);
            assert_eq!(targets[0], pinned);
            assert_eq!(targets.len(), 2);
        }
        router.shutdown();
    }

    #[test]
    fn registered_keys_replicate_to_ring_successor() {
        let router = bare_router(3);
        let tenant = 5;
        router
            .register_tenant(tenant, TenantKeys::default())
            .unwrap();
        let targets = {
            let topo = router.topo.read().unwrap();
            router.key_targets(&topo, tenant)
        };
        assert_eq!(targets.len(), 2);
        for id in targets {
            let shard = router.shard(id).unwrap();
            assert!(
                shard.local().unwrap().registry().get(tenant).is_some(),
                "keys missing on shard {id}"
            );
        }
        router.shutdown();
    }

    #[test]
    fn anti_entropy_restores_lost_local_replicas() {
        let router = bare_router(3);
        let tenant = 5;
        router
            .register_tenant(tenant, TenantKeys::default())
            .unwrap();
        let targets = {
            let topo = router.topo.read().unwrap();
            router.key_targets(&topo, tenant)
        };
        // Simulate a replica losing the keys (eviction, restart, …).
        let victim = router.shard(targets[1]).unwrap();
        assert!(victim.local().unwrap().registry().remove(tenant));
        assert!(!victim.local().unwrap().registry().contains(tenant));
        let repaired = router.anti_entropy_sweep();
        assert_eq!(repaired, 1, "exactly the lost replica is re-pushed");
        assert!(victim.local().unwrap().registry().contains(tenant));
        // A second sweep finds nothing to do.
        assert_eq!(router.anti_entropy_sweep(), 0);
        router.shutdown();
    }

    #[test]
    fn router_snapshots_restore_registered_tenants() {
        let router = bare_router(2);
        for tenant in [3u64, 9] {
            router
                .register_tenant(tenant, TenantKeys::default())
                .unwrap();
        }
        let snapshot = router.snapshot_keys();
        router.shutdown();

        let fresh = bare_router(2);
        assert_eq!(fresh.restore_keys(&snapshot).unwrap(), 2);
        for tenant in [3u64, 9] {
            let shard = fresh.shard_of(tenant).unwrap();
            assert!(shard.local().unwrap().registry().contains(tenant));
        }
        // A corrupted snapshot is refused wholesale.
        let mut torn = snapshot.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x40;
        assert!(matches!(
            fresh.restore_keys(&torn),
            Err(EngineError::IntegrityFailure(_))
        ));
        fresh.shutdown();
    }

    #[test]
    fn pin_migrates_keys_before_commit() {
        let router = bare_router(3);
        let tenant = 5;
        router
            .register_tenant(tenant, TenantKeys::default())
            .unwrap();
        let holders: HashSet<ShardId> = {
            let topo = router.topo.read().unwrap();
            router.key_targets(&topo, tenant).into_iter().collect()
        };
        let outsider = (0..3).find(|id| !holders.contains(id)).unwrap();
        router.pin_tenant(tenant, outsider).unwrap();
        let shard = router.shard(outsider).unwrap();
        assert!(
            shard.local().unwrap().registry().get(tenant).is_some(),
            "pin committed without the keys in place"
        );
        router.shutdown();
    }
}
