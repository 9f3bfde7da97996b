//! Cost-aware scheduling: the simulated-coprocessor cost model prices each
//! request, and a weighted, deadline-aware priority queue orders work on a
//! deterministic virtual clock.
//!
//! The paper's coprocessor gets its throughput from scheduling independent
//! RNS/NTT work units onto parallel RPAUs; at the service level the
//! analogous lever is choosing *which job* each worker runs next:
//!
//! * [`CostEstimator`] prices every request on the HPS coprocessor
//!   ([`hefv_sim::coproc::Coprocessor`], Table II), the datapath every
//!   engine job runs on ([`hefv_core::eval::Backend::default`]).
//!
//! * [`JobQueue`] is a three-level scheduler, deterministic given the push
//!   sequence (no wall-clock reads — time is *virtual*, advanced by the
//!   estimated cost of each popped job):
//!
//!   1. **Deadline guard (EDF).** A job may carry an absolute virtual
//!      deadline. The guard tracks every deadline job's *latest feasible
//!      start* (`deadline − cost`); if serving the cost-order candidate
//!      would push the virtual clock past any of them (or one has
//!      already passed), deadline jobs are served earliest-deadline-first
//!      instead — EDF exactly when feasibility is at stake, cost order
//!      otherwise. Each deadline job preempts at most once (it is then
//!      gone), so the bypass it inflicts on the cost order is bounded by
//!      the number of deadline jobs in the queue.
//!   2. **Weighted fair sharing across tenants (stride scheduling).**
//!      Every tenant has a weight; serving one of its jobs advances its
//!      *pass* by `cost / weight`, and the tenant with the smallest pass
//!      is served next. Over any backlogged interval each tenant's share
//!      of simulated service converges to `weight / Σ weights`. A tenant
//!      going idle forfeits unused credit: on re-activation its pass is
//!      clamped up to the global virtual service time.
//!   3. **Bounded-bypass SJF within a tenant.** Jobs of one tenant are
//!      ordered by *aged cost*, `key = arrival_seq × aging_weight_us +
//!      cost_us`: shortest-job-first, but a job can be overtaken by at
//!      most `cost / aging_weight` later-arriving cheaper jobs before its
//!      key is the minimum.

use crate::registry::TenantId;
use crate::request::{EvalOp, EvalRequest, ValRef};
use hefv_core::context::FvContext;
use hefv_sim::coproc::Coprocessor;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Condvar, Mutex};

/// Prices a request in simulated HPS-coprocessor microseconds.
#[derive(Debug, Clone)]
pub struct CostEstimator {
    mult_us: f64,
    add_us: f64,
    rotate_us: f64,
    /// Marginal price of one *additional* rotation in a hoisted batch
    /// (the decomposition already paid by the run's first rotation).
    rotate_hoisted_extra_us: f64,
    /// One hoisted slot sum (grouped doubling rounds).
    sum_slots_us: f64,
}

impl CostEstimator {
    /// Builds the per-op price list for one context by running the
    /// Table II microcode through the HPS cycle model once, instantiated
    /// at the *context's* ring degree (the calibrated per-instruction
    /// overheads stay at their Table II values).
    pub fn new(ctx: &FvContext) -> Self {
        let cop = Coprocessor {
            cost: hefv_sim::cost::CostModel {
                n: ctx.params().n,
                ..hefv_sim::cost::CostModel::default()
            },
            ..Coprocessor::default()
        };
        // Marginal hoisted rotation: the cost a batch pays for one more
        // rotation once the decomposition exists.
        let hoist1 = cop.run_hoisted_rotations(ctx, 1).total_us;
        let hoist2 = cop.run_hoisted_rotations(ctx, 2).total_us;
        CostEstimator {
            mult_us: cop.run_mult(ctx).total_us,
            add_us: cop.run_add().total_us,
            rotate_us: cop.run_rotate(ctx).total_us,
            rotate_hoisted_extra_us: hoist2 - hoist1,
            sum_slots_us: cop.run_sum_slots(ctx).total_us,
        }
    }

    /// Price of one op, µs.
    pub fn op_us(&self, op: &EvalOp) -> f64 {
        match op {
            EvalOp::Add(..) | EvalOp::Sub(..) | EvalOp::Neg(..) => self.add_us,
            EvalOp::Mul(..) => self.mult_us,
            // Ciphertext × plaintext skips lift/scale/relin: two forward
            // and two inverse transform sets plus pointwise work — priced
            // as a quarter Mult (the Mult microcode runs 4× that work
            // across the Q basis plus relinearization).
            EvalOp::MulPlain(..) => self.mult_us / 4.0,
            EvalOp::Rotate(..) => self.rotate_us,
            EvalOp::SumSlots(..) => self.sum_slots_us,
        }
    }

    /// Price of a whole request, µs. Consecutive rotations of the same
    /// source value share one digit decomposition (exactly how the engine
    /// executes them), so each after the first costs only its marginal
    /// share.
    pub fn request_us(&self, req: &EvalRequest) -> f64 {
        let mut total = 0.0;
        let mut prev: Option<ValRef> = None;
        for op in &req.ops {
            total += match op {
                EvalOp::Rotate(a, _) if prev == Some(*a) => self.rotate_hoisted_extra_us,
                _ => self.op_us(op),
            };
            prev = match op {
                EvalOp::Rotate(a, _) => Some(*a),
                _ => None,
            };
        }
        total
    }

    /// The price of one `Mult`, µs (used to derive the aging weight).
    pub fn mult_us(&self) -> f64 {
        self.mult_us
    }
}

/// Per-job scheduling metadata handed to [`JobQueue::push_qos`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QosSpec {
    /// The tenant whose fair-share account this job bills against.
    pub tenant: TenantId,
    /// Relative deadline on the virtual clock, µs from enqueue. `None`
    /// jobs are scheduled purely by weighted aged cost.
    pub deadline_us: Option<f64>,
}

/// The scheduler level that released a job — which of the three-level
/// policy's decisions was binding for that pop. Telemetry attributes
/// queue wait per level so an operator can see whether latency comes
/// from deadline pressure (`edf`), cross-tenant contention (`weighted`),
/// or plain backlog (`sjf`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedLevel {
    /// Level 1: the earliest-deadline-first guard (including admission
    /// diverts that protect a still-feasible deadline).
    Deadline,
    /// Level 2: the stride pick between multiple backlogged tenants.
    Weighted,
    /// Level 3: a single tenant's aged shortest-job-first heap.
    Shortest,
}

impl SchedLevel {
    /// All levels, in table order (`edf`, `weighted`, `sjf`).
    pub const ALL: [SchedLevel; 3] = [
        SchedLevel::Deadline,
        SchedLevel::Weighted,
        SchedLevel::Shortest,
    ];

    /// Metric label: `"edf"` / `"weighted"` / `"sjf"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SchedLevel::Deadline => "edf",
            SchedLevel::Weighted => "weighted",
            SchedLevel::Shortest => "sjf",
        }
    }

    /// Index into per-level tables (the order of [`SchedLevel::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SchedLevel::Deadline => 0,
            SchedLevel::Weighted => 1,
            SchedLevel::Shortest => 2,
        }
    }
}

/// Outcome of a [`JobQueue::try_push_qos`]: a refused job is handed
/// back so the caller can retry later (or drop it) without the queue
/// ever invoking — or losing — its callback.
pub enum TryPush<T> {
    /// The job was enqueued.
    Queued,
    /// The queue is at capacity; the job is returned untouched.
    Full(T),
    /// The queue is closed; the job is returned untouched.
    Closed(T),
}

/// Index-heap entry (lazily invalidated against the slab).
struct Keyed {
    key: f64,
    seq: u64,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Keyed {}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap over (key, seq) through a max BinaryHeap.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Entry<T> {
    job: T,
    tenant: TenantId,
    cost_us: f64,
}

struct TenantState {
    /// Stride pass: cumulative weighted service, µs.
    pass_us: f64,
    weight: f64,
    /// Aged-cost order over this tenant's live jobs (lazily invalidated).
    queued: BinaryHeap<Keyed>,
    /// Live jobs (heap entries may be stale after an EDF steal).
    live: usize,
}

struct QueueInner<T> {
    slab: HashMap<u64, Entry<T>>,
    /// Per-tenant scheduling state, present only while the tenant has
    /// live jobs — so the stride scan on pop is O(backlogged tenants)
    /// and tenant churn cannot grow the map without bound.
    tenants: HashMap<TenantId, TenantState>,
    /// Configured fair-share weights (operator-set, survives idleness).
    weights: HashMap<TenantId, f64>,
    /// Earliest-deadline index over deadline-carrying jobs (lazy).
    edf: BinaryHeap<Keyed>,
    /// Latest-feasible-start index (`deadline − cost`) over the same
    /// jobs (lazy): the admission guard that keeps a long non-deadline
    /// job from overshooting any deadline job's last start.
    lst: BinaryHeap<Keyed>,
    /// Virtual service clock: Σ cost of popped jobs, µs.
    virtual_now_us: f64,
    /// Σ estimated cost of the jobs waiting right now, µs — the
    /// backlog the admission deadline gate prices a new job against.
    queued_cost_us: f64,
    /// Pass of the most recently selected tenant (activation clamp).
    vtime_us: f64,
    next_seq: u64,
    closed: bool,
}

/// Blocking multi-producer/multi-consumer scheduling queue, bounded for
/// backpressure: `push` blocks while the queue is at capacity, so
/// producers slow to the workers' drain rate instead of growing the heap
/// (and the inline ciphertexts it holds) without limit.
///
/// Ordering is the three-level policy described in the module docs:
/// EDF-when-urgent over stride-weighted tenants over aged-cost SJF. The
/// queue never reads a wall clock, so the pop order is a deterministic
/// function of the push sequence.
pub struct JobQueue<T> {
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
    not_full: Condvar,
    capacity: usize,
    aging_weight_us: f64,
}

impl<T> JobQueue<T> {
    /// Creates the queue. `aging_weight_us` is the per-arrival aging
    /// increment (see the module docs for the starvation bound);
    /// `capacity` is the backpressure bound (≥ 1).
    pub fn new(aging_weight_us: f64, capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                slab: HashMap::new(),
                tenants: HashMap::new(),
                weights: HashMap::new(),
                edf: BinaryHeap::new(),
                lst: BinaryHeap::new(),
                virtual_now_us: 0.0,
                queued_cost_us: 0.0,
                vtime_us: 0.0,
                next_seq: 0,
                closed: false,
            }),
            available: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            aging_weight_us: aging_weight_us.max(f64::MIN_POSITIVE),
        }
    }

    /// Sets a tenant's fair-share weight (default 1.0; clamped to a small
    /// positive minimum). Takes effect for jobs served after the call.
    pub fn set_weight(&self, tenant: TenantId, weight: f64) {
        let weight = weight.max(1e-6);
        let mut inner = self.inner.lock().unwrap();
        inner.weights.insert(tenant, weight);
        if let Some(state) = inner.tenants.get_mut(&tenant) {
            state.weight = weight;
        }
    }

    /// The virtual service clock: cumulative estimated cost of every job
    /// popped so far, µs. Deadlines live on this axis.
    pub fn virtual_now_us(&self) -> f64 {
        self.inner.lock().unwrap().virtual_now_us
    }

    /// Enqueues a job with its cost estimate under tenant 0 with no
    /// deadline, blocking while the queue is full. Returns `false`
    /// (dropping the job) if the queue is closed.
    pub fn push(&self, cost_us: f64, job: T) -> bool {
        self.push_qos(cost_us, QosSpec::default(), job)
    }

    /// Enqueues a job with its cost estimate and scheduling metadata,
    /// blocking while the queue is full. Returns `false` (dropping the
    /// job) if the queue is closed.
    pub fn push_qos(&self, cost_us: f64, qos: QosSpec, job: T) -> bool {
        let mut inner = self.inner.lock().unwrap();
        while inner.slab.len() >= self.capacity && !inner.closed {
            inner = self.not_full.wait(inner).unwrap();
        }
        if inner.closed {
            return false;
        }
        Self::enqueue(&mut inner, self.aging_weight_us, cost_us, qos, job);
        drop(inner);
        self.available.notify_one();
        true
    }

    /// Non-blocking [`JobQueue::push_qos`]: refuses instead of waiting
    /// when the queue is at capacity, handing the job back so callers
    /// that must never block (a network poll loop) can apply their own
    /// backpressure and retry.
    pub fn try_push_qos(&self, cost_us: f64, qos: QosSpec, job: T) -> TryPush<T> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return TryPush::Closed(job);
        }
        if inner.slab.len() >= self.capacity {
            return TryPush::Full(job);
        }
        Self::enqueue(&mut inner, self.aging_weight_us, cost_us, qos, job);
        drop(inner);
        self.available.notify_one();
        TryPush::Queued
    }

    /// The enqueue body shared by the blocking and non-blocking pushes.
    /// Caller holds the lock and has already checked closed/capacity.
    fn enqueue(
        inner: &mut QueueInner<T>,
        aging_weight_us: f64,
        cost_us: f64,
        qos: QosSpec,
        job: T,
    ) {
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let cost_us = cost_us.max(0.0);
        inner.queued_cost_us += cost_us;
        let key = seq as f64 * aging_weight_us + cost_us;
        let deadline_us = qos
            .deadline_us
            .map(|rel| inner.virtual_now_us + rel.max(0.0));
        let vtime = inner.vtime_us;
        let weight = inner.weights.get(&qos.tenant).copied().unwrap_or(1.0);
        let tenant = inner.tenants.entry(qos.tenant).or_insert_with(|| {
            // A tenant (re-)activates at the current virtual service
            // point: unused credit is forfeited, so a long-idle tenant
            // cannot burst past everyone on a stale pass.
            TenantState {
                pass_us: vtime,
                weight,
                queued: BinaryHeap::new(),
                live: 0,
            }
        });
        tenant.queued.push(Keyed { key, seq });
        tenant.live += 1;
        if let Some(dl) = deadline_us {
            inner.edf.push(Keyed { key: dl, seq });
            inner.lst.push(Keyed {
                key: dl - cost_us,
                seq,
            });
        }
        inner.slab.insert(
            seq,
            Entry {
                job,
                tenant: qos.tenant,
                cost_us,
            },
        );
    }

    /// Blocks until a job is available (returning the next job under the
    /// EDF/stride/aged-cost policy) or the queue is closed and drained
    /// (returning `None`).
    pub fn pop(&self) -> Option<T> {
        self.pop_labeled().map(|(job, _)| job)
    }

    /// [`JobQueue::pop`], also reporting which scheduler level was
    /// binding for the pick (telemetry attributes queue wait per level).
    pub fn pop_labeled(&self) -> Option<(T, SchedLevel)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some((seq, level)) = Self::select(&mut inner) {
                let entry = inner.slab.remove(&seq).expect("selected seq is live");
                let t = inner
                    .tenants
                    .get_mut(&entry.tenant)
                    .expect("live job has a tenant");
                t.live -= 1;
                let pass = t.pass_us;
                t.pass_us += entry.cost_us / t.weight;
                let drained = t.live == 0;
                inner.vtime_us = inner.vtime_us.max(pass);
                inner.virtual_now_us += entry.cost_us;
                // Clamp: float cancellation must not leave a phantom
                // backlog behind an empty queue.
                inner.queued_cost_us = (inner.queued_cost_us - entry.cost_us).max(0.0);
                if drained {
                    // Idle tenants carry no state: the stride scan stays
                    // O(backlogged tenants) and tenant churn cannot grow
                    // the map. Forfeited pass is re-clamped on
                    // re-activation anyway.
                    inner.tenants.remove(&entry.tenant);
                }
                drop(inner);
                self.not_full.notify_one();
                return Some((entry.job, level));
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).unwrap();
        }
    }

    /// Picks the next job's seq (and the scheduler level that was
    /// binding for the pick), or `None` when empty. Caller holds the
    /// lock and removes the returned seq from the slab.
    fn select(inner: &mut QueueInner<T>) -> Option<(u64, SchedLevel)> {
        if inner.slab.is_empty() {
            return None;
        }
        // The deadline guard's trigger: the earliest *latest feasible
        // start* (`deadline − cost`) among live deadline jobs. Serving
        // any job that would push the virtual clock past it risks a
        // deadline that was still feasible, so the stride pick below is
        // admitted only if it fits in that slack.
        let min_lst = loop {
            match inner.lst.peek() {
                Some(top) if !inner.slab.contains_key(&top.seq) => {
                    inner.lst.pop();
                }
                Some(top) => break Some(top.key),
                None => break None,
            }
        };
        // Level 1: deadline work is already at stake — serve deadline
        // jobs earliest-deadline-first until the slack recovers.
        if min_lst.is_some_and(|lst| lst <= inner.virtual_now_us) {
            return Some((Self::pop_earliest_deadline(inner), SchedLevel::Deadline));
        }
        // Level 2: the backlogged tenant with the smallest stride pass
        // (ties broken by tenant id for determinism). With more than one
        // backlogged tenant the stride pick is the binding decision;
        // alone, it's a pass-through and level 3's heap decides.
        let contended = inner.tenants.values().filter(|t| t.live > 0).count() > 1;
        let tenant = inner
            .tenants
            .iter()
            .filter(|(_, t)| t.live > 0)
            .min_by(|(ida, a), (idb, b)| {
                a.pass_us
                    .partial_cmp(&b.pass_us)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| ida.cmp(idb))
            })
            .map(|(id, _)| *id)?;
        // Level 3: that tenant's lowest aged-cost job (skipping entries
        // stolen earlier by the deadline guard).
        let t = inner.tenants.get_mut(&tenant).expect("selected tenant");
        let candidate = loop {
            match t.queued.peek() {
                Some(top) if !inner.slab.contains_key(&top.seq) => {
                    t.queued.pop();
                }
                Some(top) => break top.seq,
                None => unreachable!("tenant with live > 0 has a live heap entry"),
            }
        };
        // Admission: running the candidate must not overshoot any
        // deadline job's last feasible start; otherwise divert to EDF
        // now, while the deadline is still makeable.
        let cost = inner.slab[&candidate].cost_us;
        if min_lst.is_some_and(|lst| inner.virtual_now_us + cost > lst) {
            return Some((Self::pop_earliest_deadline(inner), SchedLevel::Deadline));
        }
        inner
            .tenants
            .get_mut(&tenant)
            .expect("selected tenant")
            .queued
            .pop();
        let level = if contended {
            SchedLevel::Weighted
        } else {
            SchedLevel::Shortest
        };
        Some((candidate, level))
    }

    /// Pops the live job with the earliest deadline (the deadline guard's
    /// serve order). Only called when the `lst` index proved one exists.
    fn pop_earliest_deadline(inner: &mut QueueInner<T>) -> u64 {
        while let Some(top) = inner.edf.pop() {
            if inner.slab.contains_key(&top.seq) {
                return top.seq;
            }
        }
        unreachable!("lst index has a live entry, so edf does too");
    }

    /// Jobs currently waiting.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().slab.len()
    }

    /// Σ estimated cost of the jobs waiting right now, µs. Racy like
    /// [`JobQueue::depth`]; the admission deadline gate divides it by
    /// the worker count for a serve-time estimate.
    pub fn backlog_us(&self) -> f64 {
        self.inner.lock().unwrap().queued_cost_us
    }

    /// The backpressure bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a push right now would block (or a try-push refuse). Racy
    /// by nature — a cheap pre-check that lets callers skip expensive
    /// work (frame decode) while the queue is saturated; the push itself
    /// remains the authority.
    pub fn is_full(&self) -> bool {
        self.inner.lock().unwrap().slab.len() >= self.capacity
    }

    /// Closes the queue: pending jobs still drain, new pushes are refused,
    /// blocked poppers wake up.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.available.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hefv_core::params::FvParams;

    #[test]
    fn estimator_orders_ops_like_the_paper() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let est = CostEstimator::new(&ctx);
        let mul = est.op_us(&EvalOp::Mul(
            crate::request::ValRef::Input(0),
            crate::request::ValRef::Input(1),
        ));
        let add = est.op_us(&EvalOp::Add(
            crate::request::ValRef::Input(0),
            crate::request::ValRef::Input(1),
        ));
        let rot = est.op_us(&EvalOp::Rotate(crate::request::ValRef::Input(0), 3));
        let sum = est.op_us(&EvalOp::SumSlots(crate::request::ValRef::Input(0)));
        assert!(mul > add, "Mult must cost more than Add");
        assert!(rot > add, "a rotation is a relinearization-shaped SoP");
        assert!(sum > rot, "slot-sum is log2(n) rotations");
    }

    #[test]
    fn consecutive_rotations_price_as_a_hoisted_batch() {
        use crate::request::ValRef;
        use hefv_core::encoder::Plaintext;
        use hefv_core::encrypt::trivial_encrypt;
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let est = CostEstimator::new(&ctx);
        let ct = || {
            trivial_encrypt(
                &ctx,
                &Plaintext::new(vec![1], ctx.params().t, ctx.params().n),
            )
        };
        let run = |ops: Vec<EvalOp>| EvalRequest {
            tenant: 1,
            inputs: vec![ct(), ct()],
            plaintexts: Vec::new(),
            ops,
            deadline_us: None,
            trace_id: None,
        };
        let same = ValRef::Input(0);
        let batch = run(vec![
            EvalOp::Rotate(same, 3),
            EvalOp::Rotate(same, 9),
            EvalOp::Rotate(same, 27),
        ]);
        let independent = run(vec![
            EvalOp::Rotate(ValRef::Input(0), 3),
            EvalOp::Rotate(ValRef::Input(1), 9),
            EvalOp::Rotate(ValRef::Input(0), 27),
        ]);
        let hoisted = est.request_us(&batch);
        let separate = est.request_us(&independent);
        assert!(
            hoisted < separate,
            "hoisted {hoisted} vs separate {separate}"
        );
    }

    #[test]
    fn cheap_jobs_overtake_expensive_ones() {
        let q = JobQueue::new(1.0, 64);
        q.push(1000.0, "mult");
        q.push(3.0, "add1");
        q.push(3.0, "add2");
        assert_eq!(q.pop(), Some("add1"));
        assert_eq!(q.pop(), Some("add2"));
        assert_eq!(q.pop(), Some("mult"));
    }

    #[test]
    fn aging_bounds_bypass() {
        // aging weight 100 ⇒ a job costing 1000 more than the stream can
        // be overtaken at most 10 times.
        let q = JobQueue::new(100.0, 64);
        q.push(1000.0, -1i64); // the expensive job, seq 0, key 1000
        for i in 0..20 {
            q.push(0.0, i); // seq 1.., key 100, 200, ...
        }
        let mut seen_expensive_at = None;
        for pos in 0..21 {
            let j = q.pop().unwrap();
            if j == -1 {
                seen_expensive_at = Some(pos);
                break;
            }
        }
        let pos = seen_expensive_at.expect("expensive job served");
        assert!(pos <= 10, "bounded bypass violated: served at {pos}");
        assert!(pos >= 5, "SJF not in effect: served at {pos}");
    }

    #[test]
    fn full_queue_blocks_until_drained_or_closed() {
        let q = std::sync::Arc::new(JobQueue::new(1.0, 2));
        assert!(q.push(1.0, 1u32));
        assert!(q.push(1.0, 2));
        let qc = std::sync::Arc::clone(&q);
        let producer = std::thread::spawn(move || qc.push(1.0, 3));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.depth(), 2, "third push is blocked, not queued");
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap(), "push completes once drained");
        assert_eq!(q.depth(), 2);

        // A producer blocked on a full queue wakes (refused) on close.
        let q2 = std::sync::Arc::new(JobQueue::new(1.0, 1));
        assert!(q2.push(1.0, 1u32));
        let qc = std::sync::Arc::clone(&q2);
        let producer = std::thread::spawn(move || qc.push(1.0, 2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert!(
            !producer.join().unwrap(),
            "closed queue refuses blocked push"
        );
    }

    #[test]
    fn fifo_among_equal_costs() {
        let q = JobQueue::new(1.0, 64);
        for i in 0..10 {
            q.push(7.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_then_wakes() {
        let q = std::sync::Arc::new(JobQueue::new(1.0, 64));
        q.push(1.0, 1u32);
        q.close();
        assert!(!q.push(1.0, 2), "closed queue refuses work");
        assert_eq!(q.pop(), Some(1), "pending work drains");
        assert_eq!(q.pop(), None, "then poppers see shutdown");

        // A popper blocked on an empty queue wakes on close.
        let q2 = std::sync::Arc::new(JobQueue::<u32>::new(1.0, 64));
        let qc = std::sync::Arc::clone(&q2);
        let h = std::thread::spawn(move || qc.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn weights_bias_service_toward_heavier_tenants() {
        let q = JobQueue::new(1e-9, 1024); // negligible aging: pure shares
        q.set_weight(1, 1.0);
        q.set_weight(2, 3.0);
        for i in 0..40 {
            q.push_qos(
                10.0,
                QosSpec {
                    tenant: 1 + i % 2,
                    deadline_us: None,
                },
                1 + i % 2,
            );
        }
        // While both tenants are backlogged, the first 8 services split
        // 3:1 in favor of tenant 2.
        let first: Vec<u64> = (0..8).map(|_| q.pop().unwrap()).collect();
        let t2 = first.iter().filter(|&&t| t == 2).count();
        assert_eq!(t2, 6, "weight-3 tenant gets 3/4 of service: {first:?}");
    }

    #[test]
    fn urgent_deadlines_preempt_cost_order() {
        let q = JobQueue::new(1e-9, 64);
        // A deadline job that must start immediately (deadline == cost).
        q.push_qos(
            100.0,
            QosSpec {
                tenant: 1,
                deadline_us: Some(100.0),
            },
            -1i64,
        );
        for i in 0..5 {
            q.push(1.0, i); // cheaper, would otherwise all run first
        }
        assert_eq!(q.pop(), Some(-1), "urgent deadline preempts SJF");
        // A deadline with plenty of slack does NOT preempt.
        let q = JobQueue::new(1e-9, 64);
        q.push_qos(
            100.0,
            QosSpec {
                tenant: 1,
                deadline_us: Some(1_000_000.0),
            },
            -1i64,
        );
        q.push(1.0, 7i64);
        assert_eq!(q.pop(), Some(7), "slack deadline defers to SJF");
        assert_eq!(q.pop(), Some(-1));
    }

    #[test]
    fn virtual_clock_advances_by_served_cost() {
        let q = JobQueue::new(1.0, 64);
        q.push(25.0, 1u32);
        q.push(75.0, 2);
        assert_eq!(q.virtual_now_us(), 0.0);
        q.pop();
        assert!((q.virtual_now_us() - 25.0).abs() < 1e-9);
        q.pop();
        assert!((q.virtual_now_us() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_tracks_waiting_cost() {
        let q = JobQueue::new(1.0, 64);
        assert_eq!(q.backlog_us(), 0.0);
        assert_eq!(q.capacity(), 64);
        q.push(25.0, 1u32);
        q.push(75.0, 2);
        assert!((q.backlog_us() - 100.0).abs() < 1e-9);
        q.pop();
        assert!((q.backlog_us() - 75.0).abs() < 1e-9);
        q.pop();
        assert_eq!(q.backlog_us(), 0.0);
    }
}
