//! The evaluation engine: a worker pool over the cost-aware job queue.
//!
//! Submission path: validate → price with [`CostEstimator`] → enqueue
//! with the tenant's QoS (weight, optional deadline). Workers pop the
//! next job under the EDF/stride/aged-cost policy, resolve the tenant's
//! keys from the [`KeyRegistry`], execute the op-graph on the worker's
//! own thread and scratch arena, and deliver the result through the
//! job's completion callback. All counters land in [`EngineStats`].

use crate::admission::{op_class_mask, Quarantine, SheddingPolicy};
use crate::chaos::{self, ChaosPlan};
use crate::error::EngineError;
use crate::registry::{KeyRegistry, TenantId, TenantKeys};
use crate::request::{EvalOp, EvalRequest, EvalResponse, JobReport, ValRef};
use crate::sched::{CostEstimator, JobQueue, QosSpec};
use crate::stats::EngineStats;
use crate::trace::{mix64, FlightRecorder, SpanRecord};
use hefv_core::context::FvContext;
use hefv_core::encrypt::Ciphertext;
use hefv_core::eval::{self, Backend, PlainOperand};
use hefv_core::galois::{apply_galois_in, sum_slots_in, HoistedCiphertext};
use hefv_core::noise::NoiseModel;
use hefv_core::scratch::Arena;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine construction parameters. `Default` picks sane values for the
/// current machine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing jobs (≥ 1). Each runs one job at a time,
    /// every op of it on its own thread and scratch arena, so the
    /// default, one worker per available core, keeps every core busy
    /// under load.
    pub workers: usize,
    /// Key-registry capacity in tenants.
    pub registry_capacity: usize,
    /// Queue bound: `submit` blocks once this many jobs are pending,
    /// pushing backpressure onto producers instead of growing memory.
    pub queue_capacity: usize,
    /// Scheduler aging weight in µs per arrival (0 = `mult_us / 16`).
    pub aging_weight_us: f64,
    /// Seed mixed with the job id to mint trace ids for requests that
    /// carry none, and to seed the per-worker chaos streams.
    pub trace_seed: u64,
    /// Capacity of the flight recorder's span rings (recent and slow
    /// each hold this many [`SpanRecord`]s); see [`crate::trace`].
    pub trace_ring: usize,
    /// Completed jobs whose total latency (queue + exec + reply)
    /// crosses this threshold are counted as slow and their spans
    /// promoted to the flight recorder's slow ring. `None` disables
    /// promotion.
    pub slow_threshold: Option<Duration>,
    /// Overload-control policy: which admission gates are armed and
    /// where they trip (see [`SheddingPolicy`]). Refusals carry a typed
    /// [`crate::error::ErrorCode`] all the way to wire clients.
    pub shedding: SheddingPolicy,
    /// Chaos-injection override: `Some` replaces the process-wide
    /// `HEFV_CHAOS` environment plan (tests set this to avoid touching
    /// the environment); `None` reads the env once per process.
    pub chaos: Option<ChaosPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            registry_capacity: 64,
            queue_capacity: 128,
            aging_weight_us: 0.0,
            trace_seed: 0x4845_4154, // "HEAT"
            trace_ring: 256,
            slow_threshold: Some(Duration::from_millis(100)),
            shedding: SheddingPolicy::default(),
            chaos: None,
        }
    }
}

type Callback = Box<dyn FnOnce(Result<EvalResponse, EngineError>) + Send + 'static>;

struct Job {
    id: u64,
    /// End-to-end trace id: the request's own if the client set one,
    /// minted deterministically at admission otherwise.
    trace_id: u64,
    req: EvalRequest,
    cost_us: f64,
    enqueued: Instant,
    done: Callback,
}

pub(crate) struct Shared {
    ctx: Arc<FvContext>,
    registry: KeyRegistry,
    stats: EngineStats,
    recorder: FlightRecorder,
    /// Mixed with the job id to mint trace ids for requests without one.
    trace_seed: u64,
    queue: JobQueue<Job>,
    noise: NoiseModel,
    estimator: CostEstimator,
    next_job_id: AtomicU64,
    /// Worker-pool size: the admission deadline gate divides the queue
    /// backlog by this for its serve-time estimate.
    workers: usize,
    shedding: SheddingPolicy,
    quarantine: Quarantine,
    /// Resolved chaos plan (config override or `HEFV_CHAOS`).
    chaos: ChaosPlan,
}

impl Shared {
    pub(crate) fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Validation, key checks, pricing and job construction — everything
    /// up to the actual enqueue.
    #[allow(clippy::type_complexity)]
    fn prepare<F>(&self, req: EvalRequest, done: F) -> Result<(u64, f64, QosSpec, Job), EngineError>
    where
        F: FnOnce(Result<EvalResponse, EngineError>) + Send + 'static,
    {
        req.validate(&self.ctx)?;
        let keys = self
            .registry
            .get(req.tenant)
            .ok_or(EngineError::UnknownTenant(req.tenant))?;
        if req.needs_rlk() && keys.rlk.is_none() {
            return Err(EngineError::MissingKey {
                tenant: req.tenant,
                which: "relin",
            });
        }
        if req.needs_galois() && keys.galois.is_none() {
            return Err(EngineError::MissingKey {
                tenant: req.tenant,
                which: "galois",
            });
        }
        // ---- Admission control: refuse work the engine cannot finish
        // (or should not attempt) with a typed, retryable-or-not code,
        // instead of burning worker time on it. Gate order matches
        // `crate::admission`'s module docs.
        if self.quarantine.enabled() {
            let sig = (req.tenant, op_class_mask(&req.ops));
            if let Some(remaining) = self.quarantine.check(sig, &self.stats) {
                return Err(self.shed(EngineError::Quarantined {
                    retry_after_us: remaining.as_micros() as u64,
                }));
            }
        }
        if self.shedding.noise_admission {
            let magnitude = self.predict_noise_magnitude(&req, &keys);
            let needed_bits = magnitude.log2();
            let budget_bits = self.noise.threshold_bits();
            if needed_bits >= budget_bits {
                return Err(self.shed(EngineError::NoiseBudgetExhausted {
                    needed_bits: needed_bits.ceil() as u64,
                    budget_bits: budget_bits.max(0.0) as u64,
                }));
            }
        }
        let high_water = self.shedding.memory_high_water_bytes;
        if high_water > 0 {
            let pooled_bytes = self.stats.arena_pooled_bytes_now();
            if pooled_bytes >= high_water {
                return Err(self.shed(EngineError::MemoryPressure {
                    pooled_bytes,
                    high_water_bytes: high_water,
                }));
            }
        }
        let id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let cost_us = self.estimator.request_us(&req);
        // Brownout: near saturation, deadline-less (lowest-QoS) traffic
        // is shed first so jobs with deadlines keep their headroom.
        if req.deadline_us.is_none() && self.shedding.brownout_occupancy < 1.0 {
            let depth = self.queue.depth() as f64;
            let capacity = self.queue.capacity() as f64;
            if depth >= self.shedding.brownout_occupancy * capacity {
                let drain_us = self.queue.backlog_us() / self.workers as f64;
                return Err(self.shed(EngineError::Overload {
                    retry_after_us: Some((drain_us as u64).max(1)),
                }));
            }
        }
        // Deadline feasibility: the job priced against the backlog. A
        // deadline that cannot be met even under the optimistic
        // all-workers-draining estimate is refused now, not executed
        // and missed later.
        if self.shedding.deadline_admission {
            if let Some(deadline_us) = req.deadline_us {
                let estimated_us = self.queue.backlog_us() / self.workers as f64 + cost_us;
                if estimated_us > deadline_us {
                    return Err(self.shed(EngineError::DeadlineInfeasible {
                        estimated_us: estimated_us as u64,
                        deadline_us: deadline_us.max(0.0) as u64,
                    }));
                }
            }
        }
        let qos = QosSpec {
            tenant: req.tenant,
            deadline_us: req.deadline_us,
        };
        // Client-supplied trace ids propagate verbatim; everyone else
        // gets a deterministic id minted from the engine seed and job id.
        let trace_id = req
            .trace_id
            .unwrap_or_else(|| mix64(self.trace_seed.wrapping_add(mix64(id))));
        let job = Job {
            id,
            trace_id,
            req,
            cost_us,
            enqueued: Instant::now(),
            done: Box::new(done),
        };
        Ok((id, cost_us, qos, job))
    }

    /// Counts an admission refusal in the shed telemetry and hands the
    /// error back (every admission gate returns through here).
    fn shed(&self, err: EngineError) -> EngineError {
        self.stats.on_shed(err.code());
        err
    }

    /// Replays `execute`'s worst-case noise recurrence over the op graph
    /// — pure arithmetic on the [`NoiseModel`], no ciphertext is touched
    /// — and returns the predicted output noise magnitude. The admission
    /// noise gate compares this against the decryption-failure threshold
    /// so a graph that cannot close is refused at the door.
    fn predict_noise_magnitude(&self, req: &EvalRequest, keys: &TenantKeys) -> f64 {
        let fresh = self.noise.fresh();
        let mut noise: Vec<f64> = Vec::with_capacity(req.ops.len());
        let mag = |noise: &[f64], r: ValRef| -> f64 {
            match r {
                ValRef::Input(_) => fresh,
                ValRef::Op(j) => noise[j as usize],
            }
        };
        for op in &req.ops {
            let bits = match *op {
                EvalOp::Add(a, b) | EvalOp::Sub(a, b) => {
                    self.noise.after_add(mag(&noise, a), mag(&noise, b))
                }
                EvalOp::Neg(a) => mag(&noise, a),
                EvalOp::Mul(a, b) => self.noise.after_mul(mag(&noise, a), mag(&noise, b)),
                EvalOp::MulPlain(a, _) => self.noise.after_mul_plain(mag(&noise, a)),
                EvalOp::Rotate(a, _) => self.noise.after_key_switch(mag(&noise, a)),
                EvalOp::SumSlots(a) => {
                    let rounds = keys.galois.as_ref().map_or(0, |set| set.rounds());
                    self.noise.after_sum_slots(mag(&noise, a), rounds)
                }
            };
            noise.push(bits);
        }
        noise.last().copied().unwrap_or(fresh).max(fresh)
    }
}

/// Handle to one submitted job.
#[derive(Debug)]
pub struct JobHandle {
    /// Engine-assigned job id.
    pub id: u64,
    rx: mpsc::Receiver<Result<EvalResponse, EngineError>>,
}

impl JobHandle {
    /// Wraps an id and a result channel — how the router builds handles
    /// for jobs proxied to remote shards.
    pub(crate) fn from_channel(
        id: u64,
        rx: mpsc::Receiver<Result<EvalResponse, EngineError>>,
    ) -> Self {
        JobHandle { id, rx }
    }

    /// Blocks until the job completes.
    ///
    /// # Errors
    ///
    /// Propagates execution errors; [`EngineError::QueueClosed`] if the
    /// engine shut down before running the job.
    pub fn wait(self) -> Result<EvalResponse, EngineError> {
        self.rx.recv().unwrap_or(Err(EngineError::QueueClosed))
    }
}

/// The multi-tenant FHE evaluation engine. See the crate docs for an
/// end-to-end example.
pub struct Engine {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Starts the worker pool for one parameter set.
    pub fn start(ctx: Arc<FvContext>, config: EngineConfig) -> Self {
        let workers = config.workers.max(1);
        let estimator = CostEstimator::new(&ctx);
        let aging = if config.aging_weight_us > 0.0 {
            config.aging_weight_us
        } else {
            (estimator.mult_us() / 16.0).max(1e-6)
        };
        let shared = Arc::new(Shared {
            noise: NoiseModel::new(&ctx),
            registry: KeyRegistry::new(config.registry_capacity),
            stats: EngineStats::default(),
            recorder: FlightRecorder::new(
                config.trace_ring,
                config.slow_threshold.map(|d| d.as_nanos() as u64),
            ),
            trace_seed: config.trace_seed,
            queue: JobQueue::new(aging, config.queue_capacity),
            estimator,
            next_job_id: AtomicU64::new(0),
            workers,
            quarantine: Quarantine::new(&config.shedding),
            shedding: config.shedding,
            chaos: config.chaos.unwrap_or_else(chaos::plan),
            ctx,
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hefv-worker-{worker}"))
                    .spawn(move || worker_loop(&shared, worker as u32))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            shared,
            workers,
            handles,
        }
    }

    /// The evaluation context this engine serves.
    pub fn context(&self) -> &Arc<FvContext> {
        &self.shared.ctx
    }

    /// The tenant key registry (register/evict/inspect).
    pub fn registry(&self) -> &KeyRegistry {
        &self.shared.registry
    }

    /// Registers a tenant's keys (convenience for `registry().register`).
    pub fn register_tenant(&self, tenant: TenantId, keys: TenantKeys) {
        self.shared.registry.register(tenant, keys);
    }

    /// Sets a tenant's fair-share weight (default 1.0): while several
    /// tenants are backlogged, each receives service in proportion to its
    /// weight (stride scheduling — see [`crate::sched::JobQueue`]).
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: f64) {
        self.shared.queue.set_weight(tenant, weight);
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the job queue is at capacity right now (racy — a cheap
    /// pre-check for non-blocking submitters; see
    /// [`Engine::try_submit_with_callback`]).
    pub fn queue_is_full(&self) -> bool {
        self.shared.queue.is_full()
    }

    /// Current telemetry snapshot.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        // Expired quarantines decay on the scrape path too, so the
        // active gauge self-corrects even for signatures that stopped
        // submitting after their TTL started.
        self.shared.quarantine.sweep(&self.shared.stats);
        self.shared.stats.snapshot()
    }

    /// The engine's flight recorder: the most recent (and most recent
    /// slow) job spans. See [`crate::trace`].
    pub fn recorder(&self) -> &FlightRecorder {
        &self.shared.recorder
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// The scheduler's price for a request, µs (what the queue orders by).
    pub fn estimate_cost_us(&self, req: &EvalRequest) -> f64 {
        self.shared.estimator.request_us(req)
    }

    /// The cost estimator (the HPS price list) for this engine's
    /// parameter set.
    pub fn estimator(&self) -> &CostEstimator {
        &self.shared.estimator
    }

    /// Submits a request, delivering the result to `done` from a worker
    /// thread. Returns the job id.
    ///
    /// # Errors
    ///
    /// Fails fast (without calling `done`) on validation errors, unknown
    /// tenants, missing keys, or a closed queue.
    pub fn submit_with_callback<F>(&self, req: EvalRequest, done: F) -> Result<u64, EngineError>
    where
        F: FnOnce(Result<EvalResponse, EngineError>) + Send + 'static,
    {
        let shared = &*self.shared;
        let (id, cost_us, qos, job) = shared.prepare(req, done)?;
        shared.stats.on_submit();
        if !shared.queue.push_qos(cost_us, qos, job) {
            shared.stats.on_reject();
            return Err(EngineError::QueueClosed);
        }
        Ok(id)
    }

    /// Non-blocking [`Engine::submit_with_callback`]: `Ok(None)` means
    /// the queue is at capacity — nothing was enqueued (and `done` was
    /// not called); retry when load drops. This is the submission path
    /// for callers that must never park on backpressure, like the
    /// `hefv-net` poll thread.
    ///
    /// # Errors
    ///
    /// Same hard failures as [`Engine::submit_with_callback`];
    /// a full queue is `Ok(None)`, not an error.
    pub fn try_submit_with_callback<F>(
        &self,
        req: EvalRequest,
        done: F,
    ) -> Result<Option<u64>, EngineError>
    where
        F: FnOnce(Result<EvalResponse, EngineError>) + Send + 'static,
    {
        let shared = &*self.shared;
        let (id, cost_us, qos, job) = shared.prepare(req, done)?;
        match shared.queue.try_push_qos(cost_us, qos, job) {
            crate::sched::TryPush::Queued => {
                shared.stats.on_submit();
                Ok(Some(id))
            }
            crate::sched::TryPush::Full(_) => {
                shared.stats.on_refused();
                Ok(None)
            }
            crate::sched::TryPush::Closed(_) => {
                shared.stats.on_refused();
                Err(EngineError::QueueClosed)
            }
        }
    }

    /// Submits a request, returning a handle to wait on.
    ///
    /// # Errors
    ///
    /// See [`Engine::submit_with_callback`].
    pub fn submit(&self, req: EvalRequest) -> Result<JobHandle, EngineError> {
        let (tx, rx) = mpsc::channel();
        let id = self.submit_with_callback(req, move |r| {
            let _ = tx.send(r);
        })?;
        Ok(JobHandle { id, rx })
    }

    /// Submit and wait (convenience).
    ///
    /// # Errors
    ///
    /// See [`Engine::submit`].
    pub fn call(&self, req: EvalRequest) -> Result<EvalResponse, EngineError> {
        self.submit(req)?.wait()
    }

    /// Shuts the engine down: pending jobs drain, then workers exit.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.shared.queue.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    // The worker's scratch arena persists across jobs: after the first
    // few evaluations warm it up, the hot path allocates nothing.
    let worker_arena = Arena::new();
    // Occupancy last folded into the engine gauges; after each job the
    // delta to the current occupancy is reported (see
    // `EngineStats::on_arena`), so the gauges sum every worker's live
    // pool without a registry of arenas.
    let mut reported = worker_arena.stats();
    // Per-worker chaos stream: deterministic for a fixed engine seed,
    // distinct per worker (mirrors the net layer's per-connection
    // fault rng).
    let mut chaos_rng = mix64(shared.trace_seed ^ 0xC4A0_5EED ^ u64::from(worker));
    while let Some((job, level)) = shared.queue.pop_labeled() {
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        shared.stats.on_dequeue(queue_ns, level);
        let Job {
            id,
            trace_id,
            req,
            cost_us,
            done,
            ..
        } = job;
        let tenant = req.tenant;
        let started = Instant::now();
        if shared.chaos.active() {
            if shared.chaos.delay > Duration::ZERO {
                std::thread::sleep(shared.chaos.delay);
            }
            if chaos::roll(shared.chaos.alloc_pressure, &mut chaos_rng) {
                // Park a chunk in the arena: genuine pooled bytes,
                // visible to the occupancy gauges and the
                // MemoryPressure admission gate, bounded by the
                // arena's own limits.
                worker_arena.put(vec![0u64; chaos::PRESSURE_CHUNK_BYTES / 8]);
            }
        }
        let inject_panic = chaos::roll(shared.chaos.panic, &mut chaos_rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!("chaos: injected worker panic");
            }
            execute(shared, &req, &worker_arena)
        }))
        .unwrap_or_else(|_| {
            // A panicking (tenant, op-class) signature strikes the
            // quarantine table; K strikes and its submissions are
            // refused at admission until the TTL lapses.
            shared
                .quarantine
                .note_panic((tenant, op_class_mask(&req.ops)), &shared.stats);
            Err(EngineError::Internal(
                "job panicked during execution".into(),
            ))
        });
        let exec_ns = started.elapsed().as_nanos() as u64;
        let ok = result.is_ok();
        let result = match result {
            Ok((result, noise_bits)) => {
                shared.stats.on_complete(exec_ns, cost_us, noise_bits);
                shared
                    .stats
                    .on_tenant(tenant, queue_ns + exec_ns, noise_bits);
                Ok(EvalResponse {
                    job_id: id,
                    result,
                    report: JobReport {
                        worker,
                        queue_ns,
                        exec_ns,
                        est_cost_us: cost_us,
                        noise_bits_consumed: noise_bits,
                    },
                })
            }
            Err(e) => {
                shared.stats.on_fail();
                Err(e)
            }
        };
        let reply_start = Instant::now();
        done(result);
        let reply_ns = reply_start.elapsed().as_nanos() as u64;
        let span = SpanRecord {
            trace_id,
            job_id: id,
            tenant,
            worker: worker as usize,
            ok,
            level: level.as_str(),
            est_cost_us: cost_us,
            queue_ns,
            exec_ns,
            reply_ns,
        };
        if shared.recorder.record(span) {
            shared.stats.on_slow();
        }
        // The job's operand ciphertexts are dead: feed their buffers back
        // to the arena for the next job.
        for ct in req.inputs {
            worker_arena.recycle_ciphertext(ct);
        }
        let now = worker_arena.stats();
        shared.stats.on_arena(&reported, &now);
        reported = now;
    }
}

/// Runs the op program on the default HPS datapath. Returns the result
/// ciphertext and the estimated noise bits consumed —
/// `log2(out_magnitude / fresh_magnitude)` under the analytic worst-case
/// [`NoiseModel`] (decryption is never possible here because the engine
/// holds no secret keys).
///
/// Every heavy kernel draws its buffers from `arena`; dead intermediates
/// are recycled back into it before returning, so a warm worker arena
/// makes steady-state evaluation allocation-free. Runs of consecutive
/// `Rotate` ops over the same source value execute **hoisted**: one digit
/// decomposition ([`HoistedCiphertext`]) serves the whole run — this is
/// how wire clients request hoisted rotation batches (just list the
/// rotations back to back in the op program).
fn execute(
    shared: &Shared,
    req: &EvalRequest,
    arena: &Arena,
) -> Result<(Ciphertext, f64), EngineError> {
    let ctx = &*shared.ctx;
    let keys = shared
        .registry
        .get(req.tenant)
        .ok_or(EngineError::UnknownTenant(req.tenant))?;
    let fresh = shared.noise.fresh();
    let mut values: Vec<Ciphertext> = Vec::with_capacity(req.ops.len());
    let mut noise: Vec<f64> = Vec::with_capacity(req.ops.len());
    // Plaintext operands transform once per job and serve every MulPlain
    // referencing them.
    let mut plain_ops: Vec<Option<PlainOperand>> = Vec::new();
    plain_ops.resize_with(req.plaintexts.len(), || None);
    // Operands resolve to borrows: a ciphertext is hundreds of KB at the
    // paper's parameters, so cloning per reference would dominate cheap ops.
    fn val<'a>(inputs: &'a [Ciphertext], values: &'a [Ciphertext], r: ValRef) -> &'a Ciphertext {
        match r {
            ValRef::Input(i) => &inputs[i as usize],
            ValRef::Op(j) => &values[j as usize],
        }
    }
    let mag = |noise: &[f64], r: ValRef| -> f64 {
        match r {
            ValRef::Input(_) => fresh,
            ValRef::Op(j) => noise[j as usize],
        }
    };
    let galois_key = |g: u32| {
        let set = keys.galois.as_ref().ok_or(EngineError::MissingKey {
            tenant: req.tenant,
            which: "galois",
        })?;
        set.keys()
            .iter()
            .find(|k| k.g == g as usize)
            .ok_or(EngineError::MissingKey {
                tenant: req.tenant,
                which: "galois",
            })
    };
    let mut at = 0usize;
    while at < req.ops.len() {
        let op = req.ops[at];
        // A run of consecutive rotations of the same value hoists the
        // digit decomposition once for the whole run.
        if let EvalOp::Rotate(a, _) = op {
            let run = req.ops[at..]
                .iter()
                .take_while(|o| matches!(o, EvalOp::Rotate(b, _) if *b == a))
                .count();
            if run >= 2 {
                let t0 = Instant::now();
                let hoisted = HoistedCiphertext::new_in(ctx, val(&req.inputs, &values, a), arena);
                for o in &req.ops[at..at + run] {
                    let EvalOp::Rotate(_, g) = *o else {
                        unreachable!("run contains only rotations")
                    };
                    let key = galois_key(g)?;
                    values.push(hoisted.rotate_in(ctx, key, arena));
                    noise.push(shared.noise.after_key_switch(mag(&noise, a)));
                }
                hoisted.recycle(arena);
                // Telemetry: each rotation records an equal share of the
                // run's total (hoisted decomposition included), so the
                // per-op sums match wall time.
                let share = t0.elapsed().as_nanos() as u64 / run as u64;
                for o in &req.ops[at..at + run] {
                    shared.stats.record_op(o.name(), share);
                }
                at += run;
                continue;
            }
        }
        let t0 = Instant::now();
        let (out, out_bits) = match op {
            EvalOp::Add(a, b) => (
                eval::add(
                    ctx,
                    val(&req.inputs, &values, a),
                    val(&req.inputs, &values, b),
                ),
                shared.noise.after_add(mag(&noise, a), mag(&noise, b)),
            ),
            EvalOp::Sub(a, b) => (
                eval::sub(
                    ctx,
                    val(&req.inputs, &values, a),
                    val(&req.inputs, &values, b),
                ),
                shared.noise.after_add(mag(&noise, a), mag(&noise, b)),
            ),
            EvalOp::Neg(a) => (eval::neg(ctx, val(&req.inputs, &values, a)), mag(&noise, a)),
            EvalOp::Mul(a, b) => {
                let rlk = keys.rlk.as_ref().ok_or(EngineError::MissingKey {
                    tenant: req.tenant,
                    which: "relin",
                })?;
                let (ca, cb) = (val(&req.inputs, &values, a), val(&req.inputs, &values, b));
                (
                    eval::mul_in(ctx, ca, cb, rlk, Backend::default(), arena),
                    shared.noise.after_mul(mag(&noise, a), mag(&noise, b)),
                )
            }
            EvalOp::MulPlain(a, p) => {
                let operand = plain_ops[p as usize]
                    .get_or_insert_with(|| PlainOperand::new(ctx, &req.plaintexts[p as usize]));
                (
                    eval::mul_plain_operand_in(ctx, val(&req.inputs, &values, a), operand, arena),
                    shared.noise.after_mul_plain(mag(&noise, a)),
                )
            }
            EvalOp::Rotate(a, g) => {
                let key = galois_key(g)?;
                (
                    apply_galois_in(ctx, val(&req.inputs, &values, a), key, arena),
                    shared.noise.after_key_switch(mag(&noise, a)),
                )
            }
            EvalOp::SumSlots(a) => {
                let set = keys.galois.as_ref().ok_or(EngineError::MissingKey {
                    tenant: req.tenant,
                    which: "galois",
                })?;
                (
                    sum_slots_in(ctx, val(&req.inputs, &values, a), set, arena),
                    shared.noise.after_sum_slots(mag(&noise, a), set.rounds()),
                )
            }
        };
        shared
            .stats
            .record_op(op.name(), t0.elapsed().as_nanos() as u64);
        values.push(out);
        noise.push(out_bits);
        at += 1;
    }
    let result = values.pop().expect("validated: at least one op");
    // Dead intermediates feed the arena for the next job.
    for v in values {
        arena.recycle_ciphertext(v);
    }
    for p in plain_ops.into_iter().flatten() {
        arena.recycle(p.into_poly_ntt());
    }
    // Magnitudes → consumed bits relative to a fresh ciphertext.
    let out_magnitude = noise.last().copied().unwrap_or(fresh).max(fresh);
    let consumed = (out_magnitude.log2() - fresh.log2()).max(0.0);
    Ok((result, consumed))
}
