//! Engine telemetry: per-op and per-job latency distributions, queue
//! depth, scheduler attribution, per-tenant and noise-budget accounting.
//!
//! Everything on the recording side is lock-free atomics (the per-op
//! tables are [`Histogram`]s — a handful of relaxed fetch-adds per
//! sample) so the hot path never serializes on the stats; the per-tenant
//! table takes a read lock only to find an existing tenant's cell and a
//! write lock only the first time a tenant is seen.
//! [`EngineStats::snapshot`] produces a consistent read-mostly view for
//! operators, and [`StatsSnapshot::absorb`] folds shard snapshots into a
//! fleet view without losing quantile fidelity (histograms merge
//! exactly).

use crate::error::ErrorCode;
use crate::metrics::{Histogram, HistogramSnapshot};
use crate::sched::SchedLevel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Op classes tracked separately (indexes into the per-op tables).
pub const OP_KINDS: [&str; 7] = [
    "add",
    "sub",
    "neg",
    "mul",
    "mul_plain",
    "rotate",
    "sum_slots",
];

/// Index of an op name in [`OP_KINDS`] (`None` for unknown names).
pub fn op_index(name: &str) -> Option<usize> {
    OP_KINDS.iter().position(|&k| k == name)
}

/// Admission-refusal classes tracked by `hefv_shed_total{reason=}`, in
/// [`ErrorCode`] discriminant order over the shed subset of the
/// taxonomy (codes that admission control can refuse with).
pub const SHED_REASONS: [&str; 6] = [
    "overload",
    "deadline_infeasible",
    "memory_pressure",
    "noise_budget_exhausted",
    "quarantined",
    "shutting_down",
];

fn shed_index(code: ErrorCode) -> Option<usize> {
    match code {
        ErrorCode::Overload => Some(0),
        ErrorCode::DeadlineInfeasible => Some(1),
        ErrorCode::MemoryPressure => Some(2),
        ErrorCode::NoiseBudgetExhausted => Some(3),
        ErrorCode::Quarantined => Some(4),
        ErrorCode::ShuttingDown => Some(5),
        _ => None,
    }
}

/// Distinct tenants tracked individually; traffic beyond this folds into
/// one overflow cell (tenant id [`u64::MAX`]) so a tenant-id scan cannot
/// grow the table without bound.
pub const MAX_TENANT_CELLS: usize = 1024;

#[derive(Default)]
struct TenantCell {
    requests: AtomicU64,
    latency_ns: AtomicU64,
    /// Noise bits ×1000 (fixed-point for atomics).
    noise_bits_milli: AtomicU64,
}

/// Shared engine counters.
#[derive(Default)]
pub struct EngineStats {
    per_op: [Histogram; OP_KINDS.len()],
    exec: Histogram,
    queue_wait_by_level: [Histogram; SchedLevel::ALL.len()],
    tenants: RwLock<HashMap<u64, Arc<TenantCell>>>,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_slow: AtomicU64,
    queue_depth: AtomicU64,
    /// Simulated coprocessor µs ×1000 (stored fixed-point for atomics).
    sim_cost_mus: AtomicU64,
    /// Noise bits consumed ×1000.
    noise_bits_milli: AtomicU64,
    /// Scratch-arena occupancy gauges, summed over workers (each worker
    /// reports two's-complement deltas; see [`EngineStats::on_arena`]).
    arena_pooled_buffers: AtomicU64,
    arena_pooled_bytes: AtomicU64,
    /// Arena returns dropped by a pool high-water mark (monotonic).
    arena_dropped: AtomicU64,
    /// Admission refusals by shed class (indexes match [`SHED_REASONS`]).
    shed: [AtomicU64; SHED_REASONS.len()],
    /// (tenant, op-class) panic signatures quarantined right now (gauge).
    quarantine_active: AtomicU64,
}

impl EngineStats {
    /// Records one executed op of class `name` taking `ns` nanoseconds.
    pub fn record_op(&self, name: &str, ns: u64) {
        if let Some(i) = op_index(name) {
            self.per_op[i].record(ns);
        }
    }

    /// A job entered the queue.
    pub fn on_submit(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A job left the queue for a worker after waiting `queue_ns`,
    /// released by scheduler level `level`.
    pub fn on_dequeue(&self, queue_ns: u64, level: SchedLevel) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait_by_level[level.index()].record(queue_ns);
    }

    /// A job finished successfully after executing for `exec_ns`.
    pub fn on_complete(&self, exec_ns: u64, sim_cost_us: f64, noise_bits: f64) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.exec.record(exec_ns);
        self.sim_cost_mus
            .fetch_add((sim_cost_us * 1000.0) as u64, Ordering::Relaxed);
        self.noise_bits_milli
            .fetch_add((noise_bits.max(0.0) * 1000.0) as u64, Ordering::Relaxed);
    }

    /// Folds one worker arena's occupancy change into the engine-wide
    /// gauges. Each worker remembers the [`hefv_core::scratch::ArenaStats`]
    /// it last reported and passes `(previous, current)`; the gauge adds
    /// the two's-complement difference, so the engine totals stay the sum
    /// of every worker's *current* occupancy no matter how reports
    /// interleave (a shrinking pool wraps negative and the sum still
    /// comes out right).
    pub fn on_arena(
        &self,
        prev: &hefv_core::scratch::ArenaStats,
        now: &hefv_core::scratch::ArenaStats,
    ) {
        self.arena_pooled_buffers.fetch_add(
            now.pooled_buffers.wrapping_sub(prev.pooled_buffers),
            Ordering::Relaxed,
        );
        self.arena_pooled_bytes.fetch_add(
            now.pooled_bytes.wrapping_sub(prev.pooled_bytes),
            Ordering::Relaxed,
        );
        self.arena_dropped
            .fetch_add(now.dropped.wrapping_sub(prev.dropped), Ordering::Relaxed);
    }

    /// A job failed (after validation, i.e. at execution time).
    pub fn on_fail(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A submitted job was refused by a closing queue: undo its
    /// submission so `submitted = completed + failed + queued` holds,
    /// and count the refusal so it stays visible in telemetry.
    pub fn on_reject(&self) {
        self.jobs_submitted.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission was refused *before* admission (queue at capacity):
    /// nothing to undo, just count it. Retries count each time —
    /// `jobs_rejected` measures refused attempts, not distinct jobs.
    pub fn on_refused(&self) {
        self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission was shed at admission with refusal class `code`.
    /// Codes outside the shed taxonomy (validation errors, missing
    /// keys, …) are ignored: those are caller mistakes, not load.
    pub fn on_shed(&self, code: ErrorCode) {
        if let Some(i) = shed_index(code) {
            self.shed[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A (tenant, op-class) panic signature entered quarantine.
    pub fn on_quarantine_enter(&self) {
        self.quarantine_active.fetch_add(1, Ordering::Relaxed);
    }

    /// A quarantined signature's TTL lapsed.
    pub fn on_quarantine_exit(&self) {
        self.quarantine_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Bytes currently pooled across the worker arenas — the admission
    /// memory gate reads this directly so it never pays for a full
    /// [`EngineStats::snapshot`] on the submit path.
    pub fn arena_pooled_bytes_now(&self) -> u64 {
        self.arena_pooled_bytes.load(Ordering::Relaxed)
    }

    /// A completed job crossed the slow-job threshold (its span was
    /// promoted to the flight recorder's slow ring).
    pub fn on_slow(&self) {
        self.jobs_slow.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one completed request to its tenant: end-to-end latency
    /// (queue + exec) and estimated noise bits consumed.
    pub fn on_tenant(&self, tenant: u64, latency_ns: u64, noise_bits: f64) {
        let cell = self.tenant_cell(tenant);
        cell.requests.fetch_add(1, Ordering::Relaxed);
        cell.latency_ns.fetch_add(latency_ns, Ordering::Relaxed);
        cell.noise_bits_milli
            .fetch_add((noise_bits.max(0.0) * 1000.0) as u64, Ordering::Relaxed);
    }

    fn tenant_cell(&self, tenant: u64) -> Arc<TenantCell> {
        if let Some(cell) = self.tenants.read().expect("tenant table lock").get(&tenant) {
            return Arc::clone(cell);
        }
        let mut table = self.tenants.write().expect("tenant table lock");
        let key = if table.len() >= MAX_TENANT_CELLS && !table.contains_key(&tenant) {
            u64::MAX // overflow cell
        } else {
            tenant
        };
        Arc::clone(table.entry(key).or_default())
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Consistent-enough copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let per_op: Vec<OpSnapshot> = OP_KINDS
            .iter()
            .zip(&self.per_op)
            .map(|(&name, h)| {
                let latency = h.snapshot();
                OpSnapshot {
                    name,
                    count: latency.count,
                    total_ns: latency.sum,
                    max_ns: latency.max,
                    latency,
                }
            })
            .collect();
        let exec = self.exec.snapshot();
        let queue_wait_by_level: Vec<(&'static str, HistogramSnapshot)> = SchedLevel::ALL
            .iter()
            .zip(&self.queue_wait_by_level)
            .map(|(level, h)| (level.as_str(), h.snapshot()))
            .collect();
        let mut per_tenant: Vec<TenantSnapshot> = self
            .tenants
            .read()
            .expect("tenant table lock")
            .iter()
            .map(|(&tenant, cell)| TenantSnapshot {
                tenant,
                requests: cell.requests.load(Ordering::Relaxed),
                latency_ns: cell.latency_ns.load(Ordering::Relaxed),
                noise_bits: cell.noise_bits_milli.load(Ordering::Relaxed) as f64 / 1000.0,
            })
            .collect();
        per_tenant.sort_by_key(|t| t.tenant);
        StatsSnapshot {
            // Totals derive from the histograms' exact sums, so the
            // aggregate and distribution views can never disagree.
            queue_wait_ns: queue_wait_by_level.iter().map(|(_, h)| h.sum).sum(),
            exec_ns: exec.sum,
            per_op,
            exec,
            queue_wait_by_level,
            per_tenant,
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_slow: self.jobs_slow.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            sim_cost_us: self.sim_cost_mus.load(Ordering::Relaxed) as f64 / 1000.0,
            noise_bits_consumed: self.noise_bits_milli.load(Ordering::Relaxed) as f64 / 1000.0,
            arena_pooled_buffers: self.arena_pooled_buffers.load(Ordering::Relaxed),
            arena_pooled_bytes: self.arena_pooled_bytes.load(Ordering::Relaxed),
            arena_dropped: self.arena_dropped.load(Ordering::Relaxed),
            shed_by_reason: SHED_REASONS
                .iter()
                .zip(&self.shed)
                .map(|(&name, c)| (name, c.load(Ordering::Relaxed)))
                .collect(),
            quarantine_active: self.quarantine_active.load(Ordering::Relaxed),
        }
    }
}

/// Frozen view of one op class.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSnapshot {
    /// Op class name.
    pub name: &'static str,
    /// Executions.
    pub count: u64,
    /// Total execution time, ns.
    pub total_ns: u64,
    /// Worst single execution, ns (exact).
    pub max_ns: u64,
    /// Full latency distribution (p50/p95/p99 via
    /// [`HistogramSnapshot::quantile`]).
    pub latency: HistogramSnapshot,
}

impl OpSnapshot {
    /// Mean execution time in µs (0 when never executed).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1000.0
        }
    }
}

/// Frozen per-tenant accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant id ([`u64::MAX`] is the overflow cell past
    /// [`MAX_TENANT_CELLS`] distinct tenants).
    pub tenant: u64,
    /// Completed requests.
    pub requests: u64,
    /// Cumulative queue + exec latency, ns.
    pub latency_ns: u64,
    /// Estimated noise bits consumed.
    pub noise_bits: f64,
}

/// How a [`StatsSnapshot`] field folds under [`StatsSnapshot::absorb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Counts and totals: shard values add.
    Add,
    /// Maxima: the fleet value is the max over shards.
    Max,
}

/// Frozen view of the whole engine.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Per-op latency table (one entry per [`OP_KINDS`] class).
    pub per_op: Vec<OpSnapshot>,
    /// Job execution latency (every job runs on the HPS datapath).
    pub exec: HistogramSnapshot,
    /// Queue wait per scheduler level that released the job (one entry
    /// per [`SchedLevel`], labelled `edf` / `weighted` / `sjf`).
    pub queue_wait_by_level: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-tenant accounting, sorted by tenant id.
    pub per_tenant: Vec<TenantSnapshot>,
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs finished successfully.
    pub jobs_completed: u64,
    /// Jobs failed at execution time.
    pub jobs_failed: u64,
    /// Submissions refused (queue at capacity or closed); retries count
    /// each attempt.
    pub jobs_rejected: u64,
    /// Completed jobs over the slow-job threshold.
    pub jobs_slow: u64,
    /// Jobs waiting right now.
    pub queue_depth: u64,
    /// Cumulative queue wait, ns (sum over `queue_wait_by_level`).
    pub queue_wait_ns: u64,
    /// Cumulative execution wall time, ns (the sum of `exec`).
    pub exec_ns: u64,
    /// Cumulative simulated coprocessor cost, µs.
    pub sim_cost_us: f64,
    /// Cumulative estimated noise bits consumed.
    pub noise_bits_consumed: f64,
    /// Scratch buffers currently pooled across worker arenas (gauge).
    pub arena_pooled_buffers: u64,
    /// Bytes of backing capacity pooled across worker arenas (gauge).
    pub arena_pooled_bytes: u64,
    /// Arena returns dropped by a pool high-water mark (monotonic).
    pub arena_dropped: u64,
    /// Admission refusals by shed class (one entry per
    /// [`SHED_REASONS`], in that order).
    pub shed_by_reason: Vec<(&'static str, u64)>,
    /// (tenant, op-class) panic signatures quarantined right now
    /// (gauge; a fleet view sums the shards').
    pub quarantine_active: u64,
}

impl StatsSnapshot {
    /// Folds another snapshot into this one (the shard router aggregates
    /// its shards' engines this way): counts, totals and histogram
    /// buckets add, maxima take the max, tenants merge by id. Absorbing
    /// N shard snapshots produces exactly the snapshot of one engine
    /// that had recorded the union of their samples.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        // Exhaustive destructuring (no `..`): adding a StatsSnapshot
        // field without deciding how it folds is a compile error here.
        let StatsSnapshot {
            per_op,
            exec,
            queue_wait_by_level,
            per_tenant,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            jobs_rejected,
            jobs_slow,
            queue_depth,
            queue_wait_ns,
            exec_ns,
            sim_cost_us,
            noise_bits_consumed,
            arena_pooled_buffers,
            arena_pooled_bytes,
            arena_dropped,
            shed_by_reason,
            quarantine_active,
        } = other;
        for (mine, theirs) in self.shed_by_reason.iter_mut().zip(shed_by_reason) {
            debug_assert_eq!(mine.0, theirs.0, "SHED_REASONS order is fixed");
            mine.1 += theirs.1;
        }
        self.quarantine_active += quarantine_active;
        for (mine, theirs) in self.per_op.iter_mut().zip(per_op) {
            debug_assert_eq!(mine.name, theirs.name, "OP_KINDS order is fixed");
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.max_ns = mine.max_ns.max(theirs.max_ns);
            mine.latency.merge(&theirs.latency);
        }
        self.exec.merge(exec);
        for (mine, theirs) in self.queue_wait_by_level.iter_mut().zip(queue_wait_by_level) {
            debug_assert_eq!(mine.0, theirs.0, "SchedLevel order is fixed");
            mine.1.merge(&theirs.1);
        }
        for t in per_tenant {
            match self
                .per_tenant
                .binary_search_by_key(&t.tenant, |x| x.tenant)
            {
                Ok(i) => {
                    self.per_tenant[i].requests += t.requests;
                    self.per_tenant[i].latency_ns += t.latency_ns;
                    self.per_tenant[i].noise_bits += t.noise_bits;
                }
                Err(i) => self.per_tenant.insert(i, t.clone()),
            }
        }
        self.jobs_submitted += jobs_submitted;
        self.jobs_completed += jobs_completed;
        self.jobs_failed += jobs_failed;
        self.jobs_rejected += jobs_rejected;
        self.jobs_slow += jobs_slow;
        self.queue_depth += queue_depth;
        self.queue_wait_ns += queue_wait_ns;
        self.exec_ns += exec_ns;
        self.sim_cost_us += sim_cost_us;
        self.noise_bits_consumed += noise_bits_consumed;
        self.arena_pooled_buffers += arena_pooled_buffers;
        self.arena_pooled_bytes += arena_pooled_bytes;
        self.arena_dropped += arena_dropped;
    }

    /// Every scalar the snapshot carries, flattened to `(name, value,
    /// fold-kind)`. The exhaustive destructuring (no `..`) makes "added
    /// a counter, forgot to audit it" a compile error, and the stats
    /// tests drive every recorder and assert each entry both shows up
    /// here and folds correctly under [`StatsSnapshot::absorb`] — the
    /// add-a-counter-forget-absorb bug class dies in CI.
    pub fn audit_fields(&self) -> Vec<(String, f64, Fold)> {
        let StatsSnapshot {
            per_op,
            exec,
            queue_wait_by_level,
            per_tenant,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            jobs_rejected,
            jobs_slow,
            queue_depth,
            queue_wait_ns,
            exec_ns,
            sim_cost_us,
            noise_bits_consumed,
            arena_pooled_buffers,
            arena_pooled_bytes,
            arena_dropped,
            shed_by_reason,
            quarantine_active,
        } = self;
        let mut out: Vec<(String, f64, Fold)> = Vec::new();
        for (name, v) in shed_by_reason {
            out.push((format!("shed_by_reason.{name}"), *v as f64, Fold::Add));
        }
        for op in per_op {
            out.push((
                format!("per_op.{}.count", op.name),
                op.count as f64,
                Fold::Add,
            ));
            out.push((
                format!("per_op.{}.total_ns", op.name),
                op.total_ns as f64,
                Fold::Add,
            ));
            out.push((
                format!("per_op.{}.max_ns", op.name),
                op.max_ns as f64,
                Fold::Max,
            ));
        }
        out.push(("exec.count".into(), exec.count as f64, Fold::Add));
        out.push(("exec.sum".into(), exec.sum as f64, Fold::Add));
        out.push(("exec.max".into(), exec.max as f64, Fold::Max));
        for (name, h) in queue_wait_by_level {
            out.push((
                format!("queue_wait_by_level.{name}.count"),
                h.count as f64,
                Fold::Add,
            ));
            out.push((
                format!("queue_wait_by_level.{name}.sum"),
                h.sum as f64,
                Fold::Add,
            ));
            out.push((
                format!("queue_wait_by_level.{name}.max"),
                h.max as f64,
                Fold::Max,
            ));
        }
        out.push((
            "per_tenant.requests".into(),
            per_tenant.iter().map(|t| t.requests as f64).sum(),
            Fold::Add,
        ));
        out.push((
            "per_tenant.latency_ns".into(),
            per_tenant.iter().map(|t| t.latency_ns as f64).sum(),
            Fold::Add,
        ));
        out.push((
            "per_tenant.noise_bits".into(),
            per_tenant.iter().map(|t| t.noise_bits).sum(),
            Fold::Add,
        ));
        for (name, v, fold) in [
            ("jobs_submitted", *jobs_submitted as f64, Fold::Add),
            ("jobs_completed", *jobs_completed as f64, Fold::Add),
            ("jobs_failed", *jobs_failed as f64, Fold::Add),
            ("jobs_rejected", *jobs_rejected as f64, Fold::Add),
            ("jobs_slow", *jobs_slow as f64, Fold::Add),
            ("queue_depth", *queue_depth as f64, Fold::Add),
            ("queue_wait_ns", *queue_wait_ns as f64, Fold::Add),
            ("exec_ns", *exec_ns as f64, Fold::Add),
            ("sim_cost_us", *sim_cost_us, Fold::Add),
            ("noise_bits_consumed", *noise_bits_consumed, Fold::Add),
            (
                "arena_pooled_buffers",
                *arena_pooled_buffers as f64,
                Fold::Add,
            ),
            ("arena_pooled_bytes", *arena_pooled_bytes as f64, Fold::Add),
            ("arena_dropped", *arena_dropped as f64, Fold::Add),
            ("quarantine_active", *quarantine_active as f64, Fold::Add),
        ] {
            out.push((name.into(), v, fold));
        }
        out
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted, {} completed, {} failed, {} rejected, {} queued, {} slow",
            self.jobs_submitted,
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_rejected,
            self.queue_depth,
            self.jobs_slow
        )?;
        writeln!(
            f,
            "time: {:.1} ms executing, {:.1} ms queued, {:.1} µs simulated coprocessor",
            self.exec_ns as f64 / 1e6,
            self.queue_wait_ns as f64 / 1e6,
            self.sim_cost_us
        )?;
        writeln!(f, "noise: {:.1} bits consumed", self.noise_bits_consumed)?;
        for op in self.per_op.iter().filter(|o| o.count > 0) {
            writeln!(
                f,
                "  {:<10} × {:<6} mean {:>9.1} µs  p50 {:>9.1} µs  p99 {:>9.1} µs  max {:>9.1} µs",
                op.name,
                op.count,
                op.mean_us(),
                op.latency.quantile(0.5) as f64 / 1000.0,
                op.latency.quantile(0.99) as f64 / 1000.0,
                op.max_ns as f64 / 1000.0
            )?;
        }
        for t in self.per_tenant.iter().filter(|t| t.requests > 0) {
            writeln!(
                f,
                "  tenant {:<12} × {:<6} mean {:>9.1} µs  {:>8.1} noise bits",
                t.tenant,
                t.requests,
                t.latency_ns as f64 / t.requests as f64 / 1000.0,
                t.noise_bits
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = EngineStats::default();
        s.on_submit();
        s.on_submit();
        assert_eq!(s.queue_depth(), 2);
        s.on_dequeue(500, SchedLevel::Shortest);
        s.record_op("mul", 2000);
        s.record_op("mul", 4000);
        s.record_op("add", 100);
        s.on_complete(6000, 42.5, 3.25);
        s.on_dequeue(500, SchedLevel::Deadline);
        s.on_fail();

        let snap = s.snapshot();
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.queue_wait_ns, 1000);
        assert_eq!(snap.exec_ns, 6000);
        assert!((snap.sim_cost_us - 42.5).abs() < 1e-3);
        assert!((snap.noise_bits_consumed - 3.25).abs() < 1e-3);

        let mul = snap.per_op.iter().find(|o| o.name == "mul").unwrap();
        assert_eq!(mul.count, 2);
        assert_eq!(mul.max_ns, 4000);
        assert!((mul.mean_us() - 3.0).abs() < 1e-9);
        assert_eq!(mul.latency.quantile(1.0), 4000);

        assert_eq!(snap.exec.count, 1);
        assert_eq!(snap.exec.max, 6000);
        let sjf = &snap
            .queue_wait_by_level
            .iter()
            .find(|(n, _)| *n == "sjf")
            .unwrap()
            .1;
        assert_eq!(sjf.sum, 500);

        let text = snap.to_string();
        assert!(text.contains("2 submitted"));
        assert!(text.contains("mul"));
        assert!(!text.contains("rotate"), "unused ops omitted from display");
    }

    #[test]
    fn unknown_op_names_are_ignored() {
        let s = EngineStats::default();
        s.record_op("nonsense", 1);
        assert!(s.snapshot().per_op.iter().all(|o| o.count == 0));
    }

    #[test]
    fn rejects_are_counted_not_just_undone() {
        let s = EngineStats::default();
        s.on_submit();
        s.on_reject(); // closing queue: undo + count
        s.on_refused(); // at capacity: count only
        let snap = s.snapshot();
        assert_eq!(snap.jobs_submitted, 0);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.jobs_rejected, 2);
    }

    #[test]
    fn arena_gauges_follow_worker_deltas() {
        use hefv_core::scratch::ArenaStats;
        let s = EngineStats::default();
        let grown = ArenaStats {
            pooled_buffers: 3,
            pooled_bytes: 300,
            dropped: 0,
        };
        let shrunk = ArenaStats {
            pooled_buffers: 1,
            pooled_bytes: 100,
            dropped: 2,
        };
        s.on_arena(&ArenaStats::default(), &grown);
        // Shrinking reports wrap negative and the gauge still lands on
        // the worker's current occupancy.
        s.on_arena(&grown, &shrunk);
        let snap = s.snapshot();
        assert_eq!(snap.arena_pooled_buffers, 1);
        assert_eq!(snap.arena_pooled_bytes, 100);
        assert_eq!(snap.arena_dropped, 2);
    }

    #[test]
    fn shed_counters_track_only_the_shed_taxonomy() {
        let s = EngineStats::default();
        // Caller mistakes are not load: no shed cell moves.
        s.on_shed(ErrorCode::Validation);
        s.on_shed(ErrorCode::Internal);
        assert!(s.snapshot().shed_by_reason.iter().all(|&(_, v)| v == 0));
        s.on_shed(ErrorCode::Overload);
        s.on_shed(ErrorCode::Overload);
        s.on_shed(ErrorCode::DeadlineInfeasible);
        let snap = s.snapshot();
        assert_eq!(snap.shed_by_reason[0], ("overload", 2));
        assert_eq!(snap.shed_by_reason[1], ("deadline_infeasible", 1));
        // The memory gate's fast-path read matches the snapshot gauge.
        assert_eq!(s.arena_pooled_bytes_now(), snap.arena_pooled_bytes);
    }

    #[test]
    fn tenant_table_caps_and_overflows() {
        let s = EngineStats::default();
        for t in 0..(MAX_TENANT_CELLS as u64 + 10) {
            s.on_tenant(t, 100, 0.5);
        }
        s.on_tenant(3, 100, 0.5); // existing tenant still accumulates
        let snap = s.snapshot();
        assert_eq!(snap.per_tenant.len(), MAX_TENANT_CELLS + 1);
        let overflow = snap.per_tenant.last().unwrap();
        assert_eq!(overflow.tenant, u64::MAX);
        assert_eq!(overflow.requests, 10);
        let t3 = snap.per_tenant.iter().find(|t| t.tenant == 3).unwrap();
        assert_eq!(t3.requests, 2);
    }

    /// Drives EVERY recorder, then checks that every audited field is
    /// nonzero in the snapshot (so each `EngineStats` counter provably
    /// reaches `snapshot()`) and that self-absorption doubles the
    /// additive fields and holds the maxima (so each provably reaches
    /// `absorb()`). Adding a field to `StatsSnapshot` without updating
    /// `absorb`/`audit_fields` is a compile error; adding a recorder
    /// without driving it here fails the nonzero sweep.
    #[test]
    fn every_field_flows_through_snapshot_and_absorb() {
        let s = EngineStats::default();
        for _ in 0..5 {
            s.on_submit();
        }
        for op in OP_KINDS {
            s.record_op(op, 1000);
        }
        s.on_dequeue(500, SchedLevel::Deadline);
        s.on_dequeue(600, SchedLevel::Weighted);
        s.on_dequeue(700, SchedLevel::Shortest);
        s.on_complete(900, 1.5, 0.5);
        s.on_complete(1100, 2.5, 0.75);
        s.on_fail();
        s.on_reject(); // submitted 5 → 4, depth 2 → 1
        s.on_refused();
        s.on_slow();
        s.on_tenant(42, 2000, 1.25);
        for code in [
            ErrorCode::Overload,
            ErrorCode::DeadlineInfeasible,
            ErrorCode::MemoryPressure,
            ErrorCode::NoiseBudgetExhausted,
            ErrorCode::Quarantined,
            ErrorCode::ShuttingDown,
        ] {
            s.on_shed(code);
        }
        s.on_quarantine_enter();
        s.on_quarantine_enter();
        s.on_quarantine_exit();
        s.on_arena(
            &hefv_core::scratch::ArenaStats::default(),
            &hefv_core::scratch::ArenaStats {
                pooled_buffers: 2,
                pooled_bytes: 1024,
                dropped: 1,
            },
        );

        let snap = s.snapshot();
        let before = snap.audit_fields();
        for (name, value, _) in &before {
            assert!(*value > 0.0, "field {name} never reached snapshot()");
        }

        let mut folded = snap.clone();
        folded.absorb(&snap);
        let after = folded.audit_fields();
        assert_eq!(before.len(), after.len());
        for ((name, v0, fold), (name2, v1, _)) in before.iter().zip(&after) {
            assert_eq!(name, name2);
            match fold {
                Fold::Add => assert!(
                    (v1 - 2.0 * v0).abs() < 1e-6,
                    "additive field {name} did not double under absorb: {v0} -> {v1}"
                ),
                Fold::Max => assert!(
                    (v1 - v0).abs() < 1e-9,
                    "max field {name} changed under self-absorb: {v0} -> {v1}"
                ),
            }
        }
    }
}
