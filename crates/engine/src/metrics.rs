//! Log-linear latency histograms and Prometheus-text exposition.
//!
//! The paper's evaluation is a cost *breakdown* — which kernel cycles go
//! where on each datapath — and a serving fleet needs the same attribution
//! at runtime: not just totals and a max, but the shape of the latency
//! distribution per op class, per job and per scheduler level. This
//! module provides the two halves:
//!
//! * [`Histogram`] — an HDR-style fixed-bucket log-linear histogram over
//!   `u64` nanosecond values. Buckets are atomics, so recording is a
//!   handful of relaxed fetch-adds (lock-free, wait-free on every
//!   platform with native 64-bit atomics) and fits the engine's hot path;
//!   snapshots are mergeable exactly like
//!   [`StatsSnapshot::absorb`](crate::stats::StatsSnapshot::absorb), so
//!   shard histograms fold into fleet histograms without losing quantile
//!   fidelity. Values below [`LINEAR_MAX`] are exact; above it the
//!   relative error is bounded by `1/SUBBUCKETS` (6.25%).
//! * [`render_prometheus`] — the Prometheus text exposition of a
//!   [`RouterStats`]: merged fleet counters,
//!   summary-style quantiles per op class / queue level,
//!   per-tenant accounting, and a per-shard health block (liveness, queue
//!   depth, inflight, rejects). This is the payload of the `HEVS` admin
//!   frame (see [`crate::wire`] and the `hefv-net` server).

use crate::router::RouterStats;
use crate::stats::StatsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this record into exact unit-width buckets.
pub const LINEAR_MAX: u64 = 16;

/// Sub-buckets per power of two above [`LINEAR_MAX`] (the log-linear
/// resolution: relative error ≤ `1/SUBBUCKETS`).
pub const SUBBUCKETS: u64 = 16;

/// Total bucket count: 16 exact buckets + 16 sub-buckets for each
/// exponent 4..=63.
pub const BUCKETS: usize = (LINEAR_MAX + (63 - 4 + 1) * SUBBUCKETS) as usize;

/// Bucket index of a value. Exact below [`LINEAR_MAX`]; log-linear above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64; // 4..=63
        (LINEAR_MAX + (exp - 4) * SUBBUCKETS + ((v >> (exp - 4)) & (SUBBUCKETS - 1))) as usize
    }
}

/// Representative value of a bucket (its midpoint), the value quantile
/// estimation reports for samples that landed there.
#[inline]
pub fn bucket_value(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR_MAX {
        i
    } else {
        let exp = 4 + (i - LINEAR_MAX) / SUBBUCKETS;
        let sub = (i - LINEAR_MAX) % SUBBUCKETS;
        let width = 1u64 << (exp - 4);
        ((SUBBUCKETS + sub) << (exp - 4)) + width / 2
    }
}

/// A mergeable log-linear histogram with atomic buckets. Recording is
/// four relaxed atomic RMWs: bucket, count, sum, max — no locks, no
/// allocation. See the module docs for the bucket layout.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough frozen copy (relaxed loads; counts may trail
    /// in-flight recordings by a few, never corrupt).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Frozen, mergeable view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_index`] / [`bucket_value`]).
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds another snapshot into this one: buckets, counts and sums
    /// add; the max takes the max. Merging N shard snapshots produces
    /// exactly the histogram of recording the union of their samples.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.buckets.len(), other.buckets.len());
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The estimated `q`-quantile of the recorded values: the
    /// representative value of the bucket containing the ⌈q·count⌉-th
    /// sample, clamped to the exact max.
    ///
    /// Edge cases are pinned (and covered in `tests/stats_merge.rs`):
    /// * **empty histogram** → `0`, whatever `q` is;
    /// * **`q <= 0`** (including `-inf`) → the first sample's bucket
    ///   value, i.e. the smallest quantile the bucketing can resolve;
    /// * **`q >= 1`** (including `+inf`) → the **exact** recorded
    ///   maximum, not a bucket representative;
    /// * **`NaN`** → treated as `q = 0` (never panics, never yields a
    ///   garbage bucket).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Escapes a Prometheus label value (backslash, double quote, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The quantiles every latency summary exposes.
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn line(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    if value == value.trunc() && value.abs() < 1e15 {
        out.push_str(&format!("{value}"));
    } else {
        out.push_str(&format!("{value:.9}"));
    }
    out.push('\n');
}

/// Renders a summary family (quantiles + `_sum` + `_count` +
/// `_max` gauge) for one histogram, values converted ns → seconds.
fn summary(out: &mut String, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
    let mut ql: Vec<(&str, &str)> = labels.to_vec();
    for (q, qs) in QUANTILES {
        ql.push(("quantile", qs));
        line(out, name, &ql, h.quantile(q) as f64 / 1e9);
        ql.pop();
    }
    line(out, &format!("{name}_sum"), labels, h.sum as f64 / 1e9);
    line(out, &format!("{name}_count"), labels, h.count as f64);
    line(out, &format!("{name}_max"), labels, h.max as f64 / 1e9);
}

/// Jobs admitted but not yet finished or queued: `submitted − completed −
/// failed − queue_depth`, clamped at 0 against racy snapshots. The sum is
/// computed once in signed arithmetic and clamped at the end — clamping
/// between terms would make the result depend on subtraction order when a
/// racy snapshot undercounts `submitted`.
fn inflight(s: &StatsSnapshot) -> u64 {
    (s.jobs_submitted as i128
        - s.jobs_completed as i128
        - s.jobs_failed as i128
        - s.queue_depth as i128)
        .max(0) as u64
}

/// Renders the merged fleet snapshot plus a per-shard health block as
/// Prometheus text (the `HEVS` metrics payload). The `hefv-net` server
/// appends its own `hefv_net_*` transport families to this.
pub fn render_prometheus(fleet: &RouterStats) -> String {
    let mut out = String::with_capacity(16 * 1024);
    render_prometheus_into(&mut out, fleet);
    out
}

/// [`render_prometheus`], appending into an existing buffer.
pub fn render_prometheus_into(out: &mut String, fleet: &RouterStats) {
    let t = &fleet.total;
    // Health summary, human-first (Prometheus ignores plain comments).
    let rejected = t.jobs_rejected;
    let submitted = t.jobs_submitted;
    out.push_str(&format!(
        "# hefv health: {} shards, {} queued, {} inflight, {} completed, {} failed, {} rejected (reject rate {:.4})\n",
        fleet.per_shard.len(),
        t.queue_depth,
        inflight(t),
        t.jobs_completed,
        t.jobs_failed,
        rejected,
        if submitted + rejected > 0 {
            rejected as f64 / (submitted + rejected) as f64
        } else {
            0.0
        },
    ));

    for (name, help, v) in [
        (
            "hefv_jobs_submitted_total",
            "Jobs accepted into a queue",
            t.jobs_submitted as f64,
        ),
        (
            "hefv_jobs_completed_total",
            "Jobs finished successfully",
            t.jobs_completed as f64,
        ),
        (
            "hefv_jobs_failed_total",
            "Jobs failed at execution time",
            t.jobs_failed as f64,
        ),
        (
            "hefv_jobs_rejected_total",
            "Submissions refused at capacity or by a closed queue (retries counted)",
            t.jobs_rejected as f64,
        ),
        (
            "hefv_jobs_slow_total",
            "Jobs over the slow-job threshold (spans promoted to the slow ring)",
            t.jobs_slow as f64,
        ),
        (
            "hefv_queue_wait_seconds_total",
            "Cumulative queue wait",
            t.queue_wait_ns as f64 / 1e9,
        ),
        (
            "hefv_exec_seconds_total",
            "Cumulative execution wall time",
            t.exec_ns as f64 / 1e9,
        ),
        (
            "hefv_sim_cost_microseconds_total",
            "Cumulative simulated coprocessor cost",
            t.sim_cost_us,
        ),
        (
            "hefv_noise_bits_total",
            "Estimated noise bits consumed",
            t.noise_bits_consumed,
        ),
        (
            "hefv_arena_dropped_total",
            "Scratch-arena returns dropped by a pool high-water mark",
            t.arena_dropped as f64,
        ),
    ] {
        header(out, name, help, "counter");
        line(out, name, &[], v);
    }

    header(
        out,
        "hefv_queue_depth",
        "Jobs waiting right now (fleet)",
        "gauge",
    );
    line(out, "hefv_queue_depth", &[], t.queue_depth as f64);
    header(
        out,
        "hefv_jobs_inflight",
        "Jobs admitted but not yet finished (fleet)",
        "gauge",
    );
    line(out, "hefv_jobs_inflight", &[], inflight(t) as f64);
    header(
        out,
        "hefv_arena_pooled_buffers",
        "Scratch buffers pooled across worker arenas (fleet)",
        "gauge",
    );
    line(
        out,
        "hefv_arena_pooled_buffers",
        &[],
        t.arena_pooled_buffers as f64,
    );
    header(
        out,
        "hefv_arena_pooled_bytes",
        "Bytes of scratch capacity pooled across worker arenas (fleet)",
        "gauge",
    );
    line(
        out,
        "hefv_arena_pooled_bytes",
        &[],
        t.arena_pooled_bytes as f64,
    );

    header(
        out,
        "hefv_shed_total",
        "Submissions refused at the admission door, by refusal class",
        "counter",
    );
    for &(reason, v) in &t.shed_by_reason {
        line(out, "hefv_shed_total", &[("reason", reason)], v as f64);
    }
    header(
        out,
        "hefv_quarantine_active",
        "(tenant, op-class) signatures currently quarantined after repeated panics",
        "gauge",
    );
    line(
        out,
        "hefv_quarantine_active",
        &[],
        t.quarantine_active as f64,
    );

    header(
        out,
        "hefv_op_latency_seconds",
        "Execution latency per op class (fleet-merged)",
        "summary",
    );
    for op in &t.per_op {
        summary(
            out,
            "hefv_op_latency_seconds",
            &[("op", op.name)],
            &op.latency,
        );
    }

    header(
        out,
        "hefv_queue_wait_seconds",
        "Queue wait per scheduler level that released the job",
        "summary",
    );
    for (level, h) in &t.queue_wait_by_level {
        summary(out, "hefv_queue_wait_seconds", &[("level", level)], h);
    }

    header(
        out,
        "hefv_tenant_requests_total",
        "Completed jobs per tenant",
        "counter",
    );
    for ten in &t.per_tenant {
        let id = ten.tenant.to_string();
        line(
            out,
            "hefv_tenant_requests_total",
            &[("tenant", &id)],
            ten.requests as f64,
        );
    }
    header(
        out,
        "hefv_tenant_latency_seconds_total",
        "Cumulative queue+exec latency per tenant",
        "counter",
    );
    for ten in &t.per_tenant {
        let id = ten.tenant.to_string();
        line(
            out,
            "hefv_tenant_latency_seconds_total",
            &[("tenant", &id)],
            ten.latency_ns as f64 / 1e9,
        );
    }
    header(
        out,
        "hefv_tenant_noise_bits_total",
        "Estimated noise bits consumed per tenant",
        "counter",
    );
    for ten in &t.per_tenant {
        let id = ten.tenant.to_string();
        line(
            out,
            "hefv_tenant_noise_bits_total",
            &[("tenant", &id)],
            ten.noise_bits,
        );
    }

    // Per-shard health + latency block.
    header(
        out,
        "hefv_shard_up",
        "Shard liveness (present = serving)",
        "gauge",
    );
    for s in &fleet.per_shard {
        let id = s.id.to_string();
        line(
            out,
            "hefv_shard_up",
            &[("shard", &id), ("name", &s.name)],
            if s.up { 1.0 } else { 0.0 },
        );
    }
    for (name, help, pick) in [
        (
            "hefv_shard_queue_depth",
            "Jobs waiting per shard",
            (|s: &StatsSnapshot| s.queue_depth as f64) as fn(&StatsSnapshot) -> f64,
        ),
        (
            "hefv_shard_inflight",
            "Jobs admitted but not finished per shard",
            |s| inflight(s) as f64,
        ),
        (
            "hefv_shard_jobs_completed_total",
            "Jobs finished per shard",
            |s| s.jobs_completed as f64,
        ),
        (
            "hefv_shard_jobs_rejected_total",
            "Refused submissions per shard",
            |s| s.jobs_rejected as f64,
        ),
    ] {
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        header(out, name, help, kind);
        for s in &fleet.per_shard {
            let id = s.id.to_string();
            line(out, name, &[("shard", &id)], pick(&s.stats));
        }
    }
    header(
        out,
        "hefv_shard_op_latency_seconds",
        "Execution latency per op class per shard",
        "summary",
    );
    for s in &fleet.per_shard {
        let id = s.id.to_string();
        for op in &s.stats.per_op {
            summary(
                out,
                "hefv_shard_op_latency_seconds",
                &[("shard", &id), ("op", op.name)],
                &op.latency,
            );
        }
    }

    // Remote-shard transport/health block (empty fleets still get the
    // hedge counters, so scrapers see the families exist).
    type RemotePick = fn(&crate::router::RemoteShardStats) -> f64;
    for (name, help, kind, pick) in [
        (
            "hefv_remote_shard_up",
            "Remote shard circuit state (1 = closed/serving)",
            "gauge",
            (|r| if r.stats.healthy { 1.0 } else { 0.0 }) as RemotePick,
        ),
        (
            "hefv_remote_inflight",
            "Frames forwarded to the node and awaiting replies",
            "gauge",
            |r| r.stats.inflight as f64,
        ),
        (
            "hefv_remote_frames_forwarded_total",
            "Frames handed to the remote transport",
            "counter",
            |r| r.stats.frames_forwarded as f64,
        ),
        (
            "hefv_remote_replies_total",
            "Replies matched back to a forwarded frame",
            "counter",
            |r| r.stats.replies as f64,
        ),
        (
            "hefv_remote_send_errors_total",
            "Transport-level send failures",
            "counter",
            |r| r.stats.send_errors as f64,
        ),
        (
            "hefv_remote_connects_total",
            "Successful connection establishments (initial + re-)",
            "counter",
            |r| r.stats.connects as f64,
        ),
        (
            "hefv_remote_probe_failures_total",
            "Failed liveness probes",
            "counter",
            |r| r.stats.probe_failures as f64,
        ),
        (
            "hefv_remote_ejections_total",
            "Circuit-breaker opens",
            "counter",
            |r| r.stats.ejections as f64,
        ),
        (
            "hefv_remote_recoveries_total",
            "Circuit-breaker closes after an ejection",
            "counter",
            |r| r.stats.recoveries as f64,
        ),
        (
            "hefv_remote_timeouts_total",
            "Forwarded frames that timed out after the retry",
            "counter",
            |r| r.stats.timeouts as f64,
        ),
        (
            "hefv_remote_retries_total",
            "Timeout-triggered re-sends of forwarded frames",
            "counter",
            |r| r.stats.retries as f64,
        ),
    ] {
        header(out, name, help, kind);
        for r in &fleet.remote {
            let id = r.id.to_string();
            line(
                out,
                name,
                &[("shard", &id), ("name", &r.name), ("endpoint", &r.endpoint)],
                pick(r),
            );
        }
    }
    header(
        out,
        "hefv_node_breaker_state",
        "Remote node circuit-breaker position (0 = closed, 1 = half-open, 2 = open)",
        "gauge",
    );
    for r in &fleet.remote {
        line(
            out,
            "hefv_node_breaker_state",
            &[("node", &r.name), ("endpoint", &r.endpoint)],
            r.stats.breaker.as_gauge(),
        );
    }
    header(
        out,
        "hefv_node_catching_up",
        "Remote node recovered from an ejection but not yet re-verified by anti-entropy (replica-only until 0)",
        "gauge",
    );
    for r in &fleet.remote {
        line(
            out,
            "hefv_node_catching_up",
            &[("node", &r.name), ("endpoint", &r.endpoint)],
            if r.stats.catching_up { 1.0 } else { 0.0 },
        );
    }
    let h = &fleet.hedge;
    for (name, help, value) in [
        (
            "hefv_remote_hedges_total",
            "Remote dispatches that armed a hedge timer",
            h.armed as f64,
        ),
        (
            "hefv_remote_hedges_fired_total",
            "Hedge timers that fired a replica dispatch",
            h.fired as f64,
        ),
        (
            "hefv_remote_hedge_wins_total",
            "Reply races won by the hedge replica",
            h.wins as f64,
        ),
        (
            "hefv_remote_failovers_total",
            "Primary failures failed over to the replica",
            h.failovers as f64,
        ),
        (
            "hefv_remote_key_pushes_total",
            "Tenant key payloads pushed to shards",
            h.key_pushes as f64,
        ),
        (
            "hefv_remote_key_push_failures_total",
            "Key pushes that failed after retries",
            h.key_push_failures as f64,
        ),
        (
            "hefv_keys_replicated_total",
            "Tenant key payloads placed on (or received by) a non-primary replica holder",
            h.keys_replicated as f64,
        ),
        (
            "hefv_failover_total",
            "Dispatches re-homed from a failed primary to a replica (breaker- or hedge-driven)",
            h.failovers as f64,
        ),
        (
            "hefv_keys_evicted_total",
            "Tenant keys dropped by registry LRU capacity across local shards (anti-entropy re-pushes vaulted ones)",
            fleet.keys_evicted as f64,
        ),
    ] {
        header(out, name, help, "counter");
        line(out, name, &[], value);
    }
    let (snap_ok, snap_failed) = crate::registry::snapshot_restore_counts();
    header(
        out,
        "hefv_snapshot_restore_total",
        "HEVR registry-snapshot restore attempts by outcome",
        "counter",
    );
    line(
        out,
        "hefv_snapshot_restore_total",
        &[("outcome", "ok")],
        snap_ok as f64,
    );
    line(
        out,
        "hefv_snapshot_restore_total",
        &[("outcome", "integrity_failure")],
        snap_failed as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exact_below_linear_max() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
        }
        let mut last = 0;
        for v in [
            16u64,
            17,
            31,
            32,
            33,
            100,
            1000,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i >= last, "monotone: {v} -> {i} after {last}");
            assert!(i < BUCKETS);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_value_respects_relative_error() {
        for v in [20u64, 100, 12345, 1 << 30, (1 << 40) + 12345] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUBBUCKETS as f64, "{v} -> {rep}: err {err}");
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1ms-ish spread in ns terms
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1_000_000);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!(
            (p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.07,
            "p50 {p50}"
        );
        assert!(
            (p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.07,
            "p99 {p99}"
        );
        assert!(s.quantile(1.0) <= s.max);
        assert_eq!(s.quantile(0.0), s.quantile(1e-9));
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let a = Histogram::default();
        let b = Histogram::default();
        let both = Histogram::default();
        for v in 0..500u64 {
            a.record(v * 7);
            both.record(v * 7);
        }
        for v in 0..300u64 {
            b.record(v * 13 + 1);
            both.record(v * 13 + 1);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
