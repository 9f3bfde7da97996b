//! Per-job trace spans and the in-memory flight recorder.
//!
//! Every job carries a trace id — propagated from the `HEVQ` envelope's
//! reserved trace field when the client set one, generated at admission
//! otherwise — and, on completion, deposits one [`SpanRecord`] with its
//! per-phase timing breakdown (`admit → queue → execute → reply`) into
//! the engine's [`FlightRecorder`]: a fixed-size ring that always holds
//! the most recent spans, plus a second ring fed only
//! by jobs that crossed the configured slow-job threshold, so the tail
//! survives long after the bulk traffic has lapped the main ring.
//!
//! Recording never blocks the worker: each slot is a `try_lock`-only
//! mutex, and a contended slot simply drops that span (the reader holds
//! slot locks only long enough to clone a few words). Readers get the
//! surviving spans in oldest-to-newest order.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One completed job's phase breakdown. All durations in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// End-to-end trace id (client-supplied or minted at admission).
    pub trace_id: u64,
    /// Engine-local job id.
    pub job_id: u64,
    /// Tenant the job ran for.
    pub tenant: u64,
    /// Worker thread index that executed it.
    pub worker: usize,
    /// Whether execution succeeded.
    pub ok: bool,
    /// Scheduler level that released the job (`"edf"` / `"weighted"` /
    /// `"sjf"`).
    pub level: &'static str,
    /// Cost-model estimate at admission, microseconds.
    pub est_cost_us: f64,
    /// Time spent in the job queue.
    pub queue_ns: u64,
    /// Execution wall time.
    pub exec_ns: u64,
    /// Time writing the reply (callback / registry settle).
    pub reply_ns: u64,
}

impl SpanRecord {
    /// Total observed latency across all recorded phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.queue_ns + self.exec_ns + self.reply_ns
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace=0x{:016x} job={} tenant={} worker={} {} level={} \
             est={:.1}us queue={}ns exec={}ns reply={}ns total={}ns",
            self.trace_id,
            self.job_id,
            self.tenant,
            self.worker,
            if self.ok { "ok" } else { "FAILED" },
            self.level,
            self.est_cost_us,
            self.queue_ns,
            self.exec_ns,
            self.reply_ns,
            self.total_ns(),
        )
    }
}

/// A lossy ring of the latest spans: writers claim a slot with a relaxed
/// cursor increment and `try_lock`; a held slot drops the span rather
/// than stalling a worker.
struct Ring {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    cursor: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    fn push(&self, span: SpanRecord) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        if let Ok(mut slot) = self.slots[at].try_lock() {
            *slot = Some(span);
        }
    }

    /// Surviving spans, oldest first.
    fn drain_ordered(&self) -> Vec<SpanRecord> {
        let next = self.cursor.load(Ordering::Relaxed);
        let n = self.slots.len();
        let mut out = Vec::new();
        for i in 0..n {
            let at = (next + i) % n;
            if let Ok(slot) = self.slots[at].lock() {
                if let Some(span) = *slot {
                    out.push(span);
                }
            }
        }
        out
    }
}

/// Per-engine span store: one ring of the most recent spans and one of
/// the most recent *slow* spans (total latency over the threshold).
pub struct FlightRecorder {
    recent: Ring,
    slow: Ring,
    slow_threshold_ns: Option<u64>,
}

impl FlightRecorder {
    /// Creates a recorder holding `capacity` recent spans (and as many
    /// slow spans). `slow_threshold_ns: None` disables slow promotion.
    #[must_use]
    pub fn new(capacity: usize, slow_threshold_ns: Option<u64>) -> FlightRecorder {
        FlightRecorder {
            recent: Ring::new(capacity),
            slow: Ring::new(capacity),
            slow_threshold_ns,
        }
    }

    /// Deposits one span; returns `true` when it crossed the slow-job
    /// threshold and was promoted to the slow ring.
    pub fn record(&self, span: SpanRecord) -> bool {
        self.recent.push(span);
        let slow = self.slow_threshold_ns.is_some_and(|t| span.total_ns() >= t);
        if slow {
            self.slow.push(span);
        }
        slow
    }

    /// The most recent surviving spans, oldest first.
    #[must_use]
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.recent.drain_ordered()
    }

    /// The most recent surviving slow spans, oldest first.
    #[must_use]
    pub fn slow_spans(&self) -> Vec<SpanRecord> {
        self.slow.drain_ordered()
    }

    /// The configured slow-job threshold, if any.
    #[must_use]
    pub fn slow_threshold_ns(&self) -> Option<u64> {
        self.slow_threshold_ns
    }
}

/// `splitmix64` finalizer: the engine's deterministic id/trace-id mixer.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, exec_ns: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            job_id: trace_id,
            tenant: 7,
            worker: 0,
            ok: true,
            level: "sjf",
            est_cost_us: 1.0,
            queue_ns: 10,
            exec_ns,
            reply_ns: 5,
        }
    }

    #[test]
    fn ring_keeps_latest_in_order() {
        let rec = FlightRecorder::new(4, None);
        for i in 0..10u64 {
            rec.record(span(i, 100));
        }
        let got: Vec<u64> = rec.recent().iter().map(|s| s.trace_id).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        assert!(rec.slow_spans().is_empty());
    }

    #[test]
    fn slow_threshold_promotes() {
        let rec = FlightRecorder::new(8, Some(1000));
        assert!(!rec.record(span(1, 100)));
        assert!(rec.record(span(2, 5000)));
        // Threshold compares total latency, not just exec.
        assert!(rec.record(span(3, 985))); // 985 + 10 + 5 = 1000
        let slow: Vec<u64> = rec.slow_spans().iter().map(|s| s.trace_id).collect();
        assert_eq!(slow, vec![2, 3]);
        assert_eq!(rec.recent().len(), 3);
    }

    #[test]
    fn display_carries_the_trace_id() {
        let line = span(0xabcd, 42).to_string();
        assert!(line.contains("trace=0x000000000000abcd"), "{line}");
        assert!(line.contains("exec=42ns"), "{line}");
    }

    #[test]
    fn concurrent_recording_never_corrupts() {
        let rec = std::sync::Arc::new(FlightRecorder::new(32, Some(500)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        rec.record(span(t * 10_000 + i, (i % 7) * 200));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let recent = rec.recent();
        assert!(recent.len() <= 32);
        for s in &recent {
            // Every surviving span is one that some thread actually wrote.
            assert_eq!(s.tenant, 7);
            assert_eq!(s.job_id, s.trace_id);
        }
        for s in rec.slow_spans() {
            assert!(s.total_ns() >= 500);
        }
    }

    #[test]
    fn mix64_spreads() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert_ne!(a, 1);
        assert_ne!(mix64(0), 0);
    }
}
