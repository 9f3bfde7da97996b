//! Distribution-merge properties: absorbing the snapshots of N
//! independently-loaded engines must be indistinguishable from one
//! engine that recorded the union of their workloads — counts, sums,
//! maxima, histogram buckets, quantiles and per-tenant accounting all
//! agree. This is what makes the router-wide `HEVS` exposition honest:
//! the fleet total is *defined* as the shard merge.

use hefv_engine::stats::{EngineStats, Fold, StatsSnapshot, OP_KINDS};
use hefv_engine::SchedLevel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replays a deterministic pseudo-random workload onto `stats`. The
/// same `(seed, events)` always drives the identical recorder calls, so
/// the union workload can be reproduced by replaying every shard's
/// stream onto one recorder.
fn replay(stats: &EngineStats, seed: u64, events: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..events {
        match rng.gen_range(0..12u8) {
            // Turned away at capacity: never admitted, nothing to undo.
            0 => stats.on_refused(),
            // Admitted, then refused by a closing queue before any
            // worker picked it up.
            1 => {
                stats.on_submit();
                stats.on_reject();
            }
            2 => {
                stats.on_submit();
                stats.on_dequeue(
                    rng.gen_range(1..5_000_000u64),
                    SchedLevel::ALL[rng.gen_range(0..SchedLevel::ALL.len())],
                );
                stats.on_fail();
            }
            _ => {
                stats.on_submit();
                stats.on_dequeue(
                    rng.gen_range(1..5_000_000u64),
                    SchedLevel::ALL[rng.gen_range(0..SchedLevel::ALL.len())],
                );
                let exec_ns = rng.gen_range(100..50_000_000u64);
                stats.on_complete(
                    exec_ns,
                    rng.gen_range(1..100_000u64) as f64 / 8.0,
                    rng.gen_range(0..64_000u64) as f64 / 1000.0,
                );
                stats.on_tenant(rng.gen_range(1..6u64), exec_ns, 0.25);
            }
        }
        let op = OP_KINDS[rng.gen_range(0..OP_KINDS.len())];
        stats.record_op(op, rng.gen_range(1..10_000_000u64));
        if rng.gen_bool(0.05) {
            stats.on_slow();
        }
        if rng.gen_bool(0.2) {
            // Arena occupancy deltas (always reported as prev → now).
            let prev = hefv_core::scratch::ArenaStats::default();
            let now = hefv_core::scratch::ArenaStats {
                pooled_buffers: rng.gen_range(1..8u64),
                pooled_bytes: rng.gen_range(64..4096u64),
                dropped: rng.gen_range(0..3u64),
            };
            stats.on_arena(&prev, &now);
        }
    }
}

/// Exact for everything integer-derived; the two fixed-point f64
/// fields tolerate the one-ulp-scale difference between `Σ(xᵢ/1000)`
/// and `(Σxᵢ)/1000`.
fn assert_snapshots_agree(merged: &StatsSnapshot, union: &StatsSnapshot) {
    for (m, u) in merged.per_op.iter().zip(&union.per_op) {
        assert_eq!(m.name, u.name);
        assert_eq!(m.count, u.count, "op {} count", m.name);
        assert_eq!(m.total_ns, u.total_ns, "op {} total", m.name);
        assert_eq!(m.max_ns, u.max_ns, "op {} max", m.name);
        assert_eq!(m.latency, u.latency, "op {} histogram", m.name);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(m.latency.quantile(q), u.latency.quantile(q));
        }
    }
    assert_eq!(merged.exec, union.exec);
    assert_eq!(merged.queue_wait_by_level, union.queue_wait_by_level);
    assert_eq!(merged.per_tenant.len(), union.per_tenant.len());
    for (m, u) in merged.per_tenant.iter().zip(&union.per_tenant) {
        assert_eq!(m.tenant, u.tenant);
        assert_eq!(m.requests, u.requests, "tenant {} requests", m.tenant);
        assert_eq!(m.latency_ns, u.latency_ns, "tenant {} latency", m.tenant);
        assert!((m.noise_bits - u.noise_bits).abs() <= 1e-9 * u.noise_bits.abs().max(1.0));
    }
    // Every scalar the snapshot carries, via the same exhaustive audit
    // the coverage test uses — a new field cannot dodge this comparison
    // without failing to compile `audit_fields` first.
    for ((name, m, fold), (uname, u, _)) in merged.audit_fields().iter().zip(&union.audit_fields())
    {
        assert_eq!(name, uname);
        match fold {
            Fold::Max => assert!(
                (m - u).abs() <= f64::EPSILON * u.abs(),
                "{name}: {m} vs {u}"
            ),
            Fold::Add => assert!(
                (m - u).abs() <= 1e-9 * u.abs().max(1.0),
                "{name}: {m} vs {u}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N shards, each with its own workload: absorbing their snapshots
    /// in order equals recording all N workloads on one engine.
    #[test]
    fn absorbing_shard_snapshots_equals_recording_the_union(
        seed in any::<u64>(),
        shards in 2usize..5,
        events in 10usize..120,
    ) {
        let union = EngineStats::default();
        let mut merged: Option<StatsSnapshot> = None;
        for s in 0..shards {
            let shard = EngineStats::default();
            replay(&shard, seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), events);
            replay(&union, seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), events);
            let snap = shard.snapshot();
            match merged.as_mut() {
                None => merged = Some(snap),
                Some(m) => m.absorb(&snap),
            }
        }
        assert_snapshots_agree(&merged.unwrap(), &union.snapshot());
    }

    /// Merge order is irrelevant: absorbing A then B equals B then A.
    #[test]
    fn absorb_is_commutative(seed in any::<u64>(), events in 10usize..80) {
        let (a, b) = (EngineStats::default(), EngineStats::default());
        replay(&a, seed, events);
        replay(&b, !seed, events);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.absorb(&sb);
        let mut ba = sb;
        ba.absorb(&sa);
        assert_snapshots_agree(&ab, &ba);
    }
}

/// The recorder under real contention: many threads hammering one
/// `EngineStats` lose nothing — the lock-free counters and histogram
/// buckets account for every event exactly.
#[test]
fn concurrent_recording_loses_no_events() {
    const THREADS: u64 = 8;
    const EVENTS: u64 = 10_000;
    let stats = EngineStats::default();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let stats = &stats;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for i in 0..EVENTS {
                    stats.on_submit();
                    stats.on_dequeue(i + 1, SchedLevel::ALL[(i % 3) as usize]);
                    stats.on_complete(i + 1, 0.5, 0.001);
                    stats.record_op("mul", rng.gen_range(1..1_000_000u64));
                    stats.on_tenant(t, i + 1, 0.001);
                }
            });
        }
    });
    let snap = stats.snapshot();
    assert_eq!(snap.jobs_submitted, THREADS * EVENTS);
    assert_eq!(snap.jobs_completed, THREADS * EVENTS);
    assert_eq!(snap.queue_depth, 0);
    let mul = &snap.per_op[hefv_engine::stats::op_index("mul").unwrap()];
    assert_eq!(mul.count, THREADS * EVENTS);
    assert_eq!(mul.latency.count, mul.latency.buckets.iter().sum::<u64>());
    // Each thread recorded 1..=EVENTS ns of exec, exactly once each.
    let per_thread: u64 = (1..=EVENTS).sum();
    assert_eq!(snap.exec_ns, THREADS * per_thread);
    assert_eq!(snap.per_tenant.len(), THREADS as usize);
    for t in &snap.per_tenant {
        assert_eq!(t.requests, EVENTS);
        assert_eq!(t.latency_ns, per_thread);
    }
}

/// Pins the `HistogramSnapshot::quantile` edge-case contract: empty
/// histograms, out-of-range `q` (both sides, including infinities), and
/// `NaN` all return defined values — never a panic, never a garbage
/// bucket.
#[test]
fn quantile_edge_case_contract() {
    use hefv_engine::{Histogram, HistogramSnapshot};

    let empty = HistogramSnapshot::default();
    for q in [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.0,
        0.0,
        0.5,
        1.0,
        2.0,
        f64::INFINITY,
    ] {
        assert_eq!(empty.quantile(q), 0, "empty histogram, q={q}");
    }

    let h = Histogram::default();
    for v in [5u64, 17, 1000, 12_345] {
        h.record(v);
    }
    let s = h.snapshot();
    // q <= 0 and NaN target the first sample (5 sits in an exact linear
    // bucket, so the value is exact).
    let floor = s.quantile(0.0);
    assert_eq!(floor, 5);
    assert_eq!(s.quantile(f64::NAN), floor, "NaN behaves as q = 0");
    assert_eq!(s.quantile(-3.0), floor);
    assert_eq!(s.quantile(f64::NEG_INFINITY), floor);
    // q >= 1 returns the EXACT recorded max, not a bucket representative.
    assert_eq!(s.quantile(1.0), 12_345);
    assert_eq!(s.quantile(7.5), 12_345);
    assert_eq!(s.quantile(f64::INFINITY), 12_345);
    // Interior quantiles stay monotone between the pinned endpoints.
    let (mut prev, qs) = (floor, [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]);
    for q in qs {
        let v = s.quantile(q);
        assert!(v >= prev, "quantile not monotone at q={q}");
        prev = v;
    }
}

/// Regression for the in-flight gauge on adversarial (racy) snapshots:
/// the signed sum `submitted − completed − failed − queue_depth` is
/// computed once and clamped at the end, so a snapshot whose subtrahends
/// overshoot in *any* combination renders 0 — and a consistent snapshot
/// renders the exact difference.
#[test]
fn inflight_gauge_clamps_adversarial_snapshots() {
    use hefv_engine::{render_prometheus, RouterStats};

    let gauge = |snap: hefv_engine::StatsSnapshot| -> String {
        let text = render_prometheus(&RouterStats {
            per_shard: vec![],
            remote: vec![],
            hedge: Default::default(),
            keys_evicted: 0,
            total: snap,
        });
        text.lines()
            .find(|l| l.starts_with("hefv_jobs_inflight "))
            .expect("inflight gauge rendered")
            .to_string()
    };

    // Adversarial: every subtrahend individually exceeds what chained
    // clamping would leave (5 − 3 → 2, then −4 clamps, then −2 clamps).
    let mut snap = EngineStats::default().snapshot();
    snap.jobs_submitted = 5;
    snap.jobs_completed = 3;
    snap.jobs_failed = 4;
    snap.queue_depth = 2;
    assert_eq!(gauge(snap), "hefv_jobs_inflight 0");

    // Worst case: all subtrahends huge, submitted tiny — the signed sum
    // is deeply negative and must still clamp to 0, not wrap.
    let mut snap = EngineStats::default().snapshot();
    snap.jobs_submitted = 1;
    snap.jobs_completed = u64::MAX;
    snap.jobs_failed = u64::MAX;
    snap.queue_depth = u64::MAX;
    assert_eq!(gauge(snap), "hefv_jobs_inflight 0");

    // Consistent snapshot: exact difference.
    let mut snap = EngineStats::default().snapshot();
    snap.jobs_submitted = 10;
    snap.jobs_completed = 2;
    snap.jobs_failed = 3;
    snap.queue_depth = 1;
    assert_eq!(gauge(snap), "hefv_jobs_inflight 4");
}
