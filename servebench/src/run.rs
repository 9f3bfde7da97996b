//! One benchmark run of one workload: set up, verify the pool, warm up,
//! measure, check exactly-once delivery, report.

use crate::adapter::{self, Service, Tenant};
use crate::load::{self, Window};
use crate::probes::{self, Metric};
use crate::stats;
use crate::workload::{self, Frame, Spec};
use std::time::{Duration, Instant};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (counts, environment, breakdowns).
    pub notes: Vec<String>,
}

/// Set-ups per run: at least `MIN_SETUPS` and `SETUP_TIME` in total, at
/// most `MAX_SETUPS`; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_TIME: Duration = Duration::from_secs(1);
const MAX_SETUPS: usize = 40;

/// How long the server gets to bring its counters level after the last
/// reply before delivery counts as broken.
const SETTLE: Duration = Duration::from_secs(2);

/// Repeats the full set-up — context tables, keys, engine and server
/// start, registration — keeping the last server and the median time.
fn setup(spec: &Spec, seed: u64) -> (Tenant, Service, f64) {
    let mut times = Vec::new();
    let begin = Instant::now();
    loop {
        let t = Instant::now();
        let (tenant, galois) = adapter::tenant(adapter::context(spec.params), seed, spec.galois);
        let service = adapter::serve(&tenant, galois);
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && begin.elapsed() >= SETUP_TIME;
        if enough || times.len() >= MAX_SETUPS {
            return (tenant, service, stats::median(&times));
        }
        service.shutdown();
    }
}

/// Waits until the transport has read and answered exactly `sent` frames.
fn exactly_once(service: &Service, sent: u64) -> (bool, (u64, u64)) {
    let start = Instant::now();
    loop {
        let counts = service.frame_counts();
        if counts == (sent, sent) {
            return (true, counts);
        }
        if start.elapsed() > SETTLE {
            return (false, counts);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, or a transport failure outside the measured
/// windows (inside them, failures count as failed requests).
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = workload::spec(&opts.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            opts.workload,
            workload::WORKLOADS
        )
    })?;
    let io = |e: std::io::Error| e.to_string();
    let mut notes = vec![format!(
        "env nproc={} kernel={} cpu_flags={} commit={} workers={} connections={} depth={}",
        stats::nproc(),
        adapter::kernel_lane(),
        stats::cpu_vector_flags(),
        stats::commit(),
        adapter::default_workers(),
        workload::CONNECTIONS,
        spec.depth,
    )];

    let (tenant, service, setup_s) = setup(&spec, opts.seed ^ 0x4B45_5953);
    let addr = service.addr();
    let mut frames: Vec<Frame> = workload::build_jobs(&tenant, &spec, opts.seed)
        .into_iter()
        .map(|job| Frame {
            bytes: tenant.request_frame(&job),
            job,
            reference: Vec::new(),
        })
        .collect();
    let unverified = load::verify_pool(&tenant, addr, &mut frames).map_err(io)?;
    let mut sent = frames.len() as u64;

    let load = load::Load {
        tenant: &tenant,
        addr,
        frames: &frames,
        spec: &spec,
        seed: opts.seed,
    };
    let window = |stream, secs: f64, traced| {
        load.window(stream, Duration::from_secs_f64(secs), traced)
            .map_err(io)
    };
    let warm = window(0, (opts.seconds / 10.0).clamp(1.0, 3.0), false)?;
    sent += warm.sent;
    // A traced run spends its time on two shorter windows, untraced and
    // traced, and on the probes.
    let main_secs = if opts.trace {
        opts.seconds / 4.0
    } else {
        opts.seconds
    };
    let main = window(1, main_secs, false)?;
    sent += main.sent;

    let mut measured = vec![&main];
    let traced: Option<Window> = if opts.trace {
        Some(window(2, opts.seconds / 2.0, true)?)
    } else {
        None
    };
    let mut metrics = Vec::new();
    if let Some(traced) = &traced {
        sent += traced.sent;
        measured.push(traced);
        let refused = measured.iter().flat_map(|w| w.refused.values()).sum();
        let inputs = probes::Inputs {
            spec: &spec,
            tenant: &tenant,
            service: &service,
            frames: &frames,
            untraced: &main,
            traced,
            refused,
            seed: opts.seed,
        };
        let (layers, probe_frames) = probes::per_layer(&inputs).map_err(io)?;
        sent += probe_frames;
        metrics = layers;
        for (i, &(template, share)) in spec.mix.iter().enumerate() {
            let of = |f: fn(&load::Sample) -> u64| -> Vec<u64> {
                let mut v: Vec<u64> = traced
                    .samples
                    .iter()
                    .filter(|s| s.frame / workload::POOL == i)
                    .map(f)
                    .collect();
                v.sort_unstable();
                v
            };
            let (exec, queue) = (of(|s| s.exec_ns), of(|s| s.queue_ns));
            notes.push(format!(
                "template {} share={}% replies={} exec_ms.p50={:.3} exec_ms.p99={:.3} queue_ms.p50={:.3}",
                template.name(),
                share,
                exec.len(),
                ms(stats::percentile(&exec, 50.0)),
                ms(stats::percentile(&exec, 99.0)),
                ms(stats::percentile(&queue, 50.0)),
            ));
        }
    }
    let (once, (frames_in, replies_out)) = exactly_once(&service, sent);
    let peak_rss = stats::peak_rss_mb();
    service.shutdown();

    let attempted: u64 = measured.iter().map(|w| w.sent).sum();
    let failed: u64 = measured.iter().map(|w| w.failed).sum();
    let succeeded: u64 = measured.iter().map(|w| w.succeeded).sum();
    let decrypted: u64 = measured.iter().map(|w| w.decrypted).sum();
    let unexpected: u64 = [&warm]
        .into_iter()
        .chain(measured.iter().copied())
        .map(|w| w.unexpected)
        .sum();
    notes.push(format!(
        "requests sent={attempted} succeeded={succeeded} failed={failed} \
         decrypt_fallback={decrypted} unexpected_replies={unexpected} \
         pool_unverified={unverified} warmup_failed={}",
        warm.failed
    ));
    notes.push(format!(
        "delivery frames_sent={sent} frames_in={frames_in} replies_out={replies_out} exactly_once={once}"
    ));
    for w in &measured {
        for (code, n) in &w.refused {
            notes.push(format!("refused code={code} count={n}"));
        }
    }

    for (i, s) in main.slices().iter().enumerate() {
        notes.push(format!(
            "slice {i} replies={} req_per_s={:.2} latency_p50_ms={:.3} latency_p99_ms={:.3} cpu_ms_per_req={:.4}",
            s.replies,
            s.rate,
            ms(s.p50_ns),
            ms(s.p99_ns),
            s.cpu_per_reply_s * 1e3
        ));
    }
    if !opts.trace {
        metrics = vec![
            probes::metric("req_per_s", main.median_of(|s| s.rate), "1/s"),
            probes::metric("latency_p50_ms", main.median_of(|s| ms(s.p50_ns)), "ms"),
            probes::metric("latency_p99_ms", main.median_of(|s| ms(s.p99_ns)), "ms"),
            probes::metric(
                "cpu_ms_per_req",
                main.median_of(|s| s.cpu_per_reply_s * 1e3),
                "ms",
            ),
            probes::metric("peak_rss_mb", peak_rss, "MB"),
            probes::metric("setup_s", setup_s, "s"),
        ];
    }
    let correct = unverified == 0
        && warm.failed == 0
        && failed == 0
        && unexpected == 0
        && once
        && succeeded > 0;
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value reads as 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
