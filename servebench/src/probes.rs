//! The traced run's per-layer metrics: the server's queue/exec split read
//! from every reply of a traced window, plus timed direct calls into each
//! layer's public functions (transport, router, wire, engine, core ops and
//! math kernels), all made from here rather than from inside the program.

use crate::adapter::{self, Ciphertext, Conn, Probes, Service, Tenant};
use crate::load::Window;
use crate::stats::{median, percentile};
use crate::workload::{Frame, Spec, POOL};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// One named, unit-tagged number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What the probes share.
struct Bench<'a> {
    kit: Probes<'a>,
    conn: Conn,
    service: &'a Service,
    frames: &'a [Frame],
    /// Each template's result, for the reply-encoding probe.
    results: Vec<Ciphertext>,
    /// Frames the round-trip probe sent over TCP.
    tcp_frames: u64,
    error: Option<io::Error>,
}

/// One direct call into a layer.
type Probe<'a> = Box<dyn Fn(&mut Bench<'a>) + 'a>;

/// Every probe runs in each of `ROUNDS` rounds, for at least `ROUND_REPS`
/// calls and `ROUND_TIME` per round.
const ROUNDS: usize = 10;
const ROUND_REPS: usize = 2;
const ROUND_TIME: Duration = Duration::from_millis(20);

/// Median seconds per call of every probe, by name, after one untimed
/// call each.
fn sample<'a>(bench: &mut Bench<'a>, probes: &[(String, Probe<'a>)]) -> HashMap<String, f64> {
    let mut times = vec![Vec::new(); probes.len()];
    for (_, probe) in probes {
        probe(bench);
    }
    for _ in 0..ROUNDS {
        for ((_, probe), t) in probes.iter().zip(&mut times) {
            let round = Instant::now();
            let mut reps = 0;
            while reps < ROUND_REPS || round.elapsed() < ROUND_TIME {
                let call = Instant::now();
                probe(bench);
                t.push(call.elapsed().as_secs_f64());
                reps += 1;
            }
        }
    }
    probes
        .iter()
        .zip(&times)
        .map(|((name, _), t)| (name.clone(), median(t)))
        .collect()
}

/// Everything the per-layer metrics are computed from.
pub struct Inputs<'a> {
    pub spec: &'a Spec,
    pub tenant: &'a Tenant,
    pub service: &'a Service,
    pub frames: &'a [Frame],
    /// The untraced window the traced one is compared with.
    pub untraced: &'a Window,
    pub traced: &'a Window,
    /// Error frames seen across every window.
    pub refused: u64,
    pub seed: u64,
}

/// The per-layer metrics, and how many frames the probes sent over TCP.
///
/// # Errors
///
/// Transport errors of the serial round-trip probe and the metrics scrape.
pub fn per_layer(inp: &Inputs) -> io::Result<(Vec<Metric>, u64)> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let samples = &inp.traced.samples;
    let sorted = |f: &dyn Fn(&crate::load::Sample) -> u64| {
        let mut v: Vec<u64> = samples.iter().map(f).collect();
        v.sort_unstable();
        v
    };
    let front = sorted(&|s| s.rtt_ns.saturating_sub(s.queue_ns + s.exec_ns));
    let queue = sorted(&|s| s.queue_ns);
    let exec = sorted(&|s| s.exec_ns);
    let busy = samples.iter().map(|s| s.exec_ns as f64).sum::<f64>()
        / (adapter::default_workers() as f64 * inp.traced.elapsed.as_secs_f64() * 1e9);

    let mut out = vec![
        metric("net.front_door_ms.p50", ms(percentile(&front, 50.0)), "ms"),
        metric("net.front_door_ms.p99", ms(percentile(&front, 99.0)), "ms"),
        metric(
            "sched.queue_wait_ms.p50",
            ms(percentile(&queue, 50.0)),
            "ms",
        ),
        metric(
            "sched.queue_wait_ms.p99",
            ms(percentile(&queue, 99.0)),
            "ms",
        ),
        metric("engine.exec_ms.p50", ms(percentile(&exec, 50.0)), "ms"),
        metric("engine.exec_ms.p99", ms(percentile(&exec, 99.0)), "ms"),
        metric("engine.busy_frac", busy, "ratio"),
    ];

    // Direct calls into each layer, sampled in interleaved rounds so a
    // slow spell of the machine lands on every probe alike and the ratios
    // between them hold.
    let a = inp.frames[0].job.inputs[0].clone();
    let b = inp.frames[1].job.inputs[0].clone();
    let kit = Probes::new(inp.tenant, a, b, inp.seed);
    let results = (0..inp.spec.mix.len())
        .map(|i| kit.eval_direct(&inp.frames[i * POOL].job))
        .collect();
    let mut bench = Bench {
        kit,
        conn: Conn::connect(inp.service.addr())?,
        service: inp.service,
        frames: inp.frames,
        results,
        tcp_frames: 0,
        error: None,
    };
    let mut probes: Vec<(String, Probe)> = vec![
        ("mul".into(), Box::new(|b: &mut Bench| b.kit.mul())),
        ("tensor".into(), Box::new(|b: &mut Bench| b.kit.tensor())),
        (
            "relin".into(),
            Box::new(|b: &mut Bench| b.kit.relinearize()),
        ),
        ("lift".into(), Box::new(|b: &mut Bench| b.kit.lift())),
        ("scale".into(), Box::new(|b: &mut Bench| b.kit.scale())),
        (
            "mul_plain".into(),
            Box::new(|b: &mut Bench| b.kit.mul_plain()),
        ),
        ("hoist".into(), Box::new(|b: &mut Bench| b.kit.hoist())),
        (
            "rotate".into(),
            Box::new(|b: &mut Bench| b.kit.rotate_marginal()),
        ),
        (
            "sum_slots".into(),
            Box::new(|b: &mut Bench| b.kit.sum_slots()),
        ),
        ("add".into(), Box::new(|b: &mut Bench| b.kit.add())),
        ("fwd".into(), Box::new(|b: &mut Bench| b.kit.ntt_forward())),
        ("inv".into(), Box::new(|b: &mut Bench| b.kit.ntt_inverse())),
        (
            "pointwise".into(),
            Box::new(|b: &mut Bench| b.kit.pointwise()),
        ),
        ("sop".into(), Box::new(|b: &mut Bench| b.kit.sop_row())),
    ];
    for i in 0..inp.spec.mix.len() {
        let f = i * POOL;
        probes.extend::<[(String, Probe); 5]>([
            (
                format!("rtt/{i}"),
                Box::new(move |b: &mut Bench| {
                    b.tcp_frames += 1;
                    if let Err(e) = b.conn.call(&b.frames[f].bytes) {
                        b.error = Some(e);
                    }
                }),
            ),
            (
                format!("inproc/{i}"),
                Box::new(move |b: &mut Bench| {
                    drop(b.service.dispatch_in_process(&b.frames[f].bytes))
                }),
            ),
            (
                format!("decode/{i}"),
                Box::new(move |b: &mut Bench| b.kit.decode_request(&b.frames[f].bytes)),
            ),
            (
                format!("encode/{i}"),
                Box::new(move |b: &mut Bench| drop(adapter::encode_reply(&b.results[i]))),
            ),
            (
                format!("direct/{i}"),
                Box::new(move |b: &mut Bench| drop(b.kit.eval_direct(&b.frames[f].job))),
            ),
        ]);
    }
    let t = sample(&mut bench, &probes);
    if let Some(e) = bench.error.take() {
        return Err(e);
    }

    // Per-template figures, combined by each template's share of requests
    // (engine exec against direct calls: by replies per template).
    let (mut rtt, mut inproc, mut decode, mut encode) = (0.0, 0.0, 0.0, 0.0);
    let (mut exec_weighted, mut direct_weighted) = (0.0, 0.0);
    for (i, &(_, share)) in inp.spec.mix.iter().enumerate() {
        let share = f64::from(share) / 100.0;
        rtt += share * t[&format!("rtt/{i}")];
        inproc += share * t[&format!("inproc/{i}")];
        decode += share * t[&format!("decode/{i}")];
        encode += share * t[&format!("encode/{i}")];
        let execs: Vec<f64> = samples
            .iter()
            .filter(|s| s.frame / POOL == i)
            .map(|s| s.exec_ns as f64 / 1e9)
            .collect();
        exec_weighted += execs.len() as f64 * median(&execs);
        direct_weighted += execs.len() as f64 * t[&format!("direct/{i}")];
    }
    // Mult's kernel calls, per limb: 4 lifts and 3 scales; the tensor's
    // 4 forward NTTs, 4 pointwise products and 3 inverse NTTs over the
    // k + l limbs of Q; relinearization's k digit NTTs over k limbs, 2k²
    // pointwise products and 2 inverse NTTs.
    let (k, l) = bench.kit.limbs();
    let (k, full) = (k as f64, (k + l) as f64);
    let kernels = 4.0 * t["lift"]
        + 3.0 * t["scale"]
        + (4.0 * full + k * k) * t["fwd"]
        + (3.0 * full + 2.0 * k) * t["inv"]
        + (4.0 * full + 2.0 * k * k) * t["pointwise"];
    out.extend([
        metric("net.serial_rtt_ms", rtt * 1e3, "ms"),
        metric("router.dispatch_frame_ms", inproc * 1e3, "ms"),
        metric("net.rtt_over_inproc", rtt / inproc, "ratio"),
        metric("wire.decode_request_us", decode * 1e6, "us"),
        metric("wire.encode_response_us", encode * 1e6, "us"),
        metric(
            "engine.exec_over_ops",
            exec_weighted / direct_weighted,
            "ratio",
        ),
        metric("core.mul_ms", t["mul"] * 1e3, "ms"),
        metric("core.tensor_ms", t["tensor"] * 1e3, "ms"),
        metric("core.relin_ms", t["relin"] * 1e3, "ms"),
        metric("core.lift_ms", t["lift"] * 1e3, "ms"),
        metric("core.scale_ms", t["scale"] * 1e3, "ms"),
        metric("core.mul_over_kernels", t["mul"] / kernels, "ratio"),
        metric("core.mul_plain_ms", t["mul_plain"] * 1e3, "ms"),
        metric("core.hoist_ms", t["hoist"] * 1e3, "ms"),
        metric("core.rotate_marginal_ms", t["rotate"] * 1e3, "ms"),
        metric("core.sum_slots_ms", t["sum_slots"] * 1e3, "ms"),
        metric("core.add_us", t["add"] * 1e6, "us"),
        metric("math.ntt_fwd_us", t["fwd"] * 1e6, "us"),
        metric("math.ntt_inv_us", t["inv"] * 1e6, "us"),
        metric("math.pointwise_us", t["pointwise"] * 1e6, "us"),
        metric("math.sop_row_us", t["sop"] * 1e6, "us"),
    ]);

    // Failure counters: the client's refusals and the server's own.
    let scrape = bench.conn.scrape_metrics()?;
    let tcp_frames = bench.tcp_frames + 1;
    out.extend([
        metric("admission.refused", inp.refused as f64, "count"),
        metric(
            "admission.shed",
            prom_sum(&scrape, "hefv_shed_total"),
            "count",
        ),
        metric(
            "engine.jobs_rejected",
            prom_sum(&scrape, "hefv_jobs_rejected_total"),
            "count",
        ),
        metric(
            "engine.arena_dropped",
            prom_sum(&scrape, "hefv_arena_dropped_total"),
            "count",
        ),
    ]);

    let (plain, traced) = (
        inp.untraced.median_of(|s| s.rate),
        inp.traced.median_of(|s| s.rate),
    );
    out.push(metric(
        "trace.overhead_frac",
        (plain - traced) / plain,
        "ratio",
    ));
    Ok((out, tcp_frames))
}

/// Sum of every sample of one metric family in a Prometheus text body.
fn prom_sum(body: &str, family: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let base = name.split('{').next()?;
            (base == family)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_sum_adds_labelled_samples() {
        let body = "# HELP x\nhefv_shed_total{reason=\"a\"} 2\nhefv_shed_total{reason=\"b\"} 3\n\
                    hefv_shed_total_other 9\nhefv_jobs_rejected_total 0\n";
        assert_eq!(prom_sum(body, "hefv_shed_total"), 5.0);
        assert_eq!(prom_sum(body, "hefv_jobs_rejected_total"), 0.0);
        assert_eq!(prom_sum(body, "missing"), 0.0);
    }
}
