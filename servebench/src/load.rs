//! The closed-loop load generator: `CONNECTIONS` threads with one
//! connection each. Every thread keeps the workload's depth of requests in
//! flight and sends the next one only when a reply arrives; replies are
//! matched to requests by correlation id, since they arrive in completion
//! order.

use crate::adapter::{self, Conn, Reply, Tenant};
use crate::stats;
use crate::verify::{self, Verdict};
use crate::workload::{Frame, Picker, Spec, CONNECTIONS};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// CPU time is sampled about once per `TICK`; slices span whole ticks.
const TICK: Duration = Duration::from_secs(1);

/// A slice keeps at least this many replies, so its p99 has at least ten
/// replies beyond it.
const MIN_SLICE_REPLIES: usize = 1000;

/// Slices per window, at most: the medians over slices then shrug off a
/// burst of outside load that spoils a few of them.
const MAX_SLICES: usize = 10;

/// One traced reply: its frame and where its round trip went.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub frame: usize,
    pub rtt_ns: u64,
    pub queue_ns: u64,
    pub exec_ns: u64,
}

/// What one measurement window saw.
#[derive(Debug, Default)]
pub struct Window {
    pub sent: u64,
    pub succeeded: u64,
    /// Error frames, wrong or malformed replies, and missing replies.
    pub failed: u64,
    /// Succeeded replies whose bytes differed from the reference.
    pub decrypted: u64,
    /// Replies carrying a correlation id with nothing pending.
    pub unexpected: u64,
    /// Error frames by error-code name.
    pub refused: BTreeMap<&'static str, u64>,
    /// `(completion, latency)` per succeeded request: when its verified
    /// reply arrived (ns since the window opened) and how long after its
    /// send.
    pub done_ns: Vec<(u64, u64)>,
    /// Process CPU seconds at the window's opening and at the end of each
    /// of its equal ticks (about one a second).
    pub cpu_marks: Vec<f64>,
    /// Per-reply server split (traced windows only).
    pub samples: Vec<Sample>,
    /// First send to last reply.
    pub elapsed: Duration,
    /// How long the window kept sending.
    pub duration: Duration,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.decrypted += other.decrypted;
        self.unexpected += other.unexpected;
        for (code, n) in other.refused {
            *self.refused.entry(code).or_default() += n;
        }
        self.done_ns.extend(other.done_ns);
        self.samples.extend(other.samples);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Median over slices of a per-slice figure.
    pub fn median_of(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        stats::median(&self.slices().iter().map(f).collect::<Vec<_>>())
    }

    /// Cuts the window into equal slices of whole ticks, as many as keep
    /// at least `MIN_SLICE_REPLIES` replies in each (at most `MAX_SLICES`),
    /// and summarizes each by the replies verified within it. Replies
    /// drained after the window closed fall in none.
    pub fn slices(&self) -> Vec<Slice> {
        let ticks = self.cpu_marks.len().saturating_sub(1).max(1);
        let tick_ns = (self.duration.as_nanos() as u64 / ticks as u64).max(1);
        let in_window = self
            .done_ns
            .iter()
            .filter(|&&(at, _)| at / tick_ns < ticks as u64);
        let k = (in_window.count() / MIN_SLICE_REPLIES).clamp(1, ticks.min(MAX_SLICES));
        // Slice i spans ticks [bounds[i], bounds[i + 1]).
        let bounds: Vec<usize> = (0..=k).map(|i| i * ticks / k).collect();
        let mut rtts = vec![Vec::new(); k];
        for &(at, rtt) in &self.done_ns {
            let tick = (at / tick_ns) as usize;
            if let Some(i) = (0..k).find(|&i| tick < bounds[i + 1]) {
                rtts[i].push(rtt);
            }
        }
        rtts.into_iter()
            .enumerate()
            .map(|(i, mut v)| {
                v.sort_unstable();
                let (a, b) = (bounds[i], bounds[i + 1]);
                let cpu = self
                    .cpu_marks
                    .get(b)
                    .zip(self.cpu_marks.get(a))
                    .map_or(0.0, |(b, a)| b - a);
                Slice {
                    rate: v.len() as f64 / ((b - a) as f64 * tick_ns as f64 / 1e9),
                    p50_ns: stats::percentile(&v, 50.0),
                    p99_ns: stats::percentile(&v, 99.0),
                    cpu_per_reply_s: cpu / v.len().max(1) as f64,
                    replies: v.len(),
                }
            })
            .collect()
    }
}

/// One slice of a window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub replies: usize,
    /// Verified replies per second.
    pub rate: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Process CPU seconds per verified reply.
    pub cpu_per_reply_s: f64,
}

/// Sends every pooled request once, serially, and checks its decryption
/// against the plaintext arithmetic. A passing reply's ciphertext bytes
/// become the frame's reference. Returns how many frames failed.
///
/// # Errors
///
/// Transport errors.
pub fn verify_pool(tenant: &Tenant, addr: SocketAddr, frames: &mut [Frame]) -> io::Result<usize> {
    let mut conn = Conn::connect(addr)?;
    let mut bad = 0;
    for frame in frames.iter_mut() {
        let reply = conn.call(&frame.bytes)?;
        match adapter::decode_reply(tenant, &reply) {
            Reply::Ok { ct, .. } if tenant.decrypt(&ct) == frame.job.expected => {
                frame.reference = adapter::ciphertext_bytes(&ct);
                if adapter::reply_ciphertext(&reply) != Some(frame.reference.as_slice()) {
                    bad += 1;
                }
            }
            _ => bad += 1,
        }
    }
    Ok(bad)
}

/// What a window drives: the tenant's server, the request pool and the
/// workload, under one seed.
pub struct Load<'a> {
    pub tenant: &'a Tenant,
    pub addr: SocketAddr,
    pub frames: &'a [Frame],
    pub spec: &'a Spec,
    pub seed: u64,
}

impl Load<'_> {
    /// Runs one closed-loop window of `duration`, sampling process CPU
    /// time at the end of each tick of it. `stream` separates the request
    /// sequences of successive windows.
    ///
    /// # Errors
    ///
    /// Connect errors (later transport errors count as failed requests).
    pub fn window(&self, stream: u64, duration: Duration, traced: bool) -> io::Result<Window> {
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(self.addr))
            .collect::<io::Result<Vec<_>>>()?;
        let mut total = Window {
            cpu_marks: vec![stats::cpu_seconds()],
            duration,
            ..Window::default()
        };
        let start = Instant::now();
        let deadline = start + duration;
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(i, conn)| {
                    let stream = stream * CONNECTIONS as u64 + i as u64;
                    let picker = Picker::new(self.spec, self.seed, stream);
                    s.spawn(move || self.drive(conn, picker, start, deadline, traced))
                })
                .collect();
            let ticks = (duration.as_secs_f64() / TICK.as_secs_f64())
                .round()
                .max(1.0) as u32;
            for i in 1..=ticks {
                let mark = start + duration * i / ticks;
                std::thread::sleep(mark.saturating_duration_since(Instant::now()));
                total.cpu_marks.push(stats::cpu_seconds());
            }
            for h in handles {
                total.merge(h.join().expect("load thread panicked"));
            }
        });
        Ok(total)
    }

    /// One connection's closed loop.
    fn drive(
        &self,
        mut conn: Conn,
        mut picker: Picker,
        start: Instant,
        deadline: Instant,
        traced: bool,
    ) -> Window {
        let (tenant, frames) = (self.tenant, self.frames);
        let mut w = Window::default();
        let mut pending: HashMap<u64, (usize, Instant)> = HashMap::new();
        let send = |conn: &mut Conn,
                    picker: &mut Picker,
                    pending: &mut HashMap<u64, (usize, Instant)>,
                    w: &mut Window| {
            let idx = picker.next_frame();
            w.sent += 1;
            match conn.send(&frames[idx].bytes) {
                Ok(corr) => {
                    pending.insert(corr, (idx, Instant::now()));
                    true
                }
                Err(_) => {
                    w.failed += 1;
                    false
                }
            }
        };
        let mut open = true;
        for _ in 0..self.spec.depth {
            open = open && send(&mut conn, &mut picker, &mut pending, &mut w);
        }
        let mut last = start;
        while !pending.is_empty() {
            let Ok((corr, reply)) = conn.recv() else {
                break;
            };
            let now = Instant::now();
            last = now;
            let Some((idx, sent_at)) = pending.remove(&corr) else {
                w.unexpected += 1;
                continue;
            };
            let verdict = verify::score(tenant, &frames[idx], &reply);
            if verdict.succeeded() {
                w.succeeded += 1;
                let rtt_ns = (now - sent_at).as_nanos() as u64;
                w.done_ns.push(((now - start).as_nanos() as u64, rtt_ns));
                if verdict == Verdict::Decrypted {
                    w.decrypted += 1;
                }
                if traced {
                    if let Reply::Ok {
                        queue_ns, exec_ns, ..
                    } = adapter::decode_reply(tenant, &reply)
                    {
                        w.samples.push(Sample {
                            frame: idx,
                            rtt_ns,
                            queue_ns,
                            exec_ns,
                        });
                    }
                }
            } else {
                w.failed += 1;
                if let Verdict::Refused(code) = verdict {
                    *w.refused.entry(code).or_default() += 1;
                }
            }
            if open && now < deadline {
                let pause = picker.think_time();
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                open = send(&mut conn, &mut picker, &mut pending, &mut w);
            }
        }
        // Whatever is still pending never got its reply.
        w.failed += pending.len() as u64;
        w.elapsed = last - start;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(replies_per_tick: u64, ticks: usize) -> Window {
        let tick = 1_000_000_000u64;
        let done_ns = (0..ticks as u64)
            .flat_map(|t| (0..replies_per_tick).map(move |r| (t * tick + r, 1000 + r)))
            // One reply drained after the window closed.
            .chain([(ticks as u64 * tick + 5, 9)])
            .collect();
        Window {
            done_ns,
            cpu_marks: (0..=ticks).map(|t| t as f64 * 0.5).collect(),
            duration: Duration::from_secs(ticks as u64),
            ..Window::default()
        }
    }

    #[test]
    fn slices_keep_enough_replies_for_a_p99() {
        // 30 ticks of 150 replies: 4500 replies make 4 slices.
        let s = window(150, 30).slices();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|s| s.replies >= MIN_SLICE_REPLIES));
        assert_eq!(s.iter().map(|s| s.replies).sum::<usize>(), 4500);
        assert!(s.iter().all(|s| (s.rate - 150.0).abs() < 1e-9));
        assert!(s
            .iter()
            .all(|s| (s.cpu_per_reply_s - 0.5 / 150.0).abs() < 1e-12));
        // Plenty of replies: capped at MAX_SLICES; few: one slice.
        assert_eq!(window(5000, 30).slices().len(), MAX_SLICES);
        assert_eq!(window(10, 30).slices().len(), 1);
    }
}
