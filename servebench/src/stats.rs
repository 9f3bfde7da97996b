//! Percentiles, process counters from `/proc`, and the environment stamp.

use std::fs;

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `/proc` reports CPU time in USER_HZ ticks, fixed at 100 per second on
/// Linux for every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_SECOND
}

/// Peak resident set size (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The vector extensions the kernel lanes care about, as `/proc/cpuinfo`
/// lists them.
pub fn cpu_vector_flags() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = info
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| {
            l.trim_start_matches([' ', '\t', ':'])
                .split_whitespace()
                .collect()
        })
        .unwrap_or_default();
    let wanted = [
        "sse4_2",
        "avx",
        "avx2",
        "fma",
        "avx512f",
        "avx512dq",
        "avx512ifma",
    ];
    let present: Vec<&str> = wanted.into_iter().filter(|w| flags.contains(w)).collect();
    if present.is_empty() {
        "none".into()
    } else {
        present.join(",")
    }
}

/// The commit under test, as `.git` in the working directory names it;
/// `unknown` without one.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(cpu_seconds() > 0.0);
    }
}
