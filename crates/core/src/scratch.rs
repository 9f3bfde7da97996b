//! The eval scratch arena: a pool of recycled flat limb buffers.
//!
//! Steady-state homomorphic evaluation touches the same buffer shapes over
//! and over — `k·n` ciphertext polynomials, `(k+l)·n` lifted operands,
//! `k·n` digit polynomials — and the paper's coprocessor never allocates at
//! all: every intermediate lives in pre-sized BRAM. [`Arena`] is the
//! software analogue: a thread-safe pool of `Vec<u64>` buffers that
//! `tensor`/`relinearize`/`apply_galois`/hoisting draw from and return to,
//! so after a warm-up evaluation the hot path performs **zero heap
//! allocation** (asserted by `tests/alloc_steady_state.rs` with a counting
//! global allocator).
//!
//! The pool is deliberately simple: a mutex-guarded stack of buffers,
//! **bounded** by [`ArenaLimits`] along two axes per pool — a buffer
//! *count* high-water mark and a pooled-*bytes* high-water mark — plus a
//! per-buffer size ceiling: [`Arena::put`] drops a buffer instead of
//! pooling it when either mark is reached or the single buffer is
//! oversized, so recycling more than you take (e.g. an engine worker
//! feeding every job's operand ciphertexts back) cannot grow memory
//! without bound, and one freak allocation cannot pin megabytes in the
//! pool forever. Dropped returns and current occupancy are counted and
//! exposed via [`Arena::stats`] (the engine surfaces them as gauges).
//! The lock is uncontended in the common per-job usage (one arena per
//! engine worker) and is taken a handful of times per evaluation — noise
//! next to a single row NTT. Pooled buffers keep whatever capacity they
//! grew to, so one arena serving mixed shapes converges to the largest
//! working set and stays there.

use crate::rnspoly::{Domain, RnsPoly};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// High-water marks for an [`Arena`]'s recycling pools. Each of the two
/// pools (64-bit and 32-bit buffers) is bounded independently; the whole
/// arena therefore retains at most `2 × max_total_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaLimits {
    /// Maximum buffers kept per pool (≥ 1 enforced at construction).
    pub max_buffers: usize,
    /// Maximum bytes of backing capacity kept per pool; a return that
    /// would push the pool past this mark is dropped.
    pub max_total_bytes: usize,
    /// Per-buffer ceiling: a returned buffer whose backing capacity
    /// exceeds this many bytes is dropped outright, so one oversized
    /// allocation cannot monopolize the pool.
    pub max_buffer_bytes: usize,
}

impl Default for ArenaLimits {
    fn default() -> Self {
        ArenaLimits {
            max_buffers: Arena::DEFAULT_CAPACITY,
            max_total_bytes: Arena::DEFAULT_MAX_TOTAL_BYTES,
            max_buffer_bytes: Arena::DEFAULT_MAX_BUFFER_BYTES,
        }
    }
}

/// Point-in-time occupancy of an arena, aggregated across both pools
/// (see [`Arena::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers currently held in the pools.
    pub pooled_buffers: u64,
    /// Bytes of backing capacity currently held in the pools.
    pub pooled_bytes: u64,
    /// Cumulative returns dropped by any [`ArenaLimits`] bound.
    pub dropped: u64,
}

/// One bounded stack of recyclable buffers plus its byte accounting.
#[derive(Debug, Default)]
struct Pool<T> {
    bufs: Vec<Vec<T>>,
    bytes: usize,
}

/// A recycling pool of flat `u64` buffers (see the module docs).
///
/// `Arena` is `Send + Sync`; clones of buffers never escape — callers get
/// owned `Vec<u64>`/[`RnsPoly`] values and hand them back with
/// [`Arena::put`]/[`Arena::recycle`].
#[derive(Debug)]
pub struct Arena {
    pool: Mutex<Pool<u64>>,
    /// Separate pool for the 32-bit buffers of the narrow key-switch SoP
    /// fast path (transposed hoisted digits).
    pool32: Mutex<Pool<u32>>,
    limits: ArenaLimits,
    /// Returns dropped because a limit was reached (telemetry).
    dropped: AtomicU64,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl Arena {
    /// Default bound on pooled buffers per pool. Generously above the
    /// deepest single-evaluation working set (a `Mult` holds ~12 live
    /// buffers; a hoisted slot sum fewer), so the hot path never misses,
    /// while the worst case stays around `32 × (k+l)·n` words.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// Default per-pool pooled-bytes high-water mark (64 MiB) — roughly
    /// 4× the full-parameter `Mult` working set, so steady-state traffic
    /// never trips it.
    pub const DEFAULT_MAX_TOTAL_BYTES: usize = 64 << 20;

    /// Default single-buffer ceiling (8 MiB): an order of magnitude above
    /// the largest hot-path buffer at the paper's parameters
    /// (`(k+l)·n = 13 × 4096` words ≈ 416 KiB).
    pub const DEFAULT_MAX_BUFFER_BYTES: usize = 8 << 20;

    /// An empty arena (buffers are created on first use) with the default
    /// pool bounds.
    pub fn new() -> Self {
        Arena::with_limits(ArenaLimits::default())
    }

    /// An empty arena keeping at most `capacity` buffers per pool (≥ 1),
    /// with the default byte bounds.
    pub fn with_capacity(capacity: usize) -> Self {
        Arena::with_limits(ArenaLimits {
            max_buffers: capacity,
            ..ArenaLimits::default()
        })
    }

    /// An empty arena with explicit high-water marks (buffer count is
    /// clamped to ≥ 1).
    pub fn with_limits(limits: ArenaLimits) -> Self {
        Arena {
            pool: Mutex::new(Pool::default()),
            pool32: Mutex::new(Pool::default()),
            limits: ArenaLimits {
                max_buffers: limits.max_buffers.max(1),
                ..limits
            },
            dropped: AtomicU64::new(0),
        }
    }

    /// The configured high-water marks.
    pub fn limits(&self) -> ArenaLimits {
        self.limits
    }

    /// Pools `buf` if every limit allows it; counts a drop otherwise.
    /// Shared by both element widths — `byte_cap` is the buffer's backing
    /// capacity in bytes.
    fn put_bounded<T>(&self, pool: &Mutex<Pool<T>>, buf: Vec<T>, byte_cap: usize) {
        if byte_cap == 0 {
            return;
        }
        if byte_cap <= self.limits.max_buffer_bytes {
            let mut pool = pool.lock().unwrap();
            if pool.bufs.len() < self.limits.max_buffers
                && pool.bytes + byte_cap <= self.limits.max_total_bytes
            {
                pool.bytes += byte_cap;
                pool.bufs.push(buf);
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a buffer of exactly `len` elements with **unspecified
    /// contents** (callers that overwrite every element skip the zeroing
    /// pass). Reuses the most recently returned pooled buffer when one
    /// exists (whatever its capacity), growing it if needed.
    pub fn take(&self, len: usize) -> Vec<u64> {
        let mut buf = {
            let mut pool = self.pool.lock().unwrap();
            let buf = pool.bufs.pop().unwrap_or_default();
            pool.bytes -= buf.capacity() * size_of::<u64>();
            buf
        };
        // `resize` only writes when growing past the current length; a
        // recycled buffer of the right size costs nothing here.
        buf.resize(len, 0);
        buf
    }

    /// Takes a buffer of `len` zeros (for accumulators).
    pub fn take_zeroed(&self, len: usize) -> Vec<u64> {
        let mut buf = self.take(len);
        buf.fill(0);
        buf
    }

    /// Returns a buffer to the pool; dropped instead (and counted in
    /// [`Arena::stats`]) when any [`ArenaLimits`] bound — buffer count,
    /// pooled bytes, or per-buffer size — would be exceeded.
    pub fn put(&self, buf: Vec<u64>) {
        let byte_cap = buf.capacity() * size_of::<u64>();
        self.put_bounded(&self.pool, buf, byte_cap);
    }

    /// Takes a 32-bit buffer of exactly `len` elements with unspecified
    /// contents (the narrow-SoP digit scratch).
    pub fn take32(&self, len: usize) -> Vec<u32> {
        let mut buf = {
            let mut pool = self.pool32.lock().unwrap();
            let buf = pool.bufs.pop().unwrap_or_default();
            pool.bytes -= buf.capacity() * size_of::<u32>();
            buf
        };
        buf.resize(len, 0);
        buf
    }

    /// Returns a 32-bit buffer to the pool (same bounds as [`Arena::put`]).
    pub fn put32(&self, buf: Vec<u32>) {
        let byte_cap = buf.capacity() * size_of::<u32>();
        self.put_bounded(&self.pool32, buf, byte_cap);
    }

    /// Takes a `k × n` polynomial with unspecified coefficients in the
    /// given domain (for outputs that are fully overwritten).
    pub fn take_poly(&self, k: usize, n: usize, domain: Domain) -> RnsPoly {
        RnsPoly::from_flat(self.take(k * n), k, domain)
    }

    /// Takes a zeroed `k × n` polynomial (for accumulators).
    pub fn take_poly_zeroed(&self, k: usize, n: usize, domain: Domain) -> RnsPoly {
        RnsPoly::from_flat(self.take_zeroed(k * n), k, domain)
    }

    /// Recycles a polynomial's backing buffer.
    pub fn recycle(&self, poly: RnsPoly) {
        self.put(poly.into_flat());
    }

    /// Recycles both polynomials of a ciphertext.
    pub fn recycle_ciphertext(&self, ct: crate::encrypt::Ciphertext) {
        let (c0, c1) = ct.into_parts();
        self.recycle(c0);
        self.recycle(c1);
    }

    /// 64-bit buffers currently pooled (for tests and telemetry).
    pub fn pooled(&self) -> usize {
        self.pool.lock().unwrap().bufs.len()
    }

    /// Point-in-time occupancy and cumulative drop count, aggregated
    /// across both pools.
    pub fn stats(&self) -> ArenaStats {
        let (b64, by64) = {
            let p = self.pool.lock().unwrap();
            (p.bufs.len() as u64, p.bytes as u64)
        };
        let (b32, by32) = {
            let p = self.pool32.lock().unwrap();
            (p.bufs.len() as u64, p.bytes as u64)
        };
        ArenaStats {
            pooled_buffers: b64 + b32,
            pooled_bytes: by64 + by32,
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_capacity() {
        let arena = Arena::new();
        let mut buf = arena.take(64);
        buf.iter_mut().for_each(|x| *x = 7);
        let ptr = buf.as_ptr();
        arena.put(buf);
        assert_eq!(arena.pooled(), 1);
        let again = arena.take(64);
        assert_eq!(again.as_ptr(), ptr, "same allocation reused");
        assert_eq!(arena.pooled(), 0);
        // take() leaves stale contents; take_zeroed() clears them.
        arena.put(again);
        let z = arena.take_zeroed(64);
        assert!(z.iter().all(|&x| x == 0));
    }

    #[test]
    fn pool_is_bounded() {
        let arena = Arena::with_capacity(2);
        for _ in 0..5 {
            arena.put(vec![0u64; 8]);
        }
        assert_eq!(arena.pooled(), 2, "excess buffers are dropped, not kept");
        // The default bound also applies to a fresh arena.
        let arena = Arena::new();
        for _ in 0..Arena::DEFAULT_CAPACITY + 10 {
            arena.put(vec![0u64; 8]);
        }
        assert_eq!(arena.pooled(), Arena::DEFAULT_CAPACITY);
    }

    #[test]
    fn byte_high_water_mark_bounds_the_pool() {
        // Room for many buffers by count, but only ~2 × 64-word buffers
        // by bytes.
        let arena = Arena::with_limits(ArenaLimits {
            max_buffers: 100,
            max_total_bytes: 2 * 64 * 8,
            max_buffer_bytes: 64 * 8,
        });
        for _ in 0..5 {
            arena.put(vec![0u64; 64]);
        }
        let s = arena.stats();
        assert_eq!(s.pooled_buffers, 2, "byte mark caps the pool");
        assert_eq!(s.pooled_bytes, 2 * 64 * 8);
        assert_eq!(s.dropped, 3);
        // Taking a buffer releases its bytes so a later return fits again.
        let b = arena.take(64);
        assert_eq!(arena.stats().pooled_bytes, 64 * 8);
        arena.put(b);
        assert_eq!(arena.stats().pooled_bytes, 2 * 64 * 8);
    }

    #[test]
    fn oversized_returns_are_dropped() {
        let arena = Arena::with_limits(ArenaLimits {
            max_buffers: 8,
            max_total_bytes: 1 << 20,
            max_buffer_bytes: 32 * 8,
        });
        arena.put(vec![0u64; 32]); // exactly at the ceiling: kept
        arena.put(vec![0u64; 33]); // over: dropped
        arena.put32(vec![0u32; 64]); // 256 B: kept
        arena.put32(vec![0u32; 100]); // 400 B: dropped
        let s = arena.stats();
        assert_eq!(s.pooled_buffers, 2);
        assert_eq!(s.pooled_bytes, 32 * 8 + 64 * 4);
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn stats_track_both_pools() {
        let arena = Arena::new();
        assert_eq!(arena.stats(), ArenaStats::default());
        arena.put(vec![0u64; 16]);
        arena.put32(vec![0u32; 16]);
        let s = arena.stats();
        assert_eq!(s.pooled_buffers, 2);
        assert_eq!(s.pooled_bytes, 16 * 8 + 16 * 4);
        assert_eq!(s.dropped, 0);
        let _ = arena.take32(16);
        assert_eq!(arena.stats().pooled_bytes, 16 * 8);
    }

    #[test]
    fn poly_roundtrip_keeps_shape() {
        let arena = Arena::new();
        let p = arena.take_poly_zeroed(3, 8, Domain::Ntt);
        assert_eq!((p.k(), p.n(), p.domain()), (3, 8, Domain::Ntt));
        arena.recycle(p);
        let q = arena.take_poly(2, 12, Domain::Coefficient);
        assert_eq!(q.flat().len(), 24);
    }
}
