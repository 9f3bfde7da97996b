//! AVX2 lane implementations of the dispatched kernels: the Harvey NTT
//! butterflies, pointwise (Hadamard) multiplication, the key-switch
//! sum-of-products row, the three blocks of the HPS basis conversions
//! (`Lift`/`Scale`), and the `PCLMULQDQ` CRC-32 fold.
//!
//! Everything here is selected at runtime by [`crate::dispatch`]; nothing
//! in this module is reachable unless `is_x86_feature_detected!` found
//! both `avx2` and `pclmulqdq` (or a test asked for the AVX2 table
//! explicitly on a machine that has them). All functions are
//! `#[target_feature(enable = "avx2")]` (the CRC fold adds `pclmulqdq`)
//! and therefore `unsafe` to call; the dispatch layer owns the one safety
//! obligation (the features are present).
//!
//! # Lane-range invariants
//!
//! The scalar Harvey transforms already keep every intermediate in a
//! fixed, branch-free range (forward `[0, 4q)`, inverse `[0, 2q)` — see
//! [`crate::ntt`]), which is exactly what packed lanes need. Two widths:
//!
//! * **Narrow** (`q < 2^30`, the paper's 30-bit RNS primes): all relaxed
//!   values satisfy `4q < 2^32`, so a lazy Shoup product is three
//!   `pmuludq` per 4 lanes using the *truncated* Shoup constant
//!   `⌊w·2^32/q⌋ = w_shoup >> 32` — no extra twiddle storage. The
//!   truncated estimate still undershoots `⌊w·v/q⌋` by less than 2 for
//!   any `v < 2^32`, so the product lands in `[0, 2q)` like the scalar
//!   one. Intermediate *representatives* may differ from the scalar
//!   path's, but both transforms end with the same exact reduction to
//!   `[0, q)`, so outputs are **bit-identical** (a proptest pins this).
//! * **Wide** (any `q < 2^62`): a generic 64×64 high/low multiply built
//!   from four `pmuludq` partial products evaluates the *same* formula
//!   as the scalar `ShoupMul::mul_lazy`, so even intermediates match
//!   bit-for-bit. Values can exceed `2^63`, so conditional subtractions
//!   use sign-bias-corrected comparisons.
//!
//! Pointwise multiplication is vectorized for `q < 2^32` (the product
//! fits one `u64` lane; reduction is the same single-word Barrett as
//! [`crate::zq::Modulus::reduce_u64`], giving identical values); wider
//! moduli fall back to the scalar 128-bit path at the dispatch layer.
//!
//! The key-switch SoP row (moduli below `2^31`) streams digit-major
//! `u32` lines across coefficients, eight per step: even coefficients
//! multiply in place under `pmuludq` and odd ones after a 32-bit shift,
//! into `u64` lanes that take a partial reduction every `T` digits and
//! one [`reduce_u64_narrow`] per output, with no horizontal sum. Only the
//! output is permuted: each canonical sum is added into the accumulator
//! through the scatter table by a checked scalar store, so an
//! out-of-range entry panics instead of writing stray memory. The exact
//! sums and canonical reductions make it bit-identical to the scalar
//! lane's blocked loop.
//!
//! The HPS blocks work on moduli below `2^31` (see [`crate::rns`] for
//! the limb-sum and fold bounds): the premultiply is the narrow Shoup
//! product finished to `[0, q)`, the quotient limb sums and the
//! cross-basis sums of products are `pmuludq` products of `u32` lanes
//! accumulated exactly in `u64`, and every output takes the same
//! single-word Barrett reduction as [`Modulus::reduce_u64`]. The `F64`
//! quotient runs the scalar sum's multiply-then-add sequence per lane in
//! the same order, so it rounds identically.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::ntt::NttTable;
use crate::rns::{HpsConv, HpsPrecision, FRAC_LIMB_BITS, HPS_BLOCK};
use crate::zq::{Modulus, ShoupMul};
use core::arch::x86_64::*;

/// Moduli below this bound use the narrow (32-bit-operand) NTT kernels:
/// `q < 2^30` keeps the relaxed range `[0, 4q)` inside 32 bits.
pub(crate) const NARROW_NTT_BOUND: u64 = 1 << 30;

/// Moduli below this bound use the vector key-switch SoP, whose
/// [`reduce_u64_narrow`] needs `q < 2^31`.
pub(crate) const NARROW_SOP_BOUND: u64 = 1 << 31;

/// Moduli below this bound use the vector pointwise kernels: operands in
/// `[0, q)` with `q < 2^32` keep the full product inside one 64-bit lane.
pub(crate) const NARROW_POINTWISE_BOUND: u64 = 1 << 32;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load4(p: *const u64) -> __m256i {
    _mm256_loadu_si256(p as *const __m256i)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store4(p: *mut u64, v: __m256i) {
    _mm256_storeu_si256(p as *mut __m256i, v)
}

/// `x >= m ? x - m : x` per lane, valid when both values are `< 2^63`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn csub(x: __m256i, m: __m256i) -> __m256i {
    let keep = _mm256_cmpgt_epi64(m, x);
    _mm256_sub_epi64(x, _mm256_andnot_si256(keep, m))
}

/// `x >= m ? x - m : x` per lane for full-range `u64` values: the signed
/// comparison is bias-corrected by flipping the sign bit of both sides.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn csub_u(x: __m256i, m: __m256i) -> __m256i {
    let bias = _mm256_set1_epi64x(i64::MIN);
    let keep = _mm256_cmpgt_epi64(_mm256_xor_si256(m, bias), _mm256_xor_si256(x, bias));
    _mm256_sub_epi64(x, _mm256_andnot_si256(keep, m))
}

/// High 64 bits of the unsigned 64×64 product, per lane, from four
/// `pmuludq` partial products with exact carry propagation.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mulhi64(a: __m256i, b: __m256i) -> __m256i {
    let lomask = _mm256_set1_epi64x(0xFFFF_FFFF);
    let ah = _mm256_srli_epi64(a, 32);
    let bh = _mm256_srli_epi64(b, 32);
    let ll = _mm256_mul_epu32(a, b);
    let lh = _mm256_mul_epu32(a, bh);
    let hl = _mm256_mul_epu32(ah, b);
    let hh = _mm256_mul_epu32(ah, bh);
    // mid < 3·2^32 fits a lane; the final sum is the exact high word.
    let mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, lomask)),
        _mm256_and_si256(hl, lomask),
    );
    _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)),
    )
}

/// Low 64 bits of the unsigned 64×64 product (wrapping), per lane.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
    let cross = _mm256_add_epi64(
        _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
        _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
    );
    _mm256_add_epi64(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32))
}

/// Narrow lazy Shoup product: `w·v mod q` relaxed to `[0, 2q)`, for
/// `v < 2^32`, `w < q < 2^31`, using the truncated constant `⌊w·2^32/q⌋`
/// (the high half of the stored 64-bit Shoup constant). Three `pmuludq`:
/// `w·v < 2^63` and the quotient estimate `< 2^32` stay exact in 32×32-bit
/// products, and it undershoots `⌊w·v/q⌋` by at most one.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_lazy_narrow(v: __m256i, w: __m256i, w_shoup32: __m256i, q: __m256i) -> __m256i {
    let q_hat = _mm256_srli_epi64(_mm256_mul_epu32(w_shoup32, v), 32);
    _mm256_sub_epi64(_mm256_mul_epu32(w, v), _mm256_mul_epu32(q_hat, q))
}

/// Wide lazy Shoup product — the exact vector transcription of
/// [`crate::zq::ShoupMul::mul_lazy`]: valid for any 64-bit `v`, result
/// in `[0, 2q)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_lazy_wide(v: __m256i, w: __m256i, w_shoup: __m256i, q: __m256i) -> __m256i {
    let q_hat = mulhi64(w_shoup, v);
    _mm256_sub_epi64(mullo64(w, v), mullo64(q_hat, q))
}

// ---------------------------------------------------------------------------
// NTT kernels
// ---------------------------------------------------------------------------

/// Exact `[0, 4q) → [0, q)` reduction of one narrow vector (values are
/// `< 2^32`, so plain signed compares suffice).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce4q(x: __m256i, qv: __m256i, two_qv: __m256i) -> __m256i {
    csub(csub(x, two_qv), qv)
}

/// Forward Harvey NTT, narrow path (`q < 2^30`). Same stage structure as
/// [`NttTable::forward_scalar`]; butterflies run 4 lanes wide at every
/// stage — spans `t ≥ 4` directly, `t = 2` via 128-bit-lane shuffles
/// (two groups per vector), `t = 1` via 64-bit interleaves (four groups
/// per vector) with the final exact-reduction pass **fused into the last
/// stage's outputs**, so no separate sweep over the array is needed.
/// Tail-stage twiddles are loaded pairwise straight out of the
/// `repr(C)` [`crate::zq::ShoupMul`] table.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_forward_narrow(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    debug_assert!(q < NARROW_NTT_BOUND);
    let two_q = q << 1;
    let n = table.n();
    let psi = table.psi_brev_table();
    let psi_ptr = psi.as_ptr();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        if t >= 4 {
            for i in 0..m {
                let s = psi[m + i];
                let w = _mm256_set1_epi64x(s.w as i64);
                let ws32 = _mm256_set1_epi64x((s.w_shoup >> 32) as i64);
                let j1 = 2 * i * t;
                let mut j = j1;
                // Two independent butterfly vectors per iteration hide
                // the pmuludq latency.
                while j + 8 <= j1 + t {
                    let u0 = csub(load4(base.add(j)), two_qv);
                    let u1 = csub(load4(base.add(j + 4)), two_qv);
                    let v0 = mul_lazy_narrow(load4(base.add(j + t)), w, ws32, qv);
                    let v1 = mul_lazy_narrow(load4(base.add(j + t + 4)), w, ws32, qv);
                    store4(base.add(j), _mm256_add_epi64(u0, v0));
                    store4(base.add(j + 4), _mm256_add_epi64(u1, v1));
                    store4(
                        base.add(j + t),
                        _mm256_add_epi64(u0, _mm256_sub_epi64(two_qv, v0)),
                    );
                    store4(
                        base.add(j + t + 4),
                        _mm256_add_epi64(u1, _mm256_sub_epi64(two_qv, v1)),
                    );
                    j += 8;
                }
                while j < j1 + t {
                    let u = csub(load4(base.add(j)), two_qv);
                    let v = mul_lazy_narrow(load4(base.add(j + t)), w, ws32, qv);
                    store4(base.add(j), _mm256_add_epi64(u, v));
                    store4(
                        base.add(j + t),
                        _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v)),
                    );
                    j += 4;
                }
            }
        } else if t == 2 {
            // Groups are 4 contiguous values [u0, u1, v0, v1]; two groups
            // ride one vector pair via 128-bit-lane permutes, and their
            // twiddle pair loads as one vector from the repr(C) table.
            let pairs = m / 2;
            for p in 0..pairs {
                let g = 2 * p;
                let ptr = base.add(4 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                let us = _mm256_permute2x128_si256(x, y, 0x20);
                let vs = _mm256_permute2x128_si256(x, y, 0x31);
                let tw = load4(psi_ptr.add(m + g) as *const u64);
                let w = _mm256_permute4x64_epi64(tw, 0b10_10_00_00);
                let ws32 = _mm256_srli_epi64(_mm256_permute4x64_epi64(tw, 0b11_11_01_01), 32);
                let u = csub(us, two_qv);
                let v = mul_lazy_narrow(vs, w, ws32, qv);
                let lo = _mm256_add_epi64(u, v);
                let hi = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                store4(ptr, _mm256_permute2x128_si256(lo, hi, 0x20));
                store4(ptr.add(4), _mm256_permute2x128_si256(lo, hi, 0x31));
            }
            for i in (2 * pairs)..m {
                let s = psi[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let mut u = a[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = s.mul_lazy(a[j + t], q);
                    a[j] = u + v;
                    a[j + t] = u + two_q - v;
                }
            }
        } else {
            // Final stage (t = 1): groups are adjacent pairs [u, v]; four
            // groups per vector pair via 64-bit interleaves. The exact
            // reduction to [0, q) is fused into the outputs, replacing
            // the scalar path's separate final pass.
            let quads = m / 4;
            for p in 0..quads {
                let g = 4 * p;
                let ptr = base.add(2 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                // us = [u0, u2, u1, u3], vs = [v0, v2, v1, v3] — the
                // twiddle loads interleave into the identical order.
                let us = _mm256_unpacklo_epi64(x, y);
                let vs = _mm256_unpackhi_epi64(x, y);
                let t0 = load4(psi_ptr.add(m + g) as *const u64);
                let t1 = load4(psi_ptr.add(m + g + 2) as *const u64);
                let w = _mm256_unpacklo_epi64(t0, t1);
                let ws32 = _mm256_srli_epi64(_mm256_unpackhi_epi64(t0, t1), 32);
                let u = csub(us, two_qv);
                let v = mul_lazy_narrow(vs, w, ws32, qv);
                let lo = reduce4q(_mm256_add_epi64(u, v), qv, two_qv);
                let hi = reduce4q(_mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v)), qv, two_qv);
                store4(ptr, _mm256_unpacklo_epi64(lo, hi));
                store4(ptr.add(4), _mm256_unpackhi_epi64(lo, hi));
            }
            for i in (4 * quads)..m {
                let s = psi[m + i];
                let j = 2 * i;
                let mut u = a[j];
                if u >= two_q {
                    u -= two_q;
                }
                let v = s.mul_lazy(a[j + 1], q);
                let mut x0 = u + v;
                let mut x1 = u + two_q - v;
                if x0 >= two_q {
                    x0 -= two_q;
                }
                if x0 >= q {
                    x0 -= q;
                }
                if x1 >= two_q {
                    x1 -= two_q;
                }
                if x1 >= q {
                    x1 -= q;
                }
                a[j] = x0;
                a[j + 1] = x1;
            }
        }
        m <<= 1;
    }
}

/// Forward Harvey NTT, wide path (any `q < 2^62`) — bit-identical
/// intermediates to the scalar transform, with bias-corrected compares
/// because relaxed values can cross `2^63`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_forward_wide(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    let two_q = q << 1;
    let n = table.n();
    let psi = table.psi_brev_table();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        if t >= 4 {
            for i in 0..m {
                let s = psi[m + i];
                let w = _mm256_set1_epi64x(s.w as i64);
                let ws = _mm256_set1_epi64x(s.w_shoup as i64);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = csub_u(load4(base.add(j)), two_qv);
                    let v = mul_lazy_wide(load4(base.add(j + t)), w, ws, qv);
                    store4(base.add(j), _mm256_add_epi64(u, v));
                    store4(
                        base.add(j + t),
                        _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v)),
                    );
                    j += 4;
                }
            }
        } else {
            for i in 0..m {
                let s = psi[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let mut u = a[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = s.mul_lazy(a[j + t], q);
                    a[j] = u + v;
                    a[j + t] = u + two_q - v;
                }
            }
        }
        m <<= 1;
    }
    final_reduce_u(a, q, two_q);
}

/// Inverse Harvey NTT, narrow path (`q < 2^30`). The first two stages
/// (`t ∈ {1,2}`) run 4 lanes wide via interleave/permute shuffles with
/// pairwise twiddle loads; for `n ≥ 8` the closing `n^{-1}` scaling pass
/// is **fused into the last GS stage** (single twiddle, composed with
/// `n^{-1}` into one exact Shoup product), so the array is swept once
/// less. Outputs stay canonical `[0, q)` exactly like the scalar path.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_inverse_narrow(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    debug_assert!(q < NARROW_NTT_BOUND);
    let two_q = q << 1;
    let n = table.n();
    let inv_psi = table.inv_psi_brev_table();
    let inv_ptr = inv_psi.as_ptr();
    let n_inv = table.n_inv_shoup();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut scaled = false;
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        let h = m >> 1;
        if t >= 4 {
            if h == 1 {
                // Last stage: one group, one twiddle. Fold the n^{-1}
                // scaling in — sum branch scaled by n^{-1}, product
                // branch by the composed constant n^{-1}·w — and emit
                // exact [0, q) values (lazy product + one csub).
                let s = inv_psi[1];
                let comp = crate::zq::ShoupMul::new(table.modulus().mul(n_inv.w, s.w), q);
                let ws = _mm256_set1_epi64x(n_inv.w as i64);
                let wss32 = _mm256_set1_epi64x((n_inv.w_shoup >> 32) as i64);
                let wc = _mm256_set1_epi64x(comp.w as i64);
                let wcs32 = _mm256_set1_epi64x((comp.w_shoup >> 32) as i64);
                let mut j = 0usize;
                while j < t {
                    let u = load4(base.add(j));
                    let v = load4(base.add(j + t));
                    let sum = csub(_mm256_add_epi64(u, v), two_qv);
                    let diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                    store4(base.add(j), csub(mul_lazy_narrow(sum, ws, wss32, qv), qv));
                    store4(
                        base.add(j + t),
                        csub(mul_lazy_narrow(diff, wc, wcs32, qv), qv),
                    );
                    j += 4;
                }
                scaled = true;
            } else {
                let mut j1 = 0usize;
                for i in 0..h {
                    let s = inv_psi[h + i];
                    let w = _mm256_set1_epi64x(s.w as i64);
                    let ws32 = _mm256_set1_epi64x((s.w_shoup >> 32) as i64);
                    let mut j = j1;
                    while j + 8 <= j1 + t {
                        let u0 = load4(base.add(j));
                        let u1 = load4(base.add(j + 4));
                        let v0 = load4(base.add(j + t));
                        let v1 = load4(base.add(j + t + 4));
                        store4(base.add(j), csub(_mm256_add_epi64(u0, v0), two_qv));
                        store4(base.add(j + 4), csub(_mm256_add_epi64(u1, v1), two_qv));
                        let d0 = _mm256_add_epi64(u0, _mm256_sub_epi64(two_qv, v0));
                        let d1 = _mm256_add_epi64(u1, _mm256_sub_epi64(two_qv, v1));
                        store4(base.add(j + t), mul_lazy_narrow(d0, w, ws32, qv));
                        store4(base.add(j + t + 4), mul_lazy_narrow(d1, w, ws32, qv));
                        j += 8;
                    }
                    while j < j1 + t {
                        let u = load4(base.add(j));
                        let v = load4(base.add(j + t));
                        store4(base.add(j), csub(_mm256_add_epi64(u, v), two_qv));
                        let diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                        store4(base.add(j + t), mul_lazy_narrow(diff, w, ws32, qv));
                        j += 4;
                    }
                    j1 += 2 * t;
                }
            }
        } else if t == 2 {
            // Mirror of the forward t = 2 stage: two groups of
            // [u0, u1, v0, v1] per vector pair via 128-bit permutes.
            let pairs = h / 2;
            for p in 0..pairs {
                let g = 2 * p;
                let ptr = base.add(4 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                let us = _mm256_permute2x128_si256(x, y, 0x20);
                let vs = _mm256_permute2x128_si256(x, y, 0x31);
                let tw = load4(inv_ptr.add(h + g) as *const u64);
                let w = _mm256_permute4x64_epi64(tw, 0b10_10_00_00);
                let ws32 = _mm256_srli_epi64(_mm256_permute4x64_epi64(tw, 0b11_11_01_01), 32);
                let sum = csub(_mm256_add_epi64(us, vs), two_qv);
                let diff = _mm256_add_epi64(us, _mm256_sub_epi64(two_qv, vs));
                let prod = mul_lazy_narrow(diff, w, ws32, qv);
                store4(ptr, _mm256_permute2x128_si256(sum, prod, 0x20));
                store4(ptr.add(4), _mm256_permute2x128_si256(sum, prod, 0x31));
            }
            for i in (2 * pairs)..h {
                let s = inv_psi[h + i];
                let j1 = 4 * i;
                for j in j1..j1 + 2 {
                    let u = a[j];
                    let v = a[j + 2];
                    let mut sum = u + v;
                    if sum >= two_q {
                        sum -= two_q;
                    }
                    a[j] = sum;
                    a[j + 2] = s.mul_lazy(u + two_q - v, q);
                }
            }
        } else {
            // First stage (t = 1): four adjacent [u, v] groups per
            // vector pair via 64-bit interleaves; the twiddle pair loads
            // interleave into the same scrambled lane order as the data.
            let quads = h / 4;
            for p in 0..quads {
                let g = 4 * p;
                let ptr = base.add(2 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                let us = _mm256_unpacklo_epi64(x, y);
                let vs = _mm256_unpackhi_epi64(x, y);
                let t0 = load4(inv_ptr.add(h + g) as *const u64);
                let t1 = load4(inv_ptr.add(h + g + 2) as *const u64);
                let w = _mm256_unpacklo_epi64(t0, t1);
                let ws32 = _mm256_srli_epi64(_mm256_unpackhi_epi64(t0, t1), 32);
                let sum = csub(_mm256_add_epi64(us, vs), two_qv);
                let diff = _mm256_add_epi64(us, _mm256_sub_epi64(two_qv, vs));
                let prod = mul_lazy_narrow(diff, w, ws32, qv);
                store4(ptr, _mm256_unpacklo_epi64(sum, prod));
                store4(ptr.add(4), _mm256_unpackhi_epi64(sum, prod));
            }
            for i in (4 * quads)..h {
                let s = inv_psi[h + i];
                let j = 2 * i;
                let u = a[j];
                let v = a[j + 1];
                let mut sum = u + v;
                if sum >= two_q {
                    sum -= two_q;
                }
                a[j] = sum;
                a[j + 1] = s.mul_lazy(u + two_q - v, q);
            }
        }
        t <<= 1;
        m = h;
    }
    if !scaled {
        // Tiny n (< 8) never reached a fuseable vector stage: close with
        // the strict n^{-1} scaling sweep.
        for x in a.iter_mut() {
            *x = n_inv.mul(*x, q);
        }
    }
}

/// Inverse Harvey NTT, wide path (any `q < 2^62`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_inverse_wide(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    let two_q = q << 1;
    let n = table.n();
    let inv_psi = table.inv_psi_brev_table();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        let h = m >> 1;
        if t >= 4 {
            let mut j1 = 0usize;
            for i in 0..h {
                let s = inv_psi[h + i];
                let w = _mm256_set1_epi64x(s.w as i64);
                let ws = _mm256_set1_epi64x(s.w_shoup as i64);
                let mut j = j1;
                while j < j1 + t {
                    let u = load4(base.add(j));
                    let v = load4(base.add(j + t));
                    store4(base.add(j), csub_u(_mm256_add_epi64(u, v), two_qv));
                    let diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                    store4(base.add(j + t), mul_lazy_wide(diff, w, ws, qv));
                    j += 4;
                }
                j1 += 2 * t;
            }
        } else {
            let mut j1 = 0usize;
            for i in 0..h {
                let s = inv_psi[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    let mut sum = u + v;
                    if sum >= two_q {
                        sum -= two_q;
                    }
                    a[j] = sum;
                    a[j + t] = s.mul_lazy(u + two_q - v, q);
                }
                j1 += 2 * t;
            }
        }
        t <<= 1;
        m = h;
    }
    let s = table.n_inv_shoup();
    let w = _mm256_set1_epi64x(s.w as i64);
    let ws = _mm256_set1_epi64x(s.w_shoup as i64);
    let mut i = 0usize;
    while i + 4 <= n {
        let r = mul_lazy_wide(load4(base.add(i)), w, ws, qv);
        store4(base.add(i), csub_u(r, qv));
        i += 4;
    }
    for x in &mut a[i..] {
        *x = s.mul(*x, q);
    }
}

/// Exact final reduction `[0, 4q) → [0, q)` for full-range values.
#[target_feature(enable = "avx2")]
unsafe fn final_reduce_u(a: &mut [u64], q: u64, two_q: u64) {
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= a.len() {
        let r = csub(csub_u(load4(base.add(i)), two_qv), qv);
        store4(base.add(i), r);
        i += 4;
    }
    for x in &mut a[i..] {
        let mut r = *x;
        if r >= two_q {
            r -= two_q;
        }
        if r >= q {
            r -= q;
        }
        *x = r;
    }
}

// ---------------------------------------------------------------------------
// Pointwise kernels (q < 2^32)
// ---------------------------------------------------------------------------

/// Vector single-word Barrett reduction of a full 64-bit lane value —
/// the exact transcription of [`Modulus::reduce_u64`] (same quotient
/// estimate, at most three corrective subtractions).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_u64_vec(x: __m256i, b64: __m256i, qv: __m256i) -> __m256i {
    let q_hat = mulhi64(x, b64);
    let r = _mm256_sub_epi64(x, mullo64(q_hat, qv));
    // r < 4q < 2^34: plain signed compares are safe.
    csub(csub(csub(r, qv), qv), qv)
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pointwise_mul_narrow(m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
    let qv = _mm256_set1_epi64x(m.value() as i64);
    let b64 = _mm256_set1_epi64x(m.barrett_64() as i64);
    let n = dst.len();
    let (pa, pb, pd) = (a.as_ptr(), b.as_ptr(), dst.as_mut_ptr());
    let mut i = 0usize;
    while i + 4 <= n {
        let prod = _mm256_mul_epu32(load4(pa.add(i)), load4(pb.add(i)));
        store4(pd.add(i), reduce_u64_vec(prod, b64, qv));
        i += 4;
    }
    for j in i..n {
        dst[j] = m.mul(a[j], b[j]);
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pointwise_mul_assign_narrow(m: &Modulus, dst: &mut [u64], b: &[u64]) {
    let qv = _mm256_set1_epi64x(m.value() as i64);
    let b64 = _mm256_set1_epi64x(m.barrett_64() as i64);
    let n = dst.len();
    let (pb, pd) = (b.as_ptr(), dst.as_mut_ptr());
    let mut i = 0usize;
    while i + 4 <= n {
        let prod = _mm256_mul_epu32(load4(pd.add(i)), load4(pb.add(i)));
        store4(pd.add(i), reduce_u64_vec(prod, b64, qv));
        i += 4;
    }
    for j in i..n {
        dst[j] = m.mul(dst[j], b[j]);
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pointwise_mul_acc_narrow(m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
    let qv = _mm256_set1_epi64x(m.value() as i64);
    let b64 = _mm256_set1_epi64x(m.barrett_64() as i64);
    let n = acc.len();
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), acc.as_mut_ptr());
    let mut i = 0usize;
    while i + 4 <= n {
        // a·b < q² ≤ (2^32−1)², so adding the accumulator (< q) cannot wrap.
        let prod = _mm256_mul_epu32(load4(pa.add(i)), load4(pb.add(i)));
        let sum = _mm256_add_epi64(prod, load4(pc.add(i)));
        store4(pc.add(i), reduce_u64_vec(sum, b64, qv));
        i += 4;
    }
    for j in i..n {
        acc[j] = m.mul_add(a[j], b[j], acc[j]);
    }
}

// ---------------------------------------------------------------------------
// Key-switch sum of products (digit-major lines, scattered outputs)
// ---------------------------------------------------------------------------

/// The storage-order SoP row (see the module notes) over whole groups of
/// eight coefficients; returns how many it did, the rest being the scalar
/// lane's. The dispatcher sizes `fold` so no lane sum can wrap.
///
/// # Safety
///
/// The CPU supports AVX2, `q < 2^31`, and the slices have the shapes
/// `Kernels::sop_narrow_row` asserts: `digits`, `ksk0` and `ksk1` hold
/// `k·n` entries for `n = perm.len()`, and `c0_row` (if any) `n`. (The
/// raw reads depend only on those lengths; `perm` is read through checked
/// slices.)
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn sop_narrow_row(
    m: &Modulus,
    perm: &[u32],
    digits: &[u32],
    ksk0: &[u32],
    ksk1: &[u32],
    c0_row: Option<&[u64]>,
    acc0: &mut [u64],
    acc1: &mut [u64],
    fold: usize,
) -> usize {
    let n = perm.len();
    let row = SopRow {
        n,
        k: digits.len() / n,
        fold,
        lines: [digits.as_ptr(), ksk0.as_ptr(), ksk1.as_ptr()],
        seed: c0_row.map(|r| r.as_ptr()),
        reducer: NarrowReducer::new(m, ShoupMul::new((1 << 32) % m.value(), m.value())),
    };
    let q = m.value();
    let mut u = 0usize;
    while u + 8 <= n {
        let mut lanes = [[0u64; 8]; 2];
        for (dst, sums) in lanes.iter_mut().zip(row.columns(u)) {
            store4(dst.as_mut_ptr(), sums[0]);
            store4(dst.as_mut_ptr().add(4), sums[1]);
        }
        let targets = &perm[u..u + 8];
        for l in 0..4 {
            // Lane `l` of the even vector is coefficient `u + 2l`, of the
            // odd one `u + 2l + 1`.
            for parity in 0..2 {
                let t = targets[2 * l + parity] as usize;
                let (s0, s1) = (lanes[0][4 * parity + l], lanes[1][4 * parity + l]);
                // Both terms are below q: `min` picks the canonical sum
                // without a branch (`x − q` wraps above `x` when `x < q`).
                let (x0, x1) = (acc0[t] + s0, acc1[t] + s1);
                acc0[t] = x0.min(x0.wrapping_sub(q));
                acc1[t] = x1.min(x1.wrapping_sub(q));
            }
        }
        u += 8;
    }
    u
}

/// One residue row of [`sop_narrow_row`], its constants broadcast once.
struct SopRow {
    n: usize,
    k: usize,
    fold: usize,
    /// The digit, `ksk0` and `ksk1` lines, `k·n` entries each.
    lines: [*const u32; 3],
    seed: Option<*const u64>,
    reducer: NarrowReducer,
}

impl SopRow {
    /// The canonical sums of the eight coefficients from `u`:
    /// `[half][parity]`, `parity` 0 holding `u, u+2, u+4, u+6` and 1 the
    /// odd ones.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn columns(&self, u: usize) -> [[__m256i; 2]; 2] {
        let mut s = [[_mm256_setzero_si256(); 2]; 2];
        if let Some(seed) = self.seed {
            // [c0 c4 c2 c6] and [c1 c5 c3 c7], each put in order.
            let (a, b) = (load4(seed.add(u)), load4(seed.add(u + 4)));
            s[0][0] = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(a, b), 0b11_01_10_00);
            s[0][1] = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(a, b), 0b11_01_10_00);
        }
        let [d, x0, x1] = self.lines;
        for lo in (0..self.k).step_by(self.fold) {
            if lo > 0 {
                for a in s.iter_mut().flatten() {
                    *a = reduce_u64_narrow(*a, &self.reducer);
                }
            }
            for i in lo..self.k.min(lo + self.fold) {
                let at = i * self.n + u;
                let dv = _mm256_loadu_si256(d.add(at) as *const __m256i);
                let w0 = _mm256_loadu_si256(x0.add(at) as *const __m256i);
                let w1 = _mm256_loadu_si256(x1.add(at) as *const __m256i);
                let d_odd = _mm256_srli_epi64(dv, 32);
                let (w0_odd, w1_odd) = (_mm256_srli_epi64(w0, 32), _mm256_srli_epi64(w1, 32));
                s[0][0] = _mm256_add_epi64(s[0][0], _mm256_mul_epu32(dv, w0));
                s[0][1] = _mm256_add_epi64(s[0][1], _mm256_mul_epu32(d_odd, w0_odd));
                s[1][0] = _mm256_add_epi64(s[1][0], _mm256_mul_epu32(dv, w1));
                s[1][1] = _mm256_add_epi64(s[1][1], _mm256_mul_epu32(d_odd, w1_odd));
            }
        }
        for a in s.iter_mut().flatten() {
            *a = reduce_u64_narrow(*a, &self.reducer);
        }
        s
    }
}

// ---------------------------------------------------------------------------
// HPS basis-conversion blocks (moduli < 2^31)
// ---------------------------------------------------------------------------

/// Exact reduction of full 64-bit lanes modulo `q < 2^31` in five
/// `pmuludq`: the high word folds in through the narrow Shoup product
/// `x_hi·(2^32 mod q)` and the low word through a narrow Barrett step
/// (`floor(2^32/q)`, the high half of `Modulus::barrett_64`), each
/// landing in `[0, 2q)`; two csubs finish the sum `< 4q`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_u64_narrow(x: __m256i, r: &NarrowReducer) -> __m256i {
    let hi = mul_lazy_narrow(_mm256_srli_epi64(x, 32), r.pow32, r.pow32_shoup32, r.qv);
    let lo = _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFF_FFFF));
    let q_hat = _mm256_srli_epi64(_mm256_mul_epu32(x, r.inv32), 32);
    let lo = _mm256_sub_epi64(lo, _mm256_mul_epu32(q_hat, r.qv));
    csub(csub(_mm256_add_epi64(hi, lo), r.two_qv), r.qv)
}

/// Broadcast constants of [`reduce_u64_narrow`] for one modulus.
struct NarrowReducer {
    qv: __m256i,
    two_qv: __m256i,
    pow32: __m256i,
    pow32_shoup32: __m256i,
    inv32: __m256i,
}

impl NarrowReducer {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn new(m: &Modulus, pow32: ShoupMul) -> Self {
        NarrowReducer {
            qv: _mm256_set1_epi64x(m.value() as i64),
            two_qv: _mm256_set1_epi64x(2 * m.value() as i64),
            pow32: _mm256_set1_epi64x(pow32.w as i64),
            pow32_shoup32: _mm256_set1_epi64x((pow32.w_shoup >> 32) as i64),
            inv32: _mm256_set1_epi64x((m.barrett_64() >> 32) as i64),
        }
    }
}

/// Four `u32` scratch lanes zero-extended to `u64` lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_u32x4(p: *const u32) -> __m256i {
    _mm256_cvtepu32_epi64(_mm_loadu_si128(p as *const __m128i))
}

/// Premultiply block: `ys[i·B + c] = a·w_i mod s_i`, four columns per
/// vector. The narrow Shoup product holds for `s_i < 2^31` and `a < 2^32`
/// (the truncated constant `⌊w·2^32/s⌋` undershoots `⌊w·a/s⌋` by at most
/// one, so the lazy result is in `[0, 2s)` and one csub makes it
/// canonical); a vector holding any `a ≥ 2^32` takes the scalar product.
///
/// # Safety
///
/// The CPU supports AVX2. (Every row access is a checked slice.)
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn hps_premultiply(
    conv: &HpsConv,
    src: &[u64],
    stride: usize,
    width: usize,
    ys: &mut [u32],
) {
    let high = _mm256_set1_epi64x(!0xFFFF_FFFFu64 as i64);
    let pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    for (i, &(w, q)) in conv.pre.iter().enumerate() {
        let row = &src[i * stride..i * stride + width];
        let dst = &mut ys[i * HPS_BLOCK..i * HPS_BLOCK + width];
        let wv = _mm256_set1_epi64x(w.w as i64);
        let ws32 = _mm256_set1_epi64x((w.w_shoup >> 32) as i64);
        let qv = _mm256_set1_epi64x(q as i64);
        let mut c = 0usize;
        while c + 4 <= width {
            let a = load4(row.as_ptr().add(c));
            if _mm256_testz_si256(a, high) == 1 {
                let y = csub(mul_lazy_narrow(a, wv, ws32, qv), qv);
                let y = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(y, pack));
                _mm_storeu_si128(dst.as_mut_ptr().add(c) as *mut __m128i, y);
            } else {
                for l in c..c + 4 {
                    dst[l] = conv.premultiply(i, row[l]);
                }
            }
            c += 4;
        }
        for l in c..width {
            dst[l] = conv.premultiply(i, row[l]);
        }
    }
}

/// Quotient block: the rounded quotient of each of `seeds.len()` columns,
/// four per vector. `Fixed` accumulates the three limb sums
/// (`< 2^59` each) and recombines them with the shifts of
/// `HpsConv::round_limb_sums`; `F64` multiplies then adds in row order
/// and rounds each lane with `f64::round`, like the scalar sum.
///
/// # Safety
///
/// The CPU supports AVX2, `seeds.len() ≤ HPS_BLOCK` and `ys` holds the
/// `HPS_BLOCK`-stride rows of every quotient row (as
/// `Kernels::hps_quotient` asserts).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn hps_quotient(
    conv: &HpsConv,
    ys: &[u32],
    precision: HpsPrecision,
    seeds: &mut [u64],
) {
    const LIMB: i32 = FRAC_LIMB_BITS as i32;
    let width = seeds.len();
    let yp = ys.as_ptr();
    let mut c = 0usize;
    match precision {
        HpsPrecision::Fixed => {
            let shift = conv.frac_bits - 2 * FRAC_LIMB_BITS;
            let half = _mm256_set1_epi64x(1i64 << (shift - 1));
            let count = _mm_cvtsi32_si128(shift as i32);
            while c + 4 <= width {
                let mut s = [_mm256_setzero_si256(); 3];
                for (i, limbs) in conv.frac_limbs.iter().enumerate() {
                    let y = load_u32x4(yp.add(i * HPS_BLOCK + c));
                    for (acc, &l) in s.iter_mut().zip(limbs) {
                        let p = _mm256_mul_epu32(y, _mm256_set1_epi64x(l as i64));
                        *acc = _mm256_add_epi64(*acc, p);
                    }
                }
                let a = _mm256_add_epi64(_mm256_srli_epi64(s[0], LIMB), s[1]);
                let b = _mm256_add_epi64(_mm256_srli_epi64(a, LIMB), s[2]);
                let v = _mm256_srl_epi64(_mm256_add_epi64(b, half), count);
                store4(seeds.as_mut_ptr().add(c), v);
                c += 4;
            }
        }
        HpsPrecision::F64 => {
            while c + 4 <= width {
                let mut s = _mm256_setzero_pd();
                for (i, &f) in conv.frac_f64.iter().enumerate() {
                    // y < 2^31 converts exactly through the signed path.
                    let y = _mm_loadu_si128(yp.add(i * HPS_BLOCK + c) as *const __m128i);
                    let prod = _mm256_mul_pd(_mm256_cvtepi32_pd(y), _mm256_set1_pd(f));
                    s = _mm256_add_pd(s, prod);
                }
                let mut lanes = [0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), s);
                for (seed, x) in seeds[c..c + 4].iter_mut().zip(lanes) {
                    *seed = x.round() as u64;
                }
                c += 4;
            }
        }
    }
    for (col, seed) in seeds.iter_mut().enumerate().skip(c) {
        *seed = conv.quotient_col(ys, col, precision);
    }
}

/// Sum-of-products block: output `j` of column `c` into
/// `out[j·stride + c]`, eight or four columns per step.
///
/// # Safety
///
/// The CPU supports AVX2, `seeds.len() ≤ HPS_BLOCK`, `ys` holds
/// `conv.rows()` rows of stride `HPS_BLOCK`, and `out` reaches
/// `(dest − 1)·stride + seeds.len()` (as `Kernels::hps_sop` asserts).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn hps_sop(
    conv: &HpsConv,
    ys: &[u32],
    seeds: &[u64],
    out: &mut [u64],
    stride: usize,
) {
    let width = seeds.len();
    let rows = conv.rows();
    for (j, m) in conv.dest.iter().enumerate() {
        let lane = SopLane {
            table: &conv.table[j * rows..(j + 1) * rows],
            fold: conv.fold,
            seed_mul: _mm256_set1_epi64x(conv.seed_mul[j] as i64),
            reducer: NarrowReducer::new(m, conv.dest_pow32[j]),
        };
        let dst = out.as_mut_ptr().add(j * stride);
        let mut c = 0usize;
        while c + 8 <= width {
            let [a0, a1] = lane.columns::<2>(ys.as_ptr().add(c), seeds.as_ptr().add(c));
            store4(dst.add(c), a0);
            store4(dst.add(c + 4), a1);
            c += 8;
        }
        if c + 4 <= width {
            let [a0] = lane.columns::<1>(ys.as_ptr().add(c), seeds.as_ptr().add(c));
            store4(dst.add(c), a0);
            c += 4;
        }
        for (col, &seed) in seeds.iter().enumerate().skip(c) {
            *dst.add(col) = conv.sop_col(ys, seed, j, col);
        }
    }
}

/// One destination modulus of [`hps_sop`], broadcast once.
struct SopLane<'a> {
    table: &'a [u32],
    fold: usize,
    seed_mul: __m256i,
    reducer: NarrowReducer,
}

impl SopLane<'_> {
    /// `V` vectors of four columns: the seed product, then the products
    /// of every row in chunks of `fold` with a partial reduction between
    /// chunks, then the final reduction to `[0, q)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn columns<const V: usize>(&self, ys: *const u32, seeds: *const u64) -> [__m256i; V] {
        let mut acc = [_mm256_setzero_si256(); V];
        for (v, a) in acc.iter_mut().enumerate() {
            // A seed is below 2^38: multiply both 32-bit halves.
            let s = load4(seeds.add(4 * v));
            let hi = _mm256_mul_epu32(_mm256_srli_epi64(s, 32), self.seed_mul);
            *a = _mm256_add_epi64(
                _mm256_mul_epu32(s, self.seed_mul),
                _mm256_slli_epi64(hi, 32),
            );
        }
        for (ci, chunk) in self.table.chunks(self.fold).enumerate() {
            if ci > 0 {
                for a in acc.iter_mut() {
                    *a = reduce_u64_narrow(*a, &self.reducer);
                }
            }
            let base = ys.add(ci * self.fold * HPS_BLOCK);
            for (i, &t) in chunk.iter().enumerate() {
                let tv = _mm256_set1_epi64x(t as i64);
                let row = base.add(i * HPS_BLOCK);
                for (v, a) in acc.iter_mut().enumerate() {
                    let y = load_u32x4(row.add(4 * v));
                    *a = _mm256_add_epi64(*a, _mm256_mul_epu32(y, tv));
                }
            }
        }
        for a in acc.iter_mut() {
            *a = reduce_u64_narrow(*a, &self.reducer);
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// CRC-32 folding (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel, 2009).
// ---------------------------------------------------------------------------

/// The IEEE 802.3 polynomial `P(x)` in the normal (unreflected) domain,
/// with its `x^32` term.
const CRC_P: u64 = 0x1_04C1_1DB7;

/// `x^e mod P(x)`, bit-reflected and shifted left by one: the form a
/// reflected-domain carry-less fold multiplies by.
const fn crc_fold_constant(e: u32) -> i64 {
    let mut r = 1u64;
    let mut i = 0;
    while i < e {
        r <<= 1;
        if r >> 32 != 0 {
            r ^= CRC_P;
        }
        i += 1;
    }
    (((r as u32).reverse_bits() as u64) << 1) as i64
}

/// `⌊x^64 / P(x)⌋`, bit-reflected over its 33 bits: the Barrett constant.
const fn crc_barrett_mu() -> i64 {
    let (mut rem, mut quo) = (1u128 << 64, 0u64);
    let mut bit = 64;
    while bit >= 32 {
        if rem >> bit & 1 != 0 {
            quo |= 1 << (bit - 32);
            rem ^= (CRC_P as u128) << (bit - 32);
        }
        bit -= 1;
    }
    (quo.reverse_bits() >> 31) as i64
}

/// One 128-bit fold: `x` carried forward past `d` bits (`k` holds
/// `x^(d+32)` low and `x^(d−32)` high, reflected), plus the next block.
///
/// # Safety
///
/// The CPU must support `avx2` and `pclmulqdq`.
#[inline]
#[target_feature(enable = "avx2,pclmulqdq")]
unsafe fn crc_fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(x, k, 0x00);
    let hi = _mm_clmulepi64_si128(x, k, 0x11);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// The 16 bytes of `bytes` at `off`, as one unaligned vector.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn crc_load(bytes: &[u8], off: usize) -> __m128i {
    // SAFETY: the slice index checks that all 16 bytes are in bounds, and
    // `loadu` has no alignment requirement.
    _mm_loadu_si128(bytes[off..off + 16].as_ptr().cast())
}

/// Advances the raw (uninverted) CRC-32 state `crc` over `bytes`, whose
/// length must be at least 64 and a multiple of 16: four 128-bit lanes
/// fold across each 64-byte block, fold down to one lane, take any
/// remaining 16-byte blocks, then reduce 128 → 64 → 32 bits, the last
/// step by Barrett reduction. Bit-identical to the table lanes.
///
/// # Safety
///
/// The CPU must support `avx2` and `pclmulqdq`.
///
/// # Panics
///
/// Panics if `bytes` is shorter than 64 bytes or not whole 16-byte
/// blocks.
#[target_feature(enable = "avx2,pclmulqdq")]
pub(crate) unsafe fn crc32_fold(crc: u32, bytes: &[u8]) -> u32 {
    const K1K2: (i64, i64) = (
        crc_fold_constant(4 * 128 + 32),
        crc_fold_constant(4 * 128 - 32),
    );
    const K3K4: (i64, i64) = (crc_fold_constant(128 + 32), crc_fold_constant(128 - 32));
    const K5: i64 = crc_fold_constant(64);
    const P_MU: (i64, i64) = ((CRC_P.reverse_bits() >> 31) as i64, crc_barrett_mu());
    let len = bytes.len();
    assert!(len >= 64 && len.is_multiple_of(16), "CRC fold block layout");

    let mut lanes = [0, 16, 32, 48].map(|off| crc_load(bytes, off));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
    let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
    let mut off = 64;
    while off + 64 <= len {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = crc_fold(*lane, k1k2, crc_load(bytes, off + 16 * i));
        }
        off += 64;
    }

    let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
    let mut x = lanes[0];
    for &lane in &lanes[1..] {
        x = crc_fold(x, k3k4, lane);
    }
    while off < len {
        x = crc_fold(x, k3k4, crc_load(bytes, off));
        off += 16;
    }

    // 128 → 96 bits: the low quadword times k4, onto the high one.
    let low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
    // 96 → 64 bits: the low 32 bits times k5, onto the rest. Then Barrett,
    // 64 → 32 bits: t = ⌊x·µ⌋ mod x^32, and x ⊕ t·P leaves the CRC in
    // bits 32..64.
    let k5 = _mm_set_epi64x(0, K5);
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        _mm_srli_si128(x, 4),
    );
    let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
    let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
    let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), p_mu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32
}
