//! Runtime-dispatched kernel seam for the dominant kernels.
//!
//! Measured per-op and per-kernel time shows where eval time goes: the
//! NTTs, the pointwise (Hadamard) products, the hoisted key-switch
//! sum-of-products, and the two HPS basis conversions of every `Mult` —
//! `Lift q→Q` and `Scale Q→q`. This module is the single seam those hot
//! paths route through. A [`Kernels`] table of function pointers is
//! selected **once** per process:
//!
//! 1. `HEFV_KERNEL=scalar|avx2` — explicit choice (an unavailable or
//!    unknown value falls back to auto-detection, never a crash);
//! 2. `HEFV_FORCE_SCALAR` — any value other than empty or `0` pins the
//!    portable scalar fallback (the CI test matrix uses this);
//! 3. otherwise the AVX2 lane implementations in the crate-private
//!    `simd` module, when `is_x86_feature_detected!` finds both `avx2`
//!    and `pclmulqdq` (the CRC-32 fold below needs the latter).
//!
//! The scalar NTT and pointwise implementations are the pre-existing
//! portable code, kept verbatim ([`NttTable::forward_scalar`] and
//! friends), and the scalar SoP streams the same digit-major lines as
//! the vector one, in coefficient blocks; every vector kernel is
//! **bit-identical** to its scalar
//! counterpart because all dispatched kernels end with an exact reduction
//! to the canonical `[0, q)` representative (see the `simd` module source
//! for the lane-range argument, and `tests/simd_equivalence.rs` for the
//! proptest pinning it).
//!
//! The two basis-conversion entries, [`Kernels::hps_extend_cols`] (Lift)
//! and [`Kernels::hps_scale_cols`] (Scale), stream column blocks through
//! three per-lane block kernels (premultiply, quotient, sum of products;
//! see [`crate::rns`] for the 32-bit lane, overflow and fold argument).
//! Both lanes, in both [`HpsPrecision`]s, are bit-exact with the
//! per-coefficient oracles [`Extender::extend_hps`] and
//! [`ScaleContext::scale_hps`] on every column — for any residues
//! (canonical or not) over bases of primes in `[2^29, 2^31)`, the range
//! `SmallReciprocal` admits.
//!
//! The integrity checksum rides the same seam: [`Kernels::crc32`] is the
//! CRC-32 (IEEE, reflected) of every checked net envelope and `HEVR`
//! snapshot (`hefv_core::crc32` calls it). The scalar lane is
//! slicing-by-16 over `const`-built 16×256 tables; the AVX2 lane folds
//! four 128-bit lanes per 64-byte block with `PCLMULQDQ`, folds down to
//! 128 bits and Barrett-reduces to 32, with buffers under 64 bytes and
//! the sub-16-byte tail on the tables (≈ 1.7 and ≈ 16 GB/s on a 2-vCPU
//! AVX2 host, against ≈ 0.29 GB/s byte at a time). Both equal the
//! byte-at-a-time loop on every input.
//!
//! The seam is also the intended landing point for a future real
//! accelerator backend: a backend supplies one more `Kernels` table, and
//! every call site upstream is already routed.
//!
//! Tests can bypass the process-wide selection with [`scalar_kernels`]
//! and [`avx2_kernels`] to compare both paths in one process.

use crate::ntt::NttTable;
use crate::rns::{Extender, HpsConv, HpsPrecision, RnsContext, ScaleContext, HPS_BLOCK};
use crate::zq::Modulus;
use std::ops::Range;
use std::sync::OnceLock;

/// Which lane implementation a [`Kernels`] table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar code — the pre-SIMD hot paths, kept verbatim.
    Scalar,
    /// `core::arch::x86_64` AVX2 intrinsics, 4 lanes of `u64` per op.
    Avx2,
}

impl KernelBackend {
    /// Stable lowercase name (used in logs, benches and metrics).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

/// A resolved table of kernel entry points. Obtain the process-wide one
/// with [`kernels`]; all entries of one table agree on the backend.
pub struct Kernels {
    backend: KernelBackend,
    ntt_forward: fn(&NttTable, &mut [u64]),
    ntt_inverse: fn(&NttTable, &mut [u64]),
    pointwise_mul: fn(&Modulus, &[u64], &[u64], &mut [u64]),
    pointwise_mul_assign: fn(&Modulus, &mut [u64], &[u64]),
    pointwise_mul_acc: fn(&Modulus, &[u64], &[u64], &mut [u64]),
    #[allow(clippy::type_complexity)]
    sop_narrow_row:
        fn(&Modulus, &[u32], &[u32], &[u32], &[u32], Option<&[u64]>, &mut [u64], &mut [u64], usize),
    hps_premultiply: fn(&HpsConv, &[u64], usize, usize, &mut [u32]),
    hps_quotient: fn(&HpsConv, &[u32], HpsPrecision, &mut [u64]),
    hps_sop: fn(&HpsConv, &[u32], &[u64], &mut [u64], usize),
    crc32_update: fn(u32, &[u8]) -> u32,
}

impl Kernels {
    /// The backend this table dispatches to.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// Forward negacyclic NTT of one residue row (see
    /// [`NttTable::forward`] for the contract).
    #[inline]
    pub fn ntt_forward(&self, table: &NttTable, a: &mut [u64]) {
        (self.ntt_forward)(table, a)
    }

    /// Inverse negacyclic NTT of one residue row (see
    /// [`NttTable::inverse`] for the contract).
    #[inline]
    pub fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]) {
        (self.ntt_inverse)(table, a)
    }

    /// Forward NTT of a contiguous batch of same-degree residue rows —
    /// row `r` of `flat` transforms under `tables[r]`. Batching keeps
    /// the lanes full across the limb dimension under the existing
    /// per-limb thread parallelism (each worker hands its whole
    /// contiguous row range to one call).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != tables.len() * n`.
    pub fn ntt_forward_batch(&self, tables: &[NttTable], flat: &mut [u64]) {
        let n = tables.first().map_or(0, |t| t.n());
        assert_eq!(flat.len(), tables.len() * n, "batch length mismatch");
        for (table, row) in tables.iter().zip(flat.chunks_exact_mut(n)) {
            (self.ntt_forward)(table, row);
        }
    }

    /// Inverse counterpart of [`Kernels::ntt_forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != tables.len() * n`.
    pub fn ntt_inverse_batch(&self, tables: &[NttTable], flat: &mut [u64]) {
        let n = tables.first().map_or(0, |t| t.n());
        assert_eq!(flat.len(), tables.len() * n, "batch length mismatch");
        for (table, row) in tables.iter().zip(flat.chunks_exact_mut(n)) {
            (self.ntt_inverse)(table, row);
        }
    }

    /// `dst[i] = a[i]·b[i] mod q`, all operands in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn pointwise_mul(&self, m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
        assert!(
            a.len() == b.len() && a.len() == dst.len(),
            "length mismatch"
        );
        (self.pointwise_mul)(m, a, b, dst)
    }

    /// `dst[i] = dst[i]·b[i] mod q`, all operands in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn pointwise_mul_assign(&self, m: &Modulus, dst: &mut [u64], b: &[u64]) {
        assert_eq!(dst.len(), b.len(), "length mismatch");
        (self.pointwise_mul_assign)(m, dst, b)
    }

    /// `acc[i] = (a[i]·b[i] + acc[i]) mod q`, all operands in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn pointwise_mul_acc(&self, m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
        assert!(
            a.len() == b.len() && a.len() == acc.len(),
            "length mismatch"
        );
        (self.pointwise_mul_acc)(m, a, b, acc)
    }

    /// One residue row of the key-switch sum of products, in storage
    /// order: for each coefficient `u`, with scatter index `t = perm[u]`,
    ///
    /// ```text
    /// s0 = c0_row[u] (or 0) + Σ_i digits[i·n + u] · ksk0[i·n + u]
    /// s1 =                    Σ_i digits[i·n + u] · ksk1[i·n + u]
    /// acc0[t] += s0 mod q;    acc1[t] += s1 mod q
    /// ```
    ///
    /// The lines are **digit-major**: `k` contiguous lines of `n`
    /// coefficients each, so every read streams and only the output is
    /// permuted. A key switch under `σ_g` passes keys stored pre-permuted
    /// by `π_g` and `perm = π_g⁻¹` (identity for relinearization).
    ///
    /// Every operand is a canonical residue in `[0, q)`. The products of
    /// one coefficient accumulate in a `u64`, with a partial reduction
    /// after every `T = ⌊(2^64 − q)/(q−1)²⌋` digits (`T ≥ 15` for 30-bit
    /// primes, so the paper's k = 6 folds never; 3 for 31-bit ones). No
    /// sum can wrap for any `q ≤ 2^32` and any `k`, and with exact sums and
    /// a canonical final reduction the lanes agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `q > 2^32`, if a `perm` entry is `≥ n` (at the scatter
    /// store that would use it), or if slice lengths are inconsistent with
    /// `n = perm.len()` and `k = digits.len() / n`.
    #[allow(clippy::too_many_arguments)]
    pub fn sop_narrow_row(
        &self,
        m: &Modulus,
        perm: &[u32],
        digits: &[u32],
        ksk0: &[u32],
        ksk1: &[u32],
        c0_row: Option<&[u64]>,
        acc0: &mut [u64],
        acc1: &mut [u64],
    ) {
        let n = perm.len();
        assert!(m.value() <= 1 << 32, "SoP modulus must fit 32 bits");
        assert!(
            n > 0 && digits.len().is_multiple_of(n),
            "digit layout mismatch"
        );
        let k = digits.len() / n;
        assert!(k > 0, "empty digit lines");
        assert_eq!(ksk0.len(), n * k, "ksk0 length mismatch");
        assert_eq!(ksk1.len(), n * k, "ksk1 length mismatch");
        assert_eq!(acc0.len(), n, "acc0 length mismatch");
        assert_eq!(acc1.len(), n, "acc1 length mismatch");
        if let Some(row) = c0_row {
            assert_eq!(row.len(), n, "c0 row length mismatch");
        }
        // The most `(q−1)²` products a `u64` holds beside a value below `q`
        // (the seed, or the previous partial reduction).
        let qm1 = m.value() - 1;
        let fold = ((u64::MAX - qm1) / (qm1 * qm1).max(1)) as usize;
        (self.sop_narrow_row)(m, perm, digits, ksk0, ksk1, c0_row, acc0, acc1, fold);
    }

    /// HPS `Lift` of a column range of a flat polynomial on this table's
    /// lane; layout and panics as in
    /// [`Extender::extend_poly_hps_cols_into`], which calls it on the
    /// process-wide table. Bit-identical to [`Extender::extend_hps`] on
    /// every column, in either lane and either precision.
    pub fn hps_extend_cols(
        &self,
        ext: &Extender,
        src: &[u64],
        n: usize,
        cols: Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        ext.extend_cols_with(self, src, n, cols, out, precision)
    }

    /// HPS `Scale Q→q` of a column range of a flat polynomial on this
    /// table's lane; layout and panics as in
    /// [`ScaleContext::scale_poly_hps_cols_into`], which calls it on the
    /// process-wide table. Bit-identical to [`ScaleContext::scale_hps`] on
    /// every column, in either lane and either precision.
    #[allow(clippy::too_many_arguments)]
    pub fn hps_scale_cols(
        &self,
        sc: &ScaleContext,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        sc.scale_cols_with(self, ctx, src, n, cols, out, precision)
    }

    /// Basis-conversion block, step 1: `ys[i·B + c] = src[i·stride + c]·w_i
    /// mod s_i` for the `width ≤ B` columns of every source row, with
    /// `B = HPS_BLOCK` (both lanes slice each row, so bounds are checked).
    pub(crate) fn hps_premultiply(
        &self,
        conv: &HpsConv,
        src: &[u64],
        stride: usize,
        width: usize,
        ys: &mut [u32],
    ) {
        assert!(width <= HPS_BLOCK, "HPS block too wide");
        (self.hps_premultiply)(conv, src, stride, width, ys)
    }

    /// Basis-conversion block, step 2: the rounded quotient of each of the
    /// `seeds.len()` columns.
    pub(crate) fn hps_quotient(
        &self,
        conv: &HpsConv,
        ys: &[u32],
        precision: HpsPrecision,
        seeds: &mut [u64],
    ) {
        assert!(
            seeds.len() <= HPS_BLOCK && ys.len() >= conv.frac_limbs.len() * HPS_BLOCK,
            "HPS quotient block out of bounds"
        );
        (self.hps_quotient)(conv, ys, precision, seeds)
    }

    /// Basis-conversion block, step 3: output `j` of column `c` into
    /// `out[j·stride + c]`, for the `seeds.len()` columns.
    pub(crate) fn hps_sop(
        &self,
        conv: &HpsConv,
        ys: &[u32],
        seeds: &[u64],
        out: &mut [u64],
        stride: usize,
    ) {
        let width = seeds.len();
        assert!(
            width <= HPS_BLOCK
                && ys.len() >= conv.rows() * HPS_BLOCK
                && out.len() >= (conv.dest.len() - 1) * stride + width,
            "HPS sum-of-products block out of bounds"
        );
        (self.hps_sop)(conv, ys, seeds, out, stride)
    }

    /// CRC-32 of `bytes`: the IEEE 802.3 polynomial, reflected, with
    /// init and final xor `!0` (zlib's `crc32`). Both lanes return the
    /// same value as the byte-at-a-time loop.
    #[must_use]
    pub fn crc32(&self, bytes: &[u8]) -> u32 {
        !(self.crc32_update)(!0, bytes)
    }
}

// ---------------------------------------------------------------------------
// Scalar table — the portable fallback, routing to the verbatim code.
// ---------------------------------------------------------------------------

fn ntt_forward_scalar(table: &NttTable, a: &mut [u64]) {
    table.forward_scalar(a)
}

fn ntt_inverse_scalar(table: &NttTable, a: &mut [u64]) {
    table.inverse_scalar(a)
}

fn pointwise_mul_scalar(m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = m.mul(x, y);
    }
}

fn pointwise_mul_assign_scalar(m: &Modulus, dst: &mut [u64], b: &[u64]) {
    for (d, &y) in dst.iter_mut().zip(b) {
        *d = m.mul(*d, y);
    }
}

fn pointwise_mul_acc_scalar(m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
    for ((d, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *d = m.mul_add(x, y, *d);
    }
}

/// Coefficients per block of the scalar SoP: the block's sums live in
/// two stack arrays while every digit line streams past them.
const SOP_BLOCK: usize = 64;

#[allow(clippy::too_many_arguments)]
fn sop_narrow_row_scalar(
    m: &Modulus,
    perm: &[u32],
    digits: &[u32],
    ksk0: &[u32],
    ksk1: &[u32],
    c0_row: Option<&[u64]>,
    acc0: &mut [u64],
    acc1: &mut [u64],
    fold: usize,
) {
    let cols = 0..perm.len();
    sop_narrow_cols_scalar(m, perm, digits, ksk0, ksk1, c0_row, acc0, acc1, fold, cols);
}

/// The scalar SoP over the coefficients `cols` (the AVX2 lane's tail
/// too), in blocks of [`SOP_BLOCK`].
#[allow(clippy::too_many_arguments)]
fn sop_narrow_cols_scalar(
    m: &Modulus,
    perm: &[u32],
    digits: &[u32],
    ksk0: &[u32],
    ksk1: &[u32],
    c0_row: Option<&[u64]>,
    acc0: &mut [u64],
    acc1: &mut [u64],
    fold: usize,
    cols: Range<usize>,
) {
    let n = perm.len();
    let k = digits.len() / n;
    let mut lo = cols.start;
    while lo < cols.end {
        let w = SOP_BLOCK.min(cols.end - lo);
        let (mut s0, mut s1) = ([0u64; SOP_BLOCK], [0u64; SOP_BLOCK]);
        let (s0, s1) = (&mut s0[..w], &mut s1[..w]);
        if let Some(row) = c0_row {
            s0.copy_from_slice(&row[lo..lo + w]);
        }
        for chunk in (0..k).step_by(fold) {
            if chunk > 0 {
                for s in s0.iter_mut().chain(s1.iter_mut()) {
                    *s = m.reduce_u64(*s);
                }
            }
            for i in chunk..k.min(chunk + fold) {
                let line = i * n + lo..i * n + lo + w;
                let keys = ksk0[line.clone()].iter().zip(&ksk1[line.clone()]);
                let sums = s0.iter_mut().zip(s1.iter_mut());
                for ((a0, a1), (&d, (&x0, &x1))) in sums.zip(digits[line].iter().zip(keys)) {
                    let d = u64::from(d);
                    *a0 += d * u64::from(x0);
                    *a1 += d * u64::from(x1);
                }
            }
        }
        for ((&t, &a0), &a1) in perm[lo..lo + w].iter().zip(s0.iter()).zip(s1.iter()) {
            let t = t as usize;
            acc0[t] = m.add(acc0[t], m.reduce_u64(a0));
            acc1[t] = m.add(acc1[t], m.reduce_u64(a1));
        }
        lo += w;
    }
}

fn hps_premultiply_scalar(
    conv: &HpsConv,
    src: &[u64],
    stride: usize,
    width: usize,
    ys: &mut [u32],
) {
    for i in 0..conv.rows() {
        let row = &src[i * stride..i * stride + width];
        for (y, &a) in ys[i * HPS_BLOCK..].iter_mut().zip(row) {
            *y = conv.premultiply(i, a);
        }
    }
}

fn hps_quotient_scalar(conv: &HpsConv, ys: &[u32], precision: HpsPrecision, seeds: &mut [u64]) {
    for (c, seed) in seeds.iter_mut().enumerate() {
        *seed = conv.quotient_col(ys, c, precision);
    }
}

fn hps_sop_scalar(conv: &HpsConv, ys: &[u32], seeds: &[u64], out: &mut [u64], stride: usize) {
    for j in 0..conv.dest.len() {
        for (c, &seed) in seeds.iter().enumerate() {
            out[j * stride + c] = conv.sop_col(ys, seed, j, c);
        }
    }
}

/// Slicing-by-16 tables for the reflected IEEE polynomial `0xEDB88320`,
/// built in a `const` context: `CRC_TABLES[0]` is the byte-at-a-time
/// table, and `CRC_TABLES[j][b]` is the CRC of byte `b` followed by `j`
/// zero bytes, so one lookup per byte of a 16-byte block needs no
/// dependency on the previous lookup.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// Advances the raw (uninverted) CRC-32 state over `bytes`, sixteen
/// bytes per step, then byte by byte over the tail.
fn crc32_update_scalar(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut block: [u8; 16] = block.try_into().expect("16-byte block");
        for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        crc = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
    }
    for &b in blocks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

static SCALAR: Kernels = Kernels {
    backend: KernelBackend::Scalar,
    ntt_forward: ntt_forward_scalar,
    ntt_inverse: ntt_inverse_scalar,
    pointwise_mul: pointwise_mul_scalar,
    pointwise_mul_assign: pointwise_mul_assign_scalar,
    pointwise_mul_acc: pointwise_mul_acc_scalar,
    sop_narrow_row: sop_narrow_row_scalar,
    hps_premultiply: hps_premultiply_scalar,
    hps_quotient: hps_quotient_scalar,
    hps_sop: hps_sop_scalar,
    crc32_update: crc32_update_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 table — per-call width selection, scalar fallback where a vector
// path does not apply (wide pointwise moduli, SoP moduli ≥ 2^31, row tails).
// ---------------------------------------------------------------------------

// Safety of every `unsafe` call below: these functions are only reachable
// through the `AVX2` table, which is only ever handed out after
// `is_x86_feature_detected!` returned true for both `avx2` and
// `pclmulqdq`. The HPS quotient and sum-of-products kernels are only
// called by the `Kernels::hps_*` methods, which assert the slice bounds
// their raw-pointer loops rely on.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use crate::simd;

    fn ntt_forward(table: &NttTable, a: &mut [u64]) {
        if table.modulus().value() < simd::NARROW_NTT_BOUND {
            unsafe { simd::ntt_forward_narrow(table, a) }
        } else {
            unsafe { simd::ntt_forward_wide(table, a) }
        }
    }

    fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
        if table.modulus().value() < simd::NARROW_NTT_BOUND {
            unsafe { simd::ntt_inverse_narrow(table, a) }
        } else {
            unsafe { simd::ntt_inverse_wide(table, a) }
        }
    }

    fn pointwise_mul(m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
        if m.value() < simd::NARROW_POINTWISE_BOUND {
            unsafe { simd::pointwise_mul_narrow(m, a, b, dst) }
        } else {
            super::pointwise_mul_scalar(m, a, b, dst)
        }
    }

    fn pointwise_mul_assign(m: &Modulus, dst: &mut [u64], b: &[u64]) {
        if m.value() < simd::NARROW_POINTWISE_BOUND {
            unsafe { simd::pointwise_mul_assign_narrow(m, dst, b) }
        } else {
            super::pointwise_mul_assign_scalar(m, dst, b)
        }
    }

    fn pointwise_mul_acc(m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
        if m.value() < simd::NARROW_POINTWISE_BOUND {
            unsafe { simd::pointwise_mul_acc_narrow(m, a, b, acc) }
        } else {
            super::pointwise_mul_acc_scalar(m, a, b, acc)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sop_narrow_row(
        m: &Modulus,
        perm: &[u32],
        digits: &[u32],
        ksk0: &[u32],
        ksk1: &[u32],
        c0_row: Option<&[u64]>,
        acc0: &mut [u64],
        acc1: &mut [u64],
        fold: usize,
    ) {
        // The vector reduction needs `q < 2^31`; wider moduli and the
        // last `n mod 8` coefficients take the scalar lane.
        let done = if m.value() < simd::NARROW_SOP_BOUND {
            unsafe { simd::sop_narrow_row(m, perm, digits, ksk0, ksk1, c0_row, acc0, acc1, fold) }
        } else {
            0
        };
        let cols = done..perm.len();
        super::sop_narrow_cols_scalar(m, perm, digits, ksk0, ksk1, c0_row, acc0, acc1, fold, cols)
    }

    fn hps_premultiply(conv: &HpsConv, src: &[u64], stride: usize, width: usize, ys: &mut [u32]) {
        unsafe { simd::hps_premultiply(conv, src, stride, width, ys) }
    }

    fn hps_quotient(conv: &HpsConv, ys: &[u32], precision: HpsPrecision, seeds: &mut [u64]) {
        unsafe { simd::hps_quotient(conv, ys, precision, seeds) }
    }

    fn hps_sop(conv: &HpsConv, ys: &[u32], seeds: &[u64], out: &mut [u64], stride: usize) {
        unsafe { simd::hps_sop(conv, ys, seeds, out, stride) }
    }

    /// The fold takes whole 16-byte blocks from one 64-byte block up; a
    /// shorter buffer and the last `len mod 16` bytes go through the
    /// tables.
    fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::crc32_update_scalar(crc, bytes);
        }
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: this table is handed out only with `avx2` and
        // `pclmulqdq` detected; `blocks` is whole 16-byte blocks, ≥ 64.
        let crc = unsafe { simd::crc32_fold(crc, blocks) };
        super::crc32_update_scalar(crc, tail)
    }

    pub(super) static TABLE: Kernels = Kernels {
        backend: KernelBackend::Avx2,
        ntt_forward,
        ntt_inverse,
        pointwise_mul,
        pointwise_mul_assign,
        pointwise_mul_acc,
        sop_narrow_row,
        hps_premultiply,
        hps_quotient,
        hps_sop,
        crc32_update,
    };
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

/// The always-available portable table (test escape hatch; production
/// code should call [`kernels`]).
pub fn scalar_kernels() -> &'static Kernels {
    &SCALAR
}

/// The AVX2 table, if and only if this CPU supports AVX2 and
/// `PCLMULQDQ` (the CRC fold) — independent of the `HEFV_*` overrides,
/// so equivalence tests can compare both paths in one process.
pub fn avx2_kernels() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
        {
            return Some(&avx2::TABLE);
        }
    }
    None
}

fn env_nonempty(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn select() -> &'static Kernels {
    if let Ok(choice) = std::env::var("HEFV_KERNEL") {
        match choice.as_str() {
            "scalar" => return &SCALAR,
            "avx2" => return avx2_kernels().unwrap_or(&SCALAR),
            _ => {} // unknown value: fall through to auto-detection
        }
    }
    if env_nonempty("HEFV_FORCE_SCALAR") {
        return &SCALAR;
    }
    avx2_kernels().unwrap_or(&SCALAR)
}

/// The process-wide kernel table. Detection and the `HEFV_KERNEL` /
/// `HEFV_FORCE_SCALAR` overrides are evaluated once, on first use.
pub fn kernels() -> &'static Kernels {
    static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
    ACTIVE.get_or_init(select)
}

/// The backend of the process-wide table.
pub fn backend() -> KernelBackend {
    kernels().backend()
}

/// Stable name of the active backend (`"scalar"` or `"avx2"`).
pub fn backend_name() -> &'static str {
    backend().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::ntt_prime;

    #[test]
    fn scalar_table_reports_scalar() {
        assert_eq!(scalar_kernels().backend(), KernelBackend::Scalar);
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2.name(), "avx2");
    }

    #[test]
    fn active_table_is_consistent() {
        let k = kernels();
        match k.backend() {
            KernelBackend::Scalar => {}
            KernelBackend::Avx2 => assert!(avx2_kernels().is_some()),
        }
        assert_eq!(backend_name(), k.backend().name());
    }

    #[test]
    fn batch_matches_per_row() {
        let n = 64;
        let tables: Vec<NttTable> = (0..3)
            .map(|i| {
                let q = ntt_prime(30, n, i).unwrap();
                NttTable::new(Modulus::new(q), n).unwrap()
            })
            .collect();
        let mut flat: Vec<u64> = (0..3 * n as u64).map(|i| i * 0x9E37 % 1000).collect();
        let mut rows = flat.clone();
        kernels().ntt_forward_batch(&tables, &mut flat);
        for (t, row) in tables.iter().zip(rows.chunks_exact_mut(n)) {
            t.forward(row);
        }
        assert_eq!(flat, rows);
        kernels().ntt_inverse_batch(&tables, &mut flat);
        for (t, row) in tables.iter().zip(rows.chunks_exact_mut(n)) {
            t.inverse(row);
        }
        assert_eq!(flat, rows);
    }

    #[test]
    #[should_panic(expected = "batch length mismatch")]
    fn batch_rejects_wrong_length() {
        let n = 16;
        let q = ntt_prime(30, n, 0).unwrap();
        let tables = vec![NttTable::new(Modulus::new(q), n).unwrap()];
        let mut flat = vec![0u64; n + 1];
        kernels().ntt_forward_batch(&tables, &mut flat);
    }
}
