//! Residue Number System contexts: CRT, base extension and scaling.
//!
//! This module implements both algorithm families the paper evaluates:
//!
//! * **Traditional CRT** (§IV-C "Using traditional CRT", Fig. 5/8): exact
//!   reconstruction with long-integer arithmetic ([`Extender::extend_exact`],
//!   [`ScaleContext::scale_exact`]), built on [`crate::bigint`].
//! * **HPS approximate CRT** (§IV-C/D "Using approximate CRT", Fig. 6/9,
//!   after Halevi-Polyakov-Shoup 2018): all arithmetic on 30-bit words, with
//!   the quotient `v' = ⌈Σ (a_i·q̃_i mod q_i)/q_i⌋` computed either in
//!   `f64` (the HPS paper) or in the paper's 89-bit fixed point
//!   ([`crate::fixed::SmallReciprocal`]).
//!
//! Because the quotient uses *rounding* (not floor), the extension produces
//! the residues of the **centered** representative — exactly what FV's
//! multiplication needs. Mis-rounding probability is ≈ 2^-47 per coefficient
//! for `f64` and ≈ 2^-53 for the fixed-point variant, and a mis-round only
//! perturbs the result by one multiple of the source modulus, which FV
//! absorbs as noise (§IV-C: "This negligible error has in practice no impact
//! on the correctness of HE").
//!
//! # Column-blocked HPS kernels
//!
//! The polynomial paths ([`Extender::extend_poly_hps_cols_into`],
//! [`ScaleContext::scale_poly_hps_cols_into`]) stream blocks of 64
//! coefficients through three kernels of the [`crate::dispatch::Kernels`]
//! seam, mirroring the blocks of Fig. 6/9:
//!
//! 1. **Premultiply** every limb row by a Shoup constant,
//!    `y_i = a_i·w_i mod s_i`, exact and canonical, stored as `u32` lanes
//!    (every HPS modulus is below `2^31`, which [`SmallReciprocal`]
//!    enforces).
//! 2. **Quotient** per column. `Fixed` splits each reciprocal word (the
//!    60-bit [`SmallReciprocal`] word for Lift, the 64-bit `frac(t·p/q_i)`
//!    for Scale) into three 22-bit limbs: every partial sum
//!    `Σ y_i·limb_i < 2^31·2^22·64 = 2^59` fits a `u64`, and the three
//!    recombine with shifts into the same integer the `u128` oracle
//!    rounds. `F64` keeps the oracle's per-column `Σ y_i·r_i` in the same
//!    `i` order with separate multiply and add (no FMA), so both
//!    precisions are bit-identical to [`Extender::extend_hps`] /
//!    [`ScaleContext::scale_hps`].
//! 3. **Sum of products** against a dest-major `u32` table: 32×32→64-bit
//!    products accumulate in `u64`, seeded with the quotient's
//!    contribution, and each output takes one single-word Barrett
//!    reduction. Products are `< 2^62`, so the accumulator takes a partial
//!    reduction every `T` terms, with `T` fixed when the tables are built
//!    from the actual moduli (`T ≥ 15` for 30-bit primes, so the paper's
//!    6 + 7 limbs never fold; `T ≥ 3` up to the 31-bit ceiling).
//!
//! Scale step 2 runs the Lift block again on the `d_p` block it just
//! produced, as the paper reuses the Lift datapath. All scratch lives on
//! the stack, so the hot loops allocate nothing.

use crate::bigint::{center, IBig, UBig};
use crate::dispatch::{self, Kernels};
use crate::fixed::SmallReciprocal;
use crate::zq::{Modulus, ShoupMul};
use serde::{Deserialize, Serialize};

/// Upper bound on RNS limbs per basis supported by the allocation-free
/// column-blocked kernels. Their scratch blocks live on the stack at this
/// size, so the hot loops perform zero heap allocation. The bound also
/// keeps the quotient's limb sums exact: `MAX_STREAM_LIMBS` products of a
/// `y < 2^31` and a 22-bit limb stay below `2^59`. (The cross-basis sums
/// have no such limit: they fold in a partial reduction every `T` terms.)
/// Far above any realistic parameter set — Table V's largest shape uses
/// 48 + 49 limbs.
pub const MAX_STREAM_LIMBS: usize = 64;

/// Coefficients per block of the column-blocked HPS kernels (the row
/// stride of their `u32` scratch).
pub(crate) const HPS_BLOCK: usize = 64;

/// Width of the limbs the quotient fractions are split into.
pub(crate) const FRAC_LIMB_BITS: u32 = 22;

/// Which arithmetic computes the HPS approximate quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HpsPrecision {
    /// IEEE-754 double precision, as in the original HPS paper (error 2^-53).
    F64,
    /// The paper's 89-bit fixed-point reciprocals stored in ROM (§V-B2).
    Fixed,
}

/// One HPS basis conversion laid out for the column-blocked kernels:
///
/// ```text
/// y_i   = a_i·w_i mod s_i                       (every source row i)
/// seed  = ⌈Σ_{i<r} y_i·f_i⌋                      (the first r rows)
/// out_j = (seed·seed_mul_j + Σ_i y_i·table[j][i]) mod m_j
/// ```
///
/// Lift `q→p` has `f_i = 1/q_i` and `seed_mul_j = −(q mod p_j)`; Scale
/// step 1 has source rows `q ∥ p`, `f_i = frac(t·p/q_i)` over the q rows
/// and `seed_mul_j = 1`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct HpsConv {
    /// Premultiply constant of each source row with the row's modulus.
    pub(crate) pre: Vec<(ShoupMul, u64)>,
    /// Quotient fractions in Q`frac_bits`, split into three
    /// [`FRAC_LIMB_BITS`]-bit limbs (least significant first).
    pub(crate) frac_limbs: Vec<[u32; 3]>,
    pub(crate) frac_bits: u32,
    /// The same fractions as doubles.
    pub(crate) frac_f64: Vec<f64>,
    /// Dest-major products table: `table[j·rows + i]`.
    pub(crate) table: Vec<u32>,
    pub(crate) seed_mul: Vec<u32>,
    pub(crate) dest: Vec<Modulus>,
    /// `2^32 mod m_j` as a Shoup pair (the vector lane's reduction folds
    /// an accumulator's high word with it).
    pub(crate) dest_pow32: Vec<ShoupMul>,
    /// Products an accumulator takes between partial reductions.
    pub(crate) fold: usize,
}

impl HpsConv {
    /// Lays out the tables. `seed_max` bounds the rounded quotient;
    /// `table_t[i][j]` is the product constant of source row `i` and
    /// destination `j`.
    #[allow(clippy::too_many_arguments)]
    fn new(
        pre: Vec<(ShoupMul, u64)>,
        frac: &[u64],
        frac_bits: u32,
        frac_f64: Vec<f64>,
        table_t: &[Vec<u64>],
        seed_mul: &[u64],
        seed_max: u64,
        dest: &[Modulus],
    ) -> Self {
        assert!(
            pre.iter().all(|&(_, q)| q < 1 << 31) && dest.iter().all(|m| m.value() < 1 << 31),
            "HPS moduli must be below 2^31"
        );
        // Three 22-bit limbs hold any 64-bit fraction word.
        let mask = (1u64 << FRAC_LIMB_BITS) - 1;
        let frac_limbs = frac
            .iter()
            .map(|&f| [0, 1, 2].map(|l| ((f >> (l * FRAC_LIMB_BITS)) & mask) as u32))
            .collect();
        let table: Vec<u32> = (0..dest.len())
            .flat_map(|j| table_t.iter().map(move |row| row[j] as u32))
            .collect();
        let seed_mul: Vec<u32> = seed_mul.iter().map(|&s| s as u32).collect();
        // An accumulator starts below `start` (the seed product, or a
        // residue after a partial reduction) and may take `fold` products
        // of at most `term` before the next reduction.
        let src_max = pre.iter().map(|&(_, q)| q - 1).max().unwrap_or(0) as u128;
        let term = (src_max * table.iter().copied().max().unwrap_or(0) as u128).max(1);
        let start = (seed_max as u128 * seed_mul.iter().copied().max().unwrap_or(0) as u128)
            .max(dest.iter().map(|m| m.value()).max().unwrap_or(0) as u128);
        let fold = ((u64::MAX as u128).saturating_sub(start) / term).min(usize::MAX as u128);
        assert!(
            fold >= 1,
            "HPS accumulator bound too tight for these moduli"
        );
        HpsConv {
            pre,
            frac_limbs,
            frac_bits,
            frac_f64,
            table,
            seed_mul,
            dest: dest.to_vec(),
            dest_pow32: dest
                .iter()
                .map(|m| ShoupMul::new((1 << 32) % m.value(), m.value()))
                .collect(),
            fold: fold as usize,
        }
    }

    /// Source rows (the products table's row length).
    pub(crate) fn rows(&self) -> usize {
        self.pre.len()
    }

    /// `y = a·w_i mod s_i` for source row `i` and any `a < 2^64`.
    #[inline(always)]
    pub(crate) fn premultiply(&self, i: usize, a: u64) -> u32 {
        let (w, q) = self.pre[i];
        w.mul(a, q) as u32
    }

    /// Recombines the three limb sums `s_l = Σ y_i·limb_l(f_i)` into
    /// `⌈Σ y_i·f_i / 2^frac_bits⌋`: carrying the low sums up gives
    /// `b = ⌊Σ y_i·f_i / 2^44⌋` exactly, and since `2^(frac_bits−1)` is a
    /// multiple of `2^44`, rounding `b` by the remaining shift rounds the
    /// full sum.
    #[inline(always)]
    pub(crate) fn round_limb_sums(&self, s: [u64; 3]) -> u64 {
        let b = (((s[0] >> FRAC_LIMB_BITS) + s[1]) >> FRAC_LIMB_BITS) + s[2];
        let shift = self.frac_bits - 2 * FRAC_LIMB_BITS;
        (b + (1 << (shift - 1))) >> shift
    }

    /// The rounded quotient of block column `c`.
    pub(crate) fn quotient_col(&self, ys: &[u32], c: usize, precision: HpsPrecision) -> u64 {
        match precision {
            HpsPrecision::F64 => {
                let mut s = 0.0f64;
                for (i, &f) in self.frac_f64.iter().enumerate() {
                    s += ys[i * HPS_BLOCK + c] as f64 * f;
                }
                s.round() as u64
            }
            HpsPrecision::Fixed => {
                let mut s = [0u64; 3];
                for (i, limbs) in self.frac_limbs.iter().enumerate() {
                    let y = ys[i * HPS_BLOCK + c] as u64;
                    for (acc, &l) in s.iter_mut().zip(limbs) {
                        *acc += y * l as u64;
                    }
                }
                self.round_limb_sums(s)
            }
        }
    }

    /// Output `j` of block column `c`, from that column's quotient
    /// `seed`: one reduction per output, plus a partial one every `fold`
    /// products.
    pub(crate) fn sop_col(&self, ys: &[u32], seed: u64, j: usize, c: usize) -> u64 {
        let m = &self.dest[j];
        let rows = self.rows();
        let mut acc = seed * self.seed_mul[j] as u64;
        let row = &self.table[j * rows..(j + 1) * rows];
        for (ci, chunk) in row.chunks(self.fold).enumerate() {
            if ci > 0 {
                acc = m.reduce_u64(acc);
            }
            let base = ci * self.fold;
            for (i, &t) in chunk.iter().enumerate() {
                acc += ys[(base + i) * HPS_BLOCK + c] as u64 * t as u64;
            }
        }
        m.reduce_u64(acc)
    }

    /// One block of `seeds.len()` columns: premultiply the rows of `src`
    /// (row stride `src_stride`) into `ys`, form the quotients, and write
    /// output `j` of column `c` to `out[j·out_stride + c]`.
    #[allow(clippy::too_many_arguments)]
    fn run_block(
        &self,
        kern: &Kernels,
        src: &[u64],
        src_stride: usize,
        precision: HpsPrecision,
        ys: &mut [u32],
        seeds: &mut [u64],
        out: &mut [u64],
        out_stride: usize,
    ) {
        kern.hps_premultiply(self, src, src_stride, seeds.len(), ys);
        kern.hps_quotient(self, ys, precision, seeds);
        kern.hps_sop(self, ys, seeds, out, out_stride);
    }
}

/// An RNS basis: pairwise-coprime moduli `m_0, …, m_{k-1}` with the CRT
/// constants for exact reconstruction.
///
/// # Example
///
/// ```
/// use hefv_math::{bigint::UBig, rns::RnsBasis};
/// let basis = RnsBasis::new(&[1_073_479_681, 1_073_184_769]).unwrap();
/// let x = UBig::from(123_456_789_012_345u64);
/// let residues = basis.encode(&x);
/// assert_eq!(basis.decode(&residues), x);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    product: UBig,
    /// `M / m_i` for each i.
    m_over_mi: Vec<UBig>,
    /// `(M/m_i)^{-1} mod m_i` — the paper's `q̃_i`.
    mi_tilde: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis from distinct primes.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or contains duplicates.
    pub fn new(primes: &[u64]) -> Result<Self, String> {
        if primes.is_empty() {
            return Err("RNS basis needs at least one modulus".into());
        }
        for (i, &a) in primes.iter().enumerate() {
            if !crate::primes::is_prime(a) {
                return Err(format!("modulus {a} is not prime"));
            }
            for &b in &primes[i + 1..] {
                if a == b {
                    return Err(format!("duplicate modulus {a}"));
                }
            }
        }
        let moduli: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p)).collect();
        let mut product = UBig::one();
        for &p in primes {
            product = product.mul_u64(p);
        }
        let m_over_mi: Vec<UBig> = primes
            .iter()
            .map(|&p| product.div_rem(&UBig::from(p)).0)
            .collect();
        let mi_tilde: Vec<u64> = moduli
            .iter()
            .zip(&m_over_mi)
            .map(|(m, moi)| m.inv(moi.rem_u64(m.value())))
            .collect();
        Ok(RnsBasis {
            moduli,
            product,
            m_over_mi,
            mi_tilde,
        })
    }

    /// Number of moduli in the basis.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True iff the basis has no moduli (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The i-th modulus.
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.moduli[i]
    }

    /// All moduli.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The basis product `M`.
    pub fn product(&self) -> &UBig {
        &self.product
    }

    /// The CRT constant `q̃_i = (M/m_i)^{-1} mod m_i`.
    pub fn tilde(&self, i: usize) -> u64 {
        self.mi_tilde[i]
    }

    /// `M / m_i`.
    pub fn m_over(&self, i: usize) -> &UBig {
        &self.m_over_mi[i]
    }

    /// Residues of `x mod M`.
    pub fn encode(&self, x: &UBig) -> Vec<u64> {
        self.moduli.iter().map(|m| x.rem_u64(m.value())).collect()
    }

    /// Residues of a signed value.
    pub fn encode_signed(&self, x: &IBig) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|m| x.rem_euclid(&UBig::from(m.value())).to_u64().unwrap())
            .collect()
    }

    /// Exact CRT reconstruction into `[0, M)` (Theorem 1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn decode(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let mut acc = UBig::zero();
        for (i, &r) in residues.iter().enumerate() {
            // y_i = a_i * tilde_i mod m_i ; acc += y_i * (M/m_i)
            let y = self.moduli[i].mul(self.moduli[i].reduce(r), self.mi_tilde[i]);
            acc += &self.m_over_mi[i].mul_u64(y);
        }
        acc.div_rem(&self.product).1
    }

    /// CRT reconstruction to the centered representative in `(-M/2, M/2]`.
    pub fn decode_centered(&self, residues: &[u64]) -> IBig {
        let v = self.decode(residues);
        center(&v, &self.product)
    }
}

/// Base extension from one RNS basis to another — the paper's `Lift q→Q`
/// computational kernel (and, in the reverse direction, the second half of
/// `Scale Q→q`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Extender {
    from: RnsBasis,
    to: RnsBasis,
    /// `(M_from/m_i) mod t_j`, indexed `[i][j]`.
    cross: Vec<Vec<u64>>,
    /// `M_from mod t_j`.
    product_mod_to: Vec<u64>,
    /// Fixed-point reciprocals `1/m_i`.
    recips: Vec<SmallReciprocal>,
    /// `1.0 / m_i` as doubles.
    recips_f64: Vec<f64>,
    /// The same conversion laid out for the column-blocked kernels.
    conv: HpsConv,
}

impl Extender {
    /// Precomputes the extension tables between two bases.
    pub fn new(from: &RnsBasis, to: &RnsBasis) -> Self {
        let cross: Vec<Vec<u64>> = (0..from.len())
            .map(|i| {
                (0..to.len())
                    .map(|j| from.m_over(i).rem_u64(to.modulus(j).value()))
                    .collect()
            })
            .collect();
        let product_mod_to: Vec<u64> = (0..to.len())
            .map(|j| from.product().rem_u64(to.modulus(j).value()))
            .collect();
        let recips: Vec<SmallReciprocal> = from
            .moduli()
            .iter()
            .map(|m| SmallReciprocal::new(m.value()))
            .collect();
        let recips_f64: Vec<f64> = from
            .moduli()
            .iter()
            .map(|m| 1.0 / m.value() as f64)
            .collect();
        // The rounded quotient v ≤ k enters as `v·(−M_from mod t_j)`.
        let neg_product: Vec<u64> = to
            .moduli()
            .iter()
            .zip(&product_mod_to)
            .map(|(m, &r)| m.neg(r))
            .collect();
        let conv = HpsConv::new(
            from.moduli()
                .iter()
                .enumerate()
                .map(|(i, m)| (ShoupMul::new(from.tilde(i), m.value()), m.value()))
                .collect(),
            &recips
                .iter()
                .map(SmallReciprocal::stored_word)
                .collect::<Vec<_>>(),
            SmallReciprocal::FRAC_BITS,
            recips_f64.clone(),
            &cross,
            &neg_product,
            from.len() as u64,
            to.moduli(),
        );
        Extender {
            from: from.clone(),
            to: to.clone(),
            cross,
            product_mod_to,
            recips,
            recips_f64,
            conv,
        }
    }

    /// The source basis.
    pub fn from_basis(&self) -> &RnsBasis {
        &self.from
    }

    /// The destination basis.
    pub fn to_basis(&self) -> &RnsBasis {
        &self.to
    }

    /// ROM constants `(M_from/m_i) mod t_j`, indexed `[i][j]` — the
    /// contents of the hardware's Block-2 constant memory (Fig. 6).
    pub fn cross_table(&self) -> &[Vec<u64>] {
        &self.cross
    }

    /// ROM constants `M_from mod t_j` (Block 4 of Fig. 6).
    pub fn product_mod_to_table(&self) -> &[u64] {
        &self.product_mod_to
    }

    /// The stored fixed-point reciprocals `1/m_i` (Block 3 of Fig. 6).
    pub fn reciprocal_roms(&self) -> &[SmallReciprocal] {
        &self.recips
    }

    /// The HPS quotient `v' = ⌈Σ y_i/q_i⌋` (Fig. 6 "Block 3").
    fn quotient(&self, ys: &[u64], precision: HpsPrecision) -> u64 {
        match precision {
            HpsPrecision::F64 => {
                let s: f64 = ys
                    .iter()
                    .zip(&self.recips_f64)
                    .map(|(&y, r)| y as f64 * r)
                    .sum();
                s.round() as u64
            }
            HpsPrecision::Fixed => {
                // Exact u128 accumulation (each term < 2^91, k ≤ a few
                // dozen), equivalent to `SmallReciprocal::round_sum` but
                // without materializing the term list.
                let s: u128 = ys.iter().zip(&self.recips).map(|(&y, r)| r.mul(y)).sum();
                ((s + (1u128 << (SmallReciprocal::FRAC_BITS - 1))) >> SmallReciprocal::FRAC_BITS)
                    as u64
            }
        }
    }

    /// Exact base extension of the **centered** representative, via long
    /// integers — the traditional-CRT datapath (Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the source basis size.
    pub fn extend_exact(&self, residues: &[u64]) -> Vec<u64> {
        let centered = self.from.decode_centered(residues);
        self.to.encode_signed(&centered)
    }

    /// HPS approximate base extension (Eq. 2 of the paper): all arithmetic
    /// on 30-bit words. Because the quotient rounds, the result is the
    /// extension of the centered representative (with mis-round probability
    /// ≤ 2^-47, in which case the result is off by one multiple of the
    /// source product — absorbed by FV as noise).
    ///
    /// This per-coefficient form, with `u128` accumulation and a
    /// `u128` quotient, is the oracle the column-blocked polynomial path is
    /// pinned against.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the source basis size.
    pub fn extend_hps(&self, residues: &[u64], precision: HpsPrecision) -> Vec<u64> {
        assert_eq!(residues.len(), self.from.len(), "residue count mismatch");
        // Fig. 6 "Block 1": y_i = a_i · q̃_i mod q_i.
        let ys: Vec<u64> = residues
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let m = self.from.modulus(i);
                m.mul(m.reduce(a), self.from.tilde(i))
            })
            .collect();
        let v = self.quotient(&ys, precision);
        (0..self.to.len())
            .map(|j| {
                let m = self.to.modulus(j);
                let mut acc = 0u128;
                for (&y, row) in ys.iter().zip(&self.cross) {
                    acc += y as u128 * row[j] as u128;
                }
                let pos = m.reduce_u128(acc);
                let neg = m.reduce_u128(v as u128 * self.product_mod_to[j] as u128);
                m.sub(pos, neg)
            })
            .collect()
    }

    /// HPS extension of a column range of a flat residue-major polynomial.
    ///
    /// `src` holds the source polynomial as one contiguous
    /// `from.len() × n` buffer (limb-major: coefficient `c` of residue `i`
    /// at `src[i·n + c]`). The destination residues of columns `cols` are
    /// written into `out`, laid out `to.len() × cols.len()` with stride
    /// `cols.len()`. Runs on the process-wide kernel table
    /// ([`Kernels::hps_extend_cols`]): blocks of coefficients stream through
    /// the premultiply, quotient and sum-of-products kernels with no
    /// allocation — the software analogue of the paper's block-pipelined
    /// Lift datapath taking one coefficient per initiation interval.
    /// Bit-identical to [`Extender::extend_hps`] on every column.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn extend_poly_hps_cols_into(
        &self,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        dispatch::kernels().hps_extend_cols(self, src, n, cols, out, precision)
    }

    /// [`Extender::extend_poly_hps_cols_into`] on the given kernel table.
    pub(crate) fn extend_cols_with(
        &self,
        kern: &Kernels,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        let k = self.from.len();
        let l = self.to.len();
        assert_eq!(src.len(), k * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), l * w, "flat destination length mismatch");
        assert!(k <= MAX_STREAM_LIMBS, "basis exceeds MAX_STREAM_LIMBS");
        let mut ys = [0u32; MAX_STREAM_LIMBS * HPS_BLOCK];
        let mut seeds = [0u64; HPS_BLOCK];
        for b in (0..w).step_by(HPS_BLOCK) {
            let bw = HPS_BLOCK.min(w - b);
            self.conv.run_block(
                kern,
                &src[cols.start + b..],
                n,
                precision,
                &mut ys,
                &mut seeds[..bw],
                &mut out[b..],
                w,
            );
        }
    }

    /// HPS extension of a whole flat residue-major polynomial into a
    /// caller-provided `to.len() × n` buffer. See
    /// [`Extender::extend_poly_hps_cols_into`] for the layout.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn extend_poly_hps_into(
        &self,
        src: &[u64],
        n: usize,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        self.extend_poly_hps_cols_into(src, n, 0..n, out, precision);
    }

    /// Exact (long-integer) extension of a column range; the oracle and
    /// the traditional architecture's behaviour. Layout as in
    /// [`Extender::extend_poly_hps_cols_into`].
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn extend_poly_exact_cols_into(
        &self,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
    ) {
        let k = self.from.len();
        let l = self.to.len();
        assert_eq!(src.len(), k * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), l * w, "flat destination length mismatch");
        let mut buf = vec![0u64; k];
        for (o, c) in cols.enumerate() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = src[i * n + c];
            }
            let centered = self.from.decode_centered(&buf);
            for j in 0..l {
                let m = self.to.modulus(j);
                out[j * w + o] = centered
                    .rem_euclid(&UBig::from(m.value()))
                    .to_u64()
                    .expect("residue fits u64");
            }
        }
    }

    /// Exact extension of a whole flat polynomial into a caller-provided
    /// `to.len() × n` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn extend_poly_exact_into(&self, src: &[u64], n: usize, out: &mut [u64]) {
        self.extend_poly_exact_cols_into(src, n, 0..n, out);
    }
}

/// A paired RNS context: the ciphertext basis `q` and the extension basis
/// `p` with `Q = q·p`, plus both direction extenders.
///
/// This mirrors the paper's setup: `q` is six 30-bit primes (180 bits), `p`
/// seven more (`Q` is 390 bits).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RnsContext {
    base_q: RnsBasis,
    base_p: RnsBasis,
    /// Basis for all of `Q = q·p` (q primes then p primes).
    base_full: RnsBasis,
    big_q: UBig,
    ext_q_to_p: Extender,
    ext_p_to_q: Extender,
}

impl RnsContext {
    /// Builds a context from the `q`-basis primes and `p`-basis primes.
    ///
    /// # Errors
    ///
    /// Returns an error if any basis is invalid, the primes overlap, or a
    /// prime lies outside `[2^29, 2^31)`, the 30/31-bit range the HPS
    /// reciprocals ([`SmallReciprocal`]) and the 32-bit key-switch lanes
    /// are built for.
    pub fn new(q_primes: &[u64], p_primes: &[u64]) -> Result<Self, String> {
        if let Some(&p) = q_primes
            .iter()
            .chain(p_primes)
            .find(|&&p| !((1 << 29)..(1 << 31)).contains(&p))
        {
            return Err(format!(
                "modulus {p} is outside the 30/31-bit range [2^29, 2^31)"
            ));
        }
        let base_q = RnsBasis::new(q_primes)?;
        let base_p = RnsBasis::new(p_primes)?;
        let all: Vec<u64> = q_primes.iter().chain(p_primes).copied().collect();
        let base_full = RnsBasis::new(&all)?; // rejects overlaps
        let big_q = &base_q.product().clone() * base_p.product();
        let ext_q_to_p = Extender::new(&base_q, &base_p);
        let ext_p_to_q = Extender::new(&base_p, &base_q);
        Ok(RnsContext {
            base_q,
            base_p,
            base_full,
            big_q,
            ext_q_to_p,
            ext_p_to_q,
        })
    }

    /// The ciphertext basis `q`.
    pub fn base_q(&self) -> &RnsBasis {
        &self.base_q
    }

    /// The extension basis `p`.
    pub fn base_p(&self) -> &RnsBasis {
        &self.base_p
    }

    /// The combined basis of `Q = q·p` (q moduli first).
    pub fn base_full(&self) -> &RnsBasis {
        &self.base_full
    }

    /// `Q = q · p`.
    pub fn big_q(&self) -> &UBig {
        &self.big_q
    }

    /// The `q → p` extender (the `Lift q→Q` kernel).
    pub fn lift(&self) -> &Extender {
        &self.ext_q_to_p
    }

    /// The `p → q` extender (second half of `Scale Q→q`).
    pub fn unlift(&self) -> &Extender {
        &self.ext_p_to_q
    }
}

/// Precomputed constants for `Scale Q→q` with plaintext modulus `t`:
/// `d = ⌈t·a/q⌋ mod q`, for `a` given in the full basis of `Q`.
///
/// Follows §IV-D: step 1 computes `d` in the RNS of `p` with 30-bit
/// arithmetic; step 2 switches basis `p → q` using the lift machinery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleContext {
    t: u64,
    /// `Q̃_i = (Q/q_i)^{-1} mod q_i` for the q-basis part.
    big_q_tilde_q: Vec<u64>,
    /// `Q̃_j = (Q/p_j)^{-1} mod p_j` for the p-basis part.
    big_q_tilde_p: Vec<u64>,
    /// `t·(p/p_j) mod p_m`, indexed `[j][m]`.
    c_jm: Vec<Vec<u64>>,
    /// `floor(t·p/q_i) mod p_m`, indexed `[i][m]` (the constants `I_i`).
    int_im: Vec<Vec<u64>>,
    /// `frac(t·p/q_i)` in Q64 fixed point (the constants `R_i`, §V-C).
    frac_fixed: Vec<u64>,
    /// `frac(t·p/q_i)` as doubles.
    frac_f64: Vec<f64>,
    /// Step 1 laid out for the column-blocked kernels: source rows `q ∥ p`.
    conv: HpsConv,
}

impl ScaleContext {
    /// Precomputes the scaling constants for plaintext modulus `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or not far smaller than every prime.
    pub fn new(ctx: &RnsContext, t: u64) -> Self {
        assert!(t >= 1, "plaintext modulus must be positive");
        let qb = ctx.base_q();
        let pb = ctx.base_p();
        assert!(
            t < pb.modulus(0).value() / 2,
            "plaintext modulus too large for this basis"
        );
        let big_q = ctx.big_q();

        let big_q_tilde_q: Vec<u64> = (0..qb.len())
            .map(|i| {
                let m = qb.modulus(i);
                let q_over = big_q.div_rem(&UBig::from(m.value())).0;
                m.inv(q_over.rem_u64(m.value()))
            })
            .collect();
        let big_q_tilde_p: Vec<u64> = (0..pb.len())
            .map(|j| {
                let m = pb.modulus(j);
                let q_over = big_q.div_rem(&UBig::from(m.value())).0;
                m.inv(q_over.rem_u64(m.value()))
            })
            .collect();

        let p_prod = pb.product();
        let c_jm: Vec<Vec<u64>> = (0..pb.len())
            .map(|j| {
                let tp_over_pj = pb.m_over(j).mul_u64(t);
                (0..pb.len())
                    .map(|m| tp_over_pj.rem_u64(pb.modulus(m).value()))
                    .collect()
            })
            .collect();

        let mut int_im = Vec::with_capacity(qb.len());
        let mut frac_fixed = Vec::with_capacity(qb.len());
        let mut frac_f64 = Vec::with_capacity(qb.len());
        for i in 0..qb.len() {
            let qi = qb.modulus(i).value();
            let tp = p_prod.mul_u64(t);
            let (ipart, rem) = tp.div_rem(&UBig::from(qi));
            int_im.push(
                (0..pb.len())
                    .map(|m| ipart.rem_u64(pb.modulus(m).value()))
                    .collect(),
            );
            let r = rem.to_u64().unwrap();
            frac_fixed.push((((r as u128) << 64) / qi as u128) as u64);
            frac_f64.push(r as f64 / qi as f64);
        }
        // G ≤ Σ_i y_i < Σ_i q_i enters every output with multiplier 1.
        let full = ctx.base_full().moduli();
        let tildes = big_q_tilde_q.iter().chain(&big_q_tilde_p);
        let conv = HpsConv::new(
            full.iter()
                .zip(tildes)
                .map(|(m, &w)| (ShoupMul::new(w, m.value()), m.value()))
                .collect(),
            &frac_fixed,
            64,
            frac_f64.clone(),
            &int_im.iter().chain(&c_jm).cloned().collect::<Vec<_>>(),
            &vec![1; pb.len()],
            qb.moduli().iter().map(Modulus::value).sum(),
            pb.moduli(),
        );
        ScaleContext {
            t,
            big_q_tilde_q,
            big_q_tilde_p,
            c_jm,
            int_im,
            frac_fixed,
            frac_f64,
            conv,
        }
    }

    /// The plaintext modulus `t`.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// ROM constants `Q̃_i mod q_i` over the q basis (Fig. 9 Block 3).
    pub fn big_q_tilde_q_table(&self) -> &[u64] {
        &self.big_q_tilde_q
    }

    /// ROM constants `Q̃_j mod p_j` over the p basis.
    pub fn big_q_tilde_p_table(&self) -> &[u64] {
        &self.big_q_tilde_p
    }

    /// ROM constants `t·(p/p_j) mod p_m`, indexed `[j][m]`.
    pub fn c_jm_table(&self) -> &[Vec<u64>] {
        &self.c_jm
    }

    /// ROM constants `floor(t·p/q_i) mod p_m` (the integer parts `I_i`).
    pub fn int_table(&self) -> &[Vec<u64>] {
        &self.int_im
    }

    /// ROM constants `frac(t·p/q_i)` in Q64 (the real parts `R_i`).
    pub fn frac_fixed_table(&self) -> &[u64] {
        &self.frac_fixed
    }

    /// Step 1 of HPS `Scale Q→q`: computes `d = ⌈t·a/q⌋ mod p_m` for every
    /// `p`-basis modulus, using only small-number arithmetic (Fig. 9,
    /// Blocks 1–3).
    ///
    /// `a_q` are the residues of `a` in the q basis, `a_p` in the p basis.
    ///
    /// # Panics
    ///
    /// Panics if residue counts mismatch the context bases.
    pub fn scale_to_p(
        &self,
        ctx: &RnsContext,
        a_q: &[u64],
        a_p: &[u64],
        precision: HpsPrecision,
    ) -> Vec<u64> {
        let qb = ctx.base_q();
        let pb = ctx.base_p();
        assert_eq!(a_q.len(), qb.len(), "q-basis residue count mismatch");
        assert_eq!(a_p.len(), pb.len(), "p-basis residue count mismatch");
        // y_k = a_k * Q̃_k mod m_k for every modulus of Q.
        let premultiply = |b: &RnsBasis, a: &[u64], tilde: &[u64]| -> Vec<u64> {
            a.iter()
                .enumerate()
                .map(|(i, &x)| b.modulus(i).mul(b.modulus(i).reduce(x), tilde[i]))
                .collect()
        };
        let yq = premultiply(qb, a_q, &self.big_q_tilde_q);
        let yp = premultiply(pb, a_p, &self.big_q_tilde_p);

        // Rounded fractional contribution G = ⌈Σ_i y_i · frac(t·p/q_i)⌋.
        let g: u64 = match precision {
            HpsPrecision::F64 => {
                let s: f64 = yq
                    .iter()
                    .zip(&self.frac_f64)
                    .map(|(&y, &f)| y as f64 * f)
                    .sum();
                s.round() as u64
            }
            HpsPrecision::Fixed => {
                let s: u128 = yq
                    .iter()
                    .zip(&self.frac_fixed)
                    .map(|(&y, &f)| y as u128 * f as u128)
                    .sum();
                ((s + (1u128 << 63)) >> 64) as u64
            }
        };

        (0..pb.len())
            .map(|m_idx| {
                let mut acc = g as u128;
                for (j, &y) in yp.iter().enumerate() {
                    acc += y as u128 * self.c_jm[j][m_idx] as u128;
                }
                for (i, &y) in yq.iter().enumerate() {
                    acc += y as u128 * self.int_im[i][m_idx] as u128;
                }
                pb.modulus(m_idx).reduce_u128(acc)
            })
            .collect()
    }

    /// Full HPS `Scale Q→q` on one coefficient: step 1 then the `p → q`
    /// basis switch (which the paper implements by reusing the `Lift`
    /// datapath). Like [`Extender::extend_hps`], this `u128` form is the
    /// oracle of the column-blocked polynomial path.
    pub fn scale_hps(
        &self,
        ctx: &RnsContext,
        a_q: &[u64],
        a_p: &[u64],
        precision: HpsPrecision,
    ) -> Vec<u64> {
        let d_p = self.scale_to_p(ctx, a_q, a_p, precision);
        ctx.unlift().extend_hps(&d_p, precision)
    }

    /// Exact `Scale Q→q` via long integers (the traditional architecture
    /// and the property-test oracle): reconstruct `a mod Q`, center,
    /// compute `⌈t·a/q⌋`, reduce into the q basis.
    pub fn scale_exact(&self, ctx: &RnsContext, a_full: &[u64]) -> Vec<u64> {
        let a = ctx.base_full().decode_centered(a_full);
        let d = a.scale_round(&UBig::from(self.t), ctx.base_q().product());
        ctx.base_q().encode_signed(&d)
    }

    /// HPS `Scale Q→q` of a column range of a flat residue-major
    /// polynomial over the full `Q` basis (q residues first: coefficient
    /// `c` of residue `i` at `src[i·n + c]`, `i < k + l`). Output columns
    /// land in `out`, laid out `k × cols.len()` with stride `cols.len()`.
    /// Runs on the process-wide kernel table
    /// ([`Kernels::hps_scale_cols`]) on stack scratch blocks — no
    /// allocation. Bit-identical to [`ScaleContext::scale_hps`] on every
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn scale_poly_hps_cols_into(
        &self,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        dispatch::kernels().hps_scale_cols(self, ctx, src, n, cols, out, precision)
    }

    /// [`ScaleContext::scale_poly_hps_cols_into`] on the given kernel
    /// table.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scale_cols_with(
        &self,
        kern: &Kernels,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        let (k, l) = (ctx.base_q().len(), ctx.base_p().len());
        assert_eq!(src.len(), (k + l) * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), k * w, "flat destination length mismatch");
        assert!(
            k <= MAX_STREAM_LIMBS && l <= MAX_STREAM_LIMBS,
            "basis exceeds MAX_STREAM_LIMBS"
        );
        let unlift = &ctx.unlift().conv;
        let mut ys = [0u32; 2 * MAX_STREAM_LIMBS * HPS_BLOCK];
        let mut d_p = [0u64; MAX_STREAM_LIMBS * HPS_BLOCK];
        let mut seeds = [0u64; HPS_BLOCK];
        for b in (0..w).step_by(HPS_BLOCK) {
            let bw = HPS_BLOCK.min(w - b);
            // Step 1 (Fig. 9 Blocks 1–3): d = ⌈t·a/q⌋ in the p basis.
            let src_block = &src[cols.start + b..];
            self.conv.run_block(
                kern,
                src_block,
                n,
                precision,
                &mut ys,
                &mut seeds[..bw],
                &mut d_p,
                HPS_BLOCK,
            );
            // Step 2: basis switch p → q through the Lift block.
            unlift.run_block(
                kern,
                &d_p,
                HPS_BLOCK,
                precision,
                &mut ys,
                &mut seeds[..bw],
                &mut out[b..],
                w,
            );
        }
    }

    /// HPS `Scale Q→q` of a whole flat polynomial into a caller-provided
    /// `k × n` buffer. See [`ScaleContext::scale_poly_hps_cols_into`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn scale_poly_hps_into(
        &self,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        self.scale_poly_hps_cols_into(ctx, src, n, 0..n, out, precision);
    }

    /// Exact `Scale Q→q` of a column range (oracle / traditional
    /// architecture); layout as in
    /// [`ScaleContext::scale_poly_hps_cols_into`].
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn scale_poly_exact_cols_into(
        &self,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
    ) {
        let k = ctx.base_q().len();
        let l = ctx.base_p().len();
        assert_eq!(src.len(), (k + l) * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), k * w, "flat destination length mismatch");
        let mut buf = vec![0u64; k + l];
        for (o, c) in cols.enumerate() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = src[i * n + c];
            }
            let d = self.scale_exact(ctx, &buf);
            for (i, &v) in d.iter().enumerate() {
                out[i * w + o] = v;
            }
        }
    }

    /// Exact `Scale Q→q` of a whole flat polynomial into a caller-provided
    /// `k × n` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn scale_poly_exact_into(&self, ctx: &RnsContext, src: &[u64], n: usize, out: &mut [u64]) {
        self.scale_poly_exact_cols_into(ctx, src, n, 0..n, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::ntt_primes;

    fn paper_context() -> RnsContext {
        let ps = ntt_primes(30, 4096, 13).unwrap();
        RnsContext::new(&ps[..6], &ps[6..]).unwrap()
    }

    #[test]
    fn basis_rejects_bad_input() {
        assert!(RnsBasis::new(&[]).is_err());
        assert!(RnsBasis::new(&[97, 97]).is_err());
        assert!(RnsContext::new(&[1_073_479_681], &[1_073_479_681]).is_err());
    }

    #[test]
    fn basis_rejects_composite() {
        assert!(RnsBasis::new(&[1_073_086_465]).is_err()); // divisible by 5
    }

    #[test]
    fn encode_decode_roundtrip() {
        let basis = RnsBasis::new(&ntt_primes(30, 64, 3).unwrap()).unwrap();
        let vals = [
            UBig::zero(),
            UBig::one(),
            UBig::from(u64::MAX),
            basis.product() - &UBig::one(),
        ];
        for v in vals {
            assert_eq!(basis.decode(&basis.encode(&v)), v);
        }
    }

    #[test]
    fn decode_centered_signs() {
        let basis = RnsBasis::new(&[97, 101]).unwrap();
        // -5 mod 9797
        let neg5 = basis.encode(&UBig::from(9797u64 - 5));
        let c = basis.decode_centered(&neg5);
        assert!(c.is_negative());
        assert_eq!(c.magnitude(), &UBig::from(5u64));
    }

    #[test]
    fn paper_bases_have_paper_sizes() {
        let ctx = paper_context();
        assert_eq!(ctx.base_q().len(), 6);
        assert_eq!(ctx.base_p().len(), 7);
        assert_eq!(ctx.base_q().product().bits(), 180, "q is 180-bit");
        assert_eq!(ctx.big_q().bits(), 390, "Q is 390-bit");
    }

    #[test]
    fn exact_extension_is_centered() {
        let ctx = paper_context();
        let q = ctx.base_q().product().clone();
        // a = q - 3 represents -3; extension must give -3 mod p_j.
        let a = &q - &UBig::from(3u64);
        let res = ctx.base_q().encode(&a);
        let ext = ctx.lift().extend_exact(&res);
        for (j, &e) in ext.iter().enumerate() {
            let pj = ctx.base_p().modulus(j).value();
            assert_eq!(e, pj - 3, "j={j}");
        }
    }

    #[test]
    fn hps_extension_matches_exact_small_values() {
        let ctx = paper_context();
        for v in [0u64, 1, 2, 12345, 1 << 29] {
            let res = ctx.base_q().encode(&UBig::from(v));
            for prec in [HpsPrecision::F64, HpsPrecision::Fixed] {
                assert_eq!(
                    ctx.lift().extend_hps(&res, prec),
                    ctx.lift().extend_exact(&res),
                    "v={v} prec={prec:?}"
                );
            }
        }
    }

    #[test]
    fn hps_extension_matches_exact_random() {
        let ctx = paper_context();
        let mut state = 0xDEAD_BEEF_1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..500 {
            let res: Vec<u64> = (0..6)
                .map(|i| next() % ctx.base_q().modulus(i).value())
                .collect();
            let exact = ctx.lift().extend_exact(&res);
            assert_eq!(ctx.lift().extend_hps(&res, HpsPrecision::F64), exact);
            assert_eq!(ctx.lift().extend_hps(&res, HpsPrecision::Fixed), exact);
        }
    }

    #[test]
    fn poly_extension_layouts() {
        let ctx = paper_context();
        let n = 8;
        let mut src = vec![0u64; 6 * n];
        for i in 0..6 {
            for c in 0..n {
                src[i * n + c] =
                    (c as u64 * 7919 + i as u64 * 104729) % ctx.base_q().modulus(i).value();
            }
        }
        let mut hps = vec![0u64; 7 * n];
        let mut exact = vec![0u64; 7 * n];
        ctx.lift()
            .extend_poly_hps_into(&src, n, &mut hps, HpsPrecision::Fixed);
        ctx.lift().extend_poly_exact_into(&src, n, &mut exact);
        assert_eq!(hps, exact);
        // Column-range calls must agree with the full-width call.
        let mut cols = vec![0u64; 7 * 3];
        ctx.lift()
            .extend_poly_hps_cols_into(&src, n, 2..5, &mut cols, HpsPrecision::Fixed);
        for j in 0..7 {
            assert_eq!(&cols[j * 3..(j + 1) * 3], &hps[j * n + 2..j * n + 5]);
        }
        // And with the scalar per-coefficient path.
        let buf: Vec<u64> = (0..6).map(|i| src[i * n + 3]).collect();
        let scalar = ctx.lift().extend_hps(&buf, HpsPrecision::Fixed);
        for j in 0..7 {
            assert_eq!(scalar[j], hps[j * n + 3]);
        }
    }

    #[test]
    fn scale_exact_basic() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        // a = 3q → t·a/q = 6 exactly.
        let a = &ctx.base_q().product().clone() * &UBig::from(3u64);
        let res = ctx.base_full().encode(&a);
        let d = sc.scale_exact(&ctx, &res);
        let got = ctx.base_q().decode(&d);
        assert_eq!(got, UBig::from(6u64));
    }

    #[test]
    fn scale_hps_matches_exact_random() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        // Values bounded like FV tensor coefficients: |a| < n·(q)^2·t ≪ Q/2.
        let bound = {
            let q = ctx.base_q().product().clone();
            (&(&q * &q) << 12).mul_u64(2)
        };
        assert!(bound < (ctx.big_q() >> 1), "tensor bound below Q/2");
        for trial in 0..200 {
            // random value in [0, bound), possibly representing a negative
            let mut v = UBig::zero();
            for _ in 0..7 {
                v = &(&v << 64) + &UBig::from(next());
            }
            let v = v.div_rem(&bound).1;
            let signed = trial % 2 == 1;
            let rep = if signed { ctx.big_q() - &v } else { v.clone() };
            let res = ctx.base_full().encode(&rep);
            let exact = sc.scale_exact(&ctx, &res);
            let hps_f = sc.scale_hps(&ctx, &res[..6], &res[6..], HpsPrecision::F64);
            let hps_x = sc.scale_hps(&ctx, &res[..6], &res[6..], HpsPrecision::Fixed);
            assert_eq!(hps_f, exact, "trial={trial} f64");
            assert_eq!(hps_x, exact, "trial={trial} fixed");
        }
    }

    #[test]
    fn scale_to_p_consistent_with_exact() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        let a = UBig::from_decimal("123456789012345678901234567890123456789").unwrap();
        let res = ctx.base_full().encode(&a);
        let d_p = sc.scale_to_p(&ctx, &res[..6], &res[6..], HpsPrecision::Fixed);
        // oracle: round(t*a/q) mod p_j
        let d = center(&a, ctx.big_q()).scale_round(&UBig::from(2u64), ctx.base_q().product());
        for (j, &got) in d_p.iter().enumerate() {
            let pj = UBig::from(ctx.base_p().modulus(j).value());
            assert_eq!(UBig::from(got), d.rem_euclid(&pj), "j={j}");
        }
    }

    #[test]
    fn scale_poly_layouts() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        let n = 4;
        // Encode bounded values (like FV tensor coefficients, far below
        // Q/2) — HPS scaling is only specified for such inputs.
        let q = ctx.base_q().product().clone();
        let vals: Vec<UBig> = (0..n as u64)
            .map(|c| (&(&q * &q) >> 3).mul_u64(c + 1))
            .collect();
        let mut src = vec![0u64; 13 * n];
        for i in 0..13 {
            for (c, v) in vals.iter().enumerate() {
                src[i * n + c] = v.rem_u64(ctx.base_full().modulus(i).value());
            }
        }
        let mut hps = vec![0u64; 6 * n];
        let mut exact = vec![0u64; 6 * n];
        sc.scale_poly_hps_into(&ctx, &src, n, &mut hps, HpsPrecision::Fixed);
        sc.scale_poly_exact_into(&ctx, &src, n, &mut exact);
        assert_eq!(hps, exact);
        // Column-range call agrees with the full-width call.
        let mut cols = vec![0u64; 6 * 2];
        sc.scale_poly_hps_cols_into(&ctx, &src, n, 1..3, &mut cols, HpsPrecision::Fixed);
        for i in 0..6 {
            assert_eq!(&cols[i * 2..(i + 1) * 2], &hps[i * n + 1..i * n + 3]);
        }
    }

    #[test]
    fn hps_fold_bounds_follow_the_moduli() {
        // 30-bit primes: T ≥ 15, so the paper's 6 + 7 limbs never fold.
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        for conv in [&ctx.lift().conv, &ctx.unlift().conv, &sc.conv] {
            assert!(
                conv.fold >= 15 && conv.fold >= conv.rows(),
                "T={}",
                conv.fold
            );
        }
        // Table V's 48 + 49 limbs fold; 31-bit primes fold every 3–4 terms.
        let ps = ntt_primes(30, 4096 << 3, 97).unwrap();
        let big = RnsContext::new(&ps[..48], &ps[48..]).unwrap();
        assert!(ScaleContext::new(&big, 2).conv.fold < 97);
        let ps = ntt_primes(31, 4096, 13).unwrap();
        let wide = RnsContext::new(&ps[..6], &ps[6..]).unwrap();
        assert!((3..=4).contains(&wide.lift().conv.fold));
    }

    #[test]
    #[should_panic(expected = "plaintext modulus too large")]
    fn scale_context_rejects_huge_t() {
        let ctx = paper_context();
        let _ = ScaleContext::new(&ctx, 1 << 40);
    }
}
