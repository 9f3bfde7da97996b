//! RNS polynomials: elements of `R_q` (or `R_Q`) held as parallel residue
//! polynomials.
//!
//! Storage is one contiguous `k·n` buffer in limb-major order (residue row
//! `i` occupies `data[i·n .. (i+1)·n]`) — the software mirror of how the
//! paper distributes work across RPAUs: each RPAU owns one (or two) residue
//! rows, and rows stream through the datapath as dense vectors. A single
//! allocation per polynomial (instead of one per row) keeps the hot kernels
//! cache-friendly and lets callers hand whole row ranges to the flat-slice
//! `Lift`/`Scale` APIs without copying.

use hefv_math::ntt::NttTable;
use hefv_math::rns::RnsBasis;
use serde::{Deserialize, Serialize};

/// Which domain the coefficients are currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Domain {
    /// Ordinary (power-basis) coefficients.
    Coefficient,
    /// NTT (evaluation) domain, bit-reversed order.
    Ntt,
}

/// A polynomial in RNS representation over some basis.
///
/// Arithmetic methods assume both operands share the same basis and domain;
/// this is checked with assertions (domain confusion is the classic FV
/// implementation bug).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RnsPoly {
    /// Contiguous limb-major coefficients: row `i`, coefficient `c` at
    /// `data[i * n + c]`.
    data: Vec<u64>,
    k: usize,
    n: usize,
    domain: Domain,
}

impl RnsPoly {
    /// The zero polynomial over `k` residues of length `n`.
    pub fn zero(k: usize, n: usize) -> Self {
        Self::zero_in(k, n, Domain::Coefficient)
    }

    /// The zero polynomial tagged with an explicit domain (NTT-domain
    /// accumulators start here).
    pub fn zero_in(k: usize, n: usize, domain: Domain) -> Self {
        assert!(k > 0, "need at least one residue row");
        RnsPoly {
            data: vec![0; k * n],
            k,
            n,
            domain,
        }
    }

    /// Wraps a flat limb-major buffer produced elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or does not divide `data.len()`.
    pub fn from_flat(data: Vec<u64>, k: usize, domain: Domain) -> Self {
        assert!(k > 0, "need at least one residue row");
        assert_eq!(data.len() % k, 0, "flat buffer not a multiple of k");
        let n = data.len() / k;
        RnsPoly { data, k, n, domain }
    }

    /// Wraps residue rows produced elsewhere (flattening them into the
    /// contiguous layout).
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged or empty.
    pub fn from_residues(residues: Vec<Vec<u64>>, domain: Domain) -> Self {
        assert!(!residues.is_empty(), "need at least one residue row");
        let k = residues.len();
        let n = residues[0].len();
        let mut data = Vec::with_capacity(k * n);
        for row in residues {
            assert_eq!(row.len(), n, "ragged rows");
            data.extend_from_slice(&row);
        }
        RnsPoly {
            data,
            k,
            n,
            domain: Domain::Coefficient,
        }
        .with_domain(domain)
    }

    fn with_domain(mut self, domain: Domain) -> Self {
        self.domain = domain;
        self
    }

    /// Builds from signed coefficients, reducing into each prime of `basis`.
    pub fn from_signed(coeffs: &[i64], basis: &RnsBasis) -> Self {
        let k = basis.len();
        let n = coeffs.len();
        let mut data = Vec::with_capacity(k * n);
        for m in basis.moduli() {
            data.extend(coeffs.iter().map(|&c| m.from_i64(c)));
        }
        RnsPoly {
            data,
            k,
            n,
            domain: Domain::Coefficient,
        }
    }

    /// Number of residue rows.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The whole limb-major buffer (`k·n` values, stride `n`).
    pub fn flat(&self) -> &[u64] {
        &self.data
    }

    /// Consumes the polynomial, yielding its backing buffer (the seam the
    /// [`crate::scratch::Arena`] recycles through).
    pub fn into_flat(self) -> Vec<u64> {
        self.data
    }

    /// Mutable view of the whole buffer (domain discipline is the
    /// caller's burden).
    pub fn flat_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Residue row `i` (coefficients mod the `i`-th prime).
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable residue row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// Flat mutable view of rows `i..j` (still limb-major, stride `n`) —
    /// the seam the flat-slice `Lift`/`Scale` kernels write through.
    ///
    /// # Panics
    ///
    /// Panics if `i > j` or `j > k`.
    pub fn rows_mut(&mut self, i: usize, j: usize) -> &mut [u64] {
        assert!(i <= j && j <= self.k, "row range out of bounds");
        &mut self.data[i * self.n..j * self.n]
    }

    /// Iterates residue rows as dense slices.
    pub fn rows(&self) -> std::slice::Chunks<'_, u64> {
        self.data.chunks(self.n)
    }

    /// Copies the rows out as owned vectors (bridge for the simulator's
    /// per-lane BRAM models; not used on the hot path).
    pub fn to_rows(&self) -> Vec<Vec<u64>> {
        self.rows().map(<[u64]>::to_vec).collect()
    }

    fn check(&self, other: &Self) {
        assert_eq!(self.k, other.k, "residue count mismatch");
        assert_eq!(self.n, other.n, "degree mismatch");
        assert_eq!(self.domain, other.domain, "domain mismatch");
    }

    /// Coefficient-wise sum over `basis` (valid in either domain).
    ///
    /// # Panics
    ///
    /// Panics on shape or domain mismatch.
    pub fn add(&self, other: &Self, basis: &RnsBasis) -> Self {
        self.check(other);
        let mut data = Vec::with_capacity(self.data.len());
        for i in 0..self.k {
            let m = basis.modulus(i);
            data.extend(
                self.row(i)
                    .iter()
                    .zip(other.row(i))
                    .map(|(&a, &b)| m.add(a, b)),
            );
        }
        RnsPoly {
            data,
            k: self.k,
            n: self.n,
            domain: self.domain,
        }
    }

    /// Coefficient-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape or domain mismatch.
    pub fn sub(&self, other: &Self, basis: &RnsBasis) -> Self {
        self.check(other);
        let mut data = Vec::with_capacity(self.data.len());
        for i in 0..self.k {
            let m = basis.modulus(i);
            data.extend(
                self.row(i)
                    .iter()
                    .zip(other.row(i))
                    .map(|(&a, &b)| m.sub(a, b)),
            );
        }
        RnsPoly {
            data,
            k: self.k,
            n: self.n,
            domain: self.domain,
        }
    }

    /// Negation.
    pub fn neg(&self, basis: &RnsBasis) -> Self {
        let mut data = Vec::with_capacity(self.data.len());
        for i in 0..self.k {
            let m = basis.modulus(i);
            data.extend(self.row(i).iter().map(|&a| m.neg(a)));
        }
        RnsPoly {
            data,
            k: self.k,
            n: self.n,
            domain: self.domain,
        }
    }

    /// Pointwise (Hadamard) product — both operands must be NTT-domain.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if either operand is coefficient-domain.
    pub fn pointwise_mul(&self, other: &Self, basis: &RnsBasis) -> Self {
        let mut out = RnsPoly::zero_in(self.k, self.n, Domain::Ntt);
        self.pointwise_mul_into(other, basis, &mut out);
        out
    }

    /// In-place pointwise product: `self ⊙= other` in NTT domain — the
    /// allocation-free sibling of [`RnsPoly::pointwise_mul`] for callers
    /// that already own their output buffer.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or wrong domains.
    pub fn pointwise_mul_assign(&mut self, other: &Self, basis: &RnsBasis) {
        self.check(other);
        assert_eq!(
            self.domain,
            Domain::Ntt,
            "pointwise product needs NTT domain"
        );
        let n = self.n;
        for i in 0..self.k {
            let dst = &mut self.data[i * n..(i + 1) * n];
            basis.modulus(i).mul_slice_assign(dst, other.row(i));
        }
    }

    /// Pointwise product written into a caller-provided output polynomial
    /// (shape-checked; `out`'s previous contents and domain are
    /// overwritten). The allocation-free form of [`RnsPoly::pointwise_mul`]
    /// for arena-recycled outputs.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if either operand is coefficient-domain.
    pub fn pointwise_mul_into(&self, other: &Self, basis: &RnsBasis, out: &mut Self) {
        self.check(other);
        assert_eq!(
            self.domain,
            Domain::Ntt,
            "pointwise product needs NTT domain"
        );
        assert_eq!(out.k, self.k, "residue count mismatch");
        assert_eq!(out.n, self.n, "degree mismatch");
        out.domain = Domain::Ntt;
        let n = self.n;
        for i in 0..self.k {
            let dst = &mut out.data[i * n..(i + 1) * n];
            basis.modulus(i).mul_slice(self.row(i), other.row(i), dst);
        }
    }

    /// In-place coefficient-wise sum: `self += other` (valid in either
    /// domain) — the allocation-free sibling of [`RnsPoly::add`].
    ///
    /// # Panics
    ///
    /// Panics on shape or domain mismatch.
    pub fn add_assign(&mut self, other: &Self, basis: &RnsBasis) {
        self.check(other);
        let n = self.n;
        for i in 0..self.k {
            let m = *basis.modulus(i);
            let dst = &mut self.data[i * n..(i + 1) * n];
            for (d, &b) in dst.iter_mut().zip(other.row(i)) {
                *d = m.add(*d, b);
            }
        }
    }

    /// Copies another polynomial's coefficients and domain into this one's
    /// buffer (shapes must match) — a clone that reuses the allocation.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "residue count mismatch");
        assert_eq!(self.n, other.n, "degree mismatch");
        self.data.copy_from_slice(&other.data);
        self.domain = other.domain;
    }

    /// Multiply-accumulate: `acc += a ⊙ b` in NTT domain.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or wrong domains.
    pub fn pointwise_mul_acc(&mut self, a: &Self, b: &Self, basis: &RnsBasis) {
        a.check(b);
        assert_eq!(self.k, a.k, "residue count mismatch");
        assert_eq!(self.n, a.n, "degree mismatch");
        assert_eq!(self.domain, Domain::Ntt);
        assert_eq!(a.domain, Domain::Ntt);
        let n = self.n;
        for i in 0..self.k {
            let dst = &mut self.data[i * n..(i + 1) * n];
            basis.modulus(i).mul_acc_slice(a.row(i), b.row(i), dst);
        }
    }

    /// Multiplies every coefficient by per-residue scalars (e.g. `Δ mod q_i`).
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len() != k`.
    pub fn scalar_mul(&self, scalars: &[u64], basis: &RnsBasis) -> Self {
        assert_eq!(scalars.len(), self.k, "scalar count mismatch");
        let mut data = Vec::with_capacity(self.data.len());
        for (i, &scalar) in scalars.iter().enumerate() {
            let m = basis.modulus(i);
            let s = m.reduce(scalar);
            data.extend(self.row(i).iter().map(|&a| m.mul(a, s)));
        }
        RnsPoly {
            data,
            k: self.k,
            n: self.n,
            domain: self.domain,
        }
    }

    /// Forward NTT on every residue row, handed to the dispatch seam's
    /// batch entry as one span so same-size transforms across limbs share
    /// one kernel selection and keep SIMD lanes full.
    ///
    /// # Panics
    ///
    /// Panics if already in NTT domain or if table count mismatches.
    pub fn ntt_forward(&mut self, tables: &[NttTable]) {
        assert_eq!(self.domain, Domain::Coefficient, "already in NTT domain");
        assert_eq!(tables.len(), self.k, "table count mismatch");
        hefv_math::dispatch::kernels().ntt_forward_batch(tables, &mut self.data);
        self.domain = Domain::Ntt;
    }

    /// Inverse NTT on every residue row (one batch span, as
    /// [`RnsPoly::ntt_forward`]).
    ///
    /// # Panics
    ///
    /// Panics if already in coefficient domain or if table count mismatches.
    pub fn ntt_inverse(&mut self, tables: &[NttTable]) {
        assert_eq!(self.domain, Domain::Ntt, "already in coefficient domain");
        assert_eq!(tables.len(), self.k, "table count mismatch");
        hefv_math::dispatch::kernels().ntt_inverse_batch(tables, &mut self.data);
        self.domain = Domain::Coefficient;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hefv_math::ntt::NttTable;
    use hefv_math::primes::ntt_primes;
    use hefv_math::zq::Modulus;

    fn basis() -> RnsBasis {
        let ps = ntt_primes(30, 16, 3).unwrap();
        RnsBasis::new(&ps).unwrap()
    }

    fn tables(b: &RnsBasis, n: usize) -> Vec<NttTable> {
        b.moduli()
            .iter()
            .map(|m| NttTable::new(Modulus::new(m.value()), n).unwrap())
            .collect()
    }

    #[test]
    fn zero_shape() {
        let p = RnsPoly::zero(3, 16);
        assert_eq!(p.k(), 3);
        assert_eq!(p.n(), 16);
        assert_eq!(p.domain(), Domain::Coefficient);
        assert_eq!(p.flat().len(), 48);
    }

    #[test]
    fn flat_layout_is_limb_major() {
        let b = basis();
        let coeffs = vec![-1i64, 0, 1, 5, -7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2];
        let p = RnsPoly::from_signed(&coeffs, &b);
        for (i, m) in b.moduli().iter().enumerate() {
            for (c, &v) in coeffs.iter().enumerate() {
                assert_eq!(p.row(i)[c], m.from_i64(v));
                assert_eq!(p.flat()[i * 16 + c], m.from_i64(v));
            }
        }
        assert_eq!(p.to_rows()[1], p.row(1));
        assert_eq!(RnsPoly::from_residues(p.to_rows(), Domain::Coefficient), p);
    }

    #[test]
    fn rows_mut_spans_a_contiguous_range() {
        let mut p = RnsPoly::zero(4, 8);
        p.rows_mut(1, 3).iter_mut().for_each(|x| *x = 7);
        assert!(p.row(0).iter().all(|&x| x == 0));
        assert!(p.row(1).iter().all(|&x| x == 7));
        assert!(p.row(2).iter().all(|&x| x == 7));
        assert!(p.row(3).iter().all(|&x| x == 0));
    }

    #[test]
    fn add_sub_inverse() {
        let b = basis();
        let a = RnsPoly::from_signed(&[1; 16], &b);
        let c = RnsPoly::from_signed(&[-3; 16], &b);
        let s = a.add(&c, &b);
        assert_eq!(s.sub(&c, &b), a);
        let z = a.add(&a.neg(&b), &b);
        assert_eq!(z, RnsPoly::zero(3, 16));
    }

    #[test]
    #[should_panic(expected = "domain mismatch")]
    fn add_rejects_domain_mix() {
        let b = basis();
        let t = tables(&b, 16);
        let a = RnsPoly::from_signed(&[1; 16], &b);
        let mut c = a.clone();
        c.ntt_forward(&t);
        let _ = a.add(&c, &b);
    }

    #[test]
    #[should_panic(expected = "needs NTT domain")]
    fn pointwise_rejects_coeff_domain() {
        let b = basis();
        let a = RnsPoly::from_signed(&[1; 16], &b);
        let _ = a.pointwise_mul(&a, &b);
    }

    #[test]
    fn ntt_mul_matches_schoolbook_sign() {
        // x^(n-1) * x = -1
        let b = basis();
        let t = tables(&b, 16);
        let mut xa = vec![0i64; 16];
        xa[15] = 1;
        let mut xb = vec![0i64; 16];
        xb[1] = 1;
        let mut a = RnsPoly::from_signed(&xa, &b);
        let mut bb = RnsPoly::from_signed(&xb, &b);
        a.ntt_forward(&t);
        bb.ntt_forward(&t);
        let mut prod = a.pointwise_mul(&bb, &b);
        prod.ntt_inverse(&t);
        let expect = RnsPoly::from_signed(
            &{
                let mut v = vec![0i64; 16];
                v[0] = -1;
                v
            },
            &b,
        );
        assert_eq!(prod, expect);
    }

    #[test]
    fn mul_acc_accumulates() {
        let b = basis();
        let t = tables(&b, 16);
        let mut a = RnsPoly::from_signed(&[2; 16], &b);
        let mut c = RnsPoly::from_signed(&[3; 16], &b);
        a.ntt_forward(&t);
        c.ntt_forward(&t);
        let mut acc = a.pointwise_mul(&c, &b);
        acc.pointwise_mul_acc(&a, &c, &b);
        let double = a.pointwise_mul(&c, &b).add(&a.pointwise_mul(&c, &b), &b);
        assert_eq!(acc, double);
    }

    #[test]
    fn pointwise_assign_matches_allocating_product() {
        let b = basis();
        let t = tables(&b, 16);
        let mut a = RnsPoly::from_signed(&[5, -2, 3, 1, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], &b);
        let mut c = RnsPoly::from_signed(&[2; 16], &b);
        a.ntt_forward(&t);
        c.ntt_forward(&t);
        let expect = a.pointwise_mul(&c, &b);
        let mut got = a.clone();
        got.pointwise_mul_assign(&c, &b);
        assert_eq!(got, expect);
    }

    #[test]
    fn scalar_mul_per_residue() {
        let b = basis();
        let a = RnsPoly::from_signed(&[1; 16], &b);
        let scalars: Vec<u64> = b.moduli().iter().map(|m| m.value() - 1).collect(); // -1
        let s = a.scalar_mul(&scalars, &b);
        assert_eq!(s, a.neg(&b));
    }
}
