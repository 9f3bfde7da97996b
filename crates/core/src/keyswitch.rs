//! The key-switching core: one key type and one sum-of-products routine
//! behind every key switch.
//!
//! Relinearization (`WordDecomp` + `ReLin`, step 4 of the paper's Fig. 2)
//! and a Galois rotation are the same operation. A polynomial `c` that
//! multiplies some `s'` at decryption (`s²` for the `c̃2` of a tensor
//! product, `σ_g(s)` for the `c1` of an automorphism) is split into
//! digits `D_i`, and the digits' inner product with a switching key for
//! `s'` yields an encryption of `c·s'` under `s`. Relinearization is the
//! switch of `c̃2` under the identity permutation (`g = 1`); a rotation
//! permutes the NTT-domain digits first.
//!
//! # Digits
//!
//! A key has `d` digits, `1 ≤ d ≤ k`. Digit `i` is a group `G_i` of
//! consecutive `q` primes ([`digit_rows`]: the `k` primes split as evenly
//! as possible) with product `Q_i`, and `h_i` is that group's CRT
//! idempotent (`h_i ≡ 1 mod q_j` for `j ∈ G_i`, `≡ 0` for every other
//! `j`), so `c ≡ Σ_i D_i·h_i (mod q)` for any `D_i ≡ c (mod Q_i)`. This is
//! the decomposition of hybrid key switching (Han–Ki) without a special
//! modulus.
//!
//! - **`d = k`**, one prime per digit: the paper's `WordDecomp`. `D_i` is
//!   the residue `c mod q_i ∈ [0, q_i)`, spread to every prime by a
//!   conditional subtraction. Relinearization keys always use it.
//! - **`d < k`**: `D_i` is the centered integer `|D_i| ≤ Q_i/2` with
//!   `D_i ≡ c (mod Q_i)`. Its residues on `G_i` are `c`'s own; on the
//!   other primes they come from an HPS basis extension
//!   (Halevi–Polyakov–Shoup) run on the `Kernels` seam
//!   ([`hefv_math::dispatch::Kernels::hps_extend_cols`]), the same blocks
//!   as `Mult`'s Lift. Every output column is the exact residue vector of
//!   one integer `≡ c (mod Q_i)`; the rounded quotient picks the centered
//!   one, or at a near-tie `|D_i| ≈ Q_i/2` its neighbour of the same
//!   magnitude, and either satisfies the identity above.
//!
//! Galois keys use the context's digit count
//! ([`FvContext::galois_digits`]): the fewest digits for which the
//! worst-case [`crate::noise::NoiseModel`] still closes a slot sum at the
//! declared depth. The key-switch noise grows with `d·Q_i`, so wider
//! digits cost budget, and only rotations buy it back: a decomposition is
//! `d·k` forward NTT rows, each SoP row sums `d` lines, and a key holds
//! `2·d·k·n` residues.
//!
//! # Layout
//!
//! This module alone knows the table layout. Digits and keys are stored
//! **digit-major** as `u32`: entry `(j·d + i)·n + u` holds digit `i`,
//! residue `j`, coefficient `u`, so each residue row is `d` contiguous
//! lines of `n`. A key for `σ_g` is stored **pre-permuted** by its own
//! NTT-domain permutation `π = π_g`, `K'_i[π(t)] = K_i[t]` (a
//! relinearization key, `g = 1`, is stored as is). Since
//!
//! `Σ_i D_i[π(t)]·K_i[t] = Σ_i D_i[u]·K'_i[u]` at `u = π(t)`,
//!
//! the SoP kernel ([`hefv_math::dispatch::Kernels::sop_narrow_row`])
//! streams digits and keys in storage order and adds each coefficient's
//! sum into the accumulator at `t = π⁻¹(u)`: one permuted store per
//! output, through the key's scatter table `π⁻¹ = π_{g⁻¹ mod 2n}` (the
//! software analogue of the paper's Memory-Rearrange address ROM, with
//! keys streamed in storage order as in §VI-A). The sums are exact
//! integers and the final reduction is canonical, so every output is
//! bit-identical to the gathering form. Keys travel on the wire in
//! natural order: the permutation is applied where a key is built
//! (generated, assembled or decoded) and undone where it is read back.
//! [`FvContext`] admits only primes in `[2^29, 2^31)`, so every residue
//! fits a `u32` lane, and the kernel's partial folds keep its `u64` sums
//! exact for any `d`.

use crate::context::FvContext;
use crate::error::Error;
use crate::galois::is_valid_exponent;
use crate::keys::SecretKey;
use crate::rnspoly::{Domain, RnsPoly};
use crate::sampler;
use crate::scratch::Arena;
use hefv_math::ntt::GaloisPermutation;
use hefv_math::rns::{Extender, HpsPrecision, RnsBasis};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// The `q` residue rows of digit `i` when `k` primes split into `d`
/// digits of consecutive primes, as evenly as possible.
///
/// # Panics
///
/// Panics unless `i < d ≤ k`.
pub(crate) fn digit_rows(k: usize, d: usize, i: usize) -> Range<usize> {
    assert!(i < d && d <= k, "digit {i} of {d} over {k} primes");
    i * k / d..(i + 1) * k / d
}

/// One digit of a grouped (`d < k`) decomposition: its rows, and the
/// extension from its primes to the other `q` primes (rows before the
/// group, then rows after it).
#[derive(Debug)]
pub(crate) struct DigitGroup {
    rows: Range<usize>,
    ext: Extender,
}

impl DigitGroup {
    /// The groups of a `d`-digit decomposition of `base_q`.
    pub(crate) fn split(base_q: &RnsBasis, d: usize) -> Vec<DigitGroup> {
        let k = base_q.len();
        let primes: Vec<u64> = base_q.moduli().iter().map(|m| m.value()).collect();
        (0..d)
            .map(|i| {
                let rows = digit_rows(k, d, i);
                let rest: Vec<u64> = primes[..rows.start]
                    .iter()
                    .chain(&primes[rows.end..])
                    .copied()
                    .collect();
                let from = RnsBasis::new(&primes[rows.clone()]).expect("subset of a valid basis");
                let to = RnsBasis::new(&rest).expect("subset of a valid basis");
                DigitGroup {
                    rows,
                    ext: Extender::new(&from, &to),
                }
            })
            .collect()
    }
}

/// Writes digit `i` of a `d`-digit decomposition of `c` (coefficient
/// domain) over every `q` prime into the flat `k·n` buffer `out`: the
/// spread residue for `d = k`, else the group's own residues plus their
/// basis extension to the other primes.
///
/// # Panics
///
/// Panics if `d` is neither `k` nor the context's Galois digit count.
pub(crate) fn digit_into(ctx: &FvContext, c: &RnsPoly, d: usize, i: usize, out: &mut [u64]) {
    let (k, n) = (c.k(), c.n());
    if d == k {
        ctx.spread_digit_into(c.row(i), out);
        return;
    }
    assert_eq!(d, ctx.galois_digits(), "no {d}-digit decomposition");
    let group = &ctx.digit_groups()[i];
    let rows = group.rows.clone();
    let (start, end) = (rows.start * n, rows.end * n);
    let src = &c.flat()[start..end];
    let rest = (k - rows.len()) * n;
    hefv_math::dispatch::kernels().hps_extend_cols(
        &group.ext,
        src,
        n,
        0..n,
        &mut out[..rest],
        HpsPrecision::Fixed,
    );
    // The extension wrote the rows after the group right behind the rows
    // before it: move them up past the group, then drop the group in.
    out.copy_within(start..rest, end);
    out[start..end].copy_from_slice(src);
}

/// A switching key from some `s'` to `s`: for each digit `i`, the pair
/// `(ksk0_i, ksk1_i) = (−(a_i·s + e_i) + h_i·s', a_i)` in NTT domain, where
/// `h_i` is the idempotent of the digit's prime group (see the module
/// docs). Stored only as the two digit-major `u32` tables the SoP reads,
/// pre-permuted by the key's automorphism, beside that automorphism's
/// scatter table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct KeySwitchKey {
    k: usize,
    d: usize,
    n: usize,
    /// `π_g⁻¹`: coefficient `u` of a stored line belongs to slot
    /// `scatter[u]` (shared through the context's permutation cache).
    scatter: Arc<GaloisPermutation>,
    /// `ksk0` and `ksk1`, each `k·d·n` entries in the module's layout.
    tables: [Vec<u32>; 2],
}

/// The order in which a key's `2d` digit polynomials travel on the wire.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WireOrder {
    /// `ksk0_i, ksk1_i` digit by digit (relinearization keys).
    Pairs,
    /// Every `ksk0_i`, then every `ksk1_i` (Galois keys).
    Halves,
}

impl WireOrder {
    /// `(half, digit)` of each polynomial on the wire, in order.
    fn polys(self, d: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..2 * d).map(move |x| match self {
            WireOrder::Pairs => (x % 2, x / 2),
            WireOrder::Halves => (x / d, x % d),
        })
    }
}

/// `g⁻¹ mod 2n` for a valid exponent `g`: `σ_{g⁻¹}` undoes `σ_g`, so its
/// NTT-domain permutation is `π_g⁻¹`.
fn inverse_exponent(g: usize, n: usize) -> usize {
    (1..2 * n)
        .step_by(2)
        .find(|&x| x * g % (2 * n) == 1)
        .expect("odd exponents are units mod 2n")
}

impl KeySwitchKey {
    /// An all-zero `d`-digit key for exponent `g` (already validated).
    fn zeroed(ctx: &FvContext, g: usize, d: usize) -> Self {
        let (k, n) = (ctx.params().k(), ctx.params().n);
        KeySwitchKey {
            k,
            d,
            n,
            scatter: ctx.automorphism_table(inverse_exponent(g, n)),
            tables: [vec![0; k * d * n], vec![0; k * d * n]],
        }
    }

    /// Generates a `d`-digit key switching `target` (`s'` in NTT domain)
    /// to `s`, to be applied after `σ_g` (`g = 1` for relinearization).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid exponent or `d` is outside `1..=k`.
    pub(crate) fn generate<R: Rng + ?Sized>(
        ctx: &FvContext,
        sk: &SecretKey,
        target: &RnsPoly,
        g: usize,
        d: usize,
        rng: &mut R,
    ) -> Self {
        let basis = ctx.base_q();
        let mut key = Self::zeroed(ctx, g, d);
        for i in 0..d {
            let mut a = sampler::uniform_poly(rng, basis, key.n);
            a.ntt_forward(ctx.ntt_q());
            let mut e = sampler::gaussian_poly(rng, basis, key.n, ctx.params().sigma);
            e.ntt_forward(ctx.ntt_q());
            let mut key0 = a.pointwise_mul(sk.s_ntt(), basis).add(&e, basis).neg(basis);
            // + h_i · s': the idempotent touches only the group's rows.
            for j in digit_rows(key.k, d, i) {
                let m = *basis.modulus(j);
                for (x, &y) in key0.row_mut(j).iter_mut().zip(target.row(j)) {
                    *x = m.add(*x, y);
                }
            }
            key.set_digit(0, i, &key0);
            key.set_digit(1, i, &a);
        }
        key
    }

    /// Builds the `d`-digit key for exponent `g` from its natural-order
    /// digit polynomials (`d = k` for relinearization, the context's
    /// [`FvContext::galois_digits`] for a Galois key).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wire`] when the digit vectors disagree with the
    /// shape (digit count `d`, residue count, ring degree, NTT domain),
    /// hold a residue outside `[0, q_j)`, or `g` is not a valid exponent.
    pub(crate) fn from_parts(
        ctx: &FvContext,
        g: usize,
        d: usize,
        ksk0: Vec<RnsPoly>,
        ksk1: Vec<RnsPoly>,
    ) -> Result<Self, Error> {
        let (k, n) = (ctx.params().k(), ctx.params().n);
        if ksk0.len() != d || ksk1.len() != d {
            return Err(Error::Wire(format!(
                "switching key has {}+{} digits, context wants {d}",
                ksk0.len(),
                ksk1.len()
            )));
        }
        if !is_valid_exponent(g, n) {
            return Err(Error::Wire(format!("invalid Galois exponent {g}")));
        }
        let mut key = Self::zeroed(ctx, g, d);
        for (half, polys) in [ksk0, ksk1].iter().enumerate() {
            for (i, p) in polys.iter().enumerate() {
                if p.k() != k || p.n() != n || p.domain() != Domain::Ntt {
                    return Err(Error::Wire(
                        "switching key digit has the wrong shape or domain".into(),
                    ));
                }
                for (j, row) in p.rows().enumerate() {
                    let q = ctx.base_q().modulus(j).value();
                    if row.iter().any(|&c| c >= q) {
                        return Err(Error::Wire(format!(
                            "switching key residue {j} has out-of-range coefficient"
                        )));
                    }
                }
                key.set_digit(half, i, p);
            }
        }
        Ok(key)
    }

    /// The table range of digit `i`, residue `j`.
    fn line(&self, i: usize, j: usize) -> Range<usize> {
        let at = (j * self.d + i) * self.n;
        at..at + self.n
    }

    /// Writes digit `i` of one half into its table, permuted:
    /// `K'[u] = K[π⁻¹(u)]`.
    fn set_digit(&mut self, half: usize, i: usize, p: &RnsPoly) {
        for j in 0..self.k {
            let line = self.line(i, j);
            let src = p.row(j);
            let dst = &mut self.tables[half][line];
            for (d, &t) in dst.iter_mut().zip(self.scatter.table()) {
                *d = src[t as usize] as u32;
            }
        }
    }

    /// `(k, n)`: residues per digit and ring degree.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Digit count `d`.
    pub(crate) fn digits(&self) -> usize {
        self.d
    }

    /// Digit `i` of `ksk0` (`half = 0`) or `ksk1` (`half = 1`) as an owned
    /// natural-order NTT-domain `u64` polynomial, for the wire encoder,
    /// oracles and tests.
    pub(crate) fn digit(&self, half: usize, i: usize) -> RnsPoly {
        let mut p = RnsPoly::zero_in(self.k, self.n, Domain::Ntt);
        for j in 0..self.k {
            let src = &self.tables[half][self.line(i, j)];
            let dst = p.row_mut(j);
            for (&v, &t) in src.iter().zip(self.scatter.table()) {
                dst[t as usize] = u64::from(v);
            }
        }
        p
    }

    /// Bytes of key material held (`2·k·d·n` residues of 4 bytes).
    pub(crate) fn bytes(&self) -> usize {
        (self.tables[0].len() + self.tables[1].len()) * 4
    }

    /// Appends the `2d` digit polynomials in wire format (see
    /// [`crate::wire`]), in `order`.
    pub(crate) fn encode(&self, order: WireOrder, out: &mut Vec<u8>) {
        for (half, i) in order.polys(self.d) {
            crate::wire::put_key_coeffs(
                out,
                Domain::Ntt,
                self.digit(half, i).flat().iter().copied(),
            );
        }
    }

    /// Reads `2d` digit polynomials in `order` through `read` and builds
    /// the `d`-digit key for exponent `g`.
    ///
    /// # Errors
    ///
    /// Whatever `read` returns, or a [`KeySwitchKey::from_parts`] error.
    pub(crate) fn decode(
        ctx: &FvContext,
        g: usize,
        d: usize,
        order: WireOrder,
        mut read: impl FnMut() -> Result<RnsPoly, Error>,
    ) -> Result<Self, Error> {
        let mut halves = [Vec::with_capacity(d), Vec::with_capacity(d)];
        for (half, _) in order.polys(d) {
            halves[half].push(read()?);
        }
        let [ksk0, ksk1] = halves;
        Self::from_parts(ctx, g, d, ksk0, ksk1)
    }
}

/// The σ-independent half of a key switch: the NTT-domain `d`-digit
/// decomposition of one polynomial, in the module's digit-major layout,
/// held in an arena buffer.
#[derive(Debug)]
pub(crate) struct Digits {
    lines: Vec<u32>,
    d: usize,
}

impl Digits {
    /// Decomposes `c` (coefficient domain) into `d` digits, drawing every
    /// buffer from `arena`: each digit is written across the residues
    /// ([`digit_into`]) and forward-transformed in a `k × n` scratch, then
    /// narrowed into its `k` lines of the table (one contiguous copy per
    /// row). That is `d·k` forward NTT rows.
    pub(crate) fn new_in(ctx: &FvContext, c: &RnsPoly, d: usize, arena: &Arena) -> Self {
        let (k, n) = (c.k(), c.n());
        assert_eq!(c.domain(), Domain::Coefficient, "decomposition domain");
        let mut lines = arena.take32(d * k * n);
        let mut scratch = arena.take_poly(k, n, Domain::Coefficient);
        for i in 0..d {
            digit_into(ctx, c, d, i, scratch.flat_mut());
            for (j, row) in scratch.flat_mut().chunks_mut(n).enumerate() {
                ctx.ntt_q()[j].forward(row);
                let at = (j * d + i) * n;
                for (x, &v) in lines[at..at + n].iter_mut().zip(row.iter()) {
                    *x = v as u32;
                }
            }
        }
        arena.recycle(scratch);
        Digits { lines, d }
    }

    /// Returns the digit buffer to `arena`.
    pub(crate) fn recycle(self, arena: &Arena) {
        arena.put32(self.lines);
    }

    /// Accumulates one switch's inner product into the NTT-domain
    /// accumulators, with the automorphism `π` of `key` applied:
    ///
    /// `acc_b[j][t] += Σ_i D_i[j][π(t)] · ksk_b[i][j][t]  (mod q_j)`
    ///
    /// computed in storage order as `Σ_i D_i[j][u] · K'_b[i][j][u]`,
    /// added at `t = π⁻¹(u)`. When `c0_ntt` is given, `c0[j][π(t)]` is
    /// seeded into the same sum, so a rotation's whole `acc0`
    /// contribution costs one extra contiguous read.
    ///
    /// # Panics
    ///
    /// Panics if the key's shape (digit count included) differs from the
    /// digits'.
    pub(crate) fn sop_acc(
        &self,
        ctx: &FvContext,
        key: &KeySwitchKey,
        c0_ntt: Option<&RnsPoly>,
        acc0: &mut RnsPoly,
        acc1: &mut RnsPoly,
    ) {
        let (k, d, n) = (key.k, key.d, key.n);
        assert_eq!(self.d, d, "digit count mismatch");
        assert_eq!(self.lines.len(), k * d * n, "key shape mismatch");
        let kernels = hefv_math::dispatch::kernels();
        for j in 0..k {
            let lines = j * d * n..(j + 1) * d * n;
            kernels.sop_narrow_row(
                ctx.base_q().modulus(j),
                key.scatter.table(),
                &self.lines[lines.clone()],
                &key.tables[0][lines.clone()],
                &key.tables[1][lines],
                c0_ntt.map(|c0| c0.row(j)),
                acc0.row_mut(j),
                acc1.row_mut(j),
            );
        }
    }

    /// One complete switch off these digits: both halves of
    /// `Σ_i π(D_i)·ksk_i`, returned in the coefficient domain in buffers
    /// drawn from `arena`.
    pub(crate) fn switch_in(
        &self,
        ctx: &FvContext,
        key: &KeySwitchKey,
        arena: &Arena,
    ) -> (RnsPoly, RnsPoly) {
        let (k, n) = (key.k, key.n);
        let mut acc0 = arena.take_poly_zeroed(k, n, Domain::Ntt);
        let mut acc1 = arena.take_poly_zeroed(k, n, Domain::Ntt);
        self.sop_acc(ctx, key, None, &mut acc0, &mut acc1);
        acc0.ntt_inverse(ctx.ntt_q());
        acc1.ntt_inverse(ctx.ntt_q());
        (acc0, acc1)
    }
}
