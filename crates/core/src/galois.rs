//! Galois automorphisms, key switching, and **hoisted** rotations.
//!
//! The map `σ_g : a(x) ↦ a(x^g)` (odd `g`, modulo `x^n + 1`) permutes the
//! SIMD slots of a batched plaintext. Applying it to a ciphertext yields an
//! encryption under the permuted secret `σ_g(s)`; a [`GaloisKey`] switches
//! it back to `s`. That key switch is the same operation as
//! relinearization (§II-B's `WordDecomp` + `SoP`) and runs through the same
//! crate-private key-switching core: one key type, stored once as the
//! 32-bit digit-major tables the SoP reads (pre-permuted by the key's own
//! automorphism), and one SoP kernel
//! ([`hefv_math::dispatch::Kernels::sop_narrow_row`]) for every basis
//! [`FvContext`] accepts.
//!
//! # Digits
//!
//! A Galois key has [`FvContext::galois_digits`] digits `d`, each a group
//! of consecutive `q` primes ([`FvContext::digit_rows`]) with its CRT
//! idempotent `h_i`; the crate-private key-switching module documents the
//! decomposition and the `(j·d + i)·n + u` table layout. The context picks
//! `d` once, with the worst-case [`crate::noise::NoiseModel`]: the fewest
//! digits for which a full slot sum still closes after a chain of
//! `min(4, supported_depth)` squarings (§III-A's depth,
//! [`crate::noise::DECLARED_DEPTH`]). On [`crate::params::FvParams::hpca19_batching`]
//! that is `d = 2`, three primes per digit, against the `k = 6` digits
//! relinearization keeps: a third of the NTT rows, SoP lines and key
//! bytes. The cost is key-switch noise, `d·n·(Q_i/2)·B` instead of
//! `k·n·q_i·B`, which at `t = 65537` leaves room for one `Mul` after a
//! rotation of a fresh ciphertext instead of three.
//!
//! # The hoisted key-switch datapath
//!
//! A rotation has two very different halves. The expensive half — the
//! `d`-digit decomposition of `c1` and the forward NTTs of each digit
//! (`d·k` row transforms in total) — does **not depend on the rotation
//! amount**. Only the cheap half does: an automorphism permutation and the
//! summation-of-products against that exponent's switching key. This module
//! therefore decomposes *first* and permutes *second* (Halevi–Shoup
//! hoisting, as in HElib):
//!
//! 1. [`HoistedCiphertext::new`] computes the NTT-domain digits `D_i` of
//!    `c1` **once** — the σ-independent part.
//! 2. Each rotation applies `σ_g` to the NTT-domain digits as a pure index
//!    permutation ([`hefv_math::ntt::GaloisPermutation`]; the evaluation
//!    points absorb every sign flip) fused into the key inner product —
//!    the key is stored permuted, so the product streams in storage order
//!    and only its output is scattered — then runs two inverse NTTs.
//!
//! Correctness rests on two invariants:
//!
//! * **Permutation invariant.** `NTT(σ_g(a))[t] = NTT(a)[π_g(t)]` with
//!   `π_g(t) = brev((g·(2·brev(t)+1) mod 2n − 1)/2)` — the same table for
//!   every prime, because each residue row uses the same index↦exponent
//!   map.
//! * **Digit-order invariant.** `Σ_i σ_g(D_i(c1))·h_i = σ_g(c1)` because
//!   the gadget constants `h_i` are scalars (σ-invariant) and `σ_g` is a
//!   ring homomorphism — so decompose-then-permute is a valid key-switch
//!   decomposition of `σ_g(c1)`, and one decomposition serves *every*
//!   rotation of the same ciphertext.
//!
//! [`apply_galois`] is exactly a hoist of one rotation, so a property-test
//! suite pins [`HoistedCiphertext::rotate`] **bit-identical** to it across
//! random `(q, n, g)`. The pre-hoisting permute-first implementation is
//! kept as [`apply_galois_reference`] / [`sum_slots_reference`] — the
//! oracle for semantic tests and the "per-rotation path" baseline the
//! rotation benchmarks measure against (`benches/rotate.rs`).
//!
//! [`sum_slots`] folds a ciphertext over the whole Galois group. The
//! classic rotate-and-add doubling trick rotates an *evolving* accumulator,
//! which hoisting cannot help — so the key set groups
//! [`HOIST_GROUP_ROUNDS`] doubling rounds and applies the identity
//! `Π_{r∈G}(1 + σ_r) = Σ_{S⊆G} σ_{Π S}`: one decomposition of the
//! accumulator serves the `2^|G|−1` rotations of a group, with all their
//! SoPs accumulated in the NTT domain and a single pair of inverse NTTs per
//! group. [`GaloisKeySet::for_slot_sum`] generates the subset-product keys
//! this needs.

use crate::context::FvContext;
use crate::encrypt::Ciphertext;
use crate::keys::SecretKey;
use crate::keyswitch::{digit_into, Digits, KeySwitchKey};
use crate::rnspoly::{Domain, RnsPoly};
use crate::scratch::Arena;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Doubling rounds of a full slot sum at ring degree `n`: `log2(n/2)`
/// powers of the generator 3, then the conjugation.
pub fn slot_sum_rounds(n: usize) -> usize {
    (n / 2).trailing_zeros() as usize + 1
}

/// Checks that `g` is a valid automorphism exponent (odd, in `[1, 2n)`).
pub fn is_valid_exponent(g: usize, n: usize) -> bool {
    g % 2 == 1 && g < 2 * n
}

/// Applies `σ_g` to a coefficient-domain RNS polynomial: coefficient `i`
/// moves to position `i·g mod 2n`, negated when the product wraps past
/// `n` (since `x^n = -1`).
///
/// # Panics
///
/// Panics if the polynomial is in NTT domain or `g` is invalid.
pub fn apply_automorphism(ctx: &FvContext, poly: &RnsPoly, g: usize) -> RnsPoly {
    assert_eq!(poly.domain(), Domain::Coefficient, "automorphism domain");
    let n = poly.n();
    assert!(is_valid_exponent(g, n), "invalid Galois exponent {g}");
    let basis = ctx.base_q();
    let mut out = RnsPoly::zero(poly.k(), n);
    for r in 0..poly.k() {
        let m = *basis.modulus(r);
        let src = poly.row(r);
        let dst = out.row_mut(r);
        for (i, &c) in src.iter().enumerate() {
            let pos = (i * g) % (2 * n);
            if pos < n {
                dst[pos] = c;
            } else {
                dst[pos - n] = m.neg(c);
            }
        }
    }
    out
}

/// Applies `σ_g` to an **NTT-domain** polynomial: a pure index permutation
/// per residue row, no negations (see the module docs' permutation
/// invariant). Uses the context's cached
/// [`GaloisPermutation`](hefv_math::ntt::GaloisPermutation) table.
///
/// # Panics
///
/// Panics if the polynomial is in coefficient domain or `g` is invalid.
pub fn apply_automorphism_ntt(ctx: &FvContext, poly: &RnsPoly, g: usize) -> RnsPoly {
    assert_eq!(poly.domain(), Domain::Ntt, "NTT-domain automorphism");
    assert!(
        is_valid_exponent(g, poly.n()),
        "invalid Galois exponent {g}"
    );
    let perm = ctx.automorphism_table(g);
    let mut out = RnsPoly::zero_in(poly.k(), poly.n(), Domain::Ntt);
    for r in 0..poly.k() {
        perm.apply(poly.row(r), out.row_mut(r));
    }
    out
}

/// Accumulates `σ_g(src)` onto `acc`, both coefficient-domain:
/// `acc[σ_g(i)] ± = src[i]`. Saves materializing the permuted polynomial on
/// the hoisted `c0` path; the target position advances incrementally (one
/// conditional subtraction per coefficient, no division).
fn add_automorphism_assign(ctx: &FvContext, acc: &mut RnsPoly, src: &RnsPoly, g: usize) {
    assert_eq!(src.domain(), Domain::Coefficient, "automorphism domain");
    assert_eq!(acc.domain(), Domain::Coefficient, "accumulator domain");
    let n = src.n();
    assert!(is_valid_exponent(g, n), "invalid Galois exponent {g}");
    let two_n = 2 * n;
    let basis = ctx.base_q();
    for r in 0..src.k() {
        let m = *basis.modulus(r);
        let dst = acc.row_mut(r);
        let mut pos = 0usize;
        for &c in src.row(r) {
            if pos < n {
                dst[pos] = m.add(dst[pos], c);
            } else {
                dst[pos - n] = m.sub(dst[pos - n], c);
            }
            pos += g;
            if pos >= two_n {
                pos -= two_n;
            }
        }
    }
}

/// A key-switching key for one Galois exponent: digit-wise encryptions of
/// `h_i · σ_g(s)` under `s` over [`FvContext::galois_digits`] digits, in
/// NTT domain, stored once in the 32-bit digit-major tables the hoisted
/// SoP reads, pre-permuted by `σ_g`'s NTT-domain permutation.
/// [`GaloisKey::ksk0`]/[`GaloisKey::ksk1`] and the wire codec see natural
/// order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaloisKey {
    /// The automorphism exponent.
    pub g: usize,
    pub(crate) key: KeySwitchKey,
}

impl GaloisKey {
    /// Generates the switching key for exponent `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid odd exponent.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &FvContext,
        sk: &SecretKey,
        g: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            is_valid_exponent(g, ctx.params().n),
            "invalid Galois exponent {g}"
        );
        // σ_g(s) in NTT domain.
        let mut s_coeff = sk.s_ntt().clone();
        s_coeff.ntt_inverse(ctx.ntt_q());
        let mut s_g = apply_automorphism(ctx, &s_coeff, g);
        s_g.ntt_forward(ctx.ntt_q());
        GaloisKey {
            g,
            key: KeySwitchKey::generate(ctx, sk, &s_g, g, ctx.galois_digits(), rng),
        }
    }

    /// Reassembles a key from its [`FvContext::galois_digits`] digit
    /// polynomials.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Wire`] when the exponent is invalid or the
    /// digit vectors disagree with the context's shape (digit count,
    /// residue count, ring degree, NTT domain, residue range).
    pub fn from_parts(
        ctx: &FvContext,
        g: usize,
        ksk0: Vec<RnsPoly>,
        ksk1: Vec<RnsPoly>,
    ) -> Result<Self, crate::Error> {
        let key = KeySwitchKey::from_parts(ctx, g, ctx.galois_digits(), ksk0, ksk1)?;
        Ok(GaloisKey { g, key })
    }

    /// Number of digits.
    pub fn digits(&self) -> usize {
        self.key.digits()
    }

    /// `ksk0_i` in NTT domain, as an owned `u64` copy of the stored
    /// 32-bit table.
    pub fn ksk0(&self, i: usize) -> RnsPoly {
        self.key.digit(0, i)
    }

    /// `ksk1_i` in NTT domain, as an owned `u64` copy.
    pub fn ksk1(&self, i: usize) -> RnsPoly {
        self.key.digit(1, i)
    }
}

/// One ciphertext's σ-independent key-switch precomputation: the
/// NTT-domain digit decomposition of `c1`, computed once and shared by any
/// number of rotations (the Halevi–Shoup hoisting of the module docs).
///
/// The digits live in one 32-bit arena buffer, in the digit-major layout
/// the key tables share, so a rotation streams `d` contiguous lines per
/// residue. Together with copies of `c0` and `c1` that is
/// three arena-recyclable buffers, and construction allocates nothing
/// when served from a warm [`Arena`].
#[derive(Debug)]
pub struct HoistedCiphertext {
    /// `c0`, coefficient domain.
    c0: RnsPoly,
    /// `c1`, coefficient domain (needed by the slot-sum group fold).
    c1: RnsPoly,
    /// The NTT-domain digits of `c1`.
    digits: Digits,
}

impl HoistedCiphertext {
    /// Hoists the decomposition of `ct` (allocating fresh buffers).
    pub fn new(ctx: &FvContext, ct: &Ciphertext) -> Self {
        Self::new_in(ctx, ct, &Arena::new())
    }

    /// Hoists the [`FvContext::galois_digits`]-digit decomposition of
    /// `ct`, drawing every buffer from `arena`.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not coefficient-domain or its shape
    /// mismatches the context.
    pub fn new_in(ctx: &FvContext, ct: &Ciphertext, arena: &Arena) -> Self {
        let k = ctx.params().k();
        let n = ctx.params().n;
        assert_eq!(ct.c1().k(), k, "ciphertext shape mismatch");
        assert_eq!(ct.c1().n(), n, "ciphertext shape mismatch");
        assert_eq!(ct.c1().domain(), Domain::Coefficient, "hoist domain");
        let mut c0 = arena.take_poly(k, n, Domain::Coefficient);
        c0.copy_from(ct.c0());
        let mut c1 = arena.take_poly(k, n, Domain::Coefficient);
        c1.copy_from(ct.c1());
        let digits = Digits::new_in(ctx, &c1, ctx.galois_digits(), arena);
        HoistedCiphertext { c0, c1, digits }
    }

    /// Recycles the hoisted buffers into an arena.
    pub fn recycle(self, arena: &Arena) {
        arena.recycle(self.c0);
        arena.recycle(self.c1);
        self.digits.recycle(arena);
    }

    /// One hoisted rotation: permutation + key inner product + two inverse
    /// NTTs. Bit-identical to [`apply_galois`] on the source ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the key's digit count mismatches the context.
    pub fn rotate(&self, ctx: &FvContext, key: &GaloisKey) -> Ciphertext {
        self.rotate_in(ctx, key, &Arena::new())
    }

    /// [`HoistedCiphertext::rotate`] drawing its output buffers from
    /// `arena` (zero allocation once the arena is warm).
    ///
    /// # Panics
    ///
    /// Panics if the key's digit count mismatches the context.
    pub fn rotate_in(&self, ctx: &FvContext, key: &GaloisKey, arena: &Arena) -> Ciphertext {
        let (mut c0, c1) = self.digits.switch_in(ctx, &key.key, arena);
        // c0' = σ_g(c0) + SoP0, accumulated without materializing σ_g(c0).
        add_automorphism_assign(ctx, &mut c0, &self.c0, key.g);
        Ciphertext { c0, c1 }
    }

    /// The slot-sum group fold: returns `ct + Σ_r σ_r(ct)` (key-switched)
    /// over the given rotation keys, with every rotation's SoP accumulated
    /// in the NTT domain — one decomposition, `|keys|` cheap rotations,
    /// one pair of inverse NTTs.
    ///
    /// # Panics
    ///
    /// Panics if any key's digit count mismatches the context.
    pub fn sum_self_plus_rotations_in<'k>(
        &self,
        ctx: &FvContext,
        keys: impl IntoIterator<Item = &'k GaloisKey>,
        arena: &Arena,
    ) -> Ciphertext {
        let (k, n) = (self.c0.k(), self.c0.n());
        let basis = ctx.base_q();
        let mut acc0 = arena.take_poly_zeroed(k, n, Domain::Ntt);
        let mut acc1 = arena.take_poly_zeroed(k, n, Domain::Ntt);
        // Σ_r σ_r(c0), accumulated in the coefficient domain. A `g = 1`
        // key (possible only with degenerate key sets) goes through the
        // same path: it is an identity key switch, which is still a valid
        // re-encryption.
        let mut c0_rot = arena.take_poly_zeroed(k, n, Domain::Coefficient);
        for key in keys {
            self.digits
                .sop_acc(ctx, &key.key, None, &mut acc0, &mut acc1);
            add_automorphism_assign(ctx, &mut c0_rot, &self.c0, key.g);
        }
        acc0.ntt_inverse(ctx.ntt_q());
        acc1.ntt_inverse(ctx.ntt_q());
        acc0.add_assign(&c0_rot, basis);
        acc0.add_assign(&self.c0, basis);
        acc1.add_assign(&self.c1, basis);
        arena.recycle(c0_rot);
        Ciphertext { c0: acc0, c1: acc1 }
    }
}

/// Applies `σ_g` to a ciphertext and switches back to the original key:
/// `ct' = (σc0 + SoP(σ(D(c1)), ksk0), SoP(σ(D(c1)), ksk1))`.
///
/// This *is* a hoist of exactly one rotation (decompose, then permute in
/// the NTT domain — see the module docs' digit-order invariant), so its
/// output is bit-identical to [`HoistedCiphertext::rotate`] on the same
/// ciphertext. Callers rotating one ciphertext several times should hoist
/// explicitly and amortize the decomposition.
///
/// # Panics
///
/// Panics if the key's digit count mismatches the context.
pub fn apply_galois(ctx: &FvContext, ct: &Ciphertext, key: &GaloisKey) -> Ciphertext {
    apply_galois_in(ctx, ct, key, &Arena::new())
}

/// [`apply_galois`] drawing every intermediate from `arena`.
///
/// # Panics
///
/// Panics if the key's digit count mismatches the context.
pub fn apply_galois_in(
    ctx: &FvContext,
    ct: &Ciphertext,
    key: &GaloisKey,
    arena: &Arena,
) -> Ciphertext {
    let hoisted = HoistedCiphertext::new_in(ctx, ct, arena);
    let out = hoisted.rotate_in(ctx, key, arena);
    hoisted.recycle(arena);
    out
}

/// All hoisted rotations of one ciphertext: a single decomposition serves
/// every key (returned in key order).
pub fn rotate_many(ctx: &FvContext, ct: &Ciphertext, keys: &[&GaloisKey]) -> Vec<Ciphertext> {
    rotate_many_in(ctx, ct, keys, &Arena::new())
}

/// [`rotate_many`] with every buffer — the hoisted digits and the output
/// ciphertexts — drawn from `arena`: with a warm arena (and outputs
/// recycled back once consumed) the whole batch allocates nothing.
pub fn rotate_many_in(
    ctx: &FvContext,
    ct: &Ciphertext,
    keys: &[&GaloisKey],
    arena: &Arena,
) -> Vec<Ciphertext> {
    let hoisted = HoistedCiphertext::new_in(ctx, ct, arena);
    let out = keys
        .iter()
        .map(|key| hoisted.rotate_in(ctx, key, arena))
        .collect();
    hoisted.recycle(arena);
    out
}

/// The **pre-hoisting** rotation path: permutes the ciphertext in the
/// coefficient domain first, then decomposes and transforms the permuted
/// `c1` — re-running the decomposition and its `d·k` forward NTTs on
/// every call, and multiplying against the natural-order key digits.
/// Kept in-tree as the semantic oracle and the "per-rotation" baseline
/// `benches/rotate.rs` measures hoisting against (the same role
/// `forward_strict` plays for the lazy NTT).
pub fn apply_galois_reference(ctx: &FvContext, ct: &Ciphertext, key: &GaloisKey) -> Ciphertext {
    let basis = ctx.base_q();
    let (k, n) = (ctx.params().k(), ctx.params().n);

    let c0g = apply_automorphism(ctx, ct.c0(), key.g);
    let c1g = apply_automorphism(ctx, ct.c1(), key.g);

    let mut acc0 = RnsPoly::zero_in(k, n, Domain::Ntt);
    let mut acc1 = RnsPoly::zero_in(k, n, Domain::Ntt);
    for i in 0..key.digits() {
        let mut digit = RnsPoly::zero(k, n);
        digit_into(ctx, &c1g, key.digits(), i, digit.flat_mut());
        digit.ntt_forward(ctx.ntt_q());
        acc0.pointwise_mul_acc(&digit, &key.ksk0(i), basis);
        acc1.pointwise_mul_acc(&digit, &key.ksk1(i), basis);
    }
    acc0.ntt_inverse(ctx.ntt_q());
    acc1.ntt_inverse(ctx.ntt_q());
    Ciphertext {
        c0: c0g.add(&acc0, basis),
        c1: acc1,
    }
}

/// How many doubling rounds one hoist group covers in
/// [`GaloisKeySet::for_slot_sum`]: a group of `J` rounds folds with
/// `2^J − 1` hoisted rotations off one decomposition (subset-product
/// identity), so `J` trades the amortized `d·k` forward NTTs of a
/// decomposition against the exponential growth in per-group SoPs and
/// switching keys. With two-digit Galois keys on the paper's batching set,
/// a warm slot sum measured 8.0–8.8 ms at `J = 2` (18 keys, 6.75 MiB)
/// against 8.7–9.5 ms at `J = 3` (28 keys, 10.5 MiB), in alternating
/// rounds on a 2-vCPU AVX2 host.
pub const HOIST_GROUP_ROUNDS: usize = 2;

/// The key set needed to fold a ciphertext over the whole Galois group:
/// the doubling-chain exponents `3^(2^i) mod 2n` plus the conjugation
/// `2n − 1`, **and** the subset-product keys that let [`sum_slots`] hoist
/// [`HOIST_GROUP_ROUNDS`] rounds at a time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaloisKeySet {
    keys: Vec<GaloisKey>,
    /// Key indices of the doubling-chain rounds, in application order
    /// (what [`sum_slots_reference`] walks).
    chain: Vec<usize>,
    /// Hoist groups: each entry lists the key indices of every non-empty
    /// subset product of up to [`HOIST_GROUP_ROUNDS`] consecutive rounds.
    groups: Vec<Vec<usize>>,
}

impl GaloisKeySet {
    /// Generates the slot-sum key set: one key per doubling round plus the
    /// subset-product keys of each hoist group (deduplicated by exponent).
    pub fn for_slot_sum<R: Rng + ?Sized>(ctx: &FvContext, sk: &SecretKey, rng: &mut R) -> Self {
        let n = ctx.params().n;
        let two_n = 2 * n;
        // The doubling-round exponents: 3^(2^i), then the conjugation.
        let mut rounds = Vec::new();
        let mut g = 3usize % two_n;
        for _ in 1..slot_sum_rounds(n) {
            rounds.push(g);
            g = (g * g) % two_n;
        }
        rounds.push(two_n - 1);

        let mut keys: Vec<GaloisKey> = Vec::new();
        let mut index_of = std::collections::HashMap::new();
        let mut key_for = |e: usize, rng: &mut R, keys: &mut Vec<GaloisKey>| -> usize {
            *index_of.entry(e).or_insert_with(|| {
                keys.push(GaloisKey::generate(ctx, sk, e, rng));
                keys.len() - 1
            })
        };
        let mut chain = Vec::with_capacity(rounds.len());
        let mut groups = Vec::new();
        for group_rounds in rounds.chunks(HOIST_GROUP_ROUNDS) {
            for &e in group_rounds {
                chain.push(key_for(e, rng, &mut keys));
            }
            // Every non-empty subset product of this group's rounds.
            let mut group = Vec::with_capacity((1 << group_rounds.len()) - 1);
            for mask in 1u32..(1 << group_rounds.len()) {
                let mut prod = 1usize;
                for (b, &e) in group_rounds.iter().enumerate() {
                    if mask & (1 << b) != 0 {
                        prod = (prod * e) % two_n;
                    }
                }
                group.push(key_for(prod, rng, &mut keys));
            }
            groups.push(group);
        }
        GaloisKeySet {
            keys,
            chain,
            groups,
        }
    }

    /// Reassembles a key set from its parts (e.g. after a wire decode).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Wire`] when the set is empty or a chain or
    /// group entry indexes past the key vector — the structural invariants
    /// the fold algorithms rely on (exponent validity and the digit count
    /// are checked per key by [`GaloisKey::from_parts`]).
    pub fn from_parts(
        keys: Vec<GaloisKey>,
        chain: Vec<usize>,
        groups: Vec<Vec<usize>>,
    ) -> Result<Self, crate::Error> {
        if keys.is_empty() {
            return Err(crate::Error::Wire("galois key set has no keys".into()));
        }
        let bound = keys.len();
        if chain
            .iter()
            .chain(groups.iter().flatten())
            .any(|&i| i >= bound)
        {
            return Err(crate::Error::Wire(format!(
                "galois key set indexes past its {bound} keys"
            )));
        }
        Ok(GaloisKeySet {
            keys,
            chain,
            groups,
        })
    }

    /// The contained keys (chain and subset-product keys alike).
    pub fn keys(&self) -> &[GaloisKey] {
        &self.keys
    }

    /// Digits of every key in the set.
    pub fn digits(&self) -> usize {
        self.keys[0].digits()
    }

    /// Number of doubling rounds a slot sum performs (`log2(n)`).
    pub fn rounds(&self) -> usize {
        self.chain.len()
    }

    /// Key indices of the doubling-chain rounds, in order.
    pub fn chain(&self) -> &[usize] {
        &self.chain
    }

    /// The hoist groups (key indices of each group's subset products).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Looks up the key for an exponent, if present.
    pub fn key_for(&self, g: usize) -> Option<&GaloisKey> {
        self.keys.iter().find(|k| k.g == g)
    }
}

/// Sums all SIMD slots: afterwards every slot holds `Σ_j slot_j`.
///
/// Runs the hoisted group fold described in the module docs: per hoist
/// group, one digit decomposition of the accumulator serves every subset
/// rotation, and `acc ← Σ_{S⊆G} σ_{Π S}(acc)` advances
/// [`HOIST_GROUP_ROUNDS`] doubling rounds at once.
pub fn sum_slots(ctx: &FvContext, ct: &Ciphertext, keys: &GaloisKeySet) -> Ciphertext {
    sum_slots_in(ctx, ct, keys, &Arena::new())
}

/// [`sum_slots`] drawing every intermediate from `arena`.
///
/// The fold keeps `c0` in the **NTT domain for its entire lifetime**: a
/// rotation's `c0` contribution is then one contiguous seed read inside
/// the SoP pass (no separate automorphism pass, no per-group inverse
/// transform for `c0`), and only `c1` — which each group must
/// re-decompose — round-trips through the coefficient domain. One digit
/// buffer is reused across all groups.
pub fn sum_slots_in(
    ctx: &FvContext,
    ct: &Ciphertext,
    keys: &GaloisKeySet,
    arena: &Arena,
) -> Ciphertext {
    if keys.groups().is_empty() {
        return ct.clone();
    }
    let basis = ctx.base_q();
    let k = ctx.params().k();
    let n = ctx.params().n;
    assert_eq!(ct.c0().k(), k, "ciphertext shape mismatch");
    let tables = ctx.ntt_q();

    // The evolving accumulator: c0 held in NTT domain, c1 in coefficient
    // domain (the decomposition needs coefficients).
    let mut c0_ntt = arena.take_poly(k, n, Domain::Coefficient);
    c0_ntt.copy_from(ct.c0());
    c0_ntt.ntt_forward(tables);
    let mut c1 = arena.take_poly(k, n, Domain::Coefficient);
    c1.copy_from(ct.c1());

    let mut acc0 = arena.take_poly_zeroed(k, n, Domain::Ntt);
    for group in keys.groups() {
        // Decompose the current c1 (the group's hoisted precomputation).
        let digits = Digits::new_in(ctx, &c1, keys.digits(), arena);
        acc0.flat_mut().fill(0);
        let mut acc1 = arena.take_poly_zeroed(k, n, Domain::Ntt);
        for &ki in group {
            let key = &keys.keys[ki];
            digits.sop_acc(ctx, &key.key, Some(&c0_ntt), &mut acc0, &mut acc1);
        }
        // C0 ← C0 + Σ_r (π_r(C0) + SoP0_r): still NTT-domain, no inverse.
        c0_ntt.add_assign(&acc0, basis);
        // c1 ← c1 + InvNTT(Σ_r SoP1_r): the only transform this group pays
        // beyond the decomposition.
        acc1.ntt_inverse(tables);
        c1.add_assign(&acc1, basis);
        arena.recycle(acc1);
        digits.recycle(arena);
    }
    arena.recycle(acc0);
    c0_ntt.ntt_inverse(tables);
    Ciphertext { c0: c0_ntt, c1 }
}

/// The **pre-hoisting** slot sum: `log2(n)` rotate-and-add doubling rounds,
/// each through [`apply_galois_reference`] — re-decomposing and
/// re-transforming on every rotation. The baseline `benches/rotate.rs`
/// measures [`sum_slots`] against.
pub fn sum_slots_reference(ctx: &FvContext, ct: &Ciphertext, keys: &GaloisKeySet) -> Ciphertext {
    let mut acc = ct.clone();
    for &idx in keys.chain() {
        let rotated = apply_galois_reference(ctx, &acc, &keys.keys[idx]);
        acc = crate::eval::add(ctx, &acc, &rotated);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{BatchEncoder, Plaintext};
    use crate::encrypt::{decrypt, encrypt};
    use crate::keys::keygen;
    use crate::params::FvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batching_ctx() -> (FvContext, BatchEncoder) {
        let mut p = FvParams::insecure_medium();
        p.t = 7681;
        let ctx = FvContext::new(p).unwrap();
        let enc = BatchEncoder::new(7681, 256).unwrap();
        (ctx, enc)
    }

    #[test]
    fn automorphism_is_ring_homomorphism_on_plaintexts() {
        // σ_g(x^i) has the right sign structure: x -> x^g.
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let n = ctx.params().n;
        let mut coeffs = vec![0i64; n];
        coeffs[1] = 1; // the polynomial x
        let p = RnsPoly::from_signed(&coeffs, ctx.base_q());
        let g = 3;
        let out = apply_automorphism(&ctx, &p, g);
        // x^3 has coefficient 1 at position 3
        assert_eq!(out.row(0)[3], 1);
        assert!(out.row(0).iter().filter(|&&c| c != 0).count() == 1);
    }

    #[test]
    fn automorphism_wraps_with_negation() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let n = ctx.params().n;
        let mut coeffs = vec![0i64; n];
        coeffs[1] = 1; // the polynomial x
        let p = RnsPoly::from_signed(&coeffs, ctx.base_q());
        // g = 2n−1: x^(2n−1) = x^(2n)·x^(−1) = x^(n−1)·x^n·x^(−n)… directly:
        // 2n−1 ≥ n, so the image lands at position n−1 with a sign flip
        // (x^(2n−1) = −x^(n−1) since x^n = −1).
        let out = apply_automorphism(&ctx, &p, 2 * n - 1);
        let m = ctx.base_q().modulus(0);
        assert_eq!(out.row(0)[n - 1], m.neg(1));
        // And x^(3n−3) = x^(n−3) with *no* flip (x^(2n) = 1): check via g=3
        // on x^(n−1).
        let mut c2 = vec![0i64; n];
        c2[n - 1] = 1;
        let p2 = RnsPoly::from_signed(&c2, ctx.base_q());
        let out2 = apply_automorphism(&ctx, &p2, 3);
        assert_eq!(out2.row(0)[n - 3], 1);
    }

    #[test]
    fn automorphism_group_law() {
        // σ_a ∘ σ_b = σ_{ab mod 2n}
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let n = ctx.params().n;
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
        let p = RnsPoly::from_signed(&coeffs, ctx.base_q());
        let a = 3usize;
        let b = 5usize;
        let lhs = apply_automorphism(&ctx, &apply_automorphism(&ctx, &p, b), a);
        let rhs = apply_automorphism(&ctx, &p, (a * b) % (2 * n));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ntt_domain_automorphism_matches_coefficient_domain() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let n = ctx.params().n;
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i * 5 - 11).collect();
        let p = RnsPoly::from_signed(&coeffs, ctx.base_q());
        for g in [3usize, 5, 2 * n - 1] {
            let mut via_coeff = apply_automorphism(&ctx, &p, g);
            via_coeff.ntt_forward(ctx.ntt_q());
            let mut p_ntt = p.clone();
            p_ntt.ntt_forward(ctx.ntt_q());
            let via_perm = apply_automorphism_ntt(&ctx, &p_ntt, g);
            assert_eq!(via_perm, via_coeff, "g={g}");
        }
    }

    #[test]
    fn galois_ciphertext_decrypts_to_permuted_plaintext() {
        let (ctx, _) = batching_ctx();
        let mut rng = StdRng::seed_from_u64(51);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let n = ctx.params().n;
        let coeffs: Vec<u64> = (0..n as u64).map(|i| i % 7681).collect();
        let pt = Plaintext::new(coeffs, 7681, n);
        let ct = encrypt(&ctx, &pk, &pt, &mut rng);
        let g = 3;
        let key = GaloisKey::generate(&ctx, &sk, g, &mut rng);
        let rotated = apply_galois(&ctx, &ct, &key);
        let got = decrypt(&ctx, &sk, &rotated);
        // Expected: the plaintext polynomial under σ_g.
        let expect_rns =
            apply_automorphism(&ctx, &RnsPoly::from_signed(&pt.centered(), ctx.base_q()), g);
        // Compare modulo t by re-deriving plaintext coefficients.
        let m0 = ctx.base_q().modulus(0);
        for c in 0..n {
            let signed = m0.to_centered(expect_rns.row(0)[c]);
            let expect = signed.rem_euclid(7681) as u64;
            assert_eq!(got.coeffs()[c], expect, "coeff {c}");
        }
    }

    #[test]
    fn reference_and_hoisted_rotation_agree() {
        // The permute-first oracle decomposes σ_g(c1), the hoisted path
        // permutes the digits of c1. Grouped digits are centered, so σ_g's
        // sign flips commute with the decomposition and the two agree bit
        // for bit (residues in [0, q_i), one digit per prime, would only
        // decrypt alike).
        let (ctx, enc) = batching_ctx();
        let mut rng = StdRng::seed_from_u64(57);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let vals: Vec<u64> = (0..256u64).map(|i| i * 3 + 1).collect();
        let ct = encrypt(&ctx, &pk, &enc.encode(&vals), &mut rng);
        let key = GaloisKey::generate(&ctx, &sk, 3, &mut rng);
        assert!(key.digits() < ctx.params().k(), "grouped Galois digits");
        let hoisted = apply_galois(&ctx, &ct, &key);
        assert_eq!(hoisted, apply_galois_reference(&ctx, &ct, &key));
        let mut got = enc.decode(&decrypt(&ctx, &sk, &hoisted));
        got.sort_unstable();
        let mut want = vals;
        want.sort_unstable();
        assert_eq!(got, want, "a rotation permutes the slots");
    }

    #[test]
    fn hoisted_rotation_is_bit_identical_to_apply_galois() {
        let (ctx, enc) = batching_ctx();
        let mut rng = StdRng::seed_from_u64(58);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let vals: Vec<u64> = (0..256u64).map(|i| (i * 7 + 2) % 7681).collect();
        let ct = encrypt(&ctx, &pk, &enc.encode(&vals), &mut rng);
        let n = ctx.params().n;
        let keys: Vec<GaloisKey> = [3usize, 9, 2 * n - 1]
            .iter()
            .map(|&g| GaloisKey::generate(&ctx, &sk, g, &mut rng))
            .collect();
        // One decomposition, three rotations — each must equal the
        // one-shot path bit for bit.
        let hoisted = HoistedCiphertext::new(&ctx, &ct);
        for key in &keys {
            assert_eq!(
                hoisted.rotate(&ctx, key),
                apply_galois(&ctx, &ct, key),
                "g={}",
                key.g
            );
        }
        let many = rotate_many(&ctx, &ct, &keys.iter().collect::<Vec<_>>());
        for (out, key) in many.iter().zip(&keys) {
            assert_eq!(out, &apply_galois(&ctx, &ct, key), "g={}", key.g);
        }
    }

    #[test]
    fn galois_permutes_slots_bijectively() {
        let (ctx, enc) = batching_ctx();
        let mut rng = StdRng::seed_from_u64(52);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let vals: Vec<u64> = (0..256u64).map(|i| i + 1).collect();
        let ct = encrypt(&ctx, &pk, &enc.encode(&vals), &mut rng);
        let key = GaloisKey::generate(&ctx, &sk, 3, &mut rng);
        let rotated = apply_galois(&ctx, &ct, &key);
        let got = enc.decode(&decrypt(&ctx, &sk, &rotated));
        // Must be a permutation of the inputs (all values distinct).
        let mut sorted = got.clone();
        sorted.sort_unstable();
        let mut expect = vals.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert_ne!(got, vals, "non-trivial permutation");
    }

    #[test]
    fn sum_slots_puts_total_everywhere() {
        let (ctx, enc) = batching_ctx();
        let mut rng = StdRng::seed_from_u64(53);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let vals: Vec<u64> = (0..256u64).map(|i| i % 10).collect();
        let total: u64 = vals.iter().sum::<u64>() % 7681;
        let ct = encrypt(&ctx, &pk, &enc.encode(&vals), &mut rng);
        let keys = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
        assert_eq!(keys.rounds(), 8, "log2(128) + 1 rounds for n=256");
        // 8 rounds in groups of 2: 4 × 3 subset-product keys.
        assert_eq!(keys.groups().len(), 4);
        assert_eq!(keys.keys().len(), 12);
        let summed = sum_slots(&ctx, &ct, &keys);
        let got = enc.decode(&decrypt(&ctx, &sk, &summed));
        assert!(
            got.iter().all(|&v| v == total),
            "all slots = {total}, got {:?}",
            &got[..4]
        );
        // The per-rotation reference computes the same sum.
        let reference = sum_slots_reference(&ctx, &ct, &keys);
        let got_ref = enc.decode(&decrypt(&ctx, &sk, &reference));
        assert_eq!(got, got_ref);
    }

    #[test]
    fn hoisted_group_fold_matches_sequential_rounds() {
        // One hoist group must advance the accumulator exactly like its
        // rounds applied one at a time (same decomposition order, so the
        // comparison is on decrypted values).
        let (ctx, enc) = batching_ctx();
        let mut rng = StdRng::seed_from_u64(54);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let vals: Vec<u64> = (0..256u64).map(|i| (i * 11 + 5) % 97).collect();
        let ct = encrypt(&ctx, &pk, &enc.encode(&vals), &mut rng);
        let keys = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
        // Sequential doubling over the first group's rounds.
        let first_rounds: Vec<usize> = keys.chain()[..HOIST_GROUP_ROUNDS].to_vec();
        let mut seq = ct.clone();
        for idx in first_rounds {
            let rot = apply_galois(&ctx, &seq, &keys.keys()[idx]);
            seq = crate::eval::add(&ctx, &seq, &rot);
        }
        // The hoisted group fold.
        let arena = Arena::new();
        let hoisted = HoistedCiphertext::new_in(&ctx, &ct, &arena);
        let folded = hoisted.sum_self_plus_rotations_in(
            &ctx,
            keys.groups()[0].iter().map(|&i| &keys.keys()[i]),
            &arena,
        );
        assert_eq!(
            enc.decode(&decrypt(&ctx, &sk, &folded)),
            enc.decode(&decrypt(&ctx, &sk, &seq)),
        );
    }

    #[test]
    #[should_panic(expected = "invalid Galois exponent")]
    fn even_exponent_rejected() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let p = RnsPoly::zero(ctx.params().k(), ctx.params().n);
        let _ = apply_automorphism(&ctx, &p, 4);
    }
}
