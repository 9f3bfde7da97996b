//! Homomorphic evaluation: `Add`, `Sub`, `Mult` (Fig. 2) and
//! relinearization.
//!
//! `Mult` follows the paper's pipeline exactly:
//!
//! 1. **Lift q→Q** all four operand polynomials (traditional CRT or HPS);
//! 2. NTT over all primes of `Q` and pointwise tensor products
//!    `c̃0 = c00·c10`, `c̃1 = c00·c11 + c01·c10`, `c̃2 = c01·c11`;
//! 3. inverse NTT and **Scale Q→q** each `c̃i`;
//! 4. **WordDecomp** of `c̃2` into RNS digits (`w = 2^30`, one digit per
//!    `q` prime) and **ReLin**: `c0 = c̃0 + SoP(digits, rlk0)`,
//!    `c1 = c̃1 + SoP(digits, rlk1)`.
//!
//! Every op has one body, the `_in` form, which draws its outputs and
//! intermediates from a scratch [`Arena`] on the caller's thread. The
//! arena-less entry points (`mul`, `tensor`, `lift_q_to_full`, …) call it
//! with a fresh arena, so they allocate on every call. Parallelism comes
//! from running independent jobs side by side, one arena per thread, as
//! the `hefv-engine` worker pool does.

use crate::context::FvContext;
use crate::encrypt::Ciphertext;
use crate::keys::RelinKey;
use crate::keyswitch::Digits;
use crate::rnspoly::{Domain, RnsPoly};
use crate::scratch::Arena;
use hefv_math::rns::HpsPrecision;
use serde::{Deserialize, Serialize};

/// Which `Lift`/`Scale` datapath evaluates the multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// Exact long-integer CRT (the paper's slower architecture, Fig. 5/8).
    Traditional,
    /// The HPS small-number datapath (the paper's faster architecture,
    /// Fig. 6/9), with the chosen quotient precision.
    Hps(HpsPrecision),
}

impl Default for Backend {
    /// The paper's best-performing configuration: HPS with fixed-point
    /// reciprocals.
    fn default() -> Self {
        Backend::Hps(HpsPrecision::Fixed)
    }
}

/// Homomorphic addition: coefficient-wise over both polynomials.
///
/// # Panics
///
/// Panics on shape mismatch between the ciphertexts.
pub fn add(ctx: &FvContext, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    let basis = ctx.base_q();
    Ciphertext {
        c0: a.c0.add(&b.c0, basis),
        c1: a.c1.add(&b.c1, basis),
    }
}

/// Homomorphic subtraction.
///
/// # Panics
///
/// Panics on shape mismatch between the ciphertexts.
pub fn sub(ctx: &FvContext, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    let basis = ctx.base_q();
    Ciphertext {
        c0: a.c0.sub(&b.c0, basis),
        c1: a.c1.sub(&b.c1, basis),
    }
}

/// Homomorphic negation.
pub fn neg(ctx: &FvContext, a: &Ciphertext) -> Ciphertext {
    let basis = ctx.base_q();
    Ciphertext {
        c0: a.c0.neg(basis),
        c1: a.c1.neg(basis),
    }
}

/// A plaintext operand with its forward NTT precomputed, for reuse across
/// any number of ciphertexts.
///
/// [`mul_plain`] transforms the plaintext on every call; workloads that
/// multiply many ciphertexts by the same plaintext (the engine's
/// `MulPlain` op-graphs, masked reductions, matrix rows) build a
/// `PlainOperand` once and pay only the two ciphertext transforms per
/// product.
#[derive(Debug, Clone)]
pub struct PlainOperand {
    m_ntt: RnsPoly,
}

impl PlainOperand {
    /// Encodes a plaintext into the `q` basis and transforms it once.
    pub fn new(ctx: &FvContext, pt: &crate::encoder::Plaintext) -> Self {
        let mut m = crate::encoder::plaintext_to_rns(ctx, pt);
        m.ntt_forward(ctx.ntt_q());
        PlainOperand { m_ntt: m }
    }

    /// The cached NTT-domain polynomial.
    pub fn poly_ntt(&self) -> &RnsPoly {
        &self.m_ntt
    }

    /// Consumes the operand, yielding the transformed polynomial (so its
    /// buffer can be recycled into a scratch arena).
    pub fn into_poly_ntt(self) -> RnsPoly {
        self.m_ntt
    }
}

/// Multiplies a ciphertext by a plaintext polynomial (NTT pointwise; no
/// relinearization needed). Transforms the plaintext on every call — reuse
/// a [`PlainOperand`] with [`mul_plain_operand_in`] when the same
/// plaintext multiplies several ciphertexts.
pub fn mul_plain(ctx: &FvContext, a: &Ciphertext, pt: &crate::encoder::Plaintext) -> Ciphertext {
    mul_plain_operand_in(ctx, a, &PlainOperand::new(ctx, pt), &Arena::new())
}

/// Multiplies a ciphertext by a precomputed [`PlainOperand`], with the
/// output buffers drawn from `arena`: each copy of `a` is transformed,
/// multiplied and transformed back in place.
pub fn mul_plain_operand_in(
    ctx: &FvContext,
    a: &Ciphertext,
    pt: &PlainOperand,
    arena: &Arena,
) -> Ciphertext {
    let basis = ctx.base_q();
    let (k, n) = (a.c0.k(), a.c0.n());
    let mut r0 = arena.take_poly(k, n, Domain::Coefficient);
    let mut r1 = arena.take_poly(k, n, Domain::Coefficient);
    r0.copy_from(&a.c0);
    r1.copy_from(&a.c1);
    r0.ntt_forward(ctx.ntt_q());
    r1.ntt_forward(ctx.ntt_q());
    r0.pointwise_mul_assign(&pt.m_ntt, basis);
    r1.pointwise_mul_assign(&pt.m_ntt, basis);
    r0.ntt_inverse(ctx.ntt_q());
    r1.ntt_inverse(ctx.ntt_q());
    Ciphertext { c0: r0, c1: r1 }
}

/// Lifts a coefficient-domain `R_q` polynomial to the full basis of `Q`
/// (the paper's `Lift q→Q`): keeps the `q` residues and appends the
/// extension residues.
pub fn lift_q_to_full(ctx: &FvContext, poly: &RnsPoly, backend: Backend) -> RnsPoly {
    lift_q_to_full_in(ctx, poly, backend, &Arena::new())
}

/// [`lift_q_to_full`] with the output drawn from `arena`. Every output
/// coefficient is written once: the `q` rows are copied into the recycled
/// buffer and the extender writes the `p` rows in place.
pub fn lift_q_to_full_in(
    ctx: &FvContext,
    poly: &RnsPoly,
    backend: Backend,
    arena: &Arena,
) -> RnsPoly {
    assert_eq!(
        poly.domain(),
        Domain::Coefficient,
        "lift needs coefficients"
    );
    let k = poly.k();
    let l = ctx.rns().base_p().len();
    let n = poly.n();
    let mut out = arena.take_poly(k + l, n, Domain::Coefficient);
    out.rows_mut(0, k).copy_from_slice(poly.flat());
    let lift = ctx.rns().lift();
    let (src, dst) = (poly.flat(), out.rows_mut(k, k + l));
    match backend {
        Backend::Traditional => lift.extend_poly_exact_into(src, n, dst),
        Backend::Hps(prec) => lift.extend_poly_hps_into(src, n, dst, prec),
    }
    out
}

/// Scales a coefficient-domain polynomial over the full `Q` basis down to
/// `R_q` (the paper's `Scale Q→q`).
pub fn scale_full_to_q(ctx: &FvContext, poly: &RnsPoly, backend: Backend) -> RnsPoly {
    scale_full_to_q_in(ctx, poly, backend, &Arena::new())
}

/// [`scale_full_to_q`] with the output drawn from `arena`.
pub fn scale_full_to_q_in(
    ctx: &FvContext,
    poly: &RnsPoly,
    backend: Backend,
    arena: &Arena,
) -> RnsPoly {
    assert_eq!(
        poly.domain(),
        Domain::Coefficient,
        "scale needs coefficients"
    );
    let k = ctx.rns().base_q().len();
    let n = poly.n();
    let rns = ctx.rns();
    let sc = ctx.scale();
    let mut out = arena.take_poly(k, n, Domain::Coefficient);
    let src = poly.flat();
    match backend {
        Backend::Traditional => sc.scale_poly_exact_into(rns, src, n, out.flat_mut()),
        Backend::Hps(prec) => sc.scale_poly_hps_into(rns, src, n, out.flat_mut(), prec),
    }
    out
}

/// The degree-2 intermediate of `Mult` before relinearization.
#[derive(Debug, Clone)]
pub struct TensorResult {
    /// `c̃0`, scaled back to `R_q`.
    pub d0: RnsPoly,
    /// `c̃1`, scaled back to `R_q`.
    pub d1: RnsPoly,
    /// `c̃2`, scaled back to `R_q`.
    pub d2: RnsPoly,
}

/// Steps 1–3 of `Mult`: lift, tensor in the NTT domain over `Q`, scale.
pub fn tensor(ctx: &FvContext, a: &Ciphertext, b: &Ciphertext, backend: Backend) -> TensorResult {
    tensor_in(ctx, a, b, backend, &Arena::new())
}

/// [`tensor`] with every intermediate drawn from (and dead operands
/// recycled into) `arena`: the four `(k+l)·n` lifted operands become the
/// tensor outputs in place where possible, so a warm arena makes the whole
/// phase allocation-free.
pub fn tensor_in(
    ctx: &FvContext,
    a: &Ciphertext,
    b: &Ciphertext,
    backend: Backend,
    arena: &Arena,
) -> TensorResult {
    let full = ctx.rns().base_full();
    let mut l00 = lift_q_to_full_in(ctx, &a.c0, backend, arena);
    let mut l01 = lift_q_to_full_in(ctx, &a.c1, backend, arena);
    let mut l10 = lift_q_to_full_in(ctx, &b.c0, backend, arena);
    let mut l11 = lift_q_to_full_in(ctx, &b.c1, backend, arena);
    l00.ntt_forward(ctx.ntt_full());
    l01.ntt_forward(ctx.ntt_full());
    l10.ntt_forward(ctx.ntt_full());
    l11.ntt_forward(ctx.ntt_full());

    // c̃1 first, while all four operands are live; then the operands
    // themselves become c̃0 and c̃2 in place.
    let mut t1 = arena.take_poly(l00.k(), l00.n(), Domain::Ntt);
    l00.pointwise_mul_into(&l11, full, &mut t1);
    t1.pointwise_mul_acc(&l01, &l10, full);
    l00.pointwise_mul_assign(&l10, full);
    let mut t0 = l00;
    l01.pointwise_mul_assign(&l11, full);
    let mut t2 = l01;
    arena.recycle(l10);
    arena.recycle(l11);

    t0.ntt_inverse(ctx.ntt_full());
    t1.ntt_inverse(ctx.ntt_full());
    t2.ntt_inverse(ctx.ntt_full());

    let out = TensorResult {
        d0: scale_full_to_q_in(ctx, &t0, backend, arena),
        d1: scale_full_to_q_in(ctx, &t1, backend, arena),
        d2: scale_full_to_q_in(ctx, &t2, backend, arena),
    };
    arena.recycle(t0);
    arena.recycle(t1);
    arena.recycle(t2);
    out
}

/// Step 4 of `Mult`: `WordDecomp` + `ReLin` (summation of products against
/// the relinearization key).
pub fn relinearize(ctx: &FvContext, t: &TensorResult, rlk: &RelinKey) -> Ciphertext {
    relinearize_in(ctx, t, rlk, &Arena::new())
}

/// [`relinearize`] with the digits and both accumulators drawn from
/// `arena`; the accumulators become the output ciphertext, so nothing is
/// allocated once the arena is warm.
///
/// Relinearization is the key switch of `c̃2` from `s²` to `s` under the
/// identity permutation: the same hoisted decomposition and narrow SoP as
/// a rotation, with `g = 1`.
pub fn relinearize_in(
    ctx: &FvContext,
    t: &TensorResult,
    rlk: &RelinKey,
    arena: &Arena,
) -> Ciphertext {
    assert_eq!(
        rlk.digits(),
        ctx.params().k(),
        "relin key digit count mismatch"
    );
    let digits = Digits::new_in(ctx, &t.d2, rlk.digits(), arena);
    let (mut c0, mut c1) = digits.switch_in(ctx, &rlk.key, arena);
    digits.recycle(arena);
    c0.add_assign(&t.d0, ctx.base_q());
    c1.add_assign(&t.d1, ctx.base_q());
    Ciphertext { c0, c1 }
}

/// Full homomorphic multiplication (Fig. 2).
pub fn mul(
    ctx: &FvContext,
    a: &Ciphertext,
    b: &Ciphertext,
    rlk: &RelinKey,
    backend: Backend,
) -> Ciphertext {
    mul_in(ctx, a, b, rlk, backend, &Arena::new())
}

/// [`mul`] with every intermediate drawn from `arena` — the steady-state
/// zero-allocation `Mult` hot path (asserted by
/// `tests/alloc_steady_state.rs`). Recycle the previous output into the
/// arena between calls to close the loop.
pub fn mul_in(
    ctx: &FvContext,
    a: &Ciphertext,
    b: &Ciphertext,
    rlk: &RelinKey,
    backend: Backend,
    arena: &Arena,
) -> Ciphertext {
    let t = tensor_in(ctx, a, b, backend, arena);
    let out = relinearize_in(ctx, &t, rlk, arena);
    arena.recycle(t.d0);
    arena.recycle(t.d1);
    arena.recycle(t.d2);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Plaintext;
    use crate::encrypt::{decrypt, encrypt};
    use crate::keys::keygen;
    use crate::params::FvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        params: FvParams,
    ) -> (
        FvContext,
        crate::keys::SecretKey,
        crate::keys::PublicKey,
        RelinKey,
        StdRng,
    ) {
        let ctx = FvContext::new(params).unwrap();
        let mut rng = StdRng::seed_from_u64(1234);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        (ctx, sk, pk, rlk, rng)
    }

    #[test]
    fn add_sub_neg_decrypt_correctly() {
        let (ctx, sk, pk, _, mut rng) = setup(FvParams::insecure_toy());
        let t = ctx.params().t;
        let n = ctx.params().n;
        let pa = Plaintext::new(vec![3, 1, 4, 1, 5], t, n);
        let pb = Plaintext::new(vec![2, 7, 1, 8], t, n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        let cb = encrypt(&ctx, &pk, &pb, &mut rng);

        let sum = decrypt(&ctx, &sk, &add(&ctx, &ca, &cb));
        assert_eq!(sum.coeffs()[..5], [5, 8, 5, 9, 5]);

        let diff = decrypt(&ctx, &sk, &sub(&ctx, &ca, &cb));
        assert_eq!(diff.coeffs()[..5], [1, (t - 6) % t, 3, (t - 7) % t, 5]);

        let negd = decrypt(&ctx, &sk, &neg(&ctx, &ca));
        assert_eq!(negd.coeffs()[0], t - 3);
    }

    #[test]
    fn mul_binary_messages_all_backends() {
        let (ctx, sk, pk, rlk, mut rng) = setup(FvParams::insecure_toy());
        let t = ctx.params().t;
        let n = ctx.params().n;
        // (1 + x) * (1 + x) = 1 + 2x + x²
        let pa = Plaintext::new(vec![1, 1], t, n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        for backend in [
            Backend::Traditional,
            Backend::Hps(HpsPrecision::F64),
            Backend::Hps(HpsPrecision::Fixed),
        ] {
            let prod = decrypt(&ctx, &sk, &mul(&ctx, &ca, &ca, &rlk, backend));
            assert_eq!(prod.coeffs()[..3], [1, 2, 1], "backend {backend:?}");
        }
    }

    #[test]
    fn hps_and_traditional_agree() {
        let (ctx, _, pk, rlk, mut rng) = setup(FvParams::insecure_toy());
        let t = ctx.params().t;
        let n = ctx.params().n;
        let pa = Plaintext::new(vec![5, 3, 2], t, n);
        let pb = Plaintext::new(vec![7, 0, 1], t, n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        let cb = encrypt(&ctx, &pk, &pb, &mut rng);
        let trad = mul(&ctx, &ca, &cb, &rlk, Backend::Traditional);
        let hps = mul(&ctx, &ca, &cb, &rlk, Backend::Hps(HpsPrecision::Fixed));
        // The two datapaths produce bit-identical ciphertexts except for
        // HPS mis-rounding (probability ~2^-47 per coefficient), so demand
        // equality here.
        assert_eq!(trad, hps);
    }

    #[test]
    fn mul_then_add_composes() {
        let (ctx, sk, pk, rlk, mut rng) = setup(FvParams::insecure_toy());
        let t = ctx.params().t;
        let n = ctx.params().n;
        let enc = |v: &[u64], rng: &mut StdRng| {
            encrypt(&ctx, &pk, &Plaintext::new(v.to_vec(), t, n), rng)
        };
        let ca = enc(&[2], &mut rng);
        let cb = enc(&[3], &mut rng);
        let cc = enc(&[5], &mut rng);
        // 2*3 + 5 = 11
        let r = add(&ctx, &mul(&ctx, &ca, &cb, &rlk, Backend::default()), &cc);
        assert_eq!(decrypt(&ctx, &sk, &r).coeffs()[0], 11);
    }

    #[test]
    fn mul_plain_scales_message() {
        let (ctx, sk, pk, _, mut rng) = setup(FvParams::insecure_toy());
        let t = ctx.params().t;
        let n = ctx.params().n;
        let ca = encrypt(&ctx, &pk, &Plaintext::new(vec![3, 1], t, n), &mut rng);
        let p = Plaintext::new(vec![2], t, n);
        let r = decrypt(&ctx, &sk, &mul_plain(&ctx, &ca, &p));
        assert_eq!(r.coeffs()[..2], [6, 2]);
    }

    #[test]
    fn depth_two_chain_on_medium_params() {
        // n=256 with the paper's 6+7 prime structure supports several
        // multiplicative levels.
        let (ctx, sk, pk, rlk, mut rng) = setup(FvParams::insecure_medium());
        let t = ctx.params().t;
        let n = ctx.params().n;
        let one = encrypt(&ctx, &pk, &Plaintext::new(vec![1], t, n), &mut rng);
        let mut acc = one.clone();
        for _ in 0..2 {
            acc = mul(&ctx, &acc, &one, &rlk, Backend::default());
        }
        assert_eq!(decrypt(&ctx, &sk, &acc).coeffs()[0], 1);
    }
}
