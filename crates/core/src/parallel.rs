//! Multi-threaded homomorphic multiplication.
//!
//! The paper's §VI-E compares against Badawi et al.'s multi-threaded CPU
//! implementation (26 threads ⇒ 2.5× over single-threaded). This module
//! provides the same axis for our software backend: the four lifts, the
//! per-residue transforms and the three tensor/scale pipelines are all
//! independent — exactly the parallelism the paper's RPAUs exploit in
//! hardware. Relinearization is not fanned out: it runs the single
//! key-switch routine, [`eval::relinearize`], on the caller's thread.
//!
//! Fan-out is *budgeted*: every entry point has a `_with_budget` variant
//! taking the maximum number of OS threads the call may occupy, and the
//! convenience wrappers derive their budget from
//! `std::thread::available_parallelism()`. A multi-job caller (the
//! `hefv-engine` worker pool) passes an explicit per-job budget so that
//! concurrent jobs do not oversubscribe the machine.

use crate::context::FvContext;
use crate::encrypt::Ciphertext;
use crate::eval::{self, Backend, TensorResult};
use crate::keys::RelinKey;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's thread capacity (`available_parallelism`, ≥ 1).
pub fn machine_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0..count)` on at most `budget` OS threads and collects the
/// results in index order. With `budget <= 1` (or a single task) everything
/// runs inline on the caller's thread — no spawn cost.
pub fn fan_out_indexed<T, F>(count: usize, budget: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = budget.max(1).min(count);
    if workers == 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let out = f(i);
                results.lock().unwrap()[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("every index produced"))
        .collect()
}

/// Applies `f(row_index, row)` to every stride-`n` row of a flat
/// limb-major buffer, fanning the rows out over at most `budget` OS
/// threads via [`fan_out_indexed`]. This is the software form of the
/// paper's RPAU-per-residue distribution: each task owns one dense residue
/// row. With `budget <= 1` everything runs inline on the caller's thread.
///
/// # Panics
///
/// Panics if `n` does not divide `data.len()` (ragged rows).
pub fn for_each_row_mut<F>(data: &mut [u64], n: usize, budget: usize, f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        n > 0 && data.len().is_multiple_of(n),
        "flat buffer not row-aligned"
    );
    let count = data.len() / n;
    if budget.max(1).min(count) == 1 {
        for (i, row) in data.chunks_mut(n).enumerate() {
            f(i, row);
        }
        return;
    }
    // Hand each scoped worker disjoint rows through per-row mutexes: the
    // locks are uncontended (every index is claimed exactly once by
    // fan_out_indexed) and cost nothing next to an NTT over the row.
    let rows: Vec<Mutex<&mut [u64]>> = data.chunks_mut(n).map(Mutex::new).collect();
    fan_out_indexed(count, budget, |i| {
        let mut row = rows[i].lock().unwrap();
        f(i, &mut row);
    });
}

/// Applies `f(first_row, span)` to contiguous multi-row **spans** of a
/// flat limb-major buffer, splitting the rows into at most `budget`
/// near-even contiguous chunks (each a whole number of rows). Unlike
/// [`for_each_row_mut`] the callback sees many rows at once, which lets
/// batched kernels — the dispatch seam's `ntt_forward_batch` /
/// `ntt_inverse_batch` — keep SIMD lanes full across limbs instead of
/// paying per-row dispatch. With `budget <= 1` the whole buffer is one
/// span handled inline on the caller's thread.
///
/// # Panics
///
/// Panics if `n` does not divide `data.len()` (ragged rows).
pub fn for_each_row_span_mut<F>(data: &mut [u64], n: usize, budget: usize, f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        n > 0 && data.len().is_multiple_of(n),
        "flat buffer not row-aligned"
    );
    let count = data.len() / n;
    let workers = budget.max(1).min(count);
    if workers == 1 {
        f(0, data);
        return;
    }
    let base = count / workers;
    let rem = count % workers;
    let f = &f;
    std::thread::scope(|s| {
        let mut rest = data;
        let mut first = 0usize;
        for w in 0..workers {
            let rows = base + usize::from(w < rem);
            let (span, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let start = first;
            first += rows;
            s.spawn(move || f(start, span));
        }
    });
}

/// Steps 1–3 of `Mult` fanned out over at most `budget` threads.
pub fn tensor_threaded_with_budget(
    ctx: &FvContext,
    a: &Ciphertext,
    b: &Ciphertext,
    backend: Backend,
    budget: usize,
) -> TensorResult {
    let full = ctx.rns().base_full();

    // Phase 1: lift + forward-transform all four operand polynomials.
    // Threads left over after the four-way fan-out go to limb-level
    // parallelism inside each lift/transform (residue rows are
    // independent, exactly like the paper's RPAUs).
    let inner1 = (budget / 4).max(1);
    let inputs = [a.c0(), a.c1(), b.c0(), b.c1()];
    let mut lifted = fan_out_indexed(4, budget, |i| {
        let mut l = eval::lift_q_to_full_with_budget(ctx, inputs[i], backend, inner1);
        l.ntt_forward_with_budget(ctx.ntt_full(), inner1);
        l
    });
    let l11 = lifted.pop().unwrap();
    let l10 = lifted.pop().unwrap();
    let l01 = lifted.pop().unwrap();
    let l00 = lifted.pop().unwrap();

    // Phase 2: the three tensor outputs, each with its inverse transform
    // and scale; surplus threads again fan across residue rows.
    let inner2 = (budget / 3).max(1);
    let mut outs = fan_out_indexed(3, budget, |i| {
        let mut t = match i {
            0 => l00.pointwise_mul_with_budget(&l10, full, inner2),
            1 => {
                let mut t = l00.pointwise_mul_with_budget(&l11, full, inner2);
                t.pointwise_mul_acc_with_budget(&l01, &l10, full, inner2);
                t
            }
            _ => l01.pointwise_mul_with_budget(&l11, full, inner2),
        };
        t.ntt_inverse_with_budget(ctx.ntt_full(), inner2);
        eval::scale_full_to_q_with_budget(ctx, &t, backend, inner2)
    });
    let d2 = outs.pop().unwrap();
    let d1 = outs.pop().unwrap();
    let d0 = outs.pop().unwrap();
    TensorResult { d0, d1, d2 }
}

/// Steps 1–3 of `Mult` with the machine-wide thread budget.
pub fn tensor_threaded(
    ctx: &FvContext,
    a: &Ciphertext,
    b: &Ciphertext,
    backend: Backend,
) -> TensorResult {
    tensor_threaded_with_budget(ctx, a, b, backend, machine_budget())
}

/// Full multi-threaded `Mult` under an explicit thread budget.
pub fn mul_threaded_with_budget(
    ctx: &FvContext,
    a: &Ciphertext,
    b: &Ciphertext,
    rlk: &RelinKey,
    backend: Backend,
    budget: usize,
) -> Ciphertext {
    let t = tensor_threaded_with_budget(ctx, a, b, backend, budget);
    eval::relinearize(ctx, &t, rlk)
}

/// Full multi-threaded `Mult` with the machine-wide thread budget.
pub fn mul_threaded(
    ctx: &FvContext,
    a: &Ciphertext,
    b: &Ciphertext,
    rlk: &RelinKey,
    backend: Backend,
) -> Ciphertext {
    mul_threaded_with_budget(ctx, a, b, rlk, backend, machine_budget())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Plaintext;
    use crate::encrypt::{decrypt, encrypt};
    use crate::eval;
    use crate::keys::keygen;
    use crate::params::FvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fan_out_preserves_index_order() {
        for budget in [1, 2, 3, 16] {
            let out = fan_out_indexed(7, budget, |i| i * i);
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36], "budget {budget}");
        }
        assert!(fan_out_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn threaded_mul_is_bit_identical_to_sequential() {
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let mut rng = StdRng::seed_from_u64(81);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let pa = Plaintext::new(vec![1, 0, 1], 2, ctx.params().n);
        let pb = Plaintext::new(vec![1, 1], 2, ctx.params().n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        let cb = encrypt(&ctx, &pk, &pb, &mut rng);
        for backend in [Backend::default(), Backend::Traditional] {
            let seq = eval::mul(&ctx, &ca, &cb, &rlk, backend);
            let par = mul_threaded(&ctx, &ca, &cb, &rlk, backend);
            assert_eq!(seq, par, "{backend:?}");
            let _ = decrypt(&ctx, &sk, &par);
        }
    }

    #[test]
    fn every_budget_gives_the_same_ciphertext() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(83);
        let (_, pk, rlk) = keygen(&ctx, &mut rng);
        let pa = Plaintext::new(vec![1, 1], ctx.params().t, ctx.params().n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        let reference = eval::mul(&ctx, &ca, &ca, &rlk, Backend::default());
        for budget in [1, 2, 4, 64] {
            let got = mul_threaded_with_budget(&ctx, &ca, &ca, &rlk, Backend::default(), budget);
            assert_eq!(got, reference, "budget {budget}");
        }
    }

    #[test]
    fn threaded_chain_stays_correct() {
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let mut rng = StdRng::seed_from_u64(82);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let one = encrypt(
            &ctx,
            &pk,
            &Plaintext::new(vec![1], 2, ctx.params().n),
            &mut rng,
        );
        let mut acc = one.clone();
        for _ in 0..3 {
            acc = mul_threaded(&ctx, &acc, &one, &rlk, Backend::default());
        }
        assert_eq!(decrypt(&ctx, &sk, &acc).coeffs()[0], 1);
    }

    #[test]
    fn machine_budget_is_positive() {
        assert!(machine_budget() >= 1);
    }
}
