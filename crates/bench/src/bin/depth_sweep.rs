//! Demonstrates the paper's depth-4 claim experimentally: a chain of
//! homomorphic multiplications at the full parameter sets (the paper's
//! t = 2 set and the t = 65537 batching set), printing per level the
//! measured noise budget beside the worst-case model's, both after the
//! chain and after a full `SumSlots` of the chain's output (Galois keys of
//! the context's grouped digit count).
//!
//! Exits non-zero when a measured noise exceeds the model's bound, or when
//! a level within the declared depth (`min(4, supported depth)`) fails to
//! decrypt, so CI can run it as a gate.

use hefv_core::galois::{slot_sum_rounds, GaloisKeySet};
use hefv_core::noise::{measure, NoiseModel, DECLARED_DEPTH};
use hefv_core::prelude::*;
use hefv_core::security;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sweeps one parameter set; returns the failures it saw.
fn sweep(params: FvParams) -> Vec<String> {
    let ctx = FvContext::new(params).expect("params");
    let mut rng = StdRng::seed_from_u64(4096);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let keys = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
    let model = NoiseModel::new(&ctx);
    let sec = security::estimate(ctx.params());
    let (t, n) = (ctx.params().t, ctx.params().n);
    let declared = DECLARED_DEPTH.min(model.supported_depth());
    let threshold = model.threshold_bits();

    println!(
        "\n=== depth sweep — {}: n={n}, {}-bit q, t={t}, σ={} ===",
        ctx.params().name,
        ctx.params().log_q(),
        ctx.params().sigma
    );
    println!(
        "security (conservative LP estimate): {:.0} bits (paper claims ≥80 via [26])",
        sec.bits
    );
    println!(
        "worst-case model supported depth   : {} (declared {declared})",
        model.supported_depth()
    );
    println!(
        "Galois key digits                  : {} of {} primes",
        ctx.galois_digits(),
        ctx.params().k()
    );
    println!();
    println!(
        "{:<6} {:>12} {:>12} {:>9} {:>16} {:>12} {:>9}",
        "level", "budget", "model", "decrypts", "SumSlots budget", "model", "decrypts"
    );

    // The chain multiplies by an encryption of 1, so every level decrypts
    // to 1 and its slot sum to n mod t (every slot, or the constant
    // coefficient, holds n).
    let one = encrypt(&ctx, &pk, &Plaintext::new(vec![1], t, n), &mut rng);
    let mut want_sum = vec![0u64; n];
    want_sum[0] = n as u64 % t;
    let rounds = slot_sum_rounds(n);
    let mut failures = Vec::new();
    let mut acc = one.clone();
    let mut bound = model.fresh();
    for level in 0..=8u32 {
        if level > 0 {
            acc = mul(&ctx, &acc, &one, &rlk, Backend::default());
            bound = model.after_mul(bound, model.fresh());
        }
        let summed = sum_slots(&ctx, &acc, &keys);
        let sum_bound = model.after_sum_slots(bound, rounds);
        let mut row = |what: &str, ct: &Ciphertext, bound: f64, want: &[u64]| {
            let r = measure(&ctx, &sk, ct);
            let ok = decrypt(&ctx, &sk, ct).coeffs() == want;
            if r.noise_bits > bound.log2() {
                failures.push(format!(
                    "{} level {level} {what}: measured {:.1} noise bits above the bound {:.1}",
                    ctx.params().name,
                    r.noise_bits,
                    bound.log2()
                ));
            }
            if !ok && level <= declared {
                failures.push(format!(
                    "{} level {level} {what}: fails to decrypt within the declared depth",
                    ctx.params().name
                ));
            }
            (r.budget_bits, threshold - bound.log2(), ok)
        };
        let mut want = vec![0u64; n];
        want[0] = 1;
        let (b, mb, ok) = row("chain", &acc, bound, &want);
        let (sb, smb, sok) = row("SumSlots", &summed, sum_bound, &want_sum);
        let yes = |ok: bool| if ok { "yes" } else { "NO" };
        println!(
            "{level:<6} {b:>12.1} {mb:>12.1} {:>9} {sb:>16.1} {smb:>12.1} {:>9}",
            yes(ok),
            yes(sok)
        );
        if b <= 0.0 {
            println!("\nbudget exhausted at level {level}.");
            break;
        }
    }
    failures
}

fn main() {
    let mut failures = sweep(FvParams::hpca19());
    failures.extend(sweep(FvParams::hpca19_batching()));
    println!("\nthe paper targets depth 4 'to support several statistical");
    println!("applications' (§III-A); the measured budget shows the margin.");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
