//! Oracles shared by the core integration tests.

use hefv_core::prelude::*;
use hefv_math::rns::RnsBasis;

/// Digit `i` of a `d`-digit decomposition of `c`, coefficient domain,
/// from long-integer CRT: one digit per prime spreads the residue
/// `c mod q_i ∈ [0, q_i)`; a group of primes takes the centered integer
/// congruent to `c` modulo the group's product, reduced mod every prime.
/// Independent of the HPS basis extension the library runs.
pub fn digit_oracle(ctx: &FvContext, c: &RnsPoly, d: usize, i: usize) -> RnsPoly {
    let (k, n) = (ctx.params().k(), ctx.params().n);
    if d == k {
        return RnsPoly::from_flat(ctx.spread_digit(c.row(i)), k, Domain::Coefficient);
    }
    let rows = ctx.digit_rows(d, i);
    let group = RnsBasis::new(&ctx.params().q_primes[rows.clone()]).unwrap();
    let mut flat = vec![0u64; k * n];
    for u in 0..n {
        let residues: Vec<u64> = rows.clone().map(|j| c.row(j)[u]).collect();
        let centered = group.decode_centered(&residues);
        for (j, r) in ctx
            .base_q()
            .encode_signed(&centered)
            .into_iter()
            .enumerate()
        {
            flat[j * n + u] = r;
        }
    }
    RnsPoly::from_flat(flat, k, Domain::Coefficient)
}
