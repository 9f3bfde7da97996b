//! The instruction-set coprocessor: microcode, timing, and functional
//! execution.
//!
//! [`mult_microcode`] emits the exact instruction sequence of one
//! homomorphic multiplication (Fig. 2 through the instruction set of
//! Table II); [`Coprocessor::run_mult`] prices it with the cycle model and
//! the DMA model, and [`Coprocessor::execute_mult`] additionally performs
//! the *real computation* on ciphertext data (the arithmetic is delegated
//! to the bit-exact `hefv-core` kernels; the schedule-level model in
//! [`crate::nttsched`] separately proves the NTT dataflow is realizable
//! conflict-free).

use crate::clock::ClockConfig;
use crate::cost::{CostModel, Instr, TradCostModel};
use crate::dma::DmaModel;
use hefv_core::context::FvContext;
use hefv_core::encrypt::Ciphertext;
use hefv_core::eval::{self, Backend};
use hefv_core::keys::RelinKey;
use hefv_math::rns::HpsPrecision;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Software sync overhead charged once per high-level op, µs — the
/// calibrated residue of Table I's Mult after instructions and key DMA.
/// Shared by the HPS default ([`Coprocessor::mult_sync_us`]) and every
/// traditional-datapath pricing helper so the two stay in lockstep.
pub const MULT_SYNC_US: f64 = 19.64;

/// One microcode step of a high-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Execute a coprocessor instruction.
    Instr(Instr),
    /// DMA a relinearization-key polynomial from DDR (`bytes` in one
    /// mutex-arbitrated burst).
    RlkDma {
        /// Burst size in bytes.
        bytes: usize,
    },
    /// Software synchronization overhead, µs.
    SyncUs(f64),
}

/// Emits the `Mult` microcode for a parameter shape with `k` ciphertext
/// primes, `l` extension primes, `digits` relinearization digits and
/// `rpaus` parallel RPAUs.
///
/// For the paper's shape (k=6, l=7, digits=6, rpaus=7) the per-instruction
/// call counts equal Table II: NTT×14, Inverse-NTT×8, CWM×20, CWA×26,
/// Memory-Rearrange×22, Lift×4, Scale×3.
pub fn mult_microcode(
    k: usize,
    l: usize,
    digits: usize,
    rpaus: usize,
    n: usize,
    sync_us: f64,
) -> Vec<Op> {
    let full_batches = (k + l).div_ceil(rpaus);
    let q_batches = k.div_ceil(rpaus);
    let mut ops = Vec::new();
    let instr = |v: &mut Vec<Op>, i: Instr, times: usize| {
        for _ in 0..times {
            v.push(Op::Instr(i));
        }
    };
    // Step 1: Lift the four operand polynomials q → Q.
    instr(&mut ops, Instr::Lift, 4);
    // Step 2: forward transforms of the lifted polynomials (each preceded
    // by the bit-reversal Memory Rearrange), then the tensor products.
    for _ in 0..4 * full_batches {
        ops.push(Op::Instr(Instr::MemoryRearrange));
        ops.push(Op::Instr(Instr::Ntt));
    }
    // c̃0 = c00·c10 ; c̃2 = c01·c11 ; c̃1 = c00·c11 + c01·c10
    instr(&mut ops, Instr::CoeffMul, 4 * full_batches);
    instr(&mut ops, Instr::CoeffAdd, full_batches);
    // Step 3: inverse transforms of c̃0, c̃1, c̃2 and Scale Q→q.
    for _ in 0..3 * full_batches {
        ops.push(Op::Instr(Instr::InverseNtt));
        ops.push(Op::Instr(Instr::MemoryRearrange));
    }
    instr(&mut ops, Instr::Scale, 3);
    // Step 4: WordDecomp — spread each RNS digit across the q residues
    // (one conditional-subtract pass and one sign-correction pass per
    // digit, both coefficient-wise ops on the RPAUs).
    instr(&mut ops, Instr::CoeffAdd, 2 * digits * q_batches);
    // Transforms of the digit polynomials.
    for _ in 0..digits * q_batches {
        ops.push(Op::Instr(Instr::MemoryRearrange));
        ops.push(Op::Instr(Instr::Ntt));
    }
    // SoP against rlk0 and rlk1: `digits` products and `digits − 1`
    // accumulating adds per key, streaming the key from DDR.
    for _ in 0..digits {
        // one rlk0_i and one rlk1_i polynomial per digit
        ops.push(Op::RlkDma { bytes: k * n * 4 });
        ops.push(Op::RlkDma { bytes: k * n * 4 });
        instr(&mut ops, Instr::CoeffMul, 2 * q_batches);
    }
    instr(&mut ops, Instr::CoeffAdd, 2 * (digits - 1) * q_batches);
    // Inverse transforms of the two SoP accumulators, then the final adds
    // c0 = c̃0 + sop0, c1 = c̃1 + sop1.
    for _ in 0..2 * q_batches {
        ops.push(Op::Instr(Instr::InverseNtt));
        ops.push(Op::Instr(Instr::MemoryRearrange));
    }
    instr(&mut ops, Instr::CoeffAdd, 2 * q_batches);
    ops.push(Op::SyncUs(sync_us));
    ops
}

/// Emits the key-switch (Galois rotation) microcode for a shape with `k`
/// ciphertext primes, `digits` decomposition digits and `rpaus` parallel
/// RPAUs: one automorphism permutation pass per ciphertext polynomial,
/// digit decomposition of the permuted `c1`, and a relinearization-shaped
/// SoP streaming the switching key (`2·digits` polynomials of `k` residues)
/// from DDR. The HPS coprocessor's Galois keys group the `k` primes into
/// `digits` words (`FvContext::galois_digits`); the traditional
/// architecture uses its coarser relinearization digit count.
pub fn rotate_microcode(k: usize, digits: usize, rpaus: usize, n: usize, sync_us: f64) -> Vec<Op> {
    let q_batches = k.div_ceil(rpaus);
    let mut ops = Vec::new();
    // σ_g applied to c0 and c1: permutation passes.
    ops.push(Op::Instr(Instr::MemoryRearrange));
    ops.push(Op::Instr(Instr::MemoryRearrange));
    // Digit decomposition of σ(c1): spread + sign-correct, transform.
    for _ in 0..digits {
        for _ in 0..2 * q_batches {
            ops.push(Op::Instr(Instr::CoeffAdd));
        }
        ops.push(Op::Instr(Instr::MemoryRearrange));
        ops.push(Op::Instr(Instr::Ntt));
    }
    // SoP against both key halves, streaming the switching key.
    for _ in 0..digits {
        ops.push(Op::RlkDma { bytes: k * n * 4 });
        ops.push(Op::RlkDma { bytes: k * n * 4 });
        for _ in 0..2 * q_batches {
            ops.push(Op::Instr(Instr::CoeffMul));
        }
    }
    for _ in 0..2 * digits.saturating_sub(1) * q_batches {
        ops.push(Op::Instr(Instr::CoeffAdd));
    }
    for _ in 0..2 * q_batches {
        ops.push(Op::Instr(Instr::InverseNtt));
        ops.push(Op::Instr(Instr::MemoryRearrange));
    }
    // Final add of σ(c0).
    for _ in 0..q_batches {
        ops.push(Op::Instr(Instr::CoeffAdd));
    }
    ops.push(Op::SyncUs(sync_us));
    ops
}

/// Emits the **hoisted** rotation-batch microcode: the digit decomposition
/// of `c1` (spread + sign-correct + transform per digit) runs **once**,
/// then each of the `rotations` key switches is only a permutation pass, a
/// key-streaming SoP and its inverse transforms — the Halevi–Shoup
/// hoisting `hefv_core::galois::HoistedCiphertext` implements in software.
/// Software sync is charged once for the whole batch (one fused dispatch).
pub fn hoisted_rotations_microcode(
    k: usize,
    digits: usize,
    rpaus: usize,
    n: usize,
    rotations: usize,
    sync_us: f64,
) -> Vec<Op> {
    let q_batches = k.div_ceil(rpaus);
    let mut ops = Vec::new();
    // Hoisted decomposition: once for every rotation in the batch.
    for _ in 0..digits {
        for _ in 0..2 * q_batches {
            ops.push(Op::Instr(Instr::CoeffAdd));
        }
        ops.push(Op::Instr(Instr::MemoryRearrange));
        ops.push(Op::Instr(Instr::Ntt));
    }
    for _ in 0..rotations {
        // σ_g on c0 plus the NTT-domain digit permutations.
        for _ in 0..1 + digits {
            ops.push(Op::Instr(Instr::MemoryRearrange));
        }
        // SoP against both key halves, streaming this rotation's key.
        for _ in 0..digits {
            ops.push(Op::RlkDma { bytes: k * n * 4 });
            ops.push(Op::RlkDma { bytes: k * n * 4 });
            for _ in 0..2 * q_batches {
                ops.push(Op::Instr(Instr::CoeffMul));
            }
        }
        for _ in 0..2 * digits.saturating_sub(1) * q_batches {
            ops.push(Op::Instr(Instr::CoeffAdd));
        }
        // This rotation's own inverse transforms and final add.
        for _ in 0..2 * q_batches {
            ops.push(Op::Instr(Instr::InverseNtt));
            ops.push(Op::Instr(Instr::MemoryRearrange));
        }
        for _ in 0..q_batches {
            ops.push(Op::Instr(Instr::CoeffAdd));
        }
    }
    ops.push(Op::SyncUs(sync_us));
    ops
}

/// Emits the hoisted slot-sum microcode: `log2(n)` rotate-and-add doubling
/// rounds folded in groups of `group_rounds` — per group, one digit
/// decomposition of the accumulator serves the `2^J − 1` subset-product
/// rotations, whose SoPs accumulate in the NTT domain and share a single
/// pair of inverse transforms (the `c0` track never leaves the NTT
/// domain, so only `c1` pays an inverse per group).
pub fn sum_slots_microcode(
    k: usize,
    digits: usize,
    rpaus: usize,
    n: usize,
    group_rounds: usize,
    sync_us: f64,
) -> Vec<Op> {
    let q_batches = k.div_ceil(rpaus);
    let rounds = (n / 2).trailing_zeros() as usize + 1;
    let group_rounds = group_rounds.max(1);
    let mut ops = Vec::new();
    let mut done = 0usize;
    while done < rounds {
        let in_group = group_rounds.min(rounds - done);
        let rotations = (1usize << in_group) - 1;
        // Decomposition of the evolving accumulator, once per group.
        for _ in 0..digits {
            for _ in 0..2 * q_batches {
                ops.push(Op::Instr(Instr::CoeffAdd));
            }
            ops.push(Op::Instr(Instr::MemoryRearrange));
            ops.push(Op::Instr(Instr::Ntt));
        }
        for _ in 0..rotations {
            // Fused digit + c0 permutations, key DMA and SoP.
            for _ in 0..1 + digits {
                ops.push(Op::Instr(Instr::MemoryRearrange));
            }
            for _ in 0..digits {
                ops.push(Op::RlkDma { bytes: k * n * 4 });
                ops.push(Op::RlkDma { bytes: k * n * 4 });
                for _ in 0..2 * q_batches {
                    ops.push(Op::Instr(Instr::CoeffMul));
                }
            }
            for _ in 0..2 * digits.saturating_sub(1) * q_batches {
                ops.push(Op::Instr(Instr::CoeffAdd));
            }
        }
        // One inverse transform for the accumulated c1 SoP, plus the
        // group's accumulator adds.
        for _ in 0..q_batches {
            ops.push(Op::Instr(Instr::InverseNtt));
            ops.push(Op::Instr(Instr::MemoryRearrange));
        }
        for _ in 0..2 * q_batches {
            ops.push(Op::Instr(Instr::CoeffAdd));
        }
        done += in_group;
    }
    ops.push(Op::SyncUs(sync_us));
    ops
}

/// Timing report for one high-level operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpReport {
    /// Instruction call counts.
    pub calls: HashMap<String, u32>,
    /// FPGA cycles spent in instructions.
    pub instr_fpga_cycles: u64,
    /// Time spent in relinearization-key DMA, µs.
    pub rlk_dma_us: f64,
    /// Software sync overhead, µs.
    pub sync_us: f64,
    /// Total time, µs.
    pub total_us: f64,
    /// Total in the paper's Arm-cycle unit.
    pub total_arm_cycles: u64,
}

/// One simulated coprocessor (the fast, HPS-based design unless a
/// traditional model is attached).
#[derive(Debug, Clone)]
pub struct Coprocessor {
    /// Instruction cycle model.
    pub cost: CostModel,
    /// DMA model shared with the platform.
    pub dma: DmaModel,
    /// Clock domains.
    pub clocks: ClockConfig,
    /// Software sync overhead charged once per `Mult` (calibrated: the
    /// residue of Table I's Mult after instructions and rlk DMA).
    pub mult_sync_us: f64,
}

impl Default for Coprocessor {
    fn default() -> Self {
        Coprocessor {
            cost: CostModel::default(),
            dma: DmaModel::default(),
            clocks: ClockConfig::default(),
            mult_sync_us: MULT_SYNC_US,
        }
    }
}

impl Coprocessor {
    /// Prices a microcode sequence.
    pub fn run(&self, ops: &[Op]) -> OpReport {
        let mut calls: HashMap<String, u32> = HashMap::new();
        let mut fpga = 0u64;
        let mut rlk_us = 0.0;
        let mut sync_us = 0.0;
        for op in ops {
            match *op {
                Op::Instr(i) => {
                    *calls.entry(i.name().to_string()).or_insert(0) += 1;
                    fpga += self.cost.instr_cycles(i);
                }
                Op::RlkDma { bytes } => {
                    rlk_us += self.dma.transfer_us(bytes, 1) + self.dma.mutex_sync_us;
                }
                Op::SyncUs(us) => sync_us += us,
            }
        }
        let total_us = self.clocks.fpga_cycles_to_us(fpga) + rlk_us + sync_us;
        OpReport {
            calls,
            instr_fpga_cycles: fpga,
            rlk_dma_us: rlk_us,
            sync_us,
            total_us,
            total_arm_cycles: self.clocks.us_to_arm_cycles(total_us),
        }
    }

    /// Prices one homomorphic `Mult` for the paper's parameter shape.
    pub fn run_mult(&self, ctx: &FvContext) -> OpReport {
        let p = ctx.params();
        let rpaus = (p.k() + p.l()).div_ceil(2);
        let ops = mult_microcode(p.k(), p.l(), p.k(), rpaus, p.n, self.mult_sync_us);
        self.run(&ops)
    }

    /// Prices one homomorphic `Add` (two coefficient-wise additions over
    /// the `q` batch, block-pipelined).
    pub fn run_add(&self) -> OpReport {
        let fpga = self.cost.add_op_cycles();
        let total_us = self.clocks.fpga_cycles_to_us(fpga);
        let mut calls = HashMap::new();
        calls.insert(Instr::CoeffAdd.name().to_string(), 2);
        OpReport {
            calls,
            instr_fpga_cycles: fpga,
            rlk_dma_us: 0.0,
            sync_us: 0.0,
            total_us,
            total_arm_cycles: self.clocks.us_to_arm_cycles(total_us),
        }
    }

    /// Prices a Galois rotation (the key-switching extension): one
    /// automorphism permutation (a Memory-Rearrange-class pass per
    /// polynomial) plus a relinearization-shaped SoP over the key's
    /// [`FvContext::galois_digits`] digits — exactly the Table II
    /// instruction classes, no new hardware.
    pub fn run_rotate(&self, ctx: &FvContext) -> OpReport {
        let p = ctx.params();
        let rpaus = (p.k() + p.l()).div_ceil(2);
        let ops = rotate_microcode(p.k(), ctx.galois_digits(), rpaus, p.n, self.mult_sync_us);
        self.run(&ops)
    }

    /// Prices a hoisted batch of `rotations` Galois rotations of one
    /// ciphertext: the decomposition's transforms are paid once, every
    /// rotation is a permutation + key-streaming SoP + its own inverse
    /// transforms (see [`hoisted_rotations_microcode`]).
    pub fn run_hoisted_rotations(&self, ctx: &FvContext, rotations: usize) -> OpReport {
        let p = ctx.params();
        let rpaus = (p.k() + p.l()).div_ceil(2);
        let ops = hoisted_rotations_microcode(
            p.k(),
            ctx.galois_digits(),
            rpaus,
            p.n,
            rotations,
            self.mult_sync_us,
        );
        self.run(&ops)
    }

    /// Prices one hoisted slot sum (grouped doubling rounds — see
    /// [`sum_slots_microcode`]).
    pub fn run_sum_slots(&self, ctx: &FvContext) -> OpReport {
        let p = ctx.params();
        let rpaus = (p.k() + p.l()).div_ceil(2);
        let ops = sum_slots_microcode(
            p.k(),
            ctx.galois_digits(),
            rpaus,
            p.n,
            hefv_core::galois::HOIST_GROUP_ROUNDS,
            self.mult_sync_us,
        );
        self.run(&ops)
    }

    /// Executes a real multiplication (bit-exact against `hefv-core` with
    /// the HPS fixed-point backend — the datapath the RTL implements) and
    /// returns the result together with its timing report.
    pub fn execute_mult(
        &self,
        ctx: &FvContext,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinKey,
    ) -> (Ciphertext, OpReport) {
        let out = eval::mul(ctx, a, b, rlk, Backend::Hps(HpsPrecision::Fixed));
        (out, self.run_mult(ctx))
    }

    /// Executes a real addition with its timing report.
    pub fn execute_add(
        &self,
        ctx: &FvContext,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> (Ciphertext, OpReport) {
        (eval::add(ctx, a, b), self.run_add())
    }
}

/// Prices a microcode sequence on the traditional polynomial datapath:
/// RPAU instructions at the non-HPS clock plus key DMA and sync, with
/// `Lift`/`Scale` skipped (the traditional architecture runs those on its
/// dedicated long-integer cores, priced separately).
fn trad_poly_us(ops: &[Op], model: &TradCostModel, dma: &DmaModel, clocks: &ClockConfig) -> f64 {
    let mut fpga = 0u64;
    let mut rlk_us = 0.0;
    let mut sync_us = 0.0;
    for op in ops {
        match *op {
            Op::Instr(Instr::Lift) | Op::Instr(Instr::Scale) => {}
            Op::Instr(i) => fpga += model.poly.instr_cycles(i),
            Op::RlkDma { bytes } => rlk_us += dma.transfer_us(bytes, 1) + dma.mutex_sync_us,
            Op::SyncUs(us) => sync_us += us,
        }
    }
    clocks.fpga_cycles_to_us(fpga) + rlk_us + sync_us
}

/// Timing of one `Mult` on the traditional-CRT coprocessor (§VI-C):
/// 225 MHz, four parallel single-core `Lift`/`Scale` units (the four lifts
/// run concurrently, as do the three scales), smaller relinearization key.
pub fn trad_mult_us(model: &TradCostModel, dma: &DmaModel, clocks: &ClockConfig) -> f64 {
    // Phase 1: four lifts in parallel across the four cores.
    let lift_us = clocks.fpga_cycles_to_us(model.lift_cycles());
    // Phase 3: three scales in parallel.
    let scale_us = clocks.fpga_cycles_to_us(model.scale_cycles());
    // Polynomial instructions: same microcode minus Lift/Scale.
    let ops = mult_microcode(6, 7, model.relin_digits, 7, model.poly.n, MULT_SYNC_US);
    lift_us + scale_us + trad_poly_us(&ops, model, dma, clocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::POLY_BYTES;
    use hefv_core::params::FvParams;

    fn paper_ops() -> Vec<Op> {
        mult_microcode(6, 7, 6, 7, 4096, 19.64)
    }

    #[test]
    fn microcode_call_counts_match_table2() {
        let ops = paper_ops();
        let mut counts: HashMap<Instr, u32> = HashMap::new();
        for op in &ops {
            if let Op::Instr(i) = op {
                *counts.entry(*i).or_insert(0) += 1;
            }
        }
        assert_eq!(counts[&Instr::Ntt], 14);
        assert_eq!(counts[&Instr::InverseNtt], 8);
        assert_eq!(counts[&Instr::CoeffMul], 20);
        assert_eq!(counts[&Instr::CoeffAdd], 26);
        assert_eq!(counts[&Instr::MemoryRearrange], 22);
        assert_eq!(counts[&Instr::Lift], 4);
        assert_eq!(counts[&Instr::Scale], 3);
    }

    #[test]
    fn rlk_dma_totals_paper_key_size() {
        // 6 digits × 2 polys × (6 residues × 4096 × 4 B) = 1,179,648 bytes.
        let ops = paper_ops();
        let bytes: usize = ops
            .iter()
            .filter_map(|o| match o {
                Op::RlkDma { bytes } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(bytes, 12 * POLY_BYTES / 2 * 2);
        assert_eq!(bytes, 1_179_648);
    }

    #[test]
    fn mult_time_matches_table1() {
        let cop = Coprocessor::default();
        let ctx = FvContext::new(FvParams::hpca19()).unwrap();
        let r = cop.run_mult(&ctx);
        // Paper: 5,349,567 Arm cycles = 4.458 ms.
        let ratio = r.total_arm_cycles as f64 / 5_349_567.0;
        assert!(
            (0.99..=1.01).contains(&ratio),
            "Mult arm cycles {} (ratio {ratio:.4})",
            r.total_arm_cycles
        );
        // ~30% of the time is relinearization data transfer (§VI-A).
        let frac = r.rlk_dma_us / r.total_us;
        assert!(
            (0.20..=0.35).contains(&frac),
            "rlk transfer fraction {frac:.2}"
        );
    }

    #[test]
    fn add_time_matches_table1() {
        let cop = Coprocessor::default();
        let r = cop.run_add();
        let ratio = r.total_arm_cycles as f64 / 31_339.0;
        assert!((0.99..=1.01).contains(&ratio), "Add {}", r.total_arm_cycles);
    }

    #[test]
    fn executed_mult_is_bit_exact_and_timed() {
        use hefv_core::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let pa = Plaintext::new(vec![1, 1], ctx.params().t, ctx.params().n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        let cop = Coprocessor::default();
        let (prod, report) = cop.execute_mult(&ctx, &ca, &ca, &rlk);
        assert_eq!(decrypt(&ctx, &sk, &prod).coeffs()[..3], [1, 0, 1]); // t=2: 1+2x+x² ≡ 1+x²
        let sw = eval::mul(&ctx, &ca, &ca, &rlk, Backend::Hps(HpsPrecision::Fixed));
        assert_eq!(prod, sw, "simulator result bit-exact vs library");
        assert!(report.total_us > 0.0);
    }

    #[test]
    fn rotation_costs_less_than_mult_more_than_add() {
        // The extension op's price must sit between the primitives it is
        // built from: no tensor/lift/scale, but a full key-switch SoP.
        let cop = Coprocessor::default();
        let ctx = FvContext::new(FvParams::hpca19()).unwrap();
        let rot = cop.run_rotate(&ctx);
        let mult = cop.run_mult(&ctx);
        let add = cop.run_add();
        assert!(rot.total_us < mult.total_us);
        assert!(rot.total_us > 10.0 * add.total_us);
        // Rotation ≈ the relinearization tail of Mult, but over the
        // Galois keys' grouped digits: `d/k` of the relinearization key's
        // DMA volume.
        let share = ctx.galois_digits() as f64 / ctx.params().k() as f64;
        assert!(share < 1.0, "Galois keys group primes");
        assert!((rot.rlk_dma_us - share * mult.rlk_dma_us).abs() < 1e-9 * mult.rlk_dma_us);
    }

    #[test]
    fn hoisting_amortizes_the_decomposition() {
        let cop = Coprocessor::default();
        let ctx = FvContext::new(FvParams::hpca19()).unwrap();
        let one = cop.run_hoisted_rotations(&ctx, 1).total_us;
        let eight = cop.run_hoisted_rotations(&ctx, 8).total_us;
        let per_rotation = cop.run_rotate(&ctx).total_us;
        // The marginal hoisted rotation must be strictly cheaper than a
        // full rotation (no re-decomposition, no re-transform of digits).
        let marginal = (eight - one) / 7.0;
        assert!(
            marginal < per_rotation,
            "marginal {marginal} vs full {per_rotation}"
        );
        // And eight hoisted rotations beat eight independent ones.
        assert!(eight < 8.0 * per_rotation);
        // A batch of one costs at most one per-rotation key switch plus
        // bookkeeping (same instruction classes).
        assert!(one < 1.5 * per_rotation);
    }

    #[test]
    fn hoisted_sum_slots_trades_transforms_for_key_dma() {
        // The grouped hoisted fold amortizes the decomposition transforms
        // (6 decompositions instead of 12) but streams the subset-product
        // keys (18 instead of 12): transform calls shrink while DMA time
        // grows.
        let cop = Coprocessor::default();
        let ctx = FvContext::new(FvParams::hpca19()).unwrap();
        let rounds = (ctx.params().n / 2).trailing_zeros() as f64 + 1.0;
        let sum = cop.run_sum_slots(&ctx);
        let rot = cop.run_rotate(&ctx);
        let calls = |r: &OpReport, i: Instr| r.calls.get(i.name()).copied().unwrap_or(0);
        for transform in [Instr::Ntt, Instr::InverseNtt] {
            assert!(
                f64::from(calls(&sum, transform)) < rounds * f64::from(calls(&rot, transform)),
                "hoisting must amortize {transform:?} calls"
            );
        }
        // Rotations never lift or scale.
        assert_eq!(calls(&sum, Instr::Lift) + calls(&sum, Instr::Scale), 0);
        assert!(
            sum.rlk_dma_us > rounds * rot.rlk_dma_us,
            "subset-product keys stream more DMA"
        );
    }

    #[test]
    fn trad_mult_matches_section_6c() {
        // Paper: 8.3 ms per Mult on the non-HPS coprocessor at 225 MHz.
        let us = trad_mult_us(
            &TradCostModel::default(),
            &DmaModel::default(),
            &ClockConfig::non_hps(),
        );
        let ms = us / 1000.0;
        assert!(
            (7.6..=9.0).contains(&ms),
            "traditional Mult modeled at {ms:.2} ms vs paper 8.3 ms"
        );
    }

    #[test]
    fn trad_is_roughly_2x_slower_than_hps() {
        let cop = Coprocessor::default();
        let ctx = FvContext::new(FvParams::hpca19()).unwrap();
        let fast_ms = cop.run_mult(&ctx).total_us / 1000.0;
        let slow_ms = trad_mult_us(
            &TradCostModel::default(),
            &DmaModel::default(),
            &ClockConfig::non_hps(),
        ) / 1000.0;
        let ratio = slow_ms / fast_ms;
        // §VI-C: "the time for Mult is less than 2x slower".
        assert!((1.5..=2.1).contains(&ratio), "ratio {ratio:.2}");
    }
}
