//! Fully functional coprocessor: executes an entire homomorphic `Mult`
//! through the hardware unit models — the Fig. 3 schedule-driven NTTs, the
//! RPAU coefficient datapaths with sliding-window reduction, and the
//! Fig. 6/9 block-pipelined `Lift`/`Scale` units — producing both the
//! result ciphertext and per-unit datapath cycle counts.
//!
//! This is the strongest form of the reproduction claim: the *same bytes*
//! the software library computes come out of the microarchitectural
//! model, for the whole multiplication, not just per kernel. The test
//! suite pins `execute_mult` bit-for-bit against
//! `hefv_core::eval::mul(…, Backend::Hps(Fixed))`.

use crate::bram::PolyMem;
use crate::liftsim::{HpsLiftUnit, HpsScaleUnit};
use crate::rpau::RpauArray;
use hefv_core::context::FvContext;
use hefv_core::encrypt::Ciphertext;
use hefv_core::keys::RelinKey;
use hefv_core::rnspoly::{Domain, RnsPoly};
use serde::{Deserialize, Serialize};

/// Datapath cycles accumulated per unit class during one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatapathTrace {
    /// NTT + inverse-NTT cycles (per batch, max over lanes in a batch).
    pub transform: u64,
    /// Coefficient-wise multiply/add/sub cycles.
    pub coeffwise: u64,
    /// Memory-rearrange cycles.
    pub rearrange: u64,
    /// Lift/scale block-pipeline cycles (two cores assumed).
    pub liftscale: u64,
}

impl DatapathTrace {
    /// Total datapath cycles.
    pub fn total(&self) -> u64 {
        self.transform + self.coeffwise + self.rearrange + self.liftscale
    }
}

/// The functional coprocessor: unit models bound to one FV context.
pub struct FunctionalCoprocessor<'a> {
    ctx: &'a FvContext,
    lanes: RpauArray,
    lift: HpsLiftUnit,
    scale: HpsScaleUnit,
    /// Lift/Scale cores (2 in the paper's fast design).
    pub lift_cores: usize,
}

impl<'a> FunctionalCoprocessor<'a> {
    /// Builds the unit models for a context.
    pub fn new(ctx: &'a FvContext) -> Self {
        let primes: Vec<u64> = ctx
            .params()
            .q_primes
            .iter()
            .chain(&ctx.params().p_primes)
            .copied()
            .collect();
        let sc = ctx.scale();
        FunctionalCoprocessor {
            ctx,
            lanes: RpauArray::new(&primes, ctx.params().n),
            lift: HpsLiftUnit::from_extender(ctx.rns().lift()),
            scale: HpsScaleUnit::new(ctx.rns(), sc),
            lift_cores: 2,
        }
    }

    fn to_mems(poly: &RnsPoly) -> Vec<PolyMem> {
        poly.rows().map(PolyMem::load).collect()
    }

    fn from_mems(mems: Vec<PolyMem>, domain: Domain) -> RnsPoly {
        RnsPoly::from_residues(
            mems.into_iter().map(|m| m.coeffs().to_vec()).collect(),
            domain,
        )
    }

    /// Rearrange + forward NTT of `k` rows, charging batch cycles.
    fn transform_rows(&self, mems: &mut [PolyMem], trace: &mut DatapathTrace) {
        let k = mems.len();
        let batches = self.lanes.batches(k) as u64;
        let mut per_lane_t = 0u64;
        let mut per_lane_r = 0u64;
        for (i, mem) in mems.iter_mut().enumerate() {
            per_lane_r = self.lanes.lane(i).rearrange(mem);
            // Undo the rearrange before transforming: the instruction
            // stream pairs each transform with a rearrange of the
            // *output* layout; functionally the schedule operates on
            // natural order, so rearrange twice (cycle cost charged once,
            // as in the microcode).
            self.lanes.lane(i).rearrange(mem);
            per_lane_t = self.lanes.lane(i).ntt(mem, &self.ctx.ntt_full()[i]);
        }
        trace.transform += batches * per_lane_t;
        trace.rearrange += batches * per_lane_r;
    }

    fn inverse_rows(&self, mems: &mut [PolyMem], trace: &mut DatapathTrace) {
        let k = mems.len();
        let batches = self.lanes.batches(k) as u64;
        let mut per_lane = 0u64;
        for (i, mem) in mems.iter_mut().enumerate() {
            per_lane = self.lanes.lane(i).intt(mem, &self.ctx.ntt_full()[i]);
            let r = self.lanes.lane(i).rearrange(mem);
            self.lanes.lane(i).rearrange(mem);
            trace.rearrange += if i == 0 { batches * r } else { 0 };
        }
        trace.transform += batches * per_lane;
    }

    /// `Lift q→Q` of one polynomial: returns all rows of the full basis.
    fn lift_poly(&self, poly: &RnsPoly, trace: &mut DatapathTrace) -> Vec<PolyMem> {
        let (ext, cycles_one_core) = self.lift.lift_poly(&poly.to_rows());
        trace.liftscale += cycles_one_core / self.lift_cores as u64;
        let mut mems = Self::to_mems(poly);
        mems.extend(ext.iter().map(|r| PolyMem::load(r)));
        mems
    }

    /// Executes a full homomorphic multiplication through the unit
    /// models; returns the ciphertext and the datapath trace.
    pub fn execute_mult(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinKey,
    ) -> (Ciphertext, DatapathTrace) {
        let ctx = self.ctx;
        let k = ctx.params().k();
        let full = k + ctx.params().l();
        let mut trace = DatapathTrace::default();

        // Step 1: lift all four operand polynomials.
        let mut l00 = self.lift_poly(a.c0(), &mut trace);
        let mut l01 = self.lift_poly(a.c1(), &mut trace);
        let mut l10 = self.lift_poly(b.c0(), &mut trace);
        let mut l11 = self.lift_poly(b.c1(), &mut trace);

        // Step 2: transforms and tensor products.
        self.transform_rows(&mut l00, &mut trace);
        self.transform_rows(&mut l01, &mut trace);
        self.transform_rows(&mut l10, &mut trace);
        self.transform_rows(&mut l11, &mut trace);

        let mut t0 = Vec::with_capacity(full);
        let mut t1 = Vec::with_capacity(full);
        let mut t2 = Vec::with_capacity(full);
        let batches_full = self.lanes.batches(full) as u64;
        let mut cw = 0u64;
        for i in 0..full {
            let lane = self.lanes.lane(i);
            let (p0, c) = lane.cwm(&l00[i], &l10[i]);
            cw = c;
            let (mut p1, _) = lane.cwm(&l00[i], &l11[i]);
            lane.cwm_acc(&mut p1, &l01[i], &l10[i]);
            let (p2, _) = lane.cwm(&l01[i], &l11[i]);
            t0.push(p0);
            t1.push(p1);
            t2.push(p2);
        }
        // 4 CWM batches + 1 CWA-equivalent batch per Fig. 2 (the MAC
        // performs the addition).
        trace.coeffwise += batches_full * cw * 5;

        // Step 3: inverse transforms and Scale.
        self.inverse_rows(&mut t0, &mut trace);
        self.inverse_rows(&mut t1, &mut trace);
        self.inverse_rows(&mut t2, &mut trace);
        let scale_one = |mems: &Vec<PolyMem>, trace: &mut DatapathTrace| -> Vec<PolyMem> {
            let rows: Vec<Vec<u64>> = mems.iter().map(|m| m.coeffs().to_vec()).collect();
            let (out, cycles_one_core) = self.scale.scale_poly(&rows);
            trace.liftscale += cycles_one_core / self.lift_cores as u64;
            out.iter().map(|r| PolyMem::load(r)).collect()
        };
        let d0 = scale_one(&t0, &mut trace);
        let d1 = scale_one(&t1, &mut trace);
        let d2 = scale_one(&t2, &mut trace);

        // Step 4: WordDecomp + ReLin.
        let n = ctx.params().n;
        let mut acc0: Vec<PolyMem> = (0..k).map(|_| PolyMem::load(&vec![0u64; n])).collect();
        let mut acc1: Vec<PolyMem> = (0..k).map(|_| PolyMem::load(&vec![0u64; n])).collect();
        let batches_q = self.lanes.batches(k) as u64;
        for (digit, d2_row) in d2.iter().enumerate() {
            // Spread the digit row across the q lanes (the 2 CWA-class
            // passes of the microcode).
            let spread = ctx.spread_digit(d2_row.coeffs());
            let mut digit_mems: Vec<PolyMem> = spread.chunks(n).map(PolyMem::load).collect();
            trace.coeffwise += 2 * batches_q * (n as u64 / 2);
            self.transform_rows(&mut digit_mems, &mut trace);
            let (rlk0, rlk1) = (rlk.rlk0(digit), rlk.rlk1(digit));
            for i in 0..k {
                let lane = self.lanes.lane(i);
                let r0 = PolyMem::load(rlk0.row(i));
                let r1 = PolyMem::load(rlk1.row(i));
                lane.cwm_acc(&mut acc0[i], &digit_mems[i], &r0);
                lane.cwm_acc(&mut acc1[i], &digit_mems[i], &r1);
            }
            trace.coeffwise += 2 * batches_q * (n as u64 / 2);
        }
        self.inverse_rows(&mut acc0, &mut trace);
        self.inverse_rows(&mut acc1, &mut trace);
        // Final additions c0 = d0 + acc0, c1 = d1 + acc1.
        let mut c0 = Vec::with_capacity(k);
        let mut c1 = Vec::with_capacity(k);
        for i in 0..k {
            let lane = self.lanes.lane(i);
            let (x, c) = lane.cwa(&d0[i], &acc0[i]);
            let (y, _) = lane.cwa(&d1[i], &acc1[i]);
            c0.push(x);
            c1.push(y);
            if i == 0 {
                trace.coeffwise += 2 * batches_q * c;
            }
        }

        let out = Ciphertext::from_parts(
            Self::from_mems(c0, Domain::Coefficient),
            Self::from_mems(c1, Domain::Coefficient),
        );
        (out, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hefv_core::eval::{self, Backend};
    use hefv_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (FvContext, SecretKey, PublicKey, RelinKey, StdRng) {
        let ctx = FvContext::new(FvParams::insecure_medium()).unwrap();
        let mut rng = StdRng::seed_from_u64(314);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        (ctx, sk, pk, rlk, rng)
    }

    #[test]
    fn functional_mult_is_bit_exact_vs_library() {
        let (ctx, sk, pk, rlk, mut rng) = setup();
        let pa = Plaintext::new(vec![1, 0, 1, 1], 2, ctx.params().n);
        let pb = Plaintext::new(vec![1, 1], 2, ctx.params().n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        let cb = encrypt(&ctx, &pk, &pb, &mut rng);

        let func = FunctionalCoprocessor::new(&ctx);
        let (hw, trace) = func.execute_mult(&ca, &cb, &rlk);
        let sw = eval::mul(&ctx, &ca, &cb, &rlk, Backend::Hps(HpsPrecision::Fixed));
        assert_eq!(hw, sw, "functional coprocessor bit-exact vs library");
        assert!(trace.total() > 0);
        // The result decrypts correctly too.
        let expect = eval::mul(&ctx, &ca, &cb, &rlk, Backend::Traditional);
        assert_eq!(decrypt(&ctx, &sk, &hw), decrypt(&ctx, &sk, &expect));
    }

    #[test]
    fn trace_composition_matches_structural_model() {
        // For n=256, k=6, l=7, 7 RPAUs: transforms are 22 batch calls
        // (14 NTT + 8 INTT); each batch is log2(n)·n/4 (+ n/4 for
        // inverse scaling pass) cycles.
        let (ctx, _, pk, rlk, mut rng) = setup();
        let n = ctx.params().n as u64;
        let pa = Plaintext::new(vec![1], 2, ctx.params().n);
        let ca = encrypt(&ctx, &pk, &pa, &mut rng);
        let func = FunctionalCoprocessor::new(&ctx);
        let (_, trace) = func.execute_mult(&ca, &ca, &rlk);

        let stages = n.trailing_zeros() as u64;
        let fwd = stages * n / 4; // per batch
        let inv = stages * n / 4 + n / 4;
        // NTT batches: 4 polys × 2 + 6 digits × 1 = 14; INTT: 3×2 + 2 = 8.
        assert_eq!(trace.transform, 14 * fwd + 8 * inv);
        // Lift: 4 polys; Scale: 3 — each (fill + n·II)/2 or the scale
        // variant with doubled fill.
        let lift_one = (5 * 7 + n * 7) / 2;
        let scale_one = (2 * 5 * 7 + n * 7) / 2;
        assert_eq!(trace.liftscale, 4 * lift_one + 3 * scale_one);
        // Rearranges: one per transform batch = 22 × n.
        assert_eq!(trace.rearrange, 22 * n);
    }

    #[test]
    fn functional_mult_random_messages() {
        let (ctx, sk, pk, rlk, mut rng) = setup();
        use rand::Rng;
        let func = FunctionalCoprocessor::new(&ctx);
        for _ in 0..2 {
            let coeffs: Vec<u64> = (0..6).map(|_| rng.gen_range(0..2)).collect();
            let pt = Plaintext::new(coeffs, 2, ctx.params().n);
            let ca = encrypt(&ctx, &pk, &pt, &mut rng);
            let (hw, _) = func.execute_mult(&ca, &ca, &rlk);
            let sw = eval::mul(&ctx, &ca, &ca, &rlk, Backend::Hps(HpsPrecision::Fixed));
            assert_eq!(hw, sw);
            let _ = decrypt(&ctx, &sk, &hw);
        }
    }
}
