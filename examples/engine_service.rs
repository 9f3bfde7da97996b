//! Multi-tenant evaluation-engine service demo.
//!
//! Two tenants share one engine. Each registers its own key material, then
//! drives the engine concurrently with (a) op-graph jobs over its own
//! encrypted inputs and (b) scalar products it packs into SIMD slots
//! itself with `BatchEncoder`: one encrypted `Mul` computes all of them.
//! The engine only ever sees ciphertexts. Every result is decrypted with
//! the owning tenant's secret key and checked against the plaintext
//! reference.
//!
//! Run with: `cargo run --release --example engine_service`

use hefv::core::encoder::BatchEncoder;
use hefv::core::galois::GaloisKeySet;
use hefv::core::prelude::*;
use hefv::engine::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

struct Tenant {
    id: TenantId,
    sk: SecretKey,
    pk: PublicKey,
}

fn main() -> Result<(), String> {
    // SIMD-friendly small parameters: t = 7681 ≡ 1 (mod 2n) for n = 256.
    let mut params = FvParams::insecure_medium();
    params.t = 7681;
    let t = params.t;
    let ctx = Arc::new(FvContext::new(params)?);
    let engine = Engine::start(
        Arc::clone(&ctx),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    );
    let encoder = BatchEncoder::new(t, ctx.params().n)?;
    println!(
        "engine: {} workers over n={}, t={} ({} SIMD slots)",
        engine.workers(),
        ctx.params().n,
        t,
        encoder.slots()
    );

    // --- Tenant onboarding: independent keys, one registry. -------------
    let mut rng = StdRng::seed_from_u64(2026);
    let tenants: Vec<Tenant> = (1..=2)
        .map(|id| {
            let (sk, pk, rlk) = keygen(&ctx, &mut rng);
            let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
            engine.register_tenant(id, TenantKeys::full(pk.clone(), rlk, galois));
            Tenant { id, sk, pk }
        })
        .collect();
    println!("registered {} tenants", engine.registry().len());

    // --- Concurrent op-graph jobs: (a·b) + c per tenant. ----------------
    let mut expected = Vec::new();
    let mut handles = Vec::new();
    for tenant in &tenants {
        for (a, b, c) in [(2u64, 3, 4), (5, 6, 7), (100, 200, 300)] {
            let n = ctx.params().n;
            let mut enc = |v| encrypt(&ctx, &tenant.pk, &Plaintext::new(vec![v], t, n), &mut rng);
            let req = EvalRequest {
                tenant: tenant.id,
                inputs: vec![enc(a), enc(b), enc(c)],
                plaintexts: vec![],
                ops: vec![
                    EvalOp::Mul(ValRef::Input(0), ValRef::Input(1)),
                    EvalOp::Add(ValRef::Op(0), ValRef::Input(2)),
                ],
                deadline_us: None,
                trace_id: None,
            };
            expected.push((tenant.id, (a * b + c) % t));
            handles.push(engine.submit(req).map_err(String::from)?);
        }
    }
    for ((tenant_id, expect), handle) in expected.into_iter().zip(handles) {
        let resp = handle.wait().map_err(String::from)?;
        let tenant = tenants.iter().find(|t| t.id == tenant_id).unwrap();
        let got = decrypt(&ctx, &tenant.sk, &resp.result).coeffs()[0];
        assert_eq!(got, expect, "tenant {tenant_id}");
        println!(
            "tenant {tenant_id}: a·b+c = {got:>6}  worker {}  est {:>8.1} µs  noise {:>4.1} bits",
            resp.report.worker, resp.report.est_cost_us, resp.report.noise_bits_consumed
        );
    }

    // --- Client-side packing: each tenant's 8 products in one Mul. -------
    let mut packed = Vec::new();
    for tenant in &tenants {
        let lhs: Vec<u64> = (0..8).map(|i| 10 + i + tenant.id).collect();
        let rhs: Vec<u64> = (0..8).map(|i| 20 + 2 * i).collect();
        let want: Vec<u64> = lhs.iter().zip(&rhs).map(|(a, b)| a * b % t).collect();
        let mut enc = |v: &[u64]| encrypt(&ctx, &tenant.pk, &encoder.encode(v), &mut rng);
        let req = EvalRequest::binary(tenant.id, EvalOp::Mul, enc(&lhs), enc(&rhs));
        packed.push((tenant, want, engine.submit(req).map_err(String::from)?));
    }
    for (tenant, want, handle) in packed {
        let resp = handle.wait().map_err(String::from)?;
        let slots = encoder.decode(&decrypt(&ctx, &tenant.sk, &resp.result));
        for (slot, expect) in want.iter().enumerate() {
            assert_eq!(slots[slot], *expect, "tenant {} slot {slot}", tenant.id);
        }
    }
    println!("16 scalar products verified: 8 per tenant, one packed Mul each");

    println!("\n--- engine telemetry ---\n{}", engine.stats());
    engine.shutdown();
    Ok(())
}
