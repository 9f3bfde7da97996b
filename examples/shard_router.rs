//! Sharded multi-engine serving: `ShardRouter` placing tenants across
//! engine shards by consistent hashing, with cost-aware scheduling,
//! per-tenant weights, deadlines and the shard-addressed wire seam.
//!
//! Run with: `cargo run --release --example shard_router`

use hefv::core::prelude::*;
use hefv::engine::prelude::*;
use hefv::engine::router::ShardSpec;
use hefv::engine::wire;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), String> {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy())?);
    let t = ctx.params().t;
    let n = ctx.params().n;
    let mut rng = StdRng::seed_from_u64(2019);

    // --- A three-shard fleet over one parameter set. --------------------
    // Each shard prices every job on the HPS cycle model (Table II) and
    // orders its queue by that price.
    let router = ShardRouter::new();
    for name in ["shard-0", "shard-1", "shard-2"] {
        router
            .add_shard(ShardSpec {
                name: name.into(),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
            })
            .map_err(String::from)?;
    }

    // --- Tenants land on shards by consistent hash. ---------------------
    // Tenant 2 is pinned to shard 0 explicitly (overriding the hash);
    // pins go in before key registration so the keys land on the right
    // shard.
    router.pin_tenant(2, 0).map_err(String::from)?;
    struct Tenant {
        id: u64,
        sk: SecretKey,
        pk: PublicKey,
    }
    let tenants: Vec<Tenant> = (1..=6u64)
        .map(|id| {
            let (sk, pk, rlk) = keygen(&ctx, &mut rng);
            let galois = hefv::core::galois::GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
            let shard = router
                .register_tenant(id, TenantKeys::full(pk.clone(), rlk, galois))
                .expect("router has shards");
            println!("tenant {id} -> shard {shard}");
            Tenant { id, sk, pk }
        })
        .collect();

    // Tenant 1 is premium: 4x the fair-share weight.
    router
        .set_tenant_weight(tenants[0].id, 4.0)
        .map_err(String::from)?;

    // --- Mixed traffic: Mult-heavy and rotation-heavy jobs. -------------
    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for tenant in &tenants {
        let enc =
            |v, rng: &mut StdRng| encrypt(&ctx, &tenant.pk, &Plaintext::new(vec![v], t, n), rng);
        // A product with a deadline: served EDF-first once at stake.
        let req = EvalRequest::binary(tenant.id, EvalOp::Mul, enc(3, &mut rng), enc(4, &mut rng))
            .with_deadline(50_000.0);
        expected.push((tenant.id, 12 % t));
        handles.push(router.submit(req).map_err(String::from)?);
        // A rotation chain (key-switch bound).
        let req = EvalRequest {
            tenant: tenant.id,
            inputs: vec![enc(5, &mut rng)],
            plaintexts: vec![],
            ops: vec![
                EvalOp::Rotate(ValRef::Input(0), 3),
                EvalOp::Rotate(ValRef::Op(0), 3),
            ],
            deadline_us: None,
            trace_id: None,
        };
        expected.push((tenant.id, 5));
        handles.push(router.submit(req).map_err(String::from)?);
    }
    for ((tenant_id, expect), handle) in expected.into_iter().zip(handles) {
        let resp = handle.wait().map_err(String::from)?;
        let tenant = tenants.iter().find(|t| t.id == tenant_id).unwrap();
        let got = decrypt(&ctx, &tenant.sk, &resp.result).coeffs()[0];
        assert_eq!(got, expect, "tenant {tenant_id}");
    }
    println!("\nall op-graph jobs verified");

    // --- The wire seam a TCP front-end would use. -----------------------
    let tenant = &tenants[0];
    let enc = |v, rng: &mut StdRng| encrypt(&ctx, &tenant.pk, &Plaintext::new(vec![v], t, n), rng);
    let req = EvalRequest::binary(tenant.id, EvalOp::Add, enc(20, &mut rng), enc(22, &mut rng));
    let frame = wire::encode_request(&req); // unrouted: router places it
    let reply = router.dispatch_frame(&frame);
    let shard = wire::peek_response_shard(&reply).map_err(String::from)?;
    match wire::decode_response(&ctx, &reply).map_err(String::from)? {
        wire::ResponseFrame::Ok(resp) => {
            let got = decrypt(&ctx, &tenant.sk, &resp.result).coeffs()[0];
            println!("frame dispatch -> shard {shard}, result {got}");
            assert_eq!(got, 42 % t);
        }
        wire::ResponseFrame::Err { message, .. } => return Err(message),
    }

    // --- Fleet telemetry. ----------------------------------------------
    println!("\n{}", router.stats());
    router.shutdown();
    Ok(())
}
