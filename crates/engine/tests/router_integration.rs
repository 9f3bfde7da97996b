//! Router-level integration tests: a mixed workload on a 2-shard fleet
//! (correct decryptions, fleet cost equal to the estimator's prices),
//! consistent-hash placement stability under shard add/remove, and
//! shard-addressed frame dispatch.

use hefv_core::galois::GaloisKeySet;
use hefv_core::params::FvParams;
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_engine::sched::CostEstimator;
use hefv_engine::wire;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// An n = 1024 ring with three q primes: the full Mult and key-switch
/// paths at a mid-size shape that still runs quickly in debug builds.
/// *Not secure* — testing only.
fn n1024_params() -> FvParams {
    let ps = hefv_math::primes::ntt_primes(30, 1024, 7).expect("7 NTT primes for n=1024");
    FvParams {
        name: "router-n1024".into(),
        n: 1024,
        q_primes: ps[..3].to_vec(),
        p_primes: ps[3..].to_vec(),
        t: 2,
        sigma: 3.2,
    }
}

fn toy_router(n_shards: usize) -> ShardRouter {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let router = ShardRouter::new();
    for i in 0..n_shards {
        router
            .add_shard(ShardSpec {
                name: format!("s{i}"),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }
    router
}

/// A fixed-seed mix of products and 2-rotation key-switch chains from two
/// tenants over a 2-shard fleet: every reply decrypts correctly, every
/// job completes, and the fleet's accumulated simulated cost equals the
/// estimator's price of the workload.
#[test]
fn mixed_workload_decrypts_and_fleet_cost_matches_the_estimator() {
    let ctx = Arc::new(FvContext::new(n1024_params()).unwrap());
    let est = CostEstimator::new(&ctx);
    let mut rng = StdRng::seed_from_u64(0x2019_1024);

    let router = ShardRouter::new();
    for name in ["shard-0", "shard-1"] {
        router
            .add_shard(ShardSpec {
                name: name.into(),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }

    let t = ctx.params().t;
    let n = ctx.params().n;
    // (request, owner's secret key, expected plaintext coefficients).
    let mut jobs = Vec::new();
    for id in 1..=2u64 {
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
        router
            .register_tenant(id, TenantKeys::full(pk.clone(), rlk, galois))
            .unwrap();
        let ct = encrypt(&ctx, &pk, &Plaintext::new(vec![1, 1], t, n), &mut rng);
        // (1+x)² = 1+2x+x² ≡ 1+x² (mod 2).
        let mut square = vec![0u64; n];
        square[0] = 1;
        square[2] = 1;
        let mul = EvalRequest::binary(id, EvalOp::Mul, ct.clone(), ct.clone());
        jobs.push((mul, sk.clone(), square));
        // x → x³ twice maps 1+x to 1+x⁹.
        let mut rotated = vec![0u64; n];
        rotated[0] = 1;
        rotated[9] = 1;
        let chain = EvalRequest {
            tenant: id,
            inputs: vec![ct],
            plaintexts: vec![],
            ops: vec![
                EvalOp::Rotate(ValRef::Input(0), 3),
                EvalOp::Rotate(ValRef::Op(0), 3),
            ],
            deadline_us: None,
            trace_id: None,
        };
        jobs.push((chain, sk, rotated));
    }

    let handles: Vec<_> = jobs
        .iter()
        .map(|(req, _, _)| router.submit(req.clone()).unwrap())
        .collect();
    for ((req, sk, expected), h) in jobs.iter().zip(handles) {
        let got = decrypt(&ctx, sk, &h.wait().unwrap().result);
        assert_eq!(
            got.coeffs(),
            &expected[..],
            "tenant {} op {:?}",
            req.tenant,
            req.ops[0]
        );
    }

    let total = router.stats().total;
    assert_eq!(total.jobs_completed, jobs.len() as u64);
    let priced: f64 = jobs.iter().map(|(req, _, _)| est.request_us(req)).sum();
    assert!(
        (total.sim_cost_us - priced).abs() < 0.1,
        "served cost {:.3} vs priced {priced:.3}",
        total.sim_cost_us
    );
    router.shutdown();
}

#[test]
fn consistent_hash_placement_is_stable_under_shard_changes() {
    let router = toy_router(3);
    let tenants: Vec<u64> = (0..300).collect();
    let before: Vec<ShardId> = tenants
        .iter()
        .map(|&t| router.shard_for(t).unwrap())
        .collect();

    // Adding a shard remaps only the tenants that now land on it.
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let new_shard = router
        .add_shard(ShardSpec {
            name: "s3".into(),
            ctx,
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        })
        .unwrap();
    let mut moved = 0usize;
    for (tenant, &old) in tenants.iter().zip(&before) {
        let now = router.shard_for(*tenant).unwrap();
        if now != old {
            assert_eq!(
                now, new_shard,
                "tenant {tenant} moved {old}->{now}, not to the new shard"
            );
            moved += 1;
        }
    }
    assert!(moved > 0, "a new shard must take over some tenants");
    assert!(
        moved < tenants.len() / 2,
        "only the new shard's arc may remap: {moved}/300 moved"
    );

    // Removing it restores the original placement exactly.
    assert!(router.remove_shard(new_shard));
    let after: Vec<ShardId> = tenants
        .iter()
        .map(|&t| router.shard_for(t).unwrap())
        .collect();
    assert_eq!(after, before, "removal must restore the previous ring");
    router.shutdown();
}

#[test]
fn frames_route_by_shard_address_and_tenant_hash() {
    use hefv_engine::router::RouterConfig;
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    // Single key holder per tenant, so the foreign-shard probe below
    // genuinely finds no keys (default replication would place them on
    // both shards of this two-shard fleet).
    let router = ShardRouter::with_config(RouterConfig {
        key_replicas: 1,
        ..RouterConfig::default()
    });
    for name in ["w0", "w1"] {
        router
            .add_shard(ShardSpec {
                name: name.into(),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(0xF4A3);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let tenant = 11u64;
    let home = router
        .register_tenant(tenant, TenantKeys::compute(pk.clone(), rlk))
        .unwrap();

    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
    let req = EvalRequest::binary(tenant, EvalOp::Add, enc(2, &mut rng), enc(5, &mut rng));

    // Unrouted frame: placed by tenant hash, response stamped with the
    // producing shard.
    let reply = router.dispatch_frame(&wire::encode_request(&req));
    assert_eq!(wire::peek_response_shard(&reply).unwrap(), home as u8);
    match wire::decode_response(&ctx, &reply).unwrap() {
        wire::ResponseFrame::Ok(resp) => {
            assert_eq!(decrypt(&ctx, &sk, &resp.result).coeffs()[0], 7);
        }
        wire::ResponseFrame::Err { message, .. } => panic!("dispatch failed: {message}"),
    }

    // Explicitly addressing the *other* shard is honored — and fails,
    // because the tenant's keys live on its home shard only.
    let other = 1 - home;
    let reply = router.dispatch_frame(&wire::encode_request_for_shard(&req, other));
    match wire::decode_response(&ctx, &reply).unwrap() {
        wire::ResponseFrame::Err { message, .. } => {
            assert!(message.contains("unknown tenant"), "{message}");
        }
        wire::ResponseFrame::Ok(_) => panic!("foreign shard must not hold the tenant's keys"),
    }

    // A frame addressed to a nonexistent shard is a transport error.
    let reply = router.dispatch_frame(&wire::encode_request_for_shard(&req, 200));
    match wire::decode_response(&ctx, &reply).unwrap() {
        wire::ResponseFrame::Err {
            job_id, message, ..
        } => {
            assert_eq!(job_id, u64::MAX);
            assert!(message.contains("unknown shard"), "{message}");
        }
        wire::ResponseFrame::Ok(_) => panic!("unknown shard must not serve"),
    }
    router.shutdown();
}
