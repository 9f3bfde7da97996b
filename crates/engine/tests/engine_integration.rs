//! End-to-end engine tests: multi-tenant isolation, concurrent traffic,
//! and slot-wise ops on ciphertexts the client packed with `BatchEncoder`.

use hefv_core::encoder::BatchEncoder;
use hefv_core::eval;
use hefv_core::galois::GaloisKeySet;
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn enc(ctx: &FvContext, pk: &PublicKey, v: u64, rng: &mut StdRng) -> Ciphertext {
    let (t, n) = (ctx.params().t, ctx.params().n);
    encrypt(ctx, pk, &Plaintext::new(vec![v], t, n), rng)
}

#[test]
fn tenant_keys_never_cross() {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let engine = Engine::start(Arc::clone(&ctx), EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(1001);
    let (sk_a, pk_a, rlk_a) = keygen(&ctx, &mut rng);
    let (sk_b, pk_b, rlk_b) = keygen(&ctx, &mut rng);
    engine.register_tenant(1, TenantKeys::compute(pk_a.clone(), rlk_a));
    engine.register_tenant(2, TenantKeys::compute(pk_b.clone(), rlk_b));

    let make_req = |tenant, pk: &PublicKey, rng: &mut StdRng| {
        EvalRequest::binary(
            tenant,
            EvalOp::Mul,
            enc(&ctx, pk, 2, rng),
            enc(&ctx, pk, 3, rng),
        )
    };

    // Each tenant's job, evaluated with its own rlk, decrypts correctly
    // under its own secret key.
    let ra = engine.call(make_req(1, &pk_a, &mut rng)).unwrap();
    assert_eq!(decrypt(&ctx, &sk_a, &ra.result).coeffs()[0], 6);
    let rb = engine.call(make_req(2, &pk_b, &mut rng)).unwrap();
    assert_eq!(decrypt(&ctx, &sk_b, &rb.result).coeffs()[0], 6);

    // A job submitted under tenant 2 but carrying tenant 1's ciphertexts
    // is relinearized with tenant 2's key: the full decrypted polynomial
    // under either secret key is garbage, not the true product.
    let cross = engine.call(make_req(2, &pk_a, &mut rng)).unwrap();
    let expected: Vec<u64> = {
        let correct = engine.call(make_req(1, &pk_a, &mut rng)).unwrap();
        decrypt(&ctx, &sk_a, &correct.result).coeffs().to_vec()
    };
    assert_ne!(
        decrypt(&ctx, &sk_a, &cross.result).coeffs(),
        &expected[..],
        "tenant 2's rlk must not produce tenant 1's result"
    );

    // Unknown tenants are rejected before queueing; tenants without the
    // needed key class are rejected with a precise error.
    let err = engine
        .submit(make_req(99, &pk_a, &mut rng))
        .expect_err("unregistered tenant");
    assert_eq!(err, EngineError::UnknownTenant(99));

    engine.register_tenant(3, TenantKeys::default());
    let err = engine
        .submit(make_req(3, &pk_a, &mut rng))
        .expect_err("tenant 3 has no rlk");
    assert_eq!(
        err,
        EngineError::MissingKey {
            tenant: 3,
            which: "relin"
        }
    );
    engine.shutdown();
}

#[test]
fn concurrent_multi_tenant_traffic_stays_correct() {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let engine = Engine::start(
        Arc::clone(&ctx),
        EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(1002);
    let t = ctx.params().t;
    let tenants: Vec<(u64, SecretKey, PublicKey)> = (1..=2)
        .map(|id| {
            let (sk, pk, rlk) = keygen(&ctx, &mut rng);
            engine.register_tenant(id, TenantKeys::compute(pk.clone(), rlk));
            (id, sk, pk)
        })
        .collect();

    // Interleave adds and muls from both tenants, then collect.
    let mut pending = Vec::new();
    for i in 0..12u64 {
        let (id, _, pk) = &tenants[(i % 2) as usize];
        let (a, b) = (i % t, (i + 3) % t);
        let op: fn(ValRef, ValRef) -> EvalOp = if i % 3 == 0 { EvalOp::Mul } else { EvalOp::Add };
        let req = EvalRequest::binary(
            *id,
            op,
            enc(&ctx, pk, a, &mut rng),
            enc(&ctx, pk, b, &mut rng),
        );
        let expect = if i % 3 == 0 { a * b % t } else { (a + b) % t };
        pending.push((i, expect, engine.submit(req).unwrap()));
    }
    for (i, expect, handle) in pending {
        let resp = handle.wait().unwrap();
        let (_, sk, _) = &tenants[(i % 2) as usize];
        assert_eq!(
            decrypt(&ctx, sk, &resp.result).coeffs()[0],
            expect,
            "job {i}"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.jobs_completed, 12);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.per_op.iter().any(|o| o.name == "mul" && o.count == 4));
    assert!(stats.per_op.iter().any(|o| o.name == "add" && o.count == 8));
    engine.shutdown();
}

/// Every `Mul` runs `eval::mul_in` on its worker's recycled arena: the
/// engine's ciphertexts must equal the allocating core ops bit for bit
/// on any worker count, with `MulPlain` jobs of another buffer shape
/// interleaved so every arena is reused across shapes.
#[test]
fn engine_mul_is_bit_identical_to_core_on_every_worker_count() {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_medium()).unwrap());
    let mut rng = StdRng::seed_from_u64(1010);
    let (_, pk, rlk) = keygen(&ctx, &mut rng);
    let (t, n) = (ctx.params().t, ctx.params().n);
    let cts: Vec<Ciphertext> = (0..5).map(|v| enc(&ctx, &pk, v, &mut rng)).collect();
    let mask = Plaintext::new(vec![1, 0, 1], t, n);
    let jobs: Vec<(EvalRequest, Ciphertext)> = (0..12)
        .map(|i| {
            let (a, b) = (&cts[i % 5], &cts[(i + 2) % 5]);
            if i % 3 == 2 {
                let req = EvalRequest {
                    tenant: 1,
                    inputs: vec![a.clone(), b.clone()],
                    plaintexts: vec![mask.clone()],
                    ops: vec![
                        EvalOp::MulPlain(ValRef::Input(0), 0),
                        EvalOp::Add(ValRef::Op(0), ValRef::Input(1)),
                    ],
                    deadline_us: None,
                    trace_id: None,
                };
                let want = eval::add(&ctx, &eval::mul_plain(&ctx, a, &mask), b);
                (req, want)
            } else {
                let req = EvalRequest::binary(1, EvalOp::Mul, a.clone(), b.clone());
                (req, eval::mul(&ctx, a, b, &rlk, Backend::default()))
            }
        })
        .collect();

    for workers in [1, 3] {
        let engine = Engine::start(
            Arc::clone(&ctx),
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
        );
        engine.register_tenant(1, TenantKeys::compute(pk.clone(), rlk.clone()));
        let handles: Vec<JobHandle> = jobs
            .iter()
            .map(|(req, _)| engine.submit(req.clone()).unwrap())
            .collect();
        for (i, (handle, (_, want))) in handles.into_iter().zip(&jobs).enumerate() {
            let got = handle.wait().unwrap().result;
            assert_eq!(&got, want, "workers {workers}, job {i}");
        }
        assert_eq!(engine.stats().jobs_completed, jobs.len() as u64);
        engine.shutdown();
    }
}

#[test]
fn galois_ops_run_through_the_engine() {
    // t = 7681 ≡ 1 (mod 512) is SIMD-friendly for n = 256. The client
    // packs the slots itself; the engine sees only ciphertexts (and, for
    // MulPlain, a packed plaintext operand).
    let mut params = FvParams::insecure_medium();
    params.t = 7681;
    let t = params.t;
    let ctx = Arc::new(FvContext::new(params).unwrap());
    let engine = Engine::start(Arc::clone(&ctx), EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(1003);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
    engine.register_tenant(1, TenantKeys::full(pk.clone(), rlk, galois));
    // MulPlain needs no relinearization key at all.
    engine.register_tenant(2, TenantKeys::encrypt_only(pk.clone()));

    let encdr = BatchEncoder::new(t, ctx.params().n).unwrap();
    let vals: Vec<u64> = (0..encdr.slots() as u64).collect();
    let ct = encrypt(&ctx, &pk, &encdr.encode(&vals), &mut rng);
    let req = EvalRequest {
        tenant: 1,
        inputs: vec![ct],
        plaintexts: vec![],
        ops: vec![EvalOp::SumSlots(ValRef::Input(0))],
        deadline_us: None,
        trace_id: None,
    };
    let resp = engine.call(req).unwrap();
    let sum: u64 = vals.iter().sum::<u64>() % t;
    let slots = encdr.decode(&decrypt(&ctx, &sk, &resp.result));
    assert!(slots.iter().all(|&s| s == sum), "every slot holds the sum");
    assert!(resp.report.noise_bits_consumed > 0.0);

    // Slot-wise products of random packed vectors: `Mul` of two
    // ciphertexts, and `MulPlain` with the right operand in clear.
    let random = |rng: &mut StdRng| -> Vec<u64> {
        (0..encdr.slots()).map(|_| rng.gen_range(0..t)).collect()
    };
    let (a, b) = (random(&mut rng), random(&mut rng));
    let want: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x * y % t).collect();
    let ct_a = encrypt(&ctx, &pk, &encdr.encode(&a), &mut rng);
    let ct_b = encrypt(&ctx, &pk, &encdr.encode(&b), &mut rng);
    let mul = EvalRequest::binary(1, EvalOp::Mul, ct_a.clone(), ct_b);
    let mul_plain = EvalRequest {
        tenant: 2,
        inputs: vec![ct_a],
        plaintexts: vec![encdr.encode(&b)],
        ops: vec![EvalOp::MulPlain(ValRef::Input(0), 0)],
        deadline_us: None,
        trace_id: None,
    };
    for (name, req) in [("mul", mul), ("mul_plain", mul_plain)] {
        let got = encdr.decode(&decrypt(&ctx, &sk, &engine.call(req).unwrap().result));
        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{name}: slot {slot}");
        }
    }
    engine.shutdown();
}

#[test]
fn hoisted_rotation_batches_run_through_the_engine() {
    // A run of consecutive rotations of the same input executes off one
    // hoisted decomposition; results must be bit-identical to the
    // one-rotation-at-a-time path.
    let mut params = FvParams::insecure_medium();
    params.t = 7681;
    let ctx = Arc::new(FvContext::new(params).unwrap());
    let engine = Engine::start(Arc::clone(&ctx), EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(1007);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
    let exps: Vec<u32> = galois.chain()[..3]
        .iter()
        .map(|&i| galois.keys()[i].g as u32)
        .collect();
    engine.register_tenant(1, TenantKeys::full(pk.clone(), rlk, galois));

    let encdr = BatchEncoder::new(ctx.params().t, ctx.params().n).unwrap();
    let vals: Vec<u64> = (0..encdr.slots() as u64).map(|v| v % 97).collect();
    let ct = encrypt(&ctx, &pk, &encdr.encode(&vals), &mut rng);

    // The hoisted batch: three rotations of input 0, result = the last.
    let batch = EvalRequest::rotations(1, ct.clone(), &exps);
    // The per-op path: each rotation as its own single-op request.
    let single = |g: u32| EvalRequest {
        tenant: 1,
        inputs: vec![ct.clone()],
        plaintexts: vec![],
        ops: vec![EvalOp::Rotate(ValRef::Input(0), g)],
        deadline_us: None,
        trace_id: None,
    };
    // The batch must be priced cheaper than the three independent ops.
    let separate_cost: f64 = exps
        .iter()
        .map(|&g| engine.estimate_cost_us(&single(g)))
        .sum();
    let batch_cost = engine.estimate_cost_us(&batch);
    assert!(
        batch_cost < separate_cost,
        "hoisted batch {batch_cost} vs separate {separate_cost}"
    );
    let batched = engine.call(batch).unwrap();
    let lone = engine.call(single(exps[2])).unwrap();
    assert_eq!(
        batched.result, lone.result,
        "hoisted run bit-identical to the single-rotation path"
    );
    let slots = encdr.decode(&decrypt(&ctx, &sk, &batched.result));
    let mut sorted = slots.clone();
    sorted.sort_unstable();
    let mut expect = vals.clone();
    expect.sort_unstable();
    assert_eq!(sorted, expect, "rotation permutes the slots");
    engine.shutdown();
}
