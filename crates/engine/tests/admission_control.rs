//! Admission-control integration tests: every gate in
//! [`SheddingPolicy`] refuses at the door — before a job mints queue
//! state or touches a worker — with the right typed [`ErrorCode`], and
//! the refusals show up in the `hefv_shed_total` accounting.

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn enc(ctx: &FvContext, pk: &PublicKey, v: u64, rng: &mut StdRng) -> Ciphertext {
    let (t, n) = (ctx.params().t, ctx.params().n);
    encrypt(ctx, pk, &Plaintext::new(vec![v], t, n), rng)
}

/// One engine on toy parameters with a registered compute tenant.
fn engine_with(config: EngineConfig, seed: u64) -> (Arc<FvContext>, Engine, PublicKey, StdRng) {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let engine = Engine::start(Arc::clone(&ctx), config);
    let mut rng = StdRng::seed_from_u64(seed);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    engine.register_tenant(1, TenantKeys::compute(pk.clone(), rlk));
    (ctx, engine, pk, rng)
}

/// A single Mul request, optionally with a deadline.
fn mul_req(
    ctx: &FvContext,
    pk: &PublicKey,
    rng: &mut StdRng,
    deadline_us: Option<f64>,
) -> EvalRequest {
    EvalRequest {
        tenant: 1,
        inputs: vec![enc(ctx, pk, 2, rng), enc(ctx, pk, 3, rng)],
        plaintexts: vec![],
        ops: vec![EvalOp::Mul(ValRef::Input(0), ValRef::Input(1))],
        deadline_us,
        trace_id: None,
    }
}

/// A chain of `depth` squarings — slow filler, and past the toy noise
/// budget once `depth` exceeds a handful of levels.
fn mul_chain(ctx: &FvContext, pk: &PublicKey, rng: &mut StdRng, depth: usize) -> EvalRequest {
    let mut ops = vec![EvalOp::Mul(ValRef::Input(0), ValRef::Input(0))];
    for i in 1..depth as u32 {
        ops.push(EvalOp::Mul(ValRef::Op(i - 1), ValRef::Op(i - 1)));
    }
    EvalRequest {
        tenant: 1,
        inputs: vec![enc(ctx, pk, 1, rng)],
        plaintexts: vec![],
        ops,
        deadline_us: None,
        trace_id: None,
    }
}

fn shed_count(snap: &StatsSnapshot, reason: &str) -> u64 {
    snap.shed_by_reason
        .iter()
        .find(|(name, _)| *name == reason)
        .map(|(_, v)| *v)
        .expect("unknown shed reason")
}

/// An infeasible deadline is refused at the door: nothing queues,
/// nothing executes, and the refusal names both sides of the inequality.
#[test]
fn infeasible_deadline_burst_is_refused_without_executing() {
    const BURST: usize = 8;
    let (ctx, engine, pk, mut rng) = engine_with(EngineConfig::default(), 41);

    for _ in 0..BURST {
        // Far below any possible Mul cost estimate.
        let err = engine
            .submit(mul_req(&ctx, &pk, &mut rng, Some(0.001)))
            .expect_err("a 1 ns deadline must be infeasible");
        assert_eq!(err.code(), ErrorCode::DeadlineInfeasible);
        assert!(
            !err.retryable(),
            "resubmitting the same impossible deadline cannot help"
        );
        match err {
            EngineError::DeadlineInfeasible {
                estimated_us,
                deadline_us,
            } => assert!(estimated_us > deadline_us),
            other => panic!("wrong refusal: {other}"),
        }
    }

    // A generous deadline on the identical job is admitted and runs.
    engine
        .call(mul_req(&ctx, &pk, &mut rng, Some(10_000_000.0)))
        .expect("a 10 s deadline on a toy Mul is feasible");

    let snap = engine.stats();
    assert_eq!(shed_count(&snap, "deadline_infeasible"), BURST as u64);
    assert_eq!(
        snap.jobs_completed, 1,
        "only the feasible job may have executed"
    );
    engine.shutdown();
}

/// Past the brownout occupancy mark, deadline-less traffic is shed with
/// a retryable Overload refusal carrying a drain-time hint.
#[test]
fn brownout_sheds_deadline_less_traffic_with_a_retry_hint() {
    let (ctx, engine, pk, mut rng) = engine_with(
        EngineConfig {
            workers: 1,
            queue_capacity: 16,
            shedding: SheddingPolicy {
                brownout_occupancy: 0.25, // trips at 4 queued jobs
                noise_admission: false,   // the filler chains are over-budget
                ..SheddingPolicy::default()
            },
            ..EngineConfig::default()
        },
        42,
    );

    let mut handles = Vec::new();
    let mut refusal = None;
    for _ in 0..16 {
        match engine.submit(mul_chain(&ctx, &pk, &mut rng, 64)) {
            Ok(h) => handles.push(h),
            Err(e) => {
                refusal = Some(e);
                break;
            }
        }
    }
    let err = refusal.expect("one worker cannot drain 16 deep chains below 25% occupancy");
    assert_eq!(err.code(), ErrorCode::Overload);
    assert!(err.retryable(), "brownout invites a retry");
    match err {
        EngineError::Overload { retry_after_us } => {
            let hint = retry_after_us.expect("brownout refusals carry a drain-time hint");
            assert!(hint >= 1);
        }
        other => panic!("wrong refusal: {other}"),
    }
    assert!(shed_count(&engine.stats(), "overload") >= 1);
    drop(handles);
    engine.shutdown();
}

/// Once pooled scratch bytes cross the configured high-water mark, new
/// submissions are refused MemoryPressure (retryable: pressure decays).
/// Chaos `alloc_pressure: 1.0` parks a 1 MiB chunk per executed job, so
/// the second submission deterministically finds the mark crossed.
#[test]
fn memory_pressure_gate_refuses_once_pooled_bytes_cross_the_mark() {
    let (ctx, engine, pk, mut rng) = engine_with(
        EngineConfig {
            workers: 1,
            shedding: SheddingPolicy {
                memory_high_water_bytes: 1024,
                ..SheddingPolicy::default()
            },
            chaos: Some(ChaosPlan {
                alloc_pressure: 1.0,
                ..ChaosPlan::default()
            }),
            ..EngineConfig::default()
        },
        43,
    );

    // First job: the gauge is still zero, so it is admitted — and its
    // execution parks ≥ 1 MiB of pressure in the worker arena.
    engine
        .call(mul_req(&ctx, &pk, &mut rng, None))
        .expect("an empty pool admits the first job");
    // The worker folds its arena occupancy into the gauge just after
    // delivering the reply; wait out that last stretch of the race.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while engine.stats().arena_pooled_bytes < 1024 {
        assert!(
            std::time::Instant::now() < deadline,
            "pressure chunk never reached the pooled-bytes gauge"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let err = engine
        .submit(mul_req(&ctx, &pk, &mut rng, None))
        .expect_err("pooled bytes are past the 1 KiB mark now");
    assert_eq!(err.code(), ErrorCode::MemoryPressure);
    assert!(err.retryable(), "pressure decays; retrying can succeed");
    match err {
        EngineError::MemoryPressure {
            pooled_bytes,
            high_water_bytes,
        } => {
            assert_eq!(high_water_bytes, 1024);
            assert!(pooled_bytes >= high_water_bytes);
        }
        other => panic!("wrong refusal: {other}"),
    }
    assert_eq!(shed_count(&engine.stats(), "memory_pressure"), 1);
    engine.shutdown();
}

/// A graph whose worst-case noise cannot close under the parameter set's
/// budget is refused before wasting a worker on a garbage result.
#[test]
fn deep_graphs_are_refused_at_the_noise_budget() {
    let (ctx, engine, pk, mut rng) = engine_with(EngineConfig::default(), 44);

    let err = engine
        .submit(mul_chain(&ctx, &pk, &mut rng, 24))
        .expect_err("24 squarings are far past the toy budget");
    assert_eq!(err.code(), ErrorCode::NoiseBudgetExhausted);
    assert!(
        !err.retryable(),
        "the same graph can never fit the same budget"
    );
    match err {
        EngineError::NoiseBudgetExhausted {
            needed_bits,
            budget_bits,
        } => assert!(needed_bits > budget_bits),
        other => panic!("wrong refusal: {other}"),
    }

    let snap = engine.stats();
    assert_eq!(shed_count(&snap, "noise_budget_exhausted"), 1);
    assert_eq!(snap.jobs_completed, 0, "nothing may have executed");

    // A shallow graph on the same engine still clears the gate.
    engine
        .call(mul_req(&ctx, &pk, &mut rng, None))
        .expect("a single Mul fits the toy budget");
    engine.shutdown();
}

/// On the paper's batching set, Galois keys have two digits of three
/// primes each: the worst-case model still closes a slot sum at the end
/// of the declared depth-4 chain, but leaves room for only one `Mul`
/// after a rotation of a fresh ciphertext. Admission replays exactly
/// that: `Mul`⁴ → `SumSlots` is admitted and decrypts, `Rotate` → `Mul`
/// → `Mul` is refused at the door.
#[test]
fn galois_noise_admission_on_the_batching_set() {
    let ctx = Arc::new(FvContext::new(FvParams::hpca19_batching()).unwrap());
    assert_eq!(ctx.galois_digits(), 2);
    let engine = Engine::start(Arc::clone(&ctx), EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(0x6A1);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
    let g = galois.keys()[0].g as u32;
    engine.register_tenant(1, TenantKeys::full(pk.clone(), rlk, galois));
    let (t, n) = (ctx.params().t, ctx.params().n);
    let encoder = BatchEncoder::new(t, n).unwrap();
    let slots: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
    let x = encrypt(&ctx, &pk, &encoder.encode(&slots), &mut rng);
    let one = enc(&ctx, &pk, 1, &mut rng);

    let (x0, one0) = (ValRef::Input(0), ValRef::Input(1));
    let deep = EvalRequest {
        tenant: 1,
        inputs: vec![x.clone(), one],
        plaintexts: vec![],
        ops: vec![
            EvalOp::Mul(x0, one0),
            EvalOp::Mul(ValRef::Op(0), one0),
            EvalOp::Mul(ValRef::Op(1), one0),
            EvalOp::Mul(ValRef::Op(2), one0),
            EvalOp::SumSlots(ValRef::Op(3)),
        ],
        deadline_us: None,
        trace_id: None,
    };
    let reply = engine
        .call(deep)
        .expect("a slot sum at depth 4 is admitted");
    let total = slots.iter().sum::<u64>() % t;
    let got = encoder.decode(&decrypt(&ctx, &sk, &reply.result));
    assert!(got.iter().all(|&v| v == total), "slot sum decrypts");

    let rotate_then_square = EvalRequest {
        tenant: 1,
        inputs: vec![x.clone(), x],
        plaintexts: vec![],
        ops: vec![
            EvalOp::Rotate(x0, g),
            EvalOp::Mul(ValRef::Op(0), ValRef::Input(1)),
            EvalOp::Mul(ValRef::Op(1), ValRef::Input(1)),
        ],
        deadline_us: None,
        trace_id: None,
    };
    let err = engine
        .submit(rotate_then_square)
        .expect_err("two Muls after a rotation exceed the budget");
    assert_eq!(err.code(), ErrorCode::NoiseBudgetExhausted);
    assert_eq!(
        engine.stats().jobs_completed,
        1,
        "the refused job never ran"
    );
    engine.shutdown();
}

/// K repeated worker panics on one (tenant, op-class) signature
/// quarantine it: further submissions of that shape are refused
/// `Quarantined` with a TTL hint, other shapes keep flowing, and the
/// quarantine decays after the TTL.
#[test]
fn repeated_panics_quarantine_the_signature_until_ttl_expiry() {
    const TTL: Duration = Duration::from_millis(80);
    let (ctx, engine, pk, mut rng) = engine_with(
        EngineConfig {
            workers: 1,
            shedding: SheddingPolicy {
                quarantine_after: 2,
                quarantine_ttl: TTL,
                ..SheddingPolicy::default()
            },
            chaos: Some(ChaosPlan {
                panic: 1.0, // every executed job panics in the worker
                ..ChaosPlan::default()
            }),
            ..EngineConfig::default()
        },
        45,
    );

    // Two strikes: both jobs are admitted, panic inside the worker, and
    // come back as contained Internal failures — the engine survives.
    for _ in 0..2 {
        let err = engine
            .call(mul_req(&ctx, &pk, &mut rng, None))
            .expect_err("chaos panics every job");
        assert_eq!(err.code(), ErrorCode::Internal);
    }

    // Strike K reached: the signature is quarantined at admission.
    let err = engine
        .submit(mul_req(&ctx, &pk, &mut rng, None))
        .expect_err("two strikes quarantine the (tenant, Mul) signature");
    assert_eq!(err.code(), ErrorCode::Quarantined);
    match err {
        EngineError::Quarantined { retry_after_us } => {
            assert!(retry_after_us > 0, "the refusal names the remaining TTL");
            assert!(retry_after_us <= TTL.as_micros() as u64);
        }
        other => panic!("wrong refusal: {other}"),
    }
    let snap = engine.stats();
    assert_eq!(snap.quarantine_active, 1);
    assert_eq!(shed_count(&snap, "quarantined"), 1);

    // A different op-class from the same tenant is NOT quarantined: it
    // is admitted (and panics like everything else under this chaos).
    let add = EvalRequest::binary(
        1,
        EvalOp::Add,
        enc(&ctx, &pk, 1, &mut rng),
        enc(&ctx, &pk, 2, &mut rng),
    );
    let err = engine.call(add).expect_err("chaos panics every job");
    assert_eq!(
        err.code(),
        ErrorCode::Internal,
        "only the panicking signature is fenced, not the tenant"
    );

    // After the TTL the signature is admitted again (and strikes were
    // halved, not reset — a still-broken shape re-trips quickly).
    std::thread::sleep(TTL + Duration::from_millis(40));
    let snap = engine.stats(); // stats() sweeps expired quarantines
    assert_eq!(snap.quarantine_active, 0, "TTL expiry frees the signature");
    let err = engine
        .call(mul_req(&ctx, &pk, &mut rng, None))
        .expect_err("admitted again; chaos still panics it");
    assert_eq!(err.code(), ErrorCode::Internal);
    engine.shutdown();
}

/// Chaos injection is contained: with a moderate panic rate, every job
/// gets exactly one reply (Ok or typed error), and the engine's worker
/// pool survives to serve clean traffic once chaos is off the path.
#[test]
fn chaos_panics_never_lose_replies() {
    const JOBS: usize = 40;
    let (ctx, engine, pk, mut rng) = engine_with(
        EngineConfig {
            workers: 2,
            shedding: SheddingPolicy {
                // Strikes accumulate fast at panic:0.5; keep the door
                // open so every job reaches a worker.
                quarantine_after: u32::MAX,
                ..SheddingPolicy::default()
            },
            chaos: Some(ChaosPlan {
                panic: 0.5,
                delay: Duration::from_micros(200),
                ..ChaosPlan::default()
            }),
            ..EngineConfig::default()
        },
        46,
    );

    let mut handles = Vec::new();
    for _ in 0..JOBS {
        handles.push(engine.submit(mul_req(&ctx, &pk, &mut rng, None)).unwrap());
    }
    let mut ok = 0usize;
    let mut panicked = 0usize;
    for h in handles {
        match h.wait() {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(e.code(), ErrorCode::Internal);
                panicked += 1;
            }
        }
    }
    assert_eq!(ok + panicked, JOBS, "every job answered exactly once");
    assert!(panicked > 0, "a 50% panic rate cannot miss 40 jobs");
    assert!(ok > 0, "a 50% panic rate cannot hit all 40 jobs");

    let snap = engine.stats();
    assert_eq!(snap.jobs_completed, ok as u64);
    assert_eq!(snap.jobs_failed, panicked as u64);
    engine.shutdown();
}
