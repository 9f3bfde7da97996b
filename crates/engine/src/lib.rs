//! # hefv-engine
//!
//! A multi-tenant evaluation engine over the HEAT-rs FV library: the
//! software analogue of the paper's coprocessor scheduling, lifted to the
//! service level. The HPCA'19 design gets its throughput by dispatching
//! independent RNS/NTT work units onto parallel RPAUs; this crate applies
//! the same idea one layer up — concurrent encrypted-compute requests from
//! many tenants are validated, priced with the simulated-coprocessor cost
//! model ([`hefv_sim::cost`], Table II), and dispatched onto a worker pool
//! with bounded-bypass shortest-job-first scheduling. Each worker runs
//! one whole job at a time on its own scratch arena, so the parallelism
//! comes from jobs running side by side, one per core.
//!
//! The pieces:
//!
//! * [`router`] — the [`ShardRouter`]: consistent-hash tenant placement
//!   over several engine shards, explicit pinning, shard-addressed frame
//!   dispatch, and aggregated fleet telemetry;
//! * [`engine`] — the [`Engine`]: worker pool, submission, lifecycle;
//!   every job runs on the HPS datapath (`Backend::default()`);
//! * [`admission`] — overload control and failure containment at the
//!   submission door: deadline-feasibility, memory-pressure,
//!   noise-budget, and brownout gates ([`SheddingPolicy`]), plus the
//!   per-(tenant, op-class) panic-quarantine table; refusals carry a
//!   typed, retryable-or-not [`ErrorCode`] on the wire;
//! * [`chaos`] — the `HEFV_CHAOS` worker-interior fault injector
//!   (panics, delay, arena pressure): the engine-side sibling of the
//!   transport's `HEFV_NET_FAULT`, off by default;
//! * [`request`] — [`EvalRequest`]: a straight-line op-graph
//!   (add/sub/neg/mul/mul_plain/rotate/sum_slots) over inline
//!   ciphertexts, with an optional virtual-clock deadline;
//! * [`registry`] — per-tenant key registry (pk/rlk/Galois) with LRU
//!   eviction; a tenant's jobs are evaluated *only* with that tenant's
//!   registered keys;
//! * [`sched`] — the HPS cost estimator and the deterministic
//!   EDF/stride/aged-cost queue (per-tenant weights, optional deadlines);
//! * [`wire`] — shard-addressed request/response framing extending
//!   `hefv_core::wire`, plus the `HEVS` admin frames that serve metrics
//!   and trace dumps over the same connection;
//! * [`stats`] — per-op and per-job latency distributions, queue depth,
//!   scheduler-level attribution, per-tenant and noise-budget telemetry;
//! * [`metrics`] — mergeable log-linear latency [`Histogram`]s
//!   (p50/p95/p99/max) and the Prometheus-text exposition of a fleet's
//!   [`RouterStats`];
//! * [`trace`] — per-job [`trace::SpanRecord`]s (`admit → queue → execute
//!   → reply`) in a lock-free-on-the-hot-path flight recorder with
//!   slow-job promotion.
//!
//! # Example
//!
//! ```
//! use hefv_core::prelude::*;
//! use hefv_engine::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! // One shared context; two tenants with independent keys.
//! let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
//! let engine = Engine::start(Arc::clone(&ctx), EngineConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let (sk_a, pk_a, rlk_a) = keygen(&ctx, &mut rng);
//! let (_sk_b, pk_b, rlk_b) = keygen(&ctx, &mut rng);
//! engine.register_tenant(1, TenantKeys::compute(pk_a.clone(), rlk_a));
//! engine.register_tenant(2, TenantKeys::compute(pk_b, rlk_b));
//!
//! // Tenant 1 asks for 2·3 + 4 over encrypted inputs.
//! let t = ctx.params().t;
//! let n = ctx.params().n;
//! let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk_a, &Plaintext::new(vec![v], t, n), rng);
//! let req = EvalRequest {
//!     tenant: 1,
//!     inputs: vec![enc(2, &mut rng), enc(3, &mut rng), enc(4, &mut rng)],
//!     plaintexts: vec![],
//!     ops: vec![
//!         EvalOp::Mul(ValRef::Input(0), ValRef::Input(1)),
//!         EvalOp::Add(ValRef::Op(0), ValRef::Input(2)),
//!     ],
//!     deadline_us: None,
//!     trace_id: None,
//! };
//! let resp = engine.call(req).unwrap();
//! assert_eq!(decrypt(&ctx, &sk_a, &resp.result).coeffs()[0], 10);
//! assert!(resp.report.est_cost_us > 0.0);
//! engine.shutdown();
//! ```

pub mod admission;
pub mod chaos;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod registry;
pub mod remote;
pub mod request;
pub mod router;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod wire;

pub use admission::SheddingPolicy;
pub use chaos::ChaosPlan;
pub use engine::{Engine, EngineConfig, JobHandle};
pub use error::{EngineError, ErrorCode, ERROR_CODES};
pub use metrics::{render_prometheus, Histogram, HistogramSnapshot};
pub use registry::{KeyRegistry, TenantId, TenantKeys};
pub use remote::{
    BreakerState, FrameReceiver, FrameSender, RemoteShard, RemoteShardConfig, RemoteStatsSnapshot,
    ShardConnector,
};
pub use request::{EvalOp, EvalRequest, EvalResponse, JobReport, ValRef};
pub use router::{
    HedgeConfig, HedgeStatsSnapshot, RemoteShardSpec, RemoteShardStats, RouterConfig, RouterStats,
    ShardId, ShardRouter, ShardSpec, ShardStats,
};
pub use sched::SchedLevel;
pub use stats::StatsSnapshot;
pub use trace::{FlightRecorder, SpanRecord};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::admission::SheddingPolicy;
    pub use crate::chaos::ChaosPlan;
    pub use crate::engine::{Engine, EngineConfig, JobHandle};
    pub use crate::error::{EngineError, ErrorCode};
    pub use crate::metrics::{render_prometheus, Histogram, HistogramSnapshot};
    pub use crate::registry::{KeyRegistry, TenantId, TenantKeys};
    pub use crate::remote::{
        BreakerState, FrameReceiver, FrameSender, RemoteShard, RemoteShardConfig,
        RemoteStatsSnapshot, ShardConnector,
    };
    pub use crate::request::{EvalOp, EvalRequest, EvalResponse, JobReport, ValRef};
    pub use crate::router::{
        HedgeConfig, HedgeStatsSnapshot, RemoteShardSpec, RemoteShardStats, RouterConfig,
        RouterStats, ShardId, ShardRouter, ShardSpec, ShardStats,
    };
    pub use crate::sched::SchedLevel;
    pub use crate::stats::StatsSnapshot;
    pub use crate::trace::{FlightRecorder, SpanRecord};
}
