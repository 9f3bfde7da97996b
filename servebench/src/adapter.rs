//! The only module that calls into the library.
//!
//! Everything else in the benchmark works through the functions and types
//! here, so an API change in the serving stack (a knob removed, `_in` /
//! `_with_budget` variants collapsed, a module moved) touches this file
//! alone. Server configurations are built only through `Default` — the
//! benchmark measures what users get — and direct op calls use
//! `Backend::default()`.

use crate::workload::{Job, Template};
use hefv::core::context::FvContext;
use hefv::core::encoder::Plaintext;
use hefv::core::encrypt::{decrypt, encrypt};
use hefv::core::eval::{self, Backend, TensorResult};
use hefv::core::galois::{self, GaloisKeySet, HoistedCiphertext};
use hefv::core::keys::{keygen, PublicKey, RelinKey, SecretKey};
use hefv::core::params::FvParams;
use hefv::core::rnspoly::RnsPoly;
use hefv::engine::wire::{self, ResponseFrame, StatsKind};
use hefv::engine::{
    EngineConfig, EngineError, EvalOp, EvalRequest, EvalResponse, JobReport, ShardRouter,
    ShardSpec, TenantKeys, ValRef,
};
use hefv::math::dispatch;
use hefv::math::ntt::GaloisPermutation;
use hefv::net::{Client, NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub use hefv::core::encrypt::Ciphertext;

/// The one tenant every workload runs as.
const TENANT: u64 = 1;

/// How long a client waits for any reply before counting the rest of its
/// in-flight requests as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Parameter sets the workloads use.
#[derive(Debug, Clone, Copy)]
pub enum ParamSet {
    /// The paper's set: n = 4096, 6 + 7 primes of 30 bits, t = 65537.
    Paper,
    /// n = 256 with the same 6 + 7 prime structure, t = 2.
    Medium,
}

/// Builds the context (parameters and precomputed tables) for `set`.
pub fn context(set: ParamSet) -> Arc<FvContext> {
    let params = match set {
        ParamSet::Paper => FvParams::hpca19_batching(),
        ParamSet::Medium => FvParams::insecure_medium(),
    };
    Arc::new(FvContext::new(params).expect("built-in parameter sets are valid"))
}

/// The tenant's keys as the client holds them, plus the context.
pub struct Tenant {
    ctx: Arc<FvContext>,
    sk: SecretKey,
    pk: PublicKey,
    rlk: RelinKey,
    /// Exponents the registered Galois key set covers (empty without one).
    exponents: Vec<u32>,
}

/// Generates the tenant's keys; the Galois key set (when asked for) is
/// returned separately so it can move into the server without a copy.
pub fn tenant(ctx: Arc<FvContext>, seed: u64, galois: bool) -> (Tenant, Option<GaloisKeySet>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let set = galois.then(|| GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng));
    let exponents = set
        .as_ref()
        .map(|s| s.keys().iter().map(|k| k.g as u32).collect())
        .unwrap_or_default();
    let t = Tenant {
        ctx,
        sk,
        pk,
        rlk,
        exponents,
    };
    (t, set)
}

impl Tenant {
    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.ctx.params().n
    }

    /// Plaintext modulus.
    pub fn plain_modulus(&self) -> u64 {
        self.ctx.params().t
    }

    /// Galois exponents the server holds keys for.
    pub fn rotation_exponents(&self) -> &[u32] {
        &self.exponents
    }

    /// Encrypts a coefficient vector (reduced mod t, zero-padded to n).
    pub fn encrypt(&self, coeffs: &[u64], rng: &mut StdRng) -> Ciphertext {
        let pt = Plaintext::new(coeffs.to_vec(), self.plain_modulus(), self.degree());
        encrypt(&self.ctx, &self.pk, &pt, rng)
    }

    /// Decrypts to the n plaintext coefficients.
    pub fn decrypt(&self, ct: &Ciphertext) -> Vec<u64> {
        decrypt(&self.ctx, &self.sk, ct).coeffs().to_vec()
    }

    /// Remaining noise budget of `ct`, bits (decryption fails at ≤ 0).
    pub fn noise_budget_bits(&self, ct: &Ciphertext) -> f64 {
        hefv::core::noise::measure(&self.ctx, &self.sk, ct).budget_bits
    }

    /// The `HEVQ` frame for one job.
    pub fn request_frame(&self, job: &Job) -> Vec<u8> {
        let input = ValRef::Input;
        let op = ValRef::Op;
        let mut plaintexts = Vec::new();
        let ops = match job.template {
            Template::Add => vec![EvalOp::Add(input(0), input(1))],
            Template::Mul => vec![EvalOp::Mul(input(0), input(1))],
            Template::MulPlainAdd => {
                plaintexts.push(Plaintext::new(
                    job.plain.clone(),
                    self.plain_modulus(),
                    self.degree(),
                ));
                vec![EvalOp::MulPlain(input(0), 0), EvalOp::Add(op(0), input(1))]
            }
            Template::RotSum => {
                // Back-to-back rotations of one input run hoisted; the adds
                // then fold them left to right.
                let r = job.exponents.len() as u32;
                let mut ops: Vec<EvalOp> = job
                    .exponents
                    .iter()
                    .map(|&g| EvalOp::Rotate(input(0), g))
                    .collect();
                ops.push(EvalOp::Add(op(0), op(1)));
                for i in 2..r {
                    ops.push(EvalOp::Add(op(r + i - 2), op(i)));
                }
                ops
            }
            Template::SumSlots => vec![EvalOp::SumSlots(input(0))],
        };
        wire::encode_request(&EvalRequest {
            tenant: TENANT,
            inputs: job.inputs.clone(),
            plaintexts,
            ops,
            deadline_us: None,
            trace_id: None,
        })
    }
}

/// A running default server — `ShardRouter` with one default engine shard
/// behind a default `NetServer` on loopback — with the tenant registered.
pub struct Service {
    router: Arc<ShardRouter>,
    server: NetServer,
}

/// Starts the server and registers the tenant's evaluation keys.
///
/// # Panics
///
/// On any start-up failure: the benchmark has nothing to measure without
/// its server.
pub fn serve(tenant: &Tenant, galois: Option<GaloisKeySet>) -> Service {
    let router = Arc::new(ShardRouter::new());
    router
        .add_shard(ShardSpec {
            name: "bench-0".into(),
            ctx: Arc::clone(&tenant.ctx),
            config: EngineConfig::default(),
        })
        .expect("add the engine shard");
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default())
        .expect("bind a loopback port");
    let keys = match galois {
        Some(set) => TenantKeys::full(tenant.pk.clone(), tenant.rlk.clone(), set),
        None => TenantKeys::compute(tenant.pk.clone(), tenant.rlk.clone()),
    };
    router
        .register_tenant(TENANT, keys)
        .expect("register the tenant");
    Service { router, server }
}

impl Service {
    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// `(frames_in, replies_out)` from the transport's counters.
    pub fn frame_counts(&self) -> (u64, u64) {
        let s = self.server.stats();
        (s.frames_in, s.replies_out)
    }

    /// Dispatches one frame in-process, bypassing the transport.
    pub fn dispatch_in_process(&self, frame: &[u8]) -> Vec<u8> {
        self.router.dispatch_frame(frame)
    }

    /// Stops the server and the engine, joining every thread they own.
    pub fn shutdown(self) {
        self.server.shutdown();
        self.router.shutdown();
    }
}

/// Worker threads of the default engine configuration.
pub fn default_workers() -> usize {
    EngineConfig::default().workers
}

/// Name of the kernel lane the process dispatches to.
pub fn kernel_lane() -> &'static str {
    dispatch::backend_name()
}

/// One loopback connection speaking the envelope protocol.
pub struct Conn(Client);

impl Conn {
    /// Connects, with a bounded wait for replies.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let client = Client::connect(addr)?;
        client.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn(client))
    }

    /// Sends a frame; returns its correlation id.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<u64> {
        self.0.send_frame(frame)
    }

    /// The next reply in completion order: `(correlation id, frame)`.
    pub fn recv(&mut self) -> io::Result<(u64, Vec<u8>)> {
        self.0.recv_reply()
    }

    /// One serial round trip.
    pub fn call(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        self.0.call(frame)
    }

    /// The server's Prometheus-text metrics (one `HEVS` frame).
    pub fn scrape_metrics(&mut self) -> io::Result<String> {
        self.0.scrape_stats(StatsKind::Metrics)
    }
}

/// A reply frame, decoded.
pub enum Reply {
    /// The job ran: its result and the server's queue/exec split.
    Ok {
        ct: Ciphertext,
        queue_ns: u64,
        exec_ns: u64,
    },
    /// The server refused or failed the job, with its error-code name.
    Refused(&'static str),
    /// Not a well-formed reply.
    Malformed,
}

/// Fully decodes a reply frame against the tenant's context.
pub fn decode_reply(tenant: &Tenant, bytes: &[u8]) -> Reply {
    match wire::decode_response(&tenant.ctx, bytes) {
        Ok(ResponseFrame::Ok(resp)) => Reply::Ok {
            ct: resp.result,
            queue_ns: resp.report.queue_ns,
            exec_ns: resp.report.exec_ns,
        },
        Ok(ResponseFrame::Err { code, .. }) => Reply::Refused(code.name()),
        Err(_) => Reply::Malformed,
    }
}

/// Classifies a reply from its header alone: `None` for a success frame,
/// otherwise the refusal's error-code name (`"malformed"` when the header
/// does not parse).
pub fn refusal(bytes: &[u8]) -> Option<&'static str> {
    match wire::peek_response_error(bytes) {
        Ok(None) => None,
        Ok(Some(info)) => Some(info.code.name()),
        Err(_) => Some("malformed"),
    }
}

/// Bytes of a success reply before its ciphertext-length prefix: magic,
/// version, status, shard, job id and the `JobReport` fields.
const REPLY_REPORT_LEN: usize = 4 + 2 + 1 + 1 + 8 + 4 + 8 + 8 + 8 + 8;

/// The ciphertext bytes of a success reply, read without a context: the
/// bytes after the length prefix, when the prefix names exactly the rest
/// of the frame. `None` for an error frame or a malformed reply.
pub fn reply_ciphertext(bytes: &[u8]) -> Option<&[u8]> {
    if refusal(bytes).is_some() {
        return None;
    }
    let prefix = bytes.get(REPLY_REPORT_LEN..REPLY_REPORT_LEN + 4)?;
    let len = u32::from_le_bytes(prefix.try_into().ok()?) as usize;
    let ct = &bytes[REPLY_REPORT_LEN + 4..];
    (ct.len() == len).then_some(ct)
}

/// The wire bytes of a ciphertext: the tail of every success reply.
pub fn ciphertext_bytes(ct: &Ciphertext) -> Vec<u8> {
    hefv::core::wire::encode_ciphertext(ct)
}

/// A success reply frame carrying `ct`, as the server would encode it.
pub fn encode_reply(ct: &Ciphertext) -> Vec<u8> {
    wire::encode_response(&Ok(EvalResponse {
        job_id: 1,
        result: ct.clone(),
        report: JobReport {
            worker: 0,
            queue_ns: 1,
            exec_ns: 1,
            est_cost_us: 0.0,
            noise_bits_consumed: 0.0,
        },
    }))
}

/// An error reply frame, as the server encodes a refused request.
pub fn encode_refusal(message: &str) -> Vec<u8> {
    wire::encode_response(&Err((1, EngineError::Validation(message.into()))))
}

/// Direct calls into the `core` and `math` layers on the workload's own
/// parameters, keys and ciphertexts — the traced run's op and kernel
/// probes. Each method performs one call.
pub struct Probes<'a> {
    tenant: &'a Tenant,
    galois: GaloisKeySet,
    a: Ciphertext,
    b: Ciphertext,
    plain: Plaintext,
    tensor: TensorResult,
    lifted: RnsPoly,
    hoisted: HoistedCiphertext,
    perm: Arc<GaloisPermutation>,
    row: Vec<u64>,
    row_b: Vec<u64>,
    row_out: Vec<u64>,
    digits: Vec<u32>,
    ksk0: Vec<u32>,
    ksk1: Vec<u32>,
    acc0: Vec<u64>,
    acc1: Vec<u64>,
}

impl<'a> Probes<'a> {
    /// Prepares inputs: two fresh ciphertexts, a plaintext, a Galois key
    /// set (generated here, outside the timed phases) and one limb of
    /// random residues for the kernels.
    pub fn new(tenant: &'a Tenant, a: Ciphertext, b: Ciphertext, seed: u64) -> Self {
        let ctx = &tenant.ctx;
        let mut rng = StdRng::seed_from_u64(seed);
        let galois = GaloisKeySet::for_slot_sum(ctx, &tenant.sk, &mut rng);
        let (n, k, t) = (ctx.params().n, ctx.params().k(), ctx.params().t);
        let plain = Plaintext::new((0..n).map(|_| rng.gen_range(0..t)).collect(), t, n);
        let tensor = eval::tensor(ctx, &a, &b, Backend::default());
        let lifted = eval::lift_q_to_full(ctx, a.c0(), Backend::default());
        let hoisted = HoistedCiphertext::new(ctx, &a);
        let q = ctx.base_q().modulus(0).value();
        let mut limb = |len: usize| -> Vec<u64> { (0..len).map(|_| rng.gen_range(0..q)).collect() };
        let (row, row_b, row_out, acc0, acc1) = (limb(n), limb(n), limb(n), limb(n), limb(n));
        let mut narrow =
            |len: usize| -> Vec<u32> { limb(len).into_iter().map(|v| v as u32).collect() };
        let (digits, ksk0, ksk1) = (narrow(k * n), narrow(k * n), narrow(k * n));
        Probes {
            tenant,
            perm: ctx.automorphism_table(galois.keys()[0].g),
            galois,
            a,
            b,
            plain,
            tensor,
            lifted,
            hoisted,
            row,
            row_b,
            row_out,
            digits,
            ksk0,
            ksk1,
            acc0,
            acc1,
        }
    }

    /// `(k, l)`: limbs of `q` and extension limbs of `Q = q·p`.
    pub fn limbs(&self) -> (usize, usize) {
        let params = self.tenant.ctx.params();
        (params.k(), params.p_primes.len())
    }

    pub fn mul(&self) {
        let ctx = &self.tenant.ctx;
        black_box(eval::mul(
            ctx,
            &self.a,
            &self.b,
            &self.tenant.rlk,
            Backend::default(),
        ));
    }

    pub fn tensor(&self) {
        black_box(eval::tensor(
            &self.tenant.ctx,
            &self.a,
            &self.b,
            Backend::default(),
        ));
    }

    pub fn relinearize(&self) {
        black_box(eval::relinearize(
            &self.tenant.ctx,
            &self.tensor,
            &self.tenant.rlk,
        ));
    }

    /// One polynomial lifted q → Q.
    pub fn lift(&self) {
        let ctx = &self.tenant.ctx;
        black_box(eval::lift_q_to_full(ctx, self.a.c0(), Backend::default()));
    }

    /// One polynomial scaled Q → q.
    pub fn scale(&self) {
        let ctx = &self.tenant.ctx;
        black_box(eval::scale_full_to_q(ctx, &self.lifted, Backend::default()));
    }

    pub fn mul_plain(&self) {
        black_box(eval::mul_plain(&self.tenant.ctx, &self.a, &self.plain));
    }

    /// The σ-independent key-switch precomputation of one ciphertext.
    pub fn hoist(&self) {
        black_box(HoistedCiphertext::new(&self.tenant.ctx, &self.a));
    }

    /// One more rotation of an already hoisted ciphertext.
    pub fn rotate_marginal(&self) {
        let key = &self.galois.keys()[0];
        black_box(self.hoisted.rotate(&self.tenant.ctx, key));
    }

    pub fn sum_slots(&self) {
        black_box(galois::sum_slots(&self.tenant.ctx, &self.a, &self.galois));
    }

    pub fn add(&self) {
        black_box(eval::add(&self.tenant.ctx, &self.a, &self.b));
    }

    /// Forward NTT of one limb through the dispatched kernel table.
    pub fn ntt_forward(&mut self) {
        dispatch::kernels().ntt_forward(&self.tenant.ctx.ntt_q()[0], &mut self.row);
        black_box(&self.row);
    }

    /// Inverse NTT of one limb.
    pub fn ntt_inverse(&mut self) {
        dispatch::kernels().ntt_inverse(&self.tenant.ctx.ntt_q()[0], &mut self.row);
        black_box(&self.row);
    }

    /// Pointwise product of one limb.
    pub fn pointwise(&mut self) {
        let m = self.tenant.ctx.base_q().modulus(0);
        dispatch::kernels().pointwise_mul(m, &self.row, &self.row_b, &mut self.row_out);
        black_box(&self.row_out);
    }

    /// One limb of the hoisted key-switch sum of products.
    pub fn sop_row(&mut self) {
        let m = self.tenant.ctx.base_q().modulus(0);
        dispatch::kernels().sop_narrow_row(
            m,
            self.perm.table(),
            &self.digits,
            &self.ksk0,
            &self.ksk1,
            None,
            &mut self.acc0,
            &mut self.acc1,
        );
        black_box(&self.acc0);
    }

    /// A job's op graph evaluated by direct calls, without the engine.
    pub fn eval_direct(&self, job: &Job) -> Ciphertext {
        let ctx = &self.tenant.ctx;
        let x = &job.inputs;
        match job.template {
            Template::Add => eval::add(ctx, &x[0], &x[1]),
            Template::Mul => eval::mul(ctx, &x[0], &x[1], &self.tenant.rlk, Backend::default()),
            Template::MulPlainAdd => {
                let pt = Plaintext::new(job.plain.clone(), ctx.params().t, ctx.params().n);
                eval::add(ctx, &eval::mul_plain(ctx, &x[0], &pt), &x[1])
            }
            Template::RotSum => {
                let keys: Vec<_> = job
                    .exponents
                    .iter()
                    .map(|&g| {
                        self.galois
                            .key_for(g as usize)
                            .expect("exponent of the key set")
                    })
                    .collect();
                let rotated = galois::rotate_many(ctx, &x[0], &keys);
                let mut acc = rotated[0].clone();
                for r in &rotated[1..] {
                    acc = eval::add(ctx, &acc, r);
                }
                acc
            }
            Template::SumSlots => galois::sum_slots(ctx, &x[0], &self.galois),
        }
    }

    /// Decodes a request frame the way the server does.
    pub fn decode_request(&self, frame: &[u8]) {
        black_box(wire::decode_request(&self.tenant.ctx, frame).expect("own frames decode"));
    }
}
