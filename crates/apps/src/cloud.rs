//! The cloud service architecture of Fig. 11, running on
//! `hefv_engine::router::ShardRouter`.
//!
//! Earlier revisions of this module owned a bespoke dispatcher and worker
//! threads, then a single `Engine`; it is now a thin adapter over the
//! shard router, which adds consistent-hash tenant placement, cost-aware
//! scheduling, per-tenant key isolation and fleet telemetry. The public
//! surface (requests over the §V-D wire format, per-response worker id
//! and simulated coprocessor cost) is unchanged.

use hefv_core::context::FvContext;
use hefv_core::encrypt::Ciphertext;
use hefv_core::keys::RelinKey;
use hefv_core::wire::{decode_ciphertext, encode_ciphertext};
use hefv_engine::{EngineConfig, EvalOp, EvalRequest, ShardRouter, ShardSpec, TenantKeys};
use hefv_net::{NetServer, ServerConfig};
use std::net::ToSocketAddrs;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

/// The tenant id the single-tenant cloud façade registers its key under.
const CLOUD_TENANT: u64 = 0;

/// A homomorphic request, as it arrives from the network.
#[derive(Debug, Clone)]
pub enum Request {
    /// Homomorphic addition of two wire-format ciphertexts.
    Add(Vec<u8>, Vec<u8>),
    /// Homomorphic multiplication of two wire-format ciphertexts.
    Mult(Vec<u8>, Vec<u8>),
}

/// A completed response: the result ciphertext plus the simulated
/// hardware cost of producing it.
#[derive(Debug, Clone)]
pub struct Response {
    /// Wire-format result ciphertext.
    pub bytes: Vec<u8>,
    /// Which engine worker executed it.
    pub worker: usize,
    /// Simulated coprocessor time, µs (excluding transfers).
    pub coproc_us: f64,
}

/// The cloud server: an engine shard behind the Fig. 11 API, fronted by
/// the shard router so more parameter sets can join the fleet without
/// touching this layer.
pub struct CloudServer {
    ctx: Arc<FvContext>,
    router: Arc<ShardRouter>,
    workers: usize,
}

impl CloudServer {
    /// Spawns the server with `workers` engine workers (the paper places
    /// two coprocessors) sharing one evaluation context and
    /// relinearization key. Every job runs on the HPS Lift/Scale
    /// datapath, the faster one on the host at every supported ring
    /// degree.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn start(ctx: Arc<FvContext>, rlk: Arc<RelinKey>, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let router = ShardRouter::new();
        router
            .add_shard(ShardSpec {
                name: "cloud-0".into(),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers,
                    queue_capacity: 128,
                    ..EngineConfig::default()
                },
            })
            .expect("fresh router has shard ids available");
        router
            .register_tenant(
                CLOUD_TENANT,
                TenantKeys {
                    pk: None,
                    rlk: Some(rlk),
                    galois: None,
                },
            )
            .expect("router has a shard");
        CloudServer {
            ctx,
            router: Arc::new(router),
            workers,
        }
    }

    /// Serves this cloud server's router over TCP: clients connect with
    /// `hefv_net::Client` and speak length-prefixed `HEVQ`/`HEVP` frames
    /// (tenant 0 holds the server's relinearization key). Bind to port 0
    /// for an ephemeral port; the returned front-end shuts down
    /// independently of the server itself.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn serve(&self, addr: impl ToSocketAddrs) -> std::io::Result<NetServer> {
        NetServer::bind(addr, Arc::clone(&self.router), ServerConfig::default())
    }

    fn to_eval_request(&self, request: &Request) -> Result<EvalRequest, String> {
        let (a_bytes, b_bytes, op): (_, _, fn(_, _) -> EvalOp) = match request {
            Request::Add(a, b) => (a, b, EvalOp::Add),
            Request::Mult(a, b) => (a, b, EvalOp::Mul),
        };
        let a = decode_ciphertext(&self.ctx, a_bytes).map_err(String::from)?;
        let b = decode_ciphertext(&self.ctx, b_bytes).map_err(String::from)?;
        Ok(EvalRequest::binary(CLOUD_TENANT, op, a, b))
    }

    /// Submits a request; returns a receiver for the response.
    pub fn submit(&self, request: Request) -> Receiver<Result<Response, String>> {
        let (tx, rx) = channel();
        match self.to_eval_request(&request) {
            Ok(req) => {
                let sent = self.router.submit_with_callback(req, move |outcome| {
                    let _ = tx.send(
                        outcome
                            .map(|resp| Response {
                                bytes: encode_ciphertext(&resp.result),
                                worker: resp.report.worker as usize,
                                coproc_us: resp.report.est_cost_us,
                            })
                            .map_err(String::from),
                    );
                });
                if let Err(e) = sent {
                    // The callback (and tx with it) was dropped unused; a
                    // fresh channel carries the submission error instead.
                    let (tx2, rx2) = channel();
                    let _ = tx2.send(Err(String::from(e)));
                    return rx2;
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
            }
        }
        rx
    }

    /// Convenience: submit and wait.
    ///
    /// # Errors
    ///
    /// Propagates decode/execution errors from the engine.
    pub fn call(&self, request: Request) -> Result<Response, String> {
        self.submit(request)
            .recv()
            .map_err(|_| "server stopped".to_string())?
    }

    /// Number of engine workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total simulated coprocessor busy time so far, µs.
    pub fn simulated_busy_us(&self) -> f64 {
        self.router.stats().total.sim_cost_us
    }

    /// The underlying shard router (stats, placement, pinning).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The Prometheus-text metrics exposition of this server's fleet —
    /// the same body the TCP front-end serves for a `HEVS` metrics
    /// scrape, minus the transport counters.
    pub fn prometheus(&self) -> String {
        hefv_engine::render_prometheus(&self.router.stats())
    }

    /// Shuts the server down, joining the worker threads.
    pub fn shutdown(self) {
        self.router.shutdown();
    }
}

/// Client-side helpers: encode locally encrypted data for the server.
pub mod client {
    use super::*;

    /// Packs two ciphertexts into a `Mult` request.
    pub fn mult_request(a: &Ciphertext, b: &Ciphertext) -> Request {
        Request::Mult(encode_ciphertext(a), encode_ciphertext(b))
    }

    /// Packs two ciphertexts into an `Add` request.
    pub fn add_request(a: &Ciphertext, b: &Ciphertext) -> Request {
        Request::Add(encode_ciphertext(a), encode_ciphertext(b))
    }

    /// Unpacks a response ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates wire-format errors.
    pub fn unpack(ctx: &FvContext, r: &Response) -> Result<Ciphertext, String> {
        decode_ciphertext(ctx, &r.bytes).map_err(String::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hefv_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Arc<FvContext>, SecretKey, PublicKey, Arc<RelinKey>, StdRng) {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        (Arc::new(ctx), sk, pk, Arc::new(rlk), rng)
    }

    #[test]
    fn server_computes_correct_results() {
        let (ctx, sk, pk, rlk, mut rng) = setup();
        let server = CloudServer::start(Arc::clone(&ctx), rlk, 2);
        let t = ctx.params().t;
        let n = ctx.params().n;
        let ca = encrypt(&ctx, &pk, &Plaintext::new(vec![3], t, n), &mut rng);
        let cb = encrypt(&ctx, &pk, &Plaintext::new(vec![5], t, n), &mut rng);

        let prod = server.call(client::mult_request(&ca, &cb)).unwrap();
        let sum = server.call(client::add_request(&ca, &cb)).unwrap();
        let prod_ct = client::unpack(&ctx, &prod).unwrap();
        let sum_ct = client::unpack(&ctx, &sum).unwrap();
        assert_eq!(decrypt(&ctx, &sk, &prod_ct).coeffs()[0], 15);
        assert_eq!(decrypt(&ctx, &sk, &sum_ct).coeffs()[0], 8);
        assert!(prod.coproc_us > sum.coproc_us, "Mult costs more than Add");
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_spread_over_both_workers() {
        let (ctx, sk, pk, rlk, mut rng) = setup();
        let server = CloudServer::start(Arc::clone(&ctx), rlk, 2);
        let t = ctx.params().t;
        let n = ctx.params().n;
        // Enough toy Mults (~30 µs each) that the queue outlasts the
        // second worker's wake-up latency on a loaded 2-vCPU host.
        let cts: Vec<Ciphertext> = (1..=32u64)
            .map(|v| encrypt(&ctx, &pk, &Plaintext::new(vec![v % t], t, n), &mut rng))
            .collect();
        // Fire all requests first, then collect.
        let pending: Vec<_> = cts
            .iter()
            .map(|ct| (ct, server.submit(client::mult_request(ct, ct))))
            .collect();
        let mut workers_seen = std::collections::HashSet::new();
        for (ct, rx) in pending {
            let resp = rx.recv().unwrap().unwrap();
            workers_seen.insert(resp.worker);
            let out = client::unpack(&ctx, &resp).unwrap();
            let expect = decrypt(&ctx, &sk, ct).coeffs()[0].pow(2) % t;
            assert_eq!(decrypt(&ctx, &sk, &out).coeffs()[0], expect);
        }
        assert_eq!(workers_seen.len(), 2, "both workers used");
        assert!(server.simulated_busy_us() > 0.0);
        server.shutdown();
    }

    #[test]
    fn malformed_request_is_rejected_not_fatal() {
        let (ctx, _, pk, rlk, mut rng) = setup();
        let server = CloudServer::start(Arc::clone(&ctx), rlk, 1);
        let garbage = Request::Add(vec![1, 2, 3], vec![4, 5, 6]);
        assert!(server.call(garbage).is_err());
        // The server must still serve well-formed requests afterwards.
        let t = ctx.params().t;
        let n = ctx.params().n;
        let ca = encrypt(&ctx, &pk, &Plaintext::new(vec![1], t, n), &mut rng);
        assert!(server.call(client::add_request(&ca, &ca)).is_ok());
        server.shutdown();
    }

    #[test]
    fn tcp_front_end_serves_wire_requests() {
        use hefv_engine::wire;
        let (ctx, sk, pk, rlk, mut rng) = setup();
        let server = CloudServer::start(Arc::clone(&ctx), rlk, 2);
        let net = server.serve("127.0.0.1:0").unwrap();
        let mut client = hefv_net::Client::connect(net.local_addr()).unwrap();
        let t = ctx.params().t;
        let n = ctx.params().n;
        let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
        // Pipeline a product and a sum on the single-tenant wire seam.
        let req_mul = EvalRequest::binary(0, EvalOp::Mul, enc(3, &mut rng), enc(5, &mut rng));
        let req_add = EvalRequest::binary(0, EvalOp::Add, enc(3, &mut rng), enc(5, &mut rng));
        let c_mul = client.send_frame(&wire::encode_request(&req_mul)).unwrap();
        let c_add = client.send_frame(&wire::encode_request(&req_add)).unwrap();
        for (corr, expect) in [(c_mul, 15), (c_add, 8)] {
            let reply = client.recv_reply_for(corr).unwrap();
            match wire::decode_response(&ctx, &reply).unwrap() {
                wire::ResponseFrame::Ok(resp) => {
                    assert_eq!(decrypt(&ctx, &sk, &resp.result).coeffs()[0], expect);
                }
                wire::ResponseFrame::Err { message, .. } => panic!("{message}"),
            }
        }
        net.shutdown();
        server.shutdown();
    }

    #[test]
    fn router_stats_visible_through_server() {
        let (ctx, _, pk, rlk, mut rng) = setup();
        let server = CloudServer::start(Arc::clone(&ctx), rlk, 1);
        let t = ctx.params().t;
        let n = ctx.params().n;
        let ca = encrypt(&ctx, &pk, &Plaintext::new(vec![2], t, n), &mut rng);
        server.call(client::mult_request(&ca, &ca)).unwrap();
        let stats = server.router().stats();
        assert_eq!(stats.total.jobs_completed, 1);
        assert_eq!(stats.per_shard.len(), 1);
        assert_eq!(stats.per_shard[0].name, "cloud-0");
        assert!(stats
            .total
            .per_op
            .iter()
            .any(|o| o.name == "mul" && o.count == 1));
        server.shutdown();
    }
}
