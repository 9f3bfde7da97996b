//! The workloads: parameter set, request templates and their mix, seeded
//! inputs, and the plaintext arithmetic (mod t) every reply is checked
//! against. All checks work on plaintext *coefficients*, so rotations and
//! slot sums are checked as ring automorphisms `m(x) → m(x^g)` without
//! any knowledge of the slot encoding.

use crate::adapter::{Ciphertext, ParamSet, Tenant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Connections the load generator opens (one generator thread each).
pub const CONNECTIONS: usize = 2;

/// Distinct pre-encoded requests per template.
pub const POOL: usize = 4;

/// Rotations in one hoisted `RotSum` request.
const ROTATIONS: usize = 4;

/// A request shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// `a + b`.
    Add,
    /// Relinearized `a · b`.
    Mul,
    /// `a · p + b` with a plaintext `p`.
    MulPlainAdd,
    /// `Σ σ_g(a)` over four Galois exponents, hoisted.
    RotSum,
    /// The sum over every slot (the whole Galois group).
    SumSlots,
}

impl Template {
    pub fn name(self) -> &'static str {
        match self {
            Template::Add => "add",
            Template::Mul => "mul",
            Template::MulPlainAdd => "mul_plain_add",
            Template::RotSum => "rot4_sum",
            Template::SumSlots => "sum_slots",
        }
    }
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub params: ParamSet,
    /// Register a Galois key set with the tenant.
    pub galois: bool,
    /// Templates with their share of requests, in percent.
    pub mix: &'static [(Template, u32)],
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// Upper end of the uniform pause a caller takes between a reply and
    /// its next request.
    pub think: Duration,
}

pub const WORKLOADS: [&str; 3] = ["mult", "mix", "rpc"];

/// The named workload, if it exists.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "mult" => Spec {
            name: "mult",
            params: ParamSet::Paper,
            galois: false,
            mix: &[(Template::Mul, 100)],
            depth: 2,
            think: Duration::ZERO,
        },
        "mix" => Spec {
            name: "mix",
            params: ParamSet::Paper,
            galois: true,
            mix: &[
                (Template::MulPlainAdd, 50),
                (Template::RotSum, 35),
                (Template::SumSlots, 15),
            ],
            depth: 2,
            think: Duration::ZERO,
        },
        "rpc" => Spec {
            name: "rpc",
            params: ParamSet::Medium,
            galois: false,
            mix: &[(Template::Add, 100)],
            depth: 1,
            // Without a random pause, two serial callers lock onto one
            // phase of the server's poll-loop sleep for a whole run, and
            // whole runs land 50% apart in latency.
            think: Duration::from_micros(500),
        },
        _ => return None,
    };
    Some(spec)
}

/// One request's inputs and the plaintext its result must decrypt to.
pub struct Job {
    pub template: Template,
    pub inputs: Vec<Ciphertext>,
    /// The plaintext operand of `MulPlainAdd` (empty otherwise).
    pub plain: Vec<u64>,
    /// The Galois exponents of `RotSum` (empty otherwise).
    pub exponents: Vec<u32>,
    pub expected: Vec<u64>,
}

/// A pooled request: its job, its pre-encoded frame, and once verified the
/// ciphertext bytes every later reply to it must carry.
pub struct Frame {
    pub job: Job,
    pub bytes: Vec<u8>,
    pub reference: Vec<u8>,
}

/// `POOL` seeded jobs per template of the mix, in mix order.
pub fn build_jobs(tenant: &Tenant, spec: &Spec, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A0B_5EED);
    let (n, t) = (tenant.degree(), tenant.plain_modulus());
    let mut jobs = Vec::new();
    for &(template, _) in spec.mix {
        for _ in 0..POOL {
            let poly =
                |rng: &mut StdRng| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..t)).collect() };
            let a = poly(&mut rng);
            let b = poly(&mut rng);
            let (plain, exponents, expected, inputs) = match template {
                Template::Add => (vec![], vec![], add(&a, &b, t), vec![a, b]),
                Template::Mul => (vec![], vec![], negacyclic_mul(&a, &b, t), vec![a, b]),
                Template::MulPlainAdd => {
                    let p = poly(&mut rng);
                    let expected = add(&negacyclic_mul(&a, &p, t), &b, t);
                    (p, vec![], expected, vec![a, b])
                }
                Template::RotSum => {
                    let gs = pick_exponents(tenant.rotation_exponents(), &mut rng);
                    let mut acc = vec![0; n];
                    for &g in &gs {
                        acc = add(&acc, &automorphism(&a, g as usize, t), t);
                    }
                    (vec![], gs, acc, vec![a])
                }
                Template::SumSlots => (vec![], vec![], group_sum(&a, t), vec![a]),
            };
            let inputs = inputs.iter().map(|m| tenant.encrypt(m, &mut rng)).collect();
            jobs.push(Job {
                template,
                inputs,
                plain,
                exponents,
                expected,
            });
        }
    }
    jobs
}

/// `ROTATIONS` distinct exponents drawn from those the server holds keys for.
fn pick_exponents(available: &[u32], rng: &mut StdRng) -> Vec<u32> {
    assert!(
        available.len() >= ROTATIONS,
        "workload registers too few Galois keys"
    );
    let mut pool = available.to_vec();
    (0..ROTATIONS)
        .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
        .collect()
}

/// Draws frame indices for one connection: a template by its mix share,
/// then one of its pooled requests.
pub struct Picker {
    rng: StdRng,
    mix: Vec<(u32, usize)>,
    think_ns: u64,
}

impl Picker {
    pub fn new(spec: &Spec, seed: u64, stream: u64) -> Picker {
        let mut upto = 0;
        let mix = spec
            .mix
            .iter()
            .enumerate()
            .map(|(i, &(_, share))| {
                upto += share;
                (upto, i * POOL)
            })
            .collect();
        Picker {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream),
            mix,
            think_ns: spec.think.as_nanos() as u64,
        }
    }

    /// The caller's next pause, uniform below the workload's think time.
    pub fn think_time(&mut self) -> Duration {
        if self.think_ns == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.rng.gen_range(0..self.think_ns))
    }

    pub fn next_frame(&mut self) -> usize {
        let total = self.mix.last().map_or(1, |&(upto, _)| upto);
        let draw = self.rng.gen_range(0..total);
        let first = self
            .mix
            .iter()
            .find(|&&(upto, _)| draw < upto)
            .map_or(0, |&(_, first)| first);
        first + self.rng.gen_range(0..POOL)
    }
}

/// Coefficient-wise `a + b mod t`.
fn add(a: &[u64], b: &[u64], t: u64) -> Vec<u64> {
    a.iter().zip(b).map(|(&x, &y)| (x + y) % t).collect()
}

/// `a · b mod (x^n + 1, t)`, schoolbook.
fn negacyclic_mul(a: &[u64], b: &[u64], t: u64) -> Vec<u64> {
    let n = a.len();
    // Partial sums stay below n·t² < 2^64 for the workloads' t ≤ 65537, n ≤ 4096.
    let mut pos = vec![0u64; n];
    let mut neg = vec![0u64; n];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            if i + j < n {
                pos[i + j] += x * y;
            } else {
                neg[i + j - n] += x * y;
            }
        }
    }
    pos.iter()
        .zip(&neg)
        .map(|(&p, &q)| (p % t + t - q % t) % t)
        .collect()
}

/// The ring automorphism `m(x) → m(x^g) mod (x^n + 1)`, coefficients mod t.
fn automorphism(a: &[u64], g: usize, t: u64) -> Vec<u64> {
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &c) in a.iter().enumerate() {
        let e = i * g % (2 * n);
        if e < n {
            out[e] = (out[e] + c) % t;
        } else {
            out[e - n] = (out[e - n] + t - c) % t;
        }
    }
    out
}

/// `Σ_g σ_g(m)` over every odd `g < 2n`: what summing all slots does to
/// the plaintext polynomial.
fn group_sum(a: &[u64], t: u64) -> Vec<u64> {
    let n = a.len();
    let mut acc = vec![0u64; n];
    for g in (1..2 * n).step_by(2) {
        acc = add(&acc, &automorphism(a, g, t), t);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negacyclic_wraps_with_a_sign() {
        // x^3 · x = x^4 = -1 in Z_t[x]/(x^4 + 1).
        assert_eq!(
            negacyclic_mul(&[0, 0, 0, 1], &[0, 1, 0, 0], 17),
            [16, 0, 0, 0]
        );
        assert_eq!(
            negacyclic_mul(&[1, 2, 0, 0], &[3, 0, 0, 0], 17),
            [3, 6, 0, 0]
        );
    }

    #[test]
    fn automorphism_maps_powers() {
        // x → x^3: x^1 → x^3, x^2 → x^6 = -x^2 (n = 4).
        assert_eq!(automorphism(&[0, 1, 0, 0], 3, 17), [0, 0, 0, 1]);
        assert_eq!(automorphism(&[0, 0, 1, 0], 3, 17), [0, 0, 16, 0]);
        assert_eq!(automorphism(&[5, 0, 0, 0], 7, 17), [5, 0, 0, 0]);
    }

    #[test]
    fn picker_is_seeded_and_follows_the_mix() {
        let spec = spec("mix").unwrap();
        let draws = |seed| {
            let mut p = Picker::new(&spec, seed, 0);
            (0..2000).map(|_| p.next_frame()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
        let first = draws(3).iter().filter(|&&i| i < POOL).count();
        assert!(
            (850..1150).contains(&first),
            "{first} of 2000 drew the 50% template"
        );
    }
}
