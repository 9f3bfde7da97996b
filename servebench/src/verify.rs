//! Scoring one reply against the request it answers.

use crate::adapter::{self, Reply, Tenant};
use crate::workload::Frame;

/// The outcome of one reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The reply's ciphertext bytes equal the verified reference.
    Exact,
    /// The bytes differ, but the ciphertext decrypts to the expected
    /// plaintext.
    Decrypted,
    /// An error frame, with its error-code name.
    Refused(&'static str),
    /// A malformed reply or a wrong decryption.
    Wrong,
}

impl Verdict {
    pub fn succeeded(&self) -> bool {
        matches!(self, Verdict::Exact | Verdict::Decrypted)
    }
}

/// Noise budget a decrypted fallback must keep. Every workload result
/// keeps well over 100 bits; a corrupted residue turns its coefficient's
/// noise uniform below the decryption threshold, so it leaves more than
/// this budget with probability 2^-20 even when it decrypts right by
/// chance (which at t = 2 is half the time).
const MIN_BUDGET_BITS: f64 = 20.0;

/// Scores `reply` as the answer to `frame`. The cheap path compares the
/// reply's length-prefixed ciphertext with the frame's reference
/// (evaluation is deterministic, so every correct reply to one request
/// carries the same ciphertext); any mismatch falls back to decrypting
/// and measuring the noise.
pub fn score(tenant: &Tenant, frame: &Frame, reply: &[u8]) -> Verdict {
    if let Some(code) = adapter::refusal(reply) {
        return Verdict::Refused(code);
    }
    if !frame.reference.is_empty()
        && adapter::reply_ciphertext(reply) == Some(frame.reference.as_slice())
    {
        return Verdict::Exact;
    }
    match adapter::decode_reply(tenant, reply) {
        Reply::Ok { ct, .. }
            if tenant.decrypt(&ct) == frame.job.expected
                && tenant.noise_budget_bits(&ct) >= MIN_BUDGET_BITS =>
        {
            Verdict::Decrypted
        }
        Reply::Refused(code) => Verdict::Refused(code),
        _ => Verdict::Wrong,
    }
}
