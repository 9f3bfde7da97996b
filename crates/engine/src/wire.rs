//! Request/response framing, extending the ciphertext wire format.
//!
//! `hefv_core::wire` fixes how one ciphertext crosses an interface (the
//! paper's §V-D DMA layout); this module frames whole [`EvalRequest`]s and
//! [`EvalResponse`]s around it so requests can arrive serialized from
//! remote clients — and, since v2, so a [`crate::router::ShardRouter`]
//! front-end can route frames to engine shards without decoding the
//! payload. Layout (all little-endian):
//!
//! ```text
//! request  := "HEVQ" u32 | version=2 u16 | flags u16 | tenant u64
//!           | shard u16 | n_inputs u16 | n_plaintexts u16 | n_ops u16
//!           | deadline_us f64            (only when flags bit 0 is set)
//!           | trace_id u64               (only when flags bit 1 is set)
//!           | inputs…(len u32, core-wire ciphertext)
//!           | plaintexts…(n_coeffs u32, coeffs u64…)
//!           | ops…(opcode u8, a_tag u8, a_idx u32, b_tag u8, b_idx u32)
//! response := "HEVP" u32 | version=2 u16 | status u8 | shard u8
//!           | job_id u64
//!           | ok:  worker u32 | queue_ns u64 | exec_ns u64
//!                | est_cost_us f64 | noise_bits f64
//!                | len u32 | core-wire ciphertext
//!           | err: code u8 | flags u8
//!                | retry_after_us u64         (only when flags bit 0 is set)
//!                | len u32 | utf-8 message
//! stats-rq := "HEVS" u32 | version=2 u16 | dir=0 u8 | kind u8
//! stats-rp := "HEVS" u32 | version=2 u16 | dir=1 u8 | kind u8
//!           | len u32 | utf-8 body
//! ```
//!
//! The `HEVS` admin frames carry no ciphertexts: `kind` 0 requests the
//! Prometheus-text metrics exposition of the serving fleet, `kind` 1 a
//! plain-text dump of recent/slow trace spans. A server answers them
//! synchronously on its poll thread (see `hefv-net`), so the same
//! connection that pipelines `HEVQ` work can scrape health.
//!
//! `shard` names the target engine shard; [`NO_SHARD`] (`0xFFFF`) asks the
//! router to place the request by consistent-hashing its tenant id.
//! [`peek_shard`] and [`peek_response_shard`] read it without touching the
//! payload, so a TCP front-end can route each frame in O(header).
//!
//! Error responses carry the machine-readable refusal taxonomy: `code`
//! is an [`ErrorCode`] byte and flag bit 0 gates an optional
//! retry-after-µs hint, so clients and proxying routers can classify a
//! refusal (back off, re-route, give up) without parsing the rendered
//! message ([`peek_response_error`] does it without a context).
//!
//! Decoding is strict: unknown magic/version/flags/opcodes, truncation,
//! trailing bytes, frames beyond [`MAX_FRAME_BYTES`], or counts that
//! disagree with the payload are all rejected with
//! [`hefv_core::Error::Wire`] (wrapped in [`EngineError::Core`]), and the
//! embedded ciphertexts go through `hefv_core::wire`'s C-VALIDATE checks
//! against the receiving context.

use crate::error::{EngineError, ErrorCode};
use crate::registry::{TenantId, TenantKeys};
use crate::request::{EvalOp, EvalRequest, EvalResponse, JobReport, ValRef};
use hefv_core::context::FvContext;
use hefv_core::encoder::Plaintext;
use hefv_core::error::Error;
use hefv_core::wire::{decode_ciphertext, encode_ciphertext};
use std::sync::Arc;

const REQ_MAGIC: u32 = 0x4845_5651; // "HEVQ"
const RESP_MAGIC: u32 = 0x4845_5650; // "HEVP"
const STATS_MAGIC: u32 = 0x4845_5653; // "HEVS"
const KEY_MAGIC: u32 = 0x4845_564B; // "HEVK"
const SNAP_MAGIC: u32 = 0x4845_5652; // "HEVR"
const VERSION: u16 = 2;
/// `HEVK` and `HEVR` frames embed core key blobs. Version 3 carries Galois
/// key sets with their digit count; version-2 frames (one digit per
/// prime) are refused as unsupported.
const KEY_VERSION: u16 = 3;

/// Flag bit: the header carries a relative virtual-clock deadline.
const FLAG_DEADLINE: u16 = 1;

/// Flag bit: the header carries a client-chosen end-to-end trace id.
const FLAG_TRACE: u16 = 2;

/// Shard value meaning "unrouted — place by tenant hash".
pub const NO_SHARD: u16 = 0xFFFF;

/// Response-frame shard stamp for transport-level failures that never
/// reached a shard (bad frame, unknown tenant, routing errors). Real
/// shard ids stay below this (see `router::MAX_SHARD_ID`), so clients
/// can tell "shard X produced this error" from "the router/front-end
/// refused the frame".
pub const ERROR_SHARD: u8 = u8::MAX;

/// Hard ceiling on an accepted frame (64 MiB — an order of magnitude above
/// the largest legitimate request at the paper's parameters). Oversized
/// frames are rejected before any allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A decoded response frame: the remote outcome of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseFrame {
    /// The job succeeded.
    Ok(EvalResponse),
    /// The job failed; the refusal class plus the error rendered as
    /// text.
    Err {
        /// The failing job's id.
        job_id: u64,
        /// Machine-readable refusal class.
        code: ErrorCode,
        /// Suggested wait before retrying, when the producer had one.
        retry_after_us: Option<u64>,
        /// Rendered error message.
        message: String,
    },
}

/// Flag bit in the error-response layout: a retry-after-µs hint
/// follows the flags byte.
const ERR_FLAG_RETRY_AFTER: u8 = 1;

fn wire_err(reason: impl Into<String>) -> EngineError {
    EngineError::Core(Error::Wire(reason.into()))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], EngineError> {
        let end = self
            .off
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| wire_err("truncated frame"))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, EngineError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn finish(&self) -> Result<(), EngineError> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(wire_err(format!(
                "{} trailing bytes after frame",
                self.bytes.len() - self.off
            )))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

const TAG_INPUT: u8 = 0;
const TAG_OP: u8 = 1;
const TAG_IMM: u8 = 2;
const TAG_NONE: u8 = 0xFF;

fn put_ref(out: &mut Vec<u8>, r: ValRef) {
    match r {
        ValRef::Input(i) => {
            out.push(TAG_INPUT);
            put_u32(out, i);
        }
        ValRef::Op(i) => {
            out.push(TAG_OP);
            put_u32(out, i);
        }
    }
}

fn read_ref(c: &mut Cursor) -> Result<ValRef, EngineError> {
    let tag = c.u8()?;
    let idx = c.u32()?;
    match tag {
        TAG_INPUT => Ok(ValRef::Input(idx)),
        TAG_OP => Ok(ValRef::Op(idx)),
        t => Err(wire_err(format!("bad value-ref tag {t}"))),
    }
}

/// Serializes a request.
///
/// # Panics
///
/// Panics if any section exceeds the format's `u16` counters. Requests
/// satisfying [`EvalRequest::validate`] (≤ [`MAX_REQUEST_NODES`] nodes)
/// always fit; the assert turns an invalid oversized request into a loud
/// error instead of a silently corrupt frame.
///
/// [`MAX_REQUEST_NODES`]: crate::request::MAX_REQUEST_NODES
pub fn encode_request(req: &EvalRequest) -> Vec<u8> {
    encode_request_for_shard(req, NO_SHARD)
}

/// Serializes a request addressed to a specific engine shard (see
/// [`encode_request`] for the panic conditions). `shard` [`NO_SHARD`]
/// leaves placement to the router's consistent hash.
pub fn encode_request_for_shard(req: &EvalRequest, shard: u16) -> Vec<u8> {
    for (what, len) in [
        ("inputs", req.inputs.len()),
        ("plaintexts", req.plaintexts.len()),
        ("ops", req.ops.len()),
    ] {
        assert!(
            len <= u16::MAX as usize,
            "request has {len} {what}, wire format caps sections at {}",
            u16::MAX
        );
    }
    let mut out = Vec::new();
    put_u32(&mut out, REQ_MAGIC);
    put_u16(&mut out, VERSION);
    let mut flags = 0;
    if req.deadline_us.is_some() {
        flags |= FLAG_DEADLINE;
    }
    if req.trace_id.is_some() {
        flags |= FLAG_TRACE;
    }
    put_u16(&mut out, flags);
    put_u64(&mut out, req.tenant);
    put_u16(&mut out, shard);
    put_u16(&mut out, req.inputs.len() as u16);
    put_u16(&mut out, req.plaintexts.len() as u16);
    put_u16(&mut out, req.ops.len() as u16);
    if let Some(d) = req.deadline_us {
        put_u64(&mut out, d.to_bits());
    }
    if let Some(id) = req.trace_id {
        put_u64(&mut out, id);
    }
    for ct in &req.inputs {
        let bytes = encode_ciphertext(ct);
        put_u32(&mut out, bytes.len() as u32);
        out.extend_from_slice(&bytes);
    }
    for pt in &req.plaintexts {
        put_u32(&mut out, pt.coeffs().len() as u32);
        for &c in pt.coeffs() {
            put_u64(&mut out, c);
        }
    }
    for op in &req.ops {
        match *op {
            EvalOp::Add(a, b) => {
                out.push(0);
                put_ref(&mut out, a);
                put_ref(&mut out, b);
            }
            EvalOp::Sub(a, b) => {
                out.push(1);
                put_ref(&mut out, a);
                put_ref(&mut out, b);
            }
            EvalOp::Neg(a) => {
                out.push(2);
                put_ref(&mut out, a);
                out.push(TAG_NONE);
                put_u32(&mut out, 0);
            }
            EvalOp::Mul(a, b) => {
                out.push(3);
                put_ref(&mut out, a);
                put_ref(&mut out, b);
            }
            EvalOp::MulPlain(a, p) => {
                out.push(4);
                put_ref(&mut out, a);
                out.push(TAG_IMM);
                put_u32(&mut out, p);
            }
            EvalOp::Rotate(a, g) => {
                out.push(5);
                put_ref(&mut out, a);
                out.push(TAG_IMM);
                put_u32(&mut out, g);
            }
            EvalOp::SumSlots(a) => {
                out.push(6);
                put_ref(&mut out, a);
                out.push(TAG_NONE);
                put_u32(&mut out, 0);
            }
        }
    }
    out
}

/// Deserializes and structurally validates a request against `ctx`.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` for malformed frames;
/// [`EngineError::Validation`] when the frame parses but the graph is
/// invalid.
pub fn decode_request(ctx: &FvContext, bytes: &[u8]) -> Result<EvalRequest, EngineError> {
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(wire_err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != REQ_MAGIC {
        return Err(wire_err("bad request magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported request version"));
    }
    let flags = c.u16()?;
    if flags & !(FLAG_DEADLINE | FLAG_TRACE) != 0 {
        return Err(wire_err(format!("unknown request flags {flags:#06x}")));
    }
    let tenant = c.u64()?;
    c.u16()?; // shard routing hint: opaque to the decoder (see peek_shard)
    let n_inputs = c.u16()? as usize;
    let n_plain = c.u16()? as usize;
    let n_ops = c.u16()? as usize;
    let deadline_us = if flags & FLAG_DEADLINE != 0 {
        let d = f64::from_bits(c.u64()?);
        if !d.is_finite() || d < 0.0 {
            return Err(wire_err(format!("bad deadline {d} in request header")));
        }
        Some(d)
    } else {
        None
    };
    let trace_id = if flags & FLAG_TRACE != 0 {
        Some(c.u64()?)
    } else {
        None
    };

    let mut inputs = Vec::with_capacity(n_inputs.min(1024));
    for _ in 0..n_inputs {
        let len = c.u32()? as usize;
        let ct_bytes = c.take(len)?;
        inputs.push(decode_ciphertext(ctx, ct_bytes)?);
    }
    let mut plaintexts = Vec::with_capacity(n_plain.min(1024));
    let (t, n) = (ctx.params().t, ctx.params().n);
    for i in 0..n_plain {
        let n_coeffs = c.u32()? as usize;
        if n_coeffs > n {
            return Err(wire_err(format!(
                "plaintext {i} has {n_coeffs} coefficients, ring degree is {n}"
            )));
        }
        let mut coeffs = Vec::with_capacity(n_coeffs);
        for _ in 0..n_coeffs {
            let v = c.u64()?;
            if v >= t {
                return Err(wire_err(format!(
                    "plaintext {i} coefficient {v} out of range for t={t}"
                )));
            }
            coeffs.push(v);
        }
        plaintexts.push(Plaintext::new(coeffs, t, n));
    }
    let mut ops = Vec::with_capacity(n_ops.min(4096));
    for at in 0..n_ops {
        let opcode = c.u8()?;
        let a = read_ref(&mut c)?;
        let b_tag = c.u8()?;
        let b_idx = c.u32()?;
        let b_ref = |tag: u8, idx: u32| -> Result<ValRef, EngineError> {
            match tag {
                TAG_INPUT => Ok(ValRef::Input(idx)),
                TAG_OP => Ok(ValRef::Op(idx)),
                t => Err(wire_err(format!("op {at}: bad second-operand tag {t}"))),
            }
        };
        let op = match opcode {
            0 => EvalOp::Add(a, b_ref(b_tag, b_idx)?),
            1 => EvalOp::Sub(a, b_ref(b_tag, b_idx)?),
            2 => EvalOp::Neg(a),
            3 => EvalOp::Mul(a, b_ref(b_tag, b_idx)?),
            4 if b_tag == TAG_IMM => EvalOp::MulPlain(a, b_idx),
            5 if b_tag == TAG_IMM => EvalOp::Rotate(a, b_idx),
            6 => EvalOp::SumSlots(a),
            o => return Err(wire_err(format!("op {at}: bad opcode {o} (tag {b_tag})"))),
        };
        ops.push(op);
    }
    c.finish()?;
    let req = EvalRequest {
        tenant,
        inputs,
        plaintexts,
        ops,
        deadline_us,
        trace_id,
    };
    req.validate(ctx)?;
    Ok(req)
}

/// Reads a request frame's client-chosen trace id from the header alone
/// (`None` when the client did not set one and the engine will mint an
/// id at admission).
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the header is not a
/// well-formed v2 request header.
pub fn peek_trace_id(bytes: &[u8]) -> Result<Option<u64>, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != REQ_MAGIC {
        return Err(wire_err("bad request magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported request version"));
    }
    let flags = c.u16()?;
    if flags & FLAG_TRACE == 0 {
        return Ok(None);
    }
    c.u64()?; // tenant
    c.u16()?; // shard
    c.u16()?; // n_inputs
    c.u16()?; // n_plaintexts
    c.u16()?; // n_ops
    if flags & FLAG_DEADLINE != 0 {
        c.u64()?;
    }
    Ok(Some(c.u64()?))
}

/// Reads a request frame's shard address from the header alone (no
/// payload work): `Ok(None)` when the frame is unrouted ([`NO_SHARD`]) and
/// placement is the router's call.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the header is not a
/// well-formed v2 request header.
pub fn peek_shard(bytes: &[u8]) -> Result<Option<u16>, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != REQ_MAGIC {
        return Err(wire_err("bad request magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported request version"));
    }
    c.u16()?; // flags
    c.u64()?; // tenant
    let shard = c.u16()?;
    Ok((shard != NO_SHARD).then_some(shard))
}

/// Reads a request frame's tenant id from the header alone.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the header is not a
/// well-formed v2 request header.
pub fn peek_tenant(bytes: &[u8]) -> Result<u64, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != REQ_MAGIC {
        return Err(wire_err("bad request magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported request version"));
    }
    c.u16()?; // flags
    c.u64()
}

/// Reads a request frame's relative deadline (µs of virtual clock) from
/// the header alone: `None` when the client set no deadline. A cluster
/// front-end uses this to budget hedged retries without decoding the
/// payload.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the header is not a
/// well-formed v2 request header or the deadline bits are not a finite
/// non-negative float.
pub fn peek_deadline(bytes: &[u8]) -> Result<Option<f64>, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != REQ_MAGIC {
        return Err(wire_err("bad request magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported request version"));
    }
    let flags = c.u16()?;
    if flags & FLAG_DEADLINE == 0 {
        return Ok(None);
    }
    c.u64()?; // tenant
    c.u16()?; // shard
    c.u16()?; // n_inputs
    c.u16()?; // n_plaintexts
    c.u16()?; // n_ops
    let d = f64::from_bits(c.u64()?);
    if !d.is_finite() || d < 0.0 {
        return Err(wire_err(format!("bad deadline {d} in request header")));
    }
    Ok(Some(d))
}

/// Serializes a job outcome that did not come from an identifiable
/// shard, stamped [`ERROR_SHARD`] on the error path (single-engine
/// deployments get shard 0 on success; routers use
/// [`encode_response_from_shard`]).
pub fn encode_response(outcome: &Result<EvalResponse, (u64, EngineError)>) -> Vec<u8> {
    let stamp = if outcome.is_ok() { 0 } else { ERROR_SHARD };
    encode_response_from_shard(outcome, stamp)
}

/// Serializes a job outcome stamped with the shard that produced it.
pub fn encode_response_from_shard(
    outcome: &Result<EvalResponse, (u64, EngineError)>,
    shard: u8,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, RESP_MAGIC);
    put_u16(&mut out, VERSION);
    match outcome {
        Ok(resp) => {
            out.push(0);
            out.push(shard);
            put_u64(&mut out, resp.job_id);
            put_u32(&mut out, resp.report.worker);
            put_u64(&mut out, resp.report.queue_ns);
            put_u64(&mut out, resp.report.exec_ns);
            put_u64(&mut out, resp.report.est_cost_us.to_bits());
            put_u64(&mut out, resp.report.noise_bits_consumed.to_bits());
            let bytes = encode_ciphertext(&resp.result);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
        Err((job_id, e)) => {
            out.push(1);
            out.push(shard);
            put_u64(&mut out, *job_id);
            out.push(e.code().as_u8());
            match e.retry_after_us() {
                Some(us) => {
                    out.push(ERR_FLAG_RETRY_AFTER);
                    put_u64(&mut out, us);
                }
                None => out.push(0),
            }
            let msg = e.to_string();
            put_u32(&mut out, msg.len() as u32);
            out.extend_from_slice(msg.as_bytes());
        }
    }
    out
}

/// Deserializes a response frame.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` for malformed frames.
pub fn decode_response(ctx: &FvContext, bytes: &[u8]) -> Result<ResponseFrame, EngineError> {
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(wire_err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != RESP_MAGIC {
        return Err(wire_err("bad response magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported response version"));
    }
    let status = c.u8()?;
    c.u8()?; // producing shard: opaque here (see peek_response_shard)
    let job_id = c.u64()?;
    match status {
        0 => {
            let worker = c.u32()?;
            let queue_ns = c.u64()?;
            let exec_ns = c.u64()?;
            let est_cost_us = f64::from_bits(c.u64()?);
            let noise_bits_consumed = f64::from_bits(c.u64()?);
            if !est_cost_us.is_finite() || !noise_bits_consumed.is_finite() {
                return Err(wire_err("non-finite cost/noise in response"));
            }
            let len = c.u32()? as usize;
            let ct = decode_ciphertext(ctx, c.take(len)?)?;
            c.finish()?;
            Ok(ResponseFrame::Ok(EvalResponse {
                job_id,
                result: ct,
                report: JobReport {
                    worker,
                    queue_ns,
                    exec_ns,
                    est_cost_us,
                    noise_bits_consumed,
                },
            }))
        }
        1 => {
            let (code, retry_after_us) = read_error_tail(&mut c)?;
            let len = c.u32()? as usize;
            let msg = std::str::from_utf8(c.take(len)?)
                .map_err(|_| wire_err("error message is not UTF-8"))?
                .to_string();
            c.finish()?;
            Ok(ResponseFrame::Err {
                job_id,
                code,
                retry_after_us,
                message: msg,
            })
        }
        s => Err(wire_err(format!("bad response status {s}"))),
    }
}

/// Reads the `code u8 | flags u8 | [retry_after_us u64]` error tail.
fn read_error_tail(c: &mut Cursor) -> Result<(ErrorCode, Option<u64>), EngineError> {
    let code_byte = c.u8()?;
    let code = ErrorCode::from_u8(code_byte)
        .ok_or_else(|| wire_err(format!("unknown error code {code_byte}")))?;
    let flags = c.u8()?;
    if flags & !ERR_FLAG_RETRY_AFTER != 0 {
        return Err(wire_err(format!("unknown error flags {flags:#04x}")));
    }
    let retry_after_us = if flags & ERR_FLAG_RETRY_AFTER != 0 {
        Some(c.u64()?)
    } else {
        None
    };
    Ok((code, retry_after_us))
}

/// The typed-refusal header of an error response, read without a
/// context (error frames carry no ciphertext, so classification needs
/// no key material — this is what a client's retry loop consumes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseErrorInfo {
    /// The failing job's id (`u64::MAX` for transport-level failures).
    pub job_id: u64,
    /// Machine-readable refusal class.
    pub code: ErrorCode,
    /// Suggested wait before retrying, when the producer had one.
    pub retry_after_us: Option<u64>,
    /// Rendered error message.
    pub message: String,
}

/// Classifies a response frame without a context: `Ok(None)` for
/// success frames (whose ciphertext needs [`decode_response`]),
/// `Ok(Some(..))` with the full typed refusal for error frames.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` for malformed frames.
pub fn peek_response_error(bytes: &[u8]) -> Result<Option<ResponseErrorInfo>, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != RESP_MAGIC {
        return Err(wire_err("bad response magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported response version"));
    }
    let status = c.u8()?;
    c.u8()?; // producing shard
    let job_id = c.u64()?;
    match status {
        0 => Ok(None),
        1 => {
            let (code, retry_after_us) = read_error_tail(&mut c)?;
            let len = c.u32()? as usize;
            let message = std::str::from_utf8(c.take(len)?)
                .map_err(|_| wire_err("error message is not UTF-8"))?
                .to_string();
            c.finish()?;
            Ok(Some(ResponseErrorInfo {
                job_id,
                code,
                retry_after_us,
                message,
            }))
        }
        s => Err(wire_err(format!("bad response status {s}"))),
    }
}

/// Reads the shard that produced a response frame from the header alone.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the header is not a
/// well-formed v2 response header.
pub fn peek_response_shard(bytes: &[u8]) -> Result<u8, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != RESP_MAGIC {
        return Err(wire_err("bad response magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported response version"));
    }
    c.u8()?; // status
    c.u8()
}

/// Overwrites a response frame's shard stamp in place, so a cluster
/// front-end can present replies produced by a remote node under the
/// front-side shard id the client routed against. Frames that are not
/// well-formed `HEVP` responses — and error responses already stamped
/// [`ERROR_SHARD`] (the "never reached a shard" marker) — are left
/// untouched.
pub fn restamp_response_shard(frame: &mut [u8], shard: u8) {
    // magic u32 | version u16 | status u8 | shard u8 — stamp is byte 7.
    if frame.len() >= 8
        && frame[..4] == RESP_MAGIC.to_le_bytes()
        && frame[4..6] == VERSION.to_le_bytes()
        && frame[7] != ERROR_SHARD
    {
        frame[7] = shard;
    }
}

/// Reads a response frame's job id from the header alone (`u64::MAX`
/// marks transport-level failures and asynchronously-failed jobs).
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the header is not a
/// well-formed v2 response header.
pub fn peek_response_job_id(bytes: &[u8]) -> Result<u64, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != RESP_MAGIC {
        return Err(wire_err("bad response magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported response version"));
    }
    c.u8()?; // status
    c.u8()?; // shard
    c.u64()
}

/// What a `HEVS` admin frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsKind {
    /// The Prometheus-text metrics exposition of the serving fleet.
    Metrics,
    /// A plain-text dump of recent and slow trace spans.
    Traces,
}

impl StatsKind {
    fn from_byte(b: u8) -> Result<StatsKind, EngineError> {
        match b {
            0 => Ok(StatsKind::Metrics),
            1 => Ok(StatsKind::Traces),
            k => Err(wire_err(format!("bad stats kind {k}"))),
        }
    }

    fn byte(self) -> u8 {
        match self {
            StatsKind::Metrics => 0,
            StatsKind::Traces => 1,
        }
    }
}

const STATS_DIR_REQUEST: u8 = 0;
const STATS_DIR_RESPONSE: u8 = 1;

/// Whether a frame is a `HEVS` admin frame (cheap magic check — lets a
/// server route admin frames before any request decode).
#[must_use]
pub fn is_stats_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == STATS_MAGIC.to_le_bytes()
}

/// Serializes a `HEVS` admin request.
#[must_use]
pub fn encode_stats_request(kind: StatsKind) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    put_u32(&mut out, STATS_MAGIC);
    put_u16(&mut out, VERSION);
    out.push(STATS_DIR_REQUEST);
    out.push(kind.byte());
    out
}

/// Deserializes a `HEVS` admin request.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` for malformed frames (bad
/// magic/version/kind, a response where a request was expected, or
/// trailing bytes).
pub fn decode_stats_request(bytes: &[u8]) -> Result<StatsKind, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != STATS_MAGIC {
        return Err(wire_err("bad stats magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported stats version"));
    }
    if c.u8()? != STATS_DIR_REQUEST {
        return Err(wire_err("stats frame is not a request"));
    }
    let kind = StatsKind::from_byte(c.u8()?)?;
    c.finish()?;
    Ok(kind)
}

/// Serializes a `HEVS` admin response carrying `body` (Prometheus text
/// for [`StatsKind::Metrics`], span dump for [`StatsKind::Traces`]).
#[must_use]
pub fn encode_stats_response(kind: StatsKind, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    put_u32(&mut out, STATS_MAGIC);
    put_u16(&mut out, VERSION);
    out.push(STATS_DIR_RESPONSE);
    out.push(kind.byte());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(body.as_bytes());
    out
}

/// Deserializes a `HEVS` admin response into `(kind, body)`.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` for malformed frames
/// (including bodies beyond [`MAX_FRAME_BYTES`] or invalid UTF-8).
pub fn decode_stats_response(bytes: &[u8]) -> Result<(StatsKind, String), EngineError> {
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(wire_err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != STATS_MAGIC {
        return Err(wire_err("bad stats magic"));
    }
    if c.u16()? != VERSION {
        return Err(wire_err("unsupported stats version"));
    }
    if c.u8()? != STATS_DIR_RESPONSE {
        return Err(wire_err("stats frame is not a response"));
    }
    let kind = StatsKind::from_byte(c.u8()?)?;
    let len = c.u32()? as usize;
    let body = std::str::from_utf8(c.take(len)?)
        .map_err(|_| wire_err("stats body is not UTF-8"))?
        .to_string();
    c.finish()?;
    Ok((kind, body))
}

// ---------------------------------------------------------------------------
// HEVK key-transfer frames
// ---------------------------------------------------------------------------
//
// When a cluster front-end registers a tenant, re-pins it, or changes the
// ring, the tenant's key material must reach the node that will execute
// its jobs *before* any of those jobs do. The `HEVK` frame family carries
// one tenant's keys (any subset of public / relin / Galois) node-to-node
// over the same envelope protocol as requests:
//
// ```text
// key-push := "HEVK" u32 | version=3 u16 | dir=0|2 u8 | sections u8
//           | tenant u64
//           | [sections bit 0] len u32 | core-wire public key
//           | [sections bit 1] len u32 | core-wire relin key
//           | [sections bit 2] len u32 | core-wire Galois key set
// key-ack  := "HEVK" u32 | version=3 u16 | dir=1 u8 | status u8
//           | tenant u64
//           | [status=1] len u32 | utf-8 error message
// ```
//
// Direction 2 is a *replica* push: identical payload, but the direction
// bit tells the receiving node it is a ring-successor key holder rather
// than the tenant's primary — durability bookkeeping
// (`hefv_keys_replicated_total`) without a second frame family.

const KEY_DIR_PUSH: u8 = 0;
const KEY_DIR_ACK: u8 = 1;
const KEY_DIR_REPLICA_PUSH: u8 = 2;
const KEY_SECTION_PUBLIC: u8 = 1;
const KEY_SECTION_RELIN: u8 = 2;
const KEY_SECTION_GALOIS: u8 = 4;

/// Whether a frame is a `HEVK` key-transfer frame (cheap magic check, the
/// same routing seam as [`is_stats_frame`]).
#[must_use]
pub fn is_key_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == KEY_MAGIC.to_le_bytes()
}

/// Serializes a key-transfer push carrying whichever keys the tenant has.
#[must_use]
pub fn encode_key_push(tenant: TenantId, keys: &TenantKeys) -> Vec<u8> {
    encode_key_push_dir(tenant, keys, KEY_DIR_PUSH)
}

/// Serializes a *replica* key push: same payload as
/// [`encode_key_push`], but the direction bit tells the receiving node
/// it is holding the tenant's keys as a ring-successor replica, not as
/// the primary (it counts the push into `hefv_keys_replicated_total`).
#[must_use]
pub fn encode_replica_key_push(tenant: TenantId, keys: &TenantKeys) -> Vec<u8> {
    encode_key_push_dir(tenant, keys, KEY_DIR_REPLICA_PUSH)
}

fn encode_key_push_dir(tenant: TenantId, keys: &TenantKeys, dir: u8) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, KEY_MAGIC);
    put_u16(&mut out, KEY_VERSION);
    out.push(dir);
    let mut sections = 0;
    if keys.pk.is_some() {
        sections |= KEY_SECTION_PUBLIC;
    }
    if keys.rlk.is_some() {
        sections |= KEY_SECTION_RELIN;
    }
    if keys.galois.is_some() {
        sections |= KEY_SECTION_GALOIS;
    }
    out.push(sections);
    put_u64(&mut out, tenant);
    let mut put_blob = |blob: Vec<u8>| {
        put_u32(&mut out, blob.len() as u32);
        out.extend_from_slice(&blob);
    };
    if let Some(pk) = &keys.pk {
        put_blob(hefv_core::wire::encode_public_key(pk));
    }
    if let Some(rlk) = &keys.rlk {
        put_blob(hefv_core::wire::encode_relin_key(rlk));
    }
    if let Some(gks) = &keys.galois {
        put_blob(hefv_core::wire::encode_galois_key_set(gks));
    }
    out
}

/// Reads a key-transfer frame's tenant id from the header alone (push and
/// ack frames share the header layout).
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the header is not a
/// well-formed v3 `HEVK` header.
pub fn peek_key_tenant(bytes: &[u8]) -> Result<TenantId, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != KEY_MAGIC {
        return Err(wire_err("bad key-transfer magic"));
    }
    if c.u16()? != KEY_VERSION {
        return Err(wire_err("unsupported key-transfer version"));
    }
    c.u8()?; // direction
    c.u8()?; // sections / status
    c.u64()
}

/// Whether a key-transfer push addresses the receiver as a replica key
/// holder (direction 2) rather than the tenant's primary (direction 0).
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` when the frame is not a
/// well-formed v3 `HEVK` push header (acks included — they carry no
/// role).
pub fn peek_key_push_replica(bytes: &[u8]) -> Result<bool, EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != KEY_MAGIC {
        return Err(wire_err("bad key-transfer magic"));
    }
    if c.u16()? != KEY_VERSION {
        return Err(wire_err("unsupported key-transfer version"));
    }
    match c.u8()? {
        KEY_DIR_PUSH => Ok(false),
        KEY_DIR_REPLICA_PUSH => Ok(true),
        _ => Err(wire_err("key-transfer frame is not a push")),
    }
}

/// Deserializes and validates a key-transfer push against `ctx`, the
/// parameter set of the shard that will own the tenant.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` for malformed frames and for
/// key blobs failing the C-VALIDATE checks in `hefv_core::wire`.
pub fn decode_key_push(
    ctx: &FvContext,
    bytes: &[u8],
) -> Result<(TenantId, TenantKeys), EngineError> {
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(wire_err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != KEY_MAGIC {
        return Err(wire_err("bad key-transfer magic"));
    }
    if c.u16()? != KEY_VERSION {
        return Err(wire_err("unsupported key-transfer version"));
    }
    let dir = c.u8()?;
    if dir != KEY_DIR_PUSH && dir != KEY_DIR_REPLICA_PUSH {
        return Err(wire_err("key-transfer frame is not a push"));
    }
    let sections = c.u8()?;
    let known = KEY_SECTION_PUBLIC | KEY_SECTION_RELIN | KEY_SECTION_GALOIS;
    if sections & !known != 0 {
        return Err(wire_err(format!(
            "unknown key-push sections {sections:#04x}"
        )));
    }
    let tenant = c.u64()?;
    let mut keys = TenantKeys::default();
    if sections & KEY_SECTION_PUBLIC != 0 {
        let len = c.u32()? as usize;
        let pk = hefv_core::wire::decode_public_key(ctx, c.take(len)?)?;
        keys.pk = Some(Arc::new(pk));
    }
    if sections & KEY_SECTION_RELIN != 0 {
        let len = c.u32()? as usize;
        let rlk = hefv_core::wire::decode_relin_key(ctx, c.take(len)?)?;
        keys.rlk = Some(Arc::new(rlk));
    }
    if sections & KEY_SECTION_GALOIS != 0 {
        let len = c.u32()? as usize;
        let gks = hefv_core::wire::decode_galois_key_set(ctx, c.take(len)?)?;
        keys.galois = Some(Arc::new(gks));
    }
    c.finish()?;
    Ok((tenant, keys))
}

/// Serializes a key-transfer acknowledgement: the receiving node's verdict
/// on a push (`Err` carries its message).
#[must_use]
pub fn encode_key_ack(tenant: TenantId, outcome: Result<(), &str>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, KEY_MAGIC);
    put_u16(&mut out, KEY_VERSION);
    out.push(KEY_DIR_ACK);
    match outcome {
        Ok(()) => {
            out.push(0);
            put_u64(&mut out, tenant);
        }
        Err(msg) => {
            out.push(1);
            put_u64(&mut out, tenant);
            put_u32(&mut out, msg.len() as u32);
            out.extend_from_slice(msg.as_bytes());
        }
    }
    out
}

/// Deserializes a key-transfer acknowledgement into
/// `(tenant, Ok | Err(message))`.
///
/// # Errors
///
/// [`EngineError::Core`]`(`[`Error::Wire`]`)` for malformed frames.
pub fn decode_key_ack(bytes: &[u8]) -> Result<(TenantId, Result<(), String>), EngineError> {
    let mut c = Cursor { bytes, off: 0 };
    if c.u32()? != KEY_MAGIC {
        return Err(wire_err("bad key-transfer magic"));
    }
    if c.u16()? != KEY_VERSION {
        return Err(wire_err("unsupported key-transfer version"));
    }
    if c.u8()? != KEY_DIR_ACK {
        return Err(wire_err("key-transfer frame is not an ack"));
    }
    let status = c.u8()?;
    let tenant = c.u64()?;
    let outcome = match status {
        0 => Ok(()),
        1 => {
            let len = c.u32()? as usize;
            let msg = std::str::from_utf8(c.take(len)?)
                .map_err(|_| wire_err("key-ack message is not UTF-8"))?
                .to_string();
            Err(msg)
        }
        s => return Err(wire_err(format!("bad key-ack status {s}"))),
    };
    c.finish()?;
    Ok((tenant, outcome))
}

// ---------------------------------------------------------------------------
// HEVR registry snapshots
// ---------------------------------------------------------------------------
//
// A node's durability story: its `KeyRegistry` serializes every resident
// tenant into one checksummed blob a restarted process can reload, so an
// unplanned kill does not force every tenant through the expensive
// re-registration path. Layout:
//
// ```text
// snapshot := "HEVR" u32 | version=3 u16 | tenant_count u32
//           | entries…(len u32 | HEVK key-push frame)
//           | crc32 u32                  (over all preceding bytes)
// ```
//
// Each entry embeds a complete length-prefixed `HEVK` push frame, so the
// per-tenant payload reuses the key-transfer codec — including its
// C-VALIDATE checks — verbatim. The CRC32 trailer is verified *before*
// any parsing; a torn or bit-flipped file is refused whole with
// [`EngineError::IntegrityFailure`], never partially restored.

/// Serializes a registry snapshot over `(tenant, keys)` entries.
#[must_use]
pub fn encode_registry_snapshot(entries: &[(TenantId, Arc<TenantKeys>)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, SNAP_MAGIC);
    put_u16(&mut out, KEY_VERSION);
    put_u32(&mut out, entries.len() as u32);
    for (tenant, keys) in entries {
        let frame = encode_key_push(*tenant, keys);
        put_u32(&mut out, frame.len() as u32);
        out.extend_from_slice(&frame);
    }
    let crc = hefv_core::crc32::crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Whether a blob is (the start of) an `HEVR` registry snapshot.
#[must_use]
pub fn is_registry_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == SNAP_MAGIC.to_le_bytes()
}

/// Deserializes and validates a registry snapshot against `ctx`.
///
/// The CRC32 trailer is checked over the whole blob before a single
/// field is parsed, and the entries are staged in full before being
/// returned — there is no partial restore on any failure path.
///
/// # Errors
///
/// [`EngineError::IntegrityFailure`] for *every* rejection — CRC
/// mismatch, truncation, trailing garbage, bad magic/version/counts,
/// and key blobs failing the C-VALIDATE checks — so callers surface one
/// typed outcome for "this snapshot cannot be trusted".
pub fn decode_registry_snapshot(
    ctx: &FvContext,
    bytes: &[u8],
) -> Result<Vec<(TenantId, TenantKeys)>, EngineError> {
    decode_registry_snapshot_inner(ctx, bytes).map_err(|e| match e {
        EngineError::IntegrityFailure(_) => e,
        other => EngineError::IntegrityFailure(other.to_string()),
    })
}

fn decode_registry_snapshot_inner(
    ctx: &FvContext,
    bytes: &[u8],
) -> Result<Vec<(TenantId, TenantKeys)>, EngineError> {
    // magic 4 | version 2 | count 4 | … | crc 4
    if bytes.len() < 14 {
        return Err(wire_err(format!(
            "snapshot of {} bytes is shorter than an empty snapshot",
            bytes.len()
        )));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    let computed = hefv_core::crc32::crc32(body);
    if stored != computed {
        return Err(EngineError::IntegrityFailure(format!(
            "snapshot CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    let mut c = Cursor {
        bytes: body,
        off: 0,
    };
    if c.u32()? != SNAP_MAGIC {
        return Err(wire_err("bad snapshot magic"));
    }
    if c.u16()? != KEY_VERSION {
        return Err(wire_err("unsupported snapshot version"));
    }
    let count = c.u32()? as usize;
    let mut staged = Vec::with_capacity(count.min(1024));
    for i in 0..count {
        let len = c.u32()? as usize;
        let frame = c.take(len)?;
        let (tenant, keys) = decode_key_push(ctx, frame)
            .map_err(|e| wire_err(format!("snapshot entry {i}: {e}")))?;
        staged.push((tenant, keys));
    }
    c.finish()?;
    Ok(staged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_frames_roundtrip() {
        for kind in [StatsKind::Metrics, StatsKind::Traces] {
            let rq = encode_stats_request(kind);
            assert!(is_stats_frame(&rq));
            assert_eq!(decode_stats_request(&rq).unwrap(), kind);

            let body = "hefv_jobs_completed_total 42\n";
            let rp = encode_stats_response(kind, body);
            assert!(is_stats_frame(&rp));
            let (k, b) = decode_stats_response(&rp).unwrap();
            assert_eq!(k, kind);
            assert_eq!(b, body);

            // Directions don't cross-decode.
            assert!(decode_stats_request(&rp).is_err());
            assert!(decode_stats_response(&rq).is_err());
        }
    }

    #[test]
    fn stats_frames_reject_malformed() {
        assert!(!is_stats_frame(b"HEV"));
        assert!(!is_stats_frame(&REQ_MAGIC.to_le_bytes()));
        let mut rq = encode_stats_request(StatsKind::Metrics);
        rq.push(0); // trailing byte
        assert!(decode_stats_request(&rq).is_err());
        let mut rp = encode_stats_response(StatsKind::Metrics, "x");
        rp[7] = 9; // bad kind
        assert!(decode_stats_response(&rp).is_err());
    }

    #[test]
    fn request_frames_are_not_stats_frames() {
        // `HEVQ` vs `HEVS` magic differ in one byte; the router must
        // never confuse them.
        assert_ne!(REQ_MAGIC, STATS_MAGIC);
        assert_ne!(RESP_MAGIC, STATS_MAGIC);
        assert_ne!(KEY_MAGIC, STATS_MAGIC);
        assert_ne!(KEY_MAGIC, REQ_MAGIC);
        assert_ne!(KEY_MAGIC, RESP_MAGIC);
    }

    #[test]
    fn key_push_roundtrips() {
        use hefv_core::keys::keygen;
        use hefv_core::params::FvParams;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let (_, pk, rlk) = keygen(&ctx, &mut rng);
        let keys = TenantKeys::compute(pk, rlk);

        let frame = encode_key_push(7, &keys);
        assert!(is_key_frame(&frame));
        assert!(!is_stats_frame(&frame));
        assert_eq!(peek_key_tenant(&frame).unwrap(), 7);

        let (tenant, back) = decode_key_push(&ctx, &frame).unwrap();
        assert_eq!(tenant, 7);
        assert!(back.pk.is_some());
        assert!(back.rlk.is_some());
        assert!(back.galois.is_none());

        // Empty key sets are legal (a tenant doing only additions).
        let empty = encode_key_push(8, &TenantKeys::default());
        let (t, k) = decode_key_push(&ctx, &empty).unwrap();
        assert_eq!(t, 8);
        assert!(k.pk.is_none() && k.rlk.is_none() && k.galois.is_none());

        // Truncation and trailing bytes are rejected.
        let mut bad = frame.clone();
        bad.truncate(bad.len() - 1);
        assert!(decode_key_push(&ctx, &bad).is_err());
        let mut bad = frame.clone();
        bad.push(0);
        assert!(decode_key_push(&ctx, &bad).is_err());
    }

    #[test]
    fn key_acks_roundtrip() {
        let ok = encode_key_ack(3, Ok(()));
        assert!(is_key_frame(&ok));
        assert_eq!(peek_key_tenant(&ok).unwrap(), 3);
        assert_eq!(decode_key_ack(&ok).unwrap(), (3, Ok(())));

        let err = encode_key_ack(4, Err("no capacity"));
        assert_eq!(
            decode_key_ack(&err).unwrap(),
            (4, Err("no capacity".to_string()))
        );

        // Pushes and acks don't cross-decode.
        let ctx = FvContext::new(hefv_core::params::FvParams::insecure_toy()).unwrap();
        assert!(decode_key_push(&ctx, &ok).is_err());
        let push = encode_key_push(5, &TenantKeys::default());
        assert!(decode_key_ack(&push).is_err());
    }

    #[test]
    fn replica_pushes_carry_the_role_bit() {
        use hefv_core::keys::keygen;
        use hefv_core::params::FvParams;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let (_, pk, rlk) = keygen(&ctx, &mut rng);
        let keys = TenantKeys::compute(pk, rlk);

        let primary = encode_key_push(11, &keys);
        let replica = encode_replica_key_push(11, &keys);
        assert!(!peek_key_push_replica(&primary).unwrap());
        assert!(peek_key_push_replica(&replica).unwrap());
        // Same payload either way — only the direction byte differs.
        let (t, k) = decode_key_push(&ctx, &replica).unwrap();
        assert_eq!(t, 11);
        assert!(k.pk.is_some() && k.rlk.is_some());
        assert_eq!(peek_key_tenant(&replica).unwrap(), 11);

        // Acks have no role; unknown directions stay rejected.
        let ack = encode_key_ack(11, Ok(()));
        assert!(peek_key_push_replica(&ack).is_err());
        let mut bad = primary;
        bad[6] = 9;
        assert!(decode_key_push(&ctx, &bad).is_err());
        assert!(peek_key_push_replica(&bad).is_err());
    }

    #[test]
    fn registry_snapshots_roundtrip_and_refuse_corruption() {
        use hefv_core::keys::keygen;
        use hefv_core::params::FvParams;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let (_, pk, rlk) = keygen(&ctx, &mut rng);
        let entries = vec![
            (3u64, Arc::new(TenantKeys::compute(pk.clone(), rlk))),
            (9u64, Arc::new(TenantKeys::encrypt_only(pk))),
            (12u64, Arc::new(TenantKeys::default())),
        ];
        let blob = encode_registry_snapshot(&entries);
        assert!(is_registry_snapshot(&blob));
        let back = decode_registry_snapshot(&ctx, &blob).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].0, 3);
        assert!(back[0].1.pk.is_some() && back[0].1.rlk.is_some());
        assert_eq!(back[1].0, 9);
        assert!(back[1].1.rlk.is_none());
        assert_eq!(back[2].0, 12);

        // Empty snapshots are legal (a node with no tenants yet).
        let empty = encode_registry_snapshot(&[]);
        assert!(decode_registry_snapshot(&ctx, &empty).unwrap().is_empty());

        // Every corruption class → IntegrityFailure, never a panic.
        let refused = |bytes: &[u8]| match decode_registry_snapshot(&ctx, bytes) {
            Err(EngineError::IntegrityFailure(_)) => (),
            Err(other) => panic!("expected IntegrityFailure, got {other:?}"),
            Ok(entries) => panic!(
                "expected IntegrityFailure, got Ok with {} entries",
                entries.len()
            ),
        };
        let mut torn = blob.clone();
        torn.truncate(blob.len() / 2);
        refused(&torn);
        let mut trailing = blob.clone();
        trailing.push(0);
        refused(&trailing);
        let mut flipped = blob.clone();
        flipped[10] ^= 0x40;
        refused(&flipped);
        refused(b"HEVR");
    }

    #[test]
    fn peek_deadline_reads_header_only() {
        let req = EvalRequest {
            tenant: 9,
            inputs: vec![],
            plaintexts: vec![],
            ops: vec![],
            deadline_us: Some(1500.0),
            trace_id: Some(42),
        };
        let frame = encode_request(&req);
        assert_eq!(peek_deadline(&frame).unwrap(), Some(1500.0));

        let req = EvalRequest {
            deadline_us: None,
            ..req
        };
        let frame = encode_request(&req);
        assert_eq!(peek_deadline(&frame).unwrap(), None);
        assert!(peek_deadline(b"HEV").is_err());
    }

    #[test]
    fn error_responses_carry_the_typed_taxonomy() {
        use crate::error::ErrorCode;
        let ctx = FvContext::new(hefv_core::params::FvParams::insecure_toy()).unwrap();

        // A hint-carrying refusal roundtrips code + retry-after.
        let e = EngineError::Overload {
            retry_after_us: Some(1234),
        };
        let outcome: Result<EvalResponse, (u64, EngineError)> = Err((7, e.clone()));
        let frame = encode_response_from_shard(&outcome, 2);
        match decode_response(&ctx, &frame).unwrap() {
            ResponseFrame::Err {
                job_id,
                code,
                retry_after_us,
                message,
            } => {
                assert_eq!(job_id, 7);
                assert_eq!(code, ErrorCode::Overload);
                assert_eq!(retry_after_us, Some(1234));
                assert_eq!(message, e.to_string());
            }
            other => panic!("expected Err frame, got {other:?}"),
        }

        // The context-free peek reads the same refusal.
        let info = peek_response_error(&frame).unwrap().unwrap();
        assert_eq!(info.job_id, 7);
        assert_eq!(info.code, ErrorCode::Overload);
        assert_eq!(info.retry_after_us, Some(1234));
        assert!(info.message.contains("overloaded"));

        // A hint-free refusal omits the optional field entirely.
        let outcome: Result<EvalResponse, (u64, EngineError)> =
            Err((8, EngineError::Validation("empty graph".into())));
        let frame = encode_response(&outcome);
        let info = peek_response_error(&frame).unwrap().unwrap();
        assert_eq!(info.code, ErrorCode::Validation);
        assert_eq!(info.retry_after_us, None);

        // The code byte sits after magic 4 | ver 2 | status 1 | shard 1 |
        // job_id 8. Every live code reads back from its own byte.
        assert_eq!(frame[16], ErrorCode::Validation.as_u8());
        for code in crate::ERROR_CODES {
            let mut f = frame.clone();
            f[16] = code.as_u8();
            assert_eq!(peek_response_error(&f).unwrap().unwrap().code, code);
        }
        // Unknown codes — the retired byte 11 among them — and unknown
        // flags are rejected as wire errors, not guessed at.
        let is_wire = |e: EngineError| matches!(e, EngineError::Core(Error::Wire(_)));
        for byte in [11, 0xF0] {
            let mut bad = frame.clone();
            bad[16] = byte;
            assert!(is_wire(decode_response(&ctx, &bad).unwrap_err()));
            assert!(is_wire(peek_response_error(&bad).unwrap_err()));
        }
        let mut bad = frame.clone();
        bad[17] = 0x80; // flags byte
        assert!(peek_response_error(&bad).is_err());

        // Trailing bytes still fail the strict decode.
        let mut bad = frame;
        bad.push(0);
        assert!(decode_response(&ctx, &bad).is_err());
    }

    #[test]
    fn restamp_rewrites_only_real_shard_stamps() {
        let outcome: Result<EvalResponse, (u64, EngineError)> = Err((1, EngineError::QueueClosed));
        let mut frame = encode_response_from_shard(&outcome, 3);
        assert_eq!(peek_response_shard(&frame).unwrap(), 3);
        restamp_response_shard(&mut frame, 11);
        assert_eq!(peek_response_shard(&frame).unwrap(), 11);

        // ERROR_SHARD marks "never reached a shard" — restamping would
        // disguise a transport failure as a shard outcome.
        let mut frame = encode_response(&outcome);
        assert_eq!(peek_response_shard(&frame).unwrap(), ERROR_SHARD);
        restamp_response_shard(&mut frame, 11);
        assert_eq!(peek_response_shard(&frame).unwrap(), ERROR_SHARD);

        // Non-response frames are untouched.
        let mut stats = encode_stats_request(StatsKind::Metrics);
        let before = stats.clone();
        restamp_response_shard(&mut stats, 11);
        assert_eq!(stats, before);
    }
}
