//! A reply counts as succeeded only when it carries the right ciphertext:
//! a flipped ciphertext byte, a wrong length prefix, extra bytes and an
//! error frame each count as failed.

use hefv_servebench::adapter::{self, ParamSet};
use hefv_servebench::verify::{score, Verdict};
use hefv_servebench::workload::{self, Frame};

fn add_frame() -> (adapter::Tenant, Frame, Vec<u8>) {
    let (tenant, _) = adapter::tenant(adapter::context(ParamSet::Medium), 5, false);
    let spec = workload::spec("rpc").unwrap();
    let job = workload::build_jobs(&tenant, &spec, 9).swap_remove(0);
    // A real reply from the default server, dispatched in-process.
    let frame_bytes = tenant.request_frame(&job);
    let service = adapter::serve(&tenant, None);
    let reply = service.dispatch_in_process(&frame_bytes);
    service.shutdown();
    let adapter::Reply::Ok { ct, .. } = adapter::decode_reply(&tenant, &reply) else {
        panic!("the server refused a valid Add");
    };
    assert_eq!(tenant.decrypt(&ct), job.expected);
    let frame = Frame {
        reference: adapter::ciphertext_bytes(&ct),
        bytes: frame_bytes,
        job,
    };
    (tenant, frame, reply)
}

#[test]
fn correct_reply_is_exact() {
    let (tenant, frame, reply) = add_frame();
    assert_eq!(score(&tenant, &frame, &reply), Verdict::Exact);
}

#[test]
fn equivalent_ciphertext_falls_back_to_decryption() {
    let (tenant, mut frame, reply) = add_frame();
    // A reference from some other (still correct) evaluation: the bytes no
    // longer match, so the reply is decrypted instead.
    let last = frame.reference.len() - 1;
    frame.reference[last] ^= 1;
    assert_eq!(score(&tenant, &frame, &reply), Verdict::Decrypted);
}

#[test]
fn flipped_ciphertext_byte_fails() {
    let (tenant, frame, reply) = add_frame();
    // Flip every bit of one byte of c0, at several positions: each breaks
    // the decoding, the decryption or the noise budget.
    let ct_start = reply.len() - frame.reference.len();
    for offset in [16, 17, 400, 2000] {
        let mut bad = reply.clone();
        bad[ct_start + offset] ^= 0xFF;
        let verdict = score(&tenant, &frame, &bad);
        assert!(!verdict.succeeded(), "byte {offset}: {verdict:?}");
    }
}

#[test]
fn corrupted_length_or_extra_bytes_fail() {
    let (tenant, frame, reply) = add_frame();
    let ct_start = reply.len() - frame.reference.len();
    let prefix = ct_start - 4;
    let len = frame.reference.len() as u32;
    let with_prefix = |bytes: &mut Vec<u8>, v: u32| {
        bytes[prefix..prefix + 4].copy_from_slice(&v.to_le_bytes());
    };
    let mut cases = Vec::new();
    // The ciphertext-length prefix off by one either way.
    for v in [len + 1, len - 1] {
        let mut bad = reply.clone();
        with_prefix(&mut bad, v);
        cases.push(bad);
    }
    // Extra bytes between the prefix and the ciphertext, with the prefix
    // left alone or grown to cover them.
    for v in [len, len + 4] {
        let mut bad = reply.clone();
        bad.splice(ct_start..ct_start, [0xA5; 4]);
        with_prefix(&mut bad, v);
        cases.push(bad);
    }
    for (i, bad) in cases.iter().enumerate() {
        let verdict = score(&tenant, &frame, bad);
        assert!(!verdict.succeeded(), "case {i}: {verdict:?}");
    }
}

#[test]
fn error_frame_fails() {
    let (tenant, frame, _) = add_frame();
    let verdict = score(&tenant, &frame, &adapter::encode_refusal("shed"));
    assert!(matches!(verdict, Verdict::Refused(_)), "{verdict:?}");
    assert!(!verdict.succeeded());
    let garbage = score(&tenant, &frame, b"not a reply frame");
    assert!(!garbage.succeeded());
}
