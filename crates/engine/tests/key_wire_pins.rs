//! Pins the key wire bytes. A fixed-seed toy tenant's relinearization
//! key, slot-sum Galois key set and `HEVR` registry snapshot must encode
//! to the same lengths and CRC32s as when they were recorded, so a change
//! to how keys are stored in memory cannot silently change what crosses
//! the network or lands on disk. Keys travel at 8 bytes per coefficient
//! (`u64` little-endian). Galois key sets carry their digit count (two
//! digits of the toy set's three primes), and the layouts from before
//! that count existed are refused.

use hefv_core::context::FvContext;
use hefv_core::crc32::crc32;
use hefv_core::galois::GaloisKeySet;
use hefv_core::keys::keygen;
use hefv_core::params::FvParams;
use hefv_core::wire::{
    decode_galois_key_set, decode_relin_key, encode_galois_key_set, encode_relin_key,
};
use hefv_engine::wire::{decode_registry_snapshot, encode_registry_snapshot};
use hefv_engine::TenantKeys;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn toy_tenant() -> (FvContext, TenantKeys) {
    let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x4B45_5950);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
    (ctx, TenantKeys::full(pk, rlk, galois))
}

/// Bytes of one key digit polynomial: a domain byte plus `k·n` `u64`s.
fn digit_bytes(ctx: &FvContext) -> usize {
    1 + ctx.params().k() * ctx.params().n * 8
}

#[test]
fn relin_key_bytes_are_pinned() {
    let (ctx, keys) = toy_tenant();
    let rlk = keys.rlk.as_ref().unwrap();
    let bytes = encode_relin_key(rlk);
    let k = ctx.params().k();
    // magic 4 | tag 1 | k 4 | n 4 | digits 2 | 2k digit polynomials
    assert_eq!(bytes.len(), 15 + 2 * k * digit_bytes(&ctx));
    assert_eq!(crc32(&bytes), 0xA48C_0ED7, "relin key wire bytes changed");
    let back = decode_relin_key(&ctx, &bytes).unwrap();
    assert_eq!(encode_relin_key(&back), bytes);
}

#[test]
fn galois_key_set_bytes_are_pinned() {
    let (ctx, keys) = toy_tenant();
    let gks = keys.galois.as_ref().unwrap();
    let bytes = encode_galois_key_set(gks);
    let d = ctx.galois_digits();
    assert_eq!(gks.digits(), d);
    assert!(d < ctx.params().k(), "toy Galois keys group primes");
    let structure =
        2 + gks.chain().len() * 2 + 2 + gks.groups().iter().map(|g| 2 + 2 * g.len()).sum::<usize>();
    // magic 4 | tag 1 | k 4 | n 4 | digits 2 | keys 2 | per key: g 4 and
    // 2d digit polynomials | chain and groups
    assert_eq!(
        bytes.len(),
        13 + 2 + 2 + gks.keys().len() * (4 + 2 * d * digit_bytes(&ctx)) + structure
    );
    assert_eq!(
        crc32(&bytes),
        0x1020_B7C5,
        "galois key set wire bytes changed"
    );
    let back = decode_galois_key_set(&ctx, &bytes).unwrap();
    assert_eq!(encode_galois_key_set(&back), bytes);
}

#[test]
fn registry_snapshot_bytes_are_pinned() {
    let (ctx, keys) = toy_tenant();
    let blob = encode_registry_snapshot(&[(7, Arc::new(keys))]);
    assert_eq!(blob.len(), 67_795, "HEVR snapshot length changed");
    // The blob ends in the CRC-32 of everything before it, and the CRC-32
    // of any message followed by its own CRC is the constant 0x2144DF1C:
    // pin the body's checksum, which is the stored trailer.
    let (body, trailer) = blob.split_at(blob.len() - 4);
    assert_eq!(crc32(&blob), 0x2144_DF1C, "the trailer is the body's CRC");
    assert_eq!(trailer, crc32(body).to_le_bytes());
    assert_eq!(crc32(body), 0x9E60_ACFE, "HEVR snapshot bytes changed");
    let back = decode_registry_snapshot(&ctx, &blob).unwrap();
    let again = encode_registry_snapshot(
        &back
            .into_iter()
            .map(|(t, k)| (t, Arc::new(k)))
            .collect::<Vec<_>>(),
    );
    assert_eq!(again, blob);
}

/// A Galois key set carries its digit count. A blob whose count differs
/// from the receiving context's, or in the older one-digit-per-prime
/// layout (tag 2, no count), is refused with a wire error; so are
/// version-2 `HEVK` frames and `HEVR` snapshots, which embed such blobs.
#[test]
fn old_and_foreign_galois_layouts_are_refused() {
    use hefv_core::Error;
    use hefv_engine::wire::{decode_key_push, encode_key_push};
    use hefv_engine::{EngineError, ErrorCode};

    let (ctx, keys) = toy_tenant();
    let bytes = encode_galois_key_set(keys.galois.as_ref().unwrap());
    let d = ctx.galois_digits() as u16;
    // magic 4 | tag 1 | k 4 | n 4 | digits 2 …
    assert_eq!(bytes[4], 3, "Galois key-set tag");
    assert_eq!(bytes[13..15], d.to_le_bytes());

    let mut foreign = bytes.clone();
    foreign[13..15].copy_from_slice(&(d + 1).to_le_bytes());
    match decode_galois_key_set(&ctx, &foreign) {
        Err(Error::Wire(msg)) => assert!(msg.contains("digits"), "{msg}"),
        other => panic!("foreign digit count: {other:?}"),
    }
    let mut old = bytes.clone();
    old[4] = 2;
    match decode_galois_key_set(&ctx, &old) {
        Err(Error::Wire(msg)) => assert!(msg.contains("tag 2"), "{msg}"),
        other => panic!("old layout: {other:?}"),
    }

    // magic 4 | version 2 …, in both frame families.
    let mut push = encode_key_push(7, &keys);
    assert_eq!(push[4..6], 3u16.to_le_bytes(), "HEVK version");
    push[4..6].copy_from_slice(&2u16.to_le_bytes());
    match decode_key_push(&ctx, &push) {
        Err(EngineError::Core(Error::Wire(msg))) => assert!(msg.contains("version"), "{msg}"),
        Err(other) => panic!("v2 HEVK push: {other}"),
        Ok(_) => panic!("v2 HEVK push decoded"),
    }
    let mut snap = encode_registry_snapshot(&[(7, Arc::new(keys))]);
    assert_eq!(snap[4..6], 3u16.to_le_bytes(), "HEVR version");
    snap[4..6].copy_from_slice(&2u16.to_le_bytes());
    let body = snap.len() - 4;
    let crc = crc32(&snap[..body]);
    snap[body..].copy_from_slice(&crc.to_le_bytes());
    let Err(err) = decode_registry_snapshot(&ctx, &snap) else {
        panic!("v2 snapshot decoded");
    };
    assert_eq!(err.code(), ErrorCode::IntegrityFailure);
    assert!(err.to_string().contains("version"), "{err}");
}
