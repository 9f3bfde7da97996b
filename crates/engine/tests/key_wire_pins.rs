//! Pins the key wire bytes. A fixed-seed toy tenant's relinearization
//! key, slot-sum Galois key set and `HEVR` registry snapshot must encode
//! to the same lengths and CRC32s as when they were recorded, so a change
//! to how keys are stored in memory cannot silently change what crosses
//! the network or lands on disk. Keys travel at 8 bytes per coefficient
//! (`u64` little-endian).

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
    let k = ctx.params().k();
    let structure =
        2 + gks.chain().len() * 2 + 2 + gks.groups().iter().map(|g| 2 + 2 * g.len()).sum::<usize>();
    assert_eq!(
        bytes.len(),
        13 + 2 + gks.keys().len() * (4 + 2 * k * digit_bytes(&ctx)) + structure
    );
    assert_eq!(
        crc32(&bytes),
        0xD6E4_47CA,
        "galois key set wire bytes changed"
    );
    let back = decode_galois_key_set(&ctx, &bytes).unwrap();
    assert_eq!(encode_galois_key_set(&back), bytes);
}

#[test]
fn registry_snapshot_bytes_are_pinned() {
    let (ctx, keys) = toy_tenant();
    let blob = encode_registry_snapshot(&[(7, Arc::new(keys))]);
    assert_eq!(blob.len(), 141_597, "HEVR snapshot length changed");
    assert_eq!(crc32(&blob), 0x2144_DF1C, "HEVR snapshot bytes changed");
    let back = decode_registry_snapshot(&ctx, &blob).unwrap();
    let again = encode_registry_snapshot(
        &back
            .into_iter()
            .map(|(t, k)| (t, Arc::new(k)))
            .collect::<Vec<_>>(),
    );
    assert_eq!(again, blob);
}
