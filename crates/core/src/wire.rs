//! Wire format for ciphertexts — the paper's transfer layout.
//!
//! §V-D: "The coefficients of a ciphertext are kept in contiguous memory
//! locations" and every residue coefficient is a 30-bit value moved as
//! 4 bytes (Table III's 98,304-byte polynomial = 6 residues × 4096 × 4 B).
//! This module serializes ciphertexts exactly that way: a small header,
//! then residue-major little-endian `u32` coefficients.

use crate::context::FvContext;
use crate::encrypt::Ciphertext;
use crate::error::Error;
use crate::keyswitch::{KeySwitchKey, WireOrder};
use crate::rnspoly::{Domain, RnsPoly};

/// Magic tag guarding the header.
const MAGIC: u32 = 0x4845_4154; // "HEAT"

/// Serializes a ciphertext into the DMA byte layout.
///
/// # Panics
///
/// Panics if the ciphertext is in NTT domain (only coefficient-domain
/// ciphertexts cross the interface, as in the paper).
pub fn encode_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    assert_eq!(ct.c0().domain(), Domain::Coefficient, "wire domain");
    let k = ct.c0().k() as u32;
    let n = ct.c0().n() as u32;
    let mut out = Vec::with_capacity(12 + 2 * (k as usize) * (n as usize) * 4);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&k.to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    // The contiguous limb-major buffer already *is* the paper's DMA
    // layout (residue-major, coefficient-contiguous): stream it out.
    for poly in [ct.c0(), ct.c1()] {
        for &c in poly.flat() {
            debug_assert!(c < 1 << 32, "coefficient exceeds 4-byte lane");
            out.extend_from_slice(&(c as u32).to_le_bytes());
        }
    }
    out
}

/// Deserializes a ciphertext from the DMA byte layout.
///
/// # Errors
///
/// Returns [`Error::Wire`] when the header, sizes or length are
/// inconsistent with the context.
pub fn decode_ciphertext(ctx: &FvContext, bytes: &[u8]) -> Result<Ciphertext, Error> {
    let u32_at = |off: usize| -> Result<u32, Error> {
        bytes
            .get(off..off + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .ok_or_else(|| Error::Wire("truncated header".into()))
    };
    if u32_at(0)? != MAGIC {
        return Err(Error::Wire("bad magic".into()));
    }
    let k = u32_at(4)? as usize;
    let n = u32_at(8)? as usize;
    if k != ctx.params().k() || n != ctx.params().n {
        return Err(Error::Wire(format!(
            "shape mismatch: wire ({k},{n}) vs context ({},{})",
            ctx.params().k(),
            ctx.params().n
        )));
    }
    let want = 12 + 2 * k * n * 4;
    if bytes.len() != want {
        return Err(Error::Wire(format!(
            "length {} != expected {want}",
            bytes.len()
        )));
    }
    // Each body is one widening copy of `k·n` little-endian `u32` into the
    // polynomial's pre-sized storage, row by row, each row validated
    // against its modulus while it is hot (C-VALIDATE).
    let read_poly = |body: &[u8], name: &str| -> Result<RnsPoly, Error> {
        let mut data = vec![0u64; k * n];
        for (i, (row, src)) in data.chunks_mut(n).zip(body.chunks_exact(4 * n)).enumerate() {
            for (d, b) in row.iter_mut().zip(src.chunks_exact(4)) {
                *d = u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
            let q = ctx.base_q().modulus(i).value();
            if row.iter().any(|&c| c >= q) {
                return Err(Error::Wire(format!(
                    "{name} residue {i} has out-of-range coefficient"
                )));
            }
        }
        Ok(RnsPoly::from_flat(data, k, Domain::Coefficient))
    };
    let (c0_bytes, c1_bytes) = bytes[12..].split_at(k * n * 4);
    let c0 = read_poly(c0_bytes, "c0")?;
    let c1 = read_poly(c1_bytes, "c1")?;
    Ok(Ciphertext { c0, c1 })
}

// ---------------------------------------------------------------------------
// Key material codecs
// ---------------------------------------------------------------------------
//
// Ciphertexts cross the interface in the paper's 4-byte coefficient-domain
// DMA layout above. Key material does not fit that mold: every key the
// evaluator holds (public, relinearization, Galois) lives permanently in
// the NTT domain, and the codecs carry every residue as a full
// little-endian `u64` (8 bytes per coefficient), whatever width the
// evaluator stores it at (switching keys are 32-bit tables). The codecs below
// exist for the cluster tier — a router streams a tenant's keys to the
// node that owns (or newly owns) that tenant — so they use their own
// magic, keep the NTT domain explicit, and re-validate every coefficient
// against the receiving context (C-VALIDATE applies to keys too: a
// corrupt key silently corrupts every later evaluation).

/// Magic tag guarding key-material blobs ("HEKY").
const KEY_MAGIC: u32 = 0x4845_4B59;

const TAG_PUBLIC: u8 = 0;
const TAG_RELIN: u8 = 1;
/// Tag 2 was the Galois key-set layout before keys carried a digit count;
/// the tag check refuses it.
const TAG_GALOIS_SET: u8 = 3;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Streams one key polynomial: `domain u8 | k·n × u64` (the shape is
/// carried once in the enclosing header).
fn put_key_poly(out: &mut Vec<u8>, p: &RnsPoly) {
    put_key_coeffs(out, p.domain(), p.flat().iter().copied());
}

/// [`put_key_poly`] over residue-major coefficients from any source (the
/// switching keys stream straight from their 32-bit tables).
pub(crate) fn put_key_coeffs(out: &mut Vec<u8>, domain: Domain, coeffs: impl Iterator<Item = u64>) {
    out.push(match domain {
        Domain::Coefficient => 0,
        Domain::Ntt => 1,
    });
    for c in coeffs {
        out.extend_from_slice(&c.to_le_bytes());
    }
}

/// Byte cursor with the same strictness conventions as the request
/// decoder in `hefv-engine`: every read is bounds-checked, and the caller
/// finishes with an exact-length check.
struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], Error> {
        let s = self
            .bytes
            .get(self.off..self.off + len)
            .ok_or_else(|| Error::Wire("truncated key blob".into()))?;
        self.off += len;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, Error> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, Error> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn finish(&self) -> Result<(), Error> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(Error::Wire(format!(
                "{} trailing bytes after key blob",
                self.bytes.len() - self.off
            )))
        }
    }
}

/// Reads one key polynomial, validating domain and residue ranges.
fn read_key_poly(ctx: &FvContext, cur: &mut Cursor<'_>) -> Result<RnsPoly, Error> {
    let k = ctx.params().k();
    let n = ctx.params().n;
    if cur.u8()? != 1 {
        return Err(Error::Wire("key polynomial must be NTT-domain".into()));
    }
    let raw = cur.take(k * n * 8)?;
    let mut data = Vec::with_capacity(k * n);
    for chunk in raw.chunks_exact(8) {
        data.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let poly = RnsPoly::from_flat(data, k, Domain::Ntt);
    for (i, row) in poly.rows().enumerate() {
        let q = ctx.base_q().modulus(i).value();
        if row.iter().any(|&c| c >= q) {
            return Err(Error::Wire(format!(
                "key residue {i} has out-of-range coefficient"
            )));
        }
    }
    Ok(poly)
}

/// Checks the common `magic | tag | k | n` key header against a context.
fn read_key_header(ctx: &FvContext, cur: &mut Cursor<'_>, want_tag: u8) -> Result<(), Error> {
    if cur.u32()? != KEY_MAGIC {
        return Err(Error::Wire("bad key magic".into()));
    }
    let tag = cur.u8()?;
    if tag != want_tag {
        return Err(Error::Wire(format!(
            "key blob tag {tag} where {want_tag} was expected"
        )));
    }
    let k = cur.u32()? as usize;
    let n = cur.u32()? as usize;
    if k != ctx.params().k() || n != ctx.params().n {
        return Err(Error::Wire(format!(
            "key shape mismatch: wire ({k},{n}) vs context ({},{})",
            ctx.params().k(),
            ctx.params().n
        )));
    }
    Ok(())
}

fn put_key_header(out: &mut Vec<u8>, tag: u8, k: usize, n: usize) {
    put_u32(out, KEY_MAGIC);
    out.push(tag);
    put_u32(out, k as u32);
    put_u32(out, n as u32);
}

/// Serializes a public key (`p0`, `p1`, both NTT-domain).
pub fn encode_public_key(pk: &crate::keys::PublicKey) -> Vec<u8> {
    let mut out = Vec::new();
    put_key_header(&mut out, TAG_PUBLIC, pk.p0_ntt().k(), pk.p0_ntt().n());
    put_key_poly(&mut out, pk.p0_ntt());
    put_key_poly(&mut out, pk.p1_ntt());
    out
}

/// Deserializes a public key.
///
/// # Errors
///
/// Returns [`Error::Wire`] on any header, shape, domain, length or
/// residue-range inconsistency with the context.
pub fn decode_public_key(ctx: &FvContext, bytes: &[u8]) -> Result<crate::keys::PublicKey, Error> {
    let mut cur = Cursor { bytes, off: 0 };
    read_key_header(ctx, &mut cur, TAG_PUBLIC)?;
    let p0_ntt = read_key_poly(ctx, &mut cur)?;
    let p1_ntt = read_key_poly(ctx, &mut cur)?;
    cur.finish()?;
    Ok(crate::keys::PublicKey { p0_ntt, p1_ntt })
}

/// Serializes a relinearization key (digit pairs, NTT-domain).
pub fn encode_relin_key(rlk: &crate::keys::RelinKey) -> Vec<u8> {
    let mut out = Vec::new();
    let (k, n) = rlk.key.shape();
    put_key_header(&mut out, TAG_RELIN, k, n);
    put_u16(&mut out, k as u16);
    rlk.key.encode(WireOrder::Pairs, &mut out);
    out
}

/// Deserializes a relinearization key.
///
/// # Errors
///
/// See [`decode_public_key`]; additionally rejects a digit count that
/// disagrees with the context's residue count.
pub fn decode_relin_key(ctx: &FvContext, bytes: &[u8]) -> Result<crate::keys::RelinKey, Error> {
    let mut cur = Cursor { bytes, off: 0 };
    read_key_header(ctx, &mut cur, TAG_RELIN)?;
    let digits = cur.u16()? as usize;
    if digits != ctx.params().k() {
        return Err(Error::Wire(format!(
            "relin key has {digits} digits, context wants {}",
            ctx.params().k()
        )));
    }
    let key = KeySwitchKey::decode(ctx, 1, digits, WireOrder::Pairs, || {
        read_key_poly(ctx, &mut cur)
    })?;
    cur.finish()?;
    Ok(crate::keys::RelinKey { key })
}

/// Serializes a Galois key set: the digit count `d`, every switching
/// key's `2d` digit polynomials (all `ksk0`, then all `ksk1`) and the
/// chain/group index structure the slot-sum fold walks.
///
/// ```text
/// magic u32 | tag=3 u8 | k u32 | n u32 | d u16 | keys u16
///   | keys × (g u32 | 2d key polynomials)
///   | chain u16 | chain × u16 | groups u16 | groups × (len u16 | len × u16)
/// ```
pub fn encode_galois_key_set(gks: &crate::galois::GaloisKeySet) -> Vec<u8> {
    let mut out = Vec::new();
    let (k, n) = gks.keys()[0].key.shape();
    put_key_header(&mut out, TAG_GALOIS_SET, k, n);
    put_u16(&mut out, gks.digits() as u16);
    put_u16(&mut out, gks.keys().len() as u16);
    for key in gks.keys() {
        put_u32(&mut out, key.g as u32);
        key.key.encode(WireOrder::Halves, &mut out);
    }
    put_u16(&mut out, gks.chain().len() as u16);
    for &i in gks.chain() {
        put_u16(&mut out, i as u16);
    }
    put_u16(&mut out, gks.groups().len() as u16);
    for group in gks.groups() {
        put_u16(&mut out, group.len() as u16);
        for &i in group {
            put_u16(&mut out, i as u16);
        }
    }
    out
}

/// Deserializes a Galois key set.
///
/// # Errors
///
/// See [`decode_public_key`]; additionally rejects a blob in the older
/// layout without a digit count (tag 2), a digit count other than the
/// context's [`FvContext::galois_digits`], invalid automorphism exponents
/// and chain/group indices past the key vector.
pub fn decode_galois_key_set(
    ctx: &FvContext,
    bytes: &[u8],
) -> Result<crate::galois::GaloisKeySet, Error> {
    let mut cur = Cursor { bytes, off: 0 };
    read_key_header(ctx, &mut cur, TAG_GALOIS_SET)?;
    let digits = cur.u16()? as usize;
    if digits != ctx.galois_digits() {
        return Err(Error::Wire(format!(
            "galois key set has {digits} digits, context wants {}",
            ctx.galois_digits()
        )));
    }
    let n_keys = cur.u16()? as usize;
    let mut keys = Vec::with_capacity(n_keys);
    for _ in 0..n_keys {
        let g = cur.u32()? as usize;
        let key = KeySwitchKey::decode(ctx, g, digits, WireOrder::Halves, || {
            read_key_poly(ctx, &mut cur)
        })?;
        keys.push(crate::galois::GaloisKey { g, key });
    }
    let chain_len = cur.u16()? as usize;
    let mut chain = Vec::with_capacity(chain_len);
    for _ in 0..chain_len {
        chain.push(cur.u16()? as usize);
    }
    let n_groups = cur.u16()? as usize;
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let len = cur.u16()? as usize;
        let mut group = Vec::with_capacity(len);
        for _ in 0..len {
            group.push(cur.u16()? as usize);
        }
        groups.push(group);
    }
    cur.finish()?;
    crate::galois::GaloisKeySet::from_parts(keys, chain, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Plaintext;
    use crate::encrypt::{decrypt, encrypt};
    use crate::keys::keygen;
    use crate::params::FvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (FvContext, crate::keys::SecretKey, Ciphertext) {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let pt = Plaintext::new(vec![5, 4, 3], ctx.params().t, ctx.params().n);
        let ct = encrypt(&ctx, &pk, &pt, &mut rng);
        (ctx, sk, ct)
    }

    #[test]
    fn roundtrip() {
        let (ctx, sk, ct) = setup();
        let bytes = encode_ciphertext(&ct);
        let back = decode_ciphertext(&ctx, &bytes).unwrap();
        assert_eq!(back, ct);
        assert_eq!(decrypt(&ctx, &sk, &back).coeffs()[..3], [5, 4, 3]);
    }

    #[test]
    fn wire_size_matches_paper_formula() {
        let (ctx, _, ct) = setup();
        let bytes = encode_ciphertext(&ct);
        assert_eq!(bytes.len(), 12 + 2 * ctx.params().k() * ctx.params().n * 4);
        assert_eq!(bytes.len() - 12, ct.transfer_bytes());
    }

    #[test]
    fn rejects_corruption() {
        let (ctx, _, ct) = setup();
        let mut bytes = encode_ciphertext(&ct);
        bytes[0] ^= 0xFF;
        assert!(decode_ciphertext(&ctx, &bytes).is_err(), "bad magic");

        let mut bytes = encode_ciphertext(&ct);
        bytes.truncate(bytes.len() - 1);
        assert!(decode_ciphertext(&ctx, &bytes).is_err(), "truncated");

        let mut bytes = encode_ciphertext(&ct);
        // Set a coefficient to u32::MAX (way above any 30-bit modulus).
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_ciphertext(&ctx, &bytes).is_err(), "out of range");
    }

    #[test]
    fn rejects_wrong_context() {
        let (_, _, ct) = setup();
        let other = FvContext::new(FvParams::insecure_medium()).unwrap();
        let bytes = encode_ciphertext(&ct);
        assert!(decode_ciphertext(&other, &bytes).is_err());
    }

    #[test]
    fn public_key_roundtrips_and_still_encrypts() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (sk, pk, _) = keygen(&ctx, &mut rng);
        let back = decode_public_key(&ctx, &encode_public_key(&pk)).unwrap();
        assert_eq!(back.p0_ntt(), pk.p0_ntt());
        assert_eq!(back.p1_ntt(), pk.p1_ntt());
        let t = ctx.params().t;
        let pt = Plaintext::new(vec![9, 1], t, ctx.params().n);
        let ct = encrypt(&ctx, &back, &pt, &mut rng);
        assert_eq!(decrypt(&ctx, &sk, &ct).coeffs()[..2], [9, 1]);
    }

    #[test]
    fn relin_key_roundtrips() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let (_, _, rlk) = keygen(&ctx, &mut rng);
        let back = decode_relin_key(&ctx, &encode_relin_key(&rlk)).unwrap();
        assert_eq!(back.digits(), rlk.digits());
        for i in 0..rlk.digits() {
            assert_eq!(back.rlk0(i), rlk.rlk0(i));
            assert_eq!(back.rlk1(i), rlk.rlk1(i));
        }
    }

    #[test]
    fn galois_key_set_roundtrips_with_working_slot_sum() {
        use crate::galois::{sum_slots, GaloisKeySet};
        use crate::keys::SecretKey;

        // Batching needs a prime t ≡ 1 (mod 2n); toy's t=16 has no slots.
        let mut params = FvParams::insecure_medium();
        params.t = 7681;
        let ctx = FvContext::new(params).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = crate::keys::PublicKey::generate(&ctx, &sk, &mut rng);
        let gks = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);

        let back = decode_galois_key_set(&ctx, &encode_galois_key_set(&gks)).unwrap();
        assert_eq!(back.keys().len(), gks.keys().len());
        assert_eq!(back.chain(), gks.chain());
        assert_eq!(back.groups(), gks.groups());

        // The decoded set must drive the hoisted fold end to end — this
        // exercises the rebuilt 32-bit key tables, not just the digit bytes.
        let t = ctx.params().t;
        let n = ctx.params().n;
        let slots: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
        let want: u64 = slots.iter().sum::<u64>() % t;
        let encoder = crate::encoder::BatchEncoder::new(t, n).unwrap();
        let ct = encrypt(&ctx, &pk, &encoder.encode(&slots), &mut rng);
        let summed = sum_slots(&ctx, &ct, &back);
        let got = encoder.decode(&decrypt(&ctx, &sk, &summed));
        assert!(got.iter().all(|&v| v == want), "slot sum with decoded keys");
    }

    #[test]
    fn key_blobs_reject_corruption() {
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let (_, pk, rlk) = keygen(&ctx, &mut rng);

        let mut bytes = encode_public_key(&pk);
        bytes[0] ^= 0xFF;
        assert!(decode_public_key(&ctx, &bytes).is_err(), "bad magic");

        let mut bytes = encode_public_key(&pk);
        bytes.truncate(bytes.len() - 3);
        assert!(decode_public_key(&ctx, &bytes).is_err(), "truncated");

        let mut bytes = encode_public_key(&pk);
        bytes.push(0);
        assert!(decode_public_key(&ctx, &bytes).is_err(), "trailing bytes");

        // Out-of-range residue: max out the last u64 lane.
        let mut bytes = encode_public_key(&pk);
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_public_key(&ctx, &bytes).is_err(), "out of range");

        // Cross-decoding the wrong key kind must fail on the tag.
        let rlk_bytes = encode_relin_key(&rlk);
        assert!(decode_public_key(&ctx, &rlk_bytes).is_err(), "wrong tag");

        let other = FvContext::new(FvParams::insecure_medium()).unwrap();
        assert!(
            decode_public_key(&other, &encode_public_key(&pk)).is_err(),
            "wrong context"
        );
    }
}
