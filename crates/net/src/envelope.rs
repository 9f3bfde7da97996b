//! The transport envelope wrapping each `HEVQ`/`HEVP` frame on a TCP
//! stream.
//!
//! Engine wire frames are self-describing but not self-delimiting, and
//! the server completes jobs out of order (that is the point of
//! pipelining), so the stream protocol adds the two things TCP needs:
//! a length prefix to find frame boundaries and a caller-chosen
//! correlation id echoed verbatim in the reply. Layout (little-endian):
//!
//! ```text
//! envelope := len u32 | corr u64 | frame…                (len = 8 + frame length)
//! checked  := len|CRC_FLAG u32 | corr u64 | frame… | crc32 u32
//!                                                        (len = 8 + frame length + 4)
//! ```
//!
//! The same envelope carries requests client→server and replies
//! server→client. `corr` is opaque to the server; [`crate::Client`]
//! assigns sequential ids and matches replies back to calls with them.
//!
//! # Integrity (version negotiation via the flag bit)
//!
//! A *checked* envelope sets the top bit of the length prefix
//! ([`CRC_FLAG`]) and appends a CRC32 trailer computed over
//! `corr || frame` (everything after the length prefix, before the
//! trailer). The engine's 64 MiB frame cap keeps real lengths far below
//! the flag bit, so legacy peers and checked peers coexist on the same
//! port: the flag *is* the version negotiation. A receiver that sees the
//! flag verifies the trailer and strips it; a mismatch means the frame
//! was corrupted in flight and must be refused — never decoded.
//!
//! The trailer costs one pass of [`hefv_core::crc32::crc32`] per side
//! (sealing and verifying), on the kernel seam's CRC lane: ≈ 16 GB/s
//! with the `PCLMULQDQ` fold and ≈ 1.7 GB/s on the slicing-by-16 scalar
//! lane, against ≈ 0.29 GB/s for the byte-at-a-time loop it replaced
//! (2-vCPU AVX2 host). A `mult` request's two n = 4096 ciphertexts
//! (≈ 393 KB) thus take ≈ 24 µs per pass on the server's poll thread,
//! not ≈ 1.4 ms.

use hefv_core::crc32::crc32;

/// Bytes of the length prefix.
pub const LEN_BYTES: usize = 4;

/// Bytes of the correlation id (counted inside the length prefix).
pub const CORR_BYTES: usize = 8;

/// Bytes of the CRC32 trailer on a checked envelope (counted inside the
/// length prefix).
pub const CRC_BYTES: usize = 4;

/// Length-prefix flag marking a checked (CRC-trailered) envelope.
pub const CRC_FLAG: u32 = 1 << 31;

/// Wraps one frame in a legacy (unchecked) envelope.
///
/// # Panics
///
/// Panics if `frame` exceeds `u32::MAX - 8` bytes — unreachable for
/// frames under the engine's 64 MiB cap, which both endpoints enforce.
pub fn encode(corr: u64, frame: &[u8]) -> Vec<u8> {
    let len = u32::try_from(CORR_BYTES + frame.len()).expect("frame under the u32 envelope limit");
    let mut out = Vec::with_capacity(LEN_BYTES + CORR_BYTES + frame.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(frame);
    out
}

/// Wraps one frame in a checked envelope: [`CRC_FLAG`] set in the length
/// prefix, CRC32 over `corr || frame` appended.
///
/// # Panics
///
/// Panics if `frame` is large enough for the length to collide with
/// [`CRC_FLAG`] — unreachable under the engine's 64 MiB frame cap.
pub fn encode_checked(corr: u64, frame: &[u8]) -> Vec<u8> {
    let len = u32::try_from(CORR_BYTES + frame.len() + CRC_BYTES)
        .expect("frame under the u32 envelope limit");
    assert!(len & CRC_FLAG == 0, "frame length collides with CRC flag");
    let mut out = Vec::with_capacity(LEN_BYTES + len as usize);
    out.extend_from_slice(&(len | CRC_FLAG).to_le_bytes());
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(frame);
    let crc = crc32(&out[LEN_BYTES..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Reads the length prefix from the first [`LEN_BYTES`] of `bytes`,
/// masking off [`CRC_FLAG`]: the result is the byte count following the
/// prefix, trailer included when present.
pub(crate) fn read_len(bytes: &[u8]) -> usize {
    (u32::from_le_bytes(bytes[..LEN_BYTES].try_into().expect("4 bytes")) & !CRC_FLAG) as usize
}

/// Whether the envelope starting at `bytes` carries a CRC trailer.
pub(crate) fn is_checked(bytes: &[u8]) -> bool {
    u32::from_le_bytes(bytes[..LEN_BYTES].try_into().expect("4 bytes")) & CRC_FLAG != 0
}

/// Reads the correlation id following the length prefix.
pub(crate) fn read_corr(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(
        bytes[LEN_BYTES..LEN_BYTES + CORR_BYTES]
            .try_into()
            .expect("8 bytes"),
    )
}

/// Verifies a checked envelope's trailer. `body` is everything after the
/// length prefix (`corr || frame || crc`); returns `true` when the
/// stored CRC matches a recomputation over `corr || frame`.
pub(crate) fn trailer_ok(body: &[u8]) -> bool {
    if body.len() < CORR_BYTES + CRC_BYTES {
        return false;
    }
    let (payload, tail) = body.split_at(body.len() - CRC_BYTES);
    crc32(payload) == u32::from_le_bytes(tail.try_into().expect("4 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let env = encode(0xDEAD_BEEF, b"frame");
        assert_eq!(read_len(&env), CORR_BYTES + 5);
        assert_eq!(read_corr(&env), 0xDEAD_BEEF);
        assert!(!is_checked(&env));
        assert_eq!(&env[LEN_BYTES + CORR_BYTES..], b"frame");
    }

    #[test]
    fn empty_frame_is_representable() {
        let env = encode(1, b"");
        assert_eq!(env.len(), LEN_BYTES + CORR_BYTES);
        assert_eq!(read_len(&env), CORR_BYTES);
    }

    #[test]
    fn checked_roundtrip() {
        let env = encode_checked(0xDEAD_BEEF, b"frame");
        assert!(is_checked(&env));
        assert_eq!(read_len(&env), CORR_BYTES + 5 + CRC_BYTES);
        assert_eq!(read_corr(&env), 0xDEAD_BEEF);
        assert!(trailer_ok(&env[LEN_BYTES..]));
        let payload = &env[LEN_BYTES + CORR_BYTES..env.len() - CRC_BYTES];
        assert_eq!(payload, b"frame");
    }

    #[test]
    fn every_flip_in_a_checked_envelope_is_caught() {
        let env = encode_checked(42, b"sensitive ciphertext bytes");
        // Any single-bit flip past the length prefix fails verification
        // (flips inside the prefix are framing errors, handled earlier).
        for byte in LEN_BYTES..env.len() {
            for bit in 0..8 {
                let mut bad = env.clone();
                bad[byte] ^= 1 << bit;
                assert!(!trailer_ok(&bad[LEN_BYTES..]), "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn short_checked_bodies_are_refused() {
        assert!(!trailer_ok(b""));
        assert!(!trailer_ok(&[0u8; CORR_BYTES + CRC_BYTES - 1]));
    }
}
