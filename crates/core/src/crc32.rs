//! CRC32 (IEEE 802.3, reflected) — the integrity checksum guarding the
//! net envelope trailer and the `HEVR` registry-snapshot format.
//!
//! [`crc32`] runs on the process-wide kernel table
//! ([`hefv_math::dispatch::kernels`]), selected once per process like
//! every other kernel:
//!
//! * **AVX2 lane** (the default on a CPU with `avx2` and `pclmulqdq`): a
//!   carry-less-multiply fold of four 128-bit lanes per 64-byte block,
//!   folded down to 128 bits and Barrett-reduced to 32 (Gopal et al.,
//!   Intel 2009); buffers under 64 bytes and the last `len mod 16` bytes
//!   go through the scalar lane's tables.
//! * **Scalar lane** (`HEFV_FORCE_SCALAR=1`, `HEFV_KERNEL=scalar`, or a
//!   CPU without those features): slicing-by-16 over `const`-built
//!   16×256 tables.
//!
//! Both lanes are pinned bit-identical to the byte-at-a-time loop, which
//! survives only as the test oracle (`crates/math/tests/simd_equivalence.rs`),
//! and to known answers computed offline with Python's `zlib.crc32`.
//!
//! The polynomial's minimum distance guarantees every single-bit flip (and
//! every burst up to 32 bits) changes the checksum, which is what makes
//! the corruption-injection tests deterministic rather than
//! probabilistic: an injected flip is *always* caught.

use hefv_math::dispatch;

/// CRC32 of `bytes` (init `!0`, final xor `!0` — the common "CRC-32"
/// every zlib/Ethernet implementation computes).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    dispatch::kernels().crc32(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let msg = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&msg);
        for byte in 0..msg.len() {
            for bit in 0..8 {
                let mut flipped = msg.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn appended_crc_verifies_as_residue() {
        // Checking `data || crc_le` by recomputing over the data part is
        // how both the envelope and HEVR verify; make sure the layout
        // assumptions hold.
        let data = b"payload".to_vec();
        let mut framed = data.clone();
        framed.extend_from_slice(&crc32(&data).to_le_bytes());
        let (body, tail) = framed.split_at(framed.len() - 4);
        assert_eq!(crc32(body), u32::from_le_bytes(tail.try_into().unwrap()));
    }
}
