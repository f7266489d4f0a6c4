//! Content hashing for job specs and cached artifacts.
//!
//! The result-cache layer (`apres-bench`'s `cache` module and the
//! `apres-serve` binary) keys every simulation result by a hash of the
//! job's canonical spec string, and verifies every cached payload against
//! a stored hash before serving it. Both uses need a *deterministic,
//! dependency-free* hash that is stable across platforms and process runs
//! — [`std::collections::hash_map::DefaultHasher`] guarantees neither — so
//! this module provides a streaming FNV-1a implementation widened to 128
//! bits by running two independently-offset 64-bit lanes over the same
//! bytes.
//!
//! FNV-1a is not cryptographic; the cache trusts its own directory. What
//! the hash must catch is *accidental* corruption (truncated writes,
//! flipped bytes, stale entries for a different spec), and 128 bits of
//! FNV over kilobyte-scale payloads does that with margin to spare.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis of the second lane (the first basis re-mixed by SplitMix64
/// so the lanes start decorrelated).
const FNV_OFFSET_B: u64 = 0x9ae1_6a3b_2f90_404f;

/// Streaming 128-bit content hasher (two FNV-1a 64-bit lanes).
#[derive(Debug, Clone)]
pub struct ContentHasher {
    a: u64,
    b: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// Starts a fresh hasher.
    pub fn new() -> Self {
        ContentHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    /// Absorbs a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Finishes the hash as a 128-bit value (high lane ‖ low lane).
    pub fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Hashes a byte slice in one call.
pub fn content_hash(bytes: &[u8]) -> u128 {
    let mut h = ContentHasher::new();
    h.update(bytes);
    h.finish()
}

/// Hashes a string's UTF-8 bytes in one call.
pub fn content_hash_str(s: &str) -> u128 {
    content_hash(s.as_bytes())
}

/// Formats a 128-bit hash as 32 lowercase hex digits (the cache's file-name
/// and wire format).
pub fn hash_hex(h: u128) -> String {
    format!("{h:032x}")
}

/// Short (16-hex-digit) form of a hash for display in error messages —
/// enough to identify a job spec uniquely in any realistic batch.
pub fn short_hex(h: u128) -> String {
    format!("{:016x}", (h >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b"abc"), content_hash(b"ab"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = ContentHasher::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), content_hash(b"hello world"));
    }

    #[test]
    fn known_fnv_vector() {
        // Low lane is plain FNV-1a 64; "a" hashes to the published value.
        let h = content_hash(b"a");
        assert_eq!((h >> 64) as u64, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hex_round_trip() {
        let h = content_hash_str("spec");
        let hex = hash_hex(h);
        assert_eq!(hex.len(), 32);
        assert_eq!(u128::from_str_radix(&hex, 16), Ok(h));
        assert_eq!(short_hex(h).len(), 16);
    }

    #[test]
    fn lanes_are_decorrelated() {
        let h = content_hash(b"decorrelation probe");
        assert_ne!((h >> 64) as u64, h as u64);
    }
}
