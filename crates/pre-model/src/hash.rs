//! Stable, process-independent hashing for cache keys.
//!
//! The result cache and the snapshot stores key their entries by a hash of
//! the run specification (configuration, technique, workload, parameters,
//! budget). `std::hash` is randomized per process, so the keys here use a
//! fixed FNV-1a over an explicit byte stream instead: the same inputs hash
//! to the same 64-bit key in every process, which is what lets the on-disk
//! result cache (`PRE_CACHE_DIR`) survive across invocations.
//!
//! Collisions are handled one level up: every cache entry stores the full
//! key-description string alongside the hash and verifies it on lookup, so
//! a 64-bit collision degrades to a cache miss, never to a wrong answer.

use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use pre_model::hash::StableHasher;
///
/// let mut a = StableHasher::new();
/// a.write_str("lbm-like");
/// a.write_u64(300_000);
/// let mut b = StableHasher::new();
/// b.write_str("lbm-like");
/// b.write_u64(300_000);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a string (bytes plus a length terminator, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    /// Feeds one `u64` (little-endian bytes).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// The accumulated 64-bit hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes a value's `Debug` representation. The configuration types are
/// plain structs of scalars whose `Debug` output is a pure function of their
/// contents, which makes this a convenient exhaustive content hash: a new
/// configuration field automatically enters the key (invalidating stale
/// cache entries) without anyone having to remember to add it.
pub fn stable_hash_of_debug<T: fmt::Debug>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&format!("{value:?}"));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv1a_vectors() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is the classic vector.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn string_framing_disambiguates_concatenations() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn debug_hash_is_content_sensitive() {
        let base = crate::config::SimConfig::haswell_like();
        let mut tweaked = base.clone();
        tweaked.runahead.sst_entries = 128;
        assert_eq!(stable_hash_of_debug(&base), stable_hash_of_debug(&base));
        assert_ne!(stable_hash_of_debug(&base), stable_hash_of_debug(&tweaked));
    }
}
