//! A fast, non-cryptographic hasher for hot hash maps.
//!
//! The default `std` hasher (SipHash 1-3) is HashDoS-resistant but slow for
//! the short integer keys that dominate HER's hot paths (vertex-pair caches,
//! label maps). This module implements the FxHash algorithm used by rustc: a
//! simple multiply-xor word hash. All inputs here are internally generated
//! ids, so HashDoS is not a concern.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc FxHash implementation.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: fast multiply-xor hashing of words.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`]. Drop-in for `std::collections::HashMap`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`]. Drop-in for `std::collections::HashSet`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Convenience constructor mirroring `HashSet::with_capacity`.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_eq!(hash_one(&"label"), hash_one(&"label"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one(&"a"), hash_one(&"b"));
        assert_ne!(hash_one(&(1u32, 2u32)), hash_one(&(2u32, 1u32)));
    }

    #[test]
    fn map_works_like_std() {
        let mut m: FxHashMap<(u32, u32), bool> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i % 2 == 0);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(10, 11)), Some(&true));
        assert_eq!(m.get(&(11, 12)), Some(&false));
        assert_eq!(m.get(&(10, 12)), None);
    }

    #[test]
    fn handles_unaligned_byte_tails() {
        // Strings of lengths that are not multiples of 8 exercise the
        // remainder path in `write`.
        let h1 = hash_one(&"abcdefghi");
        let h2 = hash_one(&"abcdefghj");
        assert_ne!(h1, h2);
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<u32> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }
}
