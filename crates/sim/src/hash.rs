//! A fast, std-only hasher for maps keyed by simulator-minted integers.
//!
//! [`FxHasher`] is the Fx scheme (rotate, xor, multiply by an odd
//! constant per word): a few cycles per key where the standard library's
//! SipHash takes tens. It is deterministic and not collision-resistant, so
//! it is only for keys the simulator hands out itself — SDU copies, node
//! ids, record counters — never for input an adversary controls.
//!
//! The maps that use it are only ever probed (insert, get, remove, len),
//! never iterated, so the hash function cannot reach any output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier: odd, so each word step permutes the low bits.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style word hasher; see the [module docs](self).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integer_keys_hash_as_their_word() {
        assert_eq!(hash_of(3u64), 3u64.wrapping_mul(SEED));
        assert_eq!(hash_of(3u32), hash_of(3u64));
        // Byte input is consumed as little-endian words, zero padded.
        let mut h = FxHasher::default();
        h.write(&[3, 0, 0]);
        assert_eq!(h.finish(), hash_of(3u64));
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // The odd multiplier is a bijection on the low bits, so a run of
        // sequential ids lands in distinct buckets of a power-of-two table.
        let buckets: FxHashSet<u64> = (0..1024u64).map(|id| hash_of(id) & 1023).collect();
        assert_eq!(buckets.len(), 1024);
    }
}
