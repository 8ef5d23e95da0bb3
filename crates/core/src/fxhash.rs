//! A small, fast, non-cryptographic hasher for hot internal maps.
//!
//! The default SipHash behind `std::collections::HashMap` is measurably slow
//! for the short integer keys that dominate this workload (litemset ids,
//! item ids). This is the well-known Fx multiply-rotate hash (as used by the
//! Rust compiler), reimplemented here so the crate stays dependency-free.
//! Do **not** expose these maps to untrusted keys — there is no HashDoS
//! protection; all uses in this workspace hash internally generated ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Multiply-rotate hasher; one multiplication per word of input.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The final rotation moves the product's well-mixed high bits down:
    /// hashbrown takes the bucket index from the low bits, and the low bits
    /// of a product depend only on the low bits of its factors, so without
    /// it the high half of the last word never reaches the bucket index
    /// (for a 4-id `Vec<u32>` key, that half is the fourth id). rustc-hash
    /// 2.x ends the same way.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&2), Some(&"b"));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let mut seen = FxHashSet::default();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // Perfectly injective on this range.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn high_half_of_the_last_word_reaches_the_low_bits() {
        // Keys differing only in the high 32 bits of their one word: before
        // the final rotation they all shared their low 32 hash bits.
        let mut low_bits = FxHashSet::default();
        for hi in 0u64..256 {
            let mut h = FxHasher::default();
            h.write_u64((hi << 32) | 7);
            low_bits.insert(h.finish() & 0xffff);
        }
        assert!(
            low_bits.len() > 200,
            "{} distinct low-bit patterns",
            low_bits.len()
        );
    }

    #[test]
    fn byte_stream_and_tail_handling() {
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(h1.finish(), h2.finish());
    }
}
