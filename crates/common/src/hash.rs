//! Hashing for partitioners and hash maps.
//!
//! MapReduce's default `HashPartitioner` sends a key to
//! `hash(key) mod num_reduces`. We hash the *serialized* key bytes with
//! FNV-1a — fast, dependency-free, and stable across platforms, which keeps
//! every experiment deterministic (a per-process-seeded SipHash would not
//! be).

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a's starting state.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(OFFSET, bytes)
}

/// FNV-1a continued from `hash` through `bytes`.
#[inline]
fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// [`fnv1a`] as a [`Hasher`]: for hash sets of short keys whose output
/// never depends on the hasher (nothing walks the set), where SipHash's
/// per-process keys and rounds buy nothing.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_from(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FnvHasher`]s: `HashSet<K, FnvBuildHasher>`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Default partition assignment: FNV-1a of the serialized key, modulo the
/// reduce count. Mirrors Hadoop's `HashPartitioner`.
#[inline]
pub fn default_partition(key_bytes: &[u8], num_partitions: usize) -> usize {
    debug_assert!(num_partitions > 0);
    (fnv1a(key_bytes) % num_partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn the_hasher_is_fnv1a_fed_in_pieces() {
        let mut h = FnvHasher::default();
        h.write(b"hel");
        h.write(b"lo");
        assert_eq!(h.finish(), fnv1a(b"hello"));
        assert_eq!(FnvHasher::default().finish(), fnv1a(b""));
    }

    #[test]
    fn partition_in_range_and_deterministic() {
        for n in 1..17usize {
            for i in 0..1000u32 {
                let key = i.to_be_bytes();
                let p = default_partition(&key, n);
                assert!(p < n);
                assert_eq!(p, default_partition(&key, n));
            }
        }
    }

    #[test]
    fn partition_spread_is_roughly_uniform() {
        let n = 8;
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for i in 0..8000u32 {
            *counts.entry(default_partition(format!("key-{i}").as_bytes(), n)).or_default() += 1;
        }
        for p in 0..n {
            let c = counts.get(&p).copied().unwrap_or(0);
            // Expected 1000 per bucket; allow generous slack.
            assert!((700..1300).contains(&c), "partition {p} got {c}");
        }
    }
}
