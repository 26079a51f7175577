//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, whose DoS resistance
//! costs ~2× the lookup time of a multiply-based hash — pure waste inside a
//! single-process simulator hashing its own block addresses. This module
//! provides an in-tree `FxHasher` (the multiply-xor construction used by
//! rustc), so no external dependency is needed: the build must resolve
//! offline.
//!
//! Determinism matters as much as speed here. `FxHasher` has **no random
//! state**, and [`FxHashMap`] and [`FxHashSet`] go further: they wrap std's
//! containers without exposing any unordered iteration (no `iter`, `keys`,
//! `values`, `IntoIterator` or `Deref`). The only walks are
//! [`FxHashMap::sorted_entries`], the `sorted_keys` methods and the
//! key-by-key [`FxHashMap::merge`], so hash order cannot reach a pclock, a
//! manifest or a verdict by construction.
//!
//! # Examples
//!
//! ```
//! use pfsim_mem::{BlockAddr, FxHashMap};
//!
//! let mut m: FxHashMap<BlockAddr, u32> = FxHashMap::default();
//! m.insert(BlockAddr::new(7), 1);
//! assert_eq!(m.get(&BlockAddr::new(7)), Some(&1));
//! ```

use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A hash map keyed through [`FxHasher`], with lookups and updates but no
/// unordered iteration (see the module docs).
#[derive(Debug, Clone)]
#[expect(
    clippy::disallowed_types,
    reason = "the one wrapper around std's HashMap, which hides its iteration order"
)]
pub struct FxHashMap<K, V>(std::collections::HashMap<K, V, FxBuildHasher>);

impl<K, V> Default for FxHashMap<K, V> {
    #[inline]
    fn default() -> Self {
        FxHashMap(Default::default())
    }
}

impl<K, V> FxHashMap<K, V> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Eq + Hash, V> FxHashMap<K, V> {
    /// The value under `k`, if any.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.0.get(k)
    }

    /// Mutable access to the value under `k`, if any.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.0.get_mut(k)
    }

    /// Whether `k` has an entry.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.0.contains_key(k)
    }

    /// The entry for `k`, for in-place insert-or-update.
    #[inline]
    pub fn entry(&mut self, k: K) -> Entry<'_, K, V> {
        self.0.entry(k)
    }

    /// Inserts `v` under `k`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Removes and returns the value under `k`.
    #[inline]
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.0.remove(k)
    }

    /// Merges `other` into `self` key by key: a key only in `other` is
    /// copied, a key in both gets `combine(&mut ours, theirs)`. Each key is
    /// visited once and `combine` sees only that key's two values, so the
    /// result does not depend on the order the keys are visited in.
    ///
    /// # Examples
    ///
    /// ```
    /// use pfsim_mem::FxHashMap;
    ///
    /// let mut a: FxHashMap<u64, u64> = FxHashMap::default();
    /// a.insert(1, 5);
    /// let mut b: FxHashMap<u64, u64> = FxHashMap::default();
    /// b.insert(1, 7);
    /// b.insert(2, 3);
    /// a.merge(&b, |ours, &theirs| *ours = (*ours).max(theirs));
    /// assert_eq!(a.sorted_entries(), vec![(&1, &7), (&2, &3)]);
    /// ```
    pub fn merge(&mut self, other: &Self, combine: impl Fn(&mut V, &V))
    where
        K: Clone,
        V: Clone,
    {
        for (k, v) in &other.0 {
            match self.0.entry(k.clone()) {
                Entry::Occupied(mut e) => combine(e.get_mut(), v),
                Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
            }
        }
    }
}

impl<K: Ord, V> FxHashMap<K, V> {
    /// Every entry, sorted by key: the one way to walk the map.
    ///
    /// # Examples
    ///
    /// ```
    /// use pfsim_mem::FxHashMap;
    ///
    /// let mut m: FxHashMap<u64, &str> = FxHashMap::default();
    /// m.insert(9, "b");
    /// m.insert(3, "a");
    /// assert_eq!(m.sorted_entries(), vec![(&3, &"a"), (&9, &"b")]);
    /// assert_eq!(m.sorted_keys(), vec![&3, &9]);
    /// ```
    pub fn sorted_entries(&self) -> Vec<(&K, &V)> {
        let mut v: Vec<(&K, &V)> = self.0.iter().collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Every key, sorted.
    pub fn sorted_keys(&self) -> Vec<&K> {
        let mut v: Vec<&K> = self.0.keys().collect();
        v.sort();
        v
    }
}

/// A hash set keyed through [`FxHasher`], with membership and updates but
/// no unordered iteration (see the module docs).
#[derive(Debug, Clone)]
#[expect(
    clippy::disallowed_types,
    reason = "the one wrapper around std's HashSet, which hides its iteration order"
)]
pub struct FxHashSet<K>(std::collections::HashSet<K, FxBuildHasher>);

impl<K> Default for FxHashSet<K> {
    #[inline]
    fn default() -> Self {
        FxHashSet(Default::default())
    }
}

impl<K> FxHashSet<K> {
    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Eq + Hash> FxHashSet<K> {
    /// Whether `k` is a member.
    #[inline]
    pub fn contains(&self, k: &K) -> bool {
        self.0.contains(k)
    }

    /// Adds `k`; `false` if it was already a member.
    #[inline]
    pub fn insert(&mut self, k: K) -> bool {
        self.0.insert(k)
    }

    /// Removes `k`; `false` if it was not a member.
    #[inline]
    pub fn remove(&mut self, k: &K) -> bool {
        self.0.remove(k)
    }
}

impl<K: Ord> FxHashSet<K> {
    /// Every member, sorted: the one way to walk the set.
    pub fn sorted_keys(&self) -> Vec<&K> {
        let mut v: Vec<&K> = self.0.iter().collect();
        v.sort();
        v
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc multiply-xor hasher: one rotate, one xor and one multiply per
/// word of input.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockAddr;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&BlockAddr::new(42)), hash_of(&BlockAddr::new(42)));
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        // Not a collision-resistance claim, just a smoke test that the
        // multiply actually mixes.
        let a = hash_of(&BlockAddr::new(1));
        let b = hash_of(&BlockAddr::new(2));
        assert_ne!(a, b);
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
    }

    #[test]
    fn byte_writes_match_padding_rules() {
        // Different lengths of the same prefix must not collide via padding.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 0]);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn set_roundtrip() {
        let mut s: FxHashSet<BlockAddr> = FxHashSet::default();
        s.insert(BlockAddr::new(3));
        assert!(s.contains(&BlockAddr::new(3)));
        assert!(!s.contains(&BlockAddr::new(4)));
        s.insert(BlockAddr::new(1));
        assert_eq!(s.sorted_keys(), [&BlockAddr::new(1), &BlockAddr::new(3)]);
        assert!(s.remove(&BlockAddr::new(3)));
        assert_eq!(s.len(), 1);
    }
}
