//! A dense two-level map for block-indexed simulator state.

/// Entries per chunk. 64 keeps a chunk of small values inside one or two
/// cache lines, so neighbouring blocks — which the workloads touch together
/// — share lines instead of scattering across hash buckets.
const CHUNK: usize = 64;
const CHUNK_SHIFT: u32 = CHUNK.trailing_zeros();
const CHUNK_MASK: u64 = CHUNK as u64 - 1;

/// A map from small dense `u64` keys to values, stored as a two-level
/// array: a vector of lazily allocated fixed-size chunks.
///
/// The simulator keys per-block state (cache lines, directory entries,
/// miss-classification records) by block index. Workload address spaces are
/// allocated densely from the bottom ([`crate::ArrayLayout`] starts at page
/// 1 and packs regions), so a paged array probes in two dependent loads
/// with no hashing, and consecutive blocks land in the same chunk — far
/// friendlier to the host cache than a hash map when the guest has spatial
/// locality. Memory is `O(max_key)` in pointer-table space (8 bytes per
/// `CHUNK` = 64 keys) plus one chunk per touched 64-key neighbourhood.
///
/// Not a general-purpose map: keys far apart (sparse, e.g. ≥ 2³²) grow the
/// pointer table proportionally. All simulator block indices are dense.
///
/// # Examples
///
/// ```
/// use pfsim_mem::PagedMap;
///
/// let mut m: PagedMap<u32> = PagedMap::new();
/// assert_eq!(m.insert(5, 10), None);
/// assert_eq!(m.insert(5, 11), Some(10));
/// assert_eq!(m.get(5), Some(&11));
/// assert_eq!(m.remove(5), Some(11));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PagedMap<V> {
    chunks: Vec<Option<Box<[Option<V>; CHUNK]>>>,
    len: usize,
}

impl<V> PagedMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PagedMap {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn split(key: u64) -> (usize, usize) {
        ((key >> CHUNK_SHIFT) as usize, (key & CHUNK_MASK) as usize)
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let (c, i) = Self::split(key);
        self.chunks.get(c)?.as_ref()?[i].as_ref()
    }

    /// Mutable access to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let (c, i) = Self::split(key);
        self.chunks.get_mut(c)?.as_mut()?[i].as_mut()
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The slot for `key`, allocating its chunk if needed.
    fn slot_mut(&mut self, key: u64) -> &mut Option<V> {
        let (c, i) = Self::split(key);
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| Box::new([(); CHUNK].map(|()| None)));
        &mut chunk[i]
    }

    /// Inserts `value` for `key`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let slot = self.slot_mut(key);
        let old = slot.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value for `key`.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (c, i) = Self::split(key);
        let old = self.chunks.get_mut(c)?.as_mut()?[i].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Mutable access to the value for `key`, inserting `default()` first
    /// if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        let (c, i) = Self::split(key);
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| Box::new([(); CHUNK].map(|()| None)));
        let slot = &mut chunk[i];
        if slot.is_none() {
            self.len += 1;
            *slot = Some(default());
        }
        slot.as_mut().expect("just filled")
    }

    /// Iterates `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk.iter().flat_map(move |chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, v)| Some(((c << CHUNK_SHIFT | i) as u64, v.as_ref()?)))
            })
        })
    }
}

impl<V> Default for PagedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = PagedMap::new();
        assert_eq!(m.get(3), None);
        assert_eq!(m.insert(3, "a"), None);
        assert_eq!(m.insert(3, "b"), Some("a"));
        assert_eq!(m.get(3), Some(&"b"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(3), Some("b"));
        assert_eq!(m.remove(3), None);
        assert!(m.is_empty());
    }

    #[test]
    fn keys_crossing_chunk_boundaries() {
        let mut m = PagedMap::new();
        for k in [0u64, 63, 64, 65, 4095, 4096, 100_000] {
            m.insert(k, k * 2);
        }
        for k in [0u64, 63, 64, 65, 4095, 4096, 100_000] {
            assert_eq!(m.get(k), Some(&(k * 2)));
        }
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(99_999), None);
        assert_eq!(m.len(), 7);
    }

    #[test]
    fn get_or_insert_with_counts_len_once() {
        let mut m = PagedMap::new();
        *m.get_or_insert_with(9, || 1) += 5;
        *m.get_or_insert_with(9, || 1) += 5;
        assert_eq!(m.get(9), Some(&11));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let mut m = PagedMap::new();
        for k in [500u64, 2, 65, 64, 1000] {
            m.insert(k, ());
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [2, 64, 65, 500, 1000]);
    }

    /// Agrees with a reference map over a random workload.
    #[test]
    fn matches_hashmap_reference() {
        let mut rng = crate::SplitMix64::seed_from_u64(0xda7a);
        let mut paged: PagedMap<u64> = PagedMap::new();
        let mut reference = std::collections::BTreeMap::new();
        for _ in 0..10_000 {
            let key = rng.random_range(0u64..2000);
            match rng.random_range(0u64..3) {
                0 => {
                    assert_eq!(paged.insert(key, key), reference.insert(key, key));
                }
                1 => {
                    assert_eq!(paged.remove(key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(paged.get(key), reference.get(&key));
                }
            }
            assert_eq!(paged.len(), reference.len());
        }
        let mut all: Vec<_> = paged.iter().map(|(k, v)| (k, *v)).collect();
        let mut want: Vec<_> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        all.sort_unstable();
        want.sort_unstable();
        assert_eq!(all, want);
    }
}
