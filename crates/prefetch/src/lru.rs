//! The D-detection scheme's small fully-associative LRU tables.

/// Entries in each table: the paper gives the miss list, the frequency
/// table, the list of common strides and the stream list 16 entries each.
pub(crate) const ENTRIES: usize = 16;

/// A key of a [`FlatLru`]: its bits pick the one-byte tag a lookup
/// compares first.
pub(crate) trait Key: Copy + Default + Eq {
    /// The key as 64 bits.
    fn bits(self) -> u64;
}

impl Key for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
}

impl Key for pfsim_mem::Addr {
    fn bits(self) -> u64 {
        self.as_u64()
    }
}

impl Key for pfsim_mem::BlockAddr {
    fn bits(self) -> u64 {
        self.as_u64()
    }
}

/// A 16-entry key→value table with least-recently-used replacement, kept
/// in flat arrays that no operation moves.
///
/// Each slot carries a one-byte tag hashed from its key, so a lookup
/// compares all 16 tags at once and the full key only where a tag
/// matches. The recency order is one 128-bit word of slot numbers, a byte
/// each, so a use moves one byte within a register, a new key shifts in
/// at the front and the least recently used slot falls off the back. It
/// behaves exactly like a list of entries kept in recency order (the tests
/// hold it to [`LruTable`]) without moving any entry.
#[derive(Debug, Clone)]
pub(crate) struct FlatLru<K, V> {
    /// Byte `i % 8` of word `i / 8` is slot `i`'s tag.
    tags: [u64; 2],
    keys: [K; ENTRIES],
    values: [V; ENTRIES],
    /// Byte `k` is the slot of the `k`-th most recently used entry, for
    /// `k` below [`Self::len`].
    order: u128,
    /// Bit `i` set: slot `i` holds an entry.
    live: u16,
}

impl<K: Key, V: Copy + Default> Default for FlatLru<K, V> {
    fn default() -> Self {
        FlatLru {
            tags: [0; 2],
            keys: [K::default(); ENTRIES],
            values: [V::default(); ENTRIES],
            order: 0,
            live: 0,
        }
    }
}

/// A key's tag: the top byte of a multiplicative hash.
#[inline]
fn tag(key: u64) -> u8 {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
}

/// Every byte set to 1.
const ONES: u64 = 0x0101_0101_0101_0101;

/// The high bit of each byte of `word` that is zero.
#[inline]
fn zero_bytes(word: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    !((word & LOW7).wrapping_add(LOW7) | word | LOW7)
}

/// Bit `i` set where byte `i` of `word` equals `byte`: the flags of a
/// zero-byte test, gathered into a byte by one multiply.
#[inline]
fn matches(word: u64, byte: u8) -> u32 {
    let zeros = zero_bytes(word ^ (ONES * u64::from(byte))) >> 7;
    (zeros.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// Bytes `0..k` of a 128-bit word (`k` below 16).
#[inline]
fn below(k: usize) -> u128 {
    (1 << (8 * k)) - 1
}

impl<K: Key, V: Copy + Default> FlatLru<K, V> {
    /// Number of resident entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// The slot of the `k`-th most recently used entry.
    #[inline]
    fn slot_at(&self, k: usize) -> usize {
        usize::from((self.order >> (8 * k)) as u8)
    }

    /// The keys from most to least recently used.
    #[inline]
    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + '_ {
        (0..self.len()).map(move |k| self.keys[self.slot_at(k)])
    }

    /// The slot holding `key`.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        let spread = ONES * u64::from(tag(key.bits()));
        for (word, &tags) in self.tags.iter().enumerate() {
            let mut hits = zero_bytes(tags ^ spread);
            while hits != 0 {
                let i = 8 * word + hits.trailing_zeros() as usize / 8;
                if self.live & 1 << i != 0 && self.keys[i] == key {
                    return Some(i);
                }
                hits &= hits - 1;
            }
        }
        None
    }

    /// Where live slot `i` stands in the recency order.
    #[inline]
    fn rank(&self, i: usize) -> usize {
        // Bytes past `len` may repeat a slot number, but the live slot's
        // own byte comes first.
        let order =
            matches(self.order as u64, i as u8) | matches((self.order >> 64) as u64, i as u8) << 8;
        order.trailing_zeros() as usize
    }

    /// Whether `key` is present (no promotion).
    #[inline]
    pub(crate) fn contains(&self, key: K) -> bool {
        self.find(key).is_some()
    }

    /// Inserts or replaces `key`, promoting it to most recently used.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        *self.entry(key) = value;
    }

    /// `key`'s value, promoted to most recently used. A new key starts at
    /// `V::default()` and evicts the least recently used entry if the
    /// table is full.
    #[inline]
    pub(crate) fn entry(&mut self, key: K) -> &mut V {
        let i = match self.find(key) {
            Some(i) => {
                // Bytes below the slot's move up one over it.
                let below = below(self.rank(i));
                let through = below << 8 | 0xff;
                self.order = self.order & !through | (self.order & below) << 8 | i as u128;
                i
            }
            None => self.claim(key),
        };
        &mut self.values[i]
    }

    /// The most recently used slot, now holding the new `key`: a free one,
    /// or else the least recently used one, whose entry is dropped.
    #[inline]
    fn claim(&mut self, key: K) -> usize {
        let i = if self.live == u16::MAX {
            (self.order >> 120) as usize
        } else {
            (!self.live).trailing_zeros() as usize
        };
        self.order = self.order << 8 | i as u128;
        self.live |= 1 << i;
        let (word, shift) = (i / 8, 8 * (i % 8));
        self.tags[word] = self.tags[word] & !(0xff << shift) | u64::from(tag(key.bits())) << shift;
        self.keys[i] = key;
        self.values[i] = V::default();
        i
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: K) -> Option<V> {
        let i = self.find(key)?;
        // Bytes above the slot's move down one over it.
        let below = below(self.rank(i));
        self.order = self.order & below | self.order >> 8 & !below;
        self.live &= !(1 << i);
        Some(self.values[i])
    }

    /// The entries from most to least recently used.
    #[cfg(test)]
    pub(crate) fn by_recency(&self) -> Vec<(K, V)> {
        (0..self.len())
            .map(|k| self.slot_at(k))
            .map(|i| (self.keys[i], self.values[i]))
            .collect()
    }
}

/// The reference LRU table: a vector in recency order (index 0 is the
/// most recently used entry), promoted with a rotate. D-detection used it
/// for its four tables; tests now hold [`FlatLru`] to it.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct LruTable<K, V> {
    /// Most recent first.
    entries: Vec<(K, V)>,
    capacity: usize,
}

#[cfg(test)]
impl<K: PartialEq, V> LruTable<K, V> {
    /// Creates a table of at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU table needs at least one entry");
        LruTable {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Looks `key` up *without* promoting it.
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks `key` up, promoting it to most-recently-used.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        // Promote with a single rotate (one memmove) rather than
        // remove + insert (two).
        self.entries[..=pos].rotate_right(1);
        Some(&mut self.entries[0].1)
    }

    /// Whether `key` is present (no promotion).
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.peek(key).is_some()
    }

    /// Inserts or replaces `key`, promoting it to most-recently-used, and
    /// returns the entry evicted to make room (if any).
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries[pos] = (key, value);
            self.entries[..=pos].rotate_right(1);
            return None;
        }
        if self.entries.len() == self.capacity {
            // Rotate the LRU slot to the front and reuse it.
            self.entries.rotate_right(1);
            return Some(std::mem::replace(&mut self.entries[0], (key, value)));
        }
        self.entries.push((key, value));
        self.entries.rotate_right(1);
        None
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(pos).1)
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries from most to least recently used.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::SplitMix64;

    /// Seeded random inserts, lookups and removals over few keys (so
    /// tables fill, evict and refill) leave a [`FlatLru`] with the
    /// same entries in the same recency order as the reference, and
    /// every lookup and removal returns what the reference's returns.
    #[test]
    fn flat_table_matches_the_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x57a4);
        for _case in 0..64 {
            let keys = rng.random_range(2i64..40);
            let mut flat: FlatLru<i64, u32> = FlatLru::default();
            let mut reference = LruTable::new(ENTRIES);
            for step in 0..400u32 {
                let key = rng.random_range(0..keys) * 0x20;
                match rng.random_range(0u8..4) {
                    0 => {
                        flat.insert(key, step);
                        reference.insert(key, step);
                    }
                    1 => {
                        *flat.entry(key) += step;
                        match reference.get_mut(&key) {
                            Some(value) => *value += step,
                            None => drop(reference.insert(key, step)),
                        }
                    }
                    2 => assert_eq!(flat.remove(key), reference.remove(&key)),
                    _ => assert_eq!(flat.contains(key), reference.contains(&key)),
                }
                let want: Vec<(i64, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(flat.by_recency(), want, "step {step}");
                assert_eq!(flat.len(), reference.len());
            }
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = LruTable::new(4);
        t.insert("a", 1);
        assert_eq!(t.peek(&"a"), Some(&1));
        *t.get_mut(&"a").unwrap() = 2;
        assert_eq!(t.peek(&"a"), Some(&2));
    }

    #[test]
    fn eviction_removes_least_recent() {
        let mut t = LruTable::new(3);
        t.insert(1, ());
        t.insert(2, ());
        t.insert(3, ());
        t.get_mut(&1); // order: 1,3,2
        let evicted = t.insert(4, ());
        assert_eq!(evicted, Some((2, ())));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn reinsert_promotes_without_eviction() {
        let mut t = LruTable::new(2);
        t.insert(1, 'a');
        t.insert(2, 'b');
        assert_eq!(t.insert(1, 'c'), None);
        assert_eq!(t.peek(&1), Some(&'c'));
        // 2 is now the LRU entry.
        assert_eq!(t.insert(3, 'd'), Some((2, 'b')));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut t = LruTable::new(2);
        t.insert(1, ());
        t.insert(2, ());
        t.peek(&1);
        // 1 is still the LRU entry despite the peek.
        assert_eq!(t.insert(3, ()), Some((1, ())));
    }

    #[test]
    fn remove_returns_the_value_once() {
        let mut t = LruTable::new(2);
        t.insert(1, 'x');
        assert_eq!(t.remove(&1), Some('x'));
        assert_eq!(t.remove(&1), None);
        assert!(t.is_empty());
    }

    /// The table never exceeds capacity and always retains the
    /// `capacity` most recently touched distinct keys (seeded cases).
    #[test]
    fn retains_most_recent_keys() {
        let mut rng = SplitMix64::seed_from_u64(0x112a);
        for _case in 0..64 {
            let len = rng.random_range(1usize..100);
            let keys: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..20)).collect();
            let cap = 4usize;
            let mut t = LruTable::new(cap);
            for &k in &keys {
                t.insert(k, ());
                assert!(t.len() <= cap);
            }
            // Compute the expected resident set: last `cap` distinct keys.
            let mut expected = Vec::new();
            for &k in keys.iter().rev() {
                if !expected.contains(&k) {
                    expected.push(k);
                }
                if expected.len() == cap {
                    break;
                }
            }
            for k in expected {
                assert!(t.contains(&k));
            }
        }
    }
}
