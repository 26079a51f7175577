//! A small fully-associative LRU table.

/// A bounded key→value table with least-recently-used replacement.
///
/// The D-detection scheme keeps four of these (miss list, stride frequency
/// table, list of common strides, stream list), each 16 entries with LRU
/// replacement. At these sizes a vector scan beats any pointer structure,
/// and the scan order doubles as the recency order: index 0 is the most
/// recently used entry.
///
/// # Examples
///
/// ```
/// use pfsim_prefetch::LruTable;
///
/// let mut t: LruTable<i64, u32> = LruTable::new(2);
/// t.insert(10, 1);
/// t.insert(20, 2);
/// t.get_mut(&10);    // touch 10: now 20 is the LRU entry
/// t.insert(30, 3);   // evicts 20
/// assert!(t.contains(&10) && t.contains(&30) && !t.contains(&20));
/// ```
#[derive(Debug, Clone)]
pub struct LruTable<K, V> {
    /// Most recent first.
    entries: Vec<(K, V)>,
    capacity: usize,
}

impl<K: PartialEq, V> LruTable<K, V> {
    /// Creates a table of at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU table needs at least one entry");
        LruTable {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Looks `key` up *without* promoting it.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks `key` up, promoting it to most-recently-used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        // Promote with a single rotate (one memmove) rather than
        // remove + insert (two).
        self.entries[..=pos].rotate_right(1);
        Some(&mut self.entries[0].1)
    }

    /// Whether `key` is present (no promotion).
    pub fn contains(&self, key: &K) -> bool {
        self.peek(key).is_some()
    }

    /// Inserts or replaces `key`, promoting it to most-recently-used, and
    /// returns the entry evicted to make room (if any).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
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
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(pos).1)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::SplitMix64;

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
