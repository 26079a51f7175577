//! A generic direct-mapped tag array.

use pfsim_mem::BlockAddr;

/// A direct-mapped cache structure mapping block numbers to per-line
/// payloads of type `T`.
///
/// Both caches in the node are direct-mapped (the FLC by the paper's design,
/// the finite SLC per §5.3), and the I-detection Reference Prediction Table
/// is "organized as a 256-entry, direct-mapped cache" — all three reuse this
/// array. The set index is `block % sets` and the tag is `block / sets`.
///
/// # Examples
///
/// ```
/// use pfsim_cache::DirectMapped;
/// use pfsim_mem::BlockAddr;
///
/// let mut dm: DirectMapped<&str> = DirectMapped::new(128);
/// let (evicted, _) = dm.insert(BlockAddr::new(5), "five");
/// assert!(evicted.is_none());
/// // Block 133 maps to the same set (133 % 128 == 5) and evicts block 5:
/// let (evicted, _) = dm.insert(BlockAddr::new(133), "one-three-three");
/// assert_eq!(evicted, Some((BlockAddr::new(5), "five")));
/// assert!(dm.get(BlockAddr::new(5)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct DirectMapped<T> {
    sets: Vec<Option<(u64, T)>>, // (tag, payload)
    mask: u64,
    shift: u32,
    occupied: usize,
}

impl<T> DirectMapped<T> {
    /// Creates an array with `sets` sets (one line each).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two.
    pub fn new(sets: usize) -> Self {
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        DirectMapped {
            sets: (0..sets).map(|_| None).collect(),
            mask: (sets - 1) as u64,
            shift: sets.trailing_zeros(),
            occupied: 0,
        }
    }

    #[inline]
    fn index(&self, key: BlockAddr) -> (usize, u64) {
        let raw = key.as_u64();
        ((raw & self.mask) as usize, raw >> self.shift)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no line is valid.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The payload stored for `key`, if the line holding it is valid and
    /// tagged with `key`.
    pub fn get(&self, key: BlockAddr) -> Option<&T> {
        let (set, tag) = self.index(key);
        match &self.sets[set] {
            Some((t, payload)) if *t == tag => Some(payload),
            _ => None,
        }
    }

    /// Mutable access to the payload stored for `key`.
    pub fn get_mut(&mut self, key: BlockAddr) -> Option<&mut T> {
        let (set, tag) = self.index(key);
        match &mut self.sets[set] {
            Some((t, payload)) if *t == tag => Some(payload),
            _ => None,
        }
    }

    /// Inserts `payload` for `key`, returning the evicted conflicting entry
    /// (if any) and a mutable reference to the stored payload.
    ///
    /// Inserting over the *same* key replaces the payload and reports the
    /// old one as evicted, which callers use to detect re-fills.
    pub fn insert(&mut self, key: BlockAddr, payload: T) -> (Option<(BlockAddr, T)>, &mut T) {
        let (set, tag) = self.index(key);
        let old = self.sets[set].take();
        let evicted = match old {
            Some((old_tag, old_payload)) => {
                let old_key = BlockAddr::new((old_tag << self.shift) | set as u64);
                Some((old_key, old_payload))
            }
            None => {
                self.occupied += 1;
                None
            }
        };
        self.sets[set] = Some((tag, payload));
        let stored = match &mut self.sets[set] {
            Some((_, p)) => p,
            None => unreachable!(),
        };
        (evicted, stored)
    }

    /// Removes and returns the payload stored for `key`.
    pub fn remove(&mut self, key: BlockAddr) -> Option<T> {
        let (set, tag) = self.index(key);
        match &self.sets[set] {
            Some((t, _)) if *t == tag => {
                self.occupied -= 1;
                self.sets[set].take().map(|(_, p)| p)
            }
            _ => None,
        }
    }

    /// Iterates over `(key, payload)` for every valid line.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &T)> + '_ {
        self.sets.iter().enumerate().filter_map(|(set, line)| {
            line.as_ref()
                .map(|(tag, p)| (BlockAddr::new((tag << self.shift) | set as u64), p))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::SplitMix64;

    #[test]
    fn hit_after_insert() {
        let mut dm = DirectMapped::new(8);
        dm.insert(BlockAddr::new(3), 30);
        assert_eq!(dm.get(BlockAddr::new(3)), Some(&30));
        assert_eq!(dm.get(BlockAddr::new(11)), None); // same set, wrong tag
    }

    #[test]
    fn conflict_evicts_and_reports_victim_key() {
        let mut dm = DirectMapped::new(8);
        dm.insert(BlockAddr::new(3), 'a');
        let (evicted, _) = dm.insert(BlockAddr::new(11), 'b');
        assert_eq!(evicted, Some((BlockAddr::new(3), 'a')));
        assert_eq!(dm.get(BlockAddr::new(11)), Some(&'b'));
    }

    #[test]
    fn reinsert_same_key_replaces_payload() {
        let mut dm = DirectMapped::new(8);
        dm.insert(BlockAddr::new(3), 1);
        let (evicted, _) = dm.insert(BlockAddr::new(3), 2);
        assert_eq!(evicted, Some((BlockAddr::new(3), 1)));
        assert_eq!(dm.get(BlockAddr::new(3)), Some(&2));
        assert_eq!(dm.len(), 1);
    }

    #[test]
    fn remove_frees_the_set() {
        let mut dm = DirectMapped::new(8);
        dm.insert(BlockAddr::new(5), ());
        assert_eq!(dm.remove(BlockAddr::new(5)), Some(()));
        assert_eq!(dm.remove(BlockAddr::new(5)), None);
        assert!(dm.is_empty());
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut dm = DirectMapped::new(8);
        dm.insert(BlockAddr::new(5), 10);
        *dm.get_mut(BlockAddr::new(5)).unwrap() += 1;
        assert_eq!(dm.get(BlockAddr::new(5)), Some(&11));
    }

    #[test]
    fn iter_reconstructs_keys() {
        let mut dm = DirectMapped::new(16);
        for k in [1u64, 17, 40, 300] {
            dm.remove(BlockAddr::new(k)); // no-op, exercises miss path
            dm.insert(BlockAddr::new(k), k * 2);
        }
        let mut pairs: Vec<_> = dm.iter().map(|(k, v)| (k.as_u64(), *v)).collect();
        pairs.sort_unstable();
        // 1 and 17 conflict (set 1): 17 wins.
        assert_eq!(pairs, vec![(17, 34), (40, 80), (300, 600)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        DirectMapped::<()>::new(12);
    }

    /// After any insert sequence, each key maps to the most recent value
    /// inserted into its set, provided the tags match (seeded cases).
    #[test]
    fn model_matches_last_writer_per_set() {
        let mut rng = SplitMix64::seed_from_u64(0xd1_3c7);
        for _case in 0..64 {
            let len = rng.random_range(1usize..200);
            let keys: Vec<u64> = (0..len).map(|_| rng.random_range(0u64..1024)).collect();
            let sets = 32usize;
            let mut dm = DirectMapped::new(sets);
            let mut model: Vec<Option<u64>> = vec![None; sets]; // set -> key
            for (i, &k) in keys.iter().enumerate() {
                dm.insert(BlockAddr::new(k), i);
                model[(k % sets as u64) as usize] = Some(k);
            }
            #[expect(clippy::needless_range_loop, reason = "set is the set index")]
            for set in 0..sets {
                match model[set] {
                    Some(k) => {
                        // The last key written to this set must hit.
                        assert!(dm.get(BlockAddr::new(k)).is_some());
                    }
                    None => assert!(dm
                        .iter()
                        .all(|(key, _)| (key.as_u64() % sets as u64) as usize != set)),
                }
            }
            assert_eq!(dm.len(), model.iter().filter(|s| s.is_some()).count());
        }
    }
}
