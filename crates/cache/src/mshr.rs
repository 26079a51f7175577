//! The miss-status holding registers that make the SLC lockup-free.

use std::error::Error;
use std::fmt;

use pfsim_mem::BlockAddr;

/// Error returned when allocating in a full [`MshrFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFull;

impl fmt::Display for MshrFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("second-level write buffer is full")
    }
}

impl Error for MshrFull {}

/// Outcome of [`MshrFile::try_alloc`], the fused probe-and-allocate walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrTryAlloc {
    /// A transaction for the block was already outstanding; nothing was
    /// allocated (the caller merges or drops).
    InFlight,
    /// The file is at capacity; nothing was allocated.
    Full,
    /// A fresh entry was allocated.
    Allocated,
}

/// The second-level write buffer (SLWB): a bounded file of outstanding SLC
/// transactions, keyed by block.
///
/// "The SLC is made lockup-free by the second-level write-buffer (SLWB)
/// which buffers all pending requests such as prefetch, read miss, and
/// invalidation requests." At most one transaction per block is in flight;
/// later requests for the same block merge into the existing entry (the
/// payload type `E` records what is being waited for). The paper sizes the
/// SLWB at 16 entries; when it is full, demand requests stall the drain and
/// prefetch requests are silently dropped.
///
/// # Examples
///
/// ```
/// use pfsim_cache::MshrFile;
/// use pfsim_mem::BlockAddr;
///
/// let mut slwb: MshrFile<&str> = MshrFile::new(16);
/// let b = BlockAddr::new(3);
/// slwb.alloc(b, "read miss")?;
/// assert!(slwb.contains(b));           // a second miss would merge
/// assert_eq!(slwb.remove(b), Some("read miss")); // reply arrived
/// # Ok::<(), pfsim_cache::MshrFull>(())
/// ```
///
/// # Implementation
///
/// The file is hardware-sized (16 entries in the paper), so it is stored as
/// a flat vector searched linearly — a scan of at most `capacity` tag
/// compares, which beats hashing at these sizes and matches the
/// fully-associative CAM lookup the hardware performs.
#[derive(Debug, Clone)]
pub struct MshrFile<E> {
    entries: Vec<(BlockAddr, E)>,
    capacity: usize,
    high_water: usize,
}

impl<E> MshrFile<E> {
    /// Creates a file of at most `capacity` simultaneous transactions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            high_water: 0,
        }
    }

    #[inline]
    fn position(&self, block: BlockAddr) -> Option<usize> {
        self.entries.iter().position(|(b, _)| *b == block)
    }

    /// Allocates an entry for `block`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] if the file is at capacity.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block` already has an entry — callers
    /// must merge into the existing transaction instead (look up with
    /// [`get_mut`](Self::get_mut) first). Release builds skip the check:
    /// every allocation would otherwise pay a redundant second CAM scan.
    pub fn alloc(&mut self, block: BlockAddr, entry: E) -> Result<&mut E, MshrFull> {
        debug_assert!(
            self.position(block).is_none(),
            "MSHR already allocated for {block}: merge instead"
        );
        if self.entries.len() == self.capacity {
            return Err(MshrFull);
        }
        self.entries.push((block, entry));
        self.high_water = self.high_water.max(self.entries.len());
        #[expect(
            clippy::expect_used,
            reason = "push on the line above guarantees last_mut is Some"
        )]
        let last = self.entries.last_mut().expect("just pushed");
        Ok(&mut last.1)
    }

    /// Whether a transaction for `block` is outstanding.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.position(block).is_some()
    }

    /// One fused CAM walk combining [`contains`](Self::contains),
    /// [`is_full`](Self::is_full) and [`alloc`](Self::alloc): allocates
    /// an entry for `block` unless one is already in flight or the file
    /// is full, reporting which. The prefetch-issue filter probes every
    /// candidate this way, so folding the three checks into one scan
    /// halves its tag walks.
    pub fn try_alloc(&mut self, block: BlockAddr, entry: E) -> MshrTryAlloc {
        if self.position(block).is_some() {
            return MshrTryAlloc::InFlight;
        }
        if self.entries.len() == self.capacity {
            return MshrTryAlloc::Full;
        }
        self.entries.push((block, entry));
        self.high_water = self.high_water.max(self.entries.len());
        MshrTryAlloc::Allocated
    }

    /// The outstanding transaction for `block`, if any.
    pub fn get(&self, block: BlockAddr) -> Option<&E> {
        self.position(block).map(|i| &self.entries[i].1)
    }

    /// Mutable access to the outstanding transaction for `block` — the merge
    /// point for secondary misses.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut E> {
        self.position(block).map(|i| &mut self.entries[i].1)
    }

    /// Completes the transaction for `block`, freeing the entry.
    pub fn remove(&mut self, block: BlockAddr) -> Option<E> {
        self.position(block).map(|i| self.entries.swap_remove(i).1)
    }

    /// Number of outstanding transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no transactions are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Maximum simultaneous transactions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Iterates over outstanding `(block, entry)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &E)> + '_ {
        self.entries.iter().map(|(b, e)| (*b, e))
    }

    /// Iterates mutably over outstanding `(block, entry)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BlockAddr, &mut E)> + '_ {
        self.entries.iter_mut().map(|(b, e)| (*b, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_remove_lifecycle() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        m.alloc(BlockAddr::new(1), 10).unwrap();
        assert!(m.contains(BlockAddr::new(1)));
        *m.get_mut(BlockAddr::new(1)).unwrap() += 1;
        assert_eq!(m.remove(BlockAddr::new(1)), Some(11));
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_limits_outstanding_transactions() {
        let mut m: MshrFile<()> = MshrFile::new(2);
        m.alloc(BlockAddr::new(1), ()).unwrap();
        m.alloc(BlockAddr::new(2), ()).unwrap();
        assert_eq!(m.alloc(BlockAddr::new(3), ()), Err(MshrFull));
        assert!(m.is_full());
        m.remove(BlockAddr::new(1));
        assert!(m.alloc(BlockAddr::new(3), ()).is_ok());
    }

    #[test]
    #[should_panic(expected = "merge instead")]
    fn double_alloc_panics() {
        let mut m: MshrFile<()> = MshrFile::new(2);
        m.alloc(BlockAddr::new(1), ()).unwrap();
        let _ = m.alloc(BlockAddr::new(1), ());
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        for i in 0..3 {
            m.alloc(BlockAddr::new(i), i as u32).unwrap();
        }
        let mut got: Vec<_> = m.iter().map(|(b, e)| (b.as_u64(), *e)).collect();
        got.sort_unstable();
        assert_eq!(got, [(0, 0), (1, 1), (2, 2)]);
    }
}
