//! The lockup-free second-level cache.

use pfsim_mem::{BlockAddr, PagedMap};

use crate::{DirectMapped, SetAssocArray};

/// Coherence state of an SLC line under the write-invalidate MSI protocol.
///
/// `Invalid` is represented by the line's absence, so only the two valid
/// states appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Readable copy; memory (or another cache) may also hold copies.
    Shared,
    /// The only copy in the system; dirty with respect to memory.
    Modified,
}

/// One valid SLC line: coherence state plus the 1-bit *prefetched* tag.
///
/// The tag bit is the prefetch-phase mechanism common to all three schemes:
/// blocks brought in by a prefetch are tagged; a demand hit on a tagged
/// block resets the bit and triggers the prefetch of the next block in the
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlcLine {
    /// MSI coherence state.
    pub state: LineState,
    /// Whether the block was brought in by a prefetch and has not yet been
    /// referenced by the processor.
    pub prefetched: bool,
}

/// Result of inserting a block into a finite SLC: the victim line, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// No line was displaced.
    None,
    /// A clean (Shared) line was displaced; no writeback needed, but the
    /// FLC copy must be invalidated to preserve inclusion.
    Clean(BlockAddr),
    /// A dirty (Modified) line was displaced and must be written back to
    /// its home memory.
    Dirty(BlockAddr),
}

/// Capacity configuration of the SLC.
///
/// The paper's default is an infinitely large SLC (isolating cold and
/// coherence misses); §5.3 studies a finite 16 KB direct-mapped SLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlcConfig {
    /// Unbounded capacity: no replacement misses ever occur.
    Infinite,
    /// Direct-mapped with the given capacity in bytes (32-byte blocks).
    DirectMapped {
        /// Total capacity in bytes; must be a power-of-two multiple of the
        /// block size.
        capacity_bytes: u64,
    },
    /// Set-associative with true LRU (an extension beyond the paper's
    /// direct-mapped §5.3 configuration).
    SetAssociative {
        /// Total capacity in bytes.
        capacity_bytes: u64,
        /// Number of ways per set.
        ways: usize,
    },
}

impl SlcConfig {
    /// The paper's default: an infinite SLC.
    pub fn infinite() -> Self {
        SlcConfig::Infinite
    }

    /// The §5.3 configuration: a finite direct-mapped SLC.
    pub fn direct_mapped(capacity_bytes: u64) -> Self {
        SlcConfig::DirectMapped { capacity_bytes }
    }

    /// A finite set-associative SLC (extension).
    pub fn set_associative(capacity_bytes: u64, ways: usize) -> Self {
        SlcConfig::SetAssociative {
            capacity_bytes,
            ways,
        }
    }

    /// A short stable description for reports and run manifests
    /// ("infinite", "16KB-dm", "16KB-4way").
    pub fn describe(&self) -> String {
        match *self {
            SlcConfig::Infinite => "infinite".to_string(),
            SlcConfig::DirectMapped { capacity_bytes } => {
                format!("{}KB-dm", capacity_bytes / 1024)
            }
            SlcConfig::SetAssociative {
                capacity_bytes,
                ways,
            } => format!("{}KB-{}way", capacity_bytes / 1024, ways),
        }
    }

    /// The set count of this configuration's tag array with
    /// `block_bytes` blocks (`None` for the infinite SLC, which has
    /// none), or why no cache can be built with that geometry. This is
    /// the one geometry rule: [`SecondLevelCache::with_block_bytes`]
    /// panics on its error, and spec decoders call it to reject a bad
    /// geometry before anything is built.
    pub fn sets(&self, block_bytes: u64) -> Result<Option<usize>, String> {
        if !block_bytes.is_power_of_two() {
            return Err(format!(
                "block size must be a power of two, got {block_bytes}"
            ));
        }
        let (capacity_bytes, ways) = match *self {
            SlcConfig::Infinite => return Ok(None),
            SlcConfig::DirectMapped { capacity_bytes } => (capacity_bytes, 1),
            SlcConfig::SetAssociative {
                capacity_bytes,
                ways,
            } => (capacity_bytes, ways as u64),
        };
        let blocks = capacity_bytes / block_bytes;
        if ways == 0 {
            return Err("SLC needs at least one way".to_string());
        }
        if blocks == 0 {
            return Err(format!(
                "SLC capacity of {capacity_bytes} B holds no {block_bytes} B block"
            ));
        }
        if !blocks.is_multiple_of(ways) {
            return Err(format!(
                "SLC capacity of {capacity_bytes} B is not a whole number of \
                 {ways}-way sets of {block_bytes} B blocks"
            ));
        }
        let sets = blocks / ways;
        if !sets.is_power_of_two() {
            return Err(format!("SLC set count must be a power of two, got {sets}"));
        }
        Ok(Some(sets as usize))
    }
}

#[derive(Debug, Clone)]
enum Storage {
    Infinite(PagedMap<SlcLine>),
    Finite(DirectMapped<SlcLine>),
    Assoc(SetAssocArray<SlcLine>),
}

/// The second-level cache (SLC) tag/state array.
///
/// This type models the storage and coherence state of the SLC; the timing
/// (SRAM port occupancy, the SLWB, the protocol engine) lives in the
/// full-system simulator. The SLC is write-back: a line first written here
/// becomes [`LineState::Modified`] and must be written back on eviction.
///
/// # Examples
///
/// ```
/// use pfsim_cache::{Eviction, LineState, SecondLevelCache, SlcConfig};
/// use pfsim_mem::BlockAddr;
///
/// // The finite 16 KB SLC of §5.3 holds 512 blocks.
/// let mut slc = SecondLevelCache::new(SlcConfig::direct_mapped(16 * 1024));
/// slc.fill(BlockAddr::new(0), LineState::Modified, false);
/// // Block 512 conflicts with block 0 and forces a writeback:
/// let ev = slc.fill(BlockAddr::new(512), LineState::Shared, false);
/// assert_eq!(ev, Eviction::Dirty(BlockAddr::new(0)));
/// ```
#[derive(Debug, Clone)]
pub struct SecondLevelCache {
    storage: Storage,
    /// Fused-probe memo: `Some(block)` records that the most recent
    /// mutating access was a [`write_access`](Self::write_access) hit on
    /// `block` in [`LineState::Modified`] — and that nothing has touched
    /// the cache since. Store buffers drain runs of writes to the same
    /// line back to back, so the next write to `block` can answer
    /// `(Modified, untagged)` without walking the tag store at all.
    /// Every other mutating entry point clears the memo, which is what
    /// makes the shortcut exact rather than heuristic.
    write_memo: Option<BlockAddr>,
}

impl SecondLevelCache {
    /// Creates an SLC with the given capacity configuration and the
    /// paper's 32-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics for a geometry [`SlcConfig::sets`] rejects.
    pub fn new(config: SlcConfig) -> Self {
        Self::with_block_bytes(config, 32)
    }

    /// Creates an SLC with the given capacity configuration and block
    /// size (the block-size ablation uses 64- and 128-byte blocks).
    ///
    /// # Panics
    ///
    /// Panics for a geometry [`SlcConfig::sets`] rejects: a block size
    /// that is not a power of two, or a finite capacity that is not a
    /// power-of-two number of sets of `block_bytes` blocks.
    pub fn with_block_bytes(config: SlcConfig, block_bytes: u64) -> Self {
        let sets = match config.sets(block_bytes) {
            Ok(sets) => sets,
            #[expect(
                clippy::panic,
                reason = "construction-time geometry check (documented panic), never on the event path"
            )]
            Err(e) => panic!("{e}"),
        };
        let storage = match (config, sets) {
            (SlcConfig::DirectMapped { .. }, Some(sets)) => {
                Storage::Finite(DirectMapped::new(sets))
            }
            (SlcConfig::SetAssociative { ways, .. }, Some(sets)) => {
                Storage::Assoc(SetAssocArray::new(sets, ways))
            }
            _ => Storage::Infinite(PagedMap::new()),
        };
        SecondLevelCache {
            storage,
            write_memo: None,
        }
    }

    /// The line holding `block`, if valid.
    pub fn lookup(&self, block: BlockAddr) -> Option<SlcLine> {
        match &self.storage {
            Storage::Infinite(map) => map.get(block.as_u64()).copied(),
            Storage::Finite(dm) => dm.get(block).copied(),
            Storage::Assoc(sa) => sa.get(block).copied(),
        }
    }

    /// Records a demand access to `block` for replacement purposes (LRU
    /// promotion in the set-associative configuration; a no-op otherwise).
    pub fn touch(&mut self, block: BlockAddr) {
        self.write_memo = None;
        if let Storage::Assoc(sa) = &mut self.storage {
            sa.touch(block);
        }
    }

    /// Performs a demand read access in one probe: promotes the line for
    /// replacement, consumes the *prefetched* tag, and reports the result.
    ///
    /// Returns `None` on a miss, `Some(was_tagged)` on a hit; a `true`
    /// tag fires the prefetch-phase mechanism exactly once.
    pub fn demand_access(&mut self, block: BlockAddr) -> Option<bool> {
        self.write_memo = None;
        if let Storage::Assoc(sa) = &mut self.storage {
            sa.touch(block);
        }
        let line = self.line_mut(block)?;
        let was_tagged = line.prefetched;
        line.prefetched = false;
        Some(was_tagged)
    }

    /// Performs a demand write access in one probe: consumes the
    /// *prefetched* tag and reports the line's state, or `None` on a miss.
    ///
    /// Equivalent to [`Self::lookup`] followed by
    /// [`Self::clear_prefetched`], in a single tag-store probe — the write
    /// path runs once per drained FLWB entry, so the saved probe matters.
    ///
    /// Adjacent same-line writes share one walk: a hit on a Modified line
    /// arms the write memo (see the field docs), and the next write to
    /// the same block — with no intervening cache activity — answers from
    /// the memo without probing the tag store. The memo'd answer is exact:
    /// an absorbed write changes neither the state (still Modified) nor
    /// the tag (already consumed by the walk that armed the memo).
    pub fn write_access(&mut self, block: BlockAddr) -> Option<(LineState, bool)> {
        if self.write_memo == Some(block) {
            return Some((LineState::Modified, false));
        }
        let (state, was_tagged) = {
            let line = self.line_mut(block)?;
            let was_tagged = line.prefetched;
            line.prefetched = false;
            (line.state, was_tagged)
        };
        self.write_memo = (state == LineState::Modified).then_some(block);
        Some((state, was_tagged))
    }

    /// Whether `block` is present in any valid state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.lookup(block).is_some()
    }

    /// Inserts `block` with `state`, marking it prefetched or not, and
    /// returns the eviction the insertion caused.
    ///
    /// Filling a block that is already present updates its state in place
    /// (e.g. Shared → Modified on an ownership grant) and returns
    /// [`Eviction::None`].
    pub fn fill(&mut self, block: BlockAddr, state: LineState, prefetched: bool) -> Eviction {
        self.write_memo = None;
        let line = SlcLine { state, prefetched };
        match &mut self.storage {
            Storage::Infinite(map) => {
                map.insert(block.as_u64(), line);
                Eviction::None
            }
            Storage::Finite(dm) => {
                let (evicted, _) = dm.insert(block, line);
                match evicted {
                    Some((victim, _)) if victim == block => Eviction::None,
                    Some((victim, old)) => match old.state {
                        LineState::Modified => Eviction::Dirty(victim),
                        LineState::Shared => Eviction::Clean(victim),
                    },
                    None => Eviction::None,
                }
            }
            Storage::Assoc(sa) => match sa.insert(block, line) {
                Some((victim, old)) => match old.state {
                    LineState::Modified => Eviction::Dirty(victim),
                    LineState::Shared => Eviction::Clean(victim),
                },
                None => Eviction::None,
            },
        }
    }

    /// Promotes `block` to [`LineState::Modified`] (ownership granted).
    ///
    /// Returns `false` if the block is no longer present — the race where an
    /// invalidation beat the upgrade reply; the caller must then treat the
    /// grant as a full fill.
    pub fn promote(&mut self, block: BlockAddr) -> bool {
        self.write_memo = None;
        match self.line_mut(block) {
            Some(line) => {
                line.state = LineState::Modified;
                true
            }
            None => false,
        }
    }

    /// Clears the *prefetched* tag of `block`, returning whether the tag was
    /// set. A `true` return is what fires the prefetch-phase mechanism (and
    /// counts the prefetch as useful).
    pub fn clear_prefetched(&mut self, block: BlockAddr) -> bool {
        self.write_memo = None;
        match self.line_mut(block) {
            Some(line) if line.prefetched => {
                line.prefetched = false;
                true
            }
            _ => false,
        }
    }

    /// Removes `block` (coherence invalidation), returning the removed line.
    ///
    /// A dirty line removed by a fetch-invalidate carries its data to the
    /// requester; the caller decides what to do with it.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<SlcLine> {
        self.write_memo = None;
        match &mut self.storage {
            Storage::Infinite(map) => map.remove(block.as_u64()),
            Storage::Finite(dm) => dm.remove(block),
            Storage::Assoc(sa) => sa.remove(block),
        }
    }

    /// Downgrades `block` from Modified to Shared (remote read of a dirty
    /// block). Returns `false` if the block is absent.
    pub fn downgrade(&mut self, block: BlockAddr) -> bool {
        self.write_memo = None;
        match self.line_mut(block) {
            Some(line) => {
                line.state = LineState::Shared;
                true
            }
            None => false,
        }
    }

    fn line_mut(&mut self, block: BlockAddr) -> Option<&mut SlcLine> {
        match &mut self.storage {
            Storage::Infinite(map) => map.get_mut(block.as_u64()),
            Storage::Finite(dm) => dm.get_mut(block),
            Storage::Assoc(sa) => sa.get_mut(block),
        }
    }

    /// Number of valid lines.
    pub fn valid_lines(&self) -> usize {
        match &self.storage {
            Storage::Infinite(map) => map.len(),
            Storage::Finite(dm) => dm.len(),
            Storage::Assoc(sa) => sa.len(),
        }
    }

    /// Iterates over all valid `(block, line)` pairs, in arbitrary order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (BlockAddr, SlcLine)> + '_> {
        match &self.storage {
            Storage::Infinite(map) => Box::new(map.iter().map(|(b, l)| (BlockAddr::new(b), *l))),
            Storage::Finite(dm) => Box::new(dm.iter().map(|(b, l)| (b, *l))),
            Storage::Assoc(sa) => Box::new(sa.iter().map(|(b, l)| (b, *l))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::SplitMix64;

    #[test]
    fn geometry_rule_accepts_buildable_and_rejects_the_rest() {
        assert_eq!(SlcConfig::infinite().sets(32), Ok(None));
        assert_eq!(SlcConfig::direct_mapped(16 * 1024).sets(32), Ok(Some(512)));
        assert_eq!(
            SlcConfig::set_associative(64 * 1024, 4).sets(64),
            Ok(Some(256))
        );
        for (cfg, block) in [
            (SlcConfig::direct_mapped(3 * 1024), 32),
            (SlcConfig::set_associative(16 * 1024, 0), 32),
            (SlcConfig::set_associative(16 * 1024, 3), 32),
            (SlcConfig::direct_mapped(1024), 4096),
            (SlcConfig::infinite(), 48),
        ] {
            assert!(cfg.sets(block).is_err(), "{cfg:?} with {block} B blocks");
        }
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn constructor_panics_on_a_rejected_geometry() {
        SecondLevelCache::with_block_bytes(SlcConfig::set_associative(16 * 1024, 3), 32);
    }

    #[test]
    fn infinite_slc_never_evicts() {
        let mut slc = SecondLevelCache::new(SlcConfig::infinite());
        for i in 0..10_000 {
            assert_eq!(
                slc.fill(BlockAddr::new(i), LineState::Shared, false),
                Eviction::None
            );
        }
        assert_eq!(slc.valid_lines(), 10_000);
    }

    #[test]
    fn finite_slc_reports_clean_and_dirty_victims() {
        let mut slc = SecondLevelCache::new(SlcConfig::direct_mapped(16 * 1024));
        slc.fill(BlockAddr::new(1), LineState::Shared, false);
        assert_eq!(
            slc.fill(BlockAddr::new(513), LineState::Shared, false),
            Eviction::Clean(BlockAddr::new(1))
        );
        slc.fill(BlockAddr::new(2), LineState::Modified, false);
        assert_eq!(
            slc.fill(BlockAddr::new(514), LineState::Shared, false),
            Eviction::Dirty(BlockAddr::new(2))
        );
    }

    #[test]
    fn refill_updates_in_place() {
        let mut slc = SecondLevelCache::new(SlcConfig::direct_mapped(16 * 1024));
        slc.fill(BlockAddr::new(1), LineState::Shared, true);
        assert_eq!(
            slc.fill(BlockAddr::new(1), LineState::Modified, false),
            Eviction::None
        );
        let line = slc.lookup(BlockAddr::new(1)).unwrap();
        assert_eq!(line.state, LineState::Modified);
        assert!(!line.prefetched);
    }

    #[test]
    fn promote_and_downgrade() {
        let mut slc = SecondLevelCache::new(SlcConfig::infinite());
        let b = BlockAddr::new(9);
        assert!(!slc.promote(b)); // absent: upgrade lost the race
        slc.fill(b, LineState::Shared, false);
        assert!(slc.promote(b));
        assert_eq!(slc.lookup(b).unwrap().state, LineState::Modified);
        assert!(slc.downgrade(b));
        assert_eq!(slc.lookup(b).unwrap().state, LineState::Shared);
    }

    #[test]
    fn prefetched_tag_fires_once() {
        let mut slc = SecondLevelCache::new(SlcConfig::infinite());
        let b = BlockAddr::new(5);
        slc.fill(b, LineState::Shared, true);
        assert!(slc.clear_prefetched(b));
        assert!(!slc.clear_prefetched(b)); // second demand hit: tag already clear
        assert!(!slc.clear_prefetched(BlockAddr::new(6))); // absent block
    }

    #[test]
    fn invalidate_returns_line() {
        let mut slc = SecondLevelCache::new(SlcConfig::infinite());
        let b = BlockAddr::new(5);
        slc.fill(b, LineState::Modified, false);
        let line = slc.invalidate(b).unwrap();
        assert_eq!(line.state, LineState::Modified);
        assert!(!slc.contains(b));
        assert!(slc.invalidate(b).is_none());
    }

    /// Infinite and finite SLCs agree on lookups whenever the finite one
    /// has not evicted the block (seeded randomized cases).
    #[test]
    fn finite_is_infinite_minus_evictions() {
        let mut rng = SplitMix64::seed_from_u64(0x51c1);
        for _case in 0..64 {
            let len = rng.random_range(1usize..300);
            let blocks: Vec<u64> = (0..len).map(|_| rng.random_range(0u64..2048)).collect();
            let mut inf = SecondLevelCache::new(SlcConfig::infinite());
            let mut fin = SecondLevelCache::new(SlcConfig::direct_mapped(16 * 1024)); // 512 sets
            let mut evicted = std::collections::BTreeSet::new();
            for &b in &blocks {
                let block = BlockAddr::new(b);
                inf.fill(block, LineState::Shared, false);
                match fin.fill(block, LineState::Shared, false) {
                    Eviction::Clean(v) | Eviction::Dirty(v) => {
                        evicted.insert(v);
                    }
                    Eviction::None => {}
                }
                evicted.remove(&block);
            }
            for &b in &blocks {
                let block = BlockAddr::new(b);
                assert!(inf.contains(block));
                assert_eq!(fin.contains(block), !evicted.contains(&block));
            }
        }
    }
}
