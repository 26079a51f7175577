//! Per-node state: the processor, its caches and buffers, and the
//! home-side directory, memory and lock table (Figure 1 of the paper).

// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::VecDeque;

use pfsim_cache::{FifoBuffer, FirstLevelCache, MshrFile, SecondLevelCache};
use pfsim_coherence::Directory;
use pfsim_engine::{Cycle, FifoServer};
use pfsim_mem::{Addr, BlockAddr, PagedMap, Pc};
use pfsim_prefetch::Prefetcher;

use crate::msg::Msg;
use crate::stats::{MissCause, MissRecord, NodeStats};
use crate::sync::{BarrierTable, LockTable};
use crate::system::Clock;
use crate::SystemConfig;

/// What the simulated processor is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CpuStatus {
    /// Executing (or ready to execute) operations.
    Ready,
    /// Blocked on a read miss.
    WaitRead,
    /// Blocked acquiring a lock.
    WaitLock,
    /// Blocked on a write (sequential-consistency mode only).
    WaitWrite,
    /// Blocked at a barrier.
    WaitBarrier,
    /// Blocked because the FLWB is full.
    WaitFlwb,
    /// Finished its parallel section.
    Done,
}

/// An entry buffered in the first-level write buffer, in FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlwbEntry {
    /// A read-miss request (the processor is blocked on it).
    Read {
        /// Byte address.
        addr: Addr,
        /// Program counter of the load.
        pc: Pc,
        /// When the processor issued it.
        issued: Cycle,
    },
    /// A buffered write (the processor is *not* blocked: release
    /// consistency).
    Write {
        /// Byte address.
        addr: Addr,
        /// When the processor issued it.
        issued: Cycle,
    },
    /// A lock-acquire request (the processor is blocked on it).
    Acquire {
        /// Lock address.
        lock: Addr,
        /// When the processor issued it.
        issued: Cycle,
    },
    /// A lock release; drains only after all prior writes complete.
    Release {
        /// Lock address.
        lock: Addr,
        /// When the processor issued it.
        issued: Cycle,
    },
    /// A barrier arrival; drains only after all prior writes complete.
    Barrier {
        /// Barrier id.
        id: u32,
        /// When the processor issued it.
        issued: Cycle,
    },
}

impl FlwbEntry {
    pub(crate) fn issued(&self) -> Cycle {
        match *self {
            FlwbEntry::Read { issued, .. }
            | FlwbEntry::Write { issued, .. }
            | FlwbEntry::Acquire { issued, .. }
            | FlwbEntry::Release { issued, .. }
            | FlwbEntry::Barrier { issued, .. } => issued,
        }
    }
}

/// The kind of transaction an SLWB entry is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnKind {
    /// Demand read miss.
    ReadShared,
    /// Write miss (exclusive read).
    ReadExclusive,
    /// Ownership upgrade of a shared copy.
    Upgrade,
    /// Prefetch.
    Prefetch,
}

/// One outstanding transaction in the second-level write buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MshrEntry {
    pub kind: TxnKind,
    /// The processor is blocked waiting for this block.
    pub waiting_cpu: bool,
    /// A buffered write needs ownership of this block (counts toward the
    /// node's pending-write total for release consistency).
    pub write_pending: bool,
    /// A demand reference already merged into this prefetch (it has been
    /// counted useful and the block must arrive untagged).
    pub prefetch_consumed: bool,
}

impl MshrEntry {
    pub(crate) fn new(kind: TxnKind) -> Self {
        MshrEntry {
            kind,
            waiting_cpu: false,
            write_pending: false,
            prefetch_consumed: false,
        }
    }
}

/// Why the SLC drain (FLWB consumption) is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DrainBlock {
    /// Not blocked.
    None,
    /// The head entry needs an SLWB slot and the file is full.
    MshrFull,
    /// The head entry is a release/barrier and writes are still pending.
    ReleasePending,
}

/// One processing node.
#[derive(Clone)]
pub(crate) struct Node {
    // --- processor side ---
    pub status: CpuStatus,
    /// The processor's local clock (may run ahead of the event loop by at
    /// most `cpu_slice`).
    pub cpu_time: Clock,
    /// When the currently blocking operation was issued.
    pub issue_time: Clock,
    /// Operation that could not be issued because the FLWB was full.
    pub pending_op: Option<pfsim_workloads::Op>,
    pub flc: FirstLevelCache,
    pub flwb: FifoBuffer<FlwbEntry>,

    // --- SLC side ---
    pub slc: SecondLevelCache,
    pub mshr: MshrFile<MshrEntry>,
    pub slc_server: FifoServer,
    /// Messages from the network awaiting SLC service (processed ahead of
    /// FLWB entries).
    pub incoming: VecDeque<Msg>,
    /// When the pending `SlcWork` event (if any) will fire. Tracking the
    /// time (not just a flag) lets an incoming message pull service
    /// forward past a future-issued FLWB head the processor ran ahead to
    /// produce.
    pub slc_scheduled_at: Option<Cycle>,
    pub drain_block: DrainBlock,
    pub prefetcher: Box<dyn Prefetcher>,
    /// Write transactions not yet globally performed (release consistency
    /// fence counter).
    pub pending_write_txns: u32,
    /// Scratch buffer for prefetch candidates.
    pub pf_scratch: Vec<BlockAddr>,

    // --- home side ---
    pub dir: Directory,
    pub dir_server: FifoServer,
    pub mem: FifoServer,
    pub locks: LockTable,
    /// Barriers homed at this node (`id % nodes == self`). Keeping the
    /// table per-node (like `locks`) makes `BarrierArrive` handling
    /// node-local.
    pub barriers: BarrierTable,

    // --- statistics ---
    pub stats: NodeStats,
    /// Why a previously-held block went away (for miss classification).
    /// A block with no record was never resident here: any block that
    /// leaves the SLC — invalidation, fetch-invalidate or replacement —
    /// records its removal, so absence of a record means a cold miss.
    pub removal: PagedMap<MissCause>,
    pub miss_trace: Vec<MissRecord>,
    pub record: bool,
}

impl Node {
    pub(crate) fn new(cfg: &SystemConfig, record: bool) -> Self {
        Node {
            status: CpuStatus::Ready,
            cpu_time: Clock::ZERO,
            issue_time: Clock::ZERO,
            pending_op: None,
            flc: FirstLevelCache::new(cfg.flc_bytes, cfg.geometry),
            flwb: FifoBuffer::new(cfg.flwb_entries),
            slc: SecondLevelCache::with_block_bytes(cfg.slc, cfg.geometry.block_bytes()),
            mshr: MshrFile::new(cfg.slwb_entries),
            slc_server: FifoServer::new(),
            incoming: VecDeque::new(),
            slc_scheduled_at: None,
            drain_block: DrainBlock::None,
            prefetcher: cfg.scheme.build(cfg.geometry),
            pending_write_txns: 0,
            pf_scratch: Vec::new(),
            dir: Directory::new(cfg.nodes),
            dir_server: FifoServer::new(),
            mem: FifoServer::new(),
            locks: LockTable::new(),
            barriers: BarrierTable::new(),
            stats: NodeStats::default(),
            removal: PagedMap::new(),
            miss_trace: Vec::new(),
            record,
        }
    }

    /// Classifies (and counts) a demand miss on `block`.
    pub(crate) fn classify_miss(&mut self, block: BlockAddr) -> MissCause {
        // A block misses either because it was never here (cold) or
        // because something removed it — and every removal path records
        // its cause, so the removal map alone classifies the miss.
        let cause = self
            .removal
            .get(block.as_u64())
            .copied()
            .unwrap_or(MissCause::Cold);
        match cause {
            MissCause::Cold => self.stats.cold_misses += 1,
            MissCause::Coherence => self.stats.coherence_misses += 1,
            MissCause::Replacement => self.stats.replacement_misses += 1,
        }
        cause
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    fn node() -> Node {
        Node::new(&SystemConfig::paper_baseline(), false)
    }

    #[test]
    fn first_touch_is_cold() {
        let mut n = node();
        assert_eq!(n.classify_miss(BlockAddr::new(7)), MissCause::Cold);
        assert_eq!(n.stats.cold_misses, 1);
    }

    #[test]
    fn absence_of_removal_record_means_cold() {
        // Every path by which a resident block leaves the SLC records a
        // removal cause, so repeated misses with no record are repeated
        // cold classifications (they can only arise for blocks that were
        // never actually filled, e.g. in unit tests like this one).
        let mut n = node();
        n.classify_miss(BlockAddr::new(7));
        assert_eq!(n.classify_miss(BlockAddr::new(7)), MissCause::Cold);
        assert_eq!(n.stats.cold_misses, 2);
    }

    #[test]
    fn recorded_removal_wins() {
        let mut n = node();
        n.removal.insert(9, MissCause::Replacement);
        // Even a first *demand* touch is a replacement miss if a prefetch
        // brought the block in and a conflict displaced it.
        assert_eq!(n.classify_miss(BlockAddr::new(9)), MissCause::Replacement);
        assert_eq!(n.stats.replacement_misses, 1);

        n.removal.insert(9, MissCause::Coherence);
        assert_eq!(n.classify_miss(BlockAddr::new(9)), MissCause::Coherence);
    }

    #[test]
    fn counters_track_each_cause() {
        let mut n = node();
        n.classify_miss(BlockAddr::new(1));
        n.classify_miss(BlockAddr::new(2));
        n.removal.insert(1, MissCause::Coherence);
        n.classify_miss(BlockAddr::new(1));
        n.removal.insert(2, MissCause::Replacement);
        n.classify_miss(BlockAddr::new(2));
        assert_eq!(n.stats.cold_misses, 2);
        assert_eq!(n.stats.coherence_misses, 1);
        assert_eq!(n.stats.replacement_misses, 1);
    }

    #[test]
    fn flwb_entry_timestamps() {
        use pfsim_engine::Cycle;
        let e = FlwbEntry::Read {
            addr: Addr::new(0x40),
            pc: Pc::new(0x400),
            issued: Cycle::new(9),
        };
        assert_eq!(e.issued(), Cycle::new(9));
        let e = FlwbEntry::Barrier {
            id: 3,
            issued: Cycle::new(12),
        };
        assert_eq!(e.issued(), Cycle::new(12));
    }
}
