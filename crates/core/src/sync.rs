//! Home-side synchronization: queue-based locks and barriers.

// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::VecDeque;

use pfsim_mem::{Addr, FxHashMap, NodeId};

/// The queue-based lock mechanism at memory, as in DASH: the home node of
/// a lock's address keeps the holder and a FIFO of waiters, and a release
/// hands the lock to the next waiter directly (one message), without any
/// retry traffic.
///
/// # Examples
///
/// ```
/// use pfsim::LockTable;
/// use pfsim_mem::{Addr, NodeId};
///
/// let mut t = LockTable::new();
/// let l = Addr::new(0x1000);
/// assert!(t.acquire(l, NodeId::new(1)));      // granted immediately
/// assert!(!t.acquire(l, NodeId::new(2)));     // queued
/// assert_eq!(t.release(l, NodeId::new(1)), Some(NodeId::new(2)));
/// assert_eq!(t.release(l, NodeId::new(2)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: FxHashMap<Addr, LockState>,
}

#[derive(Debug, Clone, Default)]
struct LockState {
    holder: Option<NodeId>,
    waiters: VecDeque<NodeId>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an acquire request from `from`. Returns `true` if the
    /// lock was granted immediately; otherwise the requester is queued.
    pub fn acquire(&mut self, lock: Addr, from: NodeId) -> bool {
        let state = self.locks.entry(lock).or_default();
        if state.holder.is_none() {
            state.holder = Some(from);
            true
        } else {
            state.waiters.push_back(from);
            false
        }
    }

    /// Processes a release from `from`. Returns the next waiter the lock
    /// was handed to, if any.
    ///
    /// # Panics
    ///
    /// Panics if `from` does not hold the lock (a protocol violation).
    pub fn release(&mut self, lock: Addr, from: NodeId) -> Option<NodeId> {
        #[expect(
            clippy::panic,
            reason = "protocol trap: releasing an unheld lock means the workload is malformed"
        )]
        let state = self
            .locks
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("release of unknown lock {lock}"));
        assert_eq!(state.holder, Some(from), "release by non-holder");
        state.holder = state.waiters.pop_front();
        state.holder
    }

    /// The node currently holding `lock`, if any.
    pub fn holder(&self, lock: Addr) -> Option<NodeId> {
        self.locks.get(&lock).and_then(|s| s.holder)
    }

    /// Number of nodes queued on `lock`.
    pub fn waiters(&self, lock: Addr) -> usize {
        self.locks.get(&lock).map_or(0, |s| s.waiters.len())
    }
}

/// Barrier bookkeeping at the barrier's home node.
///
/// Barrier identifiers are unique per barrier *instance* (the workload
/// builders allocate a fresh id per episode), so no reinitialization race
/// exists.
#[derive(Debug, Clone, Default)]
pub struct BarrierTable {
    barriers: FxHashMap<u32, Vec<NodeId>>,
}

impl BarrierTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `from` arrived at barrier `id`. When the `expected`-th
    /// participant arrives, returns all of them (the caller broadcasts the
    /// release) and forgets the barrier.
    pub fn arrive(&mut self, id: u32, from: NodeId, expected: usize) -> Option<Vec<NodeId>> {
        let arrived = self.barriers.entry(id).or_default();
        arrived.push(from);
        if arrived.len() == expected {
            self.barriers.remove(&id)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn lock_hands_off_in_fifo_order() {
        let mut t = LockTable::new();
        let l = Addr::new(0x40);
        assert!(t.acquire(l, n(0)));
        assert!(!t.acquire(l, n(1)));
        assert!(!t.acquire(l, n(2)));
        assert_eq!(t.waiters(l), 2);
        assert_eq!(t.release(l, n(0)), Some(n(1)));
        assert_eq!(t.release(l, n(1)), Some(n(2)));
        assert_eq!(t.release(l, n(2)), None);
        assert_eq!(t.holder(l), None);
    }

    #[test]
    fn independent_locks_do_not_interfere() {
        let mut t = LockTable::new();
        assert!(t.acquire(Addr::new(0x40), n(0)));
        assert!(t.acquire(Addr::new(0x80), n(1)));
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut t = LockTable::new();
        t.acquire(Addr::new(0x40), n(0));
        t.release(Addr::new(0x40), n(1));
    }

    #[test]
    fn barrier_releases_only_when_full() {
        let mut b = BarrierTable::new();
        assert_eq!(b.arrive(7, n(0), 3), None);
        assert_eq!(b.arrive(7, n(1), 3), None);
        let all = b.arrive(7, n(2), 3).unwrap();
        assert_eq!(all, vec![n(0), n(1), n(2)]);
        assert!(b.barriers.is_empty());
    }

    #[test]
    fn distinct_barriers_overlap() {
        let mut b = BarrierTable::new();
        b.arrive(1, n(0), 2);
        b.arrive(2, n(1), 2);
        assert_eq!(b.barriers.len(), 2);
        assert!(b.arrive(1, n(1), 2).is_some());
        assert!(b.arrive(2, n(0), 2).is_some());
    }
}
