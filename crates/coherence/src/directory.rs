//! The full-map directory automaton.

use std::collections::VecDeque;

use pfsim_mem::{BlockAddr, NodeId, PagedMap};

use crate::SharerSet;

/// A coherence request arriving at a block's home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirRequest {
    /// Read miss (or prefetch): the requester wants a shared copy.
    ReadShared {
        /// Requesting node.
        from: NodeId,
        /// Whether this is a prefetch (propagated into the data reply so
        /// the requester tags the block).
        prefetch: bool,
    },
    /// Write miss: the requester wants an exclusive copy with data.
    ReadExclusive {
        /// Requesting node.
        from: NodeId,
    },
    /// Write hit on a shared copy: the requester wants ownership without
    /// data.
    Upgrade {
        /// Requesting node.
        from: NodeId,
    },
    /// Replacement of a dirty block: the data returns to memory.
    Writeback {
        /// Evicting node.
        from: NodeId,
    },
}

impl DirRequest {
    /// A demand read-shared request.
    pub fn read_shared(from: NodeId) -> Self {
        DirRequest::ReadShared {
            from,
            prefetch: false,
        }
    }

    /// A prefetch read-shared request.
    pub fn prefetch(from: NodeId) -> Self {
        DirRequest::ReadShared {
            from,
            prefetch: true,
        }
    }

    /// The node that issued the request.
    pub fn from(self) -> NodeId {
        match self {
            DirRequest::ReadShared { from, .. }
            | DirRequest::ReadExclusive { from }
            | DirRequest::Upgrade { from }
            | DirRequest::Writeback { from } => from,
        }
    }
}

/// An action the home node must perform on behalf of the protocol.
///
/// Actions are returned in execution order; in particular `ReadMemory`
/// before a `SendData` means the reply carries data read from local memory
/// (the executor inserts the memory latency between them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirAction {
    /// Read the block from this node's local memory.
    ReadMemory,
    /// Write the block back to this node's local memory.
    WriteMemory,
    /// Send a data reply to `to`.
    SendData {
        /// Destination node.
        to: NodeId,
        /// Whether ownership (write permission) is granted.
        exclusive: bool,
        /// Whether the original request was a prefetch.
        prefetch: bool,
    },
    /// Grant ownership without data (upgrade acknowledgement).
    SendAck {
        /// Destination node.
        to: NodeId,
    },
    /// Ask `owner` for its dirty copy, downgrading it to Shared.
    Fetch {
        /// Current owner.
        owner: NodeId,
    },
    /// Ask `owner` for its dirty copy and invalidate it.
    FetchInval {
        /// Current owner.
        owner: NodeId,
    },
    /// Send invalidations to every node in `targets`; each will be
    /// acknowledged via [`Directory::inval_ack`].
    Invalidate {
        /// Nodes holding copies that must be invalidated.
        targets: SharerSet,
    },
}

/// A reusable, mostly-inline buffer of [`DirAction`]s.
///
/// The directory sits on the simulator's hot path: every coherence message
/// produces a handful of actions, and allocating a fresh `Vec` per message
/// dominated the protocol cost. Callers own one `ActionBuf`, pass it to
/// [`Directory::request`] / [`Directory::fetch_done`] /
/// [`Directory::inval_ack`], and [`clear`](Self::clear) it between uses —
/// after warm-up no protocol operation allocates.
///
/// The first [`ActionBuf::INLINE`] actions live inline; a transaction only
/// spills to the heap-backed tail when a completed fetch drains a long
/// pending queue (rare, and the spill capacity is then reused too).
#[derive(Debug, Clone)]
pub struct ActionBuf {
    inline: [DirAction; Self::INLINE],
    len: usize,
    spill: Vec<DirAction>,
}

impl ActionBuf {
    /// Actions stored without touching the heap.
    pub const INLINE: usize = 8;

    /// Creates an empty buffer.
    pub fn new() -> Self {
        ActionBuf {
            // Placeholder values; only `inline[..len.min(INLINE)]` is live.
            inline: std::array::from_fn(|_| DirAction::ReadMemory),
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Empties the buffer, retaining any spill capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Appends an action.
    pub fn push(&mut self, action: DirAction) {
        if self.len < Self::INLINE {
            self.inline[self.len] = action;
        } else {
            self.spill.push(action);
        }
        self.len += 1;
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no actions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the actions in push order.
    pub fn iter(&self) -> impl Iterator<Item = &DirAction> + '_ {
        self.inline[..self.len.min(Self::INLINE)]
            .iter()
            .chain(self.spill.iter())
    }

    /// Copies the actions into a `Vec` (test and debugging convenience).
    pub fn to_vec(&self) -> Vec<DirAction> {
        self.iter().cloned().collect()
    }
}

impl Default for ActionBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable directory state of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies; memory is current.
    Uncached,
    /// Read-only copies at the recorded nodes; memory is current.
    Shared(SharerSet),
    /// One dirty copy at the recorded owner; memory is stale.
    Modified(NodeId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// A (possibly invalidating) fetch to the owner is outstanding.
    Fetch { owner: NodeId },
    /// Invalidations are outstanding; `remaining` acks are due.
    Acks { remaining: u32 },
    /// The owner's copy is gone; its writeback is in flight and must arrive
    /// before the transaction can complete from memory.
    WritebackData,
}

#[derive(Debug, Clone)]
struct Txn {
    request: DirRequest,
    waiting: Waiting,
    /// Set when a racing writeback for this block arrived while the fetch
    /// was outstanding.
    wb_arrived: bool,
}

/// The busy side of an entry: the in-flight transaction plus any requests
/// queued behind it.
///
/// Boxed out of [`Entry`] so the overwhelmingly common idle entry stays
/// small (the entry table is probed on every coherence message, and idle
/// probes dominate), and recycled through `Directory::spare` so
/// steady-state traffic never allocates.
#[derive(Debug, Clone)]
struct Busy {
    /// The in-flight transaction. `None` only transiently while the
    /// pending queue drains; a `Busy` box is retired as soon as it has
    /// neither a transaction nor queued requests.
    txn: Option<Txn>,
    /// Requests queued behind the transaction, in arrival order.
    pending: VecDeque<DirRequest>,
}

#[derive(Debug, Clone)]
struct Entry {
    state: DirState,
    busy: Option<Box<Busy>>,
}

impl Entry {
    fn new() -> Self {
        Entry {
            state: DirState::Uncached,
            busy: None,
        }
    }
}

/// Counters kept by the directory (protocol-level statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Transactions that were satisfied directly from memory.
    pub memory_supplied: u64,
    /// Transactions that required a fetch from a remote owner.
    pub owner_supplied: u64,
    /// Invalidation messages requested.
    pub invalidations: u64,
    /// Writebacks absorbed.
    pub writebacks: u64,
    /// Stale writebacks ignored (should stay zero in a correct system).
    pub stale_writebacks: u64,
}

/// One home node's slice of the full-map directory.
///
/// See the [crate documentation](crate) for the protocol overview and an
/// example.
#[derive(Debug, Clone)]
pub struct Directory {
    entries: PagedMap<Entry>,
    nodes: u16,
    stats: DirStats,
    /// Retired [`Busy`] boxes awaiting reuse (bounded; see `SPARE_CAP`).
    /// Deliberately `Box`ed: the pool hands the same allocations back to
    /// [`Entry::busy`], so engaging an entry in steady state never touches
    /// the allocator.
    #[expect(
        clippy::vec_box,
        reason = "the pool recycles the Box allocations themselves"
    )]
    spare: Vec<Box<Busy>>,
}

/// Upper bound on recycled `Busy` boxes kept per directory slice.
const SPARE_CAP: usize = 64;

impl Directory {
    /// Creates a directory slice for a system of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the presence-vector limit
    /// ([`crate::MAX_SHARERS`]).
    pub fn new(nodes: u16) -> Self {
        assert!(
            (1..=crate::MAX_SHARERS as u16).contains(&nodes),
            "nodes must be in 1..={}",
            crate::MAX_SHARERS
        );
        Directory {
            entries: PagedMap::new(),
            nodes,
            stats: DirStats::default(),
            spare: Vec::new(),
        }
    }

    /// Protocol statistics so far.
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    /// The stable state of `block` (Uncached if never referenced).
    pub fn state(&self, block: BlockAddr) -> DirState {
        self.entries
            .get(block.as_u64())
            .map(|e| e.state.clone())
            .unwrap_or(DirState::Uncached)
    }

    /// Whether a transaction for `block` is in flight at the home.
    pub fn is_busy(&self, block: BlockAddr) -> bool {
        self.entries
            .get(block.as_u64())
            .is_some_and(|e| e.busy.is_some())
    }

    /// Debug description of the in-flight transaction for `block`, if any
    /// (used in deadlock diagnostics).
    pub fn busy_detail(&self, block: BlockAddr) -> Option<String> {
        let entry = self.entries.get(block.as_u64())?;
        let busy = entry.busy.as_ref()?;
        let txn = busy.txn.as_ref()?;
        Some(format!(
            "request {:?} waiting {:?} wb_arrived={} pending={}",
            txn.request,
            txn.waiting,
            txn.wb_arrived,
            busy.pending.len()
        ))
    }

    /// Iterates the stable states of all blocks this home has seen
    /// (for coherence audits in tests).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, DirState)> + '_ {
        self.entries
            .iter()
            .map(|(b, e)| (BlockAddr::new(b), e.state.clone()))
    }

    /// Presents `request` to the home node.
    ///
    /// Appends the actions to execute now onto `actions` (which the caller
    /// owns and reuses across calls; see [`ActionBuf`]). Appending nothing
    /// means the request was queued behind an in-flight transaction for the
    /// same block (or, for a racing writeback, absorbed into it).
    pub fn request(&mut self, block: BlockAddr, request: DirRequest, actions: &mut ActionBuf) {
        let Directory {
            entries,
            stats,
            spare,
            ..
        } = self;
        let entry = entries.get_or_insert_with(block.as_u64(), Entry::new);

        if entry.busy.is_some() {
            if let DirRequest::Writeback { from } = request {
                Self::writeback_during_txn(stats, entry, from, actions);
                Self::retire_if_idle(spare, &mut entry.busy);
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "busy-ness established by the branch condition above"
                )]
                entry
                    .busy
                    .as_mut()
                    .expect("checked")
                    .pending
                    .push_back(request);
            }
            return;
        }

        if let Some(txn) = Self::start(stats, &mut entry.state, request, actions) {
            Self::engage(spare, entry, txn);
        }
    }

    /// Delivers the owner's reply to a `Fetch`/`FetchInval` action,
    /// appending the resulting actions onto `actions`.
    ///
    /// `had_copy` is `false` when the owner no longer held the block (its
    /// writeback is in flight); the transaction then completes once that
    /// writeback arrives.
    ///
    /// # Panics
    ///
    /// Panics if no fetch is outstanding for `block`.
    pub fn fetch_done(&mut self, block: BlockAddr, had_copy: bool, actions: &mut ActionBuf) {
        let Directory {
            entries,
            stats,
            spare,
            ..
        } = self;
        #[expect(
            clippy::expect_used,
            reason = "protocol trap: fetch_done always names a tracked block"
        )]
        let entry = entries
            .get_mut(block.as_u64())
            .expect("fetch_done for unknown block");
        let Entry { state, busy } = entry;
        #[expect(
            clippy::expect_used,
            reason = "protocol trap: fetch_done only arrives while a transaction is open"
        )]
        let b = busy.as_mut().expect("fetch_done with no transaction");
        #[expect(
            clippy::expect_used,
            reason = "protocol trap: fetch_done only arrives while a transaction is open"
        )]
        let txn = b.txn.as_mut().expect("fetch_done with no transaction");
        assert!(
            matches!(txn.waiting, Waiting::Fetch { .. }),
            "fetch_done while waiting for {:?}",
            txn.waiting
        );

        if had_copy {
            let request = txn.request;
            match request {
                DirRequest::ReadShared { from, prefetch } => {
                    let owner = match txn.waiting {
                        Waiting::Fetch { owner } => owner,
                        _ => unreachable!(),
                    };
                    let mut sharers = SharerSet::singleton(owner);
                    sharers.insert(from);
                    *state = DirState::Shared(sharers);
                    // The dirty data goes both to memory and to the
                    // requester.
                    actions.push(DirAction::WriteMemory);
                    actions.push(DirAction::SendData {
                        to: from,
                        exclusive: false,
                        prefetch,
                    });
                }
                DirRequest::ReadExclusive { from } | DirRequest::Upgrade { from } => {
                    *state = DirState::Modified(from);
                    actions.push(DirAction::SendData {
                        to: from,
                        exclusive: true,
                        prefetch: false,
                    });
                }
                DirRequest::Writeback { .. } => unreachable!("writebacks never fetch"),
            }
            stats.owner_supplied += 1;
            b.txn = None;
            Self::drain_pending(stats, state, b, actions);
            Self::retire_if_idle(spare, busy);
        } else if txn.wb_arrived {
            // The racing writeback already refreshed memory.
            let request = txn.request;
            b.txn = None;
            Self::complete_from_memory(stats, state, request, actions);
            Self::drain_pending(stats, state, b, actions);
            Self::retire_if_idle(spare, busy);
        } else {
            txn.waiting = Waiting::WritebackData;
        }
    }

    /// Delivers one invalidation acknowledgement for `block`, appending the
    /// resulting actions onto `actions`.
    ///
    /// # Panics
    ///
    /// Panics if no invalidation round is outstanding for `block`.
    pub fn inval_ack(&mut self, block: BlockAddr, actions: &mut ActionBuf) {
        let Directory {
            entries,
            stats,
            spare,
            ..
        } = self;
        #[expect(
            clippy::expect_used,
            reason = "protocol trap: inval_ack always names a tracked block"
        )]
        let entry = entries
            .get_mut(block.as_u64())
            .expect("inval_ack for unknown block");
        let Entry { state, busy } = entry;
        #[expect(
            clippy::expect_used,
            reason = "protocol trap: inval_ack only arrives while a transaction is open"
        )]
        let b = busy.as_mut().expect("inval_ack with no transaction");
        #[expect(
            clippy::expect_used,
            reason = "protocol trap: inval_ack only arrives while a transaction is open"
        )]
        let txn = b.txn.as_mut().expect("inval_ack with no transaction");
        #[expect(
            clippy::panic,
            reason = "protocol trap: a stray ack means the directory state machine is corrupt"
        )]
        let Waiting::Acks { remaining } = &mut txn.waiting
        else {
            panic!("inval_ack while waiting for {:?}", txn.waiting);
        };
        *remaining -= 1;
        if *remaining > 0 {
            return;
        }

        let request = txn.request;
        b.txn = None;
        match request {
            DirRequest::ReadExclusive { from } => {
                *state = DirState::Modified(from);
                actions.push(DirAction::ReadMemory);
                actions.push(DirAction::SendData {
                    to: from,
                    exclusive: true,
                    prefetch: false,
                });
                stats.memory_supplied += 1;
            }
            DirRequest::Upgrade { from } => {
                *state = DirState::Modified(from);
                actions.push(DirAction::SendAck { to: from });
            }
            DirRequest::ReadShared { .. } | DirRequest::Writeback { .. } => {
                unreachable!("only ownership requests wait for acks")
            }
        }
        Self::drain_pending(stats, state, b, actions);
        Self::retire_if_idle(spare, busy);
    }

    /// Starts `request` on an idle entry, appending actions. Returns the
    /// transaction to install if the request could not complete at once.
    fn start(
        stats: &mut DirStats,
        state: &mut DirState,
        request: DirRequest,
        actions: &mut ActionBuf,
    ) -> Option<Txn> {
        // An upgrade whose requester no longer appears in the presence
        // vector lost its copy to a racing invalidation or replacement: it
        // needs data, i.e. it *is* a read-exclusive.
        let request = match request {
            DirRequest::Upgrade { from } => {
                let has_copy = matches!(&*state, DirState::Shared(s) if s.contains(from));
                if has_copy {
                    request
                } else {
                    DirRequest::ReadExclusive { from }
                }
            }
            other => other,
        };
        match request {
            DirRequest::ReadShared { from, prefetch: _ } => match &*state {
                DirState::Uncached | DirState::Shared(_) => {
                    Self::complete_from_memory(stats, state, request, actions);
                    None
                }
                &DirState::Modified(owner) if owner != from => {
                    actions.push(DirAction::Fetch { owner });
                    Some(Txn {
                        request,
                        waiting: Waiting::Fetch { owner },
                        wb_arrived: false,
                    })
                }
                DirState::Modified(_) => {
                    // The requester is the recorded owner: it must have
                    // evicted the block; its writeback is in flight.
                    Some(Txn {
                        request,
                        waiting: Waiting::WritebackData,
                        wb_arrived: false,
                    })
                }
            },
            DirRequest::ReadExclusive { from } | DirRequest::Upgrade { from } => {
                match &*state {
                    DirState::Uncached => {
                        Self::complete_from_memory(stats, state, request, actions);
                        None
                    }
                    DirState::Shared(sharers) => {
                        let others = sharers.without(from);
                        if others.is_empty() {
                            if matches!(request, DirRequest::Upgrade { .. })
                                && sharers.contains(from)
                            {
                                // Sole sharer upgrading: ownership granted
                                // without data.
                                *state = DirState::Modified(from);
                                actions.push(DirAction::SendAck { to: from });
                            } else {
                                Self::complete_from_memory(stats, state, request, actions);
                            }
                            None
                        } else {
                            let remaining = others.len();
                            stats.invalidations += u64::from(remaining);
                            actions.push(DirAction::Invalidate { targets: others });
                            Some(Txn {
                                request,
                                waiting: Waiting::Acks { remaining },
                                wb_arrived: false,
                            })
                        }
                    }
                    &DirState::Modified(owner) if owner != from => {
                        actions.push(DirAction::FetchInval { owner });
                        Some(Txn {
                            request,
                            waiting: Waiting::Fetch { owner },
                            wb_arrived: false,
                        })
                    }
                    DirState::Modified(_) => Some(Txn {
                        request,
                        waiting: Waiting::WritebackData,
                        wb_arrived: false,
                    }),
                }
            }
            DirRequest::Writeback { from } => {
                if *state == DirState::Modified(from) {
                    *state = DirState::Uncached;
                    stats.writebacks += 1;
                    actions.push(DirAction::WriteMemory);
                } else {
                    // A writeback for a block this directory no longer
                    // records as owned by the sender: stale (the protocol
                    // should never produce one).
                    debug_assert!(false, "stale writeback from {from:?}");
                    stats.stale_writebacks += 1;
                }
                None
            }
        }
    }

    /// Handles a writeback arriving while a transaction is in flight.
    fn writeback_during_txn(
        stats: &mut DirStats,
        entry: &mut Entry,
        from: NodeId,
        actions: &mut ActionBuf,
    ) {
        stats.writebacks += 1;
        let Entry { state, busy } = entry;
        #[expect(
            clippy::expect_used,
            reason = "caller dispatches here only for busy entries"
        )]
        let b = busy.as_mut().expect("busy entry has a txn");
        #[expect(
            clippy::expect_used,
            reason = "caller dispatches here only for busy entries"
        )]
        let txn = b.txn.as_mut().expect("busy entry has a txn");
        match txn.waiting {
            Waiting::Fetch { owner } if owner == from => {
                // The fetch will find no copy; remember that memory is now
                // current.
                actions.push(DirAction::WriteMemory);
                txn.wb_arrived = true;
            }
            Waiting::WritebackData => {
                // This is the writeback the transaction was waiting for.
                actions.push(DirAction::WriteMemory);
                let request = txn.request;
                b.txn = None;
                Self::complete_from_memory(stats, state, request, actions);
                Self::drain_pending(stats, state, b, actions);
            }
            _ => {
                debug_assert!(
                    false,
                    "unexpected writeback from {from:?} while {:?}",
                    txn.waiting
                );
                stats.stale_writebacks += 1;
            }
        }
    }

    /// Completes `request` with memory as the data source, updating state.
    fn complete_from_memory(
        stats: &mut DirStats,
        state: &mut DirState,
        request: DirRequest,
        actions: &mut ActionBuf,
    ) {
        stats.memory_supplied += 1;
        match request {
            DirRequest::ReadShared { from, prefetch } => {
                // Take the existing sharer set (if any) rather than clone
                // it: a wide set would otherwise allocate on every hit.
                let mut sharers = match std::mem::replace(state, DirState::Uncached) {
                    DirState::Shared(s) => s,
                    _ => SharerSet::new(),
                };
                sharers.insert(from);
                *state = DirState::Shared(sharers);
                actions.push(DirAction::ReadMemory);
                actions.push(DirAction::SendData {
                    to: from,
                    exclusive: false,
                    prefetch,
                });
            }
            DirRequest::ReadExclusive { from } | DirRequest::Upgrade { from } => {
                // An upgrade that reaches here lost its copy to a racing
                // invalidation (or the block returned to memory): it is
                // served as a full exclusive read, data included.
                *state = DirState::Modified(from);
                actions.push(DirAction::ReadMemory);
                actions.push(DirAction::SendData {
                    to: from,
                    exclusive: true,
                    prefetch: false,
                });
            }
            DirRequest::Writeback { .. } => unreachable!("writebacks complete in start()"),
        }
    }

    /// After a transaction completes, starts as many queued requests as can
    /// run back to back.
    fn drain_pending(
        stats: &mut DirStats,
        state: &mut DirState,
        b: &mut Busy,
        actions: &mut ActionBuf,
    ) {
        while b.txn.is_none() {
            let Some(next) = b.pending.pop_front() else {
                break;
            };
            b.txn = Self::start(stats, state, next, actions);
        }
    }

    /// Installs `txn` on an idle entry, reusing a retired `Busy` box when
    /// one is available.
    #[expect(
        clippy::vec_box,
        reason = "the pool recycles the Box allocations themselves"
    )]
    fn engage(spare: &mut Vec<Box<Busy>>, entry: &mut Entry, txn: Txn) {
        debug_assert!(entry.busy.is_none());
        let busy = match spare.pop() {
            Some(mut b) => {
                debug_assert!(b.pending.is_empty());
                b.txn = Some(txn);
                b
            }
            None => Box::new(Busy {
                txn: Some(txn),
                pending: VecDeque::new(),
            }),
        };
        entry.busy = Some(busy);
    }

    /// Returns an entry's `Busy` box to the spare pool once it holds
    /// neither a transaction nor queued requests.
    #[expect(
        clippy::vec_box,
        reason = "the pool recycles the Box allocations themselves"
    )]
    fn retire_if_idle(spare: &mut Vec<Box<Busy>>, busy: &mut Option<Box<Busy>>) {
        if busy.as_ref().is_some_and(|b| b.txn.is_none()) {
            #[expect(
                clippy::expect_used,
                reason = "is_some_and on the line above checked the txn is gone"
            )]
            let b = busy.take().expect("checked");
            debug_assert!(b.pending.is_empty(), "drained entry still has requests");
            if spare.len() < SPARE_CAP {
                spare.push(b);
            }
        }
    }

    /// Number of nodes in the system.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }
}
