//! The shadow data machine: who holds which value of every block.
//!
//! The simulator moves *permissions*, not data. This model replays the
//! data movement the protocol implies — write buffers, cache copies,
//! memory, and the three kinds of in-flight payloads (owner fetch
//! replies, home data replies, writebacks) — in terms of *write IDs*: a
//! block's contents are a map from byte address to the ID of the last
//! write that stored there. A read's observation is then a concrete
//! write ID (or "initial value"), which the [`Checker`](crate::Checker)
//! judges against release consistency.
//!
//! Fault injection lives here and only here: the simulator under test is
//! never modified. Dropping a fetch payload or skipping an invalidation
//! makes the shadow machine model a *broken* protocol, and the checker
//! (or the final-state differential) must notice the difference.

use pfsim_mem::{Addr, BlockAddr, FxHashMap, Geometry};
use std::collections::VecDeque;

/// Unique ID of a simulated store, in global issue order.
pub type WriteId = u64;

/// What a load observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The location's initial (pre-run) value.
    Initial,
    /// A globally performed write.
    Applied(WriteId),
    /// The reader's own still-buffered write (store forwarding).
    OwnPending(WriteId),
}

/// A protocol defect deliberately modeled to validate the oracle's teeth
/// (the simulator itself is untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    /// Faithful modeling.
    #[default]
    None,
    /// An owner's fetch reply loses its payload: the home serves stale
    /// memory instead of the owner's dirty data (a classic stale-fill bug).
    DropFetchData,
    /// A cache ignores invalidations and keeps serving its stale copy.
    SkipInvalidate,
}

/// Block contents: byte address → last write ID. Missing = initial value.
pub type Block = FxHashMap<u64, WriteId>;

/// A node's copy of a block.
#[derive(Debug, Clone, Default)]
struct CopyLine {
    data: Block,
    owned: bool,
}

/// The shadow machine (see module docs).
#[derive(Clone)]
pub struct MachineModel {
    geometry: Geometry,
    /// Home memory contents per block.
    memory: FxHashMap<u64, Block>,
    /// Per node: block → copy.
    copies: Vec<FxHashMap<u64, CopyLine>>,
    /// Per node: mirrored FLWB write entries (addr, id), program order.
    flwb: Vec<VecDeque<(u64, WriteId)>>,
    /// Per node: writes drained from the FLWB but awaiting ownership of
    /// their block, applied in order at the exclusive fill / promote.
    pending: Vec<FxHashMap<u64, Vec<(u64, WriteId)>>>,
    /// Owner data travelling to the home (one fetch per block at a time).
    fetch_stash: FxHashMap<u64, Block>,
    /// Writebacks travelling to the home; `None` marks a dataless
    /// ownership relinquish (the failed-promote writeback).
    wb_stash: FxHashMap<(u64, u16), VecDeque<Option<Block>>>,
    /// Home data replies travelling to a requester.
    reply_stash: FxHashMap<(u64, u16), Block>,
    /// Payload staged by the current home action batch.
    batch_staged: Option<Block>,
    fault: FaultInjection,
    /// Model-desynchronization reports: places where the simulator's
    /// events contradict the model's bookkeeping (each one is a protocol
    /// bug or a model bug; both must be surfaced).
    desync: Vec<String>,
}

impl MachineModel {
    /// A fresh machine: all memory at initial values, all caches empty.
    pub fn new(geometry: Geometry, nodes: usize, fault: FaultInjection) -> Self {
        MachineModel {
            geometry,
            memory: FxHashMap::default(),
            copies: (0..nodes).map(|_| FxHashMap::default()).collect(),
            flwb: (0..nodes).map(|_| VecDeque::new()).collect(),
            pending: (0..nodes).map(|_| FxHashMap::default()).collect(),
            fetch_stash: FxHashMap::default(),
            wb_stash: FxHashMap::default(),
            reply_stash: FxHashMap::default(),
            batch_staged: None,
            fault,
            desync: Vec::new(),
        }
    }

    fn block_of(&self, addr: Addr) -> u64 {
        self.geometry.block_of(addr).as_u64()
    }

    fn note_desync(&mut self, msg: String) {
        if self.desync.len() < 32 {
            self.desync.push(msg);
        }
    }

    /// Accumulated desynchronization reports.
    pub fn desync(&self) -> &[String] {
        &self.desync
    }

    // ---- processor side -------------------------------------------------

    /// Mirrors a store entering the write buffer.
    pub fn write_issued(&mut self, cpu: u16, addr: Addr, id: WriteId) {
        self.flwb[cpu as usize].push_back((addr.as_u64(), id));
    }

    /// The front buffered store performed against an owned copy. Returns
    /// the applied ID (for the checker).
    pub fn write_applied(&mut self, cpu: u16, addr: Addr) -> Option<WriteId> {
        let (a, id) = match self.flwb[cpu as usize].pop_front() {
            Some(e) => e,
            None => {
                self.note_desync(format!("cpu {cpu}: write applied with empty shadow FLWB"));
                return None;
            }
        };
        if a != addr.as_u64() {
            self.note_desync(format!(
                "cpu {cpu}: applied write addr {addr:?} but shadow FLWB head is {a:#x}"
            ));
        }
        self.store(cpu, a, id);
        Some(id)
    }

    /// The front buffered store drained but awaits ownership.
    pub fn write_deferred(&mut self, cpu: u16, addr: Addr) {
        let (a, id) = match self.flwb[cpu as usize].pop_front() {
            Some(e) => e,
            None => {
                self.note_desync(format!("cpu {cpu}: write deferred with empty shadow FLWB"));
                return;
            }
        };
        if a != addr.as_u64() {
            self.note_desync(format!(
                "cpu {cpu}: deferred write addr {addr:?} but shadow FLWB head is {a:#x}"
            ));
        }
        let block = self.block_of(addr);
        self.pending[cpu as usize]
            .entry(block)
            .or_default()
            .push((a, id));
    }

    /// Writes `id` at `addr` into the cpu's (necessarily owned) copy.
    fn store(&mut self, cpu: u16, addr: u64, id: WriteId) {
        let block = self.geometry.block_of(Addr::new(addr)).as_u64();
        let mut desync = None;
        match self.copies[cpu as usize].get_mut(&block) {
            Some(line) => {
                if !line.owned {
                    desync = Some(format!(
                        "cpu {cpu}: store to block {block:#x} without ownership in shadow"
                    ));
                }
                line.data.insert(addr, id);
            }
            None => {
                desync = Some(format!(
                    "cpu {cpu}: store to block {block:#x} with no shadow copy"
                ))
            }
        }
        if let Some(msg) = desync {
            self.note_desync(msg);
        }
    }

    /// Resolves what a load of `addr` by `cpu` observes *now*: the
    /// youngest of the cpu's own unapplied stores to the address (store
    /// forwarding), else the node's copy of the block.
    pub fn observe(&mut self, cpu: u16, addr: Addr) -> Observed {
        let a = addr.as_u64();
        let ci = cpu as usize;
        // Buffered stores are younger than deferred ones (they drained
        // later), so scan the FLWB mirror first, newest first.
        if let Some(&(_, id)) = self.flwb[ci].iter().rev().find(|&&(wa, _)| wa == a) {
            return Observed::OwnPending(id);
        }
        let block = self.block_of(addr);
        if let Some(list) = self.pending[ci].get(&block) {
            if let Some(&(_, id)) = list.iter().rev().find(|&&(wa, _)| wa == a) {
                return Observed::OwnPending(id);
            }
        }
        match self.copies[ci].get(&block) {
            Some(line) => match line.data.get(&a) {
                Some(&id) => Observed::Applied(id),
                None => Observed::Initial,
            },
            None => {
                self.note_desync(format!(
                    "cpu {cpu}: load of {a:#x} completed with no shadow copy of block {block:#x}"
                ));
                Observed::Initial
            }
        }
    }

    // ---- SLC / protocol side -------------------------------------------

    /// A data reply fills the node's cache; pending stores perform if the
    /// fill grants ownership. Returns the applied IDs in order.
    pub fn fill(&mut self, cpu: u16, block: BlockAddr, exclusive: bool) -> Vec<WriteId> {
        let b = block.as_u64();
        let data = match self.reply_stash.remove(&(b, cpu)) {
            Some(d) => d,
            None => {
                self.note_desync(format!(
                    "cpu {cpu}: fill of block {b:#x} with no data reply in flight"
                ));
                Block::default()
            }
        };
        self.copies[cpu as usize].insert(
            b,
            CopyLine {
                data,
                owned: exclusive,
            },
        );
        if exclusive {
            self.apply_pending(cpu, b)
        } else {
            Vec::new()
        }
    }

    /// An upgrade acknowledged with the copy still resident: ownership
    /// gained, pending stores perform. Returns the applied IDs in order.
    pub fn promote(&mut self, cpu: u16, block: BlockAddr) -> Vec<WriteId> {
        let b = block.as_u64();
        match self.copies[cpu as usize].get_mut(&b) {
            Some(line) => line.owned = true,
            None => self.note_desync(format!(
                "cpu {cpu}: promote of block {b:#x} with no shadow copy"
            )),
        }
        self.apply_pending(cpu, b)
    }

    /// An upgrade acknowledged after the copy was displaced: the node
    /// relinquishes the dataless grant via a writeback; pending stores
    /// stay pending for the re-issued read-exclusive.
    pub fn promote_failed(&mut self, cpu: u16, block: BlockAddr) {
        self.wb_stash
            .entry((block.as_u64(), cpu))
            .or_default()
            .push_back(None);
    }

    fn apply_pending(&mut self, cpu: u16, block: u64) -> Vec<WriteId> {
        let list = self.pending[cpu as usize]
            .remove(&block)
            .unwrap_or_default();
        let mut ids = Vec::with_capacity(list.len());
        for (addr, id) in list {
            self.store(cpu, addr, id);
            ids.push(id);
        }
        ids
    }

    /// The node evicted a block; a dirty victim's data rides a writeback.
    pub fn evict(&mut self, cpu: u16, block: BlockAddr, dirty: bool) {
        let b = block.as_u64();
        let line = self.copies[cpu as usize].remove(&b);
        if dirty {
            match line {
                Some(line) => {
                    self.wb_stash
                        .entry((b, cpu))
                        .or_default()
                        .push_back(Some(line.data));
                }
                None => self.note_desync(format!(
                    "cpu {cpu}: dirty eviction of block {b:#x} with no shadow copy"
                )),
            }
        }
    }

    /// The node processed a protocol invalidation for the block.
    pub fn invalidated(&mut self, cpu: u16, block: BlockAddr) {
        if self.fault == FaultInjection::SkipInvalidate {
            return; // the modeled bug: the stale copy lives on
        }
        self.copies[cpu as usize].remove(&block.as_u64());
    }

    /// The owner answered a home fetch: its data (if it still held the
    /// copy) travels to the home; the copy is invalidated or downgraded.
    pub fn fetch_supplied(&mut self, cpu: u16, block: BlockAddr, inval: bool, had_copy: bool) {
        let b = block.as_u64();
        if had_copy {
            let data = match self.copies[cpu as usize].get(&b) {
                Some(line) => line.data.clone(),
                None => {
                    self.note_desync(format!(
                        "cpu {cpu}: fetch supplied for block {b:#x} with no shadow copy"
                    ));
                    Block::default()
                }
            };
            if self.fault != FaultInjection::DropFetchData {
                self.fetch_stash.insert(b, data);
            }
        }
        if inval {
            self.copies[cpu as usize].remove(&b);
        } else if let Some(line) = self.copies[cpu as usize].get_mut(&b) {
            line.owned = false;
        }
    }

    // ---- home side -------------------------------------------------------

    /// A demand-request (or invalidation-ack) batch begins: no payload.
    pub fn home_begin(&mut self) {
        self.batch_staged = None;
    }

    /// A writeback batch begins: its payload (if any) is staged.
    pub fn home_begin_writeback(&mut self, block: BlockAddr, from: u16) {
        let b = block.as_u64();
        let popped = self
            .wb_stash
            .get_mut(&(b, from))
            .and_then(VecDeque::pop_front);
        if popped.is_none() {
            self.note_desync(format!(
                "home: writeback of block {b:#x} from {from} with nothing in flight"
            ));
        }
        self.batch_staged = popped.flatten();
    }

    /// A fetch-reply batch begins: the owner's payload is staged.
    pub fn home_begin_fetch(&mut self, block: BlockAddr, had_copy: bool) {
        self.batch_staged = if had_copy {
            // Missing stash = the injected DropFetchData defect: the home
            // falls back to (stale) memory exactly as the bug would.
            self.fetch_stash.remove(&block.as_u64())
        } else {
            None
        };
    }

    /// The batch read memory: subsequent replies carry memory's value.
    pub fn home_read_memory(&mut self, block: BlockAddr) {
        self.batch_staged = Some(
            self.memory
                .get(&block.as_u64())
                .cloned()
                .unwrap_or_default(),
        );
    }

    /// The batch committed its staged payload to memory (no-op for a
    /// dataless relinquish).
    pub fn home_write_memory(&mut self, block: BlockAddr) {
        if let Some(data) = self.batch_staged.clone() {
            self.memory.insert(block.as_u64(), data);
        }
    }

    /// The batch sent a data reply to `to`, carrying the staged payload
    /// (or memory's value when nothing was staged).
    pub fn home_send_data(&mut self, block: BlockAddr, to: u16) {
        let b = block.as_u64();
        let data = match &self.batch_staged {
            Some(d) => d.clone(),
            None => self.memory.get(&b).cloned().unwrap_or_default(),
        };
        self.reply_stash.insert((b, to), data);
    }

    // ---- final state -----------------------------------------------------

    /// Differential final-state comparison against the flat reference
    /// (`expected`: block → addr → last write in coherence order).
    /// Returns human-readable violations; empty = the machine quiesced
    /// with no data lost, duplicated stale, or still in flight.
    pub fn final_state_violations(
        &self,
        expected: &FxHashMap<u64, Block>,
        describe: impl Fn(WriteId) -> String,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for (cpu, q) in self.flwb.iter().enumerate() {
            if !q.is_empty() {
                out.push(format!("cpu {cpu}: {} writes never left the FLWB", q.len()));
            }
        }
        for (cpu, p) in self.pending.iter().enumerate() {
            let n: usize = p.sorted_entries().iter().map(|(_, w)| w.len()).sum();
            if n > 0 {
                out.push(format!("cpu {cpu}: {n} writes never gained ownership"));
            }
        }
        if !self.fetch_stash.is_empty() {
            out.push(format!(
                "{} fetch replies still in flight",
                self.fetch_stash.len()
            ));
        }
        if !self.reply_stash.is_empty() {
            out.push(format!(
                "{} data replies still in flight",
                self.reply_stash.len()
            ));
        }
        let wb: usize = self
            .wb_stash
            .sorted_entries()
            .iter()
            .map(|(_, q)| q.len())
            .sum();
        if wb > 0 {
            out.push(format!("{wb} writebacks still in flight"));
        }

        let mut blocks: Vec<u64> = expected
            .sorted_keys()
            .into_iter()
            .chain(self.memory.sorted_keys())
            .copied()
            .collect();
        for copies in &self.copies {
            blocks.extend(copies.sorted_keys().into_iter().copied());
        }
        blocks.sort_unstable();
        blocks.dedup();

        let empty = Block::default();
        for b in blocks {
            let want = expected.get(&b).unwrap_or(&empty);
            let owners: Vec<usize> = self
                .copies
                .iter()
                .enumerate()
                .filter(|(_, c)| c.get(&b).is_some_and(|l| l.owned))
                .map(|(i, _)| i)
                .collect();
            if owners.len() > 1 {
                out.push(format!("block {b:#x}: multiple owners {owners:?}"));
            }
            // With a live owner, memory may legitimately be stale; without
            // one, memory is the block's ground truth.
            if owners.is_empty() {
                let mem = self.memory.get(&b).unwrap_or(&empty);
                if let Some(msg) = diff_block(b, "memory", mem, want, &describe) {
                    out.push(msg);
                }
            }
            for (cpu, copies) in self.copies.iter().enumerate() {
                if let Some(line) = copies.get(&b) {
                    let who = format!("cpu {cpu} copy");
                    if let Some(msg) = diff_block(b, &who, &line.data, want, &describe) {
                        out.push(msg);
                    }
                }
            }
            if out.len() > 32 {
                return out;
            }
        }
        out
    }
}

/// Compares a block's contents against the flat reference.
fn diff_block(
    block: u64,
    who: &str,
    got: &Block,
    want: &Block,
    describe: &impl Fn(WriteId) -> String,
) -> Option<String> {
    let mut addrs: Vec<u64> = got
        .sorted_keys()
        .into_iter()
        .chain(want.sorted_keys())
        .copied()
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    for a in addrs {
        let g = got.get(&a);
        let w = want.get(&a);
        if g != w {
            let gs = g.map_or("initial".to_string(), |&id| describe(id));
            let ws = w.map_or("initial".to_string(), |&id| describe(id));
            return Some(format!(
                "block {block:#x} addr {a:#x}: {who} holds {gs}, flat reference holds {ws}"
            ));
        }
    }
    None
}
