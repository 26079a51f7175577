//! The axiomatic release-consistency + per-location-coherence checker.
//!
//! Coherence order per location is the *apply* order: a store performs
//! globally only while its node holds the block exclusively, and the
//! simulator's event loop serializes those instants, so assigning each
//! applied store a global sequence number yields, per address, exactly
//! the location's coherence order. The checker then enforces:
//!
//! - **Per-location coherence (CoRR/CoRW):** each processor's successive
//!   observations of an address never move backwards in coherence order.
//!   A processor may lag (read an old value — RC allows it) but may not
//!   un-read a newer value it has already observed.
//! - **CoWW:** one processor's stores to one address perform in program
//!   order (the FIFO write buffer guarantees it; the checker verifies).
//! - **Read-own-write:** a processor always observes its own latest
//!   store, buffered or performed (store forwarding is always legal).
//! - **Synchronization order:** a release publishes the releaser's
//!   coherence knowledge (its *bound*: the newest write per address it
//!   has observed or performed); the matching acquire joins it. Barriers
//!   join every participant's bound into every participant. After the
//!   join, observing anything older — including the initial value — is a
//!   violation. This is what forbids the message-passing anomaly while
//!   still allowing store-buffering, which RC permits.
//!
//! What RC *allows* (and the checker therefore accepts): reading stale
//! values absent synchronization, store-buffering outcomes (both
//! processors reading "initial" in SB), and arbitrary interleavings of
//! unsynchronized conflicting writes.

use crate::model::{Observed, WriteId};
use pfsim_mem::{Addr, FxHashMap};

/// Metadata of one simulated store.
#[derive(Debug, Clone, Copy)]
pub struct WriteMeta {
    /// Issuing processor.
    pub cpu: u16,
    /// Byte address stored to.
    pub addr: u64,
    /// Per-processor program-order index.
    pub po: u64,
    /// Global coherence sequence number, once performed.
    pub coseq: Option<u64>,
}

/// Per-processor coherence knowledge: address → newest observed coseq.
type Bound = FxHashMap<u64, u64>;

/// The checker (see module docs).
#[derive(Clone)]
pub struct Checker {
    writes: Vec<WriteMeta>,
    issued_per_cpu: Vec<u64>,
    next_coseq: u64,
    bound: Vec<Bound>,
    /// Per (cpu, addr): program-order index of the last performed store
    /// (CoWW monotonicity).
    last_applied_po: FxHashMap<(u16, u64), u64>,
    /// lock address → the publishing releaser's bound snapshot.
    lock_publish: FxHashMap<u64, Bound>,
    /// barrier id → join of every arrived participant's bound.
    barrier_accum: FxHashMap<u32, Bound>,
    /// addr → last write in coherence order (the flat reference memory).
    flat: FxHashMap<u64, WriteId>,
    violations: Vec<String>,
    reads_checked: u64,
}

fn join_into(dst: &mut Bound, src: &Bound) {
    dst.merge(src, |ours, &theirs| *ours = (*ours).max(theirs));
}

impl Checker {
    /// A fresh checker for `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        Checker {
            writes: Vec::new(),
            issued_per_cpu: vec![0; nodes],
            next_coseq: 0,
            bound: (0..nodes).map(|_| Bound::default()).collect(),
            last_applied_po: FxHashMap::default(),
            lock_publish: FxHashMap::default(),
            barrier_accum: FxHashMap::default(),
            flat: FxHashMap::default(),
            violations: Vec::new(),
            reads_checked: 0,
        }
    }

    fn report(&mut self, msg: String) {
        if self.violations.len() < 32 {
            self.violations.push(msg);
        }
    }

    /// Registers a newly issued store and returns its ID.
    pub fn issue(&mut self, cpu: u16, addr: Addr) -> WriteId {
        let id = self.writes.len() as WriteId;
        let po = self.issued_per_cpu[cpu as usize];
        self.issued_per_cpu[cpu as usize] += 1;
        self.writes.push(WriteMeta {
            cpu,
            addr: addr.as_u64(),
            po,
            coseq: None,
        });
        id
    }

    /// Store `id` performed globally: assign its coherence sequence
    /// number, check CoWW, advance the writer's bound and the flat
    /// reference.
    pub fn apply(&mut self, id: WriteId) {
        let meta = self.writes[id as usize];
        if meta.coseq.is_some() {
            self.report(format!("{} performed twice", self.describe(id)));
            return;
        }
        let seq = self.next_coseq;
        self.next_coseq += 1;
        self.writes[id as usize].coseq = Some(seq);
        let key = (meta.cpu, meta.addr);
        if let Some(&prev_po) = self.last_applied_po.get(&key) {
            if prev_po > meta.po {
                self.report(format!(
                    "CoWW: {} performed after a program-order-later store to the same address",
                    self.describe(id)
                ));
            }
        }
        self.last_applied_po.insert(key, meta.po);
        let b = self.bound[meta.cpu as usize]
            .entry(meta.addr)
            .or_insert(seq);
        *b = (*b).max(seq);
        self.flat.insert(meta.addr, id);
    }

    /// Judges a load observation against the reader's coherence bound.
    pub fn observe(&mut self, cpu: u16, addr: Addr, obs: Observed) {
        self.reads_checked += 1;
        let a = addr.as_u64();
        match obs {
            Observed::OwnPending(_) => {} // store forwarding: always legal
            Observed::Initial => {
                if let Some(&seq) = self.bound[cpu as usize].get(&a) {
                    let newest = self.describe_by_seq(a, seq);
                    self.report(format!(
                        "coherence rollback: cpu {cpu} read the initial value of {a:#x} after \
                         {newest} became required reading"
                    ));
                }
            }
            Observed::Applied(id) => {
                let Some(seq) = self.writes[id as usize].coseq else {
                    self.report(format!(
                        "cpu {cpu} observed {} before it performed",
                        self.describe(id)
                    ));
                    return;
                };
                if let Some(&bound) = self.bound[cpu as usize].get(&a) {
                    if seq < bound {
                        let newest = self.describe_by_seq(a, bound);
                        self.report(format!(
                            "coherence rollback: cpu {cpu} read {} of {a:#x} after {newest} \
                             became required reading",
                            self.describe(id)
                        ));
                        return;
                    }
                }
                self.bound[cpu as usize].insert(a, seq);
            }
        }
    }

    /// A release drained: publish the releaser's bound on the lock.
    /// (Queue-based locks grant in order, and bounds only grow, so the
    /// newest publish transitively covers all earlier ones.)
    pub fn release(&mut self, cpu: u16, lock: Addr) {
        let snap = self.bound[cpu as usize].clone();
        self.lock_publish.insert(lock.as_u64(), snap);
    }

    /// An acquire granted: join the lock's publication into the acquirer.
    pub fn acquire(&mut self, cpu: u16, lock: Addr) {
        if let Some(pubd) = self.lock_publish.get(&lock.as_u64()) {
            let pubd = pubd.clone();
            join_into(&mut self.bound[cpu as usize], &pubd);
        }
    }

    /// A barrier arrival drained: contribute the bound to the barrier.
    pub fn barrier_arrive(&mut self, cpu: u16, id: u32) {
        let snap = self.bound[cpu as usize].clone();
        join_into(self.barrier_accum.entry(id).or_default(), &snap);
    }

    /// A barrier released this cpu: join everyone's contributions.
    pub fn barrier_release(&mut self, cpu: u16, id: u32) {
        if let Some(accum) = self.barrier_accum.get(&id) {
            let accum = accum.clone();
            join_into(&mut self.bound[cpu as usize], &accum);
        }
    }

    /// Stores that never performed (each is a lost write).
    pub fn unapplied(&self) -> Vec<WriteId> {
        self.writes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.coseq.is_none())
            .map(|(i, _)| i as WriteId)
            .collect()
    }

    /// The flat reference memory: addr → last write in coherence order.
    pub fn flat(&self) -> &FxHashMap<u64, WriteId> {
        &self.flat
    }

    /// Human-readable description of a write.
    pub fn describe(&self, id: WriteId) -> String {
        let m = self.writes[id as usize];
        format!("write #{id} (cpu {} po {} to {:#x})", m.cpu, m.po, m.addr)
    }

    fn describe_by_seq(&self, addr: u64, seq: u64) -> String {
        self.writes
            .iter()
            .position(|m| m.addr == addr && m.coseq == Some(seq))
            .map_or_else(
                || format!("a write at coseq {seq}"),
                |i| self.describe(i as WriteId),
            )
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Number of load observations judged.
    pub fn reads_checked(&self) -> u64 {
        self.reads_checked
    }

    /// Number of stores registered.
    pub fn writes_tracked(&self) -> u64 {
        self.writes.len() as u64
    }
}
