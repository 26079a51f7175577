//! The full-system simulator: 16 processing nodes, the directory protocol
//! and the mesh, driven by one deterministic event loop.
//!
//! The event handlers are written against a [`Core`] view — the nodes
//! plus an effect context [`Fx`] holding the event queue, the mesh and
//! the oracle — split-borrowed from the [`System`] once per event.

// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use pfsim_cache::{Eviction, LineState, MshrTryAlloc};
use pfsim_coherence::{ActionBuf, DirAction, DirRequest, DirStats};
use pfsim_engine::{CounterId, Cycle, EventQueue, HistogramId, Registry};
use pfsim_mem::{Addr, BlockAddr, Geometry, NodeId};
use pfsim_network::Mesh;
use pfsim_prefetch::{ReadAccess, ReadOutcome, Scheme};
use pfsim_workloads::{Op, Workload};

use crate::check::CheckSink;
use crate::msg::Msg;
use crate::node::{CpuStatus, DrainBlock, FlwbEntry, MshrEntry, Node, TxnKind};
use crate::stats::{MissRecord, SimResult};
use crate::{RecordMisses, SystemConfig};

/// Events of the system-level simulation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Run the processor of node `n`.
    CpuStep(u16),
    /// The SLC of node `n` services its next queued job.
    SlcWork(u16),
    /// A message arrives at node `n`.
    Deliver(u16, Msg),
}

impl Ev {
    /// The node the event executes on.
    fn node(&self) -> u16 {
        match *self {
            Ev::CpuStep(n) | Ev::SlcWork(n) | Ev::Deliver(n, _) => n,
        }
    }
}

/// A simulated clock: the kernel's time cursor or a processor's local
/// clock. Only this module (the event kernel) can set one; everywhere else
/// a clock is read-only, so simulated time cannot advance outside the
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Clock(Cycle);

impl Clock {
    /// Time zero.
    pub(crate) const ZERO: Clock = Clock(Cycle::ZERO);

    /// The current reading.
    #[inline]
    pub(crate) fn get(self) -> Cycle {
        self.0
    }

    #[inline]
    fn set(&mut self, t: Cycle) {
        self.0 = t;
    }
}

/// The observability registry plus pre-registered handles for the metrics
/// the event loop touches. Hot-path updates go through the index handles
/// (no name lookups); end-of-run gauges use `Registry::record` by name.
/// Every mutating registry call is a no-op behind one predictable branch
/// when instrumentation is off.
#[derive(Clone)]
pub(crate) struct Obs {
    pub(crate) reg: Registry,
    pub(crate) ev_cpu_step: CounterId,
    pub(crate) ev_slc_work: CounterId,
    pub(crate) ev_deliver: CounterId,
    pub(crate) queue_depth: HistogramId,
    pub(crate) queue_overflow: HistogramId,
    pub(crate) mshr_occupancy: HistogramId,
}

impl Obs {
    fn new(enabled: bool) -> Self {
        let mut reg = Registry::new(enabled);
        Obs {
            ev_cpu_step: reg.counter("ev_cpu_step"),
            ev_slc_work: reg.counter("ev_slc_work"),
            ev_deliver: reg.counter("ev_deliver"),
            queue_depth: reg.histogram("queue_depth"),
            queue_overflow: reg.histogram("queue_overflow_depth"),
            mshr_occupancy: reg.histogram("mshr_occupancy"),
            reg,
        }
    }
}

/// Outcome of one FLWB drain attempt (see [`Core::slc_drain_one`]).
enum Drained {
    /// An entry was consumed; service may continue.
    One,
    /// No entry can be served in this event.
    Idle,
    /// The head exists but is issued at a future time, and its wakeup
    /// would pop as the very next event: the caller may fast-forward to
    /// this time instead of scheduling.
    ParkedUntil(Cycle),
}

/// A handler's effect context: the live event queue, the mesh and the
/// installed correctness observer, borrowed for one event.
struct Fx<'a> {
    queue: &'a mut EventQueue<Ev>,
    mesh: &'a mut Mesh,
    check: &'a mut Option<Box<dyn CheckSink>>,
}

impl Fx<'_> {
    /// Schedules `ev` at `at`.
    fn schedule(&mut self, at: Cycle, ev: Ev) {
        self.queue.schedule(at, ev);
    }

    /// Sends `msg` from `from` to `to`, reserving mesh bandwidth at `at`.
    /// Data messages are sized by the geometry's block size.
    fn send(&mut self, geometry: Geometry, at: Cycle, from: u16, to: u16, msg: Msg) {
        let flits = msg.kind().flits_for(geometry.block_bytes());
        let arrival = self
            .mesh
            .send(at, NodeId::new(from), NodeId::new(to), flits);
        self.queue.schedule(arrival, Ev::Deliver(to, msg));
    }

    /// The installed correctness observer, if any. Every hook site is one
    /// `if let Some(k) = fx.check()` branch, predictable in normal runs.
    fn check(&mut self) -> Option<&mut (dyn CheckSink + 'static)> {
        self.check.as_deref_mut()
    }

    /// The event-fusion guard: true when an event scheduled at `at` would
    /// pop as the very next event with state identical to right now, so
    /// the handler may continue inline instead. The peek must be strict
    /// (`> at`): a same-time event with an earlier sequence number would
    /// pop first, and fusing past it would reorder the simulation.
    fn can_fuse(&self, at: Cycle) -> bool {
        self.queue.peek_time().is_none_or(|p| p > at)
    }
}

/// Home node of `block` under the configured page placement.
pub(crate) fn home_of(cfg: &SystemConfig, block: BlockAddr) -> u16 {
    cfg.placement
        .home_of(cfg.geometry.page_of_block(block))
        .as_u16()
}

/// Home node of the page containing `addr`.
pub(crate) fn home_of_addr(cfg: &SystemConfig, addr: Addr) -> u16 {
    cfg.placement.home_of(cfg.geometry.page_of(addr)).as_u16()
}

/// Schedules SLC service for node `n`. If a later `SlcWork` is already
/// pending (e.g. parked on a future-issued FLWB entry), an earlier
/// request re-arms service sooner; the stale event is harmless (it
/// re-checks state when it fires).
fn notify_slc(node: &mut Node, fx: &mut Fx, n: u16, at: Cycle) {
    let target = at.max(node.slc_server.free_at());
    match node.slc_scheduled_at {
        Some(scheduled) if scheduled <= target => {}
        _ => {
            node.slc_scheduled_at = Some(target);
            fx.schedule(target, Ev::SlcWork(n));
        }
    }
}

/// Defers `op` because the FLWB is full: the processor stalls until the
/// SLC drains an entry, then retries the operation.
fn defer_for_flwb(node: &mut Node, fx: &mut Fx, n: u16, op: Op, t: Cycle) {
    node.pending_op = Some(op);
    block_cpu(node, fx, n, CpuStatus::WaitFlwb, t);
}

/// Blocks the processor in `status` at time `t` and kicks SLC service (the
/// blocking operation's FLWB entry is already queued).
fn block_cpu(node: &mut Node, fx: &mut Fx, n: u16, status: CpuStatus, t: Cycle) {
    node.status = status;
    node.issue_time.set(t);
    node.cpu_time.set(t);
    notify_slc(node, fx, n, t);
}

/// The machine as one event's handler sees it: the shared config, the
/// nodes, the workload, and the effect context. The event loop builds one
/// per popped event.
struct Core<'a, W: Workload> {
    cfg: &'a SystemConfig,
    nodes: &'a mut [Node],
    workload: &'a mut W,
    fx: Fx<'a>,
    dir_actions: &'a mut ActionBuf,
}

impl<W: Workload> Core<'_, W> {
    /// Executes one event at time `t`.
    fn dispatch(&mut self, ev: Ev, t: Cycle) {
        match ev {
            Ev::CpuStep(n) => self.cpu_step(n, t),
            Ev::SlcWork(n) => self.slc_work(n, t),
            Ev::Deliver(n, msg) => self.deliver(n, msg, t),
        }
    }

    // ----------------------------------------------------------------
    // Processor
    // ----------------------------------------------------------------

    /// Runs the processor of node `n` from its local time until it blocks,
    /// finishes, or exhausts its time slice.
    ///
    /// The node, workload and effect context are split-borrowed once up
    /// front: this loop consumes every trace operation, so it must not
    /// re-index `self.nodes` or round-trip `pending_op` through memory
    /// per op.
    fn cpu_step(&mut self, n: u16, now: Cycle) {
        let ni = n as usize;
        let Core {
            cfg,
            workload,
            nodes,
            fx,
            ..
        } = self;
        let node = &mut nodes[ni];
        if node.status != CpuStatus::Ready {
            return;
        }
        let mut t = node.cpu_time.get().max(now);
        let slice_end = t + cfg.cpu_slice;
        let geometry = cfg.geometry;
        let sequential = cfg.consistency == crate::ConsistencyModel::Sequential;
        let mut pending = node.pending_op.take();

        loop {
            if t >= slice_end {
                node.cpu_time.set(t);
                fx.schedule(t, Ev::CpuStep(n));
                return;
            }
            let op = match pending.take() {
                Some(op) => op,
                None => match workload.next(n as usize) {
                    Some(op) => op,
                    None => {
                        node.status = CpuStatus::Done;
                        node.cpu_time.set(t);
                        return;
                    }
                },
            };
            match op {
                Op::Compute { cycles } => {
                    t += u64::from(cycles);
                }
                Op::Read { addr, pc } => {
                    let block = geometry.block_of(addr);
                    if node.flc.read(block) {
                        node.stats.reads += 1;
                        node.stats.flc_read_hits += 1;
                        if let Some(k) = fx.check() {
                            k.read_flc_hit(n, addr);
                        }
                        t += 1;
                        continue;
                    }
                    if node.flwb.is_full() {
                        // Deferred, not retired: stats count on the retry.
                        defer_for_flwb(node, fx, n, op, t);
                        return;
                    }
                    node.stats.reads += 1;
                    #[expect(
                        clippy::expect_used,
                        reason = "FLWB checked not-full just above; push cannot fail"
                    )]
                    node.flwb
                        .push(FlwbEntry::Read {
                            addr,
                            pc,
                            issued: t,
                        })
                        .expect("checked above");
                    block_cpu(node, fx, n, CpuStatus::WaitRead, t);
                    return;
                }
                Op::Write { addr, pc: _ } => {
                    // Write-through, no-write-allocate FLC: the tag array
                    // is unchanged whether it hits or misses.
                    let _ = node.flc.write(geometry.block_of(addr));
                    if node.flwb.is_full() {
                        // Deferred, not retired: stats count on the retry.
                        defer_for_flwb(node, fx, n, op, t);
                        return;
                    }
                    node.stats.writes += 1;
                    #[expect(
                        clippy::expect_used,
                        reason = "FLWB checked not-full just above; push cannot fail"
                    )]
                    node.flwb
                        .push(FlwbEntry::Write { addr, issued: t })
                        .expect("checked above");
                    if let Some(k) = fx.check() {
                        k.write_issued(n, addr);
                    }
                    if sequential {
                        // Sequential consistency: the processor waits for
                        // every write to perform globally.
                        node.status = CpuStatus::WaitWrite;
                        node.issue_time.set(t);
                        node.cpu_time.set(t);
                        notify_slc(node, fx, n, t);
                        return;
                    }
                    t += 1;
                    notify_slc(node, fx, n, t);
                }
                Op::Acquire { lock } => {
                    if node.flwb.is_full() {
                        // Deferred, not retired: stats count on the retry.
                        defer_for_flwb(node, fx, n, op, t);
                        return;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "FLWB checked not-full just above; push cannot fail"
                    )]
                    node.flwb
                        .push(FlwbEntry::Acquire { lock, issued: t })
                        .expect("checked above");
                    block_cpu(node, fx, n, CpuStatus::WaitLock, t);
                    return;
                }
                Op::Release { lock } => {
                    if node.flwb.is_full() {
                        // Deferred, not retired: stats count on the retry.
                        defer_for_flwb(node, fx, n, op, t);
                        return;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "FLWB checked not-full just above; push cannot fail"
                    )]
                    node.flwb
                        .push(FlwbEntry::Release { lock, issued: t })
                        .expect("checked above");
                    block_cpu(node, fx, n, CpuStatus::WaitLock, t);
                    return;
                }
                Op::Barrier { id } => {
                    if node.flwb.is_full() {
                        // Deferred, not retired: stats count on the retry.
                        defer_for_flwb(node, fx, n, op, t);
                        return;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "FLWB checked not-full just above; push cannot fail"
                    )]
                    node.flwb
                        .push(FlwbEntry::Barrier { id, issued: t })
                        .expect("checked above");
                    block_cpu(node, fx, n, CpuStatus::WaitBarrier, t);
                    return;
                }
            }
        }
    }

    /// Completes a blocked demand read at time `done`: fills the FLC,
    /// accounts the read stall (everything beyond the 1-pclock pipelined
    /// FLC access), and resumes the processor after the FLC fill.
    fn serve_waiting_read(&mut self, n: u16, block: BlockAddr, done: Cycle) {
        let ni = n as usize;
        if let Some(k) = self.fx.check() {
            k.read_completed(n, block);
        }
        let flc_fill = self.cfg.flc_fill;
        self.nodes[ni].flc.fill(block);
        let issue = self.nodes[ni].issue_time.get();
        self.nodes[ni].stats.read_stall +=
            (done + flc_fill).saturating_since(issue).saturating_sub(1);
        self.resume_cpu(n, done + flc_fill);
    }

    /// Resumes a blocked processor at time `at`.
    fn resume_cpu(&mut self, n: u16, at: Cycle) {
        let node = &mut self.nodes[n as usize];
        debug_assert_ne!(node.status, CpuStatus::Ready);
        debug_assert_ne!(node.status, CpuStatus::Done);
        node.status = CpuStatus::Ready;
        node.cpu_time.set(node.cpu_time.get().max(at));
        let at = node.cpu_time.get();
        self.fx.schedule(at, Ev::CpuStep(n));
    }

    // ----------------------------------------------------------------
    // SLC service
    // ----------------------------------------------------------------

    /// The SLC of node `n` services one job (an incoming message has
    /// priority over the FLWB head).
    ///
    /// After each job the handler decides how to continue. If more work is
    /// queued it would normally schedule `SlcWork` at the server's free
    /// time; but when nothing else in the event queue is due at or before
    /// that time, the scheduled event would pop as the very next event
    /// with state identical to right now — so the handler serves the next
    /// job inline instead, skipping the queue round-trip (see
    /// [`Fx::can_fuse`]).
    fn slc_work(&mut self, n: u16, now: Cycle) {
        let ni = n as usize;
        let mut now = now;
        loop {
            self.nodes[ni].slc_scheduled_at = None;

            if let Some(msg) = self.nodes[ni].incoming.pop_front() {
                let done = self.nodes[ni].slc_server.serve(now, self.cfg.slc_service);
                self.handle_slc_msg(n, msg, done);
            } else {
                match self.slc_drain_one(n, now) {
                    Drained::One => {}
                    Drained::Idle => return,
                    // A future-issued head whose wakeup would pop as the
                    // very next event: skip ahead and retry in this event.
                    Drained::ParkedUntil(at) => {
                        now = at;
                        continue;
                    }
                }
            }

            match self.reschedule_or_fuse(n) {
                // Guaranteed-next: serve the following job in this event.
                Some(at) => now = at,
                None => return,
            }
        }
    }

    /// After an SLC job completes: schedules the next job if any work is
    /// queued, or — when that event would pop as the very next event —
    /// returns its time so the caller serves it inline instead (the
    /// fusion rule documented on [`Self::slc_work`]).
    fn reschedule_or_fuse(&mut self, n: u16) -> Option<Cycle> {
        let ni = n as usize;
        let node = &self.nodes[ni];
        if node.slc_scheduled_at.is_some() {
            // A handler already armed service (e.g. an unblocked drain).
            return None;
        }
        // A blocked drain only gates FLWB consumption; incoming coherence
        // messages must keep flowing (they are what unblocks the drain).
        let has_work = !node.incoming.is_empty()
            || (node.drain_block == DrainBlock::None && !node.flwb.is_empty());
        if !has_work {
            return None;
        }
        let at = node.slc_server.free_at();
        if self.fx.can_fuse(at) {
            return Some(at);
        }
        self.nodes[ni].slc_scheduled_at = Some(at);
        self.fx.schedule(at, Ev::SlcWork(n));
        None
    }

    /// Drains one FLWB entry at `now` if one is ready. Returns
    /// [`Drained::Idle`] when service is finished for this event (empty
    /// buffer, a parked future-issued head, or a blocked drain), or
    /// [`Drained::ParkedUntil`] when the head is future-issued but its
    /// wakeup would be guaranteed-next (the caller fast-forwards).
    fn slc_drain_one(&mut self, n: u16, now: Cycle) -> Drained {
        let ni = n as usize;
        // Inspect the head without consuming it: entries that need
        // resources may have to wait.
        let Some(head) = self.nodes[ni].flwb.peek().copied() else {
            // A stale wakeup: an earlier event already drained the queue.
            self.nodes[ni].stats.spurious_slc_wakeups += 1;
            return Drained::Idle;
        };
        if head.issued() > now {
            // The processor runs ahead of the event loop; this entry does
            // not exist yet at SLC time.
            let at = head.issued();
            if self.fx.can_fuse(at) {
                return Drained::ParkedUntil(at);
            }
            let node = &mut self.nodes[ni];
            node.slc_scheduled_at = Some(at);
            self.fx.schedule(at, Ev::SlcWork(n));
            return Drained::Idle;
        }

        match head {
            FlwbEntry::Read { addr, pc, .. } => {
                let block = self.cfg.geometry.block_of(addr);
                let node = &mut self.nodes[ni];
                // Check the cheap full/empty gate first: the SLC and MSHR
                // probes only matter when the MSHR is actually full.
                if node.mshr.is_full()
                    && node.slc.lookup(block).is_none()
                    && !node.mshr.contains(block)
                {
                    node.drain_block = DrainBlock::MshrFull;
                    return Drained::Idle;
                }
                self.nodes[ni].flwb.pop();
                let done = self.nodes[ni].slc_server.serve(now, self.cfg.slc_service);
                self.slc_read(n, addr, pc, done);
            }
            FlwbEntry::Write { addr, .. } => {
                let block = self.cfg.geometry.block_of(addr);
                let node = &mut self.nodes[ni];
                // As above: probe the SLC and MSHR only when the MSHR is
                // full, which is the only case that can block the drain.
                if node.mshr.is_full() {
                    let needs_slot = match node.slc.lookup(block) {
                        Some(line) => line.state == LineState::Shared && !node.mshr.contains(block),
                        None => !node.mshr.contains(block),
                    };
                    if needs_slot {
                        node.drain_block = DrainBlock::MshrFull;
                        return Drained::Idle;
                    }
                }
                self.nodes[ni].flwb.pop();
                let done = self.nodes[ni].slc_server.serve(now, self.cfg.slc_service);
                self.slc_write(n, addr, done);
            }
            FlwbEntry::Acquire { lock, .. } => {
                self.nodes[ni].flwb.pop();
                let done = self.nodes[ni].slc_server.serve(now, self.cfg.slc_service);
                let home = home_of_addr(self.cfg, lock);
                self.fx.send(
                    self.cfg.geometry,
                    done,
                    n,
                    home,
                    Msg::LockReq {
                        lock,
                        from: NodeId::new(n),
                    },
                );
            }
            FlwbEntry::Release { lock, .. } => {
                if self.nodes[ni].pending_write_txns > 0 {
                    self.nodes[ni].drain_block = DrainBlock::ReleasePending;
                    return Drained::Idle;
                }
                self.nodes[ni].flwb.pop();
                if let Some(k) = self.fx.check() {
                    k.release_drained(n, lock);
                }
                let done = self.nodes[ni].slc_server.serve(now, self.cfg.slc_service);
                let home = home_of_addr(self.cfg, lock);
                self.fx.send(
                    self.cfg.geometry,
                    done,
                    n,
                    home,
                    Msg::UnlockReq {
                        lock,
                        from: NodeId::new(n),
                    },
                );
                // The release itself completes once issued (the lock
                // hand-off happens at the home).
                let issue = self.nodes[ni].issue_time.get();
                self.nodes[ni].stats.sync_stall += done.saturating_since(issue);
                self.resume_cpu(n, done);
            }
            FlwbEntry::Barrier { id, .. } => {
                if self.nodes[ni].pending_write_txns > 0 {
                    self.nodes[ni].drain_block = DrainBlock::ReleasePending;
                    return Drained::Idle;
                }
                self.nodes[ni].flwb.pop();
                if let Some(k) = self.fx.check() {
                    k.barrier_drained(n, id);
                }
                let done = self.nodes[ni].slc_server.serve(now, self.cfg.slc_service);
                let home = id % u32::from(self.cfg.nodes);
                self.fx.send(
                    self.cfg.geometry,
                    done,
                    n,
                    home as u16,
                    Msg::BarrierArrive {
                        id,
                        from: NodeId::new(n),
                    },
                );
            }
        }

        // A processor stalled on a full FLWB can retry now that an entry
        // drained.
        if self.nodes[ni].status == CpuStatus::WaitFlwb && !self.nodes[ni].flwb.is_full() {
            let waited = self.nodes[ni]
                .slc_server
                .free_at()
                .saturating_since(self.nodes[ni].issue_time.get());
            self.nodes[ni].stats.flwb_stall += waited;
            let at = self.nodes[ni].slc_server.free_at();
            self.resume_cpu(n, at);
        }

        Drained::One
    }

    /// Clears a drain block of the given kind and restarts SLC service.
    fn unblock_drain(&mut self, n: u16, kind: DrainBlock, at: Cycle) {
        let ni = n as usize;
        if self.nodes[ni].drain_block == kind {
            self.nodes[ni].drain_block = DrainBlock::None;
            notify_slc(&mut self.nodes[ni], &mut self.fx, n, at);
        }
    }

    /// A demand read request presented to the SLC (the processor is
    /// blocked on it).
    fn slc_read(&mut self, n: u16, addr: Addr, pc: pfsim_mem::Pc, done: Cycle) {
        let ni = n as usize;
        let block = self.cfg.geometry.block_of(addr);
        if let Some(k) = self.fx.check() {
            k.read_request(n, addr);
        }

        let outcome = {
            let node = &mut self.nodes[ni];
            match node.slc.demand_access(block) {
                Some(was_tagged) => {
                    node.stats.slc_read_hits += 1;
                    if was_tagged {
                        node.stats.tagged_hits += 1;
                        node.stats.prefetches_useful += 1;
                        ReadOutcome::HitPrefetched
                    } else {
                        ReadOutcome::Hit
                    }
                }
                None => {
                    if let Some(entry) = node.mshr.get_mut(block) {
                        entry.waiting_cpu = true;
                        node.stats.delayed_hits += 1;
                        if entry.kind == TxnKind::Prefetch && !entry.prefetch_consumed {
                            entry.prefetch_consumed = true;
                            node.stats.prefetches_useful += 1;
                            ReadOutcome::InFlightPrefetch
                        } else {
                            ReadOutcome::InFlightDemand
                        }
                    } else {
                        node.stats.read_misses += 1;
                        let cause = node.classify_miss(block);
                        if node.record {
                            node.miss_trace.push(MissRecord {
                                pc,
                                addr,
                                block,
                                cause,
                            });
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "MSHR capacity reserved before the op was popped from the lane"
                        )]
                        node.mshr
                            .alloc(block, {
                                let mut e = MshrEntry::new(TxnKind::ReadShared);
                                e.waiting_cpu = true;
                                e
                            })
                            .expect("capacity checked before pop");
                        ReadOutcome::Miss
                    }
                }
            }
        };

        if outcome == ReadOutcome::Hit || outcome == ReadOutcome::HitPrefetched {
            self.serve_waiting_read(n, block, done);
        } else if outcome == ReadOutcome::Miss {
            let home = home_of(self.cfg, block);
            self.fx.send(
                self.cfg.geometry,
                done,
                n,
                home,
                Msg::CohReq {
                    block,
                    req: DirRequest::read_shared(NodeId::new(n)),
                },
            );
        }

        self.run_prefetcher(n, addr, pc, outcome, done);
    }

    /// A buffered write drained from the FLWB into the SLC.
    fn slc_write(&mut self, n: u16, addr: Addr, done: Cycle) {
        let ni = n as usize;
        let block = self.cfg.geometry.block_of(addr);
        let node = &mut self.nodes[ni];

        let req = match node.slc.write_access(block) {
            Some((LineState::Modified, was_tagged)) => {
                // Write hit on an owned block: absorbed. A write consuming
                // a prefetched-tagged block counts the prefetch useful (it
                // turned a write miss into a hit); `write_access` already
                // cleared the tag so it cannot fire again later.
                if was_tagged {
                    node.stats.prefetches_useful += 1;
                }
                if let Some(k) = self.fx.check() {
                    k.write_applied(n, addr);
                }
                self.resume_write(n, done);
                return;
            }
            Some((LineState::Shared, was_tagged)) => {
                // Shared: need ownership. A prefetched tag is consumed by
                // the write exactly as in the Modified case.
                if was_tagged {
                    node.stats.prefetches_useful += 1;
                }
                if node.mshr.contains(block) {
                    // Upgrade already in flight: the write merges into it.
                    if let Some(k) = self.fx.check() {
                        k.write_deferred(n, addr);
                    }
                    return;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "MSHR capacity reserved before the op was popped from the lane"
                )]
                node.mshr
                    .alloc(block, {
                        let mut e = MshrEntry::new(TxnKind::Upgrade);
                        e.write_pending = true;
                        e
                    })
                    .expect("capacity checked before pop");
                node.pending_write_txns += 1;
                DirRequest::Upgrade {
                    from: NodeId::new(n),
                }
            }
            None => {
                if let Some(entry) = node.mshr.get_mut(block) {
                    if !entry.write_pending {
                        entry.write_pending = true;
                        node.pending_write_txns += 1;
                    }
                    if let Some(k) = self.fx.check() {
                        k.write_deferred(n, addr);
                    }
                    return;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "MSHR capacity reserved before the op was popped from the lane"
                )]
                node.mshr
                    .alloc(block, {
                        let mut e = MshrEntry::new(TxnKind::ReadExclusive);
                        e.write_pending = true;
                        e
                    })
                    .expect("capacity checked before pop");
                node.pending_write_txns += 1;
                DirRequest::ReadExclusive {
                    from: NodeId::new(n),
                }
            }
        };
        if let Some(k) = self.fx.check() {
            k.write_deferred(n, addr);
        }
        let home = home_of(self.cfg, block);
        self.fx
            .send(self.cfg.geometry, done, n, home, Msg::CohReq { block, req });
    }

    /// Feeds the prefetcher and issues the surviving candidates.
    fn run_prefetcher(
        &mut self,
        n: u16,
        addr: Addr,
        pc: pfsim_mem::Pc,
        outcome: ReadOutcome,
        done: Cycle,
    ) {
        let ni = n as usize;
        let mut candidates = std::mem::take(&mut self.nodes[ni].pf_scratch);
        candidates.clear();
        self.nodes[ni]
            .prefetcher
            .on_read(&ReadAccess { pc, addr, outcome }, &mut candidates);

        let mut issued = 0u32;
        for &block in &candidates {
            let node = &mut self.nodes[ni];
            if node.slc.contains(block) {
                node.stats.pf_dropped_present += 1;
                continue;
            }
            // One fused CAM walk decides in-flight, full, or allocated.
            match node
                .mshr
                .try_alloc(block, MshrEntry::new(TxnKind::Prefetch))
            {
                MshrTryAlloc::InFlight => {
                    node.stats.pf_dropped_inflight += 1;
                    continue;
                }
                MshrTryAlloc::Full => {
                    node.stats.pf_dropped_full += 1;
                    continue;
                }
                MshrTryAlloc::Allocated => {}
            }
            node.stats.prefetches_issued += 1;
            issued += 1;
            let home = home_of(self.cfg, block);
            self.fx.send(
                self.cfg.geometry,
                done,
                n,
                home,
                Msg::CohReq {
                    block,
                    req: DirRequest::prefetch(NodeId::new(n)),
                },
            );
        }
        if !candidates.is_empty() {
            self.nodes[ni].prefetcher.on_prefetches_issued(issued);
        }
        self.nodes[ni].pf_scratch = candidates;
    }

    // ----------------------------------------------------------------
    // SLC-side message handling
    // ----------------------------------------------------------------

    fn handle_slc_msg(&mut self, n: u16, msg: Msg, done: Cycle) {
        let ni = n as usize;
        match msg {
            Msg::Fetch { block, inval, home } => {
                let node = &mut self.nodes[ni];
                // One tag-store probe: the removal/downgrade result doubles
                // as the presence check.
                let had_copy = if inval {
                    if node.slc.invalidate(block).is_some() {
                        node.flc.invalidate(block);
                        node.removal
                            .insert(block.as_u64(), crate::stats::MissCause::Coherence);
                        true
                    } else {
                        false
                    }
                } else {
                    node.slc.downgrade(block)
                };
                if let Some(k) = self.fx.check() {
                    k.fetch_supplied(n, block, inval, had_copy);
                }
                self.fx.send(
                    self.cfg.geometry,
                    done,
                    n,
                    home.as_u16(),
                    Msg::FetchReply { block, had_copy },
                );
            }
            Msg::Inval { block, home } => {
                let node = &mut self.nodes[ni];
                node.stats.invals_received += 1;
                if node.slc.invalidate(block).is_some() {
                    node.flc.invalidate(block);
                    node.removal
                        .insert(block.as_u64(), crate::stats::MissCause::Coherence);
                }
                if let Some(k) = self.fx.check() {
                    k.invalidated(n, block);
                }
                self.fx.send(
                    self.cfg.geometry,
                    done,
                    n,
                    home.as_u16(),
                    Msg::InvalAck { block },
                );
            }
            Msg::DataReply {
                block,
                exclusive,
                prefetch,
            } => {
                // Protocol cross-check: the home's view of the request
                // kind must match the requester's outstanding entry.
                debug_assert_eq!(
                    prefetch,
                    self.nodes[ni]
                        .mshr
                        .get(block)
                        .is_some_and(|e| e.kind == TxnKind::Prefetch),
                    "home and requester disagree about a prefetch"
                );
                self.slc_fill(n, block, exclusive, done);
            }
            Msg::AckReply { block } => {
                let node = &mut self.nodes[ni];
                #[expect(
                    clippy::expect_used,
                    reason = "protocol trap: an ack always matches an open upgrade transaction"
                )]
                let entry = node
                    .mshr
                    .remove(block)
                    .expect("upgrade ack without transaction");
                debug_assert_eq!(entry.kind, TxnKind::Upgrade);
                if node.slc.promote(block) {
                    if let Some(k) = self.fx.check() {
                        k.promote(n, block);
                    }
                    if entry.waiting_cpu {
                        // A read merged into the upgrade: the block is
                        // resident, serve it now.
                        self.serve_waiting_read(n, block, done);
                    }
                } else {
                    // The shared line was displaced by a conflicting fill
                    // while the upgrade was in flight (finite SLC). We now
                    // own a block we no longer hold: return it to memory
                    // immediately so the directory stays consistent. The
                    // displaced copy was clean, so memory is already
                    // current and this writeback carries no new data — it
                    // is an ownership relinquish that this protocol
                    // expresses as a (rare) data-sized writeback.
                    if let Some(k) = self.fx.check() {
                        k.promote_failed(n, block);
                    }
                    let node = &mut self.nodes[ni];
                    node.stats.writebacks += 1;
                    let home = home_of(self.cfg, block);
                    self.fx.send(
                        self.cfg.geometry,
                        done,
                        n,
                        home,
                        Msg::CohReq {
                            block,
                            req: DirRequest::Writeback {
                                from: NodeId::new(n),
                            },
                        },
                    );
                    // The store (and any merged read) still has to
                    // complete: re-issue as a read-exclusive. The
                    // writeback is sent first over the same route, so it
                    // is delivered first — per-link FIFO for remote homes,
                    // and the event queue's scheduled-order tie-break for
                    // the local-home case. The pending-write accounting
                    // carries over to the new transaction.
                    let node = &mut self.nodes[ni];
                    #[expect(
                        clippy::expect_used,
                        reason = "re-allocating the MSHR slot freed by the remove above"
                    )]
                    node.mshr
                        .alloc(block, {
                            let mut e = MshrEntry::new(TxnKind::ReadExclusive);
                            e.waiting_cpu = entry.waiting_cpu;
                            e.write_pending = entry.write_pending;
                            e
                        })
                        .expect("slot just freed");
                    self.fx.send(
                        self.cfg.geometry,
                        done,
                        n,
                        home,
                        Msg::CohReq {
                            block,
                            req: DirRequest::ReadExclusive {
                                from: NodeId::new(n),
                            },
                        },
                    );
                    self.unblock_drain(n, DrainBlock::MshrFull, done);
                    return;
                }
                if entry.write_pending {
                    self.complete_write(n, done);
                }
                self.unblock_drain(n, DrainBlock::MshrFull, done);
            }
            other => unreachable!("SLC received non-SLC message {other:?}"),
        }
    }

    /// A data reply fills the SLC, completes the waiting transaction, and
    /// resumes a blocked processor or follows up with an ownership upgrade
    /// as needed.
    fn slc_fill(&mut self, n: u16, block: BlockAddr, exclusive: bool, done: Cycle) {
        let ni = n as usize;

        #[expect(
            clippy::expect_used,
            reason = "protocol trap: a data reply always matches an open transaction"
        )]
        let entry = self.nodes[ni]
            .mshr
            .remove(block)
            .expect("data reply without transaction");

        // Insert the block; a finite SLC may evict a victim.
        let state = if exclusive {
            LineState::Modified
        } else {
            LineState::Shared
        };
        let tagged =
            entry.kind == TxnKind::Prefetch && !entry.prefetch_consumed && !entry.waiting_cpu;
        let eviction = self.nodes[ni].slc.fill(block, state, tagged);
        match eviction {
            Eviction::None => {}
            Eviction::Clean(victim) => {
                let node = &mut self.nodes[ni];
                node.flc.invalidate(victim);
                node.removal
                    .insert(victim.as_u64(), crate::stats::MissCause::Replacement);
                if let Some(k) = self.fx.check() {
                    k.evict(n, victim, false);
                }
                // Clean copies are dropped silently; the directory's
                // presence bit goes stale and a future invalidation will
                // simply be acknowledged without effect.
            }
            Eviction::Dirty(victim) => {
                let node = &mut self.nodes[ni];
                node.flc.invalidate(victim);
                node.removal
                    .insert(victim.as_u64(), crate::stats::MissCause::Replacement);
                node.stats.writebacks += 1;
                if let Some(k) = self.fx.check() {
                    k.evict(n, victim, true);
                }
                let home = home_of(self.cfg, victim);
                self.fx.send(
                    self.cfg.geometry,
                    done,
                    n,
                    home,
                    Msg::CohReq {
                        block: victim,
                        req: DirRequest::Writeback {
                            from: NodeId::new(n),
                        },
                    },
                );
            }
        }

        if let Some(k) = self.fx.check() {
            k.fill(n, block, exclusive);
        }

        if entry.waiting_cpu {
            self.serve_waiting_read(n, block, done);
        }

        if entry.write_pending {
            if exclusive {
                self.complete_write(n, done);
            } else {
                // Ownership still needed: chain an upgrade. The slot just
                // freed guarantees space.
                let node = &mut self.nodes[ni];
                #[expect(
                    clippy::expect_used,
                    reason = "re-allocating the MSHR slot freed by the remove above"
                )]
                node.mshr
                    .alloc(block, {
                        let mut e = MshrEntry::new(TxnKind::Upgrade);
                        e.write_pending = true;
                        e
                    })
                    .expect("slot just freed");
                let home = home_of(self.cfg, block);
                self.fx.send(
                    self.cfg.geometry,
                    done,
                    n,
                    home,
                    Msg::CohReq {
                        block,
                        req: DirRequest::Upgrade {
                            from: NodeId::new(n),
                        },
                    },
                );
            }
        }

        self.unblock_drain(n, DrainBlock::MshrFull, done);
    }

    /// A write transaction completed: release-consistency bookkeeping
    /// (and, under sequential consistency, the waiting processor resumes).
    fn complete_write(&mut self, n: u16, at: Cycle) {
        let ni = n as usize;
        debug_assert!(self.nodes[ni].pending_write_txns > 0);
        self.nodes[ni].pending_write_txns -= 1;
        if self.nodes[ni].pending_write_txns == 0 {
            self.unblock_drain(n, DrainBlock::ReleasePending, at);
        }
        self.resume_write(n, at);
    }

    /// Resumes a processor blocked on a write (sequential consistency).
    fn resume_write(&mut self, n: u16, at: Cycle) {
        let ni = n as usize;
        if self.cfg.consistency == crate::ConsistencyModel::Sequential
            && self.nodes[ni].status == CpuStatus::WaitWrite
        {
            let issue = self.nodes[ni].issue_time.get();
            self.nodes[ni].stats.write_stall += at.saturating_since(issue).saturating_sub(1);
            self.resume_cpu(n, at);
        }
    }

    // ----------------------------------------------------------------
    // Home-side (directory, memory, locks, barriers)
    // ----------------------------------------------------------------

    /// Serves one request at the home node's controller: occupancy-limited
    /// throughput plus pipeline latency.
    fn home_service(&mut self, ni: usize, now: Cycle) -> Cycle {
        self.nodes[ni].dir_server.serve(now, self.cfg.dir_occupancy) + self.cfg.dir_extra_latency
    }

    fn deliver(&mut self, n: u16, msg: Msg, now: Cycle) {
        let ni = n as usize;
        match msg {
            Msg::CohReq { block, req } => {
                let t0 = self.home_service(ni, now);
                if let Some(k) = self.fx.check() {
                    match req {
                        DirRequest::Writeback { from } => {
                            k.home_begin_writeback(n, block, from.as_u16());
                        }
                        _ => k.home_begin(n, block),
                    }
                }
                let mut actions = std::mem::take(self.dir_actions);
                actions.clear();
                self.nodes[ni].dir.request(block, req, &mut actions);
                self.exec_dir_actions(n, block, &actions, t0);
                *self.dir_actions = actions;
            }
            Msg::FetchReply { block, had_copy } => {
                let t0 = self.home_service(ni, now);
                if let Some(k) = self.fx.check() {
                    k.home_begin_fetch(n, block, had_copy);
                }
                let mut actions = std::mem::take(self.dir_actions);
                actions.clear();
                self.nodes[ni].dir.fetch_done(block, had_copy, &mut actions);
                self.exec_dir_actions(n, block, &actions, t0);
                *self.dir_actions = actions;
            }
            Msg::InvalAck { block } => {
                let t0 = self.home_service(ni, now);
                if let Some(k) = self.fx.check() {
                    k.home_begin(n, block);
                }
                let mut actions = std::mem::take(self.dir_actions);
                actions.clear();
                self.nodes[ni].dir.inval_ack(block, &mut actions);
                self.exec_dir_actions(n, block, &actions, t0);
                *self.dir_actions = actions;
            }
            Msg::Fetch { .. }
            | Msg::Inval { .. }
            | Msg::DataReply { .. }
            | Msg::AckReply { .. } => {
                // Fast path: the SLC is idle and nothing else is due at
                // `now` (strictly later or empty queue), so queueing the
                // message and scheduling `SlcWork(now)` would fire that
                // event as the very next pop with identical state. Serve
                // the message inline instead and skip the round-trip. The
                // peek must be strict: a same-time event with an earlier
                // sequence number would pop first.
                let idle =
                    self.nodes[ni].incoming.is_empty() && self.nodes[ni].slc_server.is_idle_at(now);
                if idle && self.fx.can_fuse(now) {
                    self.nodes[ni].slc_scheduled_at = None;
                    let done = self.nodes[ni].slc_server.serve(now, self.cfg.slc_service);
                    self.handle_slc_msg(n, msg, done);
                    if let Some(at) = self.reschedule_or_fuse(n) {
                        self.slc_work(n, at);
                    }
                } else {
                    self.nodes[ni].incoming.push_back(msg);
                    notify_slc(&mut self.nodes[ni], &mut self.fx, n, now);
                }
            }
            Msg::LockReq { lock, from } => {
                let t0 = self.home_service(ni, now);
                if self.nodes[ni].locks.acquire(lock, from) {
                    self.fx.send(
                        self.cfg.geometry,
                        t0,
                        n,
                        from.as_u16(),
                        Msg::LockGrant { lock },
                    );
                }
            }
            Msg::UnlockReq { lock, from } => {
                let t0 = self.home_service(ni, now);
                if let Some(next) = self.nodes[ni].locks.release(lock, from) {
                    self.fx.send(
                        self.cfg.geometry,
                        t0,
                        n,
                        next.as_u16(),
                        Msg::LockGrant { lock },
                    );
                }
            }
            Msg::LockGrant { lock } => {
                debug_assert_eq!(self.nodes[ni].status, CpuStatus::WaitLock);
                if let Some(k) = self.fx.check() {
                    k.lock_granted(n, lock);
                }
                let issue = self.nodes[ni].issue_time.get();
                self.nodes[ni].stats.sync_stall += now.saturating_since(issue);
                self.resume_cpu(n, now + 1);
            }
            Msg::BarrierArrive { id, from } => {
                let expected = self.cfg.nodes as usize;
                if let Some(participants) = self.nodes[ni].barriers.arrive(id, from, expected) {
                    let t0 = self.home_service(ni, now);
                    for p in participants {
                        self.fx.send(
                            self.cfg.geometry,
                            t0,
                            n,
                            p.as_u16(),
                            Msg::BarrierRelease { id },
                        );
                    }
                }
            }
            Msg::BarrierRelease { id } => {
                debug_assert_eq!(self.nodes[ni].status, CpuStatus::WaitBarrier);
                if let Some(k) = self.fx.check() {
                    k.barrier_released(n, id);
                }
                let issue = self.nodes[ni].issue_time.get();
                self.nodes[ni].stats.barrier_stall += now.saturating_since(issue);
                self.resume_cpu(n, now + 1);
            }
        }
    }

    /// Executes the directory's actions at home node `h`, threading the
    /// memory latency into data replies.
    fn exec_dir_actions(&mut self, h: u16, block: BlockAddr, actions: &ActionBuf, t0: Cycle) {
        let hi = h as usize;
        let mut data_ready = t0;
        for action in actions.iter() {
            match action {
                DirAction::ReadMemory => {
                    if let Some(k) = self.fx.check() {
                        k.home_read_memory(block);
                    }
                    let (start, end) = self.nodes[hi]
                        .mem
                        .serve_timed(data_ready, self.cfg.mem_occupancy);
                    let _ = start;
                    data_ready = end + self.cfg.mem_extra_latency;
                }
                DirAction::WriteMemory => {
                    if let Some(k) = self.fx.check() {
                        k.home_write_memory(block);
                    }
                    self.nodes[hi].mem.serve(t0, self.cfg.mem_occupancy);
                }
                &DirAction::SendData {
                    to,
                    exclusive,
                    prefetch,
                } => {
                    if let Some(k) = self.fx.check() {
                        k.home_send_data(block, to.as_u16());
                    }
                    self.fx.send(
                        self.cfg.geometry,
                        data_ready,
                        h,
                        to.as_u16(),
                        Msg::DataReply {
                            block,
                            exclusive,
                            prefetch,
                        },
                    );
                }
                DirAction::SendAck { to } => {
                    self.fx.send(
                        self.cfg.geometry,
                        t0,
                        h,
                        to.as_u16(),
                        Msg::AckReply { block },
                    );
                }
                DirAction::Fetch { owner } => {
                    self.fx.send(
                        self.cfg.geometry,
                        t0,
                        h,
                        owner.as_u16(),
                        Msg::Fetch {
                            block,
                            inval: false,
                            home: NodeId::new(h),
                        },
                    );
                }
                DirAction::FetchInval { owner } => {
                    self.fx.send(
                        self.cfg.geometry,
                        t0,
                        h,
                        owner.as_u16(),
                        Msg::Fetch {
                            block,
                            inval: true,
                            home: NodeId::new(h),
                        },
                    );
                }
                DirAction::Invalidate { targets } => {
                    for target in targets.iter() {
                        self.fx.send(
                            self.cfg.geometry,
                            t0,
                            h,
                            target.as_u16(),
                            Msg::Inval {
                                block,
                                home: NodeId::new(h),
                            },
                        );
                    }
                }
            }
        }
    }
}

/// The simulated multiprocessor.
///
/// Couples a [`SystemConfig`] with a [`Workload`] and runs the parallel
/// section to completion, producing a [`SimResult`].
///
/// # Examples
///
/// ```
/// use pfsim::{System, SystemConfig};
/// use pfsim_workloads::micro;
///
/// let wl = micro::sequential_walk(16, 64, 1);
/// let result = System::new(SystemConfig::paper_baseline(), wl).run();
/// assert!(result.read_misses() > 0);
/// ```
pub struct System<W: Workload> {
    pub(crate) cfg: SystemConfig,
    pub(crate) workload: W,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) mesh: Mesh,
    pub(crate) nodes: Vec<Node>,
    pub(crate) last_time: Clock,
    /// Reusable scratch buffer for directory actions: `deliver` borrows it
    /// per message so the protocol hot path never allocates.
    pub(crate) dir_actions: ActionBuf,
    /// Observability registry (inert unless `cfg.instrument`).
    pub(crate) obs: Obs,
    /// Optional correctness observer (see [`crate::check`]); `None` in
    /// normal runs, so every hook site costs one predictable branch.
    pub(crate) check: Option<Box<dyn CheckSink>>,
    /// Whether the initial `CpuStep` events have been seeded. Guards the
    /// seeding so [`run`](Self::run) after [`run_until`](Self::run_until)
    /// (or after a checkpoint restore) resumes instead of restarting.
    pub(crate) started: bool,
}

impl<W: Workload> System<W> {
    /// Creates a system running `workload` on the machine described by
    /// `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the workload's processor count differs from the
    /// configured node count.
    pub fn new(cfg: SystemConfig, workload: W) -> Self {
        assert_eq!(
            workload.num_cpus(),
            cfg.nodes as usize,
            "workload built for {} cpus but the system has {} nodes",
            workload.num_cpus(),
            cfg.nodes
        );
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let record = match cfg.record_misses {
                    RecordMisses::None => false,
                    RecordMisses::Cpu(c) => c == i as usize,
                    RecordMisses::All => true,
                };
                Node::new(&cfg, record)
            })
            .collect();
        System {
            mesh: Mesh::new(cfg.mesh),
            obs: Obs::new(cfg.instrument),
            cfg,
            workload,
            queue: EventQueue::new(),
            nodes,
            last_time: Clock::ZERO,
            dir_actions: ActionBuf::new(),
            check: None,
            started: false,
        }
    }

    /// Installs a correctness observer; its hooks fire at every
    /// data-movement event of the run. Install before [`run`](Self::run).
    pub fn set_check_sink(&mut self, sink: Box<dyn CheckSink>) {
        self.check = Some(sink);
    }

    /// Removes and returns the installed observer (downcast it via
    /// [`CheckSink::into_any`] to read results).
    pub fn take_check_sink(&mut self) -> Option<Box<dyn CheckSink>> {
        self.check.take()
    }

    /// Runs the workload to completion and returns the statistics.
    ///
    /// Running twice is a no-op the second time (the workload is
    /// exhausted); create a new `System` per run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (the event queue drains while a
    /// processor is still blocked), which indicates a protocol bug.
    pub fn run(&mut self) -> SimResult {
        self.seed();
        let instrumented = self.obs.reg.enabled();
        while let Some((t, ev)) = self.queue.pop() {
            self.dispatch_one(t, ev, instrumented);
        }
        self.finish_run(instrumented)
    }

    /// Runs the event loop only through pclock `boundary`: every event
    /// with `time <= boundary` is dispatched, then the system pauses with
    /// all later events still queued. A subsequent [`run`](Self::run)
    /// resumes from exactly this point and produces results bit-identical
    /// to an uninterrupted run — the pause falls between event pops,
    /// which the simulation cannot observe. This is the warmup boundary
    /// for checkpointing (see [`crate::checkpoint`]).
    pub fn run_until(&mut self, boundary: Cycle) {
        self.seed();
        let instrumented = self.obs.reg.enabled();
        while self.queue.peek_time().is_some_and(|t| t <= boundary) {
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            self.dispatch_one(t, ev, instrumented);
        }
    }

    /// Schedules the initial `CpuStep` for every node, exactly once per
    /// system (restored systems inherit `started` from their snapshot and
    /// skip this).
    fn seed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for n in 0..self.cfg.nodes {
            self.queue.schedule(Cycle::ZERO, Ev::CpuStep(n));
        }
    }

    /// Dispatches one popped event: the body of the [`run`](Self::run)
    /// hot loop, shared with [`run_until`](Self::run_until).
    #[inline(always)]
    fn dispatch_one(&mut self, t: Cycle, ev: Ev, instrumented: bool) {
        self.last_time.set(self.last_time.get().max(t));
        if instrumented {
            self.observe_event(&ev);
        }
        let mut core = Core {
            cfg: &self.cfg,
            nodes: &mut self.nodes,
            workload: &mut self.workload,
            fx: Fx {
                queue: &mut self.queue,
                mesh: &mut self.mesh,
                check: &mut self.check,
            },
            dir_actions: &mut self.dir_actions,
        };
        core.dispatch(ev, t);
    }

    /// Swaps the prefetching scheme on a paused system: the config is
    /// updated and every node gets a freshly built (state-empty)
    /// prefetcher. This is how a warmed checkpoint taken under
    /// [`Scheme::None`] becomes one cell of a scheme ablation — the
    /// machine state (caches, directory, in-flight traffic) carries over,
    /// the scheme starts detecting from the boundary onward.
    pub fn reconfigure_scheme(&mut self, scheme: Scheme) {
        self.cfg.scheme = scheme;
        for node in &mut self.nodes {
            node.prefetcher = scheme.build(self.cfg.geometry);
        }
    }

    /// Hot-path instrumentation: called once per popped event when the
    /// registry is enabled. Counts the event by kind and samples queue
    /// and per-node MSHR occupancy (an every-event sample, so busy nodes
    /// weight the distribution by their event traffic).
    fn observe_event(&mut self, ev: &Ev) {
        let (wheel, overdue, overflow) = self.queue.depth_profile();
        let obs = &mut self.obs;
        obs.reg
            .observe(obs.queue_depth, (wheel + overdue + overflow) as u64);
        obs.reg.observe(obs.queue_overflow, overflow as u64);
        let counter = match ev {
            Ev::CpuStep(_) => obs.ev_cpu_step,
            Ev::SlcWork(_) => obs.ev_slc_work,
            Ev::Deliver(..) => obs.ev_deliver,
        };
        obs.reg.inc(counter, 1);
        let mshr = self.nodes[ev.node() as usize].mshr.len() as u64;
        obs.reg.observe(obs.mshr_occupancy, mshr);
    }

    /// Everything after the event loop drains: deadlock detection, the
    /// final oracle hook, clock folding and statistics assembly.
    fn finish_run(&mut self, instrumented: bool) -> SimResult {
        let stuck: Vec<String> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.status != CpuStatus::Done)
            .map(|(i, node)| {
                format!(
                    "node {i}: {:?} drain={:?} pending_writes={} flwb={} mshr={} incoming={}",
                    node.status,
                    node.drain_block,
                    node.pending_write_txns,
                    node.flwb.len(),
                    node.mshr.len(),
                    node.incoming.len(),
                )
            })
            .collect();
        #[expect(
            clippy::panic,
            reason = "deadlock trap: failing loudly with full diagnostics is the designed response"
        )]
        if !stuck.is_empty() {
            let mut detail = stuck.join("\n");
            for (i, node) in self.nodes.iter().enumerate() {
                for (block, entry) in node.mshr.iter() {
                    let home = self.home_of(block);
                    let dir = &self.nodes[home as usize].dir;
                    detail.push_str(&format!(
                        "\nnode {i} mshr {block}: {:?} -> home {home} state {:?} busy={:?} slc_at_owner={:?}",
                        entry.kind,
                        dir.state(block),
                        dir.busy_detail(block),
                        self.nodes.iter().enumerate().filter(|(_, nd)| nd.slc.contains(block)).map(|(j, _)| j).collect::<Vec<_>>(),
                    ));
                }
            }
            panic!("simulation deadlocked with processors still blocked:\n{detail}");
        }
        if let Some(k) = self.check.as_deref_mut() {
            k.run_finished();
        }

        // Fold in each processor's final run-ahead segment: a trace that
        // ends in compute-only work retires past the last scheduled event.
        for node in &self.nodes {
            self.last_time
                .set(self.last_time.get().max(node.cpu_time.get()));
        }

        let dir: DirStats = self.nodes.iter().fold(DirStats::default(), |mut acc, n| {
            let s = n.dir.stats();
            acc.memory_supplied += s.memory_supplied;
            acc.owner_supplied += s.owner_supplied;
            acc.invalidations += s.invalidations;
            acc.writebacks += s.writebacks;
            acc.stale_writebacks += s.stale_writebacks;
            acc
        });
        let metrics = if instrumented {
            self.finalize_obs();
            Some(self.obs.reg.snapshot())
        } else {
            None
        };
        SimResult {
            exec_cycles: self.last_time.get().as_u64(),
            net: self.mesh.stats(),
            dir,
            miss_traces: self
                .nodes
                .iter_mut()
                .map(|n| std::mem::take(&mut n.miss_trace))
                .collect(),
            nodes: self.nodes.iter().map(|n| n.stats).collect(),
            metrics,
        }
    }

    /// End-of-run gauge folding: server utilization, MSHR high water,
    /// network channel utilization, SLC footprint and prefetcher
    /// telemetry, summed (or maxed) across nodes.
    fn finalize_obs(&mut self) {
        let mut slc_busy = 0u64;
        let mut dir_busy = 0u64;
        let mut mem_busy = 0u64;
        let mut mshr_hw = 0u64;
        let mut valid_lines = 0u64;
        let mut telemetry: Vec<(&'static str, u64)> = Vec::new();
        let mut scratch = Vec::new();
        for node in &self.nodes {
            slc_busy += node.slc_server.busy_cycles();
            dir_busy += node.dir_server.busy_cycles();
            mem_busy += node.mem.busy_cycles();
            mshr_hw = mshr_hw.max(node.mshr.high_water() as u64);
            valid_lines += node.slc.valid_lines() as u64;
            scratch.clear();
            node.prefetcher.telemetry(&mut scratch);
            for &(name, v) in &scratch {
                match telemetry.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += v,
                    None => telemetry.push((name, v)),
                }
            }
        }
        let reg = &mut self.obs.reg;
        reg.record("slc_busy_cycles", slc_busy);
        reg.record("dir_busy_cycles", dir_busy);
        reg.record("mem_busy_cycles", mem_busy);
        reg.record_max("mshr_high_water", mshr_hw);
        reg.record("slc_valid_lines", valid_lines);
        let (links, link_busy, link_busy_max) = self.mesh.link_utilization();
        reg.record("net_links", links as u64);
        reg.record("net_link_busy_cycles", link_busy);
        reg.record_max("net_link_busy_max", link_busy_max);
        for (name, v) in telemetry {
            reg.record(name, v);
        }
    }

    /// Audits system-wide coherence invariants (used by tests): every
    /// directory entry must agree with the cache states it records.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn audit_coherence(&self) {
        for home in &self.nodes {
            for (block, state) in home.dir.iter() {
                if home.dir.is_busy(block) {
                    continue; // transient: caches may legitimately disagree
                }
                match state {
                    pfsim_coherence::DirState::Modified(owner) => {
                        let line = self.nodes[owner.index()].slc.lookup(block);
                        // The owner may have a writeback or re-fetch in
                        // flight; otherwise it must hold the block dirty.
                        if let Some(line) = line {
                            assert_eq!(
                                line.state,
                                LineState::Modified,
                                "{block} dir=Modified({owner}) but owner holds it clean"
                            );
                        }
                        for (i, other) in self.nodes.iter().enumerate() {
                            if i != owner.index() {
                                assert!(
                                    other.slc.lookup(block).is_none(),
                                    "{block} modified at {owner} but also cached at node {i}"
                                );
                            }
                        }
                    }
                    pfsim_coherence::DirState::Shared(sharers) => {
                        for (i, other) in self.nodes.iter().enumerate() {
                            if let Some(line) = other.slc.lookup(block) {
                                assert!(
                                    sharers.contains(NodeId::new(i as u16)),
                                    "{block} cached at node {i} without presence bit"
                                );
                                assert_eq!(line.state, LineState::Shared);
                            }
                        }
                    }
                    pfsim_coherence::DirState::Uncached => {
                        for (i, other) in self.nodes.iter().enumerate() {
                            assert!(
                                other.slc.lookup(block).is_none(),
                                "{block} uncached at home but cached at node {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    fn home_of(&self, block: BlockAddr) -> u16 {
        home_of(&self.cfg, block)
    }
}
