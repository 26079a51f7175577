//! The packed trace: the one trace type, shared zero-copy across runs.
//!
//! The paper's program-driven methodology replays the *same* reference
//! stream under every architecture configuration (§4). [`PackedTrace`]
//! holds that stream: each processor's ops as one variable-length byte
//! stream plus a small table of the load/store sites the stream uses.
//! Like I-detection's reference prediction table (§3.1), the encoding
//! predicts each read's or write's address from its site's last address
//! and last stride, and each lock and barrier operand from the lane's
//! last ones, so a predicted access or sync op costs 1 byte, any other
//! narrow access 4 and a short compute 1; and once a loop's sites have
//! learnt their strides, a 4-byte run record stands for every further
//! repeat of its body. The six applications' trace sets average 1.13
//! bytes per operation at the default size and 0.26 at the large one,
//! where LU, Cholesky and Ocean are nearly all runs (a decoded [`Op`] is
//! 16). The trace is immutable after construction; N concurrent runs each
//! hold a [`TraceCursor`], the one [`Workload`], over one
//! `Arc<PackedTrace>` and decode independently with zero copies. No other
//! module knows the format.
//!
//! A trace comes from one of two constructors that differ only in
//! computes: [`TraceBuilder`](crate::TraceBuilder), which every generator
//! uses, drops zero-cycle computes and merges adjacent ones, while
//! [`TraceCursor::from_ops`] encodes hand-written op lists exactly as
//! written.
//!
//! # Format
//!
//! Every op starts with a lead byte: a 3-bit kind in the low bits and a
//! 5-bit slot above it. Multi-byte fields are little-endian.
//!
//! | kind | bytes after the lead byte |
//! |------|---------------------------|
//! | `READ_NEXT`, `WRITE_NEXT` | none: the address is the slot's prediction |
//! | `READ`, `WRITE` | a 3-byte address below 2^24 |
//! | `WIDE` | the op's narrow kind (`READ` or `WRITE`), then an 8-byte address |
//! | `COMPUTE` | none: slots 0–30 are the cycle count; slot 31, a 4-byte count |
//! | `SYNC` | slots 0–2: an 8-byte lock address or barrier id; slots 3–5: none, the operand is the lane's prediction |
//! | `RUN` | a 3-byte repeat count R: the P ops just before it, P the slot, occur R more times |
//!
//! A read's or write's slot indexes its lane's PC table, which holds the
//! first 31 distinct PCs the lane uses (the applications use at most 16
//! sites). Slot 31 escapes: a raw 4-byte PC precedes the address (after
//! a wide op's narrow kind). A sync op's slot says whether it is an
//! acquire, a release or a barrier (slots 0, 1, 2) or the predicted form
//! of one (3, 4, 5); slots 6–31 are corrupt. Wide addresses keep the
//! format general over the 64-bit [`Addr`](pfsim_mem::Addr) space,
//! although every generator's allocations stay far below 2^24.
//!
//! # Address prediction
//!
//! Each PC-table slot remembers the last address its reads and writes
//! touched and the stride from the one before, both zero at the start of
//! the lane, in wrapping 64-bit arithmetic. A read or write whose address
//! equals its slot's last address plus last stride takes the `_NEXT`
//! form. Every read or write with a table slot updates the slot,
//! whatever form it took. An escaped PC is never predicted, so a `_NEXT`
//! op in slot 31 is corrupt.
//!
//! Sync operands are predicted per lane the same way. A lock entry,
//! like a slot's, remembers the last lock acquired and the stride from
//! the one before, so a walk over a lock array, such as Water locking
//! each partner molecule in turn, is predicted once it has learnt the
//! stride. Every acquire updates the entry, whatever form it took, and
//! one at its last lock plus its stride takes slot 3. A release of the
//! lock the entry last recorded takes slot 4; releases leave the entry
//! alone, so after nested acquires the outer release carries its lock.
//! The predicted barrier id starts at 0 and every barrier sets it to one
//! past its own id (wrapping), so a barrier in sequence takes slot 5.
//!
//! The encoder and every decoder run the same predictor over the same
//! ops. A decoder's state lives in its [`OpIter`] or in its CPU's part of
//! a [`TraceCursor`], never in the shared trace, so cloning a cursor (a
//! checkpoint fork) carries it and [`TraceCursor::rewind`] resets it.
//!
//! # Runs
//!
//! A run's period is 1 to 8 one-byte ops: `_NEXT` reads and writes,
//! predicted sync ops and computes below 31 cycles. That is what a loop
//! body becomes once its sites have learnt their strides, and keeping
//! longer ops out makes a period exactly P bytes, so the encoder finds
//! periods in one register of recent lead bytes and the decoder replays a
//! period without parsing lengths. A one-byte op equal to the one a
//! period back (the shortest such period) starts a run, and every op that
//! goes on repeating the period folds into it: the encoder writes nothing
//! until the run ends. It then writes a record for the whole repeats
//! (when that saves bytes: a period of P ops repeated R times needs P·R
//! above 4) followed by the ops of a broken last repeat. A trailing
//! compute joins a run only once the next op arrives, since the next
//! compute may still merge into it. Replaying a period decodes the
//! same bytes under the predictor state those ops would meet anyway, so
//! runs change no decoded op. The decoder keeps the run it replays in its
//! cursor beside the predictor. A record traps as corrupt unless P is 1 to
//! 8, R is at least 1, and the P ops before it are one byte each after the
//! lane's start or the last longer op or record.
//!
//! Each lane ends in 8 bytes of padding, so decode reads an op with one
//! fixed 8-byte load through safe slicing; only wide ops and sync ops
//! that carry their operand need a second load. A sealed lane's buffer
//! holds its bytes and no spare capacity.

use std::sync::Arc;

use pfsim_mem::{Addr, Pc};

use crate::{Op, Workload};

/// The 3-bit op kinds of the lead byte. The memory kinds are 0..=3, with
/// [`NEXT_BIT`] marking a predicted address and [`WRITE_BIT`] a store.
mod kind {
    pub const READ: u8 = 0;
    pub const READ_NEXT: u8 = 1;
    pub const WRITE: u8 = 2;
    pub const WRITE_NEXT: u8 = 3;
    pub const WIDE: u8 = 4;
    pub const COMPUTE: u8 = 5;
    pub const SYNC: u8 = 6;
    pub const RUN: u8 = 7;
}

/// A `SYNC` op's slot: the kind of sync op and whether it carries its
/// operand (9 bytes) or takes it from the lane's predictor (1 byte).
mod sync {
    pub const ACQUIRE: u8 = 0;
    pub const RELEASE: u8 = 1;
    pub const BARRIER: u8 = 2;
    pub const ACQUIRE_NEXT: u8 = 3;
    pub const RELEASE_HELD: u8 = 4;
    pub const BARRIER_NEXT: u8 = 5;
}

const KIND_BITS: u32 = 3;
const KIND_MASK: u8 = (1 << KIND_BITS) - 1;
const NEXT_BIT: u8 = 1;
const WRITE_BIT: u8 = 2;
/// The slot that says a wider field follows: a raw PC for a read or
/// write, a 4-byte count for a compute. Also the PC table's capacity, and
/// one past the longest compute the lead byte holds.
const ESCAPE: usize = 31;
/// The largest address a narrow read or write carries.
const NARROW_MAX: u64 = (1 << 24) - 1;
/// Zero bytes after each lane's last op, so every 8-byte load that starts
/// inside an op stays in bounds.
const PADDING: usize = 8;
/// The most one-byte ops in a run's period.
const MAX_PERIOD: usize = 8;
/// Bytes of a run record: the lead byte and a 3-byte repeat count.
const RUN_BYTES: usize = 4;
/// The largest repeat count a run record holds.
const MAX_REPEATS: u32 = (1 << 24) - 1;

/// One predictor entry: a PC-table slot's, or the lane's locks'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stride {
    /// The last address the entry saw.
    last: u64,
    /// `last` minus the address before it, wrapping.
    stride: u64,
}

impl Stride {
    /// Records `addr`; returns whether it was the predicted address.
    #[inline]
    fn observe(&mut self, addr: u64) -> bool {
        let stride = addr.wrapping_sub(self.last);
        let hit = stride == self.stride;
        *self = Stride { last: addr, stride };
        hit
    }

    /// The predicted address, recorded as seen (a one-byte op).
    #[inline]
    fn next(&mut self) -> u64 {
        self.last = self.last.wrapping_add(self.stride);
        self.last
    }
}

/// One lane's predictor (see the module docs); the encoder and each
/// decoder hold one apiece.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Predictor {
    /// The address entry of each PC-table slot.
    slots: [Stride; ESCAPE],
    /// The lock entry, which every acquire updates.
    lock: Stride,
    /// The barrier id predicted next: one past the lane's last one.
    barrier: u32,
}

impl Predictor {
    /// Records a barrier of `id`; returns whether it was the predicted id.
    #[inline]
    fn observe_barrier(&mut self, id: u32) -> bool {
        let hit = id == self.barrier;
        self.barrier = id.wrapping_add(1);
        hit
    }
}

/// One processor's packed stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PackedLane {
    /// The encoded ops; a sealed lane ends in [`PADDING`] zero bytes.
    bytes: Vec<u8>,
    /// The lane's PC table: the first [`ESCAPE`] distinct PCs of its
    /// reads and writes, in first-use order.
    pcs: Vec<u32>,
    /// Ops encoded.
    ops: usize,
    /// Cycles of a trailing compute not yet encoded, which the next
    /// compute merges into (building only; sealing encodes it).
    tail_compute: Option<u32>,
    /// The encoder's predictor, as of the last op pushed.
    pred: Predictor,
    /// The lead bytes of the last one-byte ops, the newest in the low
    /// byte: the candidate periods of a run.
    recent: u64,
    /// How many of `recent`'s bytes (at most [`MAX_PERIOD`]) are one-byte
    /// ops after the last longer op or run record.
    history: usize,
    /// The run being matched (building only): its period and the ops
    /// folded into it so far, none of them written yet.
    run: Option<(usize, u32)>,
    /// The PC-table slot each PC's [`hint_of`] last found (building only).
    slot_hints: [u8; 32],
}

/// Where a PC's slot hint lives: program counters step by 4.
#[inline]
fn hint_of(pc: u32) -> usize {
    (pc >> 2) as usize % 32
}

impl PackedLane {
    /// Appends `op` exactly as given: a zero-cycle compute stays, and a
    /// compute never merges into its predecessor.
    #[inline(always)]
    pub(crate) fn push(&mut self, op: Op) {
        self.settle_compute();
        self.ops += 1;
        match op {
            Op::Read { addr, pc } => self.push_mem(kind::READ, addr, pc),
            Op::Write { addr, pc } => self.push_mem(kind::WRITE, addr, pc),
            Op::Compute { cycles } => self.put_compute(cycles),
            Op::Acquire { lock } => {
                let hit = self.pred.lock.observe(lock.as_u64());
                self.push_sync(hit, sync::ACQUIRE_NEXT, sync::ACQUIRE, lock.as_u64());
            }
            Op::Release { lock } => {
                let hit = lock.as_u64() == self.pred.lock.last;
                self.push_sync(hit, sync::RELEASE_HELD, sync::RELEASE, lock.as_u64());
            }
            Op::Barrier { id } => {
                let hit = self.pred.observe_barrier(id);
                self.push_sync(hit, sync::BARRIER_NEXT, sync::BARRIER, u64::from(id));
            }
        }
    }

    /// Appends `cycles` of computation the way the builder does: a
    /// zero-cycle compute is dropped, and back-to-back computes merge into
    /// one op (saturating, which may widen it from 1 to 5 bytes), so
    /// `total_ops` counts what a processor actually issues rather than how
    /// chatty the generator was.
    pub(crate) fn compute(&mut self, cycles: u32) {
        if cycles == 0 {
            return;
        }
        match &mut self.tail_compute {
            Some(prev) => *prev = prev.saturating_add(cycles),
            None => {
                self.ops += 1;
                self.tail_compute = Some(cycles);
            }
        }
    }

    /// Encodes the trailing compute, if any, once no compute can merge
    /// into it any more.
    #[inline]
    fn settle_compute(&mut self) {
        if let Some(cycles) = self.tail_compute.take() {
            self.put_compute(cycles);
        }
    }

    /// Encodes a compute of `cycles` (the caller counts the op).
    #[inline]
    fn put_compute(&mut self, cycles: u32) {
        if cycles < ESCAPE as u32 {
            self.put_short(lead(kind::COMPUTE, cycles as u8));
        } else {
            self.put_long_compute(cycles);
        }
    }

    /// Encodes a compute of 31 cycles or more.
    #[inline(never)]
    fn put_long_compute(&mut self, cycles: u32) {
        let word = u64::from(lead(kind::COMPUTE, ESCAPE as u8)) | u64::from(cycles) << 8;
        self.put_long(word, 5);
    }

    /// Appends a read or write; `base` is its narrow kind.
    #[inline]
    fn push_mem(&mut self, base: u8, addr: Addr, pc: Pc) {
        let pc = pc.as_u32();
        let raw = addr.as_u64();
        let slot = self.pc_slot(pc);
        if slot < ESCAPE && self.pred.slots[slot].observe(raw) {
            self.put_short(lead(base | NEXT_BIT, slot as u8));
        } else {
            self.put_mem(base, slot, pc, raw);
        }
    }

    /// Appends a read or write of `raw` by `pc`, in `slot`, that its
    /// slot's predictor missed.
    #[inline(never)]
    fn put_mem(&mut self, base: u8, slot: usize, pc: u32, raw: u64) {
        // The lead byte, a wide op's narrow kind and any escaped PC, then
        // the address.
        let wide = raw > NARROW_MAX;
        let (mut head, mut head_len) = if wide {
            (
                u64::from(lead(kind::WIDE, slot as u8)) | u64::from(base) << 8,
                2,
            )
        } else {
            (u64::from(lead(base, slot as u8)), 1)
        };
        if slot == ESCAPE {
            head |= u64::from(pc) << (8 * head_len);
            head_len += 4;
        }
        if wide {
            self.put_long(head, head_len);
            self.put(raw, 8);
        } else {
            self.put_long(head | raw << (8 * head_len), head_len + 3);
        }
    }

    /// `pc`'s slot in the PC table, adding it while the table has room;
    /// [`ESCAPE`] once the table is full.
    #[inline]
    fn pc_slot(&mut self, pc: u32) -> usize {
        let hint = usize::from(self.slot_hints[hint_of(pc)]);
        if self.pcs.get(hint) == Some(&pc) {
            return hint;
        }
        self.find_pc_slot(pc)
    }

    /// [`Self::pc_slot`] by a scan of the table, which refreshes the hint.
    #[inline(never)]
    fn find_pc_slot(&mut self, pc: u32) -> usize {
        let slot = match self.pcs.iter().position(|&p| p == pc) {
            Some(slot) => slot,
            None if self.pcs.len() < ESCAPE => {
                self.pcs.push(pc);
                self.pcs.len() - 1
            }
            None => return ESCAPE,
        };
        self.slot_hints[hint_of(pc)] = slot as u8;
        slot
    }

    /// Appends a sync op: its one-byte form in slot `short` if the
    /// predictor foresaw its operand, or else slot `long` and the operand.
    fn push_sync(&mut self, predicted: bool, short: u8, long: u8, operand: u64) {
        if predicted {
            self.put_short(lead(kind::SYNC, short));
        } else {
            self.put_long(u64::from(lead(kind::SYNC, long)), 1);
            self.put(operand, 8);
        }
    }

    /// Appends a one-byte op with lead byte `byte`, or folds it into a
    /// run: while the op equals the one a period back, nothing is written
    /// and the run's count grows.
    #[inline]
    fn put_short(&mut self, byte: u8) {
        match &mut self.run {
            Some((period, folded))
                if (self.recent >> (8 * (*period - 1))) as u8 == byte && *folded < MAX_REPEATS =>
            {
                *folded += 1;
            }
            Some(_) => {
                self.end_run();
                self.start_short(byte);
            }
            None => self.start_short(byte),
        }
        self.recent = self.recent << 8 | u64::from(byte);
    }

    /// Outside a run: starts one if the one-byte op with lead byte `byte`
    /// repeats a recent one, or else writes it.
    #[inline]
    fn start_short(&mut self, byte: u8) {
        match period_of(self.recent, self.history, byte) {
            Some(period) => self.run = Some((period, 1)),
            None => {
                self.bytes.push(byte);
                self.history = (self.history + 1).min(MAX_PERIOD);
            }
        }
    }

    /// Appends the first `len` bytes of an op longer than a byte, whose
    /// lead byte is the low byte of `word`; no run spans it.
    #[inline]
    fn put_long(&mut self, word: u64, len: usize) {
        if self.run.is_some() {
            self.end_run();
        }
        self.history = 0;
        self.put(word, len);
    }

    /// Writes out the run being matched: a run record for its whole
    /// repeats when that saves bytes, then the ops that follow them, or
    /// else every folded op as it is.
    #[inline(never)]
    fn end_run(&mut self) {
        let Some((period, folded)) = self.run.take() else {
            return;
        };
        let repeats = folded / period as u32;
        let mut literal = folded as usize;
        if period * repeats as usize > RUN_BYTES {
            let record = u64::from(lead(kind::RUN, period as u8)) | u64::from(repeats) << 8;
            self.put(record, RUN_BYTES);
            literal %= period;
            self.history = literal;
        } else {
            self.history = (self.history + literal).min(MAX_PERIOD);
        }
        // The ops left are the newest bytes of `recent`: fewer than a
        // period after a record, and without one at most 4 bytes of whole
        // repeats plus part of a period, so never more than 7.
        debug_assert!(literal < MAX_PERIOD);
        for k in (0..literal).rev() {
            self.bytes.push((self.recent >> (8 * k)) as u8);
        }
    }

    /// Appends the low `len` bytes of `word`.
    #[inline]
    fn put(&mut self, word: u64, len: usize) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&word.to_le_bytes());
        self.bytes.truncate(at + len);
    }

    /// Finishes the lane for decoding: encodes what is still pending,
    /// appends the padding and frees the spare capacity that growing the
    /// lane left behind.
    fn seal(mut self) -> Self {
        self.settle_compute();
        self.end_run();
        self.bytes.extend_from_slice(&[0; PADDING]);
        self.bytes.shrink_to_fit();
        self
    }
}

/// The shortest period, at most `history` one-byte ops, at which the op
/// with lead byte `byte` repeats one of the `recent` ones; `None` if it
/// repeats none. A byte-wise zero test over `recent ^ byte`: the lowest
/// flagged byte is always a true zero.
#[inline]
fn period_of(recent: u64, history: usize, byte: u8) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let diff = recent ^ (ONES * u64::from(byte));
    let zeros = diff.wrapping_sub(ONES) & !diff & (ONES << 7);
    let zeros = zeros & u64::MAX.checked_shr(64 - 8 * history as u32).unwrap_or(0);
    (zeros != 0).then(|| zeros.trailing_zeros() as usize / 8 + 1)
}

/// The lead byte of an op: `kind` in the low bits, `slot` above.
#[inline]
fn lead(kind: u8, slot: u8) -> u8 {
    kind | slot << KIND_BITS
}

/// The 8 bytes at `at`, little-endian. Sealed lanes are padded so this is
/// in bounds wherever `at` lies inside an op.
#[inline]
fn load(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("sized by the range"))
}

/// A read (`write` false) or write of `addr` by `pc`.
#[inline]
fn mem_op(write: bool, addr: u64, pc: u32) -> Op {
    let (addr, pc) = (Addr::new(addr), Pc::new(pc));
    if write {
        Op::Write { addr, pc }
    } else {
        Op::Read { addr, pc }
    }
}

/// Where the decode of one sealed lane stands: the byte offset of the next
/// op, the run being replayed, and the predictor the ops before it left
/// behind.
#[derive(Debug, Clone, Default)]
struct LaneCursor {
    /// Byte offset of the next op.
    at: usize,
    /// Where decoding leaves the fast path: the lane's end, or while a run
    /// replays, its record (0 before the first op).
    stop: usize,
    /// The offset after the last op longer than a byte or the last run
    /// record: a run's period must start at or after it.
    solid: usize,
    /// The run being replayed: its period's offset, and the replays left
    /// after the current one.
    run: Option<(usize, u32)>,
    pred: Predictor,
}

impl LaneCursor {
    /// Decodes `lane`'s next op, if any.
    #[inline]
    fn next(&mut self, lane: &PackedLane) -> Option<Op> {
        loop {
            if self.at >= self.stop && !self.turn(lane) {
                return None;
            }
            let step = decode(
                &lane.bytes,
                &lane.pcs,
                &mut self.pred,
                &mut self.solid,
                self.at,
            );
            if let Some((op, next)) = step {
                self.at = next;
                return Some(op);
            }
            self.enter_run(lane);
        }
    }

    /// Decoding reached `stop`: replays the run's period again, moves past
    /// its record, or finds the lane's end. Returns whether an op follows.
    #[inline]
    fn turn(&mut self, lane: &PackedLane) -> bool {
        if let Some((from, left)) = &mut self.run {
            if *left > 0 {
                *left -= 1;
                self.at = *from;
                return true;
            }
            self.run = None;
            self.at = self.stop + RUN_BYTES;
            self.solid = self.at;
        }
        self.stop = lane.bytes.len() - PADDING;
        self.at < self.stop
    }

    /// Meets the run record at `at`: checks it and moves to its period's
    /// first op to replay the period.
    #[cold]
    fn enter_run(&mut self, lane: &PackedLane) {
        let record = self.at;
        let word = load(&lane.bytes, record);
        let period = usize::from(word as u8 >> KIND_BITS);
        let repeats = (word >> 8) as u32 & MAX_REPEATS;
        // Since `solid`, every op was one byte long: the period is the
        // `period` ops just before the record.
        if !(1..=MAX_PERIOD).contains(&period) || repeats == 0 || record < self.solid + period {
            corrupt(word as u8, record);
        }
        self.run = Some((record - period, repeats - 1));
        self.stop = record;
        self.at = record - period;
    }
}

/// Decodes the op at byte offset `at` of a sealed lane, given the
/// predictor its earlier ops left behind; returns it plus the offset of
/// the following op, or `None` for a run record. An op longer than a byte
/// moves `solid` to its end. Callers guarantee an op starts at `at`.
#[inline]
fn decode(
    bytes: &[u8],
    pcs: &[u32],
    pred: &mut Predictor,
    solid: &mut usize,
    at: usize,
) -> Option<(Op, usize)> {
    let word = load(bytes, at);
    let lead = word as u8;
    let slot = usize::from(lead >> KIND_BITS);
    let (op, next) = match lead & KIND_MASK {
        mem @ (kind::READ_NEXT | kind::WRITE_NEXT) => {
            if slot >= ESCAPE {
                corrupt(lead, at);
            }
            let addr = pred.slots[slot].next();
            return Some((mem_op(mem & WRITE_BIT != 0, addr, pcs[slot]), at + 1));
        }
        kind::COMPUTE if slot < ESCAPE => {
            let cycles = slot as u32;
            return Some((Op::Compute { cycles }, at + 1));
        }
        kind::SYNC if slot >= usize::from(sync::ACQUIRE_NEXT) => {
            let op = match slot as u8 {
                sync::ACQUIRE_NEXT => Op::Acquire {
                    lock: Addr::new(pred.lock.next()),
                },
                sync::RELEASE_HELD => Op::Release {
                    lock: Addr::new(pred.lock.last),
                },
                sync::BARRIER_NEXT => {
                    let id = pred.barrier;
                    pred.observe_barrier(id);
                    Op::Barrier { id }
                }
                _ => corrupt(lead, at),
            };
            return Some((op, at + 1));
        }
        mem @ (kind::READ | kind::WRITE) => {
            let (pc, addr, next) = if slot < ESCAPE {
                let addr = (word >> 8) & NARROW_MAX;
                pred.slots[slot].observe(addr);
                (pcs[slot], addr, at + 4)
            } else {
                ((word >> 8) as u32, (word >> 40) & NARROW_MAX, at + 8)
            };
            (mem_op(mem & WRITE_BIT != 0, addr, pc), next)
        }
        kind::WIDE => {
            let write = match (word >> 8) as u8 {
                kind::READ => false,
                kind::WRITE => true,
                _ => corrupt(lead, at),
            };
            let (pc, addr_at) = if slot < ESCAPE {
                (pcs[slot], at + 2)
            } else {
                ((word >> 16) as u32, at + 6)
            };
            let addr = load(bytes, addr_at);
            if slot < ESCAPE {
                pred.slots[slot].observe(addr);
            }
            (mem_op(write, addr, pc), addr_at + 8)
        }
        kind::COMPUTE => {
            let cycles = (word >> 8) as u32;
            (Op::Compute { cycles }, at + 5)
        }
        kind::SYNC => {
            let operand = load(bytes, at + 1);
            let op = match slot as u8 {
                sync::ACQUIRE => {
                    pred.lock.observe(operand);
                    Op::Acquire {
                        lock: Addr::new(operand),
                    }
                }
                sync::RELEASE => Op::Release {
                    lock: Addr::new(operand),
                },
                // `sync::BARRIER`, the one slot below the one-byte forms.
                _ => {
                    let id = operand as u32;
                    pred.observe_barrier(id);
                    Op::Barrier { id }
                }
            };
            (op, at + 9)
        }
        // `kind::RUN`, the one kind left.
        _ => return None,
    };
    *solid = next;
    Some((op, next))
}

#[cold]
fn corrupt(lead: u8, at: usize) -> ! {
    unreachable!("corrupt packed trace: lead byte {lead:#04x} at offset {at}")
}

/// An immutable packed trace: one encoded byte stream per CPU.
///
/// Built by [`TraceBuilder::finish`](crate::TraceBuilder::finish) and
/// shared across runs behind an [`Arc`]. Decode back to [`Op`]s with
/// [`iter_cpu`](Self::iter_cpu) (analysis) or a [`TraceCursor`]
/// (simulation).
///
/// # Examples
///
/// ```
/// use pfsim_workloads::{TraceBuilder, TraceCursor, Workload};
///
/// let mut b = TraceBuilder::new("demo", 2);
/// let a = b.alloc("A", 64, 8);
/// let pc = b.pc_site();
/// for i in 0..4 {
///     b.read(0, b.element(a, 8, i), pc);
/// }
/// b.barrier_all();
/// let trace = std::sync::Arc::new(b.finish());
/// assert_eq!(trace.total_ops(), 6); // four reads + two barrier arrivals
/// // Two 4-byte reads teach the site its 8-byte stride, the next two are
/// // predicted (1 byte each), and each lane's first barrier, id 0, is
/// // predicted too.
/// assert_eq!(trace.packed_bytes(), 4 + 4 + 1 + 1 + 2 * 1);
///
/// let mut cursor = TraceCursor::new(trace);
/// assert!(cursor.next(0).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTrace {
    name: String,
    lanes: Vec<PackedLane>,
}

impl PackedTrace {
    pub(crate) fn from_lanes(name: String, lanes: Vec<PackedLane>) -> Self {
        let lanes = lanes.into_iter().map(PackedLane::seal).collect();
        PackedTrace { name, lanes }
    }

    /// Workload name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors the trace was built for.
    pub fn num_cpus(&self) -> usize {
        self.lanes.len()
    }

    /// Operations in `cpu`'s stream.
    pub fn ops(&self, cpu: usize) -> usize {
        self.lanes[cpu].ops
    }

    /// Total operations across all processors.
    pub fn total_ops(&self) -> usize {
        self.lanes.iter().map(|l| l.ops).sum()
    }

    /// Bytes of the encoded op streams. Each lane's fixed overhead, its PC
    /// table (at most 31 words), its encoder's predictor and 8 bytes of
    /// padding, is not counted.
    pub fn packed_bytes(&self) -> usize {
        self.lanes.iter().map(|l| l.bytes.len() - PADDING).sum()
    }

    /// Amortized encoded bytes per operation.
    pub fn bytes_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.packed_bytes() as f64 / ops as f64
        }
    }

    /// Borrowed decode iterator over `cpu`'s stream.
    ///
    /// This is the analysis-side view: trace-classification tools walk
    /// ops straight out of the packed streams without running the timing
    /// model.
    pub fn iter_cpu(&self, cpu: usize) -> OpIter<'_> {
        let lane = &self.lanes[cpu];
        OpIter {
            lane,
            cursor: LaneCursor::default(),
            left: lane.ops,
        }
    }
}

/// Borrowed iterator decoding one processor's packed stream into [`Op`]s.
#[derive(Debug, Clone)]
pub struct OpIter<'a> {
    lane: &'a PackedLane,
    cursor: LaneCursor,
    /// Ops not yet decoded.
    left: usize,
}

impl Iterator for OpIter<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        let op = self.cursor.next(self.lane)?;
        self.left -= 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for OpIter<'_> {}

/// A replay cursor over a shared packed trace.
///
/// Implements [`Workload`] by decoding ops on demand from an
/// `Arc<PackedTrace>`, so `System<TraceCursor>` keeps static dispatch
/// while N parallel runs share one immutable trace. Cloning a cursor (or
/// creating more from the same `Arc`) costs only the per-CPU cursor
/// state: a position, the run being replayed and the predictor (about
/// 570 bytes).
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Arc<PackedTrace>,
    /// One decode position per CPU.
    cursors: Vec<LaneCursor>,
}

impl TraceCursor {
    /// Creates a cursor at the start of `trace` (an `Arc` to share, or an
    /// owned trace to replay once).
    pub fn new(trace: impl Into<Arc<PackedTrace>>) -> Self {
        let trace = trace.into();
        let cursors = vec![LaneCursor::default(); trace.lanes.len()];
        TraceCursor { trace, cursors }
    }

    /// A cursor over hand-written per-CPU op lists, which replay exactly
    /// as written: every op is encoded as given, zero-cycle and adjacent
    /// computes included. A [`TraceBuilder`](crate::TraceBuilder) drops
    /// the former and merges the latter, but the simulator checks its
    /// time slice between ops, so a merge could move a processor's yield
    /// point and with it the timing of a hand-written trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use pfsim_workloads::{Op, TraceCursor, Workload};
    ///
    /// let mut wl = TraceCursor::from_ops(
    ///     "demo",
    ///     &[vec![Op::Compute { cycles: 3 }, Op::Compute { cycles: 0 }], vec![]],
    /// );
    /// assert_eq!(wl.num_cpus(), 2);
    /// assert_eq!(wl.next(0), Some(Op::Compute { cycles: 3 }));
    /// assert_eq!(wl.next(0), Some(Op::Compute { cycles: 0 }));
    /// assert_eq!(wl.next(0), None);
    /// assert_eq!(wl.next(1), None);
    /// ```
    pub fn from_ops(name: impl Into<String>, lanes: &[Vec<Op>]) -> Self {
        let lanes = lanes
            .iter()
            .map(|ops| {
                let mut lane = PackedLane::default();
                ops.iter().for_each(|&op| lane.push(op));
                lane
            })
            .collect();
        TraceCursor::new(PackedTrace::from_lanes(name.into(), lanes))
    }

    /// The shared trace this cursor replays.
    pub fn trace(&self) -> &Arc<PackedTrace> {
        &self.trace
    }

    /// Total operations across all processors (consumed or not).
    pub fn total_ops(&self) -> usize {
        self.trace.total_ops()
    }

    /// Rewinds all cursors, address predictors included, so the workload
    /// can be replayed.
    pub fn rewind(&mut self) {
        self.cursors.fill(LaneCursor::default());
    }
}

impl Workload for TraceCursor {
    fn num_cpus(&self) -> usize {
        self.trace.num_cpus()
    }

    #[inline]
    fn next(&mut self, cpu: usize) -> Option<Op> {
        self.cursors[cpu].next(&self.trace.lanes[cpu])
    }

    fn name(&self) -> &str {
        &self.trace.name
    }

    fn total_ops(&self) -> usize {
        self.trace.total_ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::SplitMix64;

    fn sample_ops() -> Vec<Op> {
        let mem = |write: bool, addr: u64, pc: u32| mem_op(write, addr, pc);
        vec![
            mem(false, 0x1000, 0x40),
            Op::Compute { cycles: 7 },
            mem(true, 0x1_2345_6789, 0x44), // needs the wide form
            Op::Acquire {
                lock: Addr::new(0x2000),
            },
            Op::Release {
                lock: Addr::new(0x2000),
            },
            Op::Barrier { id: 3 },
            mem(false, u64::MAX, 0x48),
            Op::Acquire {
                lock: Addr::new(u64::MAX - 1),
            },
            Op::Release {
                lock: Addr::new(u64::MAX - 1),
            },
            // A stride run from a cold slot: the second access is already
            // predicted (stride 0x800 from the initial zero), so a decoder
            // that kept stale state would misplace it.
            mem(false, 0x800, 0x4c),
            mem(true, 0x1000, 0x4c),
            mem(false, 0x1800, 0x4c),
            // 0x40's run resumes: one more miss teaches it stride 8.
            mem(false, 0x1008, 0x40),
            mem(false, 0x1010, 0x40),
            Op::Compute { cycles: 300 },
        ]
    }

    fn pack(ops: &[Op]) -> PackedTrace {
        let mut lane = PackedLane::default();
        for &op in ops {
            lane.push(op);
        }
        PackedTrace::from_lanes("t".into(), vec![lane])
    }

    /// `lane`'s encoding read off its bytes: the lead byte of each op in
    /// decode order (a run's period once more per repeat), and each run
    /// record's period and repeat count.
    fn forms(lane: &PackedLane) -> (Vec<u8>, Vec<(usize, u64)>) {
        let (mut leads, mut records) = (Vec::new(), Vec::new());
        let (mut pred, mut solid, mut at) = (Predictor::default(), 0, 0);
        while at < lane.bytes.len() - PADDING {
            match decode(&lane.bytes, &lane.pcs, &mut pred, &mut solid, at) {
                Some((_, next)) => {
                    leads.push(lane.bytes[at]);
                    at = next;
                }
                None => {
                    let period = usize::from(lane.bytes[at] >> KIND_BITS);
                    let repeats = (load(&lane.bytes, at) >> 8) & u64::from(MAX_REPEATS);
                    let body = leads[leads.len() - period..].to_vec();
                    (0..repeats).for_each(|_| leads.extend(&body));
                    records.push((period, repeats));
                    at += RUN_BYTES;
                }
            }
        }
        (leads, records)
    }

    /// How many of `lane`'s ops took a 1-byte `_NEXT` form.
    fn predicted_ops(lane: &PackedLane) -> usize {
        let (leads, _) = forms(lane);
        leads
            .iter()
            .filter(|&&l| matches!(l & KIND_MASK, kind::READ_NEXT | kind::WRITE_NEXT))
            .count()
    }

    /// How many of `lane`'s sync ops took a 1-byte predicted form.
    fn predicted_syncs(lane: &PackedLane) -> usize {
        let (leads, _) = forms(lane);
        leads
            .iter()
            .filter(|&&l| l & KIND_MASK == kind::SYNC && l >> KIND_BITS >= sync::ACQUIRE_NEXT)
            .count()
    }

    /// How many of `lane`'s ops a run record replays.
    fn folded_ops(lane: &PackedLane) -> u64 {
        let (_, records) = forms(lane);
        records.iter().map(|&(p, r)| p as u64 * r).sum()
    }

    #[test]
    fn roundtrip_preserves_every_variant() {
        let ops = sample_ops();
        let trace = pack(&ops);
        assert_eq!(predicted_ops(&trace.lanes[0]), 3);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(decoded, ops);
    }

    #[test]
    fn cursor_matches_iterator_and_rewinds() {
        let ops = sample_ops();
        let trace = Arc::new(pack(&ops));
        let mut cursor = TraceCursor::new(trace.clone());
        let first: Vec<Op> = std::iter::from_fn(|| cursor.next(0)).collect();
        assert_eq!(first, ops);
        assert_eq!(cursor.next(0), None);
        cursor.rewind();
        let second: Vec<Op> = std::iter::from_fn(|| cursor.next(0)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn computes_coalesce_and_zero_cycles_drop() {
        let mut lane = PackedLane::default();
        lane.compute(2);
        lane.compute(3);
        lane.compute(0);
        lane.push(Op::Barrier { id: 0 });
        lane.compute(1);
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(
            decoded,
            vec![
                Op::Compute { cycles: 5 },
                Op::Barrier { id: 0 },
                Op::Compute { cycles: 1 },
            ]
        );
    }

    #[test]
    fn compute_coalescing_saturates() {
        let mut lane = PackedLane::default();
        lane.compute(u32::MAX - 1);
        lane.compute(10);
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(decoded, vec![Op::Compute { cycles: u32::MAX }]);
    }

    /// Hand-written lanes replay exactly as written: zero-cycle computes,
    /// runs of adjacent computes and every op kind decode back unchanged,
    /// through the cursor and through `iter_cpu`.
    #[test]
    fn from_ops_replays_every_op_exactly() {
        let computes =
            [0, 0, 7, 30, 31, 255, 256, u32::MAX, 0].map(|cycles| Op::Compute { cycles });
        let mut lane0 = computes.to_vec();
        lane0.extend(sample_ops());
        lane0.extend(computes);
        let lanes = [lane0, Vec::new(), vec![Op::Compute { cycles: 0 }]];
        let mut cursor = TraceCursor::from_ops("exact", &lanes);
        assert_eq!(cursor.name(), "exact");
        assert_eq!(cursor.total_ops(), lanes.iter().map(Vec::len).sum());
        for (cpu, want) in lanes.iter().enumerate() {
            assert!(cursor.trace().iter_cpu(cpu).eq(want.iter().copied()));
            let replayed: Vec<Op> = std::iter::from_fn(|| cursor.next(cpu)).collect();
            assert_eq!(&replayed, want, "cpu {cpu}");
        }
    }

    /// A cold slot predicts address 0, so a first read elsewhere misses
    /// and carries its 3-byte address.
    #[test]
    fn narrow_read_costs_four_bytes() {
        let mut lane = PackedLane::default();
        lane.push(Op::Read {
            addr: Addr::new(0x1000),
            pc: Pc::new(0x40),
        });
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        assert_eq!(trace.packed_bytes(), 4);
        assert_eq!(trace.bytes_per_op(), 4.0);
    }

    /// Every row of the format table, the predictor's misses and hits,
    /// and the PC-table escape.
    #[test]
    fn each_op_costs_its_documented_bytes() {
        let read = |addr, pc| mem_op(false, addr, pc);
        let write = |addr, pc| mem_op(true, addr, pc);
        let compute = |cycles| Op::Compute { cycles };
        let computes = |cycles: &[u32], times| cycles.repeat(times).into_iter().map(compute);
        let three: Vec<Op> = computes(&[7], 3).collect();
        let five: Vec<Op> = computes(&[7], 5).collect();
        let six: Vec<Op> = computes(&[7], 6).collect();
        let pairs: Vec<Op> = computes(&[1, 2], 4).collect();
        let mut broken: Vec<Op> = computes(&[1, 2, 3], 3).collect();
        broken.extend(computes(&[1, 2], 1));
        // A stride-8 loop body of a read, a write and a compute: two
        // iterations teach the strides; of the 294 one-byte ops after
        // them, a record replays 291 and 3 stay literal.
        let body: Vec<Op> = (0..100u64)
            .flat_map(|i| {
                [
                    read(0x1000 + 8 * i, 0x40),
                    write(0x8000 + 8 * i, 0x44),
                    compute(12),
                ]
            })
            .collect();
        let acquire = |lock| Op::Acquire {
            lock: Addr::new(lock),
        };
        let release = |lock| Op::Release {
            lock: Addr::new(lock),
        };
        let barrier = |id| Op::Barrier { id };
        let cases: [(&[Op], usize); 24] = [
            (&[read(NARROW_MAX, 0x40)], 4),
            (&[write(NARROW_MAX, 0x40)], 4),
            (&[read(NARROW_MAX + 1, 0x40)], 10),
            (&[write(u64::MAX, 0x40)], 10),
            // A cold slot predicts address 0: `READ_NEXT`, `WRITE_NEXT`.
            (&[read(0, 0x40)], 1),
            (&[write(0, 0x40)], 1),
            // Two misses teach a stride; every access on it then costs 1
            // byte, read or write, narrow or wide.
            (
                &[
                    read(0x1000, 0x40),
                    read(0x1008, 0x40),
                    write(0x1010, 0x40),
                    read(0x1018, 0x40),
                ],
                4 + 4 + 1 + 1,
            ),
            (
                &[
                    read(NARROW_MAX - 7, 0x40),
                    read(NARROW_MAX + 1, 0x40),
                    read(NARROW_MAX + 9, 0x40),
                ],
                4 + 10 + 1,
            ),
            (&[compute(0)], 1),
            (&[compute(30)], 1),
            (&[compute(31)], 5),
            // A cold lane predicts lock 0 and barrier 0. Two acquires
            // teach the lock entry a stride; a release of the lock last
            // acquired, and a barrier one past the last, cost 1 byte.
            (&[acquire(0)], 1),
            (&[barrier(0)], 1),
            (&[acquire(0x100), acquire(0x120), acquire(0x140)], 9 + 9 + 1),
            (&[acquire(0x100), release(0x100)], 9 + 1),
            (&[acquire(0x100), release(0x140)], 9 + 9),
            (&[barrier(0), barrier(1), barrier(2)], 1 + 1 + 1),
            // Skipped and repeated ids cost 9; each barrier still sets
            // the next id.
            (
                &[barrier(0), barrier(2), barrier(3), barrier(3)],
                1 + 9 + 1 + 9,
            ),
            // A run record (4 bytes) replaces whole repeats of the one-byte
            // ops just before it, but only where that saves bytes: two or
            // four repeats of one byte stay literal, five take a record.
            (&three, 3),
            (&five, 5),
            (&six, 1 + 4),
            (&pairs, 2 + 4),
            // Two whole repeats of a 3-op period, then a broken one whose
            // two ops stay literal after the record.
            (&broken, 3 + 4 + 2),
            (&body, 2 * (4 + 4 + 1) + 3 + 4),
        ];
        for (ops, bytes) in cases {
            let trace = pack(ops);
            assert_eq!(trace.packed_bytes(), bytes, "{ops:?}");
            assert!(trace.iter_cpu(0).eq(ops.iter().copied()), "{ops:?}");
        }
        // The 32nd distinct PC finds the table full: its 4 raw bytes ride
        // along every time, and it is never predicted, not even at stride
        // 0 (a table slot's third such read costs 1 byte).
        let mut ops: Vec<Op> = (0..32).map(|k| read(0x1000, 0x40 + 4 * k)).collect();
        let escaped = 0x40 + 4 * 31;
        ops.extend([read(0x1000, escaped), write(0x1000, escaped)]);
        ops.push(read(NARROW_MAX + 1, escaped));
        let trace = pack(&ops);
        assert_eq!(trace.packed_bytes(), 31 * 4 + 3 * 8 + 14);
        assert_eq!(predicted_ops(&trace.lanes[0]), 0);
        assert!(trace.iter_cpu(0).eq(ops));
    }

    /// Decodes a lane of raw `bytes` with a one-entry PC table to its end.
    fn decode_raw(bytes: Vec<u8>) {
        let lane = PackedLane {
            bytes,
            pcs: vec![0x40],
            ..PackedLane::default()
        };
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        let mut cursor = LaneCursor::default();
        while cursor.next(&trace.lanes[0]).is_some() {}
    }

    /// A run record of `period` ops repeated `repeats` more times.
    fn record(period: u8, repeats: u32) -> [u8; RUN_BYTES] {
        let [r0, r1, r2, _] = repeats.to_le_bytes();
        [lead(kind::RUN, period), r0, r1, r2]
    }

    /// A one-byte compute of `cycles`.
    fn short_compute(cycles: u8) -> u8 {
        lead(kind::COMPUTE, cycles)
    }

    #[test]
    fn a_hand_made_run_record_replays_its_period() {
        let mut bytes = vec![short_compute(1), short_compute(2)];
        bytes.extend(record(2, 3));
        bytes.push(short_compute(3));
        let lane = PackedLane {
            bytes,
            ops: 9,
            ..PackedLane::default()
        };
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        let cycles: Vec<u32> = trace
            .iter_cpu(0)
            .map(|op| match op {
                Op::Compute { cycles } => cycles,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(cycles, [1, 2, 1, 2, 1, 2, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_run_of_period_zero_traps() {
        let mut bytes = vec![short_compute(1)];
        bytes.extend(record(0, 1));
        decode_raw(bytes);
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_run_longer_than_eight_ops_traps() {
        let mut bytes = vec![short_compute(1); MAX_PERIOD + 1];
        bytes.extend(record(MAX_PERIOD as u8 + 1, 1));
        decode_raw(bytes);
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_run_of_zero_repeats_traps() {
        let mut bytes = vec![short_compute(1)];
        bytes.extend(record(1, 0));
        decode_raw(bytes);
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_run_reaching_before_the_lane_traps() {
        let mut bytes = vec![short_compute(1)];
        bytes.extend(record(2, 1));
        decode_raw(bytes);
    }

    /// The bytes before the record look like two one-byte computes, but
    /// they are the address of a 4-byte read.
    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_run_over_a_longer_op_traps() {
        let c = short_compute(1);
        let mut bytes = vec![lead(kind::READ, 0), c, c, c];
        bytes.extend(record(2, 1));
        decode_raw(bytes);
    }

    /// The second record's period would be the first record's count
    /// bytes, which look like one-byte computes.
    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_run_over_another_record_traps() {
        let c = short_compute(1);
        let mut bytes = vec![c];
        bytes.extend(record(1, u32::from_le_bytes([c, c, c, 0])));
        bytes.extend(record(2, 1));
        decode_raw(bytes);
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_sync_op_in_slot_6_traps() {
        decode_raw(vec![lead(kind::SYNC, 6)]);
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_sync_op_in_slot_31_traps() {
        decode_raw(vec![lead(kind::SYNC, 31)]);
    }

    /// An escaped PC is never predicted, and a `_NEXT` op has no room for
    /// the raw PC.
    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_predicted_op_in_the_escape_slot_traps() {
        decode_raw(vec![lead(kind::READ_NEXT, ESCAPE as u8)]);
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn a_wide_op_that_is_neither_read_nor_write_traps() {
        decode_raw(vec![
            lead(kind::WIDE, 0),
            kind::READ_NEXT,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ]);
    }

    /// The builder's compute policy as a reference model: zero-cycle
    /// computes vanish and back-to-back computes merge, saturating. (An
    /// exact push's model is `Vec::push`.)
    fn merge_expected(lane: &mut Vec<Op>, op: Op) {
        if let Op::Compute { cycles } = op {
            if cycles == 0 {
                return;
            }
            if let Some(Op::Compute { cycles: prev }) = lane.last_mut() {
                *prev = prev.saturating_add(cycles);
                return;
            }
        }
        lane.push(op);
    }

    /// The program counter of load/store site `k`.
    fn site(k: u32) -> Pc {
        Pc::new(0x40_0000 + 4 * k)
    }

    fn random_op(rng: &mut SplitMix64) -> Op {
        let addr = Addr::new(if rng.random_bool() {
            rng.random_range(0..=NARROW_MAX)
        } else {
            rng.next_u64()
        });
        let pc = site(rng.random_range(0u32..40));
        match rng.random_range(0u8..6) {
            0 => Op::Read { addr, pc },
            1 => Op::Write { addr, pc },
            2 => Op::Compute {
                cycles: [0, 1, 30, 31, 255, rng.next_u64() as u32][rng.random_range(0usize..6)],
            },
            3 => Op::Acquire { lock: addr },
            4 => Op::Release { lock: addr },
            _ => Op::Barrier {
                id: rng.next_u64() as u32,
            },
        }
    }

    /// `len` reads and writes by `pc` from `base` at `stride`, wrapping.
    fn run(rng: &mut SplitMix64, pc: Pc, base: u64, stride: u64, len: u64) -> Vec<Op> {
        (0..len)
            .map(|i| {
                mem_op(
                    rng.random_bool(),
                    base.wrapping_add(stride.wrapping_mul(i)),
                    pc.as_u32(),
                )
            })
            .collect()
    }

    /// The predictor's edges, each a chunk of stride runs: strides
    /// positive, zero, negative and random; runs that cross 2^24 either
    /// way or wrap past `u64::MAX`; a run that breaks and resumes; a run
    /// that jumps between narrow and wide addresses at one stride; and
    /// runs of several PCs interleaved op by op.
    fn prediction_chunks(rng: &mut SplitMix64) -> Vec<Vec<Op>> {
        let neg = |s: u64| 0u64.wrapping_sub(s);
        let narrow = |rng: &mut SplitMix64| rng.random_range(0x1000..NARROW_MAX / 2);
        let mut chunks = Vec::new();
        let specs = [
            (narrow(rng), 8),
            (narrow(rng), 0),
            (narrow(rng), neg(32)),
            (narrow(rng), rng.next_u64()),
            (NARROW_MAX - 2 * 64, 64),
            (NARROW_MAX + 3 * 8, neg(8)),
            (u64::MAX - 40, 16),
            (16, neg(16)),
        ];
        for (base, stride) in specs {
            let pc = site(rng.random_range(0u32..40));
            let len = rng.random_range(2u64..9);
            chunks.push(run(rng, pc, base, stride, len));
        }
        // Break and resume: one off-stride access, then the run goes on.
        let (pc, base) = (site(rng.random_range(0u32..40)), narrow(rng));
        let mut broken = run(rng, pc, base, 24, 4);
        broken.push(mem_op(false, narrow(rng), pc.as_u32()));
        broken.extend(run(rng, pc, base + 4 * 24, 24, 5));
        chunks.push(broken);
        // One PC's stride run switching between narrow and wide halves.
        let pc = site(rng.random_range(0u32..40));
        let mut switching = Vec::new();
        for half in [0, 1 << 40, 0, u64::MAX - 0xffff] {
            switching.extend(run(rng, pc, 0x8000 + half, 4, 3));
        }
        chunks.push(switching);
        // Interleaved PCs, op by op, at different strides.
        let runs: Vec<Vec<Op>> = (0..3)
            .map(|k| {
                let (pc, base) = (site(rng.random_range(0u32..40)), narrow(rng));
                run(rng, pc, base, 8 << k, 6)
            })
            .collect();
        chunks.push(
            (0..6)
                .flat_map(|i| runs.iter().map(move |r| r[i]))
                .collect(),
        );
        chunks
    }

    /// A loop body of `period` ops that are one byte each once its sites
    /// have learnt their strides: computes of 0 to 3 cycles and strided
    /// reads and writes, each by a distinct site of the first [`ESCAPE`]
    /// with its own base and stride. Three
    /// iterations of it, then `repeats` more (the periodic stretch), then
    /// `broken` ops of one more iteration and an op off the period (none
    /// when `broken` is `period`).
    fn periodic(rng: &mut SplitMix64, period: usize, repeats: u64, broken: usize) -> Vec<Op> {
        // Site, base, stride and kind of each memory op of the body, or
        // the cycles of each compute.
        let first_site = rng.random_range(0..ESCAPE as u32 - MAX_PERIOD as u32);
        let body: Vec<Result<(Pc, u64, u64, bool), u32>> = (0..period as u32)
            .map(|k| {
                if rng.random_range(0u8..3) == 0 {
                    // Short enough that the builder's merges across a whole
                    // period stay one byte.
                    Err(rng.random_range(0u32..4))
                } else {
                    let stride = [0, 8, 64, 0u64.wrapping_sub(8)][rng.random_range(0usize..4)];
                    let base = rng.random_range(0x1000..NARROW_MAX / 2);
                    Ok((site(first_site + k), base, stride, rng.random_bool()))
                }
            })
            .collect();
        let mut ops = Vec::new();
        // Two iterations teach the strides, one is the period's first
        // occurrence.
        for i in 0..3 + repeats {
            for (k, op) in body.iter().enumerate() {
                if i == 2 + repeats && k == broken {
                    ops.push(Op::Compute { cycles: 31 });
                    return ops;
                }
                ops.push(match *op {
                    Ok((pc, base, stride, write)) => mem_op(
                        write,
                        base.wrapping_add(stride.wrapping_mul(i)),
                        pc.as_u32(),
                    ),
                    Err(cycles) => Op::Compute { cycles },
                });
            }
        }
        ops
    }

    /// The sync predictor's edges: strided lock arrays, one wrapping past
    /// `u64::MAX`, walked with a critical section per element that may
    /// nest a second lock (whose release leaves the outer release to take
    /// the 9-byte form), and barrier ids in sequence, repeated and skipped,
    /// one sequence wrapping past `u32::MAX`.
    fn sync_chunks(rng: &mut SplitMix64) -> Vec<Vec<Op>> {
        let mut chunks = Vec::new();
        for base in [
            rng.random_range(0..NARROW_MAX),
            rng.next_u64(),
            u64::MAX - 0x80,
        ] {
            let stride = [0x40, 0x20, 0, rng.next_u64()][rng.random_range(0usize..4)];
            let inner = rng.random_bool().then(|| rng.next_u64());
            let pc = site(rng.random_range(0u32..40));
            let mut ops = Vec::new();
            for i in 0..rng.random_range(2u64..20) {
                let outer = Addr::new(base.wrapping_add(stride.wrapping_mul(i)));
                ops.push(Op::Acquire { lock: outer });
                if let Some(inner) = inner {
                    let inner = Addr::new(inner.wrapping_add(8 * i));
                    ops.extend([Op::Acquire { lock: inner }, Op::Release { lock: inner }]);
                }
                ops.push(mem_op(true, 0x4000 + 8 * i, pc.as_u32()));
                ops.push(Op::Release { lock: outer });
            }
            chunks.push(ops);
        }
        for first in [rng.next_u64() as u32, u32::MAX - 2] {
            let mut id = first;
            let barriers = (0..rng.random_range(2usize..12)).map(|_| {
                let op = Op::Barrier { id };
                id = id
                    .wrapping_add([1, 1, 0, 2, rng.next_u64() as u32][rng.random_range(0usize..5)]);
                op
            });
            chunks.push(barriers.collect());
        }
        chunks
    }

    /// Periodic stretches: every period from 1 to 8, each with 1, 2, 5
    /// or up to thousands of repeats (each count twice per lane), each
    /// broken after a random number of ops.
    fn run_chunks(rng: &mut SplitMix64) -> Vec<Vec<Op>> {
        let turn = rng.random_range(0usize..4);
        (1..=MAX_PERIOD)
            .map(|period| {
                let repeats = [1, 2, 5, rng.random_range(6u64..3000)][(period + turn) % 4];
                let broken = rng.random_range(0..period);
                periodic(rng, period, repeats, broken)
            })
            .collect()
    }

    /// One lane's ops: every encoding edge, shuffled among random filler.
    /// Multi-op chunks stay contiguous so their computes are adjacent.
    fn edge_lane(rng: &mut SplitMix64) -> Vec<Op> {
        // The first 31 sites take the PC table's slots in order.
        let prefix = (0..ESCAPE as u32).map(|k| mem_op(false, 0x1000, site(k).as_u32()));
        // 40 distinct sites: the last 9 overflow the 31-entry PC table.
        let mut chunks: Vec<Vec<Op>> = (0..40)
            .map(|k| {
                vec![Op::Read {
                    addr: Addr::new(rng.random_range(0..=NARROW_MAX)),
                    pc: site(k),
                }]
            })
            .collect();
        for addr in [0, NARROW_MAX, NARROW_MAX + 1, u64::MAX].map(Addr::new) {
            let pc = site(rng.random_range(0u32..40));
            chunks.push(vec![Op::Read { addr, pc }]);
            chunks.push(vec![Op::Write { addr, pc }]);
            chunks.push(vec![Op::Acquire { lock: addr }]);
            chunks.push(vec![Op::Release { lock: addr }]);
        }
        chunks.push(vec![Op::Barrier { id: u32::MAX }]);
        for cycles in [0, 30, 31, 255, 256] {
            chunks.push(vec![Op::Compute { cycles }]);
        }
        // Saturation, and a 1-byte compute widened to 5 bytes by a merge
        // across a dropped zero.
        chunks.push(vec![
            Op::Compute {
                cycles: u32::MAX - 1,
            },
            Op::Compute { cycles: 10 },
        ]);
        chunks.push(vec![
            Op::Compute { cycles: 20 },
            Op::Compute { cycles: 0 },
            Op::Compute { cycles: 11 },
        ]);
        chunks.extend(prediction_chunks(rng));
        chunks.extend(sync_chunks(rng));
        chunks.extend(run_chunks(rng));
        for _ in 0..rng.random_range(0usize..200) {
            chunks.push(vec![random_op(rng)]);
        }
        for i in (1..chunks.len()).rev() {
            chunks.swap(i, rng.random_range(0..=i));
        }
        chunks.insert(0, prefix.collect());
        // Runs right after a wide op and after an escaped PC (the table
        // is full by now), the last one ending the lane.
        let escaped = site(100);
        for head in [
            mem_op(false, NARROW_MAX + 1, site(0).as_u32()),
            mem_op(true, 0x2000, escaped.as_u32()),
        ] {
            chunks.push(vec![head]);
            let period = rng.random_range(1..=MAX_PERIOD);
            let repeats = rng.random_range(2u64..50);
            chunks.push(periodic(rng, period, repeats, period));
        }
        chunks.concat()
    }

    /// Seeded random lanes across every encoding, prediction and run edge
    /// decode to their reference sequence through `iter_cpu` (whose exact
    /// size holds after every op), a cursor, a clone of it taken at a
    /// random op (the checkpoint-fork path) and the cursor rewound. A lane
    /// is built either by exact pushes (`from_ops`), whose reference is
    /// the pushed sequence, or with the builder's compute policy, whose
    /// reference merges and drops computes.
    #[test]
    fn random_lanes_round_trip_across_every_encoding_edge() {
        let mut rng = SplitMix64::seed_from_u64(0x4b17_e5ed);
        for _case in 0..24 {
            let cpus = rng.random_range(1usize..5);
            let mut lanes = vec![PackedLane::default(); cpus];
            let mut expected: Vec<Vec<Op>> = vec![Vec::new(); cpus];
            for (lane, want) in lanes.iter_mut().zip(&mut expected) {
                let exact = rng.random_bool();
                for op in edge_lane(&mut rng) {
                    match op {
                        Op::Compute { cycles } if !exact => {
                            lane.compute(cycles);
                            merge_expected(want, op);
                        }
                        _ => {
                            lane.push(op);
                            want.push(op);
                        }
                    }
                }
            }
            let trace = Arc::new(PackedTrace::from_lanes("edges".into(), lanes));
            for (cpu, want) in expected.iter().enumerate() {
                let lane = &trace.lanes[cpu];
                assert_eq!(lane.pcs.len(), ESCAPE, "table full");
                assert!(predicted_ops(lane) >= 20, "runs predicted");
                assert!(predicted_syncs(lane) >= 10, "sync operands predicted");
                assert!(forms(lane).1.len() >= 4, "periodic stretches folded");
                assert_eq!(trace.ops(cpu), want.len());
                let mut ops = trace.iter_cpu(cpu);
                for (k, &op) in want.iter().enumerate() {
                    assert_eq!(ops.len(), want.len() - k, "exact size, cpu {cpu}");
                    assert_eq!(ops.next(), Some(op), "iter_cpu({cpu}) op {k}");
                }
                assert_eq!((ops.len(), ops.next()), (0, None));
            }

            let mut cursor = TraceCursor::new(Arc::clone(&trace));
            let forks_at: Vec<usize> = expected
                .iter()
                .map(|want| rng.random_range(0..=want.len()))
                .collect();
            for (cpu, want) in expected.iter().enumerate() {
                let head: Vec<Op> = (0..forks_at[cpu])
                    .filter_map(|_| cursor.next(cpu))
                    .collect();
                assert_eq!(head, want[..forks_at[cpu]], "cursor head, cpu {cpu}");
            }
            let mut fork = cursor.clone();
            for c in [&mut cursor, &mut fork] {
                for (cpu, want) in expected.iter().enumerate() {
                    let tail: Vec<Op> = std::iter::from_fn(|| c.next(cpu)).collect();
                    assert_eq!(tail, want[forks_at[cpu]..], "cursor tail, cpu {cpu}");
                }
            }
            fork.rewind();
            for (cpu, want) in expected.iter().enumerate() {
                let replay: Vec<Op> = std::iter::from_fn(|| fork.next(cpu)).collect();
                assert_eq!(&replay, want, "rewound replay, cpu {cpu}");
            }
        }
    }

    /// A run longer than a record's count holds ends in a full record and
    /// starts again.
    #[test]
    fn a_run_past_the_largest_count_takes_a_second_record() {
        let ops = MAX_REPEATS as usize + 10;
        let mut lane = PackedLane::default();
        (0..ops).for_each(|_| lane.push(Op::Compute { cycles: 7 }));
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        // One literal, a record of every repeat it holds, then one literal
        // and a record of the 8 left.
        let c = short_compute(7);
        let mut want = vec![c];
        want.extend(record(1, MAX_REPEATS));
        want.push(c);
        want.extend(record(1, 8));
        assert_eq!(trace.lanes[0].bytes[..trace.packed_bytes()], want);
        let mut decoded = trace.iter_cpu(0);
        assert_eq!(decoded.len(), ops);
        assert_eq!(
            decoded.try_fold(0, |n, op| (op == Op::Compute { cycles: 7 })
                .then_some(n + 1)),
            Some(ops)
        );
    }

    /// A cursor cloned inside a run (the checkpoint-fork path), and one
    /// rewound there, replay the same ops as a fresh cursor.
    #[test]
    fn a_cursor_forked_or_rewound_mid_run_replays_the_same_ops() {
        let mut rng = SplitMix64::seed_from_u64(0x4b17_f0c5);
        for period in 1..=MAX_PERIOD {
            let ops = periodic(&mut rng, period, 40, period);
            let trace = Arc::new(pack(&ops[..ops.len() - 1]));
            let want: Vec<Op> = trace.iter_cpu(0).collect();
            assert!(folded_ops(&trace.lanes[0]) >= 30 * period as u64);
            // Fork at every op from the middle of the first replay on.
            for at in [3 * period + 1, want.len() / 2, want.len() - 1] {
                let mut cursor = TraceCursor::new(Arc::clone(&trace));
                let head: Vec<Op> = (0..at).filter_map(|_| cursor.next(0)).collect();
                assert_eq!(head, want[..at]);
                let mut fork = cursor.clone();
                let tail: Vec<Op> = std::iter::from_fn(|| fork.next(0)).collect();
                assert_eq!(tail, want[at..], "fork at op {at}, period {period}");
                cursor.rewind();
                let replay: Vec<Op> = std::iter::from_fn(|| cursor.next(0)).collect();
                assert_eq!(replay, want, "rewound at op {at}, period {period}");
            }
        }
    }

    /// The same, in a run whose period is a critical section: a
    /// predicted acquire, a predicted write and a release of the held
    /// lock, walking a lock array the way Water locks each partner.
    #[test]
    fn a_cursor_forked_or_rewound_in_a_run_of_sync_ops_replays_the_same_ops() {
        let ops: Vec<Op> = (0..40u64)
            .flat_map(|i| {
                let lock = Addr::new(0x8000 + 0x40 * i);
                [
                    Op::Acquire { lock },
                    mem_op(true, 0x1000 + 8 * i, 0x40),
                    Op::Release { lock },
                ]
            })
            .collect();
        let trace = Arc::new(pack(&ops));
        // Two iterations teach the strides (9 + 4 + 1 bytes each); the
        // rest is one literal, a record and a broken repeat.
        assert_eq!(trace.packed_bytes(), 2 * (9 + 4 + 1) + 2 + 4 + 1);
        assert_eq!(forms(&trace.lanes[0]).1, [(3, 37)]);
        // Every acquire after the first two, and every release.
        assert_eq!(predicted_syncs(&trace.lanes[0]), 38 + 40);
        for at in 0..=ops.len() {
            let mut cursor = TraceCursor::new(Arc::clone(&trace));
            let head: Vec<Op> = (0..at).filter_map(|_| cursor.next(0)).collect();
            assert_eq!(head, ops[..at]);
            let mut fork = cursor.clone();
            let tail: Vec<Op> = std::iter::from_fn(|| fork.next(0)).collect();
            assert_eq!(tail, ops[at..], "fork at op {at}");
            cursor.rewind();
            let replay: Vec<Op> = std::iter::from_fn(|| cursor.next(0)).collect();
            assert_eq!(replay, ops, "rewound at op {at}");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the property under test is agreement across threads"
    )]
    fn shared_decode_is_identical_across_threads() {
        let ops = sample_ops();
        let trace = Arc::new(pack(&ops));
        let decoded: Vec<Vec<Op>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let trace = Arc::clone(&trace);
                    scope.spawn(move || {
                        let mut cursor = TraceCursor::new(trace);
                        std::iter::from_fn(|| cursor.next(0)).collect::<Vec<Op>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for d in &decoded {
            assert_eq!(d, &ops);
        }
    }
}
