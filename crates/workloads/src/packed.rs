//! The packed trace: the one trace type, shared zero-copy across runs.
//!
//! The paper's program-driven methodology replays the *same* reference
//! stream under every architecture configuration (§4). [`PackedTrace`]
//! holds that stream: each processor's ops as one variable-length byte
//! stream plus a small table of the load/store sites the stream uses, so
//! a shared read costs 4 bytes, a compute 2, and a whole six-application
//! trace set fits under 4 amortized bytes per operation (a decoded [`Op`]
//! is 16). The trace is immutable after construction; N concurrent runs
//! each hold a [`TraceCursor`], the one [`Workload`], over one
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
//! | `READ`, `WRITE` | a 3-byte address below 2^24 |
//! | `READ_WIDE`, `WRITE_WIDE` | an 8-byte address |
//! | `COMPUTE8` | a 1-byte cycle count below 256 |
//! | `COMPUTE32` | a 4-byte cycle count |
//! | `SYNC` | an 8-byte lock address or barrier id |
//!
//! A read's or write's slot indexes its lane's PC table, which holds the
//! first 31 distinct PCs the lane uses (the applications use at most 16
//! sites). Slot 31 escapes: a raw 4-byte PC precedes the address. A sync
//! op's slot says whether it is an acquire, a release or a barrier. Wide
//! addresses keep the format general over the 64-bit
//! [`Addr`](pfsim_mem::Addr) space, although every generator's
//! allocations stay far below 2^24.
//!
//! Each lane ends in 8 bytes of padding, so decode reads an op with one
//! fixed 8-byte load through safe slicing; only wide and sync ops need a
//! second load.

use std::sync::Arc;

use pfsim_mem::{Addr, Pc};

use crate::{Op, Workload};

/// The 3-bit op kinds of the lead byte. The memory kinds are 0..=3, with
/// [`WIDE_BIT`] marking an 8-byte address and [`WRITE_BIT`] a store.
mod kind {
    pub const READ: u8 = 0;
    pub const READ_WIDE: u8 = 1;
    pub const WRITE: u8 = 2;
    pub const WRITE_WIDE: u8 = 3;
    pub const COMPUTE8: u8 = 4;
    pub const COMPUTE32: u8 = 5;
    pub const SYNC: u8 = 6;
}

/// A `SYNC` op's slot.
mod sync {
    pub const ACQUIRE: u8 = 0;
    pub const RELEASE: u8 = 1;
    pub const BARRIER: u8 = 2;
}

const KIND_BITS: u32 = 3;
const KIND_MASK: u8 = (1 << KIND_BITS) - 1;
const WIDE_BIT: u8 = 1;
const WRITE_BIT: u8 = 2;
/// The slot that says a raw PC follows; also the PC table's capacity.
const PC_ESCAPE: usize = 31;
/// The largest address a narrow read or write carries.
const NARROW_MAX: u64 = (1 << 24) - 1;
/// Zero bytes after each lane's last op, so every 8-byte load that starts
/// inside an op stays in bounds.
const PADDING: usize = 8;

/// One processor's packed stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PackedLane {
    /// The encoded ops; a sealed lane ends in [`PADDING`] zero bytes.
    bytes: Vec<u8>,
    /// The lane's PC table: the first [`PC_ESCAPE`] distinct PCs of its
    /// reads and writes, in first-use order.
    pcs: Vec<u32>,
    /// Ops encoded.
    ops: usize,
    /// Byte offset and cycle count of a trailing compute, which the next
    /// compute merges into (building only; a sealed lane has none).
    tail_compute: Option<(usize, u32)>,
}

impl PackedLane {
    /// Appends `op` exactly as given: a zero-cycle compute stays, and a
    /// compute never merges into its predecessor.
    pub(crate) fn push(&mut self, op: Op) {
        self.tail_compute = None;
        self.ops += 1;
        match op {
            Op::Read { addr, pc } => self.push_mem(kind::READ, addr, pc),
            Op::Write { addr, pc } => self.push_mem(kind::WRITE, addr, pc),
            Op::Compute { cycles } => self.put_compute(cycles),
            Op::Acquire { lock } => self.push_sync(sync::ACQUIRE, lock.as_u64()),
            Op::Release { lock } => self.push_sync(sync::RELEASE, lock.as_u64()),
            Op::Barrier { id } => self.push_sync(sync::BARRIER, u64::from(id)),
        }
    }

    /// Appends `cycles` of computation the way the builder does: a
    /// zero-cycle compute is dropped, and back-to-back computes merge into
    /// one op (saturating, which may widen it from 1 to 4 bytes), so
    /// `total_ops` counts what a processor actually issues rather than how
    /// chatty the generator was.
    pub(crate) fn compute(&mut self, cycles: u32) {
        if cycles == 0 {
            return;
        }
        let (at, cycles) = match self.tail_compute {
            Some((at, prev)) => {
                self.bytes.truncate(at);
                (at, prev.saturating_add(cycles))
            }
            None => {
                self.ops += 1;
                (self.bytes.len(), cycles)
            }
        };
        self.put_compute(cycles);
        self.tail_compute = Some((at, cycles));
    }

    /// Encodes a compute of `cycles` (the caller counts the op).
    fn put_compute(&mut self, cycles: u32) {
        let (kind, len) = if cycles <= 0xff {
            (kind::COMPUTE8, 2)
        } else {
            (kind::COMPUTE32, 5)
        };
        self.put(u64::from(kind) | u64::from(cycles) << 8, len);
    }

    /// Appends a read or write; `base` is its narrow kind.
    fn push_mem(&mut self, base: u8, addr: Addr, pc: Pc) {
        let pc = pc.as_u32();
        let slot = self.pc_slot(pc);
        let raw = addr.as_u64();
        let wide = raw > NARROW_MAX;
        let lead = lead(base | if wide { WIDE_BIT } else { 0 }, slot as u8);
        // The lead byte and any escaped PC, then the address.
        let (head, head_len) = if slot < PC_ESCAPE {
            (lead, 1)
        } else {
            (lead | u64::from(pc) << 8, 5)
        };
        if wide {
            self.put(head, head_len);
            self.put(raw, 8);
        } else {
            self.put(head | raw << (8 * head_len), head_len + 3);
        }
    }

    /// `pc`'s slot in the PC table, adding it while the table has room;
    /// [`PC_ESCAPE`] once the table is full.
    fn pc_slot(&mut self, pc: u32) -> usize {
        match self.pcs.iter().position(|&p| p == pc) {
            Some(slot) => slot,
            None if self.pcs.len() < PC_ESCAPE => {
                self.pcs.push(pc);
                self.pcs.len() - 1
            }
            None => PC_ESCAPE,
        }
    }

    fn push_sync(&mut self, sub: u8, payload: u64) {
        self.put(lead(kind::SYNC, sub), 1);
        self.put(payload, 8);
    }

    /// Appends the low `len` bytes of `word`.
    #[inline]
    fn put(&mut self, word: u64, len: usize) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&word.to_le_bytes());
        self.bytes.truncate(at + len);
    }

    /// Finishes the lane for decoding: appends the padding.
    fn seal(mut self) -> Self {
        self.tail_compute = None;
        self.bytes.extend_from_slice(&[0; PADDING]);
        self
    }
}

/// The lead byte of an op: `kind` in the low bits, `slot` above.
#[inline]
fn lead(kind: u8, slot: u8) -> u64 {
    u64::from(kind | slot << KIND_BITS)
}

/// The 8 bytes at `at`, little-endian. Sealed lanes are padded so this is
/// in bounds wherever `at` lies inside an op.
#[inline]
fn load(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("sized by the range"))
}

/// Decodes the op at byte offset `at` of a sealed lane; returns it plus
/// the offset of the following op. Callers guarantee an op starts at `at`.
#[inline]
fn decode(bytes: &[u8], pcs: &[u32], at: usize) -> (Op, usize) {
    let word = load(bytes, at);
    let lead = word as u8;
    let slot = lead >> KIND_BITS;
    match lead & KIND_MASK {
        mem @ (kind::READ | kind::READ_WIDE | kind::WRITE | kind::WRITE_WIDE) => {
            // The PC, the bytes from the address on, and the address's offset.
            let (pc, rest, addr_at) = if usize::from(slot) < PC_ESCAPE {
                (pcs[usize::from(slot)], word >> 8, at + 1)
            } else {
                ((word >> 8) as u32, word >> 40, at + 5)
            };
            let (addr, next) = if mem & WIDE_BIT == 0 {
                (rest & NARROW_MAX, addr_at + 3)
            } else {
                (load(bytes, addr_at), addr_at + 8)
            };
            let (addr, pc) = (Addr::new(addr), Pc::new(pc));
            let op = if mem & WRITE_BIT == 0 {
                Op::Read { addr, pc }
            } else {
                Op::Write { addr, pc }
            };
            (op, next)
        }
        kind::COMPUTE8 => {
            let cycles = u32::from((word >> 8) as u8);
            (Op::Compute { cycles }, at + 2)
        }
        kind::COMPUTE32 => {
            let cycles = (word >> 8) as u32;
            (Op::Compute { cycles }, at + 5)
        }
        kind::SYNC => {
            let payload = load(bytes, at + 1);
            let op = match slot {
                sync::ACQUIRE => Op::Acquire {
                    lock: Addr::new(payload),
                },
                sync::RELEASE => Op::Release {
                    lock: Addr::new(payload),
                },
                sync::BARRIER => Op::Barrier { id: payload as u32 },
                _ => corrupt(lead, at),
            };
            (op, at + 9)
        }
        _ => corrupt(lead, at),
    }
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
/// b.read(0, b.element(a, 8, 3), pc);
/// b.barrier_all();
/// let trace = std::sync::Arc::new(b.finish());
/// assert_eq!(trace.total_ops(), 3); // one read + two barrier arrivals
/// assert_eq!(trace.packed_bytes(), 4 + 2 * 9); // a narrow read, two syncs
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
    /// table (at most 31 words) and 8 bytes of padding, is not counted.
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
            bytes: &lane.bytes,
            pcs: &lane.pcs,
            left: lane.ops,
            at: 0,
        }
    }
}

/// Borrowed iterator decoding one processor's packed stream into [`Op`]s.
#[derive(Debug, Clone)]
pub struct OpIter<'a> {
    bytes: &'a [u8],
    pcs: &'a [u32],
    /// Ops not yet decoded.
    left: usize,
    /// Byte offset of the next op.
    at: usize,
}

impl Iterator for OpIter<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.left == 0 {
            return None;
        }
        let (op, next) = decode(self.bytes, self.pcs, self.at);
        self.left -= 1;
        self.at = next;
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
/// state.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Arc<PackedTrace>,
    /// Per-CPU `(ops left, byte offset of the next op)`.
    cursors: Vec<(usize, usize)>,
}

impl TraceCursor {
    /// Creates a cursor at the start of `trace` (an `Arc` to share, or an
    /// owned trace to replay once).
    pub fn new(trace: impl Into<Arc<PackedTrace>>) -> Self {
        let trace = trace.into();
        let cursors = trace.lanes.iter().map(|l| (l.ops, 0)).collect();
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

    /// Rewinds all cursors so the workload can be replayed.
    pub fn rewind(&mut self) {
        for (cursor, lane) in self.cursors.iter_mut().zip(&self.trace.lanes) {
            *cursor = (lane.ops, 0);
        }
    }
}

impl Workload for TraceCursor {
    fn num_cpus(&self) -> usize {
        self.trace.num_cpus()
    }

    #[inline]
    fn next(&mut self, cpu: usize) -> Option<Op> {
        let (left, at) = self.cursors[cpu];
        if left == 0 {
            return None;
        }
        let lane = &self.trace.lanes[cpu];
        let (op, next) = decode(&lane.bytes, &lane.pcs, at);
        self.cursors[cpu] = (left - 1, next);
        Some(op)
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
        vec![
            Op::Read {
                addr: Addr::new(0x1000),
                pc: Pc::new(0x40),
            },
            Op::Compute { cycles: 7 },
            Op::Write {
                addr: Addr::new(0x1_2345_6789), // needs the wide escape
                pc: Pc::new(0x44),
            },
            Op::Acquire {
                lock: Addr::new(0x2000),
            },
            Op::Release {
                lock: Addr::new(0x2000),
            },
            Op::Barrier { id: 3 },
            Op::Read {
                addr: Addr::new(u64::MAX),
                pc: Pc::new(0x48),
            },
            Op::Acquire {
                lock: Addr::new(u64::MAX - 1),
            },
            Op::Release {
                lock: Addr::new(u64::MAX - 1),
            },
        ]
    }

    fn pack(ops: &[Op]) -> PackedTrace {
        let mut lane = PackedLane::default();
        for &op in ops {
            lane.push(op);
        }
        PackedTrace::from_lanes("t".into(), vec![lane])
    }

    #[test]
    fn roundtrip_preserves_every_variant() {
        let ops = sample_ops();
        let trace = pack(&ops);
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
        let computes = [0, 0, 7, 255, 256, u32::MAX, 0].map(|cycles| Op::Compute { cycles });
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

    /// Every row of the format table, plus the PC-table escape.
    #[test]
    fn each_op_costs_its_documented_bytes() {
        let read = |addr, pc| Op::Read {
            addr: Addr::new(addr),
            pc: Pc::new(pc),
        };
        let cases = [
            (read(NARROW_MAX, 0x40), 4),
            (Op::Compute { cycles: 0 }, 2),
            (read(NARROW_MAX + 1, 0x40), 9),
            (Op::Compute { cycles: 255 }, 2),
            (Op::Compute { cycles: 256 }, 5),
            (Op::Acquire { lock: Addr::new(0) }, 9),
            (Op::Barrier { id: 0 }, 9),
        ];
        for (op, bytes) in cases {
            assert_eq!(pack(&[op]).packed_bytes(), bytes, "{op:?}");
        }
        // The 32nd distinct PC finds the table full: its 4 raw bytes ride
        // along, and it decodes back intact.
        let ops: Vec<Op> = (0..32).map(|k| read(0x1000, 0x40 + 4 * k)).collect();
        let trace = pack(&ops);
        assert_eq!(trace.packed_bytes(), 32 * 4 + 4);
        assert!(trace.iter_cpu(0).eq(ops));
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn an_unknown_kind_traps() {
        let lane = PackedLane {
            bytes: vec![KIND_MASK, 0],
            ops: 1,
            ..PackedLane::default()
        };
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        trace.iter_cpu(0).for_each(drop);
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
                cycles: [0, 1, 255, 256, rng.next_u64() as u32][rng.random_range(0usize..5)],
            },
            3 => Op::Acquire { lock: addr },
            4 => Op::Release { lock: addr },
            _ => Op::Barrier {
                id: rng.next_u64() as u32,
            },
        }
    }

    /// One lane's ops: every encoding edge, shuffled among random filler.
    /// Multi-op chunks stay contiguous so their computes are adjacent.
    fn edge_lane(rng: &mut SplitMix64) -> Vec<Op> {
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
        chunks.push(vec![Op::Compute { cycles: 255 }]);
        chunks.push(vec![Op::Compute { cycles: 256 }]);
        // Saturation, and a 1-byte compute widened to 4 bytes by a merge
        // across a dropped zero.
        chunks.push(vec![
            Op::Compute {
                cycles: u32::MAX - 1,
            },
            Op::Compute { cycles: 10 },
        ]);
        chunks.push(vec![
            Op::Compute { cycles: 200 },
            Op::Compute { cycles: 0 },
            Op::Compute { cycles: 100 },
        ]);
        for _ in 0..rng.random_range(0usize..200) {
            chunks.push(vec![random_op(rng)]);
        }
        for i in (1..chunks.len()).rev() {
            chunks.swap(i, rng.random_range(0..=i));
        }
        chunks.concat()
    }

    /// Seeded random lanes across every encoding edge decode to their
    /// reference sequence through `iter_cpu` and a cursor cloned at a
    /// random op (the checkpoint-fork path), clone and original alike. A
    /// lane is built either by exact pushes (`from_ops`), whose reference
    /// is the pushed sequence, or with the builder's compute policy, whose
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
                assert_eq!(trace.lanes[cpu].pcs.len(), PC_ESCAPE, "table full");
                assert_eq!(trace.ops(cpu), want.len());
                assert!(
                    trace.iter_cpu(cpu).eq(want.iter().copied()),
                    "iter_cpu({cpu})"
                );
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
