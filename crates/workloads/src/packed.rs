//! Packed struct-of-arrays trace encoding shared zero-copy across runs.
//!
//! The paper's program-driven methodology replays the *same* reference
//! stream under every architecture configuration (§4). A materialized
//! [`Vec<Op>`](crate::Op) honors that but costs 16 bytes per operation and
//! one private copy per run. [`PackedTrace`] encodes each processor's
//! stream as two parallel arrays — a 1-byte opcode stream and a
//! fixed-width `u32` payload stream — so a shared-read amounts to 9 bytes
//! and a whole six-application trace set fits comfortably under 10
//! amortized bytes per operation. The trace is immutable after
//! construction; N concurrent runs each hold a [`TraceCursor`] over one
//! `Arc<PackedTrace>` and decode independently with zero copies.
//!
//! Addresses are stored as one `u32` word when they fit (every generator's
//! allocations start at page 1 and stay far below 4 GiB) with a
//! wide-opcode escape carrying a second high word, so the format loses no
//! generality over the 64-bit [`Addr`](pfsim_mem::Addr) space.

use std::sync::Arc;

use pfsim_mem::{Addr, Pc};

use crate::{Op, TraceWorkload, Workload};

/// Opcode bytes of the packed encoding. The `_WIDE` variants carry an
/// extra high `u32` for addresses that do not fit in one payload word.
mod opcode {
    pub const READ: u8 = 0;
    pub const READ_WIDE: u8 = 1;
    pub const WRITE: u8 = 2;
    pub const WRITE_WIDE: u8 = 3;
    pub const COMPUTE: u8 = 4;
    pub const ACQUIRE: u8 = 5;
    pub const ACQUIRE_WIDE: u8 = 6;
    pub const RELEASE: u8 = 7;
    pub const RELEASE_WIDE: u8 = 8;
    pub const BARRIER: u8 = 9;
}

/// One processor's packed streams.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PackedLane {
    pub(crate) opcodes: Vec<u8>,
    pub(crate) payload: Vec<u32>,
}

impl PackedLane {
    /// Appends `op`, coalescing into a preceding `Compute` when possible.
    ///
    /// Zero-cycle computes are dropped and back-to-back computes merge
    /// into one op (saturating), so `total_ops` counts what a processor
    /// actually issues rather than how chatty the generator was.
    pub(crate) fn push(&mut self, op: Op) {
        match op {
            Op::Read { addr, pc } => self.push_mem(opcode::READ, addr, Some(pc)),
            Op::Write { addr, pc } => self.push_mem(opcode::WRITE, addr, Some(pc)),
            Op::Compute { cycles } => {
                if cycles == 0 {
                    return;
                }
                if self.opcodes.last() == Some(&opcode::COMPUTE) {
                    let prev = self.payload.last_mut().expect("compute has payload");
                    *prev = prev.saturating_add(cycles);
                    return;
                }
                self.opcodes.push(opcode::COMPUTE);
                self.payload.push(cycles);
            }
            Op::Acquire { lock } => self.push_mem(opcode::ACQUIRE, lock, None),
            Op::Release { lock } => self.push_mem(opcode::RELEASE, lock, None),
            Op::Barrier { id } => {
                self.opcodes.push(opcode::BARRIER);
                self.payload.push(id);
            }
        }
    }

    /// Emits an address-carrying op. `base` must be a narrow opcode whose
    /// wide escape is `base + 1`.
    fn push_mem(&mut self, base: u8, addr: Addr, pc: Option<Pc>) {
        let raw = addr.as_u64();
        let lo = raw as u32;
        let hi = (raw >> 32) as u32;
        if hi == 0 {
            self.opcodes.push(base);
            self.payload.push(lo);
        } else {
            self.opcodes.push(base + 1);
            self.payload.push(lo);
            self.payload.push(hi);
        }
        if let Some(pc) = pc {
            self.payload.push(pc.as_u32());
        }
    }

    fn packed_bytes(&self) -> usize {
        self.opcodes.len() + 4 * self.payload.len()
    }
}

/// Decodes the op at `op_idx`/`payload_idx`; returns it plus the payload
/// index of the following op. Callers guarantee `op_idx` is in bounds.
#[inline]
fn decode(opcodes: &[u8], payload: &[u32], op_idx: usize, payload_idx: usize) -> (Op, usize) {
    /// The op's payload words as a fixed-size array: one range check per
    /// decoded op (the `try_into` length test folds away).
    #[inline]
    fn words<const N: usize>(payload: &[u32], at: usize) -> [u32; N] {
        payload[at..at + N].try_into().expect("sized by the range")
    }
    let wide = |lo: u32, hi: u32| Addr::new(lo as u64 | (hi as u64) << 32);
    match opcodes[op_idx] {
        opcode::READ => {
            let [lo, pc] = words(payload, payload_idx);
            (
                Op::Read {
                    addr: Addr::new(lo as u64),
                    pc: Pc::new(pc),
                },
                payload_idx + 2,
            )
        }
        opcode::READ_WIDE => {
            let [lo, hi, pc] = words(payload, payload_idx);
            (
                Op::Read {
                    addr: wide(lo, hi),
                    pc: Pc::new(pc),
                },
                payload_idx + 3,
            )
        }
        opcode::WRITE => {
            let [lo, pc] = words(payload, payload_idx);
            (
                Op::Write {
                    addr: Addr::new(lo as u64),
                    pc: Pc::new(pc),
                },
                payload_idx + 2,
            )
        }
        opcode::WRITE_WIDE => {
            let [lo, hi, pc] = words(payload, payload_idx);
            (
                Op::Write {
                    addr: wide(lo, hi),
                    pc: Pc::new(pc),
                },
                payload_idx + 3,
            )
        }
        opcode::COMPUTE => {
            let [cycles] = words(payload, payload_idx);
            (Op::Compute { cycles }, payload_idx + 1)
        }
        opcode::ACQUIRE => {
            let [lo] = words(payload, payload_idx);
            (
                Op::Acquire {
                    lock: Addr::new(lo as u64),
                },
                payload_idx + 1,
            )
        }
        opcode::ACQUIRE_WIDE => {
            let [lo, hi] = words(payload, payload_idx);
            (Op::Acquire { lock: wide(lo, hi) }, payload_idx + 2)
        }
        opcode::RELEASE => {
            let [lo] = words(payload, payload_idx);
            (
                Op::Release {
                    lock: Addr::new(lo as u64),
                },
                payload_idx + 1,
            )
        }
        opcode::RELEASE_WIDE => {
            let [lo, hi] = words(payload, payload_idx);
            (Op::Release { lock: wide(lo, hi) }, payload_idx + 2)
        }
        opcode::BARRIER => {
            let [id] = words(payload, payload_idx);
            (Op::Barrier { id }, payload_idx + 1)
        }
        other => unreachable!("corrupt packed trace: opcode {other}"),
    }
}

/// An immutable packed trace: per-CPU opcode + payload streams.
///
/// Built by [`TraceBuilder::finish_packed`](crate::TraceBuilder::finish_packed)
/// and shared across runs behind an [`Arc`]. Decode back to [`Op`]s with
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
/// let trace = std::sync::Arc::new(b.finish_packed());
/// assert_eq!(trace.total_ops(), 3); // one read + two barrier arrivals
/// assert!(trace.bytes_per_op() <= 10.0);
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
        self.lanes[cpu].opcodes.len()
    }

    /// Total operations across all processors.
    pub fn total_ops(&self) -> usize {
        self.lanes.iter().map(|l| l.opcodes.len()).sum()
    }

    /// Resident bytes of the packed streams (opcodes + payload words).
    pub fn packed_bytes(&self) -> usize {
        self.lanes.iter().map(PackedLane::packed_bytes).sum()
    }

    /// Amortized resident bytes per operation.
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
    /// ops straight out of the packed arrays without materializing a
    /// `Vec<Op>`.
    pub fn iter_cpu(&self, cpu: usize) -> OpIter<'_> {
        let lane = &self.lanes[cpu];
        OpIter {
            opcodes: &lane.opcodes,
            payload: &lane.payload,
            op_idx: 0,
            payload_idx: 0,
        }
    }

    /// Decodes the whole trace into a materialized [`TraceWorkload`].
    ///
    /// Exists for compatibility and for differential tests; experiment
    /// code should replay through a [`TraceCursor`] instead.
    pub fn materialize(&self) -> TraceWorkload {
        let traces = (0..self.num_cpus())
            .map(|cpu| self.iter_cpu(cpu).collect())
            .collect();
        TraceWorkload::new(self.name.clone(), traces)
    }
}

/// Borrowed iterator decoding one processor's packed stream into [`Op`]s.
#[derive(Debug, Clone)]
pub struct OpIter<'a> {
    opcodes: &'a [u8],
    payload: &'a [u32],
    op_idx: usize,
    payload_idx: usize,
}

impl Iterator for OpIter<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.op_idx >= self.opcodes.len() {
            return None;
        }
        let (op, next_payload) = decode(self.opcodes, self.payload, self.op_idx, self.payload_idx);
        self.op_idx += 1;
        self.payload_idx = next_payload;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.opcodes.len() - self.op_idx;
        (left, Some(left))
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
    /// Per-CPU `(op index, payload index)` positions.
    cursors: Vec<(usize, usize)>,
}

impl TraceCursor {
    /// Creates a cursor at the start of `trace`.
    pub fn new(trace: Arc<PackedTrace>) -> Self {
        let cursors = vec![(0, 0); trace.num_cpus()];
        TraceCursor { trace, cursors }
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
        self.cursors.iter_mut().for_each(|c| *c = (0, 0));
    }
}

impl Workload for TraceCursor {
    fn num_cpus(&self) -> usize {
        self.trace.num_cpus()
    }

    #[inline]
    fn next(&mut self, cpu: usize) -> Option<Op> {
        let (op_idx, payload_idx) = self.cursors[cpu];
        let lane = &self.trace.lanes[cpu];
        if op_idx >= lane.opcodes.len() {
            return None;
        }
        let (op, next_payload) = decode(&lane.opcodes, &lane.payload, op_idx, payload_idx);
        self.cursors[cpu] = (op_idx + 1, next_payload);
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
        lane.push(Op::Compute { cycles: 2 });
        lane.push(Op::Compute { cycles: 3 });
        lane.push(Op::Compute { cycles: 0 });
        lane.push(Op::Barrier { id: 0 });
        lane.push(Op::Compute { cycles: 1 });
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
        lane.push(Op::Compute {
            cycles: u32::MAX - 1,
        });
        lane.push(Op::Compute { cycles: 10 });
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(decoded, vec![Op::Compute { cycles: u32::MAX }]);
    }

    #[test]
    fn narrow_read_costs_nine_bytes() {
        let mut lane = PackedLane::default();
        lane.push(Op::Read {
            addr: Addr::new(0x1000),
            pc: Pc::new(0x40),
        });
        let trace = PackedTrace::from_lanes("t".into(), vec![lane]);
        assert_eq!(trace.packed_bytes(), 9);
        assert_eq!(trace.bytes_per_op(), 9.0);
    }

    #[test]
    fn materialize_matches_iterator() {
        let ops = sample_ops();
        let trace = pack(&ops);
        let wl = trace.materialize();
        assert_eq!(wl.trace(0), &ops[..]);
        assert_eq!(wl.total_ops(), trace.total_ops());
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
