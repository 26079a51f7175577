//! The shared-memory operation vocabulary and the workload interface the
//! simulator consumes it through.

use pfsim_mem::{Addr, Pc};

/// One operation issued by a simulated processor.
///
/// Instructions and private data are simulated as always hitting in the
/// first-level cache, exactly as in the paper's methodology; they appear
/// here only in aggregate as [`Op::Compute`] delays. Shared-data references
/// carry the program counter of the issuing load/store so I-detection can
/// key its Reference Prediction Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A load from shared memory.
    Read {
        /// Byte address.
        addr: Addr,
        /// Instruction address of the load.
        pc: Pc,
    },
    /// A store to shared memory.
    Write {
        /// Byte address.
        addr: Addr,
        /// Instruction address of the store.
        pc: Pc,
    },
    /// Local computation: the processor is busy for `cycles` pclocks.
    Compute {
        /// Duration in pclocks.
        cycles: u32,
    },
    /// Acquire the queue-based lock at `lock` (blocks until granted).
    Acquire {
        /// Address identifying the lock (its home node holds the queue).
        lock: Addr,
    },
    /// Release the lock at `lock` (a release under release consistency:
    /// all prior writes must complete first).
    Release {
        /// Address identifying the lock.
        lock: Addr,
    },
    /// Wait at barrier `id` until all participants arrive.
    Barrier {
        /// Barrier identifier.
        id: u32,
    },
}

// Every simulated op travels by value as an `Option<Op>` from
// `Workload::next` to the simulator's CPU step, so `Op` must stay at 16
// bytes: 4-byte discriminant + packed-to-4 `Addr` + `Pc`. If this fires, a
// payload grew or `Addr` lost its `repr(packed(4))`.
const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// A per-processor stream of operations.
///
/// The full-system simulator pulls operations with [`next`](Self::next);
/// the *timing* of consumption is the simulator's business, so the same
/// workload produces the same reference streams under every architecture
/// configuration — the property the paper's program-driven methodology
/// guarantees and this reproduction preserves by construction. The one
/// implementation is [`TraceCursor`](crate::TraceCursor), which replays a
/// packed trace.
pub trait Workload {
    /// Number of processors the workload was built for.
    fn num_cpus(&self) -> usize;

    /// The next operation for `cpu`, or `None` when that processor's
    /// parallel section is done.
    fn next(&mut self, cpu: usize) -> Option<Op>;

    /// Workload name for reports.
    fn name(&self) -> &str;

    /// Total operations across all processors (consumed or not), for
    /// throughput reporting.
    fn total_ops(&self) -> usize;
}
