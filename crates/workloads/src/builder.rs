//! The builder the workload generators use to emit traces.

use pfsim_mem::{Addr, ArrayLayout, Geometry, Pc};

use crate::packed::{PackedLane, PackedTrace};
use crate::Op;

/// Accumulates per-processor operation streams plus the shared data layout.
///
/// The builder hands out page-aligned shared allocations (via
/// [`ArrayLayout`]), stable program counters per load/store site (so
/// I-detection sees the same instruction addresses a compiled binary would
/// produce), and global barrier identifiers.
///
/// # Examples
///
/// ```
/// use pfsim_workloads::TraceBuilder;
///
/// let mut b = TraceBuilder::new("example", 2);
/// let a = b.alloc("A", 100, 8);
/// let pc_load = b.pc_site();
/// for i in 0..10 {
///     b.read(0, b.element(a, 8, i), pc_load);
/// }
/// b.barrier_all();
/// let trace = b.finish();
/// assert_eq!(trace.num_cpus(), 2);
/// assert_eq!(trace.total_ops(), 12); // 10 reads + 2 barrier ops
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    name: String,
    lanes: Vec<PackedLane>,
    layout: ArrayLayout,
    next_pc: u32,
    next_barrier: u32,
}

impl TraceBuilder {
    /// Creates a builder for `cpus` processors using the paper's geometry.
    pub fn new(name: impl Into<String>, cpus: usize) -> Self {
        TraceBuilder {
            name: name.into(),
            lanes: vec![PackedLane::default(); cpus],
            layout: ArrayLayout::new(Geometry::paper()),
            // Leave low "text addresses" for manually chosen PCs.
            next_pc: 0x0010_0000,
            next_barrier: 0,
        }
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.lanes.len()
    }

    /// Allocates a page-aligned shared region of `count` × `element_bytes`.
    pub fn alloc(&mut self, name: &'static str, count: u64, element_bytes: u64) -> Addr {
        self.layout.alloc(name, count, element_bytes)
    }

    /// Address of element `index` in an array at `base`.
    pub fn element(&self, base: Addr, element_bytes: u64, index: u64) -> Addr {
        self.layout.element(base, element_bytes, index)
    }

    /// Address of `field_offset` within element `index` of a struct array.
    pub fn field(&self, base: Addr, element_bytes: u64, index: u64, field_offset: u64) -> Addr {
        self.layout.field(base, element_bytes, index, field_offset)
    }

    /// Allocates a fresh program-counter value for a load/store site.
    ///
    /// Each static load or store in the modelled program gets exactly one
    /// site, mirroring compiled code.
    pub fn pc_site(&mut self) -> Pc {
        let pc = Pc::new(self.next_pc);
        self.next_pc += 4;
        pc
    }

    /// Emits a load on `cpu`.
    pub fn read(&mut self, cpu: usize, addr: Addr, pc: Pc) {
        self.lanes[cpu].push(Op::Read { addr, pc });
    }

    /// Emits a store on `cpu`.
    pub fn write(&mut self, cpu: usize, addr: Addr, pc: Pc) {
        self.lanes[cpu].push(Op::Write { addr, pc });
    }

    /// Emits local computation on `cpu`. Zero-cycle computes are dropped;
    /// consecutive computes coalesce to keep traces compact (and to keep
    /// `total_ops` an honest issue count).
    pub fn compute(&mut self, cpu: usize, cycles: u32) {
        self.lanes[cpu].compute(cycles);
    }

    /// Emits a lock acquire on `cpu`.
    pub fn acquire(&mut self, cpu: usize, lock: Addr) {
        self.lanes[cpu].push(Op::Acquire { lock });
    }

    /// Emits a lock release on `cpu`.
    pub fn release(&mut self, cpu: usize, lock: Addr) {
        self.lanes[cpu].push(Op::Release { lock });
    }

    /// Emits a barrier across *all* processors and returns its id.
    pub fn barrier_all(&mut self) -> u32 {
        let id = self.next_barrier;
        self.next_barrier += 1;
        for lane in &mut self.lanes {
            lane.push(Op::Barrier { id });
        }
        id
    }

    /// Finalizes the builder into its packed trace: wrap the result in an
    /// `Arc` and replay it through any number of
    /// [`TraceCursor`](crate::TraceCursor)s.
    pub fn finish(self) -> PackedTrace {
        PackedTrace::from_lanes(self.name, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceCursor, Workload};

    #[test]
    fn pc_sites_are_distinct_and_stable() {
        let mut b = TraceBuilder::new("t", 1);
        let a = b.pc_site();
        let c = b.pc_site();
        assert_ne!(a, c);
        assert_eq!(c.as_u32() - a.as_u32(), 4);
    }

    #[test]
    fn computes_coalesce() {
        let mut b = TraceBuilder::new("t", 1);
        b.compute(0, 2);
        b.compute(0, 3);
        b.compute(0, 0);
        let pc = b.pc_site();
        b.read(0, Addr::new(0x1000), pc);
        b.compute(0, 1);
        let trace = b.finish();
        assert_eq!(trace.ops(0), 3);
        assert_eq!(trace.iter_cpu(0).next(), Some(Op::Compute { cycles: 5 }));
    }

    #[test]
    fn barrier_reaches_every_cpu_with_same_id() {
        let mut b = TraceBuilder::new("t", 4);
        let id0 = b.barrier_all();
        let id1 = b.barrier_all();
        assert_ne!(id0, id1);
        let mut wl = TraceCursor::new(b.finish());
        for cpu in 0..4 {
            assert_eq!(wl.next(cpu), Some(Op::Barrier { id: id0 }));
            assert_eq!(wl.next(cpu), Some(Op::Barrier { id: id1 }));
        }
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut b = TraceBuilder::new("t", 1);
        let a = b.alloc("a", 512, 8);
        let c = b.alloc("c", 512, 8);
        assert!(c.as_u64() >= a.as_u64() + 4096);
    }
}
