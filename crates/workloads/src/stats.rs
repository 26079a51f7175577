//! Static trace statistics, in the style of the SPLASH report's workload
//! tables: operation mix, shared-data footprint and sharing degree,
//! computed from a trace without running the timing model.

use pfsim_mem::{FxHashMap, FxHashSet, Geometry};

use crate::{Op, PackedTrace};

/// Operation mix and sharing profile of one workload.
///
/// # Examples
///
/// ```
/// use pfsim_workloads::{micro, packed_stats};
///
/// let stats = packed_stats(micro::producer_consumer(16, 64).trace());
/// assert_eq!(stats.writes, 64);
/// assert_eq!(stats.reads, 15 * 64);
/// // Every block is written by one cpu and read by 15: fully shared.
/// assert_eq!(stats.shared_blocks, 64);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Shared-data loads.
    pub reads: u64,
    /// Shared-data stores.
    pub writes: u64,
    /// Total compute pclocks.
    pub compute_cycles: u64,
    /// Lock acquires.
    pub acquires: u64,
    /// Barrier episodes (per-processor arrivals summed).
    pub barrier_arrivals: u64,
    /// Distinct 32-byte blocks referenced.
    pub footprint_blocks: u64,
    /// Blocks referenced by more than one processor.
    pub shared_blocks: u64,
    /// Blocks *written* by one processor and *referenced* by another —
    /// the communication footprint that generates coherence misses.
    pub communicated_blocks: u64,
    /// Distinct load/store sites (program counters).
    pub pc_sites: u64,
}

impl TraceStats {
    /// Shared fraction of the footprint.
    pub fn sharing_fraction(&self) -> f64 {
        if self.footprint_blocks == 0 {
            0.0
        } else {
            self.shared_blocks as f64 / self.footprint_blocks as f64
        }
    }

    /// Footprint in bytes (32-byte blocks).
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_blocks * 32
    }
}

/// Per-block sharing record: exact for any processor count (an earlier
/// bitmask encoding aliased cpus ≥ 32 and miscounted sharing on wide
/// meshes).
#[derive(Clone, Copy)]
struct BlockTouch {
    /// The first cpu to touch the block.
    first: u32,
    /// Whether a second, distinct cpu touched it.
    multi: bool,
    /// Whether any cpu wrote it.
    written: bool,
}

/// Computes the static statistics of a packed trace (32-byte blocks),
/// decoding its ops through the borrowed
/// [`iter_cpu`](PackedTrace::iter_cpu) view.
pub fn packed_stats(trace: &PackedTrace) -> TraceStats {
    let g = Geometry::paper();
    let mut stats = TraceStats::default();
    let mut touched: FxHashMap<u64, BlockTouch> = FxHashMap::default();
    let mut pcs: FxHashSet<u32> = FxHashSet::default();

    for lane in 0..trace.num_cpus() {
        let cpu = lane as u32;
        let mut touch = |block: u64, write: bool| {
            let e = touched.entry(block).or_insert(BlockTouch {
                first: cpu,
                multi: false,
                written: false,
            });
            e.multi |= e.first != cpu;
            e.written |= write;
        };
        for op in trace.iter_cpu(lane) {
            match op {
                Op::Read { addr, pc } => {
                    stats.reads += 1;
                    pcs.insert(pc.as_u32());
                    touch(g.block_of(addr).as_u64(), false);
                }
                Op::Write { addr, pc } => {
                    stats.writes += 1;
                    pcs.insert(pc.as_u32());
                    touch(g.block_of(addr).as_u64(), true);
                }
                Op::Compute { cycles } => stats.compute_cycles += u64::from(cycles),
                Op::Acquire { .. } => stats.acquires += 1,
                Op::Release { .. } => {}
                Op::Barrier { .. } => stats.barrier_arrivals += 1,
            }
        }
    }

    stats.footprint_blocks = touched.len() as u64;
    for (_, touch) in touched.sorted_entries() {
        if touch.multi {
            stats.shared_blocks += 1;
            // Communicated: the block is written and more than one
            // processor touches it, so ownership must move.
            if touch.written {
                stats.communicated_blocks += 1;
            }
        }
    }
    stats.pc_sites = pcs.len() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro;

    #[test]
    fn private_walks_share_nothing() {
        let s = packed_stats(micro::sequential_walk(4, 32, 1).trace());
        assert_eq!(s.reads, 4 * 32);
        assert_eq!(s.footprint_blocks, 4 * 32);
        assert_eq!(s.shared_blocks, 0);
        assert_eq!(s.communicated_blocks, 0);
        assert_eq!(s.sharing_fraction(), 0.0);
    }

    #[test]
    fn producer_consumer_is_fully_communicated() {
        let s = packed_stats(micro::producer_consumer(4, 16).trace());
        assert_eq!(s.footprint_blocks, 16);
        assert_eq!(s.shared_blocks, 16);
        assert_eq!(s.communicated_blocks, 16);
        assert_eq!(s.barrier_arrivals, 4);
    }

    #[test]
    fn lock_ping_pong_counts_sync_ops() {
        let s = packed_stats(micro::lock_ping_pong(4, 10).trace());
        assert_eq!(s.acquires, 20);
        assert!(s.shared_blocks >= 1);
    }

    /// Sharing must be detected between cpus past index 31: the old
    /// bitmask encoding aliased every cpu ≥ 31 onto one bit, so a block
    /// shared only between (say) cpus 40 and 41 looked private.
    #[test]
    fn sharing_between_high_cpus_is_detected() {
        let mut b = crate::TraceBuilder::new("hi-cpus", 64);
        let arr = b.alloc("arr", 2, 32);
        let pc = b.pc_site();
        b.write(40, arr, pc);
        b.read(41, arr, pc);
        // Second block stays private to cpu 63.
        let lone = b.element(arr, 32, 1);
        b.read(63, lone, pc);
        let s = packed_stats(&b.finish());
        assert_eq!(s.footprint_blocks, 2);
        assert_eq!(s.shared_blocks, 1);
        assert_eq!(s.communicated_blocks, 1);
    }

    #[test]
    fn apps_have_meaningful_sharing() {
        for app in crate::App::ALL {
            let s = packed_stats(&app.build_packed_for(crate::ProblemSize::Default, 16));
            assert!(s.reads > 0 && s.writes > 0, "{app}");
            assert!(
                s.communicated_blocks > 0,
                "{app} has no communication: {s:?}"
            );
            assert!(s.pc_sites >= 4, "{app}");
        }
    }
}
