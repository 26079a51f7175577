//! Statistics collected by the full-system simulator.

use pfsim_coherence::DirStats;
use pfsim_engine::MetricsSnapshot;
use pfsim_mem::{BlockAddr, Pc};
use pfsim_network::NetStats;

/// Why a read miss happened at the SLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissCause {
    /// First reference to the block by this node.
    Cold,
    /// The block was previously invalidated by the coherence protocol.
    Coherence,
    /// The block was previously displaced by a conflicting fill (finite
    /// SLC only).
    Replacement,
}

/// One recorded read miss, for off-line §5.1-style characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissRecord {
    /// Program counter of the missing load.
    pub pc: Pc,
    /// Byte address of the access (block-aligned analysis derives the
    /// block itself).
    pub addr: pfsim_mem::Addr,
    /// Block that missed.
    pub block: BlockAddr,
    /// Miss classification.
    pub cause: MissCause,
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Shared-data loads issued.
    pub reads: u64,
    /// Shared-data stores issued.
    pub writes: u64,
    /// Loads that hit the FLC.
    pub flc_read_hits: u64,
    /// Loads that missed the FLC but hit the SLC.
    pub slc_read_hits: u64,
    /// Of those, hits on prefetched-tagged blocks.
    pub tagged_hits: u64,
    /// Demand read misses: the block was absent with no transaction in
    /// flight (the paper's "number of read misses").
    pub read_misses: u64,
    /// Demand reads that merged into an in-flight transaction (stall
    /// shortened, block arriving). Reads merging into an in-flight
    /// *prefetch* also count the prefetch as useful.
    pub delayed_hits: u64,
    /// Cycles the processor was stalled on reads beyond the 1-pclock FLC
    /// access (the paper's "read stall time").
    pub read_stall: u64,
    /// Cycles stalled acquiring locks or performing releases.
    pub sync_stall: u64,
    /// Cycles stalled on writes (zero under release consistency except
    /// for buffer-full stalls; the sequential-consistency ablation fills
    /// this in).
    pub write_stall: u64,
    /// Cycles stalled at barriers.
    pub barrier_stall: u64,
    /// Cycles stalled because the FLWB was full.
    pub flwb_stall: u64,
    /// Prefetch requests actually sent to the memory system.
    pub prefetches_issued: u64,
    /// Prefetched blocks consumed by a demand reference (tagged hits plus
    /// demand merges into in-flight prefetches).
    pub prefetches_useful: u64,
    /// Prefetch candidates dropped: block already in the SLC.
    pub pf_dropped_present: u64,
    /// Prefetch candidates dropped: transaction already in flight.
    pub pf_dropped_inflight: u64,
    /// Prefetch candidates dropped: SLWB full.
    pub pf_dropped_full: u64,
    /// Cold misses.
    pub cold_misses: u64,
    /// Coherence misses.
    pub coherence_misses: u64,
    /// Replacement misses.
    pub replacement_misses: u64,
    /// Invalidations received from the directory.
    pub invals_received: u64,
    /// Dirty blocks written back on replacement.
    pub writebacks: u64,
    /// `SlcWork` events that fired with nothing to do (stale wakeups left
    /// behind when an earlier event already serviced the queue). A
    /// scheduling-efficiency diagnostic: each one is a wasted trip through
    /// the event loop.
    pub spurious_slc_wakeups: u64,
    /// `SlcWork` events that served no job and only re-armed service for
    /// an FLWB head the processor issued ahead of the event loop: the
    /// wakeup at the head's issue time does the work. A scheduling
    /// diagnostic like `spurious_slc_wakeups`.
    pub parked_slc_wakeups: u64,
}

impl NodeStats {
    /// Prefetch efficiency: useful / issued (1.0 when none were issued).
    pub fn prefetch_efficiency(&self) -> f64 {
        if self.prefetches_issued == 0 {
            1.0
        } else {
            self.prefetches_useful as f64 / self.prefetches_issued as f64
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated execution time of the parallel section, in pclocks.
    pub exec_cycles: u64,
    /// Per-node counters.
    pub nodes: Vec<NodeStats>,
    /// Network traffic.
    pub net: NetStats,
    /// Aggregated directory statistics.
    pub dir: DirStats,
    /// Recorded miss streams (empty unless recording was enabled),
    /// indexed by node.
    pub miss_traces: Vec<Vec<MissRecord>>,
    /// Observability registry snapshot (`None` unless
    /// [`SystemConfig::instrument`](crate::SystemConfig) was set):
    /// event counts by kind, queue/MSHR occupancy histograms, server
    /// and link utilization, prefetcher telemetry.
    pub metrics: Option<MetricsSnapshot>,
}

impl SimResult {
    /// The Figure-6 aggregate metrics of this run, ready for
    /// [`pfsim_analysis::compare`].
    pub fn run_metrics(&self) -> pfsim_analysis::RunMetrics {
        pfsim_analysis::RunMetrics {
            read_misses: self.read_misses(),
            read_stall: self.read_stall(),
            prefetches_issued: self.total(|n| n.prefetches_issued),
            prefetches_useful: self.total(|n| n.prefetches_useful),
            flits: self.net.flits,
            exec_cycles: self.exec_cycles,
        }
    }

    /// The recorded miss stream of `cpu` as classifier input for
    /// [`pfsim_analysis::characterize`], borrowed straight off the records
    /// (empty unless recording was enabled for that processor).
    pub fn miss_events(&self, cpu: usize) -> impl Iterator<Item = pfsim_analysis::MissEvent> + '_ {
        self.miss_traces[cpu]
            .iter()
            .map(|m| pfsim_analysis::MissEvent {
                pc: m.pc,
                block: m.block,
            })
    }

    /// Sum of a per-node counter over all nodes.
    pub fn total(&self, f: impl Fn(&NodeStats) -> u64) -> u64 {
        self.nodes.iter().map(f).sum()
    }

    /// Total demand read misses across all nodes.
    pub fn read_misses(&self) -> u64 {
        self.total(|n| n.read_misses)
    }

    /// Total `SlcWork` events that found nothing to do, across all nodes.
    pub fn spurious_slc_wakeups(&self) -> u64 {
        self.total(|n| n.spurious_slc_wakeups)
    }

    /// Total `SlcWork` events that only re-armed service for a
    /// future-issued FLWB head, across all nodes.
    pub fn parked_slc_wakeups(&self) -> u64 {
        self.total(|n| n.parked_slc_wakeups)
    }

    /// Total read stall cycles across all nodes.
    pub fn read_stall(&self) -> u64 {
        self.total(|n| n.read_stall)
    }

    /// System-wide prefetch efficiency (1.0 when nothing was prefetched).
    pub fn prefetch_efficiency(&self) -> f64 {
        let issued = self.total(|n| n.prefetches_issued);
        if issued == 0 {
            1.0
        } else {
            self.total(|n| n.prefetches_useful) as f64 / issued as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_handles_zero_issued() {
        let s = NodeStats::default();
        assert_eq!(s.prefetch_efficiency(), 1.0);
    }

    #[test]
    fn efficiency_ratio() {
        let s = NodeStats {
            prefetches_issued: 10,
            prefetches_useful: 7,
            ..Default::default()
        };
        assert!((s.prefetch_efficiency() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn result_totals_sum_nodes() {
        let r = SimResult {
            exec_cycles: 100,
            nodes: vec![
                NodeStats {
                    read_misses: 3,
                    ..Default::default()
                },
                NodeStats {
                    read_misses: 4,
                    ..Default::default()
                },
            ],
            net: Default::default(),
            dir: Default::default(),
            miss_traces: vec![],
            metrics: None,
        };
        assert_eq!(r.read_misses(), 7);
    }
}
