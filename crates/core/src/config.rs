//! System configuration (Table 1 of the paper).

use pfsim_cache::SlcConfig;
use pfsim_mem::{Geometry, PagePlacement};
use pfsim_network::MeshConfig;
use pfsim_prefetch::Scheme;

/// Which processors' read-miss streams to record for off-line analysis.
///
/// The paper's §5.1 characterization only considers "requests from one
/// processor ... which has been shown to be representative".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMisses {
    /// Record nothing (fastest).
    #[default]
    None,
    /// Record the miss stream of one processor.
    Cpu(usize),
    /// Record every processor's miss stream.
    All,
}

/// The memory consistency model the processor enforces.
///
/// The paper assumes release consistency (§4): writes retire into the
/// write buffers and the processor only waits for them at releases. The
/// sequential-consistency mode is provided as an ablation of the paper's
/// §1 premise that "the latency of write accesses can easily be hidden by
/// appropriate write buffers and relaxed memory consistency models".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyModel {
    /// Writes are buffered; the processor stalls only at releases and
    /// full buffers (the paper's model).
    #[default]
    Release,
    /// Every write stalls the processor until it is globally performed.
    Sequential,
}

/// Full configuration of the simulated machine.
///
/// [`SystemConfig::paper_baseline`] reproduces Table 1; builder-style
/// methods derive variants (finite SLC, a different prefetching scheme,
/// …).
///
/// # Examples
///
/// ```
/// use pfsim::SystemConfig;
/// use pfsim_prefetch::Scheme;
///
/// let cfg = SystemConfig::paper_baseline()
///     .with_scheme(Scheme::Sequential { degree: 1 })
///     .with_finite_slc(16 * 1024);
/// assert_eq!(cfg.nodes, 16);
/// assert_eq!(cfg.flc_bytes, 4096);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SystemConfig {
    /// Number of processing nodes (16 in the paper).
    pub nodes: u16,
    /// Block and page sizes (32 B / 4 KB).
    pub geometry: Geometry,
    /// First-level cache capacity in bytes (4 KB).
    pub flc_bytes: u64,
    /// First-level write buffer entries (8).
    pub flwb_entries: usize,
    /// Second-level write buffer (MSHR) entries (16).
    pub slwb_entries: usize,
    /// Second-level cache capacity (infinite by default; 16 KB in §5.3).
    pub slc: SlcConfig,
    /// Prefetching scheme attached to each SLC.
    pub scheme: Scheme,
    /// Page-to-home-node placement (round-robin in the paper).
    pub placement: PagePlacement,
    /// Mesh dimensions and router timing.
    pub mesh: MeshConfig,
    /// SLC SRAM service time per access, in pclocks (30 ns SRAM = 3).
    pub slc_service: u64,
    /// FLC fill time, in pclocks (3).
    pub flc_fill: u64,
    /// Directory controller occupancy per request, in pclocks (throughput
    /// limit of the home engine).
    pub dir_occupancy: u64,
    /// Additional directory pipeline latency beyond the occupancy.
    pub dir_extra_latency: u64,
    /// Memory/bus occupancy per access: one 256-bit bus data cycle at
    /// 33 MHz (3 pclocks). The memory itself is fully interleaved, so
    /// throughput is bus-limited, not DRAM-limited.
    pub mem_occupancy: u64,
    /// Additional memory access latency beyond the occupied bus slot
    /// (90 ns DRAM plus the request bus cycle).
    pub mem_extra_latency: u64,
    /// Which processors' miss streams to record.
    pub record_misses: RecordMisses,
    /// The memory consistency model (release consistency in the paper).
    pub consistency: ConsistencyModel,
    /// Maximum pclocks a processor may run ahead of the global event loop
    /// before yielding (bounds timing skew of the inline fast path).
    pub cpu_slice: u64,
    /// Enables the observability registry: event counts by kind,
    /// queue/MSHR occupancy histograms, server utilization and
    /// prefetcher telemetry, snapshotted into
    /// [`SimResult::metrics`](crate::SimResult::metrics). Purely
    /// observational — simulated timing (pclocks) is identical either
    /// way; disabled (the default) it costs one never-taken branch per
    /// event.
    pub instrument: bool,
}

impl SystemConfig {
    /// The paper's fixed architectural parameters (Table 1): 16 nodes,
    /// 4 KB FLC, 32-byte blocks, infinite SLC, 8/16-entry write buffers,
    /// 4×4 mesh, and latencies calibrated so that an FLC read takes
    /// 1 pclock, an SLC read 6 pclocks and a local memory read 28 pclocks
    /// end to end.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            nodes: 16,
            geometry: Geometry::paper(),
            flc_bytes: 4096,
            flwb_entries: 8,
            slwb_entries: 16,
            slc: SlcConfig::infinite(),
            scheme: Scheme::None,
            placement: PagePlacement::round_robin(16),
            mesh: MeshConfig::paper(),
            slc_service: 3,
            flc_fill: 3,
            dir_occupancy: 2,
            dir_extra_latency: 2,
            mem_occupancy: 3,
            mem_extra_latency: 12,
            record_misses: RecordMisses::None,
            consistency: ConsistencyModel::Release,
            cpu_slice: 256,
            instrument: false,
        }
    }

    /// A typed builder starting from the paper baseline.
    ///
    /// # Examples
    ///
    /// ```
    /// use pfsim::SystemConfig;
    /// use pfsim_prefetch::Scheme;
    ///
    /// let cfg = SystemConfig::builder()
    ///     .scheme(Scheme::Sequential { degree: 1 })
    ///     .slc_kb(16)
    ///     .build();
    /// assert_eq!(cfg.scheme, Scheme::Sequential { degree: 1 });
    /// ```
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig::paper_baseline(),
        }
    }

    /// Uses the given consistency model (release consistency is the
    /// paper's assumption; sequential consistency is the ablation).
    pub fn with_consistency(mut self, consistency: ConsistencyModel) -> Self {
        self.consistency = consistency;
        self
    }

    /// Replaces the prefetching scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Uses a finite direct-mapped SLC of `bytes` (the §5.3 study uses
    /// 16 KB).
    pub fn with_finite_slc(mut self, bytes: u64) -> Self {
        self.slc = SlcConfig::direct_mapped(bytes);
        self
    }

    /// Uses a finite set-associative SLC with true LRU (extension beyond
    /// the paper's direct-mapped configuration).
    pub fn with_set_assoc_slc(mut self, bytes: u64, ways: usize) -> Self {
        self.slc = SlcConfig::set_associative(bytes, ways);
        self
    }

    /// Uses coherence blocks of `bytes` (both cache levels), scaling the
    /// memory/bus occupancy with the payload (the 256-bit bus moves 32
    /// bytes per 3-pclock bus cycle). The paper "pessimistically"
    /// evaluates 32-byte blocks and notes larger blocks favour sequential
    /// prefetching; the `ablation_block` experiment measures that.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two dividing the page size.
    pub fn with_block_bytes(mut self, bytes: u64) -> Self {
        self.geometry = Geometry::new(bytes, self.geometry.page_bytes());
        self.mem_occupancy = 3 * bytes.div_ceil(32);
        self
    }

    /// Enables miss-stream recording.
    pub fn with_recording(mut self, record: RecordMisses) -> Self {
        self.record_misses = record;
        self
    }

    /// Enables (or disables) the observability registry.
    pub fn with_instrumentation(mut self, on: bool) -> Self {
        self.instrument = on;
        self
    }

    /// Scales the machine to a `width`×`height` mesh, updating the node
    /// count and the round-robin page placement coherently (the paper
    /// stops at 4×4; the scaling study runs 8×8 and 16×16).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh exceeds the
    /// directory's presence-vector limit
    /// ([`pfsim_coherence::MAX_SHARERS`]).
    pub fn with_mesh_dims(mut self, width: u16, height: u16) -> Self {
        let nodes = width
            .checked_mul(height)
            .filter(|&n| (1..=pfsim_coherence::MAX_SHARERS as u16).contains(&n))
            .unwrap_or_else(|| {
                panic!(
                    "{width}x{height} mesh needs 1..={} nodes",
                    pfsim_coherence::MAX_SHARERS
                )
            });
        self.nodes = nodes;
        self.mesh = MeshConfig::dims(width, height);
        self.placement = PagePlacement::round_robin(nodes);
        self
    }

    /// The end-to-end latency of a read serviced by the SLC, in pclocks
    /// (derived: SLC service + FLC fill = 6 in the paper configuration).
    pub fn slc_read_latency(&self) -> u64 {
        self.slc_service + self.flc_fill
    }

    /// The end-to-end latency of a read serviced by idle local memory, in
    /// pclocks (derived: 28 in the paper configuration).
    pub fn local_memory_read_latency(&self) -> u64 {
        // SLC miss detection + directory + bus/memory + SLC fill pass +
        // FLC fill.
        self.slc_service
            + self.dir_occupancy
            + self.dir_extra_latency
            + self.mem_occupancy
            + self.mem_extra_latency
            + self.slc_service
            + self.flc_fill
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_baseline()
    }
}

/// Typed builder for [`SystemConfig`], produced by
/// [`SystemConfig::builder`].
///
/// Starts from [`SystemConfig::paper_baseline`] and applies the studied
/// variations by name, so experiment code never mutates configuration
/// fields positionally.
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Selects the prefetching scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Uses a finite direct-mapped SLC of `kb` kilobytes (§5.3 uses 16).
    pub fn slc_kb(mut self, kb: u64) -> Self {
        self.cfg.slc = SlcConfig::direct_mapped(kb * 1024);
        self
    }

    /// Uses coherence blocks of `bytes`, scaling the bus occupancy (see
    /// [`SystemConfig::with_block_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two dividing the page size.
    pub fn block_bytes(mut self, bytes: u64) -> Self {
        self.cfg = self.cfg.with_block_bytes(bytes);
        self
    }

    /// Scales the machine to a `width`×`height` mesh, updating the node
    /// count and the round-robin page placement coherently (the paper
    /// stops at 4×4; the scaling study runs 8×8 and 16×16).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh exceeds the
    /// directory's presence-vector limit
    /// ([`pfsim_coherence::MAX_SHARERS`]).
    pub fn mesh_dims(mut self, width: u16, height: u16) -> Self {
        self.cfg = self.cfg.with_mesh_dims(width, height);
        self
    }

    /// Selects the memory consistency model.
    pub fn consistency(mut self, model: ConsistencyModel) -> Self {
        self.cfg.consistency = model;
        self
    }

    /// Enables miss-stream recording.
    pub fn record_misses(mut self, record: RecordMisses) -> Self {
        self.cfg.record_misses = record;
        self
    }

    /// Enables (or disables) the observability registry.
    pub fn instrument(mut self, on: bool) -> Self {
        self.cfg.instrument = on;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> SystemConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_1() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.nodes, 16);
        assert_eq!(c.flc_bytes, 4096);
        assert_eq!(c.geometry.block_bytes(), 32);
        assert_eq!(c.flwb_entries, 8);
        assert_eq!(c.slwb_entries, 16);
        assert_eq!(c.mesh.nodes(), 16);
        assert_eq!(c.slc_read_latency(), 6);
        assert_eq!(c.local_memory_read_latency(), 28);
    }

    #[test]
    fn typed_builder_composes() {
        let c = SystemConfig::builder()
            .scheme(Scheme::DDetection { degree: 2 })
            .slc_kb(16)
            .consistency(ConsistencyModel::Sequential)
            .record_misses(RecordMisses::Cpu(5))
            .instrument(true)
            .build();
        assert_eq!(c.scheme, Scheme::DDetection { degree: 2 });
        assert_eq!(c.slc, SlcConfig::direct_mapped(16 * 1024));
        assert_eq!(c.consistency, ConsistencyModel::Sequential);
        assert_eq!(c.record_misses, RecordMisses::Cpu(5));
        assert!(c.instrument);

        let c = SystemConfig::builder().block_bytes(64).build();
        assert_eq!(c.slc, SlcConfig::infinite());
        assert_eq!(c.geometry.block_bytes(), 64);
        assert_eq!(c.mem_occupancy, 6);
    }

    #[test]
    fn mesh_dims_scales_nodes_and_placement() {
        let c = SystemConfig::builder().mesh_dims(8, 8).build();
        assert_eq!(c.nodes, 64);
        assert_eq!(c.mesh, MeshConfig::dims(8, 8));
        assert_eq!(c.placement, PagePlacement::round_robin(64));
        // Router timing is unchanged from the paper's mesh.
        assert_eq!(c.mesh.fall_through, MeshConfig::paper().fall_through);

        let c = SystemConfig::builder().mesh_dims(16, 16).build();
        assert_eq!(c.nodes, 256);
    }

    #[test]
    #[should_panic(expected = "mesh needs")]
    fn mesh_dims_rejects_oversized_meshes() {
        let _ = SystemConfig::builder().mesh_dims(32, 32);
    }

    #[test]
    fn builder_methods_compose() {
        let c = SystemConfig::paper_baseline()
            .with_scheme(Scheme::IDetection { degree: 1 })
            .with_finite_slc(16 * 1024)
            .with_recording(RecordMisses::Cpu(0));
        assert_eq!(c.scheme, Scheme::IDetection { degree: 1 });
        assert_eq!(c.slc, SlcConfig::direct_mapped(16 * 1024));
        assert_eq!(c.record_misses, RecordMisses::Cpu(0));
    }
}
