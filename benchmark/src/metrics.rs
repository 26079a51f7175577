//! The metric tables: what a timed run reports end to end, what a traced
//! run reports per layer, and which end-to-end metric on which workload
//! each layer metric should move. `BENCHMARK.json` lists the same names,
//! units and bounds; `tests/schema.rs` holds the two in agreement.

/// An end-to-end metric of a timed run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric. A cell that misses its anchor is not a metric
/// here (it is never nonzero on a correct build): it is the run's `failed`
/// count, and it makes the run exit nonzero.
///
/// The time bounds are wide because shared hosts are noisy: on a 2-vCPU
/// Xeon virtual machine the IQR of `wall_s` over ten seeded runs reached 9%
/// of its median, and the host's speed drifted by about 10% over tens of
/// minutes, while a bound should stay at least three times the spread.
pub const END_TO_END: [EndToEnd; 4] = [
    // One full grid pass — `Runner::execute`, `write_manifest`,
    // `validate_manifest` — the time a user waits; see
    // `TimedRun::typical_pass_s`.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    // The grid's simulated pclocks over `wall_s`.
    EndToEnd {
        name: "pclocks_per_s",
        unit: "pclocks/s",
        higher_is_better: true,
        bound: 0.25,
    },
    // The median of uncached generations of the workload's trace set.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    // `VmHWM` of the process that ran the workload.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// A per-layer metric of a traced run. Layers are named by crate
/// directory.
#[derive(Debug)]
pub struct Layer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
    /// The `(end-to-end metric, workload)` pairs a change in this layer
    /// should move, most affected first; empty when no workload is
    /// expected to move.
    pub moves: &'static [(&'static str, &'static str)],
}

const LARGE: (&str, &str) = ("wall_s", "fig6-large");
const DEFAULT: (&str, &str) = ("wall_s", "fig6-default");
const FAMILIES: (&str, &str) = ("wall_s", "families-8x8");
const FINITE: (&str, &str) = ("wall_s", "fig6-finite16k");
const EVERY: &[(&str, &str)] = &[DEFAULT, LARGE, FAMILIES, FINITE];

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
        moves,
    }
}

/// Every per-layer metric, in report order.
pub const PER_LAYER: [Layer; 33] = [
    layer("workloads.decode_ns_per_op", "ns", false, &[LARGE]),
    layer(
        "workloads.gen_ns_per_op",
        "ns",
        false,
        &[("setup_s", "fig6-large")],
    ),
    layer(
        "workloads.packed_bytes_per_op",
        "B",
        false,
        &[("peak_rss_mb", "fig6-large")],
    ),
    layer(
        "sim-engine.events_per_op",
        "count",
        false,
        &[LARGE, DEFAULT],
    ),
    layer(
        "sim-engine.queue_depth_mean",
        "count",
        false,
        &[LARGE, DEFAULT],
    ),
    layer(
        "sim-engine.queue_ns_per_event",
        "ns",
        false,
        &[LARGE, DEFAULT],
    ),
    layer("cache.slc_ops_per_op", "count", false, &[LARGE, FINITE]),
    layer("cache.slc_ns_per_access", "ns", false, &[LARGE, FINITE]),
    layer("cache.slc_hit_ratio", "ratio", true, &[LARGE, FINITE]),
    layer("cache.evictions", "count", false, &[FINITE]),
    layer(
        "cache.mshr_occupancy_mean",
        "count",
        false,
        &[LARGE, FINITE],
    ),
    layer(
        "coherence.dir_requests_per_op",
        "count",
        false,
        &[DEFAULT, FAMILIES],
    ),
    layer(
        "coherence.dir_ns_per_request",
        "ns",
        false,
        &[DEFAULT, FAMILIES],
    ),
    layer(
        "coherence.invalidations",
        "count",
        false,
        &[DEFAULT, FAMILIES],
    ),
    layer("network.messages_per_op", "count", false, &[FAMILIES]),
    layer("network.flit_hops_per_message", "count", false, &[FAMILIES]),
    layer(
        "network.queuing_cycles_per_message",
        "count",
        false,
        &[FAMILIES],
    ),
    layer("network.mesh_ns_per_send", "ns", false, &[FAMILIES]),
    layer("prefetch.issued", "count", false, &[DEFAULT, LARGE]),
    layer("prefetch.useful", "count", true, &[DEFAULT, LARGE]),
    layer("prefetch.efficiency", "ratio", true, &[DEFAULT, LARGE]),
    layer("prefetch.dropped", "count", false, &[DEFAULT, LARGE]),
    layer("prefetch.idet_ns_per_read", "ns", false, &[DEFAULT, LARGE]),
    layer("prefetch.ddet_ns_per_read", "ns", false, &[DEFAULT, LARGE]),
    layer("prefetch.seq_ns_per_read", "ns", false, &[DEFAULT, LARGE]),
    layer("core.read_stall_share", "ratio", false, EVERY),
    layer("core.residual_ns_per_op", "ns", false, EVERY),
    layer("core.cell_s_max", "s", false, EVERY),
    // The oracle only runs under `PFSIM_CHECK`, which no timed workload
    // sets: no end-to-end metric moves with it today.
    layer("check.oracle_ns_per_op", "ns", false, &[]),
    layer("bench.manifest_write_ms", "ms", false, &[FAMILIES]),
    layer("bench.manifest_validate_ms", "ms", false, &[FAMILIES]),
    layer("bench.manifest_bytes", "B", false, &[FAMILIES]),
    // The recording pass's cost over the untraced pass: reported, never a
    // target.
    layer("trace.overhead_pct", "%", false, &[]),
];
