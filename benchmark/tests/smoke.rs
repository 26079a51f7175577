//! Debug-fast smoke tests: the timed and traced pipelines end to end on
//! the smallest paper application, and the stream-fidelity checks on
//! micro-workloads.

use std::path::PathBuf;

use pfsim::SystemConfig;
use pfsim_bench::Size;
use pfsim_benchmark::grid::Grid;
use pfsim_benchmark::metrics::PER_LAYER;
use pfsim_benchmark::{timed, traced};
use pfsim_prefetch::Scheme;
use pfsim_workloads::{micro, App};

/// fig6-default's Ocean row on its own.
const OCEAN: Grid = Grid {
    name: "ocean-smoke",
    size: Size::Default,
    mesh: (4, 4),
    slc_bytes: None,
    setup_reps: 1,
    anchors: &[(App::Ocean, [158_243, 151_166, 151_116, 152_333])],
};

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn timed_run_reproduces_the_anchors() {
    let t = timed::run_timed(&OCEAN, 1, 0.0, &scratch("timed"));
    assert_eq!(t.failures, Vec::<String>::new());
    assert_eq!((t.cells_run, t.cells_failed), (4, 0));
    assert_eq!(t.pass_pclocks, OCEAN.total_anchor());
    assert_eq!((t.passes.len(), t.setup_samples.len()), (1, 1));
    assert!(t.peak_rss_mb > 0.0);
}

/// A harness that is fast because it simulated something else must say
/// so: a wrong anchor fails its cell.
#[test]
fn timed_run_fails_a_cell_that_misses_its_anchor() {
    let wrong = Grid {
        anchors: &[(App::Ocean, [158_243, 151_166, 1, 152_333])],
        ..OCEAN
    };
    let t = timed::run_timed(&wrong, 2, 0.0, &scratch("wrong"));
    assert_eq!(t.cells_failed, 1);
    assert!(t.failures[0].contains("D-det(d=1)"), "{:?}", t.failures);
}

#[test]
fn streams_replay_faithfully_on_micro_workloads() {
    let seq = SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 });
    assert_eq!(
        traced::check_streams(&seq, micro::sequential_walk(16, 64, 1)),
        Vec::<String>::new()
    );
    // A 1 KB SLC: replacement misses and clean evictions under repeated
    // walks; dirty evictions, writebacks and owner fetches when one CPU
    // writes a region four times the SLC and the others read it.
    let finite = SystemConfig::paper_baseline()
        .with_scheme(Scheme::DDetection { degree: 1 })
        .with_finite_slc(1024);
    assert_eq!(
        traced::check_streams(&finite, micro::sequential_walk(16, 128, 2)),
        Vec::<String>::new()
    );
    assert_eq!(
        traced::check_streams(&finite, micro::producer_consumer(16, 128)),
        Vec::<String>::new()
    );
    // Wide sharing, invalidation of every sharer, then refills into the
    // invalidated frames: the replay must free exactly the frames the
    // simulation freed.
    assert_eq!(
        traced::check_streams(&finite, micro::broadcast_then_invalidate(16, 64)),
        Vec::<String>::new()
    );
}

#[test]
fn traced_run_reports_every_layer_metric() {
    let t = traced::run_traced(&OCEAN, 1, &scratch("traced"));
    assert_eq!(t.failures, Vec::<String>::new());
    assert_eq!((t.cells_run, t.cells_failed), (4, 0));
    for l in &PER_LAYER {
        let v = t.values[l.name];
        assert!(v.is_finite(), "{} = {v}", l.name);
    }
    assert!(t.values["sim-engine.events_per_op"] > 0.0);
    assert!(t.values["cache.slc_ns_per_access"] > 0.0);
}
