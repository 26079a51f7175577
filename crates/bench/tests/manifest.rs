//! End-to-end tests of the experiment API and its observability layer:
//! a spec runs through the [`Runner`], emits a manifest that validates
//! and carries the right fields, the metrics registry is deterministic,
//! and instrumentation never changes simulated timing.

use pfsim::SystemConfig;
use pfsim_analysis::Json;
use pfsim_bench::{validate_manifest, ExperimentSpec, Runner, Size};
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn small_spec(name: &str, instrument: bool) -> ExperimentSpec {
    ExperimentSpec::new(name)
        .size(Size::Default)
        .apps([App::Mp3d])
        .baseline_and(&[Scheme::Sequential { degree: 1 }])
        .instrument(instrument)
        .serial()
        .quiet()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pfsim-test-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The manifest of a real (small) run has the documented schema: every
/// top-level field present, the pclock total consistent with the cells,
/// per-node statistics for all 16 nodes, and an observability snapshot
/// on every cell of an instrumented run — and it passes
/// [`validate_manifest`].
#[test]
fn manifest_snapshot_has_schema_and_pclocks() {
    let run = Runner::with_out_dir(temp_dir("manifest")).execute(small_spec("snapshot", true));
    let path = run.write_manifest().unwrap();
    let manifest = validate_manifest(&path).expect("manifest validates");
    assert_eq!(manifest.name, "snapshot");
    assert_eq!(manifest.cells.len(), 2);
    assert_eq!(manifest.total_pclocks, run.total_pclocks());
    assert_eq!(manifest.size, "default");
    assert_eq!(manifest.apps, ["MP3D"]);
    assert_eq!(manifest.variants.len(), 2);
    assert_eq!(manifest.variants[0].label, "baseline");
    assert_eq!(manifest.variants[1].scheme, "Seq(d=1)");
    let cell = manifest.cell("MP3D", 1).expect("Seq cell present");
    assert_eq!(cell.exec_cycles, run.cell(0, 1).result.exec_cycles);

    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    for key in [
        "schema_version",
        "name",
        "size",
        "git",
        "unix_time",
        "phases",
        "total_pclocks",
        "apps",
        "variants",
        "traces",
        "cells",
    ] {
        assert!(doc.get(key).is_some(), "missing top-level field {key}");
    }
    assert_eq!(doc.get("schema_version").unwrap().as_i64(), Some(2));
    for key in ["gen_seconds", "sim_seconds", "analyze_seconds"] {
        assert!(doc
            .get("phases")
            .unwrap()
            .get(key)
            .unwrap()
            .as_f64()
            .is_some());
    }

    let cells = doc.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), 2);
    for cell in cells {
        assert_eq!(cell.get("nodes").unwrap().as_array().unwrap().len(), 16);
        let metrics = cell.get("metrics").unwrap();
        let counters = metrics.get("counters").unwrap();
        assert!(
            counters.get("ev_cpu_step").unwrap().as_u64().unwrap() > 0,
            "instrumented cell records event counts"
        );
        assert!(metrics
            .get("histograms")
            .unwrap()
            .get("queue_depth")
            .is_some());
    }
    // The Seq cell carries the sequential prefetcher's telemetry.
    let seq_counters = cells[1].get("metrics").unwrap().get("counters").unwrap();
    assert!(seq_counters.get("seq_continuations").is_some());
}

/// Two identical instrumented runs produce identical registry
/// snapshots — the observability layer is as deterministic as the
/// simulation it observes.
#[test]
fn registry_snapshots_are_deterministic() {
    let once =
        || Runner::with_out_dir(temp_dir("determinism")).execute(small_spec("determinism", true));
    let a = once();
    let b = once();
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.result.exec_cycles, cb.result.exec_cycles);
        let ma = ca.result.metrics.as_ref().expect("instrumented");
        let mb = cb.result.metrics.as_ref().expect("instrumented");
        assert_eq!(ma, mb, "{} variant {}", ca.app, ca.variant);
    }
}

/// Instrumentation is purely observational: the same grid with the
/// registry off produces identical simulated timing and statistics,
/// and no snapshot.
#[test]
fn instrumentation_is_pclock_neutral() {
    let on = Runner::with_out_dir(temp_dir("neutral")).execute(small_spec("neutral-on", true));
    let off = Runner::with_out_dir(temp_dir("neutral")).execute(small_spec("neutral-off", false));
    assert_eq!(on.total_pclocks(), off.total_pclocks());
    for (a, b) in on.cells.iter().zip(&off.cells) {
        assert_eq!(a.result.exec_cycles, b.result.exec_cycles);
        assert_eq!(a.result.nodes, b.result.nodes);
        assert!(a.result.metrics.is_some());
        assert!(b.result.metrics.is_none());
    }
}

/// Variant configurations flow through unchanged: a variant-level
/// scheme override shows up in the manifest and in the cell results.
#[test]
fn variant_configs_reach_the_cells() {
    let run = Runner::with_out_dir(temp_dir("variants")).execute(
        ExperimentSpec::new("variants")
            .apps([App::Mp3d])
            .variant("base", SystemConfig::paper_baseline())
            .variant(
                "seq",
                SystemConfig::builder()
                    .scheme(Scheme::Sequential { degree: 1 })
                    .build(),
            )
            .serial()
            .quiet(),
    );
    let base = &run.cell(0, 0).result;
    let seq = &run.cell(0, 1).result;
    assert_eq!(base.total(|n| n.prefetches_issued), 0);
    assert!(seq.total(|n| n.prefetches_issued) > 0);
    assert!(seq.read_misses() < base.read_misses());
}
