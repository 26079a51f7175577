//! Cross-crate integration tests: the full pipeline from workload
//! generation through simulation to characterization, exercised through
//! the umbrella crate's public API exactly as the examples use it.

use prefetch_repro::pfsim::{RecordMisses, System, SystemConfig};
use prefetch_repro::pfsim_analysis::{characterize, MissEvent};
use prefetch_repro::pfsim_prefetch::Scheme;
use prefetch_repro::pfsim_workloads::{cholesky, lu, mp3d, ocean, pthor, water, TraceCursor};

/// A named workload factory.
type AppFactory = (&'static str, Box<dyn Fn() -> TraceCursor>);

/// Small-but-representative versions of all six applications.
fn small_apps() -> Vec<AppFactory> {
    vec![
        (
            "MP3D",
            Box::new(|| {
                TraceCursor::new(mp3d::build(mp3d::Mp3dParams {
                    particles: 800,
                    cells: 512,
                    steps: 3,
                    collision_pct: 50,
                    cpus: 16,
                }))
            }),
        ),
        (
            "Cholesky",
            Box::new(|| {
                TraceCursor::new(cholesky::build(cholesky::CholeskyParams {
                    columns: 160,
                    min_height: 12,
                    max_height: 44,
                    supernode: 4,
                    fanout: 6,
                    cpus: 16,
                }))
            }),
        ),
        (
            "Water",
            Box::new(|| {
                TraceCursor::new(water::build(water::WaterParams {
                    molecules: 96,
                    steps: 1,
                    mean_run: 8,
                    cpus: 16,
                }))
            }),
        ),
        (
            "LU",
            Box::new(|| TraceCursor::new(lu::build(lu::LuParams { n: 48, cpus: 16 }))),
        ),
        (
            "Ocean",
            Box::new(|| {
                TraceCursor::new(ocean::build(ocean::OceanParams {
                    n: 32,
                    iterations: 4,
                    band: 8,
                    row_doubles: ocean::ROW_DOUBLES,
                    cpus: 16,
                }))
            }),
        ),
        (
            "PTHOR",
            Box::new(|| {
                TraceCursor::new(pthor::build(pthor::PthorParams {
                    elements: 512,
                    tasks_per_cpu: 400,
                    fanout: 3,
                    cpus: 16,
                }))
            }),
        ),
    ]
}

const SCHEMES: [Scheme; 4] = [
    Scheme::None,
    Scheme::IDetection { degree: 1 },
    Scheme::DDetection { degree: 1 },
    Scheme::Sequential { degree: 1 },
];

/// Every application runs to completion under every scheme, with sane
/// statistics and intact coherence.
#[test]
fn all_apps_run_under_all_schemes_with_coherence_intact() {
    for (name, build) in small_apps() {
        for scheme in SCHEMES {
            let mut sys = System::new(SystemConfig::paper_baseline().with_scheme(scheme), build());
            let r = sys.run();
            assert!(r.exec_cycles > 0, "{name}/{scheme}");
            assert!(r.read_misses() > 0, "{name}/{scheme}");
            let eff = r.prefetch_efficiency();
            assert!((0.0..=1.0).contains(&eff), "{name}/{scheme}: eff {eff}");
            assert_eq!(r.dir.stale_writebacks, 0, "{name}/{scheme}");
            sys.audit_coherence();
        }
    }
}

/// The same configuration always produces identical results — the
/// program-driven methodology's reproducibility requirement.
#[test]
fn simulation_is_deterministic_across_runs() {
    for (name, build) in small_apps() {
        let run =
            |scheme| System::new(SystemConfig::paper_baseline().with_scheme(scheme), build()).run();
        let a = run(Scheme::Sequential { degree: 1 });
        let b = run(Scheme::Sequential { degree: 1 });
        assert_eq!(a.exec_cycles, b.exec_cycles, "{name}");
        assert_eq!(a.nodes, b.nodes, "{name}");
        assert_eq!(a.net, b.net, "{name}");
    }
}

/// Prefetching never increases the demand-miss count (at worst it leaves
/// it unchanged; merged references become delayed hits instead).
#[test]
fn prefetching_never_increases_miss_count_materially() {
    for (name, build) in small_apps() {
        let base = System::new(SystemConfig::paper_baseline(), build())
            .run()
            .read_misses();
        for scheme in &SCHEMES[1..] {
            let r = System::new(SystemConfig::paper_baseline().with_scheme(*scheme), build()).run();
            // Timing shifts can alter coherence-miss counts slightly, so
            // allow a small tolerance rather than strict monotonicity.
            assert!(
                r.read_misses() <= base + base / 10,
                "{name}/{scheme}: {} vs baseline {base}",
                r.read_misses()
            );
        }
    }
}

/// The finite SLC only adds misses (replacements), never removes them.
#[test]
fn finite_slc_is_never_better_than_infinite() {
    for (name, build) in small_apps() {
        let infinite = System::new(SystemConfig::paper_baseline(), build())
            .run()
            .read_misses();
        let finite = System::new(
            SystemConfig::paper_baseline().with_finite_slc(16 * 1024),
            build(),
        )
        .run();
        assert!(
            finite.read_misses() + finite.read_misses() / 20 >= infinite,
            "{name}: finite {} < infinite {infinite}",
            finite.read_misses()
        );
    }
}

/// The characterization pipeline runs on every application's recorded
/// stream and produces internally consistent numbers.
#[test]
fn characterization_pipeline_is_consistent() {
    for (name, build) in small_apps() {
        let mut sys = System::new(
            SystemConfig::paper_baseline().with_recording(RecordMisses::Cpu(5)),
            build(),
        );
        let r = sys.run();
        let misses: Vec<MissEvent> = r.miss_traces[5]
            .iter()
            .map(|m| MissEvent {
                pc: m.pc,
                block: m.block,
            })
            .collect();
        let ch = characterize(&misses);
        assert_eq!(ch.total_misses as usize, misses.len(), "{name}");
        assert!(ch.misses_in_sequences <= ch.total_misses, "{name}");
        let frac = ch.stride_fraction();
        assert!((0.0..=1.0).contains(&frac), "{name}: {frac}");
        if ch.sequences > 0 {
            assert!(ch.avg_sequence_length() >= 3.0, "{name}");
        }
        let shares: f64 = ch.dominant_strides().iter().map(|(_, s)| s).sum();
        assert!(
            ch.misses_in_sequences == 0 || (shares - 1.0).abs() < 1e-9,
            "{name}: stride shares sum to {shares}"
        );
    }
}

/// Recording all CPUs yields per-node traces whose total matches the
/// aggregate miss counter.
#[test]
fn recorded_traces_match_miss_counters() {
    let (_, build) = &small_apps()[3]; // LU
    let mut sys = System::new(
        SystemConfig::paper_baseline().with_recording(RecordMisses::All),
        build(),
    );
    let r = sys.run();
    let recorded: usize = r.miss_traces.iter().map(Vec::len).sum();
    assert_eq!(recorded as u64, r.read_misses());
}
