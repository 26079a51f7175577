//! Cross-run determinism regression tests.
//!
//! The simulator must be a pure function of (config, workload): two runs of
//! the same experiment — serial or fanned out through [`pfsim_bench::par_map`]
//! — must produce bit-identical statistics. Every performance change to the
//! event kernel, the hash layers, or the experiment harness is gated on
//! these tests.

use pfsim::{SimResult, System, SystemConfig};
use pfsim_bench::par_map;
use pfsim_prefetch::Scheme;
use pfsim_workloads::{App, ProblemSize, TraceCursor};

/// The full observable surface of a run, compared field by field so a
/// mismatch names what diverged instead of dumping two debug strings.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec_cycles");
    assert_eq!(a.nodes, b.nodes, "{what}: per-node counters");
    assert_eq!(a.net, b.net, "{what}: network stats");
    assert_eq!(a.dir, b.dir, "{what}: directory stats");
    assert_eq!(a.miss_traces, b.miss_traces, "{what}: miss traces");
}

fn run_once(app: App, scheme: Option<Scheme>) -> SimResult {
    let mut cfg = SystemConfig::paper_baseline();
    if let Some(s) = scheme {
        cfg = cfg.with_scheme(s);
    }
    let trace = app.build_packed_for(ProblemSize::Default, 16);
    System::new(cfg, TraceCursor::new(trace)).run()
}

/// The same experiment run twice in one process is bit-identical,
/// for a baseline and for each prefetching scheme (the schemes exercise
/// the prefetch tables and the extra traffic they generate).
#[test]
fn repeated_runs_are_bit_identical() {
    let schemes = [
        None,
        Some(Scheme::Sequential { degree: 1 }),
        Some(Scheme::DDetection { degree: 1 }),
    ];
    for scheme in schemes {
        let first = run_once(App::Water, scheme);
        let second = run_once(App::Water, scheme);
        assert_identical(&first, &second, &format!("{scheme:?}"));
    }
}

/// Fanning runs out through the parallel harness changes nothing: the
/// results equal the serial ones run-for-run, and arrive in input order.
#[test]
fn par_map_matches_serial_runs() {
    let jobs: Vec<(App, Option<Scheme>)> = vec![
        (App::Mp3d, None),
        (App::Mp3d, Some(Scheme::IDetection { degree: 2 })),
        (App::Cholesky, None),
        (App::Cholesky, Some(Scheme::Sequential { degree: 4 })),
    ];

    let serial: Vec<SimResult> = jobs.iter().map(|&(app, s)| run_once(app, s)).collect();
    let parallel = par_map(jobs.clone(), |(app, s)| run_once(app, s));

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_identical(s, p, &format!("job {i} {:?}", jobs[i]));
    }
}

/// Stale SLC wakeups exist (the re-arm-earlier scheduling policy makes
/// some unavoidable) but must stay a trace-level curiosity, not a
/// scheduling pathology: bounded by a small fraction of the work the SLCs
/// actually performed.
#[test]
fn spurious_slc_wakeups_stay_bounded() {
    for app in [App::Water, App::Mp3d] {
        let r = run_once(app, None);
        let spurious = r.spurious_slc_wakeups();
        // Real SLC work is at least one event per read+write issued.
        let issued = r.total(|n| n.reads) + r.total(|n| n.writes);
        assert!(
            spurious * 20 <= issued,
            "{app}: {spurious} spurious wakeups vs {issued} accesses (>5%)"
        );
    }
}
