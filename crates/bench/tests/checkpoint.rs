//! Warmup-checkpoint determinism gate.
//!
//! The checkpoint contract is bit-identity: pausing a run at the warmup
//! boundary, snapshotting the machine, and resuming from the restored copy
//! must be invisible — the restored run reproduces the straight-through
//! run's pclock total, per-node statistics, metrics snapshot, and oracle
//! hook stream exactly, for every prefetching scheme. These tests gate
//! every change to `System::snapshot`/`System::restore` and to the
//! arena-backed event queue they serialize.

use pfsim::{Cycle, SimResult, System, SystemConfig};
use pfsim_bench::{cursor, ExperimentSpec, Size};
use pfsim_check::ConsistencyOracle;
use pfsim_mem::{Addr, Pc};
use pfsim_prefetch::Scheme;
use pfsim_workloads::{App, Op, TraceCursor};

/// Warmup boundary used throughout: deep enough that caches, directory,
/// mesh, and the calendar queue all carry live state across the snapshot.
const BOUNDARY: u64 = 20_000;

/// Schemes exercised by every round-trip test (baseline plus the three
/// hardware schemes' detection tables).
const SCHEMES: [Scheme; 4] = [
    Scheme::None,
    Scheme::Sequential { degree: 2 },
    Scheme::IDetection { degree: 2 },
    Scheme::DDetection { degree: 1 },
];

/// Full observable surface, compared field by field so a mismatch names
/// what diverged.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec_cycles");
    assert_eq!(a.nodes, b.nodes, "{what}: per-node counters");
    assert_eq!(a.net, b.net, "{what}: network stats");
    assert_eq!(a.dir, b.dir, "{what}: directory stats");
    assert_eq!(a.miss_traces, b.miss_traces, "{what}: miss traces");
    match (&a.metrics, &b.metrics) {
        (Some(ma), Some(mb)) => {
            let d = ma.diff(mb);
            assert!(d.is_empty(), "{what}: metrics diverged:\n{}", d.join("\n"));
        }
        (ma, mb) => assert_eq!(ma.is_some(), mb.is_some(), "{what}: metrics presence"),
    }
}

fn instrumented(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_baseline()
        .with_scheme(scheme)
        .with_instrumentation(true)
}

/// Stopping-point invisibility: pausing between event pops changes
/// nothing, so `run_until(b)` followed by `run()` equals one `run()`.
#[test]
fn run_until_then_run_is_invisible() {
    for scheme in SCHEMES {
        let straight = System::new(instrumented(scheme), cursor(App::Water, Size::Default)).run();
        let mut sys = System::new(instrumented(scheme), cursor(App::Water, Size::Default));
        sys.run_until(Cycle::new(BOUNDARY));
        let paused = sys.run();
        assert_identical(&straight, &paused, &format!("{scheme:?} paused"));
    }
}

/// The tentpole contract: warm under `Scheme::None`, snapshot, restore,
/// attach each scheme — the restored run is bit-identical to continuing
/// the original machine, pclock total, per-node stats, and metrics
/// snapshot included.
#[test]
fn checkpoint_round_trip_matches_straight_through() {
    for app in [App::Water, App::Mp3d] {
        let mut warm = System::new(instrumented(Scheme::None), cursor(app, Size::Default));
        warm.run_until(Cycle::new(BOUNDARY));
        let ckpt = warm
            .snapshot()
            .expect("no sink installed: snapshot is total");
        for scheme in SCHEMES {
            // Straight-through arm: a fresh machine warmed the same way,
            // never snapshotted.
            let mut straight = System::new(instrumented(Scheme::None), cursor(app, Size::Default));
            straight.run_until(Cycle::new(BOUNDARY));
            straight.reconfigure_scheme(scheme);
            let expect = straight.run();

            let mut restored = System::restore(&ckpt);
            restored.reconfigure_scheme(scheme);
            let got = restored.run();
            assert_identical(&expect, &got, &format!("{app} x {scheme:?}"));
        }
    }
}

/// Trained prefetcher state crosses a checkpoint: each of the seven
/// schemes runs attached from the start to a mid-run boundary, where RPT
/// entries, D-detection tables and streams and adaptive degrees are live;
/// the machine is snapshotted, the original dropped, and the restored copy
/// must finish exactly like a straight run.
#[test]
fn a_mid_run_checkpoint_carries_every_schemes_tables() {
    const MID_RUN: u64 = 80_000;
    for scheme in [
        Scheme::None,
        Scheme::Sequential { degree: 2 },
        Scheme::IDetection { degree: 2 },
        Scheme::SimpleStride { degree: 1 },
        Scheme::DDetection { degree: 1 },
        Scheme::DDetectionAdaptive {
            degree: 1,
            max_depth: 8,
        },
        Scheme::AdaptiveSequential {
            initial_degree: 1,
            max_degree: 8,
        },
    ] {
        let straight = System::new(instrumented(scheme), cursor(App::Water, Size::Default)).run();
        let mut sys = System::new(instrumented(scheme), cursor(App::Water, Size::Default));
        sys.run_until(Cycle::new(MID_RUN));
        let ckpt = sys
            .snapshot()
            .expect("no sink installed: snapshot is total");
        drop(sys);
        let restored = System::restore(&ckpt).run();
        assert_identical(&straight, &restored, &format!("{scheme:?} mid-run"));
    }
}

/// Restoring twice from one checkpoint yields two independent machines:
/// running the first does not perturb the second.
#[test]
fn checkpoint_is_reusable() {
    let mut warm = System::new(
        instrumented(Scheme::None),
        cursor(App::Cholesky, Size::Default),
    );
    warm.run_until(Cycle::new(BOUNDARY));
    let ckpt = warm
        .snapshot()
        .expect("no sink installed: snapshot is total");
    let first = System::restore(&ckpt).run();
    let second = System::restore(&ckpt).run();
    assert_identical(&first, &second, "second restore after first ran");
}

/// The oracle hook stream survives the round trip: a sink installed
/// before warmup is forked into the checkpoint, and the restored run's
/// verdict and observation counts equal the straight-through checked
/// run's.
#[test]
fn oracle_hook_stream_survives_restore() {
    let run_arm = |restore: bool| {
        let cfg = instrumented(Scheme::Sequential { degree: 1 });
        let (geometry, nodes) = (cfg.geometry, cfg.nodes as usize);
        let mut sys = System::new(
            cfg.with_scheme(Scheme::None),
            cursor(App::Ocean, Size::Default),
        );
        sys.set_check_sink(Box::new(ConsistencyOracle::new(geometry, nodes)));
        sys.run_until(Cycle::new(BOUNDARY));
        let mut sys = if restore {
            let ckpt = sys.snapshot().expect("the oracle forks");
            System::restore(&ckpt)
        } else {
            sys
        };
        sys.reconfigure_scheme(Scheme::Sequential { degree: 1 });
        let result = sys.run();
        let oracle = sys
            .take_check_sink()
            .expect("sink installed above")
            .into_any()
            .downcast::<ConsistencyOracle>()
            .expect("sink is the oracle");
        (result, oracle)
    };
    let (straight, o1) = run_arm(false);
    let (restored, o2) = run_arm(true);
    assert!(o1.ok(), "straight arm: {:#?}", o1.violations());
    assert!(o2.ok(), "restored arm: {:#?}", o2.violations());
    assert!(o2.reads_checked() > 0, "restored oracle judged no reads");
    assert_eq!(o1.reads_checked(), o2.reads_checked(), "reads_checked");
    assert_eq!(o1.writes_tracked(), o2.writes_tracked(), "writes_tracked");
    assert_identical(&straight, &restored, "oracle round trip");
}

/// Checking is pclock-neutral across a restore: a warmed, checkpointed
/// run with the oracle riding along reproduces the unchecked run's
/// totals exactly (oracle on/off bit-identity for warmed grids).
#[test]
fn oracle_is_pclock_neutral_across_restore() {
    let run_arm = |with_oracle: bool| {
        let cfg = instrumented(Scheme::DDetection { degree: 1 });
        let (geometry, nodes) = (cfg.geometry, cfg.nodes as usize);
        let mut sys = System::new(
            cfg.with_scheme(Scheme::None),
            cursor(App::Mp3d, Size::Default),
        );
        if with_oracle {
            sys.set_check_sink(Box::new(ConsistencyOracle::new(geometry, nodes)));
        }
        sys.run_until(Cycle::new(BOUNDARY));
        let mut sys = System::restore(&sys.snapshot().expect("none or the oracle: both fork"));
        sys.reconfigure_scheme(Scheme::DDetection { degree: 1 });
        sys.run()
    };
    let unchecked = run_arm(false);
    let checked = run_arm(true);
    assert_identical(&unchecked, &checked, "oracle on vs off, checkpointed");
}

/// Restore under check on a litmus shape: the message-passing cell (write
/// x, write flag, reader spins through the lock) warmed past its first
/// handful of events, snapshotted, restored, and judged by the oracle —
/// the restored run must stay violation-free and agree with the
/// straight-through checked cell.
#[test]
fn litmus_cell_restores_under_check() {
    const CPUS: usize = 16;
    let x = Addr::new(16 * 4096);
    let lk = Addr::new(64 * 4096);
    let r = |addr| Op::Read {
        addr,
        pc: Pc::new(0x400),
    };
    let w = |addr| Op::Write {
        addr,
        pc: Pc::new(0x404),
    };
    let mut traces = vec![Vec::new(); CPUS];
    traces[0] = vec![Op::Acquire { lock: lk }, w(x), Op::Release { lock: lk }];
    traces[1] = vec![Op::Acquire { lock: lk }, r(x), Op::Release { lock: lk }];
    for t in &mut traces {
        t.push(Op::Barrier { id: 999 });
    }
    let wl = TraceCursor::from_ops("mp-restore", &traces);

    let run_arm = |restore: bool| {
        let cfg = SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 });
        let (geometry, nodes) = (cfg.geometry, cfg.nodes as usize);
        let mut sys = System::new(cfg, wl.clone());
        sys.set_check_sink(Box::new(ConsistencyOracle::new(geometry, nodes)));
        sys.run_until(Cycle::new(50));
        let mut sys = if restore {
            System::restore(&sys.snapshot().expect("the oracle forks"))
        } else {
            sys
        };
        let result = sys.run();
        let oracle = sys
            .take_check_sink()
            .expect("sink installed above")
            .into_any()
            .downcast::<ConsistencyOracle>()
            .expect("sink is the oracle");
        (result, oracle)
    };
    let (straight, o1) = run_arm(false);
    let (restored, o2) = run_arm(true);
    assert!(o1.ok(), "straight litmus: {:#?}", o1.violations());
    assert!(o2.ok(), "restored litmus: {:#?}", o2.violations());
    assert_eq!(o1.reads_checked(), o2.reads_checked(), "reads_checked");
    assert_identical(&straight, &restored, "litmus restore");
}

/// Spec-level wiring: a warmed grid forking every cell from the shared
/// checkpoint reproduces the same grid warmed straight through, cell for
/// cell — and both run under `PFSIM_CHECK=1` in CI, where the runner
/// installs the oracle in the warmup prefix and forks it into every cell.
#[test]
fn warmed_spec_shares_checkpoints_bit_identically() {
    let grid = |share: bool| {
        let mut spec = ExperimentSpec::new("ckpt-gate")
            .apps([App::Water, App::Mp3d])
            .baseline_and(&[
                Scheme::Sequential { degree: 2 },
                Scheme::DDetection { degree: 1 },
            ])
            .warmup(BOUNDARY)
            .serial()
            .quiet();
        if !share {
            spec = spec.warmup_straight();
        }
        spec.run()
    };
    let shared = grid(true);
    let straight = grid(false);
    assert_eq!(
        shared.total_pclocks(),
        straight.total_pclocks(),
        "spec-level pclock totals diverged between forked and straight warmup"
    );
    for (s, t) in shared.cells.iter().zip(&straight.cells) {
        assert_identical(&t.result, &s.result, &format!("{} cell", s.app));
    }
}
