//! Big-mesh determinism gate: growing the machine from the paper's 4×4
//! mesh to 8×8 (64 nodes) must not cost any determinism contract the
//! 4×4 grids already enforce. Two gates per modern workload family:
//!
//! * **pinned anchors** — the pclock total of the 8×8 baseline
//!   cell is pinned, the big-mesh analogue of the 4×4 grid anchors
//!   (14059066 default, 151368054 large);
//! * **checkpoint round-trip** — warming an 8×8 cell, snapshotting, and
//!   resuming from the restored copy is invisible.
//!
//! `ci.sh` runs this file in release under `PFSIM_CHECK=1`, which makes
//! the spec-level test below fork a live consistency oracle through
//! every 64-node cell.

use pfsim::{Cycle, SimResult, System, SystemConfig};
use pfsim_bench::{cursor_for, ExperimentSpec, Size};
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

/// Pinned pclock totals for the 8×8 baseline machine at the
/// default problem size. Any event-kernel, coherence, or generator
/// change that shifts one of these is a semantic change and must update
/// the anchor deliberately (EXPERIMENTS.md records the history).
const ANCHORS: [(App, u64); 3] = [
    (App::Chase, 146_176),
    (App::Mstride, 33_708),
    (App::Server, 643_002),
];

/// The 64-node machine: the paper's node organization on an 8×8 mesh.
fn big_cfg() -> SystemConfig {
    SystemConfig::builder().mesh_dims(8, 8).build()
}

/// A fresh cursor over the cached 64-way partition of `app`.
fn big_trace(app: App) -> pfsim_workloads::TraceCursor {
    cursor_for(app, Size::Default, 64)
}

/// Full observable surface, compared field by field so a mismatch names
/// what diverged.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec_cycles");
    assert_eq!(a.nodes, b.nodes, "{what}: per-node counters");
    assert_eq!(a.net, b.net, "{what}: network stats");
    assert_eq!(a.dir, b.dir, "{what}: directory stats");
    assert_eq!(a.miss_traces, b.miss_traces, "{what}: miss traces");
}

/// The anchor gate: baseline totals for every modern family on
/// the 64-node machine, pinned to the values first recorded alongside
/// this test.
#[test]
fn big_mesh_anchors_are_pinned() {
    for (app, anchor) in ANCHORS {
        let r = System::new(big_cfg(), big_trace(app)).run();
        assert_eq!(
            r.exec_cycles, anchor,
            "{app}: 8x8 pclock total diverged from the pinned anchor"
        );
        assert_eq!(r.nodes.len(), 64, "{app}: per-node stats must cover 8x8");
    }
}

/// Checkpoint round-trip on a 64-node cell: warm under `Scheme::None`,
/// snapshot, restore, attach a prefetcher — bit-identical to warming a
/// fresh machine straight through.
#[test]
fn big_mesh_checkpoint_round_trip() {
    const BOUNDARY: u64 = 10_000;
    let scheme = Scheme::IDetection { degree: 2 };

    let mut warm = System::new(big_cfg(), big_trace(App::Chase));
    warm.run_until(Cycle::new(BOUNDARY));
    let ckpt = warm
        .snapshot()
        .expect("no sink installed: snapshot is total");

    let mut straight = System::new(big_cfg(), big_trace(App::Chase));
    straight.run_until(Cycle::new(BOUNDARY));
    straight.reconfigure_scheme(scheme);
    let expect = straight.run();

    let mut restored = System::restore(&ckpt);
    restored.reconfigure_scheme(scheme);
    let got = restored.run();
    assert_identical(&expect, &got, "CHASE 8x8 checkpoint round trip");
}

/// Spec-level wiring: an [`ExperimentSpec`] grid whose only variant is
/// the 8×8 machine reproduces the pinned anchors cell for cell — and
/// under `PFSIM_CHECK=1` (the CI invocation) the runner installs a
/// consistency oracle in every 64-node cell, which must be
/// pclock-neutral.
#[test]
fn big_mesh_spec_grid_reproduces_the_anchors() {
    let run = ExperimentSpec::new("bigmesh-gate")
        .apps(App::MODERN)
        .variant("8x8", big_cfg())
        .serial()
        .quiet()
        .run();
    for (cell, (app, anchor)) in run.cells.iter().zip(ANCHORS) {
        assert_eq!(cell.app, app, "grid order");
        assert_eq!(
            cell.result.exec_cycles, anchor,
            "{app}: spec-level 8x8 cell diverged from the pinned anchor"
        );
    }
    let total: u64 = ANCHORS.iter().map(|&(_, a)| a).sum();
    assert_eq!(run.total_pclocks(), total, "grid total");
}
