//! Oracle coverage for the modern workload families (CHASE, MSTRIDE,
//! SERVER): one scaled-down cell per family runs under every
//! prefetching scheme with the consistency oracle judging every load,
//! and a pinned seed set fuzzes the CHASE topology randomization.
//!
//! These are positive tests like the litmus suite: the protocol is
//! believed correct, so every cell must finish violation-free. The
//! families matter here because they stress shapes the SPLASH-derived
//! kernels do not — pointer chases with no spatial locality, deep
//! multi-stride nests, and lock-protected session records interleaved
//! with scans — all with prefetchers speculatively pulling blocks
//! underneath the oracle.

use pfsim::SystemConfig;
use pfsim_check::{run_checked, CheckReport};
use pfsim_prefetch::Scheme;
use pfsim_workloads::{chase, mstride, server, TraceWorkload, Workload};

/// Scaled-down CHASE cell: every structural feature of the family
/// (per-cpu rings, shared probe tree, seeded permutations) at a size
/// the debug test pass can afford under the oracle.
fn chase_cell(seed: u64) -> TraceWorkload {
    chase::build(chase::ChaseParams {
        list_nodes_per_cpu: 32,
        tree_nodes: 31,
        walks: 1,
        steps_per_walk: 32,
        probes_per_walk: 4,
        cpus: 16,
        seed,
    })
}

fn mstride_cell() -> TraceWorkload {
    mstride::build(mstride::MstrideParams {
        rows: 32,
        cols: 16,
        strides: (1, 16, 3),
        iters: 2,
        cpus: 16,
    })
}

fn server_cell() -> TraceWorkload {
    server::build(server::ServerParams {
        heap_blocks: 512,
        requests_per_cpu: 16,
        sessions: 8,
        hot_blocks: 4,
        scan_blocks: 4,
        cpus: 16,
        seed: 0x5e17e5,
    })
}

fn cells() -> Vec<TraceWorkload> {
    vec![chase_cell(7), mstride_cell(), server_cell()]
}

/// All seven prefetching schemes (the litmus suite's rotation).
fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::None,
        Scheme::Sequential { degree: 2 },
        Scheme::IDetection { degree: 1 },
        Scheme::SimpleStride { degree: 1 },
        Scheme::DDetection { degree: 1 },
        Scheme::DDetectionAdaptive {
            degree: 1,
            max_depth: 4,
        },
        Scheme::AdaptiveSequential {
            initial_degree: 2,
            max_degree: 8,
        },
    ]
}

fn assert_clean(report: &CheckReport, what: &str) {
    assert!(report.ok, "{what}: {:#?}", report.violations);
    assert!(report.reads_checked > 0, "{what}: oracle judged no reads");
}

/// One cell per family × all seven schemes, on a finite SLC so
/// replacements and writebacks race the family's traffic: every cell is
/// violation-free.
#[test]
fn families_all_schemes_violation_free() {
    for scheme in all_schemes() {
        for wl in cells() {
            let name = wl.name().to_string();
            let cfg = SystemConfig::paper_baseline()
                .with_scheme(scheme)
                .with_finite_slc(1024);
            let report = run_checked(cfg, wl);
            assert_clean(&report, &format!("{name} under {scheme:?}"));
        }
    }
}

/// The pinned CHASE fuzz-smoke seed set. Each seed selects a different
/// ring permutation and probe schedule; the set is pinned so a
/// regression in the topology randomizer reproduces instead of
/// depending on whatever seed a wall clock picked.
const CHASE_FUZZ_SEEDS: [u64; 5] = [0x01, 0x5eed, 0xc4a5e, 0xdead_beef, 0xffff_ffff_ffff_ffff];

/// Every pinned CHASE seed runs violation-free under the oracle.
#[test]
fn chase_fuzz_seeds_clean() {
    for seed in CHASE_FUZZ_SEEDS {
        let cfg = SystemConfig::paper_baseline()
            .with_scheme(Scheme::DDetection { degree: 1 })
            .with_finite_slc(1024);
        let report = run_checked(cfg, chase_cell(seed));
        assert_clean(&report, &format!("chase seed {seed:#x}"));
    }
}
