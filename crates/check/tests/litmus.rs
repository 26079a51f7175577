//! Table-driven litmus suite: the classic shared-memory shapes, each run
//! under every prefetching scheme on both the paper baseline and a tiny
//! finite SLC, with the consistency oracle judging every load.
//!
//! These are *positive* tests: the simulator's protocol is believed
//! correct, so each litmus workload must complete with zero violations.
//! (The oracle's sensitivity to actual bugs is validated separately by
//! fault injection in `mutation.rs`.) The shapes are chosen so that the
//! interesting behaviors — same-location coherence, message passing
//! through a lock, store buffering that release consistency permits,
//! barrier-ordered publication — all appear with prefetchers pulling
//! blocks around underneath them.

use pfsim::SystemConfig;
use pfsim_check::run_checked;
use pfsim_mem::{Addr, Pc, SplitMix64};
use pfsim_prefetch::Scheme;
use pfsim_workloads::fuzz::{random_ops, random_workload};
use pfsim_workloads::{Op, TraceCursor};

const CPUS: usize = 16;
const FINAL_BARRIER: u32 = 999;

/// Shared block on page 16 (home node 0).
fn x() -> Addr {
    Addr::new(16 * 4096)
}
/// A second shared location in a different block.
fn y() -> Addr {
    Addr::new(16 * 4096 + 64)
}
/// The lock all lock-based shapes contend on.
fn lk() -> Addr {
    Addr::new(64 * 4096)
}

fn r(addr: Addr) -> Op {
    Op::Read {
        addr,
        pc: Pc::new(0x400),
    }
}
fn w(addr: Addr) -> Op {
    Op::Write {
        addr,
        pc: Pc::new(0x404),
    }
}
fn acq(lock: Addr) -> Op {
    Op::Acquire { lock }
}
fn rel(lock: Addr) -> Op {
    Op::Release { lock }
}

/// Builds a 16-lane workload from sparse per-cpu op lists; every lane
/// (busy or idle) joins the final barrier so the run ends synchronized.
fn litmus(name: &str, lanes: &[(usize, &[Op])]) -> TraceCursor {
    let mut traces = vec![Vec::new(); CPUS];
    for &(cpu, ops) in lanes {
        traces[cpu] = ops.to_vec();
    }
    for t in &mut traces {
        t.push(Op::Barrier { id: FINAL_BARRIER });
    }
    TraceCursor::from_ops(name, &traces)
}

/// The litmus table. Each entry builds its workload fresh per config.
fn shapes() -> Vec<(&'static str, TraceCursor)> {
    // Barrier-ordering needs every lane at the intermediate barrier too.
    let mut barrier_lanes: Vec<(usize, Vec<Op>)> = (0..CPUS)
        .map(|c| (c, vec![Op::Barrier { id: 1 }]))
        .collect();
    barrier_lanes[0].1 = vec![w(x()), w(y()), Op::Barrier { id: 1 }];
    barrier_lanes[1].1 = vec![Op::Barrier { id: 1 }, r(x()), r(y())];
    let barrier_refs: Vec<(usize, &[Op])> = barrier_lanes
        .iter()
        .map(|(c, ops)| (*c, ops.as_slice()))
        .collect();

    vec![
        (
            "CoWW", // same-cpu stores to one address perform in order
            litmus("coww", &[(0, &[w(x()), w(x()), r(x())])]),
        ),
        (
            "CoRR", // a reader's observations of one address never roll back
            litmus("corr", &[(0, &[w(x())]), (1, &[r(x()), r(x()), r(x())])]),
        ),
        (
            "CoRW", // read/write mix on one address across cpus
            litmus(
                "corw",
                &[(0, &[r(x()), w(x()), r(x())]), (1, &[w(x()), r(x())])],
            ),
        ),
        (
            "MP+locks", // message passing: data published under a lock
            litmus(
                "mp",
                &[
                    (0, &[acq(lk()), w(x()), w(y()), rel(lk())]),
                    (1, &[acq(lk()), r(y()), r(x()), rel(lk())]),
                    (2, &[acq(lk()), r(x()), w(y()), rel(lk())]),
                ],
            ),
        ),
        (
            "SB", // store buffering: both may read "initial" — RC allows it
            litmus("sb", &[(0, &[w(x()), r(y())]), (1, &[w(y()), r(x())])]),
        ),
        (
            "barrier-ordering", // pre-barrier stores are required reading after
            litmus("barrier", &barrier_refs),
        ),
    ]
}

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

fn run_table(finite_slc: bool) {
    for scheme in all_schemes() {
        for (name, wl) in shapes() {
            let mut cfg = SystemConfig::paper_baseline().with_scheme(scheme);
            if finite_slc {
                cfg = cfg.with_finite_slc(1024);
            }
            let report = run_checked(cfg, wl);
            assert!(
                report.ok,
                "litmus {name} under {scheme:?} (finite_slc={finite_slc}): {:#?}",
                report.violations
            );
            assert!(
                report.reads_checked > 0,
                "litmus {name}: oracle judged no reads"
            );
        }
    }
}

/// Every litmus shape is violation-free under every scheme on the paper
/// baseline (infinite SLC).
#[test]
fn litmus_all_schemes_paper_baseline() {
    run_table(false);
}

/// The same on a tiny finite SLC, so replacements and writebacks race
/// the litmus accesses.
#[test]
fn litmus_all_schemes_small_cache() {
    run_table(true);
}

/// Fuzz smoke: random traces (fixed seed) on a finite SLC run clean
/// under the oracle with reads judged. This is the adversarial
/// counterpart to the hand-written shapes above — the fuzzer mixes
/// reads, writes, locks, and barriers in patterns nobody curated.
#[test]
fn fuzz_smoke_oracle_clean() {
    const BLOCKS: u64 = 32;
    const LOCKS: u64 = 2;
    let mut rng = SplitMix64::seed_from_u64(0x5ad_cafe);
    for case in 0..4 {
        let wl = random_workload(&random_ops(&mut rng), BLOCKS, LOCKS);
        let cfg = SystemConfig::paper_baseline().with_finite_slc(1024);
        let report = run_checked(cfg, wl);
        assert!(report.ok, "fuzz case {case}: {:#?}", report.violations);
        assert!(
            report.reads_checked > 0,
            "fuzz case {case}: judged no reads"
        );
    }
}

/// The oracle actually resolves observations: in the CoRR shape the
/// reader's loads must observe cpu 0's write or the initial value, and
/// the suite counts both writes and reads.
#[test]
fn oracle_sees_the_traffic() {
    let report = run_checked(
        SystemConfig::paper_baseline(),
        litmus("corr", &[(0, &[w(x())]), (1, &[r(x()), r(x()), r(x())])]),
    );
    assert!(report.ok, "{:#?}", report.violations);
    assert_eq!(report.writes_tracked, 1);
    assert!(report.reads_checked >= 3);
}
