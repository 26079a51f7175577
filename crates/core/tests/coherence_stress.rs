//! Randomized stress tests of the full coherence machinery: property-based
//! multi-processor traces over a small shared region, checked for
//! termination (no protocol deadlock), coherence-audit cleanliness and
//! statistics invariants, across prefetching schemes and cache sizes.
//!
//! The trace generator lives in `pfsim_workloads::fuzz` and is shared
//! with the `pfsim-fuzz` consistency fuzzer, so both harnesses hammer
//! the protocol with the same op distribution.

use pfsim::{System, SystemConfig};
use pfsim_mem::{Addr, Pc, SplitMix64};
use pfsim_prefetch::Scheme;
use pfsim_workloads::fuzz::{random_ops, random_workload};
use pfsim_workloads::{Op, TraceCursor};

fn check(workload: TraceCursor, scheme: Scheme, finite_slc: bool, instrumented: bool) {
    let mut cfg = SystemConfig::paper_baseline()
        .with_scheme(scheme)
        .with_instrumentation(instrumented);
    if finite_slc {
        // Tiny SLC: maximal replacement churn against in-flight
        // transactions.
        cfg = cfg.with_finite_slc(1024);
    }
    let mut sys = System::new(cfg, workload);
    let r = sys.run(); // panics on deadlock
    sys.audit_coherence(); // panics on divergence
    assert_eq!(r.dir.stale_writebacks, 0);

    for (i, n) in r.nodes.iter().enumerate() {
        assert!(
            n.flc_read_hits + n.slc_read_hits + n.read_misses + n.delayed_hits == n.reads,
            "node {i}: read accounting broken: {n:?}"
        );
        assert!(n.prefetches_useful <= n.prefetches_issued, "node {i}");
        assert_eq!(
            n.cold_misses + n.coherence_misses + n.replacement_misses,
            n.read_misses,
            "node {i}: miss-cause accounting broken"
        );
        if !finite_slc {
            assert_eq!(n.replacement_misses, 0, "node {i}");
            assert_eq!(n.writebacks, 0, "node {i}");
        }
    }
}

/// Random contended traces terminate with coherent caches and
/// consistent statistics, for every scheme, with an infinite SLC
/// (24 seeded cases). Every third case runs with instrumentation on,
/// so the metrics path is stressed too, not just the fast path.
#[test]
fn stress_infinite_slc() {
    let mut rng = SplitMix64::seed_from_u64(0x57e51);
    for case in 0..24 {
        let ops = random_ops(&mut rng);
        let scheme = match rng.random_range(0u8..6) {
            0 => Scheme::None,
            1 => Scheme::Sequential { degree: 2 },
            2 => Scheme::IDetection { degree: 1 },
            3 => Scheme::DDetection { degree: 1 },
            4 => Scheme::DDetectionAdaptive {
                degree: 1,
                max_depth: 4,
            },
            _ => Scheme::SimpleStride { degree: 1 },
        };
        check(random_workload(&ops, 48, 4), scheme, false, case % 3 == 0);
    }
}

/// The same property with a tiny finite SLC (replacements and
/// writebacks racing against fetches and upgrades), 24 seeded cases,
/// with instrumented-on coverage interleaved.
#[test]
fn stress_finite_slc() {
    let mut rng = SplitMix64::seed_from_u64(0x57e52);
    for case in 0..24 {
        let ops = random_ops(&mut rng);
        let scheme = match rng.random_range(0u8..6) {
            0 => Scheme::None,
            1 => Scheme::Sequential { degree: 4 },
            2 => Scheme::IDetection { degree: 2 },
            3 => Scheme::DDetection { degree: 1 },
            4 => Scheme::DDetectionAdaptive {
                degree: 2,
                max_depth: 8,
            },
            _ => Scheme::AdaptiveSequential {
                initial_degree: 2,
                max_degree: 8,
            },
        };
        check(random_workload(&ops, 96, 4), scheme, true, case % 3 == 1);
    }
}

/// A directed worst case: every CPU hammers the same single block with
/// reads and writes, no synchronization — ownership migrates constantly.
#[test]
fn single_block_hammer() {
    let mut traces = Vec::new();
    for cpu in 0..16usize {
        let mut t = Vec::new();
        for k in 0..200u32 {
            let addr = Addr::new(16 * 4096);
            let pc = Pc::new(0x500);
            if (k as usize + cpu).is_multiple_of(3) {
                t.push(Op::Write { addr, pc });
            } else {
                t.push(Op::Read { addr, pc });
            }
            t.push(Op::Compute {
                cycles: 1 + (cpu as u32 % 5),
            });
        }
        traces.push(t);
    }
    let mut sys = System::new(
        SystemConfig::paper_baseline(),
        TraceCursor::from_ops("hammer", &traces),
    );
    let r = sys.run();
    sys.audit_coherence();
    // The block bounces: lots of invalidations and owner-supplied fills.
    assert!(r.total(|n| n.invals_received) > 100);
    assert!(r.dir.owner_supplied > 100);
}

/// Writebacks racing with fetches: two CPUs alternately write a region
/// that thrashes a tiny SLC while a third reads it.
#[test]
fn writeback_fetch_races() {
    let mut traces = vec![Vec::new(); 16];
    let base = 16 * 4096u64;
    // CPUs 0 and 1 write 128 blocks (conflict-evicting in a 1 KB SLC =
    // 32 blocks), CPU 2 chases them with reads.
    for k in 0..128u64 {
        for trace in traces.iter_mut().take(2) {
            trace.push(Op::Write {
                addr: Addr::new(base + k * 32),
                pc: Pc::new(0x600),
            });
        }
        traces[2].push(Op::Read {
            addr: Addr::new(base + k * 32),
            pc: Pc::new(0x604),
        });
    }
    let mut sys = System::new(
        SystemConfig::paper_baseline().with_finite_slc(1024),
        TraceCursor::from_ops("wb-race", &traces),
    );
    let r = sys.run();
    sys.audit_coherence();
    assert!(r.total(|n| n.writebacks) > 50, "no churn: {:?}", r.dir);
    assert_eq!(r.dir.stale_writebacks, 0);
}
