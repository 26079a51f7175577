//! System-level behaviour of the prefetching machinery: the tagged-bit
//! lifecycle, candidate filtering (present / in-flight / SLWB-full /
//! page-bounded), usefulness accounting, and interaction with coherence.

use pfsim::{System, SystemConfig};
use pfsim_mem::{Addr, Pc};
use pfsim_prefetch::Scheme;
use pfsim_workloads::{micro, Op, TraceCursor};

fn solo(ops: Vec<Op>) -> TraceCursor {
    let mut traces = vec![Vec::new(); 16];
    traces[0] = ops;
    TraceCursor::from_ops("solo", &traces)
}

fn read_at(addr: u64) -> Op {
    Op::Read {
        addr: Addr::new(addr),
        pc: Pc::new(0x400),
    }
}

const P: u64 = 16 * 4096; // page 16, homed on node 0

/// A prefetched block consumed by a demand read counts useful exactly
/// once; re-reading it later adds nothing.
#[test]
fn tagged_hit_counts_useful_once() {
    let ops = vec![
        read_at(P), // miss, prefetches P+32
        Op::Compute { cycles: 200 },
        read_at(P + 32), // tagged hit: useful, prefetches P+64
        Op::Compute { cycles: 200 },
        read_at(P + 32),            // FLC hit: invisible to the SLC
        read_at(P + 16 * 4096 * 4), // conflict-evict P+32 from the FLC
        read_at(P + 32),            // SLC hit, tag already cleared: not useful again
    ];
    let r = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        solo(ops),
    )
    .run();
    let n = &r.nodes[0];
    assert_eq!(n.tagged_hits, 1);
    // Useful = the tagged hit (P+32). P+64's prefetch goes unused.
    assert_eq!(n.prefetches_useful, 1);
    assert!(n.prefetches_issued >= 2);
}

/// Candidates already present in the SLC are dropped, not re-requested.
#[test]
fn present_candidates_are_dropped() {
    let ops = vec![
        read_at(P + 32), // bring P+32 in as a demand block
        Op::Compute { cycles: 100 },
        read_at(P), // miss: candidate P+32 is already present
        Op::Compute { cycles: 100 },
    ];
    let r = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        solo(ops),
    )
    .run();
    let n = &r.nodes[0];
    assert!(n.pf_dropped_present >= 1, "{n:?}");
}

/// When the SLWB is full, prefetch candidates are dropped silently (the
/// paper: "a prefetch request is never issued"), and demand traffic still
/// completes.
#[test]
fn slwb_full_drops_prefetches() {
    let mut cfg = SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 8 });
    cfg.slwb_entries = 2;
    // A burst of strided reads across pages generates more candidates
    // than two MSHRs can hold.
    let ops: Vec<Op> = (0..64).map(|k| read_at(P + k * 32)).collect();
    let r = System::new(cfg, solo(ops)).run();
    let n = &r.nodes[0];
    assert!(n.pf_dropped_full > 0, "{n:?}");
    assert_eq!(n.reads, 64);
}

/// No prefetch request ever crosses a page boundary, end to end: with
/// one-page streams, the prefetcher's last in-page candidate is the final
/// block, and the block after the page is never transacted.
#[test]
fn prefetches_never_cross_pages() {
    // Walk exactly one page (128 blocks); the next page is never touched.
    let wl = micro::sequential_walk(16, 128, 1);
    let r = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 4 }),
        wl,
    )
    .run();
    // Each CPU's region is one page: every issued prefetch lands in it,
    // so useful+unused = issued and *misses + prefetches ≤ 128 blocks*.
    for (i, n) in r.nodes.iter().enumerate() {
        assert!(
            n.read_misses + n.prefetches_issued <= 128,
            "node {i} transacted beyond its page: {n:?}"
        );
    }
}

/// A prefetched block invalidated before use is a useless prefetch, and
/// the demand re-read is a coherence miss — prefetching cannot mask true
/// sharing.
#[test]
fn invalidated_prefetches_are_useless() {
    let mut traces = vec![Vec::new(); 16];
    // CPU 0: miss on P (prefetching P+32), then wait, then read P+32.
    traces[0] = vec![
        read_at(P),
        Op::Barrier { id: 0 },
        Op::Barrier { id: 1 },
        read_at(P + 32),
    ];
    // CPU 1 writes P+32 between the barriers, invalidating the prefetch.
    traces[1] = vec![
        Op::Barrier { id: 0 },
        Op::Write {
            addr: Addr::new(P + 32),
            pc: Pc::new(0x500),
        },
        Op::Barrier { id: 1 },
    ];
    for t in traces.iter_mut().skip(2) {
        t.push(Op::Barrier { id: 0 });
        t.push(Op::Barrier { id: 1 });
    }
    let mut sys = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        TraceCursor::from_ops("inval-pf", &traces),
    );
    let r = sys.run();
    sys.audit_coherence();
    let n = &r.nodes[0];
    // The prefetch of P+32 was consumed by nobody: CPU 0's later read is
    // a fresh miss (coherence), not a tagged hit.
    assert_eq!(n.tagged_hits, 0, "{n:?}");
    assert_eq!(n.prefetches_useful, 0);
    assert_eq!(n.read_misses, 2);
    assert_eq!(n.coherence_misses, 1);
}

/// A demand read to a block whose prefetch is in flight (or just landed)
/// is never a miss: it merges (delayed hit) or hits tagged, and either
/// way the prefetch counts useful and the stall is below two full misses.
#[test]
fn second_block_is_covered_not_missed() {
    // Back-to-back reads: the second block is covered by the first's
    // prefetch, whether it has landed yet or not.
    let ops = vec![read_at(P), read_at(P + 32)];
    let r = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        solo(ops),
    )
    .run();
    let n = &r.nodes[0];
    assert_eq!(n.read_misses, 1);
    assert_eq!(n.delayed_hits + n.tagged_hits, 1, "{n:?}");
    assert_eq!(n.prefetches_useful, 1);
    // And the covered reference stalls less than a full miss would have.
    assert!(n.read_stall < 2 * 27, "{}", n.read_stall);
}

/// The baseline issues no prefetch traffic at all.
#[test]
fn baseline_is_prefetch_free() {
    let r = System::new(
        SystemConfig::paper_baseline(),
        micro::sequential_walk(16, 64, 1),
    )
    .run();
    assert_eq!(r.total(|n| n.prefetches_issued), 0);
    assert_eq!(r.total(|n| n.tagged_hits), 0);
    assert_eq!(r.total(|n| n.pf_dropped_present), 0);
}

/// Degree scaling: more aggressive sequential prefetching issues more
/// requests but cannot exceed the stream's block count on a pure walk.
#[test]
fn degree_scaling_is_bounded_by_the_stream() {
    for d in [1u32, 2, 4, 8] {
        let r = System::new(
            SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: d }),
            micro::sequential_walk(16, 128, 1),
        )
        .run();
        for (i, n) in r.nodes.iter().enumerate() {
            assert!(
                n.prefetches_issued <= 127,
                "d={d} node {i}: {} prefetches for a 128-block page walk",
                n.prefetches_issued
            );
        }
    }
}
