//! End-to-end tests of the full-system simulator: latency calibration
//! against Table 1, coherence correctness, prefetching behaviour and
//! determinism.

use pfsim::{MissCause, RecordMisses, System, SystemConfig};
use pfsim_mem::{Addr, Pc};
use pfsim_prefetch::Scheme;
use pfsim_workloads::{micro, Op, TraceCursor};

/// A 16-CPU trace where only CPU 0 executes `ops`.
fn solo(ops: Vec<Op>) -> TraceCursor {
    let mut traces = vec![Vec::new(); 16];
    traces[0] = ops;
    TraceCursor::from_ops("solo", &traces)
}

fn read(addr: u64) -> Op {
    Op::Read {
        addr: Addr::new(addr),
        pc: Pc::new(0x400),
    }
}

/// Page 16 is homed on node 0 (round-robin placement).
const LOCAL_PAGE: u64 = 16 * 4096;
/// Page 17 is homed on node 1.
const REMOTE_PAGE: u64 = 17 * 4096;

#[test]
fn local_memory_read_takes_28_pclocks() {
    // Table 1: "Read from local memory: 28 pclocks".
    let mut sys = System::new(SystemConfig::paper_baseline(), solo(vec![read(LOCAL_PAGE)]));
    let r = sys.run();
    assert_eq!(r.nodes[0].read_misses, 1);
    // Stall = latency minus the 1-pclock pipelined FLC access.
    assert_eq!(r.nodes[0].read_stall, 27);
    assert_eq!(r.exec_cycles, 28);
}

#[test]
fn slc_hit_takes_6_pclocks() {
    // Table 1: "Read from SLC: 6 pclocks". Block A and block A+128 map to
    // the same FLC line, so the third read misses the FLC but hits the
    // SLC.
    let a = LOCAL_PAGE;
    // 16 pages later: the same FLC set (4096 % 128 == 2048 % 128) and the
    // same home node (32 % 16 == 0), so both misses are local.
    let conflicting = LOCAL_PAGE + 16 * 4096;
    let mut sys = System::new(
        SystemConfig::paper_baseline(),
        solo(vec![read(a), read(conflicting), read(a)]),
    );
    let r = sys.run();
    assert_eq!(r.nodes[0].read_misses, 2);
    assert_eq!(r.nodes[0].slc_read_hits, 1);
    // Two memory reads stall 27 each; the SLC hit stalls 6 - 1 = 5.
    assert_eq!(r.nodes[0].read_stall, 27 + 27 + 5);
}

#[test]
fn remote_clean_read_adds_two_traversals() {
    // Home of the page is node 1, one hop from node 0: the request
    // (2 flits) takes 3+2 = 5 pclocks, the data reply (10 flits) takes
    // 3+10 = 13, so the miss costs 28 + 18 = 46.
    let mut sys = System::new(
        SystemConfig::paper_baseline(),
        solo(vec![read(REMOTE_PAGE)]),
    );
    let r = sys.run();
    assert_eq!(r.nodes[0].read_misses, 1);
    assert_eq!(r.nodes[0].read_stall, 45);
    assert_eq!(r.net.messages, 2);
}

#[test]
fn dirty_remote_read_takes_four_traversals() {
    // CPU 2 writes a block homed on node 1; CPU 0 then reads it: the home
    // must fetch the dirty copy from node 2 before replying.
    let mut traces = vec![Vec::new(); 16];
    traces[2] = vec![
        Op::Write {
            addr: Addr::new(REMOTE_PAGE),
            pc: Pc::new(0x500),
        },
        Op::Barrier { id: 0 },
    ];
    traces[0] = vec![Op::Barrier { id: 0 }, read(REMOTE_PAGE)];
    for (i, t) in traces.iter_mut().enumerate() {
        if i != 0 && i != 2 {
            *t = vec![Op::Barrier { id: 0 }];
        }
    }
    let mut sys = System::new(
        SystemConfig::paper_baseline(),
        TraceCursor::from_ops("w", &traces),
    );
    let r = sys.run();
    assert_eq!(r.nodes[0].read_misses, 1);
    // Four traversals: strictly slower than the two-traversal clean case.
    assert!(
        r.nodes[0].read_stall > 46,
        "stall {} should exceed the 2-traversal latency",
        r.nodes[0].read_stall
    );
    sys.audit_coherence();
}

#[test]
fn producer_consumer_misses_are_coherence_classified() {
    let mut sys = System::new(
        SystemConfig::paper_baseline().with_recording(RecordMisses::All),
        micro::producer_consumer(16, 64),
    );
    let r = sys.run();
    // Every consumer misses all 64 blocks.
    for cpu in 1..16 {
        assert_eq!(
            r.nodes[cpu].read_misses, 64,
            "cpu {cpu}: {:?}",
            r.nodes[cpu]
        );
        // The consumers never touched the blocks before: cold misses.
        assert_eq!(r.nodes[cpu].cold_misses, 64);
    }
    sys.audit_coherence();
}

#[test]
fn broadcast_then_invalidate_produces_coherence_misses() {
    let mut sys = System::new(
        SystemConfig::paper_baseline(),
        micro::broadcast_then_invalidate(16, 32),
    );
    let r = sys.run();
    // The rewrite by CPU 0 invalidates all 15 other readers...
    assert!(r.total(|n| n.invals_received) >= 15 * 32);
    // ...whose re-reads are coherence misses.
    for cpu in 1..16 {
        assert_eq!(r.nodes[cpu].coherence_misses, 32, "cpu {cpu}");
    }
    sys.audit_coherence();
}

#[test]
fn lock_ping_pong_serializes_critical_sections() {
    let mut sys = System::new(
        SystemConfig::paper_baseline(),
        micro::lock_ping_pong(16, 50),
    );
    let r = sys.run();
    // Both CPUs finish, and contention shows up as sync stall.
    assert!(r.nodes[0].sync_stall > 0);
    assert!(r.nodes[1].sync_stall > 0);
    // The counter block ping-pongs: each acquire-side read misses.
    assert!(r.nodes[1].coherence_misses > 25);
    sys.audit_coherence();
}

#[test]
fn sequential_prefetching_removes_sequential_misses() {
    let base = System::new(
        SystemConfig::paper_baseline(),
        micro::sequential_walk(16, 128, 1),
    )
    .run();
    let seq = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        micro::sequential_walk(16, 128, 1),
    )
    .run();
    // The walk covers 128 blocks x 16 cpus (one page each); with d=1
    // sequential prefetching only the first miss per page remains a full
    // miss (later references at worst merge into the in-flight prefetch).
    assert_eq!(base.read_misses(), 128 * 16);
    assert!(
        seq.read_misses() <= 2 * 16,
        "sequential prefetching left {} misses",
        seq.read_misses()
    );
    // Every issued prefetch is eventually consumed.
    assert!(seq.prefetch_efficiency() > 0.95);
    // Stall time improves even where misses became delayed hits.
    assert!(seq.read_stall() < base.read_stall());
}

#[test]
fn idetection_covers_large_strides() {
    // Stride of 3 blocks: sequential prefetching cannot cover it, but
    // I-detection can.
    let wl = || micro::stride_stream(16, 96, 128, 1);
    let base = System::new(SystemConfig::paper_baseline(), wl()).run();
    let idet = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::IDetection { degree: 1 }),
        wl(),
    )
    .run();
    let seq = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        wl(),
    )
    .run();
    let b_miss = base.read_misses();
    let i_miss = idet.read_misses();
    let s_miss = seq.read_misses();
    // I-detection removes almost all full misses. With degree 1 and a
    // tight consumer loop many demands merge into the still-in-flight
    // prefetch (delayed hits) — the latency is then mostly overlapped, so
    // the stall time drops sharply too.
    assert!(i_miss < b_miss / 10, "I-det left {i_miss} of {b_miss}");
    assert!(
        idet.read_stall() < base.read_stall() * 3 / 5,
        "I-det stall {} of {}",
        idet.read_stall(),
        base.read_stall()
    );
    // Sequential prefetching is useless here and removes nothing.
    assert!(s_miss > b_miss * 9 / 10, "Seq removed too much: {s_miss}");
    assert!(idet.prefetch_efficiency() > 0.9);
    assert!(seq.prefetch_efficiency() < 0.1);
}

#[test]
fn ddetection_covers_strides_without_pcs() {
    let wl = || micro::stride_stream(16, 96, 128, 1);
    let base = System::new(SystemConfig::paper_baseline(), wl()).run();
    let ddet = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::DDetection { degree: 1 }),
        wl(),
    )
    .run();
    assert!(
        ddet.read_misses() < base.read_misses() * 2 / 3,
        "D-det left {} of {}",
        ddet.read_misses(),
        base.read_misses()
    );
}

#[test]
fn random_access_defeats_all_prefetchers() {
    // A large private region (8192 blocks) keeps accidental
    // next-block coverage negligible.
    let wl = || micro::random_access(16, 8192, 400);
    let base = System::new(SystemConfig::paper_baseline(), wl()).run();
    for scheme in [
        Scheme::Sequential { degree: 1 },
        Scheme::IDetection { degree: 1 },
        Scheme::DDetection { degree: 1 },
    ] {
        let r = System::new(SystemConfig::paper_baseline().with_scheme(scheme), wl()).run();
        // Miss counts barely move...
        assert!(
            r.read_misses() > base.read_misses() * 8 / 10,
            "{scheme}: {} vs {}",
            r.read_misses(),
            base.read_misses()
        );
    }
    // ...and sequential prefetching wastes bandwidth doing it.
    let seq = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        wl(),
    )
    .run();
    assert!(seq.prefetch_efficiency() < 0.5);
    assert!(seq.net.flits > base.net.flits);
}

#[test]
fn finite_slc_produces_replacement_misses() {
    // Each CPU walks 4096 blocks twice: an infinite SLC absorbs the second
    // pass, a 16 KB SLC (512 blocks) thrashes.
    let infinite = System::new(
        SystemConfig::paper_baseline(),
        micro::sequential_walk(16, 4096, 2),
    )
    .run();
    let finite = System::new(
        SystemConfig::paper_baseline().with_finite_slc(16 * 1024),
        micro::sequential_walk(16, 4096, 2),
    )
    .run();
    assert_eq!(infinite.total(|n| n.replacement_misses), 0);
    assert!(finite.total(|n| n.replacement_misses) >= 16 * 4096);
    assert!(finite.read_misses() > infinite.read_misses());
}

#[test]
fn miss_recording_captures_pc_and_cause() {
    let mut sys = System::new(
        SystemConfig::paper_baseline().with_recording(RecordMisses::Cpu(0)),
        micro::sequential_walk(16, 32, 1),
    );
    let r = sys.run();
    assert_eq!(r.miss_traces[0].len(), 32);
    assert!(r.miss_traces[1].is_empty());
    for rec in &r.miss_traces[0] {
        assert_eq!(rec.cause, MissCause::Cold);
    }
    // Consecutive recorded misses walk consecutive blocks.
    for w in r.miss_traces[0].windows(2) {
        assert_eq!(w[1].block.as_u64() - w[0].block.as_u64(), 1);
    }
}

#[test]
fn barriers_release_everyone() {
    let wl = micro::producer_consumer(16, 8);
    let mut sys = System::new(SystemConfig::paper_baseline(), wl);
    let r = sys.run();
    // All CPUs crossed the barrier (nonzero barrier stall for latecomers,
    // and the run terminated at all).
    assert!(r.total(|n| n.barrier_stall) > 0);
}

#[test]
fn deterministic_replay() {
    let run = || {
        System::new(
            SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 2 }),
            micro::producer_consumer(16, 64),
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.net, b.net);
}

#[test]
fn interleaved_streams_fit_in_the_rpt() {
    // 8 interleaved streams from distinct pcs: the 256-entry RPT tracks
    // them all.
    let mut traces = vec![Vec::new(); 16];
    let wl1 = micro::interleaved_streams(8, 96, 64);
    traces[0] = wl1.trace().iter_cpu(0).collect();
    let base = System::new(
        SystemConfig::paper_baseline(),
        TraceCursor::from_ops("w", &traces),
    )
    .run();
    let idet = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::IDetection { degree: 1 }),
        TraceCursor::from_ops("w", &traces),
    )
    .run();
    let covered = |r: &pfsim::SimResult| r.read_misses() + r.total(|n| n.delayed_hits);
    assert!(
        covered(&idet) < covered(&base) / 2,
        "{} vs {}",
        covered(&idet),
        covered(&base)
    );
}

#[test]
fn set_associativity_absorbs_conflict_misses() {
    // A pathological conflict pattern: each CPU alternates between blocks
    // that map to the same direct-mapped set (16 KB SLC = 512 sets: blocks
    // b and b+512 conflict). 4-way associativity absorbs it entirely.
    let mut traces = vec![Vec::new(); 16];
    for (cpu, trace) in traces.iter_mut().enumerate() {
        let base = (16 + cpu as u64) * 4096 * 8; // distinct pages per cpu
        for _round in 0..20 {
            for way in 0..4u64 {
                trace.push(Op::Read {
                    addr: Addr::new(base + way * 512 * 32),
                    pc: Pc::new(0x700 + way as u32 * 4),
                });
            }
        }
    }
    let wl = || TraceCursor::from_ops("conflict", &traces);
    let dm = System::new(
        SystemConfig::paper_baseline().with_finite_slc(16 * 1024),
        wl(),
    )
    .run();
    let sa = {
        let mut cfg = SystemConfig::paper_baseline();
        cfg = cfg.with_set_assoc_slc(16 * 1024, 4);
        System::new(cfg, wl()).run()
    };
    // Direct-mapped: the four blocks fight over one set, every access
    // replaces; 4-way LRU: after the first round everything hits.
    assert!(
        dm.total(|n| n.replacement_misses) > 16 * 40,
        "direct-mapped absorbed the conflicts: {}",
        dm.total(|n| n.replacement_misses)
    );
    assert_eq!(sa.total(|n| n.replacement_misses), 0, "{:?}", sa.nodes[0]);
    assert!(sa.read_misses() < dm.read_misses() / 5);
}

/// Every registry a run builds gives each metric name one kind and one
/// registering call site (the registry panics otherwise). The prefetcher
/// telemetry names differ per scheme, so each of the seven runs once.
#[test]
fn every_scheme_registers_its_metrics_once() {
    let schemes = [
        Scheme::None,
        Scheme::Sequential { degree: 1 },
        Scheme::IDetection { degree: 1 },
        Scheme::SimpleStride { degree: 1 },
        Scheme::DDetection { degree: 1 },
        Scheme::DDetectionAdaptive {
            degree: 1,
            max_depth: 4,
        },
        Scheme::AdaptiveSequential {
            initial_degree: 1,
            max_degree: 4,
        },
    ];
    for scheme in schemes {
        // A new scheme fails to compile here until it joins the list.
        match scheme {
            Scheme::None
            | Scheme::Sequential { .. }
            | Scheme::IDetection { .. }
            | Scheme::SimpleStride { .. }
            | Scheme::DDetection { .. }
            | Scheme::DDetectionAdaptive { .. }
            | Scheme::AdaptiveSequential { .. } => {}
        }
        let cfg = SystemConfig::builder()
            .scheme(scheme)
            .instrument(true)
            .build();
        let r = System::new(cfg, micro::sequential_walk(16, 32, 1)).run();
        let m = r.metrics.expect("instrumented run carries a snapshot");
        assert!(
            m.counter("ev_cpu_step").is_some_and(|n| n > 0),
            "{scheme:?}"
        );
    }
}

/// `run_metrics` carries the run's own totals into the Figure-6 metrics.
#[test]
fn run_metrics_match_the_result() {
    let wl = micro::sequential_walk(16, 32, 1);
    let r = System::new(SystemConfig::paper_baseline(), wl).run();
    let m = r.run_metrics();
    assert_eq!(m.read_misses, r.read_misses());
    assert_eq!(m.read_stall, r.read_stall());
    assert_eq!(m.exec_cycles, r.exec_cycles);
    assert_eq!(m.flits, r.net.flits);
}

#[test]
fn miss_events_preserve_pc_and_block() {
    let wl = micro::sequential_walk(16, 8, 1);
    let cfg = SystemConfig::paper_baseline().with_recording(RecordMisses::Cpu(0));
    let r = System::new(cfg, wl).run();
    let events: Vec<_> = r.miss_events(0).collect();
    assert_eq!(events.len(), r.miss_traces[0].len());
    for (e, m) in events.iter().zip(&r.miss_traces[0]) {
        assert_eq!(e.pc, m.pc);
        assert_eq!(e.block, m.block);
    }
}
