//! Property tests for the modern generator families (CHASE, MSTRIDE,
//! SERVER): packed round-trips, address bounds and cross-thread
//! determinism — the invariants the big-mesh experiment grid leans on.

use pfsim_mem::{Addr, Pc};
use pfsim_workloads::{chase, mstride, server, App, Op, PackedTrace, ProblemSize, TraceBuilder};

const PAGE: u64 = 4096;

fn tiny_chase() -> chase::ChaseParams {
    chase::ChaseParams {
        list_nodes_per_cpu: 64,
        tree_nodes: 31,
        walks: 2,
        steps_per_walk: 64,
        probes_per_walk: 8,
        cpus: 64,
        seed: 7,
    }
}

fn tiny_mstride() -> mstride::MstrideParams {
    mstride::MstrideParams {
        rows: 64,
        cols: 32,
        strides: (1, 32, 3),
        iters: 2,
        cpus: 64,
    }
}

fn tiny_server() -> server::ServerParams {
    server::ServerParams {
        heap_blocks: 1024,
        requests_per_cpu: 40,
        sessions: 8,
        hot_blocks: 4,
        scan_blocks: 4,
        cpus: 64,
        seed: 7,
    }
}

fn addr_of(op: Op) -> Option<u64> {
    match op {
        Op::Read { addr, .. } | Op::Write { addr, .. } => Some(addr.as_u64()),
        Op::Acquire { lock } | Op::Release { lock } => Some(lock.as_u64()),
        Op::Compute { .. } | Op::Barrier { .. } => None,
    }
}

/// Page-rounded footprint of a sequence of allocations, mirroring the
/// bump allocator: regions start at page 1 and each is rounded up to a
/// whole page.
fn footprint(region_bytes: &[u64]) -> u64 {
    PAGE + region_bytes
        .iter()
        .map(|b| b.div_ceil(PAGE).max(1) * PAGE)
        .sum::<u64>()
}

/// Every address each family emits lands inside one of its allocations'
/// pages — no index arithmetic escapes the configured footprint, at any
/// processor count.
#[test]
fn refs_stay_in_bounds_for_64_cpus() {
    let cases: [(&str, PackedTrace, u64); 3] = [
        ("CHASE", chase::build(tiny_chase()), {
            let p = tiny_chase();
            footprint(&[
                p.list_nodes_per_cpu * p.cpus as u64 * chase::NODE_BYTES,
                p.tree_nodes * chase::NODE_BYTES,
            ])
        }),
        ("MSTRIDE", mstride::build(tiny_mstride()), {
            let p = tiny_mstride();
            let e = mstride::ELEMENT_BYTES;
            footprint(&[
                p.rows * p.cols * p.strides.0 * e,
                (p.rows + p.cols * p.strides.1) * e,
                p.rows * p.cols * p.strides.2 * e,
            ])
        }),
        ("SERVER", server::build(tiny_server()), {
            let p = tiny_server();
            footprint(&[
                p.heap_blocks * server::RECORD_BYTES,
                p.hot_blocks * server::RECORD_BYTES,
                p.sessions * server::RECORD_BYTES,
                p.sessions * server::RECORD_BYTES,
            ])
        }),
    ];
    for (name, wl, ceiling) in &cases {
        for cpu in 0..64 {
            for op in wl.iter_cpu(cpu) {
                if let Some(a) = addr_of(op) {
                    assert!(
                        (PAGE..*ceiling).contains(&a),
                        "{name} cpu {cpu}: address {a:#x} outside [{PAGE:#x}, {ceiling:#x})"
                    );
                }
            }
        }
    }
}

/// Block-record families keep every access inside its 32-byte record:
/// base-aligned element loads plus field offsets that never straddle a
/// block boundary.
#[test]
fn record_accesses_never_straddle_blocks() {
    let wl = chase::build(tiny_chase());
    for cpu in 0..64 {
        for op in wl.iter_cpu(cpu) {
            if let Some(a) = addr_of(op) {
                assert_eq!(a % 8, 0, "cpu {cpu}: {a:#x} not field-aligned");
                assert!(a % chase::NODE_BYTES < chase::NODE_BYTES);
            }
        }
    }
}

/// Wide addresses also survive hand-built traces with every op kind in
/// between (compute coalescing must not disturb escape sequencing).
#[test]
fn wide_escape_survives_mixed_op_kinds() {
    let mut b = TraceBuilder::new("mixed", 1);
    let big = b.alloc("Big", 1 << 28, 32);
    let pc = b.pc_site();
    let lo = b.element(big, 32, 1);
    let hi = b.element(big, 32, (1 << 28) - 1);
    b.read(0, lo, pc);
    b.compute(0, 3);
    b.compute(0, 4); // coalesces with the previous compute
    b.write(0, hi, pc);
    b.acquire(0, hi);
    b.release(0, hi);
    b.barrier_all();
    b.read(0, hi, pc);
    let packed = b.finish();

    let ops: Vec<Op> = packed.iter_cpu(0).collect();
    assert_eq!(
        ops,
        vec![
            Op::Read {
                addr: lo,
                pc: Pc::new(0x0010_0000)
            },
            Op::Compute { cycles: 7 },
            Op::Write {
                addr: hi,
                pc: Pc::new(0x0010_0000)
            },
            Op::Acquire { lock: hi },
            Op::Release { lock: hi },
            Op::Barrier { id: 0 },
            Op::Read {
                addr: hi,
                pc: Pc::new(0x0010_0000)
            },
        ]
    );
    assert!(hi.as_u64() > u64::from(u32::MAX));
    assert!(Addr::new(hi.as_u64()).as_u64() == hi.as_u64());
}

/// Building the same family with the same seed on different threads
/// yields byte-identical packed traces — the property that lets the
/// bench cache share one trace across a whole experiment grid.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the property under test is agreement across threads"
)]
fn identical_seeds_are_byte_identical_across_threads() {
    for app in App::MODERN {
        let reference = app.build_packed_for(ProblemSize::Default, 16);
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || app.build_packed_for(ProblemSize::Default, 16)))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), reference, "{app}");
        }
    }
}

/// Changing only the seed changes the emitted topology for the seeded
/// families (and the unseeded MSTRIDE ignores it by construction).
#[test]
fn seed_selects_the_topology() {
    let a = chase::build(chase::ChaseParams {
        seed: 1,
        ..tiny_chase()
    });
    let b = chase::build(chase::ChaseParams {
        seed: 2,
        ..tiny_chase()
    });
    assert_ne!(a, b);
    let a = server::build(server::ServerParams {
        seed: 1,
        ..tiny_server()
    });
    let b = server::build(server::ServerParams {
        seed: 2,
        ..tiny_server()
    });
    assert_ne!(a, b);
}
