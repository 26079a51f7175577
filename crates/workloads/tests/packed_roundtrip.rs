//! Property test for the packed shared-trace encoding: seeded random op
//! streams — including wide (>32-bit) addresses that take the wide
//! form, lock ops, and barriers, both at operands the lane's predictor
//! foresees and elsewhere — must survive the round trip through
//! `TraceBuilder::finish` and back out of a `TraceCursor`.
//!
//! The expected sequence is computed with the builder's documented
//! compute-coalescing model (zero-cycle computes dropped, back-to-back
//! computes merged saturating), so the test also pins that contract.

use std::sync::Arc;

use pfsim_mem::{Addr, Pc, SplitMix64};
use pfsim_workloads::{Op, TraceBuilder, TraceCursor, Workload};

/// Mirrors what `TraceBuilder` emits: the reference model every decoded
/// lane is compared against.
fn push_expected(lane: &mut Vec<Op>, op: Op) {
    if let Op::Compute { cycles } = op {
        if cycles == 0 {
            return;
        }
        if let Some(Op::Compute { cycles: prev }) = lane.last_mut() {
            *prev = prev.saturating_add(cycles);
            return;
        }
    }
    lane.push(op);
}

/// Draws one random op for `cpu`; roughly a quarter of the addresses set
/// the high 32 bits and half of the rest fit in 24 bits, so both the
/// 8-byte and the 3-byte address forms get real coverage.
fn draw_op(rng: &mut SplitMix64) -> Op {
    let wide = rng.random_range(0u8..4) == 0;
    let lo_end = if rng.random_bool() { 1 << 24 } else { u32::MAX };
    let lo = u64::from(rng.random_range(0u32..lo_end)) & !0x3f;
    let hi = if wide {
        u64::from(rng.random_range(1u32..0x100)) << 32
    } else {
        0
    };
    let addr = Addr::new(hi | lo);
    let pc = Pc::new(0x400 + rng.random_range(0u32..64) * 4);
    match rng.random_range(0u8..8) {
        0..=2 => Op::Read { addr, pc },
        3 | 4 => Op::Write { addr, pc },
        // Includes zero-cycle computes, which the encoding must drop.
        5 | 6 => Op::Compute {
            cycles: rng.random_range(0u32..6),
        },
        _ => {
            if rng.random_range(0u8..2) == 0 {
                Op::Acquire { lock: addr }
            } else {
                Op::Release { lock: addr }
            }
        }
    }
}

/// Builds a random trace and the expected decoded lanes side by side.
fn build_case(rng: &mut SplitMix64) -> (TraceBuilder, Vec<Vec<Op>>) {
    let cpus = rng.random_range(2usize..9);
    let mut b = TraceBuilder::new("roundtrip", cpus);
    let mut expected: Vec<Vec<Op>> = vec![Vec::new(); cpus];
    let mut next_barrier = 0u32;
    for _ in 0..rng.random_range(40usize..160) {
        // Occasionally a global barrier; otherwise one op on one cpu.
        if rng.random_range(0u8..16) == 0 {
            let id = b.barrier_all();
            assert_eq!(id, next_barrier, "builder barrier ids are sequential");
            next_barrier += 1;
            for lane in &mut expected {
                push_expected(lane, Op::Barrier { id });
            }
            continue;
        }
        let cpu = rng.random_range(0usize..cpus);
        let op = draw_op(rng);
        match op {
            Op::Read { addr, pc } => b.read(cpu, addr, pc),
            Op::Write { addr, pc } => b.write(cpu, addr, pc),
            Op::Compute { cycles } => b.compute(cpu, cycles),
            Op::Acquire { lock } => b.acquire(cpu, lock),
            Op::Release { lock } => b.release(cpu, lock),
            Op::Barrier { .. } => unreachable!("draw_op never yields barriers"),
        }
        push_expected(&mut expected[cpu], op);
    }
    (b, expected)
}

/// Seeded random streams round-trip exactly: `iter_cpu`, a `TraceCursor`
/// drained in random interleaving, and a rewound replay all yield the
/// reference sequence.
#[test]
fn random_streams_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0x9ac4ed);
    for _case in 0..16 {
        let (builder, expected) = build_case(&mut rng);
        let cpus = expected.len();
        let trace = Arc::new(builder.finish());

        let expected_total: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(trace.total_ops(), expected_total);
        assert_eq!(trace.num_cpus(), cpus);

        // Borrowed iterator decode.
        for (cpu, want) in expected.iter().enumerate() {
            let got: Vec<Op> = trace.iter_cpu(cpu).collect();
            assert_eq!(&got, want, "iter_cpu({cpu}) diverged");
        }

        // Cursor decode under a random cpu interleaving — positions are
        // per-cpu, so draining order must not matter.
        let mut cursor = TraceCursor::new(Arc::clone(&trace));
        let mut got: Vec<Vec<Op>> = vec![Vec::new(); cpus];
        let mut live: Vec<usize> = (0..cpus).collect();
        while !live.is_empty() {
            let pick = live[rng.random_range(0usize..live.len())];
            match cursor.next(pick) {
                Some(op) => got[pick].push(op),
                None => live.retain(|&c| c != pick),
            }
        }
        assert_eq!(got, expected, "cursor decode diverged");

        // A rewound cursor replays the identical sequence.
        cursor.rewind();
        for (cpu, want) in expected.iter().enumerate() {
            let replay: Vec<Op> = std::iter::from_fn(|| cursor.next(cpu)).collect();
            assert_eq!(&replay, want, "rewound replay diverged on cpu {cpu}");
        }
    }
}

/// Directed check of the wide forms: a >32-bit address on every
/// address-carrying op kind survives packing bit-exactly, and a predicted
/// wide address costs no more than a predicted narrow one.
#[test]
fn wide_addresses_take_the_escape_and_survive() {
    let wide = Addr::new(0x0123_4567_89ab_cdc0);
    let pc = Pc::new(0x4040);
    let mut b = TraceBuilder::new("wide", 1);
    b.read(0, wide, pc);
    b.write(0, wide, pc);
    b.read(0, wide, pc);
    b.acquire(0, wide);
    b.release(0, wide);
    let trace = Arc::new(b.finish());
    let got: Vec<Op> = trace.iter_cpu(0).collect();
    assert_eq!(
        got,
        vec![
            Op::Read { addr: wide, pc },
            Op::Write { addr: wide, pc },
            Op::Read { addr: wide, pc },
            Op::Acquire { lock: wide },
            Op::Release { lock: wide },
        ]
    );
    // The first two accesses miss the site's prediction (0, then twice
    // the address), so each is a lead byte, its read/write byte and an
    // 8-byte address (the shared PC sits in the lane's table). They teach
    // the site stride 0, so the third is a 1-byte predicted read. The
    // acquire misses the lane's lock prediction (0), a lead byte plus 8,
    // and the release of the held lock is 1: 2 x 10 + 1 + 9 + 1 = 31.
    assert_eq!(trace.packed_bytes(), 31);
}

/// Seeded lock-heavy streams through the builder round-trip exactly: each
/// CPU walks a strided lock array (some near `u64::MAX`, wrapping) with a
/// critical section per element between global barriers; in half the
/// cases each section nests a second lock. Without nesting the traces
/// pack small: once the lock entry has learnt the stride, a predicted
/// acquire, a release of the held lock and a barrier in sequence cost 1
/// byte each, and the loop bodies fold into runs. A nested lock breaks
/// the one lock entry's stride, so those acquires and the outer release
/// carry their 8-byte operand.
#[test]
fn strided_lock_arrays_round_trip_and_pack_small() {
    let mut rng = SplitMix64::seed_from_u64(0x10c4_5eed);
    for _case in 0..16 {
        let cpus = rng.random_range(1usize..5);
        let nest = rng.random_bool();
        let mut b = TraceBuilder::new("locks", cpus);
        let mut expected: Vec<Vec<Op>> = vec![Vec::new(); cpus];
        for _phase in 0..rng.random_range(1usize..4) {
            for (cpu, want) in expected.iter_mut().enumerate() {
                let base = match rng.random_range(0u8..3) {
                    0 => u64::MAX - 0x100,
                    1 => rng.random_range(0u64..1 << 40),
                    _ => rng.random_range(0u64..1 << 24),
                };
                let stride = [0x40, 0x80, 0u64.wrapping_sub(0x40)][rng.random_range(0usize..3)];
                let nested = nest.then(|| Addr::new(rng.next_u64()));
                let pc = Pc::new(0x400 + 4 * cpu as u32);
                for i in 0..rng.random_range(20u64..200) {
                    let lock = Addr::new(base.wrapping_add(stride.wrapping_mul(i)));
                    let data = Addr::new(0x10_0000 + 8 * i);
                    let mut section = vec![Op::Acquire { lock }];
                    if let Some(inner) = nested {
                        section.extend([Op::Acquire { lock: inner }, Op::Release { lock: inner }]);
                    }
                    section.extend([
                        Op::Read { addr: data, pc },
                        Op::Compute { cycles: 3 },
                        Op::Release { lock },
                    ]);
                    for op in section {
                        match op {
                            Op::Acquire { lock } => b.acquire(cpu, lock),
                            Op::Release { lock } => b.release(cpu, lock),
                            Op::Read { addr, pc } => b.read(cpu, addr, pc),
                            Op::Compute { cycles } => b.compute(cpu, cycles),
                            _ => unreachable!("sections hold no other op"),
                        }
                        push_expected(want, op);
                    }
                }
            }
            let id = b.barrier_all();
            for want in &mut expected {
                push_expected(want, Op::Barrier { id });
            }
        }
        let trace = Arc::new(b.finish());
        for (cpu, want) in expected.iter().enumerate() {
            assert!(
                trace.iter_cpu(cpu).eq(want.iter().copied()),
                "iter_cpu({cpu})"
            );
        }
        let mut cursor = TraceCursor::new(Arc::clone(&trace));
        for _pass in 0..2 {
            for (cpu, want) in expected.iter().enumerate() {
                let got: Vec<Op> = std::iter::from_fn(|| cursor.next(cpu)).collect();
                assert_eq!(&got, want, "cursor decode, cpu {cpu}");
            }
            cursor.rewind();
        }
        let budget = if nest { 5.1 } else { 0.5 };
        assert!(
            trace.bytes_per_op() <= budget,
            "{} B / {} ops (nested: {nest})",
            trace.packed_bytes(),
            trace.total_ops()
        );
    }
}

/// Directed check of compute coalescing: zero-cycle computes vanish and
/// runs of computes merge, including across a dropped zero.
#[test]
fn compute_coalescing_is_exact() {
    let mut b = TraceBuilder::new("coalesce", 1);
    let a = Addr::new(0x1000);
    let pc = Pc::new(0x400);
    b.compute(0, 0); // dropped
    b.compute(0, 3);
    b.compute(0, 0); // dropped, does not break the run
    b.compute(0, 4); // merges into 7
    b.read(0, a, pc);
    b.compute(0, u32::MAX);
    b.compute(0, 5); // saturates
    let trace = b.finish();
    let got: Vec<Op> = trace.iter_cpu(0).collect();
    assert_eq!(
        got,
        vec![
            Op::Compute { cycles: 7 },
            Op::Read { addr: a, pc },
            Op::Compute { cycles: u32::MAX },
        ]
    );
}
