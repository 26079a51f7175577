//! Property test for the packed shared-trace encoding: seeded random op
//! streams — including wide (>32-bit) addresses that take the wide
//! kinds, lock ops, and barriers — must survive the round trip through
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

/// Directed check of the wide kinds: a >32-bit address on every
/// address-carrying op kind survives packing bit-exactly.
#[test]
fn wide_addresses_take_the_escape_and_survive() {
    let wide = Addr::new(0x0123_4567_89ab_cdc0);
    let pc = Pc::new(0x4040);
    let mut b = TraceBuilder::new("wide", 1);
    b.read(0, wide, pc);
    b.write(0, wide, pc);
    b.acquire(0, wide);
    b.release(0, wide);
    let trace = Arc::new(b.finish());
    let got: Vec<Op> = trace.iter_cpu(0).collect();
    assert_eq!(
        got,
        vec![
            Op::Read { addr: wide, pc },
            Op::Write { addr: wide, pc },
            Op::Acquire { lock: wide },
            Op::Release { lock: wide },
        ]
    );
    // Each wide op is a lead byte plus an 8-byte address (the shared PC
    // sits in the lane's table): 4 x 9 = 36 bytes.
    assert_eq!(trace.packed_bytes(), 36);
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
