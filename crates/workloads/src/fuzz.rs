//! Random contended-trace generation for stress testing and fuzzing.
//!
//! The generator maps a compact *op matrix* — per CPU, a vector of
//! `(kind, value)` byte/short pairs — onto a well-formed [`TraceCursor`]:
//! locks are balanced (a held lock is released before another acquire and
//! at end of trace) and every lane ends with a common barrier so the run
//! terminates synchronized. Keeping the randomness in the matrix rather
//! than the trace makes shrinking trivial: delta-debugging removes matrix
//! entries and regenerates, and the result is well-formed by construction.
//!
//! Shared by the `coherence_stress` tier-1 tests and the `pfsim-fuzz`
//! binary in `pfsim-check`.

use crate::{Op, TraceCursor};
use pfsim_mem::{Addr, Pc, SplitMix64};

/// Number of CPU lanes every generated workload has (the paper's machine
/// size; barriers in the simulator expect all nodes to participate).
pub const FUZZ_CPUS: usize = 16;

/// Barrier id appended to every lane so traces end synchronized.
pub const FINAL_BARRIER: u32 = 999;

/// Builds a random 16-CPU workload over a small shared region: reads,
/// writes, computes, locks and barriers, so transactions collide hard.
///
/// `ops_per_cpu` must have at most [`FUZZ_CPUS`] lanes; missing lanes are
/// padded with empty traces (they still join the final barrier), which
/// keeps shrunk matrices valid after whole-CPU removal.
pub fn random_workload(ops_per_cpu: &[Vec<(u8, u16)>], blocks: u64, locks: u64) -> TraceCursor {
    assert!(ops_per_cpu.len() <= FUZZ_CPUS, "too many CPU lanes");
    assert!(blocks > 0 && locks > 0);
    let region_base = 16 * 4096u64; // page 16: home node 0
    let lock_base = 64 * 4096u64;
    let mut traces: Vec<Vec<Op>> = Vec::with_capacity(FUZZ_CPUS);
    for lane in 0..FUZZ_CPUS {
        let ops: &[(u8, u16)] = ops_per_cpu.get(lane).map_or(&[], Vec::as_slice);
        let mut trace = Vec::new();
        let mut held: Option<Addr> = None;
        for &(kind, value) in ops {
            let addr = Addr::new(region_base + u64::from(value) % blocks * 32);
            let pc = Pc::new(0x400 + u32::from(kind % 7) * 4);
            match kind % 6 {
                0 | 1 => trace.push(Op::Read { addr, pc }),
                2 => trace.push(Op::Write { addr, pc }),
                3 => trace.push(Op::Compute {
                    cycles: u32::from(value % 19) + 1,
                }),
                4 => {
                    // Locks must nest properly: release any held lock
                    // before acquiring another.
                    if let Some(lock) = held.take() {
                        trace.push(Op::Release { lock });
                    }
                    let lock = Addr::new(lock_base + u64::from(value) % locks * 64);
                    trace.push(Op::Acquire { lock });
                    held = Some(lock);
                }
                _ => {
                    if let Some(lock) = held.take() {
                        trace.push(Op::Release { lock });
                    }
                }
            }
        }
        if let Some(lock) = held.take() {
            trace.push(Op::Release { lock });
        }
        // A final barrier so every processor's trace ends synchronized.
        trace.push(Op::Barrier { id: FINAL_BARRIER });
        traces.push(trace);
    }
    TraceCursor::from_ops("stress", &traces)
}

/// Draws a full-size op matrix: [`FUZZ_CPUS`] lanes of 20..120 entries.
pub fn random_ops(rng: &mut SplitMix64) -> Vec<Vec<(u8, u16)>> {
    random_ops_sized(rng, 20, 120)
}

/// Draws an op matrix with per-lane lengths in `min_len..max_len`.
pub fn random_ops_sized(
    rng: &mut SplitMix64,
    min_len: usize,
    max_len: usize,
) -> Vec<Vec<(u8, u16)>> {
    (0..FUZZ_CPUS)
        .map(|_| {
            let len = rng.random_range(min_len..max_len);
            (0..len)
                .map(|_| (rng.random_range(0u8..6), rng.random_range(0u16..512)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lane_ends_with_the_final_barrier() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let ops = random_ops(&mut rng);
        let wl = random_workload(&ops, 48, 4);
        for cpu in 0..FUZZ_CPUS {
            assert_eq!(
                wl.trace().iter_cpu(cpu).last(),
                Some(Op::Barrier { id: FINAL_BARRIER })
            );
        }
    }

    #[test]
    fn locks_balance_within_each_lane() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let ops = random_ops(&mut rng);
        let wl = random_workload(&ops, 48, 4);
        for cpu in 0..FUZZ_CPUS {
            let mut held: Option<Addr> = None;
            for op in wl.trace().iter_cpu(cpu) {
                match op {
                    Op::Acquire { lock } => {
                        assert!(held.is_none(), "nested acquire on cpu {cpu}");
                        held = Some(lock);
                    }
                    Op::Release { lock } => {
                        assert_eq!(held.take(), Some(lock), "unbalanced release on cpu {cpu}");
                    }
                    _ => {}
                }
            }
            assert!(held.is_none(), "lock still held at end of cpu {cpu}");
        }
    }

    #[test]
    fn short_matrices_are_padded_to_all_lanes() {
        let wl = random_workload(&[vec![(2, 3)]], 8, 2);
        assert_eq!(wl.trace().ops(0), 2); // write + barrier
        for cpu in 1..FUZZ_CPUS {
            assert_eq!(wl.trace().ops(cpu), 1, "cpu {cpu} should only barrier");
        }
    }
}
