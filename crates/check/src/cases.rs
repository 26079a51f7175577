//! The fuzz case mix: each case's trace, scheme and machine, drawn
//! deterministically from one seeded RNG (the `pfsim-fuzz` binary runs it
//! under the oracle; the hook-coverage test runs it under
//! [`HookCounts`](pfsim::HookCounts)).

use pfsim::SystemConfig;
use pfsim_mem::SplitMix64;
use pfsim_prefetch::Scheme;
use pfsim_workloads::fuzz::{random_ops, random_workload};
use pfsim_workloads::TraceCursor;

use crate::OpMatrix;

/// Number of cases in the CI smoke run (`pfsim-fuzz --smoke`).
pub const SMOKE_CASES: usize = 200;

/// RNG seed of the CI smoke run.
pub const SMOKE_SEED: u64 = 0x5eed_f002;

/// The scheme rotation: every case exercises a different prefetcher.
const SCHEMES: [Scheme; 6] = [
    Scheme::None,
    Scheme::Sequential { degree: 2 },
    Scheme::IDetection { degree: 1 },
    Scheme::SimpleStride { degree: 1 },
    Scheme::DDetection { degree: 1 },
    Scheme::AdaptiveSequential {
        initial_degree: 2,
        max_degree: 8,
    },
];

/// One case's full configuration, derived deterministically from the RNG.
pub struct FuzzCase {
    /// Per-CPU random op lanes.
    pub ops: OpMatrix,
    /// Prefetching scheme.
    pub scheme: Scheme,
    /// Run on a 1 KB direct-mapped SLC (odd cases) instead of an infinite one.
    pub finite_slc: bool,
    /// Number of distinct data blocks the ops address.
    pub blocks: u64,
    /// Number of distinct locks.
    pub locks: u64,
}

impl FuzzCase {
    /// Draws case number `index` from `rng`.
    pub fn draw(rng: &mut SplitMix64, index: usize) -> FuzzCase {
        let ops = random_ops(rng);
        FuzzCase {
            ops,
            scheme: SCHEMES[index % SCHEMES.len()],
            finite_slc: index % 2 == 1,
            blocks: [32, 48, 96][index % 3],
            locks: [2, 4][index % 2],
        }
    }

    /// The machine the case runs on.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline().with_scheme(self.scheme);
        if self.finite_slc {
            cfg = cfg.with_finite_slc(1024);
        }
        cfg
    }

    /// The case's workload over `ops` (its own lanes, or a shrunk copy).
    pub fn workload(&self, ops: &[Vec<(u8, u16)>]) -> TraceCursor {
        random_workload(ops, self.blocks, self.locks)
    }
}
