//! SERVER: irregular, large-footprint, TLB-hostile mixed traffic in the
//! style of a modern request-serving workload.
//!
//! Each request touches a handful of uniformly random blocks in a heap
//! that spans thousands of pages (no two consecutive misses share a page,
//! the TLB-hostile part), scans a short sequential buffer (the only
//! pattern sequential prefetching can cover), consults a small hot
//! metadata set, and updates a lock-protected shared session entry (the
//! coherence traffic). Unlike the scientific codes there are no barriers:
//! processors run free until their request budget is spent. All
//! randomness comes from the in-tree [`SplitMix64`], so the same
//! parameters always produce byte-identical traces.

use pfsim_mem::SplitMix64;

use crate::{PackedTrace, TraceBuilder};

/// Size of one heap record in bytes (one cache block).
pub const RECORD_BYTES: u64 = 32;

/// Problem-size parameters for SERVER.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerParams {
    /// Heap records (one block each; the large, cold footprint).
    pub heap_blocks: u64,
    /// Requests served per processor.
    pub requests_per_cpu: u64,
    /// Entries in the shared, lock-protected session table.
    pub sessions: u64,
    /// Records in the hot metadata set.
    pub hot_blocks: u64,
    /// Consecutive blocks scanned per request (the sequential part).
    pub scan_blocks: u64,
    /// Number of processors.
    pub cpus: usize,
    /// Seed for request targets.
    pub seed: u64,
}

impl Default for ServerParams {
    /// A scaled-down size for tests and quick runs.
    fn default() -> Self {
        ServerParams {
            heap_blocks: 1 << 14, // 512 KB over 128 pages
            requests_per_cpu: 500,
            sessions: 64,
            hot_blocks: 16,
            scan_blocks: 4,
            cpus: 16,
            seed: 0x5e17e5,
        }
    }
}

impl ServerParams {
    /// A full-size configuration comparable to the paper's inputs.
    pub fn paper() -> Self {
        ServerParams {
            heap_blocks: 1 << 16, // 2 MB over 512 pages
            requests_per_cpu: 1500,
            sessions: 256,
            hot_blocks: 32,
            scan_blocks: 4,
            cpus: 16,
            seed: 0x5e17e5,
        }
    }

    /// The enlarged data set for trend studies.
    pub fn large() -> Self {
        ServerParams {
            heap_blocks: 1 << 17, // 4 MB over 1024 pages
            requests_per_cpu: 3000,
            sessions: 256,
            hot_blocks: 32,
            scan_blocks: 6,
            cpus: 16,
            seed: 0x5e17e5,
        }
    }
}

/// Builds the SERVER workload.
///
/// # Panics
///
/// Panics if any parameter is zero.
pub fn build(params: ServerParams) -> PackedTrace {
    let ServerParams {
        heap_blocks,
        requests_per_cpu,
        sessions,
        hot_blocks,
        scan_blocks,
        cpus,
        seed,
    } = params;
    assert!(
        heap_blocks > 0
            && requests_per_cpu > 0
            && sessions > 0
            && hot_blocks > 0
            && scan_blocks > 0
            && cpus > 0,
        "SERVER needs a heap, requests and processors"
    );

    let mut b = TraceBuilder::new(format!("SERVER-{heap_blocks}b"), cpus);
    let heap = b.alloc("Heap", heap_blocks, RECORD_BYTES);
    let hot = b.alloc("HotMeta", hot_blocks, RECORD_BYTES);
    let table = b.alloc("Sessions", sessions, RECORD_BYTES);
    let locks = b.alloc("SessionLocks", sessions, RECORD_BYTES);

    let pc_heap = b.pc_site(); // random heap lookups
    let pc_hot = b.pc_site(); // hot metadata
    let pc_scan = b.pc_site(); // the sequential scan
    let pc_sess_r = b.pc_site(); // session read
    let pc_sess_w = b.pc_site(); // session update

    let mut rng = SplitMix64::seed_from_u64(seed);
    // Request order round-robins over processors so interleaved draws
    // from one RNG stay deterministic.
    for _req in 0..requests_per_cpu {
        for p in 0..cpus {
            // Pointer-free random lookups across the whole heap: each
            // draw lands on a different page with high probability.
            for _ in 0..3 {
                let r = rng.random_range(0..heap_blocks);
                b.read(p, b.element(heap, RECORD_BYTES, r), pc_heap);
                b.compute(p, 4);
            }

            // The hot set: near-certain cache hits, keeps the miss
            // stream from being purely random.
            let h = rng.random_range(0..hot_blocks);
            b.read(p, b.element(hot, RECORD_BYTES, h), pc_hot);

            // A short sequential scan from a random record: the only
            // part a sequential prefetcher can cover.
            let start = rng.random_range(0..heap_blocks - scan_blocks);
            for s in 0..scan_blocks {
                b.read(p, b.element(heap, RECORD_BYTES, start + s), pc_scan);
                b.compute(p, 2);
            }

            // Update the session entry under its lock; sessions are
            // shared, so the entry block migrates between processors.
            let sess = rng.random_range(0..sessions);
            b.acquire(p, b.element(locks, RECORD_BYTES, sess));
            b.read(p, b.element(table, RECORD_BYTES, sess), pc_sess_r);
            b.compute(p, 6);
            b.write(p, b.element(table, RECORD_BYTES, sess), pc_sess_w);
            b.release(p, b.element(locks, RECORD_BYTES, sess));

            b.compute(p, 12); // request epilogue
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    fn tiny() -> ServerParams {
        ServerParams {
            heap_blocks: 1024,
            requests_per_cpu: 40,
            sessions: 8,
            hot_blocks: 4,
            scan_blocks: 4,
            cpus: 4,
            seed: 9,
        }
    }

    /// Random heap lookups must spread over many pages (the TLB-hostile
    /// property): far more distinct pages than a page-local workload.
    #[test]
    fn heap_lookups_span_many_pages() {
        let wl = build(tiny());
        let pages: std::collections::BTreeSet<u64> = wl
            .iter_cpu(0)
            .filter_map(|op| match op {
                Op::Read { addr, pc } if pc.as_u32() == 0x0010_0000 => Some(addr.as_u64() / 4096),
                _ => None,
            })
            .collect();
        assert!(pages.len() > 6, "only {} distinct pages", pages.len());
    }

    #[test]
    fn scans_are_sequential() {
        let wl = build(tiny());
        let scans: Vec<u64> = wl
            .iter_cpu(0)
            .filter_map(|op| match op {
                Op::Read { addr, pc } if pc.as_u32() == 0x0010_0008 => Some(addr.as_u64()),
                _ => None,
            })
            .take(4)
            .collect();
        for w in scans.windows(2) {
            assert_eq!(w[1] - w[0], RECORD_BYTES);
        }
    }

    #[test]
    fn session_updates_are_lock_protected() {
        let wl = build(tiny());
        let t: Vec<Op> = wl.iter_cpu(0).collect();
        let acq = t
            .iter()
            .position(|op| matches!(op, Op::Acquire { .. }))
            .unwrap();
        assert!(matches!(t[acq + 1], Op::Read { .. }));
        assert!(matches!(t[acq + 4], Op::Release { .. }));
    }

    #[test]
    fn no_barriers() {
        let wl = build(tiny());
        for cpu in 0..4 {
            assert!(!wl.iter_cpu(cpu).any(|op| matches!(op, Op::Barrier { .. })));
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(build(tiny()), build(tiny()));
    }
}
