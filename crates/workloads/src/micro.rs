//! Micro-workloads with analytically known behaviour, used by the test
//! suite and the mechanism benchmarks. Each returns a cursor ready to run.

use pfsim_mem::Addr;
use pfsim_mem::SplitMix64;

use crate::{TraceBuilder, TraceCursor};

/// Each processor repeatedly walks its own private region with a constant
/// byte stride — the cleanest possible stride-sequence source.
///
/// `repeats` full passes are made; under an infinite SLC only the first
/// pass misses, so set `repeats = 1` when studying miss streams.
///
/// # Examples
///
/// ```
/// use pfsim_workloads::{micro, Workload};
/// let wl = micro::stride_stream(4, 64, 100, 1);
/// assert_eq!(wl.num_cpus(), 4);
/// assert_eq!(wl.total_ops(), 4 * 100);
/// ```
pub fn stride_stream(cpus: usize, stride_bytes: u64, len: u64, repeats: u32) -> TraceCursor {
    let mut b = TraceBuilder::new(format!("stride-{stride_bytes}B"), cpus);
    let span = stride_bytes * len;
    let bases: Vec<Addr> = (0..cpus)
        .map(|c| {
            let _ = c;
            b.alloc("stream", span.max(1), 1)
        })
        .collect();
    let pcs: Vec<_> = (0..cpus).map(|_| b.pc_site()).collect();
    for cpu in 0..cpus {
        for _ in 0..repeats {
            for k in 0..len {
                b.read(
                    cpu,
                    Addr::new(bases[cpu].as_u64() + k * stride_bytes),
                    pcs[cpu],
                );
            }
        }
    }
    TraceCursor::new(b.finish())
}

/// Each processor walks its own region one 32-byte block at a time —
/// sequential prefetching's best case.
pub fn sequential_walk(cpus: usize, blocks: u64, repeats: u32) -> TraceCursor {
    stride_stream(cpus, 32, blocks, repeats)
}

/// Each processor reads uniformly random blocks of its own large region —
/// no strides, no spatial locality; every prefetch is useless.
pub fn random_access(cpus: usize, region_blocks: u64, accesses: u64) -> TraceCursor {
    let mut b = TraceBuilder::new("random", cpus);
    let bases: Vec<Addr> = (0..cpus)
        .map(|_| b.alloc("region", region_blocks, 32))
        .collect();
    let pcs: Vec<_> = (0..cpus).map(|_| b.pc_site()).collect();
    let mut rng = SplitMix64::seed_from_u64(0x9e3779b97f4a7c15);
    for cpu in 0..cpus {
        for _ in 0..accesses {
            let block = rng.random_range(0..region_blocks);
            b.read(cpu, Addr::new(bases[cpu].as_u64() + block * 32), pcs[cpu]);
        }
    }
    TraceCursor::new(b.finish())
}

/// CPU 0 writes a region, everyone synchronizes at a barrier, then all
/// other CPUs read the region sequentially — the canonical
/// producer-consumer sharing pattern (coherence misses with high spatial
/// locality at the consumers).
pub fn producer_consumer(cpus: usize, blocks: u64) -> TraceCursor {
    assert!(cpus >= 2, "producer-consumer needs at least two CPUs");
    let mut b = TraceBuilder::new("producer-consumer", cpus);
    let region = b.alloc("region", blocks, 32);
    let wpc = b.pc_site();
    let rpc = b.pc_site();
    for k in 0..blocks {
        b.write(0, Addr::new(region.as_u64() + k * 32), wpc);
    }
    b.barrier_all();
    for cpu in 1..cpus {
        for k in 0..blocks {
            b.read(cpu, Addr::new(region.as_u64() + k * 32), rpc);
        }
    }
    TraceCursor::new(b.finish())
}

/// CPUs 0 and 1 alternately increment a lock-protected shared counter —
/// exercises locks, upgrades and ownership migration. The remaining CPUs
/// (if any) idle, so the workload can run on a full-size machine.
pub fn lock_ping_pong(cpus: usize, rounds: u32) -> TraceCursor {
    assert!(cpus >= 2, "ping-pong needs two active CPUs");
    let mut b = TraceBuilder::new("lock-ping-pong", cpus);
    let counter = b.alloc("counter", 1, 32);
    let lock = b.alloc("lock", 1, 32);
    let rpc = b.pc_site();
    let wpc = b.pc_site();
    for _ in 0..rounds {
        for cpu in 0..2 {
            b.acquire(cpu, lock);
            b.read(cpu, counter, rpc);
            b.compute(cpu, 2);
            b.write(cpu, counter, wpc);
            b.release(cpu, lock);
        }
    }
    TraceCursor::new(b.finish())
}

/// Every CPU reads the same region after CPU 0 initializes it — wide
/// read sharing (the directory's presence vector fills up), then CPU 0
/// rewrites it, invalidating everyone.
pub fn broadcast_then_invalidate(cpus: usize, blocks: u64) -> TraceCursor {
    let mut b = TraceBuilder::new("broadcast-invalidate", cpus);
    let region = b.alloc("region", blocks, 32);
    let wpc = b.pc_site();
    let rpc = b.pc_site();
    let rpc2 = b.pc_site();
    for k in 0..blocks {
        b.write(0, Addr::new(region.as_u64() + k * 32), wpc);
    }
    b.barrier_all();
    for cpu in 0..cpus {
        for k in 0..blocks {
            b.read(cpu, Addr::new(region.as_u64() + k * 32), rpc);
        }
    }
    b.barrier_all();
    for k in 0..blocks {
        b.write(0, Addr::new(region.as_u64() + k * 32), wpc);
    }
    b.barrier_all();
    for cpu in 1..cpus {
        for k in 0..blocks {
            b.read(cpu, Addr::new(region.as_u64() + k * 32), rpc2);
        }
    }
    TraceCursor::new(b.finish())
}

/// A single CPU interleaving `streams` stride sequences from distinct load
/// sites — stresses detection-table capacity and interference.
pub fn interleaved_streams(streams: usize, stride_bytes: u64, len: u64) -> TraceCursor {
    let mut b = TraceBuilder::new("interleaved-streams", 1);
    let span = (stride_bytes * len).max(1);
    let bases: Vec<Addr> = (0..streams).map(|_| b.alloc("stream", span, 1)).collect();
    let pcs: Vec<_> = (0..streams).map(|_| b.pc_site()).collect();
    for k in 0..len {
        for s in 0..streams {
            b.read(0, Addr::new(bases[s].as_u64() + k * stride_bytes), pcs[s]);
        }
    }
    TraceCursor::new(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Workload};

    #[test]
    fn stride_stream_addresses_are_equidistant() {
        let mut wl = stride_stream(1, 96, 10, 1);
        let mut prev: Option<u64> = None;
        while let Some(op) = wl.next(0) {
            if let Op::Read { addr, .. } = op {
                if let Some(p) = prev {
                    assert_eq!(addr.as_u64() - p, 96);
                }
                prev = Some(addr.as_u64());
            }
        }
    }

    #[test]
    fn regions_are_private_per_cpu() {
        let wl = stride_stream(4, 32, 8, 1);
        let mut firsts = Vec::new();
        for cpu in 0..4 {
            if let Some(Op::Read { addr, .. }) = wl.trace().iter_cpu(cpu).next() {
                firsts.push(addr.as_u64() / 4096);
            }
        }
        firsts.dedup();
        assert_eq!(firsts.len(), 4, "regions share pages: {firsts:?}");
    }

    #[test]
    fn random_access_is_deterministic() {
        let a = random_access(2, 64, 50);
        let b = random_access(2, 64, 50);
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn producer_consumer_shape() {
        let wl = producer_consumer(3, 10);
        // CPU 0: 10 writes + 1 barrier; CPUs 1,2: 1 barrier + 10 reads.
        let trace = wl.trace();
        assert_eq!(trace.ops(0), 11);
        assert_eq!(trace.ops(1), 11);
        assert!(matches!(trace.iter_cpu(0).next(), Some(Op::Write { .. })));
        assert!(matches!(trace.iter_cpu(1).next(), Some(Op::Barrier { .. })));
    }

    #[test]
    fn lock_ping_pong_brackets_critical_sections() {
        let wl = lock_ping_pong(2, 2);
        let t: Vec<Op> = wl.trace().iter_cpu(0).collect();
        assert!(matches!(t[0], Op::Acquire { .. }));
        assert!(matches!(t[4], Op::Release { .. }));
    }

    #[test]
    fn interleaved_streams_alternate_pcs() {
        let wl = interleaved_streams(3, 32, 4);
        let pcs: Vec<u32> = wl
            .trace()
            .iter_cpu(0)
            .filter_map(|op| match op {
                Op::Read { pc, .. } => Some(pc.as_u32()),
                _ => None,
            })
            .collect();
        assert_eq!(pcs.len(), 12);
        assert_eq!(
            pcs[0..3]
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
        assert_eq!(pcs[0], pcs[3]);
    }
}
