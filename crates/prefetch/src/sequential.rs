//! Fixed-degree sequential prefetching (§3.4).

use pfsim_mem::{BlockAddr, Geometry};

use crate::{emit, ReadAccess, ReadOutcome};

/// Sequential prefetching: on a read miss to block *B*, prefetch
/// *B+1, B+2, …, B+d*; on a demand reference to a prefetched-tagged block,
/// prefetch the block *d* blocks ahead.
///
/// This is the simplest scheme in the study — it needs no detection
/// mechanism at all (in its original form just a counter per cache) — yet
/// the paper finds it does better than or as well as stride prefetching in
/// five of the six applications, because most strides are shorter than the
/// 32-byte block and because it also exploits the spatial locality of
/// non-stride misses.
///
/// Prefetches never cross the page of the triggering reference.
///
/// # Examples
///
/// ```
/// use pfsim_mem::{Addr, BlockAddr, Geometry, Pc};
/// use pfsim_prefetch::{ReadAccess, ReadOutcome, SequentialPrefetcher};
///
/// let mut seq = SequentialPrefetcher::new(Geometry::paper(), 2);
/// let mut out = Vec::new();
/// let miss = ReadAccess {
///     pc: Pc::new(0),
///     addr: Addr::new(64 * 32), // block 64
///     outcome: ReadOutcome::Miss,
/// };
/// seq.on_read(&miss, &mut out);
/// assert_eq!(out, [BlockAddr::new(65), BlockAddr::new(66)]);
///
/// // Later, a hit on tagged block 65 keeps the stream running:
/// out.clear();
/// let hit = ReadAccess { addr: Addr::new(65 * 32), outcome: ReadOutcome::HitPrefetched, ..miss };
/// seq.on_read(&hit, &mut out);
/// assert_eq!(out, [BlockAddr::new(67)]); // 65 + d
/// ```
#[derive(Debug, Clone)]
pub struct SequentialPrefetcher {
    geometry: Geometry,
    degree: u32,
    /// Stream continuations observed (tagged hits and in-flight merges).
    continuations: u64,
    /// Misses that restarted the stream.
    restarts: u64,
}

impl SequentialPrefetcher {
    /// Creates a sequential prefetcher of the given degree.
    ///
    /// A degree of zero produces no prefetches (equivalent to the baseline);
    /// the paper's main evaluation uses *d* = 1.
    pub fn new(geometry: Geometry, degree: u32) -> Self {
        SequentialPrefetcher {
            geometry,
            degree,
            continuations: 0,
            restarts: 0,
        }
    }

    /// Observes one read request: see [`crate::Prefetcher::on_read`].
    pub fn on_read(&mut self, access: &ReadAccess, out: &mut Vec<BlockAddr>) {
        let block = self.geometry.block_of(access.addr);
        if access.outcome.continues_stream() {
            // Prefetch phase: the processor consumed a prefetched block;
            // fetch the block that appears d blocks ahead (none if d = 0).
            self.continuations += 1;
            if self.degree > 0 {
                emit::push_block_offset(self.geometry, block, i64::from(self.degree), out);
            }
        } else if access.outcome == ReadOutcome::Miss {
            // Detection-free "detection" phase: prefetch the next d blocks.
            self.restarts += 1;
            for k in 1..=i64::from(self.degree) {
                emit::push_block_offset(self.geometry, block, k, out);
            }
        }
    }

    pub(crate) fn telemetry(&self, out: &mut Vec<(&'static str, u64)>) {
        out.push(("seq_continuations", self.continuations));
        out.push(("seq_restarts", self.restarts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::{Addr, Pc, SplitMix64};

    fn access(block: u64, outcome: ReadOutcome) -> ReadAccess {
        ReadAccess {
            pc: Pc::new(0x40),
            addr: Addr::new(block * 32),
            outcome,
        }
    }

    fn run(seq: &mut SequentialPrefetcher, a: ReadAccess) -> Vec<u64> {
        let mut out = Vec::new();
        seq.on_read(&a, &mut out);
        out.into_iter().map(|b| b.as_u64()).collect()
    }

    #[test]
    fn miss_prefetches_d_consecutive_blocks() {
        let mut seq = SequentialPrefetcher::new(Geometry::paper(), 4);
        assert_eq!(
            run(&mut seq, access(10, ReadOutcome::Miss)),
            [11, 12, 13, 14]
        );
    }

    #[test]
    fn plain_hits_produce_nothing() {
        let mut seq = SequentialPrefetcher::new(Geometry::paper(), 4);
        assert!(run(&mut seq, access(10, ReadOutcome::Hit)).is_empty());
        assert!(run(&mut seq, access(10, ReadOutcome::InFlightDemand)).is_empty());
    }

    #[test]
    fn tagged_hit_extends_stream_by_one() {
        let mut seq = SequentialPrefetcher::new(Geometry::paper(), 4);
        assert_eq!(run(&mut seq, access(11, ReadOutcome::HitPrefetched)), [15]);
        // A demand merging into an in-flight prefetch behaves the same.
        assert_eq!(
            run(&mut seq, access(12, ReadOutcome::InFlightPrefetch)),
            [16]
        );
    }

    #[test]
    fn never_crosses_page_boundary() {
        let mut seq = SequentialPrefetcher::new(Geometry::paper(), 4);
        // Blocks 126, 127 are the last of page 0 (128 blocks per page).
        assert_eq!(run(&mut seq, access(126, ReadOutcome::Miss)), [127]);
        assert!(run(&mut seq, access(127, ReadOutcome::Miss)).is_empty());
        assert!(run(&mut seq, access(127, ReadOutcome::HitPrefetched)).is_empty());
    }

    #[test]
    fn degree_zero_is_inert() {
        let mut seq = SequentialPrefetcher::new(Geometry::paper(), 0);
        assert!(run(&mut seq, access(10, ReadOutcome::Miss)).is_empty());
        assert!(run(&mut seq, access(10, ReadOutcome::HitPrefetched)).is_empty());
    }

    #[test]
    fn steady_state_stream_fetches_each_block_once() {
        // Walk blocks 0..32 sequentially with d=1: after the initial miss,
        // every reference is a tagged hit and prefetches exactly one new
        // block, one ahead.
        let mut seq = SequentialPrefetcher::new(Geometry::paper(), 1);
        let mut fetched = vec![];
        fetched.extend(run(&mut seq, access(0, ReadOutcome::Miss)));
        for b in 1..32 {
            fetched.extend(run(&mut seq, access(b, ReadOutcome::HitPrefetched)));
        }
        assert_eq!(fetched, (1..=32).collect::<Vec<u64>>());
    }

    /// All candidates stay within the page of the trigger, regardless of
    /// address, outcome or degree (seeded cases).
    #[test]
    fn candidates_always_in_trigger_page() {
        let mut rng = SplitMix64::seed_from_u64(0x5e91);
        for _case in 0..256 {
            let addr = rng.random_range(0u64..(1 << 30));
            let degree = rng.random_range(0u32..16);
            let tagged = rng.random_bool();
            let g = Geometry::paper();
            let mut seq = SequentialPrefetcher::new(g, degree);
            let outcome = if tagged {
                ReadOutcome::HitPrefetched
            } else {
                ReadOutcome::Miss
            };
            let mut out = Vec::new();
            seq.on_read(
                &ReadAccess {
                    pc: Pc::new(0),
                    addr: Addr::new(addr),
                    outcome,
                },
                &mut out,
            );
            let trigger = g.block_of(Addr::new(addr));
            for b in out {
                assert!(g.same_page(trigger, b));
                assert!(b.as_u64() > trigger.as_u64());
            }
        }
    }
}
