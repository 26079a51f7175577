//! D-detection stride prefetching: Hagersten's data-address scheme (§3.2).

use pfsim_mem::{Addr, BlockAddr, Geometry};

use crate::{LruTable, Prefetcher, ReadAccess};

/// Entries in each of the four tables: the paper gives the miss list, the
/// frequency table, the list of common strides and the stream list 16
/// entries each, all with LRU replacement.
const TABLE_ENTRIES: usize = 16;

/// Times a stride must recur before it becomes "common". The paper's 3
/// means four misses belonging to the same stride sequence are required
/// before the stride is recorded as common, and two further misses
/// initiate prefetching.
const STRIDE_THRESHOLD: u32 = 3;

/// Configuration of the D-detection scheme. The four tables' size (16) and
/// the stride threshold (3) are fixed at the paper's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DDetectionConfig {
    /// Degree of prefetching *d* (the initial per-stream lookahead).
    pub degree: u32,
    /// Hagersten's adaptive lookahead (§6): "if the prefetched block is
    /// accessed before it has arrived, the number of blocks that are
    /// prefetched is increased", per stream, up to `max_depth`.
    pub adaptive_depth: bool,
    /// Per-stream lookahead cap when `adaptive_depth` is on.
    pub max_depth: u32,
}

impl Default for DDetectionConfig {
    fn default() -> Self {
        DDetectionConfig {
            degree: 1,
            adaptive_depth: false,
            max_depth: 8,
        }
    }
}

/// An active stride stream being prefetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stream {
    /// Byte address the stream is expected to reference next.
    next: Addr,
    /// Stride in bytes.
    stride: i64,
    /// Current lookahead depth in blocks of stride (starts at the degree;
    /// grows under adaptive lookahead when prefetches arrive late).
    depth: u32,
}

/// D-detection stride prefetching, after Hagersten.
///
/// Unlike I-detection, this scheme never sees the program counter: it must
/// recover stride sequences from the *data addresses* of read misses alone,
/// which makes the detection machinery heavier:
///
/// 1. each read miss is matched against the 16 most recent misses (the
///    **miss list**) and all pairwise strides are computed;
/// 2. each computed stride bumps a counter in the **frequency table**;
///    a stride reaching the *stride threshold* moves to the **list of
///    common strides**;
/// 3. a computed stride that is already common indicates a probable stride
///    sequence: an entry is installed in the **stream list** and
///    prefetching starts;
/// 4. the prefetching phase is the same tagged-block mechanism as the other
///    schemes: a demand reference to a prefetched block advances the
///    matching stream by one block and prefetches *d·S* bytes ahead.
///
/// # Examples
///
/// ```
/// use pfsim_mem::{Addr, Geometry, Pc};
/// use pfsim_prefetch::{DDetection, DDetectionConfig, Prefetcher, ReadAccess, ReadOutcome};
///
/// let mut ddet = DDetection::new(Geometry::paper(), DDetectionConfig::default());
/// let mut out = Vec::new();
/// // Six equidistant misses: the first four train the frequency table
/// // (threshold 3), the next pair matches the now-common stride and
/// // triggers prefetching.
/// for k in 0..6u64 {
///     out.clear();
///     let access = ReadAccess {
///         pc: Pc::new(0),
///         addr: Addr::new(0x10000 + k * 64),
///         outcome: ReadOutcome::Miss,
///     };
///     ddet.on_read(&access, &mut out);
/// }
/// assert!(!out.is_empty(), "stream detected and prefetching started");
/// ```
#[derive(Debug, Clone)]
pub struct DDetection {
    geometry: Geometry,
    config: DDetectionConfig,
    /// Recent miss addresses, most recent first.
    miss_list: LruTable<Addr, ()>,
    /// Candidate strides and how often they have recurred.
    freq: LruTable<i64, u32>,
    /// Strides promoted past the threshold.
    common: LruTable<i64, ()>,
    /// Active streams keyed by the block they expect next.
    streams: LruTable<BlockAddr, Stream>,
    /// Scratch buffer reused across misses for the strides to bump
    /// (avoids a per-miss allocation in the hottest path).
    bump_scratch: Vec<i64>,
    /// Stream-list probes (one per miss or stream continuation).
    stream_lookups: u64,
    /// Probes that found a matching active stream.
    stream_hits: u64,
    /// Streams installed after stride detection.
    streams_installed: u64,
    /// Strides promoted from the frequency table to the common list.
    strides_promoted: u64,
}

impl DDetection {
    /// Creates a D-detection prefetcher.
    pub fn new(geometry: Geometry, config: DDetectionConfig) -> Self {
        DDetection {
            geometry,
            config,
            miss_list: LruTable::new(TABLE_ENTRIES),
            freq: LruTable::new(TABLE_ENTRIES),
            common: LruTable::new(TABLE_ENTRIES),
            streams: LruTable::new(TABLE_ENTRIES),
            bump_scratch: Vec::new(),
            stream_lookups: 0,
            stream_hits: 0,
            streams_installed: 0,
            strides_promoted: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> DDetectionConfig {
        self.config
    }

    /// Number of strides currently recorded as common (for tests/reports).
    pub fn common_strides(&self) -> usize {
        self.common.len()
    }

    /// Number of active streams (for tests/reports).
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Pushes the blocks of `addr + k·stride` for `k = 1..=d`, page-clipped.
    fn push_stream(&self, addr: Addr, stride: i64, out: &mut Vec<BlockAddr>) {
        crate::emit::push_strided_range(self.geometry, addr, stride, 1, self.config.degree, out);
    }

    /// Advances the stream that expected `addr` (if any) and prefetches
    /// the next block(s) of it. `late` means the reference arrived before
    /// the prefetched block did (or missed outright): under adaptive
    /// lookahead the stream's depth grows. Returns whether a stream
    /// matched.
    fn advance_stream(&mut self, addr: Addr, late: bool, out: &mut Vec<BlockAddr>) -> bool {
        let block = self.geometry.block_of(addr);
        self.stream_lookups += 1;
        let Some(stream) = self.streams.remove(&block) else {
            return false;
        };
        self.stream_hits += 1;
        let stride = stream.stride;
        let old_depth = stream.depth;
        let depth = if self.config.adaptive_depth && late {
            (old_depth + 1).min(self.config.max_depth)
        } else {
            old_depth
        };
        // Re-arm the stream unless it walked off the address space.
        if let Some(raw) = stream.next.as_u64().checked_add_signed(stride) {
            let next = Addr::new(raw);
            self.streams.insert(
                self.geometry.block_of(next),
                Stream {
                    next,
                    stride,
                    depth,
                },
            );
        }
        // Prefetch phase: keep the stream `depth` strides ahead. When the
        // depth just grew, emit the extra catch-up block too.
        crate::emit::push_strided_range(self.geometry, addr, stride, old_depth, depth, out);
        true
    }

    fn on_miss(&mut self, addr: Addr, out: &mut Vec<BlockAddr>) {
        // A miss on a block a stream expected: the prefetch did not cover
        // it (dropped, page boundary, or too late) — advance the stream and
        // catch up.
        let advanced = self.advance_stream(addr, true, out);

        // Match against the miss list: compute every pairwise stride.
        let mut detected: Option<i64> = None;
        let mut to_bump = std::mem::take(&mut self.bump_scratch);
        to_bump.clear();
        for (prev, ()) in self.miss_list.iter() {
            let stride = addr.stride_from(*prev);
            if stride == 0 {
                continue;
            }
            if self.common.contains(&stride) {
                // Most recent matching miss wins (the list iterates most
                // recent first).
                if detected.is_none() {
                    detected = Some(stride);
                }
            } else {
                to_bump.push(stride);
            }
        }

        for &stride in &to_bump {
            let promoted = match self.freq.get_mut(&stride) {
                Some(count) => {
                    *count += 1;
                    *count >= STRIDE_THRESHOLD
                }
                None => {
                    self.freq.insert(stride, 1);
                    false
                }
            };
            if promoted {
                self.freq.remove(&stride);
                self.common.insert(stride, ());
                self.strides_promoted += 1;
            }
        }

        if let Some(stride) = detected {
            // Touch the common entry so useful strides stay resident.
            self.common.insert(stride, ());
            if !advanced {
                // Install a stream and start prefetching (unless the
                // stream would immediately leave the address space).
                if let Some(raw) = addr.as_u64().checked_add_signed(stride) {
                    let next = Addr::new(raw);
                    self.streams.insert(
                        self.geometry.block_of(next),
                        Stream {
                            next,
                            stride,
                            depth: self.config.degree,
                        },
                    );
                    self.streams_installed += 1;
                    self.push_stream(addr, stride, out);
                }
            }
        }

        self.miss_list.insert(addr, ());
        self.bump_scratch = to_bump;
    }
}

impl Prefetcher for DDetection {
    fn on_read(&mut self, access: &ReadAccess, out: &mut Vec<BlockAddr>) {
        if access.outcome == crate::ReadOutcome::Miss {
            self.on_miss(access.addr, out);
        } else if access.outcome.continues_stream() {
            // A merge into an in-flight prefetch means the prefetch was
            // issued too late: Hagersten's adaptive lookahead reacts here.
            let late = access.outcome == crate::ReadOutcome::InFlightPrefetch;
            self.advance_stream(access.addr, late, out);
        }
    }

    fn name(&self) -> &'static str {
        "D-det"
    }

    fn telemetry(&self, out: &mut Vec<(&'static str, u64)>) {
        out.push(("stream_lookups", self.stream_lookups));
        out.push(("stream_hits", self.stream_hits));
        out.push(("streams_installed", self.streams_installed));
        out.push(("strides_promoted", self.strides_promoted));
    }

    fn clone_box(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReadOutcome;
    use pfsim_mem::{Pc, SplitMix64};

    fn ddet() -> DDetection {
        DDetection::new(Geometry::paper(), DDetectionConfig::default())
    }

    fn read(d: &mut DDetection, addr: u64, outcome: ReadOutcome) -> Vec<u64> {
        let mut out = Vec::new();
        d.on_read(
            &ReadAccess {
                pc: Pc::new(0),
                addr: Addr::new(addr),
                outcome,
            },
            &mut out,
        );
        out.into_iter().map(|b| b.as_u64()).collect()
    }

    /// Misses 0,S,2S,3S promote stride S to common (threshold 3); misses
    /// 4S,5S then detect the stream.
    #[test]
    fn stream_detected_after_threshold_plus_two() {
        let mut d = ddet();
        let stride = 64u64;
        let base = 0x100000u64;
        let mut first_prefetch = None;
        for k in 0..8 {
            let out = read(&mut d, base + k * stride, ReadOutcome::Miss);
            if !out.is_empty() && first_prefetch.is_none() {
                first_prefetch = Some(k);
            }
        }
        // Strides between non-adjacent misses (2S, 3S, ...) also count, so
        // S itself reaches the threshold at the 4th miss (k=3); detection
        // then needs one more miss whose stride from a recent miss is
        // common.
        let k = first_prefetch.expect("stream never detected");
        assert!((3..=5).contains(&k), "detected at miss {k}");
        assert_eq!(d.active_streams(), 1);
    }

    #[test]
    fn detected_stream_prefetches_ahead() {
        let mut d = ddet();
        let stride = 64u64; // 2 blocks
        let base = 0x100000u64;
        let mut out = Vec::new();
        for k in 0..6 {
            out = read(&mut d, base + k * stride, ReadOutcome::Miss);
        }
        // After detection at addr = base+5S, the next block (+S) is
        // prefetched.
        assert_eq!(out, [(0x100000 + 6 * 64) / 32]);
    }

    #[test]
    fn tagged_hit_advances_stream() {
        let mut d = ddet();
        let stride = 64u64;
        let base = 0x100000u64;
        for k in 0..6 {
            read(&mut d, base + k * stride, ReadOutcome::Miss);
        }
        // The stream expects base+6S; a tagged hit there prefetches +7S.
        let out = read(&mut d, base + 6 * stride, ReadOutcome::HitPrefetched);
        assert_eq!(out, [(base + 7 * stride) / 32]);
        // And the stream keeps walking.
        let out = read(&mut d, base + 7 * stride, ReadOutcome::InFlightPrefetch);
        assert_eq!(out, [(base + 8 * stride) / 32]);
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut d = ddet();
        // Pairwise-distinct strides: no stride ever recurs, nothing becomes
        // common.
        let addrs = [0x1000u64, 0x5078, 0x20110, 0x81238, 0x151000, 0x290ff8];
        for a in addrs {
            assert!(read(&mut d, a, ReadOutcome::Miss).is_empty());
        }
        assert_eq!(d.common_strides(), 0);
        assert_eq!(d.active_streams(), 0);
    }

    #[test]
    fn second_stream_with_known_stride_detects_quickly() {
        let mut d = ddet();
        let stride = 96u64; // 3 blocks
                            // First stream trains the stride into the common list.
        for k in 0..8 {
            read(&mut d, 0x100000 + k * stride, ReadOutcome::Miss);
        }
        assert!(d.common_strides() >= 1);
        // A brand-new stream with the same stride is detected at its
        // *second* miss ("two additional misses are required to initiate
        // prefetching").
        assert!(read(&mut d, 0x900000, ReadOutcome::Miss).is_empty());
        let out = read(&mut d, 0x900000 + stride, ReadOutcome::Miss);
        assert_eq!(out, [(0x900000 + 2 * stride) / 32]);
    }

    #[test]
    fn interleaved_streams_both_detected() {
        let mut d = ddet();
        let s = 64u64;
        let mut prefetched = Vec::new();
        for k in 0..10 {
            prefetched.extend(read(&mut d, 0x100000 + k * s, ReadOutcome::Miss));
            prefetched.extend(read(&mut d, 0x900000 + k * s, ReadOutcome::Miss));
        }
        assert!(prefetched.contains(&((0x100000 + 7 * 64) / 32)));
        assert!(prefetched.contains(&((0x900000 + 7 * 64) / 32)));
        assert_eq!(d.active_streams(), 2);
    }

    #[test]
    fn sub_block_strides_only_prefetch_adjacent_blocks() {
        let mut d = ddet();
        // Stride 8 bytes: a candidate lands in a new block only when the
        // stream approaches a block boundary, and then it is exactly the
        // next sequential block — a stride shorter than the block size
        // degenerates into sequential behaviour.
        for k in 0..16 {
            let addr = 0x100000 + k * 8;
            let trigger = addr / 32;
            for candidate in read(&mut d, addr, ReadOutcome::Miss) {
                assert_eq!(candidate, trigger + 1, "at access {k}");
            }
        }
    }

    /// Candidates never leave the page of the triggering access (seeded
    /// cases).
    #[test]
    fn candidates_stay_in_page() {
        let mut rng = SplitMix64::seed_from_u64(0xdde71);
        for _case in 0..64 {
            let len = rng.random_range(1usize..120);
            let addrs: Vec<u64> = (0..len)
                .map(|_| rng.random_range(0u64..(1 << 22)))
                .collect();
            let g = Geometry::paper();
            let mut d = ddet();
            for &a in &addrs {
                let mut out = Vec::new();
                d.on_read(
                    &ReadAccess {
                        pc: Pc::new(0),
                        addr: Addr::new(a),
                        outcome: ReadOutcome::Miss,
                    },
                    &mut out,
                );
                let trigger = g.block_of(Addr::new(a));
                for b in out {
                    assert!(g.same_page(trigger, b));
                    assert_ne!(b, trigger);
                }
            }
        }
    }

    /// A long perfect stride sequence is eventually covered: once
    /// detected, every subsequent miss or tagged hit prefetches the
    /// next block (seeded cases).
    #[test]
    fn perfect_sequence_is_covered() {
        let mut rng = SplitMix64::seed_from_u64(0xdde72);
        for _case in 0..64 {
            let stride_blocks = rng.random_range(1u64..8);
            let start_page = rng.random_range(0u64..64);
            let g = Geometry::paper();
            let mut d = ddet();
            let stride = stride_blocks * 32;
            let base = (start_page + 4096) * 4096;
            let mut detected = false;
            for k in 0..32u64 {
                let addr = base + k * stride;
                let outcome = if detected {
                    ReadOutcome::HitPrefetched
                } else {
                    ReadOutcome::Miss
                };
                let mut out = Vec::new();
                d.on_read(
                    &ReadAccess {
                        pc: Pc::new(0),
                        addr: Addr::new(addr),
                        outcome,
                    },
                    &mut out,
                );
                let next_in_page = g.same_page(
                    g.block_of(Addr::new(addr)),
                    g.block_of(Addr::new(addr + stride)),
                );
                if detected {
                    // Once a stream is running, it keeps prefetching while
                    // the next block stays in the page.
                    if next_in_page {
                        assert!(!out.is_empty(), "stream stalled at k={k}");
                    }
                } else if !out.is_empty() {
                    detected = true;
                }
            }
            assert!(detected, "stream never detected");
        }
    }
}

#[cfg(test)]
mod lru_tests {
    //! Eviction behavior of the four 16-entry LRU tables, pinned to the
    //! paper's configuration (16 entries each, stride threshold 3).

    use super::*;
    use crate::{ReadAccess, ReadOutcome};
    use pfsim_mem::{Pc, SplitMix64};

    fn ddet() -> DDetection {
        DDetection::new(Geometry::paper(), DDetectionConfig::default())
    }

    fn miss(d: &mut DDetection, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        d.on_read(
            &ReadAccess {
                pc: Pc::new(0),
                addr: Addr::new(addr),
                outcome: ReadOutcome::Miss,
            },
            &mut out,
        );
        out.into_iter().map(|b| b.as_u64()).collect()
    }

    /// The 17th miss pushes the oldest address out of the miss list; the
    /// 16 most recent stay resident.
    #[test]
    fn miss_list_evicts_the_oldest_past_16() {
        let mut d = ddet();
        // Geometric spacing: all pairwise strides distinct, so nothing
        // trains and the only state is the miss list itself.
        let addrs: Vec<u64> = (0..17u32)
            .map(|k| (0x10000u64 << (k / 2)) | (u64::from(k) * 32))
            .collect();
        for &a in &addrs {
            miss(&mut d, a);
        }
        assert_eq!(d.miss_list.len(), 16);
        assert!(
            !d.miss_list.contains(&Addr::new(addrs[0])),
            "oldest miss survived 16 newer ones"
        );
        for &a in &addrs[1..] {
            assert!(d.miss_list.contains(&Addr::new(a)), "{a:#x} evicted early");
        }
    }

    /// A trained common stride is evicted once 16 newer strides enter the
    /// list, after which a fresh sequence with that stride must retrain
    /// from scratch before prefetching resumes.
    #[test]
    fn common_stride_eviction_forces_retraining() {
        let mut d = ddet();
        let stride = 64u64;
        for k in 0..8 {
            miss(&mut d, 0x100000 + k * stride);
        }
        assert!(d.common.contains(&(stride as i64)), "stride never trained");

        // Quick re-detection while the stride is resident: a brand-new
        // sequence prefetches at its second miss.
        assert!(miss(&mut d, 0x900000).is_empty());
        assert!(!miss(&mut d, 0x900000 + stride).is_empty());

        // 16 newer common strides (none a multiple the training produced)
        // push the trained entry out — LRU, not random, replacement.
        for i in 0..16i64 {
            d.common.insert(1000 + 7 * i, ());
        }
        assert!(
            !d.common.contains(&(stride as i64)),
            "trained stride survived 16 newer common entries"
        );

        // Now the same stride at a fresh base is no longer recognized at
        // the second miss...
        let base = 0xa00000u64;
        assert!(miss(&mut d, base).is_empty());
        assert!(
            miss(&mut d, base + stride).is_empty(),
            "prefetched from an evicted common stride"
        );
        // ...but retrains: continuing the sequence re-promotes it and
        // prefetching resumes.
        let mut redetected = false;
        for k in 2..10 {
            if !miss(&mut d, base + k * stride).is_empty() {
                redetected = true;
                break;
            }
        }
        assert!(redetected, "stride never retrained after eviction");
        assert!(d.common.contains(&(stride as i64)));
    }

    /// 17 installed streams overflow the 16-entry stream list: the oldest
    /// stream dies, and a reference it expected no longer advances
    /// anything.
    #[test]
    fn stream_list_evicts_the_oldest_stream() {
        let mut d = ddet();
        let stride = 64u64;
        // Train the stride once...
        for k in 0..8 {
            miss(&mut d, 0x100000 + k * stride);
        }
        // ...then install 17 streams via two-miss detections at bases far
        // enough apart that no cross-sequence stride is ever common.
        let g = Geometry::paper();
        let bases: Vec<u64> = (0..17u64).map(|i| (0x900 + 5 * i) * 0x100000).collect();
        for &base in &bases {
            miss(&mut d, base);
            assert!(
                !miss(&mut d, base + stride).is_empty(),
                "stream at {base:#x} not installed"
            );
        }
        assert_eq!(d.streams.len(), 16, "stream list exceeded its capacity");
        // The first stream expected base+2S next; that entry is gone.
        let dead = g.block_of(Addr::new(bases[0] + 2 * stride));
        assert!(!d.streams.contains(&dead), "oldest stream survived");
        // And a tagged hit there no longer advances any stream.
        let mut out = Vec::new();
        d.on_read(
            &ReadAccess {
                pc: Pc::new(0),
                addr: Addr::new(bases[0] + 2 * stride),
                outcome: ReadOutcome::HitPrefetched,
            },
            &mut out,
        );
        assert!(out.is_empty(), "dead stream still prefetching: {out:?}");
        // The newest stream is alive.
        assert!(d
            .streams
            .contains(&g.block_of(Addr::new(bases[16] + 2 * stride))));
    }

    /// Under random miss hammering no table ever exceeds its configured
    /// 16 entries (seeded cases).
    #[test]
    fn tables_never_exceed_capacity() {
        let mut rng = SplitMix64::seed_from_u64(0xdde73);
        let mut d = ddet();
        for _ in 0..4000 {
            // A mix of short stride bursts and random addresses keeps all
            // four tables churning.
            let base = rng.random_range(0u64..(1 << 24)) & !31;
            let stride = u64::from(rng.random_range(1u32..5)) * 32;
            for k in 0..rng.random_range(1u64..5) {
                miss(&mut d, base + k * stride);
            }
            assert!(d.miss_list.len() <= 16);
            assert!(d.freq.len() <= 16);
            assert!(d.common.len() <= 16);
            assert!(d.streams.len() <= 16);
        }
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use crate::{Prefetcher, ReadAccess, ReadOutcome};
    use pfsim_mem::Pc;

    fn adaptive() -> DDetection {
        DDetection::new(
            Geometry::paper(),
            DDetectionConfig {
                adaptive_depth: true,
                max_depth: 4,
                ..DDetectionConfig::default()
            },
        )
    }

    fn feed(d: &mut DDetection, addr: u64, outcome: ReadOutcome) -> Vec<u64> {
        let mut out = Vec::new();
        d.on_read(
            &ReadAccess {
                pc: Pc::new(0),
                addr: Addr::new(addr),
                outcome,
            },
            &mut out,
        );
        out.into_iter().map(|b| b.as_u64()).collect()
    }

    /// Consuming prefetched blocks *before they arrive* deepens the
    /// stream: the furthest prefetch target climbs (in strides ahead of
    /// the consumer) until it saturates at the cap. Detection-phase misses
    /// also count as "late", so the climb may begin during detection.
    #[test]
    fn late_consumption_grows_the_lookahead() {
        let mut d = adaptive();
        let stride = 64u64;
        let base = 0x100000u64;
        for k in 0..6 {
            feed(&mut d, base + k * stride, ReadOutcome::Miss);
        }
        let mut max_ahead = 0u64;
        for k in 6..14 {
            let addr = base + k * stride;
            let out = feed(&mut d, addr, ReadOutcome::InFlightPrefetch);
            assert!(!out.is_empty(), "stream stalled at k={k}");
            let furthest = out.iter().max().unwrap() * 32;
            let ahead = (furthest - addr) / stride;
            assert!(ahead >= max_ahead, "lookahead shrank at k={k}");
            max_ahead = ahead.max(max_ahead);
        }
        assert_eq!(max_ahead, 4, "lookahead should saturate at max_depth");
    }

    /// Timely consumption keeps the depth flat (one prefetch per hit).
    #[test]
    fn timely_consumption_keeps_depth_flat() {
        let mut d = adaptive();
        let stride = 64u64;
        let base = 0x100000u64;
        for k in 0..6 {
            feed(&mut d, base + k * stride, ReadOutcome::Miss);
        }
        for k in 6..12 {
            let out = feed(&mut d, base + k * stride, ReadOutcome::HitPrefetched);
            assert_eq!(out.len(), 1, "at k={k}: {out:?}");
        }
    }

    /// The depth saturates at `max_depth`.
    #[test]
    fn depth_saturates_at_the_cap() {
        let mut d = adaptive();
        let stride = 64u64;
        let base = 0x100000u64;
        for k in 0..6 {
            feed(&mut d, base + k * stride, ReadOutcome::Miss);
        }
        // Hammer with late consumptions far past the cap.
        let mut last = Vec::new();
        for k in 6..20 {
            last = feed(&mut d, base + k * stride, ReadOutcome::InFlightPrefetch);
        }
        // At saturation only the steady-state single block is emitted.
        assert_eq!(last.len(), 1, "{last:?}");
        let addr = base + 19 * stride;
        assert_eq!(last[0], (addr + 4 * stride) / 32);
    }

    /// The non-adaptive configuration is unaffected by late consumption.
    #[test]
    fn non_adaptive_ignores_lateness() {
        let mut d = DDetection::new(Geometry::paper(), DDetectionConfig::default());
        let stride = 64u64;
        let base = 0x100000u64;
        for k in 0..6 {
            feed(&mut d, base + k * stride, ReadOutcome::Miss);
        }
        for k in 6..12 {
            let out = feed(&mut d, base + k * stride, ReadOutcome::InFlightPrefetch);
            assert_eq!(out.len(), 1, "at k={k}");
        }
    }
}
