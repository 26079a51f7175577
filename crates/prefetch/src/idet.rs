//! I-detection stride prefetching: the Reference Prediction Table (§3.2,
//! Figures 3 and 4).

use pfsim_mem::{Addr, BlockAddr, Geometry, Pc};

use crate::{Prefetcher, ReadAccess};

/// Control state of one RPT entry — the Baer–Chen state-transition graph of
/// Figure 4.
///
/// The text of the paper describes the transitions as: a newly computed
/// stride puts the entry in `Init` and starts prefetching; a third
/// consecutive correct prediction reaches `Steady`; a single incorrect
/// prediction from `Steady` falls back to `Init` *without* recomputing the
/// stride; a second consecutive incorrect prediction moves to `Transient`
/// and recomputes the stride from the two preceding addresses; a third
/// consecutive incorrect prediction reaches `NoPref`, which stops issuing
/// prefetches for that instruction (the feature that keeps the scheme's
/// useless-prefetch count low).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RptState {
    /// A stride has just been computed (or a misprediction interrupted a
    /// steady stream); prefetching is active.
    Init,
    /// The instruction has followed the same stride repeatedly; prefetching
    /// is active.
    Steady,
    /// Two consecutive mispredictions; a fresh stride has been computed and
    /// is on probation; prefetching is active.
    Transient,
    /// Three consecutive mispredictions; prefetching for this instruction
    /// is disabled until the stride proves itself again.
    NoPref,
}

impl RptState {
    /// Whether prefetches are issued in this state.
    pub fn prefetches(self) -> bool {
        !matches!(self, RptState::NoPref)
    }
}

#[derive(Debug, Clone, Copy)]
struct RptEntry {
    /// Full instruction address, used as the tag.
    tag: u32,
    /// Data address of the previous access by this instruction.
    prev: Addr,
    /// Detected stride in bytes; `None` until the second access.
    stride: Option<i64>,
    state: RptState,
}

/// Configuration of the I-detection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IDetectionConfig {
    /// Degree of prefetching *d*.
    pub degree: u32,
    /// Number of RPT entries (direct-mapped). The paper (and Chen & Baer)
    /// use 256.
    pub entries: usize,
}

impl Default for IDetectionConfig {
    fn default() -> Self {
        IDetectionConfig {
            degree: 1,
            entries: 256,
        }
    }
}

/// I-detection stride prefetching.
///
/// Read requests presented to the SLC carry the instruction address of the
/// load that issued them; the RPT — a 256-entry direct-mapped cache indexed
/// by instruction address — tracks, per load instruction, the last data
/// address, the detected stride, and a control state ([`RptState`]).
///
/// Detection: the first *miss* by an instruction allocates its entry; the
/// second access computes the stride and starts prefetching (*B+S …
/// B+d·S*). Prefetch phase: a demand reference to a prefetched-tagged block
/// that hits in the RPT prefetches the block *d·S* bytes ahead, keeping the
/// stream exactly *d* blocks in front of the processor.
///
/// # Examples
///
/// ```
/// use pfsim_mem::{Addr, BlockAddr, Geometry, Pc};
/// use pfsim_prefetch::{IDetection, IDetectionConfig, Prefetcher, ReadAccess, ReadOutcome};
///
/// let mut idet = IDetection::new(Geometry::paper(), IDetectionConfig::default());
/// let pc = Pc::new(0x400);
/// let mut out = Vec::new();
/// // First miss allocates the entry; second (one 64-byte stride later)
/// // detects S=64 and prefetches the block at +64 bytes:
/// idet.on_read(&ReadAccess { pc, addr: Addr::new(0x1000), outcome: ReadOutcome::Miss }, &mut out);
/// assert!(out.is_empty());
/// idet.on_read(&ReadAccess { pc, addr: Addr::new(0x1040), outcome: ReadOutcome::Miss }, &mut out);
/// assert_eq!(out, [BlockAddr::new(0x1080 / 32)]);
/// ```
#[derive(Debug, Clone)]
pub struct IDetection {
    geometry: Geometry,
    config: IDetectionConfig,
    table: Vec<Option<RptEntry>>,
    /// RPT probes (one per read presented to the scheme).
    lookups: u64,
    /// Probes that found a resident entry with a matching tag.
    hits: u64,
    /// Entries (re)allocated on an RPT miss.
    allocs: u64,
}

impl IDetection {
    /// Creates an I-detection prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries` is not a nonzero power of two.
    pub fn new(geometry: Geometry, config: IDetectionConfig) -> Self {
        assert!(
            config.entries.is_power_of_two(),
            "RPT entry count must be a power of two, got {}",
            config.entries
        );
        IDetection {
            geometry,
            config,
            table: vec![None; config.entries],
            lookups: 0,
            hits: 0,
            allocs: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> IDetectionConfig {
        self.config
    }

    /// The control state currently recorded for `pc`, if its entry is
    /// resident (exposed for tests and for the ablation reports).
    pub fn state_of(&self, pc: Pc) -> Option<RptState> {
        let idx = self.index(pc);
        self.table[idx]
            .as_ref()
            .filter(|e| e.tag == pc.as_u32())
            .map(|e| e.state)
    }

    #[inline]
    fn index(&self, pc: Pc) -> usize {
        // Instruction addresses are word-aligned; drop the low bits so
        // consecutive load sites spread over consecutive sets.
        ((pc.as_u32() >> 2) as usize) & (self.table.len() - 1)
    }

    /// Emits the blocks of `addr + k·stride` for `k = 1..=d`, page-clipped
    /// and skipping candidates that stay in the trigger's own block.
    fn push_stream(&self, addr: Addr, stride: i64, out: &mut Vec<BlockAddr>) {
        crate::emit::push_strided_range(self.geometry, addr, stride, 1, self.config.degree, out);
    }

    /// The block `d·stride` bytes ahead of `addr`, if it leaves the current
    /// block but stays in the page ("B+d*S+S" in the paper, with
    /// addr = B+S).
    fn push_ahead(&self, addr: Addr, stride: i64, out: &mut Vec<BlockAddr>) {
        crate::emit::push_strided_ahead(self.geometry, addr, stride, self.config.degree, out);
    }
}

impl Prefetcher for IDetection {
    fn on_read(&mut self, access: &ReadAccess, out: &mut Vec<BlockAddr>) {
        let idx = self.index(access.pc);
        let tag = access.pc.as_u32();
        self.lookups += 1;

        let Some(entry) = self.table[idx].as_mut().filter(|e| e.tag == tag) else {
            // RPT miss: allocate only for SLC misses ("the first time a
            // certain load instruction misses in the SLC").
            if access.outcome == crate::ReadOutcome::Miss {
                self.allocs += 1;
                self.table[idx] = Some(RptEntry {
                    tag,
                    prev: access.addr,
                    stride: None,
                    state: RptState::Init,
                });
            }
            return;
        };
        self.hits += 1;

        match entry.stride {
            None => {
                // Second access by this instruction: compute the stride,
                // enter Init, and begin prefetching.
                let stride = access.addr.stride_from(entry.prev);
                entry.prev = access.addr;
                if stride == 0 {
                    return;
                }
                entry.stride = Some(stride);
                entry.state = RptState::Init;
                self.push_stream(access.addr, stride, out);
            }
            Some(stride) => {
                let new_stride = access.addr.stride_from(entry.prev);
                let correct = new_stride == stride;
                let (next_state, recompute) = match (entry.state, correct) {
                    (RptState::Init, true) => (RptState::Steady, false),
                    (RptState::Init, false) => (RptState::Transient, true),
                    (RptState::Steady, true) => (RptState::Steady, false),
                    (RptState::Steady, false) => (RptState::Init, false),
                    (RptState::Transient, true) => (RptState::Steady, false),
                    (RptState::Transient, false) => (RptState::NoPref, true),
                    (RptState::NoPref, true) => (RptState::Transient, false),
                    (RptState::NoPref, false) => (RptState::NoPref, true),
                };
                let stride = if recompute && new_stride != 0 {
                    entry.stride = Some(new_stride);
                    new_stride
                } else {
                    stride
                };
                entry.state = next_state;
                entry.prev = access.addr;
                let state = entry.state;

                if !state.prefetches() || stride == 0 {
                    return;
                }
                if access.outcome.continues_stream() && correct {
                    // Prefetch phase: keep the stream d blocks ahead.
                    self.push_ahead(access.addr, stride, out);
                } else if access.outcome == crate::ReadOutcome::Miss {
                    // (Re)start the stream: either detection just finished
                    // or a prefetch was dropped and the stream must catch
                    // up.
                    self.push_stream(access.addr, stride, out);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "I-det"
    }

    fn telemetry(&self, out: &mut Vec<(&'static str, u64)>) {
        out.push(("rpt_lookups", self.lookups));
        out.push(("rpt_hits", self.hits));
        out.push(("rpt_allocs", self.allocs));
    }

    fn clone_box(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReadOutcome;
    use pfsim_mem::SplitMix64;

    const PC: Pc = Pc::new(0x400);

    fn idet(degree: u32) -> IDetection {
        IDetection::new(
            Geometry::paper(),
            IDetectionConfig {
                degree,
                entries: 256,
            },
        )
    }

    fn read(i: &mut IDetection, addr: u64, outcome: ReadOutcome) -> Vec<u64> {
        let mut out = Vec::new();
        i.on_read(
            &ReadAccess {
                pc: PC,
                addr: Addr::new(addr),
                outcome,
            },
            &mut out,
        );
        out.into_iter().map(|b| b.as_u64()).collect()
    }

    #[test]
    fn detection_takes_two_misses() {
        let mut i = idet(1);
        // Stride of 2 blocks (64 bytes).
        assert!(read(&mut i, 0x1000, ReadOutcome::Miss).is_empty());
        assert_eq!(read(&mut i, 0x1040, ReadOutcome::Miss), [0x1080 / 32]);
        assert_eq!(i.state_of(PC), Some(RptState::Init));
    }

    #[test]
    fn three_in_a_row_reaches_steady() {
        let mut i = idet(1);
        read(&mut i, 0x1000, ReadOutcome::Miss);
        read(&mut i, 0x1040, ReadOutcome::Miss);
        read(&mut i, 0x1080, ReadOutcome::Miss);
        assert_eq!(i.state_of(PC), Some(RptState::Steady));
    }

    #[test]
    fn single_mispredict_from_steady_keeps_stride() {
        let mut i = idet(1);
        for addr in [0x1000, 0x1040, 0x1080, 0x10c0] {
            read(&mut i, addr, ReadOutcome::Miss);
        }
        assert_eq!(i.state_of(PC), Some(RptState::Steady));
        // Jump elsewhere once: Steady -> Init, stride still 0x40.
        read(&mut i, 0x5000, ReadOutcome::Miss);
        assert_eq!(i.state_of(PC), Some(RptState::Init));
        // A correct prediction from the new position (stride kept at 0x40):
        let out = read(&mut i, 0x5040, ReadOutcome::Miss);
        assert_eq!(i.state_of(PC), Some(RptState::Steady));
        assert_eq!(out, [0x5080 / 32]);
    }

    #[test]
    fn three_mispredictions_shut_prefetching_off() {
        let mut i = idet(1);
        read(&mut i, 0x1000, ReadOutcome::Miss);
        read(&mut i, 0x1040, ReadOutcome::Miss); // stride 0x40, Init
        read(&mut i, 0x3000, ReadOutcome::Miss); // incorrect #1: Transient
        assert_eq!(i.state_of(PC), Some(RptState::Transient));
        read(&mut i, 0x7000, ReadOutcome::Miss); // incorrect #2: NoPref
        assert_eq!(i.state_of(PC), Some(RptState::NoPref));
        // In NoPref, no prefetches are issued even though strides keep
        // being computed.
        assert!(read(&mut i, 0x9000, ReadOutcome::Miss).is_empty());
        assert_eq!(i.state_of(PC), Some(RptState::NoPref));
    }

    #[test]
    fn nopref_recovers_after_correct_predictions() {
        let mut i = idet(1);
        // Drive into NoPref with erratic addresses.
        for addr in [0x1000, 0x1040, 0x3000, 0x7000] {
            read(&mut i, addr, ReadOutcome::Miss);
        }
        assert_eq!(i.state_of(PC), Some(RptState::NoPref));
        // Two more erratic accesses recompute a small stride (0x40)...
        read(&mut i, 0x9000, ReadOutcome::Miss);
        read(&mut i, 0x9040, ReadOutcome::Miss);
        assert_eq!(i.state_of(PC), Some(RptState::NoPref));
        // ...and one correct prediction re-enables prefetching.
        let out = read(&mut i, 0x9080, ReadOutcome::Miss);
        assert_eq!(i.state_of(PC), Some(RptState::Transient));
        assert_eq!(out, [0x90c0 / 32]);
    }

    #[test]
    fn tagged_hit_prefetches_d_blocks_ahead() {
        let mut i = idet(2);
        // Detect stride = 1 block.
        read(&mut i, 0x1000, ReadOutcome::Miss);
        let first = read(&mut i, 0x1020, ReadOutcome::Miss);
        assert_eq!(first, [0x1040 / 32, 0x1060 / 32]);
        // Hit on the tagged block at 0x1040: the next stream block is
        // d·S = 0x40 bytes ahead, i.e. 0x1080 (0x1040/0x1060 are already
        // prefetched).
        let next = read(&mut i, 0x1040, ReadOutcome::HitPrefetched);
        assert_eq!(next, [0x1080 / 32]);
    }

    #[test]
    fn sub_block_strides_prefetch_nothing_new() {
        let mut i = idet(1);
        // Stride of 8 bytes: all candidates stay in the trigger block.
        read(&mut i, 0x1000, ReadOutcome::Miss);
        assert!(read(&mut i, 0x1008, ReadOutcome::Miss).is_empty());
        assert!(read(&mut i, 0x1010, ReadOutcome::Miss).is_empty());
    }

    #[test]
    fn zero_stride_never_trains() {
        let mut i = idet(1);
        read(&mut i, 0x1000, ReadOutcome::Miss);
        assert!(read(&mut i, 0x1000, ReadOutcome::Miss).is_empty());
        assert!(read(&mut i, 0x1000, ReadOutcome::Miss).is_empty());
    }

    #[test]
    fn negative_strides_work() {
        let mut i = idet(1);
        read(&mut i, 0x2000, ReadOutcome::Miss);
        let out = read(&mut i, 0x1fc0, ReadOutcome::Miss);
        assert_eq!(out, [0x1f80 / 32]);
    }

    #[test]
    fn page_boundary_clips_stream() {
        let mut i = idet(4);
        // Stride of 1 block reaching the last block of page 0 (0x0fe0):
        // every candidate would land in page 1 and must be dropped.
        read(&mut i, 0x0fc0, ReadOutcome::Miss);
        let out = read(&mut i, 0x0fe0, ReadOutcome::Miss);
        assert!(out.is_empty(), "0x1000.. is the next page: {out:?}");
    }

    #[test]
    fn conflicting_pcs_evict_each_other() {
        let mut i = idet(1);
        let pc_a = Pc::new(0x400);
        let pc_b = Pc::new(0x400 + 256 * 4); // same RPT set
        let mut out = Vec::new();
        i.on_read(
            &ReadAccess {
                pc: pc_a,
                addr: Addr::new(0x1000),
                outcome: ReadOutcome::Miss,
            },
            &mut out,
        );
        assert!(i.state_of(pc_a).is_some());
        i.on_read(
            &ReadAccess {
                pc: pc_b,
                addr: Addr::new(0x9000),
                outcome: ReadOutcome::Miss,
            },
            &mut out,
        );
        // pc_b displaced pc_a.
        assert!(i.state_of(pc_a).is_none());
        assert!(i.state_of(pc_b).is_some());
    }

    #[test]
    fn distinct_pcs_track_interleaved_streams() {
        let mut i = idet(1);
        let pc_a = Pc::new(0x400);
        let pc_b = Pc::new(0x500);
        let mut results = Vec::new();
        // Interleave two stride sequences, as a loop with two loads would.
        for k in 0..4u64 {
            for (pc, base, stride) in [(pc_a, 0x1000, 0x20), (pc_b, 0x80000, 0x40)] {
                let mut out = Vec::new();
                i.on_read(
                    &ReadAccess {
                        pc,
                        addr: Addr::new(base + k * stride),
                        outcome: ReadOutcome::Miss,
                    },
                    &mut out,
                );
                results.extend(out.into_iter().map(|b| b.as_u64()));
            }
        }
        // Both streams detected and prefetched without interference.
        assert!(results.contains(&(0x1040 / 32)));
        assert!(results.contains(&(0x80080 / 32)));
        assert_eq!(i.state_of(pc_a), Some(RptState::Steady));
        assert_eq!(i.state_of(pc_b), Some(RptState::Steady));
    }

    /// Whatever the access pattern, candidates never leave the page of
    /// the trigger and never equal the trigger block (seeded cases).
    #[test]
    fn candidates_in_page_and_not_self() {
        let mut rng = SplitMix64::seed_from_u64(0x1de71);
        for _case in 0..64 {
            let len = rng.random_range(1usize..100);
            let addrs: Vec<u64> = (0..len)
                .map(|_| rng.random_range(0u64..(1 << 24)))
                .collect();
            let degree = rng.random_range(1u32..8);
            let g = Geometry::paper();
            let mut i = IDetection::new(
                g,
                IDetectionConfig {
                    degree,
                    entries: 64,
                },
            );
            for &a in &addrs {
                let mut out = Vec::new();
                let access = ReadAccess {
                    pc: PC,
                    addr: Addr::new(a),
                    outcome: ReadOutcome::Miss,
                };
                i.on_read(&access, &mut out);
                let trigger = g.block_of(Addr::new(a));
                for b in out {
                    assert!(g.same_page(trigger, b));
                    assert_ne!(b, trigger);
                }
            }
        }
    }

    /// A perfect stride sequence never leaves Init/Steady after
    /// detection, and from the third access onward every miss
    /// prefetches (seeded cases).
    #[test]
    fn perfect_sequences_stay_trained() {
        let mut rng = SplitMix64::seed_from_u64(0x1de72);
        for _case in 0..64 {
            let stride = rng.random_range(1i64..2048);
            let len = rng.random_range(3usize..40);
            let g = Geometry::paper();
            let mut i = IDetection::new(
                g,
                IDetectionConfig {
                    degree: 1,
                    entries: 256,
                },
            );
            let base: u64 = 1 << 20;
            for k in 0..len {
                let addr = Addr::new(base + (k as u64) * (stride as u64));
                let mut out = Vec::new();
                i.on_read(
                    &ReadAccess {
                        pc: PC,
                        addr,
                        outcome: ReadOutcome::Miss,
                    },
                    &mut out,
                );
                if k >= 2 {
                    let s = i.state_of(PC).unwrap();
                    assert!(matches!(s, RptState::Init | RptState::Steady));
                }
            }
        }
    }
}
