//! Adaptive sequential prefetching — the §6 extension.

use pfsim_mem::{BlockAddr, Geometry};

use crate::{Prefetcher, ReadAccess, ReadOutcome};

/// Adaptive sequential prefetching, after Dahlgren, Dubois & Stenström
/// (ICPP 1993), discussed in §6 of the paper as the remedy for sequential
/// prefetching's weakness: useless prefetches in low-locality phases.
///
/// The mechanism counts, per adaptation window, how many issued prefetches
/// turned out useful (the demand reference to a tagged block). "Issued"
/// means requests that actually went to the memory system: the cache
/// reports real issues back through
/// [`Prefetcher::on_prefetches_issued`], so candidates the lookup filter
/// drops (already present or in flight) never bias the degree. When the
/// useful fraction is high the degree is doubled (up to `max_degree`); when
/// it is low the degree is halved, reaching zero — no prefetches at all —
/// for phases with no spatial locality. A zero degree is probed again
/// periodically so the scheme can recover when locality returns.
///
/// This scheme is not part of the paper's main comparison (the paper
/// deliberately fixes the prefetching phase across schemes); it is included
/// as the `ablation_adaptive` experiment.
///
/// # Examples
///
/// ```
/// use pfsim_mem::{Addr, Geometry, Pc};
/// use pfsim_prefetch::{AdaptiveSequential, Prefetcher, ReadAccess, ReadOutcome};
///
/// let mut ad = AdaptiveSequential::new(Geometry::paper(), 1, 8);
/// assert_eq!(ad.degree(), 1);
/// let mut out = Vec::new();
/// ad.on_read(
///     &ReadAccess { pc: Pc::new(0), addr: Addr::new(0x4000), outcome: ReadOutcome::Miss },
///     &mut out,
/// );
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveSequential {
    geometry: Geometry,
    degree: u32,
    max_degree: u32,
    /// Prefetches issued in the current window (as observed through
    /// outcomes; see below).
    issued: u32,
    /// Useful prefetches observed in the current window.
    useful: u32,
    /// Misses seen while the degree is zero, for periodic re-probing.
    dormant_misses: u32,
}

/// Adaptation window: re-evaluate the degree after this many issued
/// prefetches.
const WINDOW: u32 = 16;
/// Useful fraction above which the degree doubles (scaled to WINDOW).
const RAISE_AT: u32 = 12;
/// Useful fraction below which the degree halves (scaled to WINDOW).
const LOWER_AT: u32 = 6;
/// While dormant (degree 0), probe again after this many misses.
const PROBE_AFTER: u32 = 64;

impl AdaptiveSequential {
    /// Creates an adaptive sequential prefetcher.
    pub fn new(geometry: Geometry, initial_degree: u32, max_degree: u32) -> Self {
        AdaptiveSequential {
            geometry,
            degree: initial_degree.min(max_degree),
            max_degree: max_degree.max(1),
            issued: 0,
            useful: 0,
            dormant_misses: 0,
        }
    }

    /// The current degree of prefetching.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    fn push_if_same_page(&self, block: BlockAddr, offset: i64, out: &mut Vec<BlockAddr>) -> bool {
        crate::emit::push_block_offset(self.geometry, block, offset, out)
    }

    fn record(&mut self, issued: u32, useful: u32) {
        self.issued += issued;
        self.useful += useful;
        if self.issued >= WINDOW {
            let scaled_useful = self.useful * WINDOW / self.issued;
            if scaled_useful >= RAISE_AT {
                self.degree = (self.degree * 2).clamp(1, self.max_degree);
            } else if scaled_useful < LOWER_AT {
                self.degree /= 2; // may reach zero: prefetching off
            }
            self.issued = 0;
            self.useful = 0;
        }
    }
}

impl Prefetcher for AdaptiveSequential {
    fn on_read(&mut self, access: &ReadAccess, out: &mut Vec<BlockAddr>) {
        let block = self.geometry.block_of(access.addr);
        match access.outcome {
            ReadOutcome::Miss => {
                if self.degree == 0 {
                    self.dormant_misses += 1;
                    if self.dormant_misses >= PROBE_AFTER {
                        self.dormant_misses = 0;
                        self.degree = 1; // probe: locality may have returned
                    } else {
                        return;
                    }
                }
                for k in 1..=i64::from(self.degree) {
                    self.push_if_same_page(block, k, out);
                }
            }
            ReadOutcome::HitPrefetched | ReadOutcome::InFlightPrefetch => {
                // A consumed prefetch: useful. Extend the stream if active.
                if self.degree > 0 {
                    self.push_if_same_page(block, i64::from(self.degree), out);
                }
                self.record(0, 1);
            }
            ReadOutcome::Hit | ReadOutcome::InFlightDemand => {}
        }
    }

    fn on_prefetches_issued(&mut self, issued: u32) {
        // The cache-side issue counter: only candidates that actually
        // became memory-system requests count toward the adaptation
        // window, so already-covered phases cannot bias the degree down.
        self.record(issued, 0);
    }

    fn name(&self) -> &'static str {
        "Adapt-Seq"
    }

    fn clone_box(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::{Addr, Pc};

    fn read(ad: &mut AdaptiveSequential, block: u64, outcome: ReadOutcome) -> Vec<u64> {
        let mut out = Vec::new();
        ad.on_read(
            &ReadAccess {
                pc: Pc::new(0),
                addr: Addr::new(block * 32),
                outcome,
            },
            &mut out,
        );
        // Emulate the cache issuing every candidate (nothing resident).
        if !out.is_empty() {
            ad.on_prefetches_issued(out.len() as u32);
        }
        out.into_iter().map(|b| b.as_u64()).collect()
    }

    #[test]
    fn degree_rises_under_perfect_locality() {
        let mut ad = AdaptiveSequential::new(Geometry::paper(), 1, 8);
        // A long sequential walk: one miss, then tagged hits forever.
        read(&mut ad, 0, ReadOutcome::Miss);
        for b in 1..200 {
            read(&mut ad, b % 128, ReadOutcome::HitPrefetched);
        }
        assert!(ad.degree() > 1, "degree stayed at {}", ad.degree());
        assert!(ad.degree() <= 8);
    }

    #[test]
    fn degree_falls_to_zero_under_no_locality() {
        let mut ad = AdaptiveSequential::new(Geometry::paper(), 4, 8);
        // Scattered misses whose prefetches are never consumed.
        for k in 0..64u64 {
            read(&mut ad, k * 1000, ReadOutcome::Miss);
        }
        assert_eq!(ad.degree(), 0);
    }

    #[test]
    fn dormant_prefetcher_probes_again() {
        let mut ad = AdaptiveSequential::new(Geometry::paper(), 4, 8);
        for k in 0..64u64 {
            read(&mut ad, k * 1000, ReadOutcome::Miss);
        }
        assert_eq!(ad.degree(), 0);
        // PROBE_AFTER misses later it tries degree 1 again.
        let mut probed = false;
        for k in 0..200u64 {
            if !read(&mut ad, 100_000 + k * 1000, ReadOutcome::Miss).is_empty() {
                probed = true;
                break;
            }
        }
        assert!(probed, "never probed after going dormant");
    }

    #[test]
    fn max_degree_is_respected() {
        let mut ad = AdaptiveSequential::new(Geometry::paper(), 1, 2);
        read(&mut ad, 0, ReadOutcome::Miss);
        for b in 1..500 {
            read(&mut ad, b % 128, ReadOutcome::HitPrefetched);
        }
        assert!(ad.degree() <= 2);
    }

    #[test]
    fn initial_degree_clamped_to_max() {
        let ad = AdaptiveSequential::new(Geometry::paper(), 16, 4);
        assert_eq!(ad.degree(), 4);
    }
}
