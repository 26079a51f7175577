//! The interface between the SLC and a prefetching scheme.

use std::fmt;

use pfsim_mem::{Addr, BlockAddr, Geometry, Pc};

use crate::{AdaptiveSequential, DDetection, IDetection, SequentialPrefetcher, SimpleStride};

/// How a read request presented to the SLC was resolved.
///
/// The prefetching mechanisms only observe block references that reach the
/// SLC (FLC hits are invisible to them), and their behaviour differs by
/// outcome: misses drive the detection phase, hits on *prefetched-tagged*
/// blocks drive the prefetching phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The block was present and not tagged as prefetched.
    Hit,
    /// The block was present and tagged: the tag is reset and the scheme is
    /// asked for the next block of the stream (the prefetch counts as
    /// useful).
    HitPrefetched,
    /// The block was absent: a demand miss that starts a memory transaction.
    Miss,
    /// The block was absent but a *demand* transaction for it was already
    /// outstanding; the request merges into it.
    InFlightDemand,
    /// The block was absent but a *prefetch* for it was already in flight;
    /// the demand merges into it (the prefetch counts as useful, and for
    /// stream continuation this behaves like [`ReadOutcome::HitPrefetched`]).
    InFlightPrefetch,
}

impl ReadOutcome {
    /// Whether this reference continues a prefetched stream (a demand
    /// reference to a block the prefetcher brought, or is bringing, in).
    pub fn continues_stream(self) -> bool {
        matches!(
            self,
            ReadOutcome::HitPrefetched | ReadOutcome::InFlightPrefetch
        )
    }
}

/// One read request presented to the SLC.
///
/// Carries the full byte address (stride detection operates on data
/// addresses, not block numbers) and, for I-detection, the program counter
/// of the load instruction that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadAccess {
    /// Instruction address of the load.
    pub pc: Pc,
    /// Data byte address.
    pub addr: Addr,
    /// How the SLC resolved the request.
    pub outcome: ReadOutcome,
}

/// A hardware prefetching scheme attached to the SLC, one variant per
/// scheme that [`Scheme::build`] instantiates.
///
/// Schemes are pure decision mechanisms: given the stream of read requests
/// presented to the SLC, they emit block-prefetch candidates. The SLC is
/// responsible for dropping candidates that are already present or already
/// in flight, and for tagging arriving blocks; schemes are responsible for
/// never proposing a block outside the page of the triggering access.
///
/// The type is a closed enum: `Clone` copies every detection table, stream
/// and adaptation counter (a restored checkpoint replays bit-identically),
/// and each method matches every variant.
#[derive(Debug, Clone)]
pub enum Prefetcher {
    /// No prefetching (the baseline architecture).
    None,
    /// Fixed-degree sequential prefetching.
    Sequential(SequentialPrefetcher),
    /// I-detection stride prefetching.
    IDetection(IDetection),
    /// The §3.2 "simplest" stride scheme.
    SimpleStride(SimpleStride),
    /// D-detection stride prefetching, optionally with adaptive lookahead
    /// (boxed: its four tables dwarf every other variant).
    DDetection(Box<DDetection>),
    /// Adaptive sequential prefetching.
    AdaptiveSequential(AdaptiveSequential),
}

impl Prefetcher {
    /// Observes one read request and appends prefetch candidates to `out`.
    ///
    /// `out` is not cleared: the caller may batch candidates. Candidates
    /// are block numbers in proposal order; duplicates are allowed (the SLC
    /// filter drops them) but schemes avoid the obvious ones.
    #[inline]
    pub fn on_read(&mut self, access: &ReadAccess, out: &mut Vec<BlockAddr>) {
        match self {
            Prefetcher::None => {}
            Prefetcher::Sequential(p) => p.on_read(access, out),
            Prefetcher::IDetection(p) => p.on_read(access, out),
            Prefetcher::SimpleStride(p) => p.on_read(access, out),
            Prefetcher::DDetection(p) => p.on_read(access, out),
            Prefetcher::AdaptiveSequential(p) => p.on_read(access, out),
        }
    }

    /// Feedback from the cache: `issued` of the candidates proposed by the
    /// last [`on_read`](Self::on_read) call were actually sent to the
    /// memory system (the rest were already present, already in flight, or
    /// dropped for buffer space). Adaptive sequential prefetching uses this
    /// as its cache-side issue counter; the other schemes ignore it.
    pub fn on_prefetches_issued(&mut self, issued: u32) {
        match self {
            Prefetcher::AdaptiveSequential(p) => p.on_prefetches_issued(issued),
            Prefetcher::None
            | Prefetcher::Sequential(_)
            | Prefetcher::IDetection(_)
            | Prefetcher::SimpleStride(_)
            | Prefetcher::DDetection(_) => {}
        }
    }

    /// Appends `(counter, value)` telemetry pairs describing detection
    /// behaviour (table lookups, hits, installs, …). Names are stable
    /// metric identifiers; the observability layer sums pairs with the
    /// same name across nodes. Schemes without counters export nothing.
    pub fn telemetry(&self, out: &mut Vec<(&'static str, u64)>) {
        match self {
            Prefetcher::Sequential(p) => p.telemetry(out),
            Prefetcher::IDetection(p) => p.telemetry(out),
            Prefetcher::DDetection(p) => p.telemetry(out),
            Prefetcher::None | Prefetcher::SimpleStride(_) | Prefetcher::AdaptiveSequential(_) => {}
        }
    }
}

/// Configuration enum selecting one of the studied schemes.
///
/// This is the type experiment drivers put in their configuration structs;
/// [`Scheme::build`] instantiates the scheme.
///
/// # Examples
///
/// ```
/// use pfsim_mem::Geometry;
/// use pfsim_prefetch::{Prefetcher, Scheme};
///
/// let p = Scheme::Sequential { degree: 1 }.build(Geometry::paper());
/// assert!(matches!(p, Prefetcher::Sequential(_)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No prefetching (the baseline architecture).
    None,
    /// Sequential prefetching of `degree` consecutive blocks.
    Sequential {
        /// Degree of prefetching *d*.
        degree: u32,
    },
    /// I-detection stride prefetching (RPT + Baer–Chen FSM).
    IDetection {
        /// Degree of prefetching *d*.
        degree: u32,
    },
    /// The "simplest stride scheme" of §3.2: prefetch from the second
    /// occurrence, no confirmation, no shut-off.
    SimpleStride {
        /// Degree of prefetching *d*.
        degree: u32,
    },
    /// D-detection stride prefetching (Hagersten).
    DDetection {
        /// Degree of prefetching *d*.
        degree: u32,
    },
    /// D-detection with Hagersten's adaptive per-stream lookahead (§6:
    /// the prefetch depth grows when prefetched blocks are referenced
    /// before they arrive).
    DDetectionAdaptive {
        /// Initial per-stream lookahead.
        degree: u32,
        /// Lookahead cap.
        max_depth: u32,
    },
    /// Adaptive sequential prefetching (§6 extension).
    AdaptiveSequential {
        /// Initial degree.
        initial_degree: u32,
        /// Maximum degree the adaptation may reach.
        max_degree: u32,
    },
}

impl Scheme {
    /// Instantiates the scheme for the given geometry.
    pub fn build(self, geometry: Geometry) -> Prefetcher {
        match self {
            Scheme::None => Prefetcher::None,
            Scheme::Sequential { degree } => {
                Prefetcher::Sequential(SequentialPrefetcher::new(geometry, degree))
            }
            Scheme::IDetection { degree } => {
                Prefetcher::IDetection(IDetection::new(geometry, degree))
            }
            Scheme::SimpleStride { degree } => {
                Prefetcher::SimpleStride(SimpleStride::new(geometry, degree))
            }
            Scheme::DDetection { degree } => {
                Prefetcher::DDetection(Box::new(DDetection::new(geometry, degree, None)))
            }
            Scheme::DDetectionAdaptive { degree, max_depth } => {
                Prefetcher::DDetection(Box::new(DDetection::new(geometry, degree, Some(max_depth))))
            }
            Scheme::AdaptiveSequential {
                initial_degree,
                max_degree,
            } => Prefetcher::AdaptiveSequential(AdaptiveSequential::new(
                geometry,
                initial_degree,
                max_degree,
            )),
        }
    }

    /// The label used in the paper's figures ("I-det", "D-det", "Seq").
    pub fn label(self) -> &'static str {
        match self {
            Scheme::None => "baseline",
            Scheme::Sequential { .. } => "Seq",
            Scheme::IDetection { .. } => "I-det",
            Scheme::SimpleStride { .. } => "Simple",
            Scheme::DDetection { .. } => "D-det",
            Scheme::DDetectionAdaptive { .. } => "D-det-adapt",
            Scheme::AdaptiveSequential { .. } => "Adapt-Seq",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::None => write!(f, "baseline"),
            Scheme::Sequential { degree } => write!(f, "Seq(d={degree})"),
            Scheme::IDetection { degree } => write!(f, "I-det(d={degree})"),
            Scheme::SimpleStride { degree } => write!(f, "Simple(d={degree})"),
            Scheme::DDetection { degree } => write!(f, "D-det(d={degree})"),
            Scheme::DDetectionAdaptive { degree, max_depth } => {
                write!(f, "D-det-adapt(d={degree},max={max_depth})")
            }
            Scheme::AdaptiveSequential { max_degree, .. } => {
                write!(f, "Adapt-Seq(max={max_degree})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(ReadOutcome::HitPrefetched.continues_stream());
        assert!(ReadOutcome::InFlightPrefetch.continues_stream());
        assert!(!ReadOutcome::Miss.continues_stream());
    }

    #[test]
    fn scheme_builds_every_variant() {
        let g = Geometry::paper();
        for (scheme, label, want) in [
            (Scheme::None, "baseline", Prefetcher::None),
            (
                Scheme::Sequential { degree: 2 },
                "Seq",
                Prefetcher::Sequential(SequentialPrefetcher::new(g, 2)),
            ),
            (
                Scheme::IDetection { degree: 1 },
                "I-det",
                Prefetcher::IDetection(IDetection::new(g, 1)),
            ),
            (
                Scheme::SimpleStride { degree: 1 },
                "Simple",
                Prefetcher::SimpleStride(SimpleStride::new(g, 1)),
            ),
            (
                Scheme::DDetection { degree: 1 },
                "D-det",
                Prefetcher::DDetection(Box::new(DDetection::new(g, 1, None))),
            ),
            (
                Scheme::DDetectionAdaptive {
                    degree: 2,
                    max_depth: 8,
                },
                "D-det-adapt",
                Prefetcher::DDetection(Box::new(DDetection::new(g, 2, Some(8)))),
            ),
            (
                Scheme::AdaptiveSequential {
                    initial_degree: 1,
                    max_degree: 8,
                },
                "Adapt-Seq",
                Prefetcher::AdaptiveSequential(AdaptiveSequential::new(g, 1, 8)),
            ),
        ] {
            // Debug prints every field, so equal output means the same
            // variant built with the same parameters.
            assert_eq!(
                format!("{:?}", scheme.build(g)),
                format!("{want:?}"),
                "{scheme}"
            );
            assert_eq!(scheme.label(), label);
        }
    }

    #[test]
    fn display_includes_degree() {
        assert_eq!(Scheme::Sequential { degree: 4 }.to_string(), "Seq(d=4)");
        assert_eq!(Scheme::IDetection { degree: 1 }.to_string(), "I-det(d=1)");
    }
}
