//! The interface between the SLC and a prefetching scheme.

use std::fmt;

use pfsim_mem::{Addr, BlockAddr, Geometry, Pc};

use crate::{
    AdaptiveSequential, DDetection, DDetectionConfig, IDetection, IDetectionConfig,
    SequentialPrefetcher,
};

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
    /// Whether the block was absent from the SLC (any kind of miss).
    pub fn is_absent(self) -> bool {
        matches!(
            self,
            ReadOutcome::Miss | ReadOutcome::InFlightDemand | ReadOutcome::InFlightPrefetch
        )
    }

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

/// A hardware prefetching scheme attached to the SLC.
///
/// Implementations are pure decision mechanisms: given the stream of read
/// requests presented to the SLC, they emit block-prefetch candidates. The
/// SLC is responsible for dropping candidates that are already present or
/// already in flight, and for tagging arriving blocks; schemes are
/// responsible for never proposing a block outside the page of the
/// triggering access.
pub trait Prefetcher: Send {
    /// Observes one read request and appends prefetch candidates to `out`.
    ///
    /// `out` is not cleared: the caller may batch candidates. Candidates
    /// are block numbers in proposal order; duplicates are allowed (the SLC
    /// filter drops them) but implementations avoid the obvious ones.
    fn on_read(&mut self, access: &ReadAccess, out: &mut Vec<BlockAddr>);

    /// Feedback from the cache: `issued` of the candidates proposed by the
    /// last [`on_read`](Self::on_read) call were actually sent to the
    /// memory system (the rest were already present, already in flight, or
    /// dropped for buffer space). Adaptive schemes use this as their
    /// cache-side issue counter; the default implementation ignores it.
    fn on_prefetches_issued(&mut self, issued: u32) {
        let _ = issued;
    }

    /// A short human-readable name ("Seq", "I-det", "D-det", …) used in
    /// reports.
    fn name(&self) -> &'static str;

    /// Appends `(counter, value)` telemetry pairs describing detection
    /// behaviour (table lookups, hits, installs, …). Names are stable
    /// metric identifiers; the observability layer sums pairs with the
    /// same name across nodes. The default implementation exports
    /// nothing.
    fn telemetry(&self, out: &mut Vec<(&'static str, u64)>) {
        let _ = out;
    }

    /// Deep-copies the scheme, detection tables and all, behind a fresh
    /// box. Checkpointing uses this to capture prefetcher state: a
    /// restored machine must replay bit-identically, so the copy carries
    /// every stream table, stride entry, and adaptation counter.
    fn clone_box(&self) -> Box<dyn Prefetcher>;
}

impl Clone for Box<dyn Prefetcher> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The baseline: no prefetching at all.
///
/// # Examples
///
/// ```
/// use pfsim_mem::{Addr, Pc};
/// use pfsim_prefetch::{NoPrefetch, Prefetcher, ReadAccess, ReadOutcome};
///
/// let mut none = NoPrefetch;
/// let mut out = Vec::new();
/// none.on_read(
///     &ReadAccess { pc: Pc::new(0), addr: Addr::new(0), outcome: ReadOutcome::Miss },
///     &mut out,
/// );
/// assert!(out.is_empty());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPrefetch;

impl Prefetcher for NoPrefetch {
    fn on_read(&mut self, _access: &ReadAccess, _out: &mut Vec<BlockAddr>) {}

    fn name(&self) -> &'static str {
        "baseline"
    }

    fn clone_box(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
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
/// use pfsim_prefetch::Scheme;
///
/// let p = Scheme::Sequential { degree: 1 }.build(Geometry::paper());
/// assert_eq!(p.name(), "Seq");
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
    pub fn build(self, geometry: Geometry) -> Box<dyn Prefetcher> {
        match self {
            Scheme::None => Box::new(NoPrefetch),
            Scheme::Sequential { degree } => Box::new(SequentialPrefetcher::new(geometry, degree)),
            Scheme::IDetection { degree } => Box::new(IDetection::new(
                geometry,
                IDetectionConfig {
                    degree,
                    ..IDetectionConfig::default()
                },
            )),
            Scheme::SimpleStride { degree } => {
                Box::new(crate::SimpleStride::new(geometry, degree, 256))
            }
            Scheme::DDetection { degree } => Box::new(DDetection::new(
                geometry,
                DDetectionConfig {
                    degree,
                    ..DDetectionConfig::default()
                },
            )),
            Scheme::DDetectionAdaptive { degree, max_depth } => Box::new(DDetection::new(
                geometry,
                DDetectionConfig {
                    degree,
                    adaptive_depth: true,
                    max_depth,
                },
            )),
            Scheme::AdaptiveSequential {
                initial_degree,
                max_degree,
            } => Box::new(AdaptiveSequential::new(
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
        assert!(ReadOutcome::Miss.is_absent());
        assert!(ReadOutcome::InFlightDemand.is_absent());
        assert!(ReadOutcome::InFlightPrefetch.is_absent());
        assert!(!ReadOutcome::Hit.is_absent());
        assert!(!ReadOutcome::HitPrefetched.is_absent());

        assert!(ReadOutcome::HitPrefetched.continues_stream());
        assert!(ReadOutcome::InFlightPrefetch.continues_stream());
        assert!(!ReadOutcome::Miss.continues_stream());
    }

    #[test]
    fn scheme_builds_every_variant() {
        let g = Geometry::paper();
        for (scheme, name) in [
            (Scheme::None, "baseline"),
            (Scheme::Sequential { degree: 2 }, "Seq"),
            (Scheme::IDetection { degree: 1 }, "I-det"),
            (Scheme::SimpleStride { degree: 1 }, "Simple"),
            (Scheme::DDetection { degree: 1 }, "D-det"),
            (
                Scheme::AdaptiveSequential {
                    initial_degree: 1,
                    max_degree: 8,
                },
                "Adapt-Seq",
            ),
        ] {
            assert_eq!(scheme.build(g).name(), name);
            assert_eq!(scheme.label(), name);
        }
    }

    #[test]
    fn display_includes_degree() {
        assert_eq!(Scheme::Sequential { degree: 4 }.to_string(), "Seq(d=4)");
        assert_eq!(Scheme::IDetection { degree: 1 }.to_string(), "I-det(d=1)");
    }
}
