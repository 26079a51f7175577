//! The hardware prefetching schemes studied by Dahlgren & Stenström
//! (HPCA 1995): sequential prefetching and two stride-prefetching schemes,
//! all attached to the second-level cache of a shared-memory multiprocessor
//! node.
//!
//! All schemes observe the same inputs — the read requests presented to the
//! SLC, each tagged with its outcome ([`ReadAccess`]) — and produce block
//! prefetch candidates. [`Scheme`] names the closed set of schemes a node
//! can run, and [`Scheme::build`] returns one [`Prefetcher`], an enum with
//! a variant per scheme. They also share one *prefetching-phase* mechanism
//! (§3.3/§3.4 of the paper): blocks brought in by prefetch carry a 1-bit
//! tag in the SLC; a demand reference to a tagged block resets the tag and
//! asks the scheme for the next block of the stream. That shared phase is
//! what makes the comparison apples to apples; only the *detection* phase
//! differs:
//!
//! * [`SequentialPrefetcher`] — no detection at all: a miss on block *B*
//!   prefetches *B+1 … B+d* (§3.4).
//! * [`IDetection`] — a 256-entry direct-mapped Reference Prediction Table
//!   keyed by the load instruction's address, with the Baer–Chen four-state
//!   control FSM that shuts prefetching off after repeated mispredictions
//!   (§3.2, Figures 3 & 4).
//! * [`SimpleStride`] — §3.2's "simplest" stride scheme: the same table
//!   with no confirmation and no shut-off; an ablation.
//! * [`DDetection`] — Hagersten's data-address-only scheme: a miss list, a
//!   stride frequency table, a list of common strides and a stream list,
//!   each 16 entries with LRU replacement (§3.2); optionally with his
//!   adaptive per-stream lookahead (§6).
//! * [`AdaptiveSequential`] — the §6 extension (from Dahlgren, Dubois &
//!   Stenström) that adjusts the sequential degree with a heuristic measure
//!   of prefetch usefulness; included as an ablation.
//!
//! Prefetching never crosses a 4 KB page boundary (so a useless prefetch can
//! never page-fault); the schemes enforce this themselves via [`Geometry`].
//!
//! [`Geometry`]: pfsim_mem::Geometry
//!
//! # Examples
//!
//! ```
//! use pfsim_mem::{Addr, BlockAddr, Geometry, Pc};
//! use pfsim_prefetch::{ReadAccess, ReadOutcome, Scheme};
//!
//! let mut seq = Scheme::Sequential { degree: 1 }.build(Geometry::paper());
//! let mut out = Vec::new();
//! seq.on_read(
//!     &ReadAccess {
//!         pc: Pc::new(0x100),
//!         addr: Addr::new(0x2000),
//!         outcome: ReadOutcome::Miss,
//!     },
//!     &mut out,
//! );
//! // Miss on block 0x100 prefetches the next sequential block:
//! assert_eq!(out, [BlockAddr::new(0x101)]);
//! ```

#![warn(missing_docs)]
// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod adaptive;
mod api;
mod ddet;
mod emit;
mod idet;
mod lru;
mod sequential;
mod simple;

pub use adaptive::AdaptiveSequential;
pub use api::{Prefetcher, ReadAccess, ReadOutcome, Scheme};
pub use ddet::DDetection;
pub use idet::IDetection;
pub use sequential::SequentialPrefetcher;
pub use simple::SimpleStride;
