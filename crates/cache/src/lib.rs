//! Cache models for the `pfsim` processing node (Figure 1 of the paper).
//!
//! Each node couples a small, fast on-chip first-level data cache
//! ([`FirstLevelCache`], *FLC*: write-through, direct-mapped, no
//! write-allocate, externally invalidatable) to a larger lockup-free
//! write-back second-level cache ([`SecondLevelCache`], *SLC*) through a
//! FIFO first-level write buffer ([`FifoBuffer`], *FLWB*). Outstanding SLC
//! requests — read misses, prefetches, upgrades — live in the second-level
//! write buffer, modelled as an MSHR file ([`MshrFile`], *SLWB*) that makes
//! the SLC lockup-free.
//!
//! Because the FLC is direct-mapped and write-through there is full
//! inclusion between FLC and SLC, so all coherence machinery lives at the
//! SLC: the [`SecondLevelCache`] keeps the MSI protocol state
//! ([`LineState`]) and the 1-bit *prefetched* tag that drives the
//! prefetch-phase mechanism shared by all three prefetching schemes.
//!
//! # Examples
//!
//! ```
//! use pfsim_cache::{LineState, SecondLevelCache, SlcConfig};
//! use pfsim_mem::BlockAddr;
//!
//! let mut slc = SecondLevelCache::new(SlcConfig::infinite());
//! let b = BlockAddr::new(42);
//! slc.fill(b, LineState::Shared, /*prefetched=*/ true);
//! let line = slc.lookup(b).unwrap();
//! assert!(line.prefetched);
//! // A demand hit on a tagged block resets the tag (and, in the full
//! // system, triggers the next prefetch of the stream):
//! assert!(slc.clear_prefetched(b));
//! assert!(!slc.lookup(b).unwrap().prefetched);
//! ```

#![warn(missing_docs)]
// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod buffer;
mod direct_mapped;
mod flc;
mod mshr;
mod set_assoc;
mod slc;

pub use buffer::{BufferFull, FifoBuffer};
pub use direct_mapped::DirectMapped;
pub use flc::FirstLevelCache;
pub use mshr::{MshrFile, MshrFull, MshrTryAlloc};
pub use set_assoc::SetAssocArray;
pub use slc::{Eviction, LineState, SecondLevelCache, SlcConfig, SlcLine};
