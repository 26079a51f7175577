//! The write-invalidate cache-coherence protocol of the baseline
//! architecture (§4): a full-map directory in the style of Censier &
//! Feautrier, one directory slice per home node.
//!
//! The [`Directory`] is a *pure protocol automaton*: it receives coherence
//! requests ([`DirRequest`]) and emits the actions the home node must
//! perform ([`DirAction`]) — read or write memory, send a data reply,
//! fetch a dirty copy from its owner, or invalidate sharers. All timing
//! (memory latency, network traversal, SLC occupancy) is applied by the
//! full-system simulator when it executes those actions, which keeps the
//! protocol independently testable.
//!
//! The protocol serializes transactions per block: while a fetch or an
//! invalidation round is outstanding, later requests for the same block
//! queue at the home and are processed in arrival order. This is how a read
//! miss comes to take zero, two, or four node-to-node traversals: memory
//! clean at the local home (0), memory clean at a remote home (2), or
//! dirty in a third node's cache (4).
//!
//! # Examples
//!
//! ```
//! use pfsim_coherence::{ActionBuf, DirAction, DirRequest, Directory};
//! use pfsim_mem::{BlockAddr, NodeId};
//!
//! let mut dir = Directory::new(16);
//! let mut actions = ActionBuf::new(); // reused across requests
//! let b = BlockAddr::new(7);
//! // Node 3 read-misses a clean block: memory responds directly.
//! dir.request(b, DirRequest::read_shared(NodeId::new(3)), &mut actions);
//! assert_eq!(
//!     actions.to_vec(),
//!     [
//!         DirAction::ReadMemory,
//!         DirAction::SendData { to: NodeId::new(3), exclusive: false, prefetch: false },
//!     ],
//! );
//! ```

#![warn(missing_docs)]
// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod directory;
mod sharers;

pub use directory::{ActionBuf, DirAction, DirRequest, DirState, DirStats, Directory};
pub use sharers::{SharerSet, MAX_SHARERS};
