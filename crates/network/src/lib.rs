//! The interconnection network of the baseline architecture: a single
//! 4-by-4 mesh, synchronously clocked at 100 MHz, with wormhole routing, a
//! flit size of 32 bits and a node fall-through latency of three network
//! cycles. Contention is modelled on every link.
//!
//! ## Modelling approach
//!
//! Messages are routed dimension-ordered (X first, then Y). Each
//! unidirectional link is a FIFO resource that a message of *F* flits
//! occupies for *F* network cycles; the head flit advances to the next
//! router after the 3-cycle fall-through. With the network clock equal to
//! the processor clock (both 100 MHz), the uncontended latency of a message
//! over *h* hops is `h·3 + F` pclocks — the classic wormhole pipelining
//! formula — and queuing delays appear whenever links are busy, because a
//! later message must wait for each link to drain.
//!
//! This reproduces what the paper's evaluation needs from the network —
//! latency that scales with distance and message size, and contention that
//! grows with traffic (the mechanism that makes useless prefetches costly)
//! — without simulating per-flit flow control. Because the simulator's
//! event loop issues sends in nondecreasing time order, link reservations
//! are FIFO and the model is deterministic.
//!
//! # Examples
//!
//! ```
//! use pfsim_engine::Cycle;
//! use pfsim_mem::NodeId;
//! use pfsim_network::{Mesh, MeshConfig};
//!
//! let mut mesh = Mesh::new(MeshConfig::paper());
//! // A 2-flit control message from corner to corner (6 hops):
//! let arrival = mesh.send(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 2);
//! assert_eq!(arrival.as_u64(), 6 * 3 + 2);
//! ```

#![warn(missing_docs)]
// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod mesh;
mod message;

pub use mesh::{Mesh, MeshConfig, NetStats};
pub use message::MessageKind;
