//! Inter-node messages.

// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use pfsim_coherence::DirRequest;
use pfsim_mem::{Addr, BlockAddr, NodeId};
use pfsim_network::MessageKind;

/// A message travelling between nodes over the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Requester → home: a coherence request (read, read-exclusive,
    /// upgrade or writeback).
    CohReq {
        /// Target block.
        block: BlockAddr,
        /// The protocol request.
        req: DirRequest,
    },
    /// Home → owner: surrender your dirty copy (and invalidate it if
    /// `inval`).
    Fetch {
        /// Target block.
        block: BlockAddr,
        /// Whether the owner's copy is invalidated (write request) or
        /// downgraded (read request).
        inval: bool,
        /// The home node expecting the reply.
        home: NodeId,
    },
    /// Owner → home: fetch response. `had_copy` is false when the block
    /// was already evicted (its writeback is in flight).
    FetchReply {
        /// Target block.
        block: BlockAddr,
        /// Whether the owner still held (and supplied) the block.
        had_copy: bool,
    },
    /// Home → sharer: invalidate your copy.
    Inval {
        /// Target block.
        block: BlockAddr,
        /// The home node expecting the acknowledgement.
        home: NodeId,
    },
    /// Sharer → home: invalidation acknowledged.
    InvalAck {
        /// Target block.
        block: BlockAddr,
    },
    /// Home → requester: data reply.
    DataReply {
        /// Target block.
        block: BlockAddr,
        /// Whether ownership is granted.
        exclusive: bool,
        /// Whether the original request was a prefetch.
        prefetch: bool,
    },
    /// Home → requester: ownership granted without data (upgrade).
    AckReply {
        /// Target block.
        block: BlockAddr,
    },
    /// Requester → lock home: acquire the queue-based lock.
    LockReq {
        /// Lock address (its page determines the home).
        lock: Addr,
        /// Requesting node.
        from: NodeId,
    },
    /// Lock home → requester (or next waiter): the lock is yours.
    LockGrant {
        /// Lock address.
        lock: Addr,
    },
    /// Holder → lock home: release; the home hands the lock to the next
    /// queued waiter directly.
    UnlockReq {
        /// Lock address.
        lock: Addr,
        /// Releasing node.
        from: NodeId,
    },
    /// Node → barrier home: arrived at the barrier.
    BarrierArrive {
        /// Barrier identifier.
        id: u32,
        /// Arriving node.
        from: NodeId,
    },
    /// Barrier home → participant: everyone arrived, continue.
    BarrierRelease {
        /// Barrier identifier.
        id: u32,
    },
}

impl Msg {
    /// The network size class of the message: replies and writebacks carry
    /// a 32-byte block; everything else is header-only.
    pub fn kind(&self) -> MessageKind {
        match self {
            Msg::DataReply { .. } => MessageKind::Data,
            Msg::FetchReply { had_copy: true, .. } => MessageKind::Data,
            Msg::CohReq {
                req: DirRequest::Writeback { .. },
                ..
            } => MessageKind::Data,
            _ => MessageKind::Control,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_carrying_messages_are_sized_as_data() {
        let b = BlockAddr::new(1);
        assert_eq!(
            Msg::DataReply {
                block: b,
                exclusive: false,
                prefetch: false
            }
            .kind(),
            MessageKind::Data
        );
        assert_eq!(
            Msg::CohReq {
                block: b,
                req: DirRequest::Writeback {
                    from: NodeId::new(0)
                }
            }
            .kind(),
            MessageKind::Data
        );
        assert_eq!(
            Msg::FetchReply {
                block: b,
                had_copy: false
            }
            .kind(),
            MessageKind::Control
        );
        assert_eq!(
            Msg::CohReq {
                block: b,
                req: DirRequest::read_shared(NodeId::new(0))
            }
            .kind(),
            MessageKind::Control
        );
        assert_eq!(
            Msg::LockReq {
                lock: Addr::new(0),
                from: NodeId::new(0)
            }
            .kind(),
            MessageKind::Control
        );
    }
}
