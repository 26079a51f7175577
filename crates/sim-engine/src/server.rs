//! A first-come-first-served resource model.

// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::Cycle;

/// A single-ported resource that serves one request at a time in arrival
/// order.
///
/// `FifoServer` models contended hardware resources — an SRAM port, a memory
/// bank, a bus slot, a network link — without explicit queue data
/// structures: a request arriving at time `t` begins service at
/// `max(t, free_at)` and occupies the resource for its service time.
/// Because the simulator's event queue delivers events in nondecreasing time
/// order, reserving in arrival order yields FIFO service.
///
/// # Examples
///
/// ```
/// use pfsim_engine::{Cycle, FifoServer};
///
/// let mut port = FifoServer::new();
/// // Two back-to-back 3-cycle SLC accesses arriving at the same time:
/// let first = port.serve(Cycle::new(100), 3);
/// let second = port.serve(Cycle::new(100), 3);
/// assert_eq!(first.as_u64(), 103);
/// assert_eq!(second.as_u64(), 106); // queued behind the first
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoServer {
    free_at: Cycle,
    busy_cycles: u64,
}

impl FifoServer {
    /// Creates a server that is idle from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `service` cycles starting no earlier than
    /// `now`, and returns the completion time.
    ///
    /// Accumulates utilization, readable via [`busy_cycles`](Self::busy_cycles).
    #[inline]
    pub fn serve(&mut self, now: Cycle, service: u64) -> Cycle {
        let start = self.free_at.max(now);
        self.free_at = start + service;
        self.busy_cycles += service;
        self.free_at
    }

    /// Like [`serve`](Self::serve) but also returns the time service began,
    /// for callers that need the queuing delay separately.
    #[inline]
    pub fn serve_timed(&mut self, now: Cycle, service: u64) -> (Cycle, Cycle) {
        let start = self.free_at.max(now);
        self.free_at = start + service;
        self.busy_cycles += service;
        (start, self.free_at)
    }

    /// The time at which the resource next becomes idle.
    #[inline]
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Whether the resource is idle at time `now`.
    #[inline]
    pub fn is_idle_at(&self, now: Cycle) -> bool {
        self.free_at <= now
    }

    /// Total cycles of service performed so far (a utilization counter).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        assert_eq!(s.serve(Cycle::new(10), 5), Cycle::new(15));
        assert!(s.is_idle_at(Cycle::new(15)));
        assert!(!s.is_idle_at(Cycle::new(14)));
    }

    #[test]
    fn busy_server_queues_requests() {
        let mut s = FifoServer::new();
        s.serve(Cycle::new(0), 10);
        // Arrives while busy: waits until cycle 10.
        assert_eq!(s.serve(Cycle::new(3), 2), Cycle::new(12));
        // Arrives after the backlog drains: starts immediately.
        assert_eq!(s.serve(Cycle::new(20), 2), Cycle::new(22));
    }

    #[test]
    fn serve_timed_exposes_queuing_delay() {
        let mut s = FifoServer::new();
        s.serve(Cycle::new(0), 10);
        let (start, done) = s.serve_timed(Cycle::new(4), 6);
        assert_eq!(start, Cycle::new(10));
        assert_eq!(done, Cycle::new(16));
    }

    #[test]
    fn utilization_accumulates() {
        let mut s = FifoServer::new();
        s.serve(Cycle::new(0), 4);
        s.serve(Cycle::new(100), 6);
        assert_eq!(s.busy_cycles(), 10);
    }

    #[test]
    fn zero_service_time_is_allowed() {
        let mut s = FifoServer::new();
        assert_eq!(s.serve(Cycle::new(5), 0), Cycle::new(5));
        assert_eq!(s.busy_cycles(), 0);
    }
}
