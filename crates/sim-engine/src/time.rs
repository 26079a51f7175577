//! Simulation time measured in processor clocks.

// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, counted in *pclocks* (processor clock cycles).
///
/// In the paper's configuration one pclock is 10 ns (100 MHz processor and
/// network clock). All component latencies in the simulator are expressed in
/// pclocks; the network clock runs at the same rate so no conversion is
/// needed.
///
/// `Cycle` is an absolute timestamp. Durations are plain `u64` cycle counts,
/// added with [`Cycle::add`] or `+`.
///
/// # Examples
///
/// ```
/// use pfsim_engine::Cycle;
///
/// let t = Cycle::ZERO + 10;
/// assert_eq!(t.as_u64(), 10);
/// assert_eq!((t + 5) - t, 5);
/// assert_eq!(t.max(Cycle::new(3)), t);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero, the start of the simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable time; useful as an "infinitely far" sentinel.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a timestamp at `cycles` pclocks from time zero.
    #[inline]
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Returns the timestamp as a raw pclock count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the time as nanoseconds in the paper's configuration
    /// (1 pclock = 10 ns).
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0 * 10
    }

    /// Saturating duration from `earlier` to `self`, in pclocks.
    ///
    /// Returns zero if `earlier` is after `self`, which makes it safe for
    /// stall accounting where a response may be ready before the request is
    /// nominally issued.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Duration in pclocks from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative cycle duration");
        self.0 - rhs.0
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cycle({})", self.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pclk", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(cycles: u64) -> Self {
        Cycle(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = Cycle::new(100);
        assert_eq!((t + 28) - t, 28);
        assert_eq!(t.as_u64(), 100);
        assert_eq!(Cycle::from(7u64), Cycle::new(7));
    }

    #[test]
    fn nanos_uses_ten_ns_pclock() {
        assert_eq!(Cycle::new(3).as_nanos(), 30);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Cycle::new(5);
        let late = Cycle::new(9);
        assert_eq!(late.saturating_since(early), 4);
        assert_eq!(early.saturating_since(late), 0);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Cycle::ZERO < Cycle::new(1));
        assert!(Cycle::new(1) < Cycle::MAX);
        assert_eq!(Cycle::new(4).max(Cycle::new(9)), Cycle::new(9));
    }

    #[test]
    fn add_assign_advances_time() {
        let mut t = Cycle::ZERO;
        t += 42;
        assert_eq!(t, Cycle::new(42));
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        assert_eq!(format!("{:?}", Cycle::new(8)), "Cycle(8)");
        assert_eq!(format!("{}", Cycle::new(8)), "8 pclk");
    }
}
