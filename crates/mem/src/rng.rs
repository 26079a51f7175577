//! A small deterministic PRNG (SplitMix64) for workload generation and
//! randomized tests.
//!
//! The simulator's methodology requires bit-for-bit reproducible runs, and
//! the build must resolve with no network access, so instead of an external
//! `rand` dependency the repository carries this 20-line generator. SplitMix64
//! (Steele, Lea & Flood, *Fast Splittable Pseudorandom Number Generators*,
//! OOPSLA 2014) passes BigCrush, is seedable from a single `u64`, and has no
//! state beyond one counter — every sequence is a pure function of the seed,
//! which is exactly the reproducibility contract the workloads document.
//!
//! # Examples
//!
//! ```
//! use pfsim_mem::SplitMix64;
//!
//! let mut a = SplitMix64::seed_from_u64(42);
//! let mut b = SplitMix64::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let d = a.random_range(10u64..20);
//! assert!((10..20).contains(&d));
//! ```

/// A SplitMix64 pseudorandom number generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly distributed value below `n` (Lemire's multiply-shift
    /// reduction without the rejection step; the bias is < 2⁻⁶⁴·n, far below
    /// anything a workload generator can observe).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniformly distributed value in `range`, mirroring the call shape of
    /// `rand::Rng::random_range` so workload code reads the same.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: RandValue,
        R: std::ops::RangeBounds<T>,
    {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x.successor(),
            Bound::Unbounded => T::MIN_VALUE,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x.predecessor(),
            Bound::Unbounded => T::MAX_VALUE,
        };
        let span = hi
            .checked_span_from(lo)
            .expect("empty range")
            .checked_add(1);
        match span {
            Some(width) => lo.offset_by(self.below(width)),
            // Full domain: every bit pattern is a valid value.
            None => T::from_u64(self.next_u64()),
        }
    }

    /// A random boolean.
    #[inline]
    pub fn random_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Integer types [`SplitMix64::random_range`] can sample.
pub trait RandValue: Copy {
    /// Smallest value of the type.
    const MIN_VALUE: Self;
    /// Largest value of the type.
    const MAX_VALUE: Self;
    /// `self + 1`; saturates at the type maximum (only reached from bounds
    /// that would make the range empty, which then panics in the caller).
    fn successor(self) -> Self;
    /// `self - 1`; saturates at the type minimum.
    fn predecessor(self) -> Self;
    /// `self - lo` as an unsigned width, or `None` if `self < lo`.
    fn checked_span_from(self, lo: Self) -> Option<u64>;
    /// `self + delta`, where `delta` is within the sampled span.
    fn offset_by(self, delta: u64) -> Self;
    /// Reinterprets 64 random bits as a value (full-domain ranges only).
    fn from_u64(bits: u64) -> Self;
}

macro_rules! impl_rand_unsigned {
    ($($t:ty),*) => {$(
        impl RandValue for $t {
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            #[inline]
            fn successor(self) -> Self { self.saturating_add(1) }
            #[inline]
            fn predecessor(self) -> Self { self.saturating_sub(1) }
            #[inline]
            fn checked_span_from(self, lo: Self) -> Option<u64> {
                if self < lo { None } else { Some((self - lo) as u64) }
            }
            #[inline]
            fn offset_by(self, delta: u64) -> Self { self + delta as $t }
            #[inline]
            fn from_u64(bits: u64) -> Self { bits as $t }
        }
    )*};
}

macro_rules! impl_rand_signed {
    ($($t:ty),*) => {$(
        impl RandValue for $t {
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            #[inline]
            fn successor(self) -> Self { self.saturating_add(1) }
            #[inline]
            fn predecessor(self) -> Self { self.saturating_sub(1) }
            #[inline]
            fn checked_span_from(self, lo: Self) -> Option<u64> {
                if self < lo { None } else { Some(self.wrapping_sub(lo) as u64) }
            }
            #[inline]
            fn offset_by(self, delta: u64) -> Self {
                self.wrapping_add(delta as $t)
            }
            #[inline]
            fn from_u64(bits: u64) -> Self { bits as $t }
        }
    )*};
}

impl_rand_unsigned!(u8, u16, u32, u64, usize);
impl_rand_signed!(i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(7);
        let mut b = SplitMix64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference values from the SplitMix64 description (seed 1234567).
        let mut r = SplitMix64::seed_from_u64(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::seed_from_u64(99);
        for _ in 0..10_000 {
            let x = r.random_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.random_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let z = r.random_range(0u32..1);
            assert_eq!(z, 0);
            let w = r.random_range(3usize..=3);
            assert_eq!(w, 3);
        }
    }

    #[test]
    fn below_covers_small_domains() {
        let mut r = SplitMix64::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SplitMix64::seed_from_u64(0);
        let _ = r.random_range(5u64..5);
    }

    #[test]
    fn signed_ranges_are_roughly_uniform() {
        let mut r = SplitMix64::seed_from_u64(31);
        let mut counts = [0u32; 11];
        for _ in 0..11_000 {
            let v = r.random_range(-5i64..=5);
            counts[(v + 5) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((600..1400).contains(&c), "bucket {i} count {c}");
        }
    }
}
