//! Order statistics and the A/B verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so a spread printed here is the spread an
//! external check computes from the same samples.

/// The median of `xs` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The first and third quartiles of `xs`; a single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        // Python's integer arithmetic: position i·(n+1)/4, clamped to
        // [1, n-1], interpolated between its neighbours.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The interquartile range of `xs`.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistics of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// How a change compares with its parent on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the run pairs and the
    /// medians differ by more than the parent's own IQR.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Neither better nor worse than the bound allows.
    WithinBound,
    /// A side's run-to-run spread is wider than the bound, so "within
    /// bound" cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// The word printed in the comparison table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` (per-run values of one metric, paired
/// by position) under the A/B rule: a gain needs ≥ 9/10 pair wins and a
/// median gap wider than the parent's IQR; a regression is a median worse
/// by more than `bound` (a share of the parent's median); a spread wider
/// than `bound` on either side is unresolved unless every change run beats
/// every parent run.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (mp, mc) = (median(parent), median(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > iqr(parent) {
        return Verdict::Better;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let spread = (iqr(parent) / mp.abs()).max(iqr(change) / mc.abs());
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better { mp - mc } else { mc - mp } / mp.abs();
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from CPython 3.11's
    /// `statistics.quantiles([...], n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
        assert_eq!(iqr(&ten), 5.5);
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn verdict_sees_a_clear_gain() {
        // Lower is better; every change run beats every parent run.
        let parent = runs(10.0, 0.01);
        let change = runs(9.0, 0.01);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Better);
        // The same numbers read as a regression when higher is better.
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Worse);
    }

    #[test]
    fn verdict_within_bound_for_the_same_code() {
        let parent = runs(10.0, 0.01);
        let change: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::WithinBound);
    }

    #[test]
    fn verdict_unresolved_when_spread_exceeds_bound() {
        let parent = runs(10.0, 0.5); // IQR 2.75 on a median of 12.25
        let change = runs(10.2, 0.5);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&parent, &change, false, 0.3), Verdict::WithinBound);
    }

    #[test]
    fn verdict_small_gain_inside_the_noise_is_not_better() {
        // Wins every pair, but the gap is below the parent's IQR.
        let parent = runs(10.0, 0.1);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.05).collect();
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::WithinBound);
    }
}
