//! The §5.1 stride-sequence classifier.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use pfsim_mem::{BlockAddr, Pc};

/// One read miss as seen by the classifier: which load instruction missed
/// on which block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// Program counter of the missing load.
    pub pc: Pc,
    /// Block that missed.
    pub block: BlockAddr,
}

/// The paper requires "at least three equidistant accesses ... caused by
/// the same load instruction" before a run counts as a stride sequence.
const MIN_SEQUENCE: usize = 3;

/// Result of classifying one processor's miss stream.
#[derive(Debug, Clone, Default)]
pub struct Characterization {
    /// Total read misses examined.
    pub total_misses: u64,
    /// Misses belonging to stride sequences (runs of ≥ 3 equidistant
    /// misses from one load instruction).
    pub misses_in_sequences: u64,
    /// Number of maximal stride sequences found.
    pub sequences: u64,
    /// Sum of sequence lengths (equals `misses_in_sequences`; kept for
    /// clarity of the average computation).
    pub sequence_misses: u64,
    /// stride (in blocks) → misses inside sequences with that stride.
    /// Sorted by key: histogram iteration feeds the published tables, so
    /// its order must be deterministic.
    pub stride_histogram: BTreeMap<i64, u64>,
}

impl Characterization {
    /// Fraction of read misses inside stride sequences (Table 2, row 1).
    pub fn stride_fraction(&self) -> f64 {
        if self.total_misses == 0 {
            0.0
        } else {
            self.misses_in_sequences as f64 / self.total_misses as f64
        }
    }

    /// Average stride-sequence length in misses (Table 2, row 2).
    pub fn avg_sequence_length(&self) -> f64 {
        if self.sequences == 0 {
            0.0
        } else {
            self.sequence_misses as f64 / self.sequences as f64
        }
    }

    /// Strides sorted by how many sequence misses they account for, with
    /// each stride's share of all sequence misses (Table 2, row 3).
    pub fn dominant_strides(&self) -> Vec<(i64, f64)> {
        let total = self.misses_in_sequences.max(1) as f64;
        let mut strides: Vec<(i64, f64)> = self
            .stride_histogram
            .iter()
            .map(|(&s, &count)| (s, count as f64 / total))
            .collect();
        strides.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        strides
    }

    /// Renders the dominant strides like the paper's table cells, e.g.
    /// `"1(76%)"` or `"65(42%), 1(31%)"` (strides below 5% are elided).
    pub fn dominant_strides_label(&self) -> String {
        let strides = self.dominant_strides();
        let mut parts: Vec<String> = strides
            .iter()
            .filter(|(_, share)| *share >= 0.05)
            .take(3)
            .map(|(s, share)| format!("{s}({:.0}%)", share * 100.0))
            .collect();
        if parts.is_empty() {
            if let Some((s, share)) = strides.first() {
                parts.push(format!("{s}({:.0}%)", share * 100.0));
            } else {
                parts.push("-".to_string());
            }
        }
        parts.join(", ")
    }
}

/// Classifies a processor's read-miss stream per §5.1.
///
/// Misses are grouped by load instruction (preserving program order
/// within each group, as I-detection hardware would see them); a maximal
/// run of equidistant block numbers of length ≥ 3 is a stride sequence.
/// Absolute stride values are recorded (a descending sweep is the same
/// stride as an ascending one, as in the paper's Table 2).
///
/// Accepts any stream of (borrowed or owned) [`MissEvent`]s, so callers
/// can feed it a decode iterator over a packed trace's miss records
/// without materializing a slice first.
pub fn characterize<I>(misses: I) -> Characterization
where
    I: IntoIterator,
    I::Item: Borrow<MissEvent>,
{
    // Grouped per load instruction. A BTreeMap (not a hash map) so the
    // run-closing loop below visits groups in PC order: the sequence and
    // histogram totals are commutative, but `sequences` numbering and any
    // future per-group output stay deterministic by construction.
    let mut per_pc: BTreeMap<Pc, Vec<BlockAddr>> = BTreeMap::new();
    let mut total_misses = 0u64;
    for m in misses {
        let m = m.borrow();
        total_misses += 1;
        per_pc.entry(m.pc).or_default().push(m.block);
    }

    let mut ch = Characterization {
        total_misses,
        ..Default::default()
    };

    for blocks in per_pc.values() {
        let mut run_start = 0usize;
        let mut i = 1usize;
        // The first index of this group not yet counted toward
        // `misses_in_sequences`: the boundary miss shared between two
        // adjacent runs must be counted only once.
        let mut counted_until = 0usize;
        let mut close_run = |start: usize, end: usize, ch: &mut Characterization| {
            // Run of equidistant misses blocks[start..=end].
            let len = end - start + 1;
            if len >= MIN_SEQUENCE {
                let stride = blocks[start + 1].stride_from(blocks[start]).abs();
                let unique = (end + 1 - start.max(counted_until)) as u64;
                counted_until = end + 1;
                ch.misses_in_sequences += unique;
                ch.sequence_misses += len as u64;
                ch.sequences += 1;
                *ch.stride_histogram.entry(stride).or_insert(0) += unique;
            }
        };
        if blocks.len() == 1 {
            continue;
        }
        let mut delta = blocks[1].stride_from(blocks[0]);
        while i + 1 < blocks.len() {
            let next = blocks[i + 1].stride_from(blocks[i]);
            if next != delta || delta == 0 {
                close_run(run_start, i, &mut ch);
                run_start = i;
                delta = next;
            }
            i += 1;
        }
        close_run(run_start, i, &mut ch);
    }
    debug_assert!(ch.misses_in_sequences <= ch.total_misses);
    ch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u32, block: u64) -> MissEvent {
        MissEvent {
            pc: Pc::new(pc),
            block: BlockAddr::new(block),
        }
    }

    #[test]
    fn pure_stride_sequence_is_fully_classified() {
        let misses: Vec<_> = (0..10).map(|k| ev(1, 100 + 21 * k)).collect();
        let ch = characterize(&misses);
        assert_eq!(ch.total_misses, 10);
        assert_eq!(ch.misses_in_sequences, 10);
        assert_eq!(ch.sequences, 1);
        assert_eq!(ch.avg_sequence_length(), 10.0);
        assert_eq!(ch.dominant_strides(), vec![(21, 1.0)]);
    }

    #[test]
    fn two_misses_are_not_a_sequence() {
        let ch = characterize([ev(1, 10), ev(1, 11)]);
        assert_eq!(ch.misses_in_sequences, 0);
        assert_eq!(ch.stride_fraction(), 0.0);
    }

    #[test]
    fn three_equidistant_misses_are_the_minimum() {
        let ch = characterize([ev(1, 10), ev(1, 11), ev(1, 12)]);
        assert_eq!(ch.misses_in_sequences, 3);
        assert_eq!(ch.sequences, 1);
    }

    #[test]
    fn interleaved_pcs_classify_independently() {
        // Two interleaved sequences from distinct loads: both found.
        let mut misses = Vec::new();
        for k in 0..6 {
            misses.push(ev(1, 100 + k));
            misses.push(ev(2, 900 + 5 * k));
        }
        let ch = characterize(&misses);
        assert_eq!(ch.misses_in_sequences, 12);
        assert_eq!(ch.sequences, 2);
        let strides = ch.dominant_strides();
        assert_eq!(strides.len(), 2);
        assert!(strides.iter().any(|&(s, _)| s == 1));
        assert!(strides.iter().any(|&(s, _)| s == 5));
    }

    #[test]
    fn stride_change_splits_sequences() {
        // 4 misses at stride 1, then 4 at stride 3 (the boundary miss is
        // shared as the new run's start).
        let blocks = [10, 11, 12, 13, 16, 19, 22, 25];
        let misses: Vec<_> = blocks.iter().map(|&b| ev(1, b)).collect();
        let ch = characterize(&misses);
        assert_eq!(ch.sequences, 2);
        assert_eq!(ch.stride_histogram[&1], 4);
        // The boundary miss (13) belongs to both runs but counts once:
        // the second run contributes its remaining four misses.
        assert_eq!(ch.stride_histogram[&3], 4);
        assert_eq!(ch.misses_in_sequences, 8);
        assert!(ch.stride_fraction() <= 1.0);
    }

    #[test]
    fn random_misses_yield_no_sequences() {
        let blocks = [5u64, 900, 17, 4400, 23, 1000, 2, 77];
        let misses: Vec<_> = blocks.iter().map(|&b| ev(7, b)).collect();
        let ch = characterize(&misses);
        assert_eq!(ch.misses_in_sequences, 0);
        assert_eq!(ch.avg_sequence_length(), 0.0);
    }

    #[test]
    fn descending_strides_count_as_positive() {
        let misses: Vec<_> = (0..5).map(|k| ev(1, 1000 - 2 * k)).collect();
        let ch = characterize(&misses);
        assert_eq!(ch.dominant_strides()[0].0, 2);
    }

    #[test]
    fn zero_stride_runs_are_not_sequences() {
        // Repeated misses on the same block (ping-pong invalidation) are
        // not stride sequences.
        let misses: Vec<_> = (0..6).map(|_| ev(1, 42)).collect();
        let ch = characterize(&misses);
        assert_eq!(ch.misses_in_sequences, 0);
    }

    #[test]
    fn label_formats_like_the_paper() {
        let mut misses: Vec<_> = (0..76).map(|k| ev(1, 1000 + k)).collect();
        misses.extend((0..24).map(|k| ev(2, 90_000 + 21 * k)));
        let ch = characterize(&misses);
        assert_eq!(ch.dominant_strides_label(), "1(76%), 21(24%)");
    }

    #[test]
    fn empty_stream() {
        let ch = characterize([] as [MissEvent; 0]);
        assert_eq!(ch.total_misses, 0);
        assert_eq!(ch.stride_fraction(), 0.0);
        assert_eq!(ch.dominant_strides_label(), "-");
    }

    #[test]
    fn length_statistics() {
        // Three sequences: lengths 3, 3 and 10 (distinct pcs).
        let mut misses = Vec::new();
        misses.extend((0..3).map(|k| ev(1, 100 + k)));
        misses.extend((0..3).map(|k| ev(2, 900 + 2 * k)));
        misses.extend((0..10).map(|k| ev(3, 5000 + 7 * k)));
        let ch = characterize(&misses);
        assert_eq!(ch.sequences, 3);
        assert!((ch.avg_sequence_length() - 16.0 / 3.0).abs() < 1e-9);
    }
}
