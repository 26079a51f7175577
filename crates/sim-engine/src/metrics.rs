//! Lightweight counter/histogram registry for simulator observability.
//!
//! The registry is the engine-level half of the observability layer: the
//! full-system simulator registers named counters and histograms up front
//! (receiving cheap index handles), then increments them from the event
//! loop. Every mutating call starts with a single predictable branch on
//! [`Registry::enabled`], so a disabled registry costs one never-taken
//! branch per call site and nothing else — instrumentation must be
//! pclock-neutral *and* close to wall-clock-neutral.
//!
//! Values are plain `u64` and bucketing is by bit width (`log2`), so
//! identical runs produce bit-identical [`MetricsSnapshot`]s: the registry
//! is as deterministic as the simulation it observes.
//!
//! Each name has one kind and one registering call site. Registering a
//! name again from another line, or as the other kind, panics: two
//! components sharing a counter by accident would silently merge their
//! counts. `record`/`record_max` fold into a name by value, so any number
//! of them may share a name, but never with a `counter`/`histogram`
//! handle.
//!
//! # Examples
//!
//! ```
//! use pfsim_engine::metrics::Registry;
//!
//! let mut reg = Registry::new(true);
//! let events = reg.counter("events");
//! let depth = reg.histogram("queue_depth");
//! reg.inc(events, 1);
//! reg.observe(depth, 12);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("events"), Some(1));
//! assert_eq!(snap.histogram("queue_depth").unwrap().count, 1);
//! ```

use std::panic::Location;

/// Index handle for a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Index handle for a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// A fixed-size log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples whose bit width is `i` (bucket 0 is the value
/// zero, bucket 1 is the value 1, bucket 2 is 2..=3, bucket 3 is 4..=7,
/// …). 65 buckets cover the full `u64` range with no allocation and no
/// data-dependent branches in the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample observed.
    pub max: u64,
    /// Log2 buckets: `buckets[i]` counts samples of bit width `i`.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    #[inline]
    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }
}

/// A named collection of counters and histograms.
///
/// Registration returns index handles so the hot path never hashes a
/// name; end-of-run convenience recording by name goes through
/// [`Registry::record`].
#[derive(Debug, Clone)]
pub struct Registry {
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
    /// Each name's kind (`true`: histogram) and first registration: the
    /// call site of the `counter`/`histogram` that returned its handle, or
    /// `None` for a name first folded in by `record`/`record_max`.
    sites: Vec<(&'static str, bool, Option<&'static Location<'static>>)>,
}

impl Registry {
    /// Creates a registry. A disabled registry accepts registrations but
    /// ignores every `inc`/`observe`/`record`.
    pub fn new(enabled: bool) -> Self {
        Registry {
            enabled,
            counters: Vec::new(),
            histograms: Vec::new(),
            sites: Vec::new(),
        }
    }

    /// Whether instrumentation is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or, from the same call site, finds) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered from another call site or as a
    /// histogram.
    #[track_caller]
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        self.claim(name, false, Some(Location::caller()));
        CounterId(self.counter_slot(name))
    }

    /// Registers (or, from the same call site, finds) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered from another call site or as a
    /// counter.
    #[track_caller]
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        self.claim(name, true, Some(Location::caller()));
        if let Some(i) = self.histograms.iter().position(|(n, _)| *n == name) {
            return HistogramId(i as u32);
        }
        self.histograms.push((name, Histogram::default()));
        HistogramId((self.histograms.len() - 1) as u32)
    }

    /// The counter slot of `name`, created on first use.
    fn counter_slot(&mut self, name: &'static str) -> u32 {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return i as u32;
        }
        self.counters.push((name, 0));
        (self.counters.len() - 1) as u32
    }

    /// Records `site` as the registration of `name`, or checks it against
    /// the first one (see the module docs).
    #[track_caller]
    fn claim(
        &mut self,
        name: &'static str,
        histogram: bool,
        site: Option<&'static Location<'static>>,
    ) {
        match self.sites.iter().find(|(n, ..)| *n == name) {
            None => self.sites.push((name, histogram, site)),
            Some(&(_, was_histogram, first)) => {
                assert!(
                    was_histogram == histogram,
                    "metric `{name}` registered as both counter and histogram"
                );
                assert!(
                    first == site,
                    "metric `{name}` registered at {} and again at {}",
                    first.map_or("a record/record_max call".to_string(), |l| l.to_string()),
                    Location::caller(),
                );
            }
        }
    }

    /// Adds `by` to a counter. One branch when disabled.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        if self.enabled {
            self.counters[id.0 as usize].1 += by;
        }
    }

    /// Records one histogram sample. One branch when disabled.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        if self.enabled {
            self.histograms[id.0 as usize].1.observe(v);
        }
    }

    /// Adds `by` to the counter `name`, registering it on first use.
    ///
    /// Linear name lookup: meant for end-of-run gauge folding, not the
    /// event loop.
    ///
    /// # Panics
    ///
    /// Panics if `name` is a `counter`/`histogram` handle's name.
    #[track_caller]
    pub fn record(&mut self, name: &'static str, by: u64) {
        if self.enabled {
            self.claim(name, false, None);
            let i = self.counter_slot(name);
            self.counters[i as usize].1 += by;
        }
    }

    /// Sets the counter `name` to the maximum of its current value and
    /// `v` (for high-water gauges folded across nodes).
    ///
    /// # Panics
    ///
    /// Panics if `name` is a `counter`/`histogram` handle's name.
    #[track_caller]
    pub fn record_max(&mut self, name: &'static str, v: u64) {
        if self.enabled {
            self.claim(name, false, None);
            let i = self.counter_slot(name);
            let slot = &mut self.counters[i as usize].1;
            *slot = (*slot).max(v);
        }
    }

    /// An immutable, name-sorted copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        counters.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .iter()
            .map(|(n, h)| (n.to_string(), HistogramSnapshot::of(h)))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// Point-in-time copy of one histogram, trailing-zero buckets trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample observed.
    pub max: u64,
    /// Log2 buckets, trimmed after the last non-zero entry.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> Self {
        let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            max: h.max,
            buckets: h.buckets[..last].to_vec(),
        }
    }
}

/// Deterministic, name-sorted dump of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Human-readable differences between two snapshots, one line per
    /// diverging metric (empty when bit-identical). Built for equivalence
    /// harnesses — e.g. the checkpoint round-trip gate — where "which
    /// metric moved, and by how much" is the whole debugging story and
    /// two full `Debug` dumps would bury it.
    pub fn diff(&self, other: &MetricsSnapshot) -> Vec<String> {
        let mut out = Vec::new();
        diff_keyed(&self.counters, &other.counters, &mut out, |name, a, b| {
            format!("counter {name}: {a:?} != {b:?}")
        });
        diff_keyed(
            &self.histograms,
            &other.histograms,
            &mut out,
            |name, a, b| match (a, b) {
                (Some(a), Some(b)) => {
                    let mut line = format!(
                        "histogram {name}: count {} vs {}, sum {} vs {}, max {} vs {}",
                        a.count, b.count, a.sum, b.sum, a.max, b.max
                    );
                    // The summary triple can agree while the distribution
                    // does not (same count/sum/max, different samples), so
                    // name every diverging bucket too — otherwise the diff
                    // line prints six equal numbers for a real mismatch.
                    let buckets = a.buckets.len().max(b.buckets.len());
                    for i in 0..buckets {
                        let (va, vb) = (
                            a.buckets.get(i).copied().unwrap_or(0),
                            b.buckets.get(i).copied().unwrap_or(0),
                        );
                        if va != vb {
                            line.push_str(&format!(", bucket[{i}] {va} vs {vb}"));
                        }
                    }
                    line
                }
                _ => format!(
                    "histogram {name}: present {} vs {}",
                    a.is_some(),
                    b.is_some()
                ),
            },
        );
        out
    }
}

/// Walks two name-sorted `(name, value)` lists in lockstep and reports
/// every key that is missing on one side or differs in value.
fn diff_keyed<V: PartialEq>(
    a: &[(String, V)],
    b: &[(String, V)],
    out: &mut Vec<String>,
    describe: impl Fn(&str, Option<&V>, Option<&V>) -> String,
) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                if va != vb {
                    out.push(describe(ka, Some(va), Some(vb)));
                }
                i += 1;
                j += 1;
            }
            (Some((ka, va)), Some((kb, _))) if ka < kb => {
                out.push(describe(ka, Some(va), None));
                i += 1;
            }
            (Some(_), Some((kb, vb))) => {
                out.push(describe(kb, None, Some(vb)));
                j += 1;
            }
            (Some((ka, va)), None) => {
                out.push(describe(ka, Some(va), None));
                i += 1;
            }
            (None, Some((kb, vb))) => {
                out.push(describe(kb, None, Some(vb)));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_ignores_everything() {
        let mut reg = Registry::new(false);
        let c = reg.counter("c");
        let h = reg.histogram("h");
        reg.inc(c, 5);
        reg.observe(h, 9);
        reg.record("gauge", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(0));
        assert_eq!(snap.histogram("h").unwrap().count, 0);
        assert_eq!(snap.counter("gauge"), None);
    }

    #[test]
    fn diff_reports_each_divergence_once() {
        let mut a = Registry::new(true);
        let ca = a.counter("events");
        a.inc(ca, 3);
        let ha = a.histogram("depth");
        a.observe(ha, 4);

        let mut b = Registry::new(true);
        let cb = b.counter("events");
        b.inc(cb, 5);
        b.record("extra_gauge", 1);
        let hb = b.histogram("depth");
        b.observe(hb, 4);

        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert!(sa.diff(&sa.clone()).is_empty());
        let d = sa.diff(&sb);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|l| l.contains("counter events")), "{d:?}");
        assert!(d.iter().any(|l| l.contains("extra_gauge")), "{d:?}");
    }

    #[test]
    fn diff_sees_histogram_divergence() {
        let mut a = Registry::new(true);
        let h = a.histogram("depth");
        a.observe(h, 4);
        let mut b = Registry::new(true);
        let h = b.histogram("depth");
        b.observe(h, 4);
        b.observe(h, 9);
        let d = a.snapshot().diff(&b.snapshot());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("histogram depth"), "{d:?}");
        assert!(d[0].contains("count 1 vs 2"), "{d:?}");
        // 9 has bit width 4, present only on b's side.
        assert!(d[0].contains("bucket[4] 0 vs 1"), "{d:?}");
    }

    /// Two sample sets can agree on count, sum, and max while landing in
    /// different buckets ({4,5,6} vs {3,6,6}); the diff line must name the
    /// buckets or it reads as six equal numbers.
    #[test]
    fn diff_names_diverging_buckets_when_summary_agrees() {
        let observe_all = |vs: &[u64]| {
            let mut r = Registry::new(true);
            let h = r.histogram("depth");
            for &v in vs {
                r.observe(h, v);
            }
            r.snapshot()
        };
        let a = observe_all(&[4, 5, 6]);
        let b = observe_all(&[3, 6, 6]);
        let d = a.diff(&b);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].contains("count 3 vs 3, sum 15 vs 15, max 6 vs 6"),
            "{d:?}"
        );
        assert!(d[0].contains("bucket[2] 0 vs 1"), "{d:?}");
        assert!(d[0].contains("bucket[3] 3 vs 2"), "{d:?}");
    }

    #[test]
    fn counters_accumulate() {
        let mut reg = Registry::new(true);
        let c = reg.counter("c");
        reg.inc(c, 2);
        reg.inc(c, 3);
        assert_eq!(reg.snapshot().counter("c"), Some(5));
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = Registry::new(true);
        let ids: Vec<CounterId> = (0..2).map(|_| reg.counter("same")).collect();
        let (a, b) = (ids[0], ids[1]);
        assert_eq!(a, b);
        reg.inc(a, 1);
        reg.inc(b, 1);
        assert_eq!(reg.snapshot().counter("same"), Some(2));
    }

    #[test]
    #[should_panic(expected = "metric `same` registered at")]
    fn registration_from_a_second_site_panics() {
        let mut reg = Registry::new(true);
        reg.counter("same");
        reg.counter("same");
    }

    #[test]
    #[should_panic(expected = "metric `latency` registered as both counter and histogram")]
    fn registration_as_the_other_kind_panics() {
        let mut reg = Registry::new(true);
        for _ in 0..2 {
            reg.histogram("latency");
            reg.counter("latency");
        }
    }

    #[test]
    #[should_panic(expected = "metric `events` registered at")]
    fn recording_into_a_handle_panics() {
        let mut reg = Registry::new(true);
        reg.counter("events");
        reg.record("events", 1);
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[64], 1); // u64::MAX
        assert_eq!(h.count, 8);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn snapshot_is_sorted_and_trimmed() {
        let mut reg = Registry::new(true);
        let b = reg.counter("zeta");
        let a = reg.counter("alpha");
        reg.inc(b, 1);
        reg.inc(a, 2);
        let h = reg.histogram("h");
        reg.observe(h, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "alpha");
        assert_eq!(snap.counters[1].0, "zeta");
        // value 3 has bit width 2 -> buckets [0, 0, 1]
        assert_eq!(snap.histogram("h").unwrap().buckets, vec![0, 0, 1]);
    }

    #[test]
    fn record_max_keeps_high_water() {
        let mut reg = Registry::new(true);
        reg.record_max("hw", 4);
        reg.record_max("hw", 9);
        reg.record_max("hw", 2);
        assert_eq!(reg.snapshot().counter("hw"), Some(9));
    }

    #[test]
    fn identical_sequences_snapshot_identically() {
        let run = || {
            let mut reg = Registry::new(true);
            let c = reg.counter("ev");
            let h = reg.histogram("depth");
            for i in 0..100u64 {
                reg.inc(c, 1);
                reg.observe(h, i * 37 % 19);
            }
            reg.record("gauge", 7);
            reg.snapshot()
        };
        assert_eq!(run(), run());
    }
}
