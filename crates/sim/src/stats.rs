//! The sim-wide stats registry.
//!
//! Every component registers named monotonic [`Counter`]s and log2-bucket
//! [`Histogram`]s here at attach time (`Component::attach`). The
//! handles are `Rc`-backed, so the component updates its own copy on the
//! hot path while the registry can snapshot all of them at any time
//! without `&mut` access to the component — including mid-run.
//!
//! A run is one host thread: the one that built the SoC steps every
//! component, the NoC and the kernel, and takes the snapshots. The cells
//! are plain `Cell`s, so no handle can reach another thread and an update
//! is a load and a store — the engine alone records two occupancy
//! histograms per step.
//!
//! Counter names are `scope.counter` where scope is the component's
//! `name#id` (e.g. `engine#3.backoffs`, `dir#0.inv_sent`). The registry
//! serialises to a stable, dependency-free JSON document via
//! [`Stats::to_json`]; `socrun --stats out.json` writes exactly that.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A monotonic event counter.
///
/// Cloning shares the underlying cell; a clone registered in a [`Stats`]
/// registry observes every later increment made through the component's
/// copy.
#[derive(Debug, Default, Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Fresh counter at zero (unregistered until adopted by a registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n` (wrapping).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Resets to zero **through the shared cell**, so registry-adopted
    /// clones observe the reset too. Only for harnesses that reload a
    /// program into an already-attached component; counters stay monotonic
    /// within a run.
    pub fn reset(&self) {
        self.0.set(0);
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
const BUCKETS: usize = 65;

struct HistogramInner {
    buckets: [Cell<u64>; BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

/// A log2-bucketed histogram of `u64` samples (latencies, occupancies).
///
/// Bucket `0` holds the value zero; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Recording is a handful of loads and stores, so
/// the handle is safe to hit from a simulation hot loop.
#[derive(Clone)]
pub struct Histogram(Rc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Rc::new(HistogramInner {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("mean", &s.mean)
            .finish()
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median upper bound (bucket resolution).
    pub p50: u64,
    /// 90th-percentile upper bound (bucket resolution).
    pub p90: u64,
    /// 99th-percentile upper bound (bucket resolution).
    pub p99: u64,
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound (inclusive) of bucket `i`.
    fn bucket_top(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= 64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples, bit-exactly equivalent to calling
    /// [`Histogram::record`] `n` times (the sum wraps, as `n` individual
    /// wrapping adds would). Used by
    /// [`crate::component::Component::fast_forward`] to reconcile
    /// per-cycle histograms over a skipped window in one update.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let h = &*self.0;
        let bucket = &h.buckets[Self::bucket_of(value)];
        bucket.set(bucket.get().wrapping_add(n));
        h.count.set(h.count.get().wrapping_add(n));
        h.sum.set(h.sum.get().wrapping_add(value.wrapping_mul(n)));
        h.min.set(h.min.get().min(value));
        h.max.set(h.max.get().max(value));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.get()
    }

    /// Summarises the current contents.
    pub fn summary(&self) -> HistogramSummary {
        let h = &*self.0;
        let count = h.count.get();
        let sum = h.sum.get();
        let pct = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = (p * count as f64).ceil() as u64;
            let mut seen = 0;
            for (i, b) in h.buckets.iter().enumerate() {
                seen += b.get();
                if seen >= target {
                    return Self::bucket_top(i);
                }
            }
            Self::bucket_top(BUCKETS - 1)
        };
        HistogramSummary {
            count,
            sum,
            min: if count == 0 { 0 } else { h.min.get() },
            max: h.max.get(),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// The shared stats registry: a name → handle map for counters and
/// histograms. Cloning shares the registry.
#[derive(Clone, Default)]
pub struct Stats {
    inner: Rc<RefCell<Registry>>,
}

impl std::fmt::Debug for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.inner.borrow();
        f.debug_struct("Stats")
            .field("counters", &reg.counters.len())
            .field("histograms", &reg.histograms.len())
            .finish()
    }
}

impl Stats {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .borrow_mut()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers an existing counter handle under `name`, so a component
    /// can keep its own field and still be visible in snapshots. Replaces
    /// any previous registration of the same name.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.inner
            .borrow_mut()
            .counters
            .insert(name.to_string(), counter.clone());
    }

    /// Gets or creates the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers an existing histogram handle under `name`.
    pub fn adopt_histogram(&self, name: &str, histogram: &Histogram) {
        self.inner
            .borrow_mut()
            .histograms
            .insert(name.to_string(), histogram.clone());
    }

    /// All counters, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histogram summaries, sorted by name.
    pub fn histogram_summaries(&self) -> Vec<(String, HistogramSummary)> {
        self.inner
            .borrow()
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect()
    }

    /// Serialises the registry to a stable JSON document:
    /// `{"counters": {...}, "histograms": {name: {count, sum, ...}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters = self.counter_values();
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(name), value));
        }
        if !counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        let hists = self.histogram_summaries();
        for (i, (name, s)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                json_string(name),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.mean,
                s.p50,
                s.p90,
                s.p99
            ));
        }
        if !hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let stats = Stats::new();
        let a = stats.counter("engine#0.backoffs");
        let b = stats.counter("engine#0.backoffs");
        a.inc();
        b.add(2);
        assert_eq!(
            stats.counter_values(),
            vec![("engine#0.backoffs".into(), 3)]
        );
    }

    #[test]
    fn adopted_counter_is_live() {
        let stats = Stats::new();
        let mine = Counter::new();
        mine.add(5);
        stats.adopt_counter("core#1.loads", &mine);
        mine.inc();
        assert_eq!(stats.counter_values()[0].1, 6);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 8, 100] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 119);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 >= 100, "p99 upper bound covers the max sample");
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().summary();
        assert_eq!((s.count, s.min, s.max, s.p99), (0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let stats = Stats::new();
        stats.counter("a\"b").inc();
        stats.histogram("lat").record(7);
        let j = stats.to_json();
        assert!(j.contains("\"a\\\"b\": 1"));
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"histograms\""));
        assert!(j.contains("\"count\": 1"));
    }

    #[test]
    fn bucket_top_monotone() {
        let mut last = 0;
        for i in 0..BUCKETS {
            let t = Histogram::bucket_top(i);
            assert!(t >= last);
            last = t;
        }
    }
}
