//! The thread-safe metric registry.
//!
//! Three metric families, all named by dotted strings (`sim.engine.cases`):
//!
//! * **counters** — monotonic `u64` sums ([`Registry::counter_add`]);
//! * **gauges** — last-written `f64` values ([`Registry::gauge_set`]);
//! * **histograms** — fixed-bucket histograms: duration histograms over
//!   nanoseconds ([`Registry::observe_ns`]) with exponential decade buckets
//!   from 1 µs to 10 s plus an implicit overflow bucket, and count
//!   histograms ([`Registry::observe_count`]) with power-of-two buckets
//!   for sizes (batch sizes, queue depths). Each also keeps its smallest
//!   and largest observation. Snapshots estimate p50/p95/p99 by linear
//!   interpolation inside the landing bucket, clamped into the observed
//!   range ([`HistogramSnapshot::quantile`]).
//!
//! The registration maps are guarded by an [`RwLock`] taken only to *find or
//! create* a metric cell; the cells themselves are atomics, so concurrent
//! recording to existing metrics takes the read lock and never blocks other
//! recorders. Reading a [`Snapshot`] is the only consumer-side operation and
//! tolerates being concurrent with writers (relaxed atomic reads — counts
//! may trail in-flight increments by a few, which is fine for telemetry).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Upper bucket bounds in nanoseconds for duration histograms: decades from
/// 1 µs to 10 s. Observations above the last bound land in the implicit
/// overflow bucket.
pub const DURATION_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Upper bucket bounds for count histograms (batch sizes, queue depths):
/// powers of two from 1 to 8192, plus the implicit overflow bucket.
pub const COUNT_BOUNDS: [u64; 14] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
];

/// What a histogram's observations measure — which fixed bucket ladder it
/// uses and how exporters label it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramUnit {
    /// Nanosecond durations on [`DURATION_BOUNDS_NS`].
    Nanos,
    /// Dimensionless counts on [`COUNT_BOUNDS`].
    Count,
}

impl HistogramUnit {
    /// The unit's stable label, as the JSON exporter renders it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HistogramUnit::Nanos => "ns",
            HistogramUnit::Count => "count",
        }
    }

    /// The bucket ladder this unit observes on.
    #[must_use]
    pub fn bounds(self) -> &'static [u64] {
        match self {
            HistogramUnit::Nanos => &DURATION_BOUNDS_NS,
            HistogramUnit::Count => &COUNT_BOUNDS,
        }
    }
}

/// A fixed-bucket histogram cell.
struct Histogram {
    /// Which bucket ladder (fixed at creation by the first observer).
    unit: HistogramUnit,
    /// `unit.bounds().len() + 1` buckets; the last is the overflow.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(unit: HistogramUnit) -> Self {
        Histogram {
            unit,
            buckets: (0..=unit.bounds().len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let bounds = self.unit.bounds();
        let idx = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A thread-safe collection of named counters, gauges and histograms.
///
/// [`crate::global`] holds the process-wide instance; tests and embedders
/// can construct private ones.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Finds or creates the cell for `name` in `map`.
    fn cell<T>(
        map: &RwLock<BTreeMap<String, Arc<T>>>,
        name: &str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(cell) = map.read().expect("metric map poisoned").get(name) {
            return Arc::clone(cell);
        }
        let mut map = map.write().expect("metric map poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(make())),
        )
    }

    /// Adds `by` to the counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &str, by: u64) {
        Self::cell(&self.counters, name, || AtomicU64::new(0)).fetch_add(by, Ordering::Relaxed);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        Self::cell(&self.gauges, name, || AtomicU64::new(0))
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Records one duration observation into the histogram `name`.
    pub fn observe_ns(&self, name: &str, nanos: u64) {
        Self::cell(&self.histograms, name, || {
            Histogram::new(HistogramUnit::Nanos)
        })
        .observe(nanos);
    }

    /// Records one count observation (a batch size, a queue depth) into
    /// the histogram `name`, on the power-of-two [`COUNT_BOUNDS`] ladder.
    pub fn observe_count(&self, name: &str, value: u64) {
        Self::cell(&self.histograms, name, || {
            Histogram::new(HistogramUnit::Count)
        })
        .observe(value);
    }

    /// An immutable, ordered snapshot of every metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("metric map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("metric map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("metric map poisoned")
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        unit: h.unit,
                        bounds: h.unit.bounds().to_vec(),
                        counts: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                        min: h.min.load(Ordering::Relaxed),
                        max: h.max.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Removes every metric.
    pub fn reset(&self) {
        self.counters.write().expect("metric map poisoned").clear();
        self.gauges.write().expect("metric map poisoned").clear();
        self.histograms
            .write()
            .expect("metric map poisoned")
            .clear();
    }

    /// Whether no metric has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters
            .read()
            .expect("metric map poisoned")
            .is_empty()
            && self.gauges.read().expect("metric map poisoned").is_empty()
            && self
                .histograms
                .read()
                .expect("metric map poisoned")
                .is_empty()
    }
}

/// A point-in-time copy of a [`Registry`]'s contents, with deterministic
/// (sorted) iteration order — the input to the exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        Snapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

/// One histogram's state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// What the observations measure (fixes the bucket ladder and the
    /// exporters' labelling).
    pub unit: HistogramUnit,
    /// Upper bucket bounds in the histogram's unit (`counts` has one
    /// extra overflow entry).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts, overflow last.
    pub counts: Vec<u64>,
    /// Sum of all observations in the histogram's unit.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
    /// The smallest observation (`u64::MAX` before the first).
    pub min: u64,
    /// The largest observation (0 before the first).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts
    /// by linear interpolation inside the landing bucket, the standard
    /// fixed-bucket estimator (what Prometheus' `histogram_quantile`
    /// computes server-side), clamped into `[min, max]`: a bucket's edges
    /// can lie outside the data (nine 1s and one 2 interpolate a median of
    /// 0.56 from the first bucket's lower edge, 0), and no quantile of the
    /// data does. The overflow bucket interpolates no further than the
    /// highest finite bound before the clamp; an empty histogram yields 0.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let estimate = self.interpolate(q);
        // A snapshot taken while an observation lands may see its count
        // before its min and max.
        if self.min <= self.max {
            #[allow(clippy::cast_precision_loss)]
            return estimate.clamp(self.min as f64, self.max as f64);
        }
        estimate
    }

    /// The bucket-interpolated estimate behind [`Self::quantile`].
    fn interpolate(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            let below = cumulative;
            cumulative += bucket_count;
            #[allow(clippy::cast_precision_loss)]
            if bucket_count > 0 && cumulative as f64 >= rank {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: no finite upper edge to
                    // interpolate against; clamp to the last bound.
                    return *self.bounds.last().expect("bounds nonempty") as f64;
                };
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                #[allow(clippy::cast_precision_loss)]
                let fraction = ((rank - below as f64) / bucket_count as f64).clamp(0.0, 1.0);
                return lower as f64 + fraction * (upper - lower) as f64;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let last = *self.bounds.last().expect("bounds nonempty") as f64;
        last
    }

    /// The estimated median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The estimated 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The estimated 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let reg = Registry::new();
        reg.counter_add("b.second", 2);
        reg.counter_add("a.first", 1);
        reg.counter_add("b.second", 3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "b.second"]);
        assert_eq!(snap.counters["b.second"], 5);
    }

    #[test]
    fn gauges_keep_last_value() {
        let reg = Registry::new();
        reg.gauge_set("g", 1.5);
        reg.gauge_set("g", -2.25);
        assert_eq!(reg.snapshot().gauges["g"], -2.25);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let reg = Registry::new();
        reg.observe_ns("h", 500); // <= 1µs bucket
        reg.observe_ns("h", 5_000_000); // <= 10ms bucket
        reg.observe_ns("h", 100_000_000_000); // overflow
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.unit, HistogramUnit::Nanos);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 500 + 5_000_000 + 100_000_000_000);
        assert_eq!(h.counts.len(), DURATION_BOUNDS_NS.len() + 1);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[4], 1);
        assert_eq!(*h.counts.last().unwrap(), 1);
    }

    #[test]
    fn boundary_observation_lands_in_lower_bucket() {
        let reg = Registry::new();
        reg.observe_ns("h", 1_000);
        assert_eq!(reg.snapshot().histograms["h"].counts[0], 1);
    }

    #[test]
    fn count_histograms_use_the_power_of_two_ladder() {
        let reg = Registry::new();
        reg.observe_count("batch", 1);
        reg.observe_count("batch", 7);
        reg.observe_count("batch", 9_000);
        let snap = reg.snapshot();
        let h = &snap.histograms["batch"];
        assert_eq!(h.unit, HistogramUnit::Count);
        assert_eq!(h.bounds, COUNT_BOUNDS.to_vec());
        assert_eq!(h.counts.len(), COUNT_BOUNDS.len() + 1);
        assert_eq!(h.counts[0], 1); // <= 1
        assert_eq!(h.counts[3], 1); // <= 8
        assert_eq!(*h.counts.last().unwrap(), 1); // overflow
        assert_eq!(h.sum, 1 + 7 + 9_000);
    }

    #[test]
    fn quantiles_interpolate_within_the_landing_bucket() {
        let reg = Registry::new();
        // 2 µs and 9 µs, 50 each, in the (1µs, 10µs] bucket: p50
        // interpolates to halfway, p75 three quarters of the way.
        for value in [2_000, 9_000] {
            for _ in 0..50 {
                reg.observe_ns("h", value);
            }
        }
        let h = reg.snapshot().histograms["h"].clone();
        assert_eq!((h.min, h.max), (2_000, 9_000));
        assert_eq!(h.p50(), 1_000.0 + 0.5 * 9_000.0);
        assert_eq!(h.quantile(0.75), 1_000.0 + 0.75 * 9_000.0);
        // The interpolated p99 (9.91 µs) lies above every observation,
        // so it clamps to the largest.
        assert_eq!(h.p99(), 9_000.0);
        // 100 observations of 5 µs: every quantile is 5 µs, where the
        // bucket alone would read 5.5 µs for p50 and 9.91 µs for p99.
        let reg = Registry::new();
        for _ in 0..100 {
            reg.observe_ns("h", 5_000);
        }
        let h = reg.snapshot().histograms["h"].clone();
        assert_eq!((h.p50(), h.p99()), (5_000.0, 5_000.0));
        // Two-bucket split: 50 fast, 50 slow — p50 is the fast bucket's
        // upper edge, p60 interpolates 20% into the slow bucket, and p75
        // (550 µs by the bucket) clamps to the slowest observation.
        let reg = Registry::new();
        for _ in 0..50 {
            reg.observe_ns("h", 500);
        }
        for _ in 0..50 {
            reg.observe_ns("h", 500_000);
        }
        let h = reg.snapshot().histograms["h"].clone();
        assert_eq!(h.p50(), 1_000.0);
        assert_eq!(h.quantile(0.6), 100_000.0 + 0.2 * 900_000.0);
        assert_eq!(h.quantile(0.75), 500_000.0);
        // Overflow observations have no finite upper edge: the estimate
        // stops at the highest finite bound, then clamps into the data.
        let reg = Registry::new();
        reg.observe_ns("h", u64::MAX / 2);
        assert_eq!(reg.snapshot().histograms["h"].p50(), (u64::MAX / 2) as f64);
        // Empty histogram: zero, not NaN.
        let empty = HistogramSnapshot {
            unit: HistogramUnit::Nanos,
            bounds: DURATION_BOUNDS_NS.to_vec(),
            counts: vec![0; DURATION_BOUNDS_NS.len() + 1],
            sum: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn a_median_of_ones_is_one() {
        // Nine 1s and one 2: the (0, 1] bucket alone would interpolate
        // the median to 5/9 from its lower edge, 0.
        let reg = Registry::new();
        for _ in 0..9 {
            reg.observe_count("batch", 1);
        }
        reg.observe_count("batch", 2);
        assert_eq!(reg.snapshot().histograms["batch"].p50(), 1.0);
    }

    #[test]
    fn every_quantile_lies_within_the_observed_range() {
        // SplitMix64: a seeded stream without a dependency.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..500 {
            let reg = Registry::new();
            let observations = 1 + next() % 40;
            // Values spread over a random number of decades, so cases
            // land inside one bucket, across several, and in overflow.
            let scale = 10_u64.pow((next() % 12) as u32);
            let mut values = Vec::new();
            for _ in 0..observations {
                let value = next() % (scale * 20 + 1);
                values.push(value);
                if case % 2 == 0 {
                    reg.observe_ns("h", value);
                } else {
                    reg.observe_count("h", value);
                }
            }
            let h = reg.snapshot().histograms["h"].clone();
            let (lo, hi) = (values.iter().min().unwrap(), values.iter().max().unwrap());
            assert_eq!((h.min, h.max), (*lo, *hi));
            for step in 0..=100 {
                let q = f64::from(step) / 100.0;
                let estimate = h.quantile(q);
                assert!(
                    *lo as f64 <= estimate && estimate <= *hi as f64,
                    "case {case}: q{q} = {estimate} outside [{lo}, {hi}] of {values:?}"
                );
            }
        }
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.counter_add("c", 1);
        reg.gauge_set("g", 1.0);
        reg.observe_ns("h", 1);
        assert!(!reg.is_empty());
        reg.reset();
        assert!(reg.is_empty());
        assert_eq!(reg.snapshot(), Snapshot::empty());
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let reg = Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.counter_add("shared", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().counters["shared"], 4000);
    }
}
