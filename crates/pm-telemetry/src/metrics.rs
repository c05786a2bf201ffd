//! The metrics registry: named, optionally labeled series of atomic
//! counters, gauges, and fixed-bucket histograms.
//!
//! Handle acquisition (`counter`, `gauge`, `histogram`, and their `_with`
//! labeled variants) takes the registry mutex once to get-or-create the
//! series; the returned handle is an `Arc` over the atomics and every
//! subsequent operation is lock-free. Histograms observe into the first
//! bucket whose upper bound is `>= value` (the last bucket is the implicit
//! `+Inf` overflow); values are unit-agnostic `u64`s — by convention this
//! workspace uses microseconds for durations (`*_us` names) and bytes for
//! sizes (`*_bytes`).
//!
//! Histogram increments order the bucket/sum updates *before* the count
//! update, and [`Registry::snapshot`] reads the count first, so a sampled
//! histogram always satisfies `sum(buckets) >= count` — the invariant the
//! concurrency tests pin down. After all writers quiesce the snapshot is
//! exact.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current level of something: live connections, live
/// sessions). Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Strictly increasing finite bucket upper bounds.
    bounds: Vec<u64>,
    /// One slot per bound plus the trailing `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations. Cloning shares the
/// underlying atomics.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let inner = &*self.0;
        let idx = inner.bounds.partition_point(|bound| *bound < value);
        inner.buckets[idx].fetch_add(1, Ordering::SeqCst);
        inner.sum.fetch_add(value, Ordering::SeqCst);
        // Last, so a snapshot that reads `count` first sees every bucket
        // increment belonging to the counted observations.
        inner.count.fetch_add(1, Ordering::SeqCst);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::SeqCst)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::SeqCst)
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) the way Prometheus'
    /// `histogram_quantile` does: find the bucket holding rank `q * count`
    /// and interpolate linearly inside it, the first bucket starting at 0.
    /// A rank in the `+Inf` bucket answers the largest finite bound. For
    /// any other bucket bound `b`, the estimate exceeds `b` exactly when
    /// more than `(1 - q) * count` observations do. `None` before any
    /// observation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let inner = &*self.0;
        let buckets: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::SeqCst))
            .collect();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * count as f64;
        let mut below = 0u64;
        for (i, &in_bucket) in buckets.iter().enumerate() {
            if in_bucket > 0 && (below + in_bucket) as f64 >= rank {
                let Some(&upper) = inner.bounds.get(i) else {
                    break;
                };
                let lower = if i == 0 { 0 } else { inner.bounds[i - 1] };
                let within = (rank - below as f64) / in_bucket as f64;
                return Some(lower as f64 + (upper - lower) as f64 * within);
            }
            below += in_bucket;
        }
        inner.bounds.last().map(|&b| b as f64)
    }

    fn sample(&self, name: &str, labels: &[LabelPair]) -> HistogramSample {
        let inner = &*self.0;
        let count = inner.count.load(Ordering::SeqCst);
        let buckets = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::SeqCst))
            .collect();
        HistogramSample {
            name: name.to_string(),
            labels: labels.to_vec(),
            bounds: inner.bounds.clone(),
            buckets,
            sum: inner.sum.load(Ordering::SeqCst),
            count,
        }
    }
}

/// One `key="value"` label on a series.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LabelPair {
    /// The label key.
    pub key: String,
    /// The label value.
    pub value: String,
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type SeriesKey = (String, Vec<LabelPair>);

/// The process-wide series registry. See the [module docs](self).
#[derive(Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        (
            name.to_string(),
            labels
                .iter()
                .map(|(key, value)| LabelPair {
                    key: (*key).to_string(),
                    value: (*value).to_string(),
                })
                .collect(),
        )
    }

    /// Gets or creates the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Gets or creates the counter `name` with the given labels.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different metric kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut series = self.series.lock().expect("metrics registry lock");
        match series
            .entry(Registry::key(name, labels))
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(counter) => counter.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Gets or creates the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gets or creates the gauge `name` with the given labels.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different metric kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut series = self.series.lock().expect("metrics registry lock");
        match series
            .entry(Registry::key(name, labels))
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(gauge) => gauge.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Gets or creates the unlabeled histogram `name` with the given bucket
    /// bounds (ignored if the series already exists).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// Gets or creates the histogram `name` with the given labels and
    /// bucket bounds (bounds are ignored if the series already exists).
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different metric kind, or
    /// if `bounds` is not strictly increasing.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        let mut series = self.series.lock().expect("metrics registry lock");
        match series
            .entry(Registry::key(name, labels))
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(histogram) => histogram.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Samples every registered series into a serializable snapshot, sorted
    /// by name then labels. Histogram samples satisfy
    /// `sum(buckets) >= count` even while writers are live; once writers
    /// quiesce the snapshot is exact.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self.series.lock().expect("metrics registry lock");
        let mut snapshot = MetricsSnapshot::default();
        for ((name, labels), metric) in series.iter() {
            match metric {
                Metric::Counter(counter) => snapshot.counters.push(CounterSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: counter.get(),
                }),
                Metric::Gauge(gauge) => snapshot.gauges.push(GaugeSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: gauge.get(),
                }),
                Metric::Histogram(histogram) => {
                    snapshot.histograms.push(histogram.sample(name, labels));
                }
            }
        }
        snapshot
    }
}

/// One sampled counter series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// The series name.
    pub name: String,
    /// The series labels, sorted as registered.
    pub labels: Vec<LabelPair>,
    /// The sampled value.
    pub value: u64,
}

/// One sampled gauge series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// The series name.
    pub name: String,
    /// The series labels, sorted as registered.
    pub labels: Vec<LabelPair>,
    /// The sampled value.
    pub value: i64,
}

/// One sampled histogram series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// The series name.
    pub name: String,
    /// The series labels, sorted as registered.
    pub labels: Vec<LabelPair>,
    /// Finite bucket upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts: one per bound plus the trailing
    /// `+Inf` overflow bucket (`buckets.len() == bounds.len() + 1`).
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

/// A point-in-time sample of every registered series. Serializable (the
/// `Metrics` server verb embeds it) and renderable as Prometheus text.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Sampled counters, sorted by name then labels.
    pub counters: Vec<CounterSample>,
    /// Sampled gauges, sorted by name then labels.
    pub gauges: Vec<GaugeSample>,
    /// Sampled histograms, sorted by name then labels.
    pub histograms: Vec<HistogramSample>,
}

fn label_block(labels: &[LabelPair], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|l| format!("{}=\"{}\"", l.key, l.value))
        .collect();
    if let Some((key, value)) = extra {
        parts.push(format!("{key}=\"{value}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format: one
    /// `# TYPE` comment per metric name, `name{labels} value` sample lines,
    /// and the conventional `_bucket`/`_sum`/`_count` expansion (with
    /// cumulative `le` buckets) for histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if last_type_line.as_deref() != Some(line.as_str()) {
                out.push_str(&line);
                last_type_line = Some(line);
            }
        };
        for sample in &self.counters {
            type_line(&mut out, &sample.name, "counter");
            out.push_str(&format!(
                "{}{} {}\n",
                sample.name,
                label_block(&sample.labels, None),
                sample.value
            ));
        }
        for sample in &self.gauges {
            type_line(&mut out, &sample.name, "gauge");
            out.push_str(&format!(
                "{}{} {}\n",
                sample.name,
                label_block(&sample.labels, None),
                sample.value
            ));
        }
        for sample in &self.histograms {
            type_line(&mut out, &sample.name, "histogram");
            let mut cumulative = 0u64;
            for (i, bucket) in sample.buckets.iter().enumerate() {
                cumulative += bucket;
                let le = sample
                    .bounds
                    .get(i)
                    .map_or_else(|| "+Inf".to_string(), u64::to_string);
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    sample.name,
                    label_block(&sample.labels, Some(("le", &le))),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n",
                sample.name,
                label_block(&sample.labels, None),
                sample.sum
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                sample.name,
                label_block(&sample.labels, None),
                sample.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = Registry::new();
        let c = registry.counter("pm_test_total");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("pm_test_total").get(), 5);
        let g = registry.gauge("pm_test_level");
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(registry.gauge("pm_test_level").get(), 7);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let registry = Registry::new();
        registry
            .counter_with("pm_verbs_total", &[("verb", "submit")])
            .add(2);
        registry
            .counter_with("pm_verbs_total", &[("verb", "run")])
            .inc();
        let snapshot = registry.snapshot();
        let values: Vec<u64> = snapshot.counters.iter().map(|c| c.value).collect();
        assert_eq!(values, [1, 2], "sorted by labels: run before submit");
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let registry = Registry::new();
        let h = registry.histogram("pm_lat_us", &[10, 100, 1000]);
        for v in [3, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let sample = &registry.snapshot().histograms[0];
        assert_eq!(sample.buckets, [2, 2, 0, 1], "bounds are inclusive");
        assert_eq!(sample.count, 5);
        assert_eq!(sample.sum, 3 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn quantiles_interpolate_within_the_holding_bucket() {
        let registry = Registry::new();
        let h = registry.histogram("pm_q_us", &[10, 100, 1000]);
        assert_eq!(h.quantile(0.5), None, "no observations yet");
        for v in [5, 5, 50, 50, 50, 50, 50, 50, 50, 500] {
            h.observe(v);
        }
        // Rank 1 of 2 in the first bucket [0, 10].
        assert_eq!(h.quantile(0.1), Some(5.0));
        // Rank 5 is the third of seven in (10, 100].
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - (10.0 + 90.0 * 3.0 / 7.0)).abs() < 1e-9, "{p50}");
        // Nine observations are <= 100, so p90 sits on that bound and p99
        // is above it.
        assert_eq!(h.quantile(0.9), Some(100.0));
        assert!(h.quantile(0.99).unwrap() > 100.0);
        h.observe(5000);
        assert_eq!(h.quantile(1.0), Some(1000.0), "+Inf answers the last bound");
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_typed() {
        let registry = Registry::new();
        registry.counter("pm_total").add(2);
        let h = registry.histogram_with("pm_lat_us", &[("verb", "run")], &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE pm_total counter\npm_total 2\n"));
        assert!(text.contains("# TYPE pm_lat_us histogram\n"));
        assert!(text.contains("pm_lat_us_bucket{verb=\"run\",le=\"10\"} 1\n"));
        assert!(text.contains("pm_lat_us_bucket{verb=\"run\",le=\"100\"} 2\n"));
        assert!(text.contains("pm_lat_us_bucket{verb=\"run\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("pm_lat_us_sum{verb=\"run\"} 555\n"));
        assert!(text.contains("pm_lat_us_count{verb=\"run\"} 3\n"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("pm_x");
        registry.gauge("pm_x");
    }
}
