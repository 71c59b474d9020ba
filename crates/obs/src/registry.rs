//! The metric registry: counters, gauges, and histograms under
//! hierarchical dotted names, snapshotted into deterministic JSON.
//!
//! Components count in plain fields and name their values only on
//! export: each `export_metrics(&self, out: &mut Registry)` writes every
//! value into the registry it is handed, one call per name. Writing a
//! name that is already present merges into it — counters add, gauges
//! add, histograms merge their moments — so the memory controllers,
//! several PageForge modules or a fleet's hosts fold into one
//! system-wide view by writing into the same registry.
//! [`Registry::snapshot`] then produces a [`Snapshot`] — a name-sorted,
//! JSON-serialisable view whose bytes are identical for identical metric
//! values, regardless of write order.

use std::collections::BTreeMap;

use pageforge_types::json::{obj, FromJson, ToJson, Value};
use pageforge_types::stats::RunningStats;

#[derive(Debug)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(RunningStats),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Named metrics, written by name and merged on a repeated name.
///
/// Names are hierarchical dotted paths (`engine.comparisons`,
/// `ksm.stable_tree.depth`, `mem.controller.queue_occupancy`); the
/// registry itself treats them as opaque strings — the hierarchy is a
/// naming convention shared across the workspace (see OBSERVABILITY.md).
///
/// # Examples
///
/// ```
/// use pageforge_obs::Registry;
/// use pageforge_types::json::ToJson;
/// use pageforge_types::stats::RunningStats;
///
/// let mut run_cycles = RunningStats::new();
/// run_cycles.push(7486.0);
///
/// let mut reg = Registry::new();
/// reg.counter("engine.comparisons", 3);
/// reg.counter("engine.comparisons", 1); // a second module's count adds
/// reg.histogram("engine.run_cycles", &run_cycles);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("engine.comparisons"), Some(4));
/// assert!(snap.to_json().to_string_pretty().contains("engine.run_cycles"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    metrics: BTreeMap<String, MetricValue>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The metric `name`, created as `zero` if absent.
    fn slot(&mut self, name: &str, zero: MetricValue) -> &mut MetricValue {
        let kind = zero.kind();
        let slot = self.metrics.entry(name.to_owned()).or_insert(zero);
        assert_eq!(
            slot.kind(),
            kind,
            "metric `{name}` already holds a {}",
            slot.kind()
        );
        slot
    }

    /// Adds `n` to the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a gauge or a histogram.
    pub fn counter(&mut self, name: &str, n: u64) {
        if let MetricValue::Counter(c) = self.slot(name, MetricValue::Counter(0)) {
            *c += n;
        }
    }

    /// Adds `v` to the gauge `name`: a gauge that one component writes
    /// holds its value, one that several write holds their sum.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a counter or a histogram.
    pub fn gauge(&mut self, name: &str, v: f64) {
        if let MetricValue::Gauge(g) = self.slot(name, MetricValue::Gauge(0.0)) {
            *g += v;
        }
    }

    /// Merges `stats` into the histogram `name` (parallel Welford), so
    /// writing several components' distributions equals having recorded
    /// every sample into one.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a counter or a gauge.
    pub fn histogram(&mut self, name: &str, stats: &RunningStats) {
        if let MetricValue::Histogram(h) =
            self.slot(name, MetricValue::Histogram(RunningStats::new()))
        {
            h.merge(stats);
        }
    }

    /// Produces a name-sorted, serialisable view of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    MetricValue::Counter(c) => SnapshotValue::Counter(*c),
                    MetricValue::Gauge(g) => SnapshotValue::Gauge(*g),
                    MetricValue::Histogram(h) => SnapshotValue::Histogram(HistogramSummary {
                        count: h.count(),
                        mean: h.mean(),
                        stddev: h.population_stddev(),
                        min: if h.count() == 0 { 0.0 } else { h.min() },
                        max: if h.count() == 0 { 0.0 } else { h.max() },
                    }),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// Five-number summary of a histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

/// The value of one metric inside a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotValue {
    /// A monotonic count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A sample distribution.
    Histogram(HistogramSummary),
}

/// An immutable, name-sorted view of a [`Registry`], serialisable to the
/// same hand-rolled JSON the `results/*.json` artifacts use.
///
/// Snapshots with identical metric values render to identical bytes, no
/// matter what order the metrics were written in — the property the
/// `--jobs 2` vs `--jobs 4` determinism test pins down.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<(String, SnapshotValue)>,
}

impl Snapshot {
    /// All `(name, value)` pairs in name order.
    pub fn entries(&self) -> &[(String, SnapshotValue)] {
        &self.entries
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The value of a counter, if `name` is one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SnapshotValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// The value of a gauge, if `name` is one.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            SnapshotValue::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// The summary of a histogram, if `name` is one.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        match self.get(name)? {
            SnapshotValue::Histogram(h) => Some(*h),
            _ => None,
        }
    }

    /// A copy with every metric renamed to `"{prefix}/{name}"`, for
    /// unioning snapshots of independent systems into one diffable
    /// artifact.
    #[must_use]
    pub fn prefixed(&self, prefix: &str) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .map(|(name, v)| (format!("{prefix}/{name}"), *v))
                .collect(),
        }
    }

    /// Unions snapshots into one, re-sorted by name.
    ///
    /// # Panics
    ///
    /// Panics when two inputs carry the same metric name — callers must
    /// disambiguate with [`Snapshot::prefixed`] first; silently keeping
    /// one of two colliding values would corrupt the diff artifact.
    #[must_use]
    pub fn union(snapshots: impl IntoIterator<Item = Snapshot>) -> Snapshot {
        let mut entries: Vec<(String, SnapshotValue)> = snapshots
            .into_iter()
            .flat_map(|s| s.entries.into_iter())
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in entries.windows(2) {
            assert!(
                pair[0].0 != pair[1].0,
                "snapshot union: duplicate metric `{}`; prefix the inputs",
                pair[0].0
            );
        }
        Snapshot { entries }
    }
}

impl ToJson for HistogramSummary {
    fn to_json(&self) -> Value {
        obj([
            ("count", self.count.to_json()),
            ("mean", self.mean.to_json()),
            ("stddev", self.stddev.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

impl FromJson for HistogramSummary {
    fn from_json(value: &Value) -> Option<Self> {
        Some(HistogramSummary {
            count: u64::from_json(value.get("count")?)?,
            mean: f64::from_json(value.get("mean")?)?,
            stddev: f64::from_json(value.get("stddev")?)?,
            min: f64::from_json(value.get("min")?)?,
            max: f64::from_json(value.get("max")?)?,
        })
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Value {
        Value::Obj(
            self.entries
                .iter()
                .map(|(name, v)| {
                    let value = match v {
                        SnapshotValue::Counter(c) => c.to_json(),
                        SnapshotValue::Gauge(g) => g.to_json(),
                        SnapshotValue::Histogram(h) => h.to_json(),
                    };
                    (name.clone(), value)
                })
                .collect(),
        )
    }
}

/// JSON keeps no metric kind: a whole, non-negative number reads back
/// as a counter and any other number as a gauge, so a gauge that holds a
/// whole value returns as a counter.
impl FromJson for Snapshot {
    fn from_json(value: &Value) -> Option<Self> {
        let Value::Obj(members) = value else {
            return None;
        };
        let mut entries = Vec::with_capacity(members.len());
        for (name, v) in members {
            let parsed = match v {
                Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => SnapshotValue::Counter(*n as u64),
                Value::Num(n) => SnapshotValue::Gauge(*n),
                Value::Obj(_) => SnapshotValue::Histogram(HistogramSummary::from_json(v)?),
                _ => return None,
            };
            entries.push((name.clone(), parsed));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Some(Snapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[f64]) -> RunningStats {
        let mut s = RunningStats::new();
        for &x in samples {
            s.push(x);
        }
        s
    }

    #[test]
    fn prefixed_union_merges_disjoint_snapshots() {
        let mut a = Registry::new();
        a.counter("hits", 3);
        let mut b = Registry::new();
        b.counter("hits", 9);
        let merged = Snapshot::union([
            a.snapshot().prefixed("ksm"),
            b.snapshot().prefixed("pageforge"),
        ]);
        assert_eq!(merged.counter("ksm/hits"), Some(3));
        assert_eq!(merged.counter("pageforge/hits"), Some(9));
        assert_eq!(merged.entries().len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn union_rejects_colliding_names() {
        let mut a = Registry::new();
        a.counter("hits", 0);
        let _ = Snapshot::union([a.snapshot(), a.snapshot()]);
    }

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let mut reg = Registry::new();
        reg.counter("a.count", 5);
        reg.gauge("a.level", 2.5);
        reg.histogram("a.dist", &stats(&[1.0, 3.0]));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("a.level"), Some(2.5));
        let hist = snap.histogram("a.dist").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.mean, 2.0);
        assert_eq!(hist.min, 1.0);
        assert_eq!(hist.max, 3.0);
    }

    #[test]
    #[should_panic(expected = "already holds a counter")]
    fn kind_clash_panics() {
        let mut reg = Registry::new();
        reg.counter("x", 0);
        reg.gauge("x", 0.0);
    }

    #[test]
    fn repeated_names_merge() {
        let mut reg = Registry::new();
        reg.counter("n.c", 2);
        reg.histogram("n.h", &stats(&[10.0]));
        // A second component writes the same names in another order.
        reg.histogram("n.h", &stats(&[20.0]));
        reg.counter("n.c", 3);
        reg.gauge("n.g", 1.5);
        reg.gauge("n.g", 2.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("n.c"), Some(5));
        assert_eq!(snap.gauge("n.g"), Some(3.5));
        let h = snap.histogram("n.h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean, 15.0);
    }

    #[test]
    fn snapshot_bytes_are_order_independent() {
        let mut a = Registry::new();
        a.counter("z.last", 1);
        a.counter("a.first", 2);

        let mut b = Registry::new();
        b.counter("a.first", 2);
        b.counter("z.last", 1);

        assert_eq!(
            a.snapshot().to_json().to_string_pretty(),
            b.snapshot().to_json().to_string_pretty()
        );
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let mut reg = Registry::new();
        reg.counter("engine.comparisons", 9);
        reg.histogram("engine.run_cycles", &stats(&[7486.0]));
        let snap = reg.snapshot();
        let text = snap.to_json().to_string_pretty();
        let back = Snapshot::from_json(&pageforge_types::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.counter("engine.comparisons"), Some(9));
        assert_eq!(back.histogram("engine.run_cycles").unwrap().count, 1);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let mut reg = Registry::new();
        reg.histogram("h", &RunningStats::new());
        let h = reg.snapshot().histogram("h").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 0.0);
    }
}
