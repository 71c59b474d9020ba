//! The metric registry: counters, gauges, and histograms under
//! hierarchical dotted names, snapshotted into deterministic JSON.
//!
//! A component registers each metric **once**, holding on to the returned
//! id ([`CounterId`], [`GaugeId`], [`HistogramId`]); updates are then plain
//! array indexing, with no name lookup. Because ids are indices into the
//! owning registry (not shared pointers), a cloned component gets an
//! independent copy of its metrics. The simulator's components keep their
//! counters in plain fields instead and build a registry only in
//! `export_metrics`.
//!
//! Aggregation across components (e.g. the two memory controllers, or
//! several PageForge modules) goes through [`Registry::absorb`], which
//! merges by name: counters add, gauges add, histograms merge their
//! moments. [`Registry::snapshot`] then produces a [`Snapshot`] — a
//! name-sorted, JSON-serialisable view whose bytes are identical for
//! identical metric values, regardless of registration or merge order.

use pageforge_types::json::{obj, FromJson, ToJson, Value};
use pageforge_types::stats::RunningStats;

/// Handle to a counter in the [`Registry`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge in the [`Registry`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram in the [`Registry`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone, PartialEq)]
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

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: MetricValue,
}

/// A collection of named metrics owned by one component.
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
///
/// let mut reg = Registry::new();
/// let comparisons = reg.counter("engine.comparisons");
/// let run_cycles = reg.histogram("engine.run_cycles");
///
/// reg.add(comparisons, 3);
/// reg.inc(comparisons);
/// reg.observe(run_cycles, 7486.0);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("engine.comparisons"), Some(4));
/// assert!(snap.to_json().to_string_pretty().contains("engine.run_cycles"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: Vec<Metric>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` if no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn register(&mut self, name: &str, value: MetricValue) -> usize {
        if let Some(idx) = self.metrics.iter().position(|m| m.name == name) {
            let existing = &self.metrics[idx];
            assert_eq!(
                existing.value.kind(),
                value.kind(),
                "metric `{name}` is already registered as a {}",
                existing.value.kind()
            );
            return idx;
        }
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
        });
        self.metrics.len() - 1
    }

    /// Registers (or re-looks-up) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(&mut self, name: &str) -> CounterId {
        CounterId(self.register(name, MetricValue::Counter(0)))
    }

    /// Registers (or re-looks-up) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.register(name, MetricValue::Gauge(0.0)))
    }

    /// Registers (or re-looks-up) a histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        HistogramId(self.register(name, MetricValue::Histogram(RunningStats::new())))
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Counter(c) => *c += n,
            _ => unreachable!("CounterId always points at a counter"),
        }
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Gauge(g) => *g = v,
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// Records a sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Histogram(h) => h.push(x),
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    /// Merges an externally-accumulated distribution into a histogram
    /// (parallel Welford merge, same rule [`Registry::absorb`] uses).
    /// Lets components that keep a [`RunningStats`] of their own project
    /// it into a registry without replaying every sample.
    #[inline]
    pub fn merge_into(&mut self, id: HistogramId, stats: &RunningStats) {
        match &mut self.metrics[id.0].value {
            MetricValue::Histogram(h) => h.merge(stats),
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    /// Current value of a gauge.
    fn gauge_value(&self, id: GaugeId) -> f64 {
        match &self.metrics[id.0].value {
            MetricValue::Gauge(g) => *g,
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// Merges `other` into `self` by metric name, registering names that
    /// are new here. Counters and gauges add; histograms merge their
    /// moments (so aggregating N component registries equals having
    /// recorded every sample into one).
    ///
    /// # Panics
    ///
    /// Panics if a shared name has different kinds in the two registries.
    pub fn absorb(&mut self, other: &Registry) {
        self.absorb_prefixed("", other);
    }

    /// Like [`Registry::absorb`], but prepends `prefix` to every incoming
    /// name (pass e.g. `"sim."` to namespace a component's metrics).
    pub fn absorb_prefixed(&mut self, prefix: &str, other: &Registry) {
        for m in &other.metrics {
            let name = format!("{prefix}{}", m.name);
            match &m.value {
                MetricValue::Counter(c) => {
                    let id = self.counter(&name);
                    self.add(id, *c);
                }
                MetricValue::Gauge(g) => {
                    let id = self.gauge(&name);
                    let v = self.gauge_value(id) + *g;
                    self.set(id, v);
                }
                MetricValue::Histogram(h) => {
                    let id = self.histogram(&name);
                    match &mut self.metrics[id.0].value {
                        MetricValue::Histogram(mine) => mine.merge(h),
                        _ => unreachable!("HistogramId always points at a histogram"),
                    }
                }
            }
        }
    }

    /// Produces a name-sorted, serialisable view of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<(String, SnapshotValue)> = self
            .metrics
            .iter()
            .map(|m| {
                let value = match &m.value {
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
                (m.name.clone(), value)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
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
/// matter what order the metrics were registered or absorbed in — the
/// property the `--jobs 2` vs `--jobs 4` determinism test pins down.
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

    /// A copy with every metric renamed to `"{prefix}/{name}"` — the
    /// snapshot analogue of [`Registry::absorb_prefixed`], for unioning
    /// snapshots of independent systems into one diffable artifact.
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

    #[test]
    fn prefixed_union_merges_disjoint_snapshots() {
        let mut a = Registry::new();
        let ca = a.counter("hits");
        a.add(ca, 3);
        let mut b = Registry::new();
        let cb = b.counter("hits");
        b.add(cb, 9);
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
        a.counter("hits");
        let _ = Snapshot::union([a.snapshot(), a.snapshot()]);
    }

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let mut reg = Registry::new();
        let c = reg.counter("a.count");
        let g = reg.gauge("a.level");
        let h = reg.histogram("a.dist");
        reg.add(c, 5);
        reg.set(g, 2.5);
        reg.observe(h, 1.0);
        reg.observe(h, 3.0);
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
    fn reregistration_returns_same_id() {
        let mut reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        reg.inc(a);
        reg.inc(b);
        assert_eq!(reg.snapshot().counter("x"), Some(2));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let mut reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn absorb_merges_by_name() {
        let mut a = Registry::new();
        let ca = a.counter("n.c");
        let ha = a.histogram("n.h");
        a.add(ca, 2);
        a.observe(ha, 10.0);

        let mut b = Registry::new();
        // Deliberately different registration order.
        let hb = b.histogram("n.h");
        let cb = b.counter("n.c");
        let gb = b.gauge("n.g");
        b.observe(hb, 20.0);
        b.add(cb, 3);
        b.set(gb, 1.5);

        a.absorb(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("n.c"), Some(5));
        assert_eq!(snap.gauge("n.g"), Some(1.5));
        let h = snap.histogram("n.h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean, 15.0);
    }

    #[test]
    fn absorb_prefixed_namespaces() {
        let mut component = Registry::new();
        let c = component.counter("reads");
        component.add(c, 7);
        let mut top = Registry::new();
        top.absorb_prefixed("mem.controller.", &component);
        assert_eq!(top.snapshot().counter("mem.controller.reads"), Some(7));
    }

    #[test]
    fn snapshot_bytes_are_order_independent() {
        let mut a = Registry::new();
        let a1 = a.counter("z.last");
        let a2 = a.counter("a.first");
        a.add(a1, 1);
        a.add(a2, 2);

        let mut b = Registry::new();
        let b2 = b.counter("a.first");
        let b1 = b.counter("z.last");
        b.add(b2, 2);
        b.add(b1, 1);

        assert_eq!(
            a.snapshot().to_json().to_string_pretty(),
            b.snapshot().to_json().to_string_pretty()
        );
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let mut reg = Registry::new();
        let c = reg.counter("engine.comparisons");
        let h = reg.histogram("engine.run_cycles");
        reg.add(c, 9);
        reg.observe(h, 7486.0);
        let snap = reg.snapshot();
        let text = snap.to_json().to_string_pretty();
        let back = Snapshot::from_json(&pageforge_types::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.counter("engine.comparisons"), Some(9));
        assert_eq!(back.histogram("engine.run_cycles").unwrap().count, 1);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let mut reg = Registry::new();
        reg.histogram("h");
        let h = reg.snapshot().histogram("h").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 0.0);
    }

    #[test]
    fn cloned_registry_is_independent() {
        let mut a = Registry::new();
        let c = a.counter("c");
        a.add(c, 1);
        let mut b = a.clone();
        b.add(c, 10);
        assert_eq!(a.snapshot().counter("c"), Some(1));
        assert_eq!(b.snapshot().counter("c"), Some(11));
    }
}
