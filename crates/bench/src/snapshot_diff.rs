//! Metric-by-metric comparison of two observability snapshots.
//!
//! A [`pageforge_obs::Snapshot`] written by `run_observed` (or any tool
//! that serialises one to JSON) is a name-sorted map of counters, gauges,
//! and histogram summaries. [`diff`] lines two of them up and reports
//! what appeared, what vanished, and what changed by how much — the
//! regression check the `snapshot_diff` binary wraps: it exits nonzero
//! when any relative delta exceeds a threshold, so CI can gate on "this
//! refactor moved no metric".
//!
//! Histograms are compared field-by-field (`count`, `mean`, `stddev`,
//! `min`, `max`), each reported as its own named row (`name.mean`, ...),
//! so a distribution shift is attributed to the moment that moved.
//! Counters and gauges compare as one scalar kind: a snapshot read from
//! JSON cannot tell a whole-valued gauge from a counter. A metric that
//! changed between scalar and histogram is reported as removed-plus-added
//! rather than a delta.

use pageforge_obs::{Snapshot, SnapshotValue};

/// One scalar that differs between the two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name; histogram fields carry a `.count` / `.mean` /
    /// `.stddev` / `.min` / `.max` suffix.
    pub name: String,
    /// Value in the first ("before") snapshot.
    pub before: f64,
    /// Value in the second ("after") snapshot.
    pub after: f64,
    /// Relative delta `(after - before) / |before|`; ±∞ when `before`
    /// is 0 and `after` is not.
    pub rel: f64,
}

/// The outcome of [`diff`]: metric movements between two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDiff {
    /// Metrics present only in the second snapshot.
    pub added: Vec<String>,
    /// Metrics present only in the first snapshot.
    pub removed: Vec<String>,
    /// Scalars present in both with different values, in name order.
    pub changed: Vec<MetricDelta>,
    /// Metrics present in both with identical values.
    pub unchanged: usize,
}

/// Flattens one snapshot value into named scalars.
fn scalars(name: &str, value: &SnapshotValue) -> Vec<(String, f64)> {
    match value {
        SnapshotValue::Counter(c) => vec![(name.to_owned(), *c as f64)],
        SnapshotValue::Gauge(g) => vec![(name.to_owned(), *g)],
        SnapshotValue::Histogram(h) => vec![
            (format!("{name}.count"), h.count as f64),
            (format!("{name}.mean"), h.mean),
            (format!("{name}.stddev"), h.stddev),
            (format!("{name}.min"), h.min),
            (format!("{name}.max"), h.max),
        ],
    }
}

/// The kind tag used to detect scalar/histogram changes. Counters and
/// gauges share one tag, because JSON keeps no kind: `Snapshot::from_json`
/// reads a whole-valued gauge back as a counter.
fn kind(value: &SnapshotValue) -> &'static str {
    match value {
        SnapshotValue::Counter(_) | SnapshotValue::Gauge(_) => "scalar",
        SnapshotValue::Histogram(_) => "histogram",
    }
}

/// Relative delta; ±∞ when moving off an exact zero.
fn relative(before: f64, after: f64) -> f64 {
    if before == after {
        0.0
    } else if before == 0.0 {
        if after > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (after - before) / before.abs()
    }
}

/// Compares two snapshots metric-by-metric. Both inputs keep their
/// entries name-sorted, so a single merge pass classifies every name.
pub fn diff(before: &Snapshot, after: &Snapshot) -> SnapshotDiff {
    let mut out = SnapshotDiff::default();
    let a = before.entries();
    let b = after.entries();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let order = match (a.get(i), b.get(j)) {
            (Some((na, _)), Some((nb, _))) => na.cmp(nb),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => unreachable!("loop condition"),
        };
        match order {
            std::cmp::Ordering::Less => {
                out.removed.push(a[i].0.clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.added.push(b[j].0.clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (name, va) = &a[i];
                let vb = &b[j].1;
                if kind(va) != kind(vb) {
                    // A kind change is a schema change, not a delta.
                    out.removed.push(format!("{name} ({})", kind(va)));
                    out.added.push(format!("{name} ({})", kind(vb)));
                } else {
                    for ((field, x), (_, y)) in scalars(name, va).into_iter().zip(scalars(name, vb))
                    {
                        if x == y {
                            out.unchanged += 1;
                        } else {
                            out.changed.push(MetricDelta {
                                name: field,
                                before: x,
                                after: y,
                                rel: relative(x, y),
                            });
                        }
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl SnapshotDiff {
    /// Whether the two snapshots are metric-for-metric identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Whether any movement exceeds `threshold`: a changed scalar with
    /// `|rel| > threshold`, or (regardless of threshold) a metric that
    /// appeared or vanished. The default threshold 0.0 therefore flags
    /// *any* difference.
    pub fn exceeds(&self, threshold: f64) -> bool {
        !self.added.is_empty()
            || !self.removed.is_empty()
            || self.changed.iter().any(|d| d.rel.abs() > threshold)
    }

    /// Renders the diff as a human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            let _ = writeln!(out, "snapshots identical ({} metrics)", self.unchanged);
            return out;
        }
        for name in &self.removed {
            let _ = writeln!(out, "removed   {name}");
        }
        for name in &self.added {
            let _ = writeln!(out, "added     {name}");
        }
        for d in &self.changed {
            let _ = writeln!(
                out,
                "changed   {}  {} -> {}  ({:+.2}%)",
                d.name,
                d.before,
                d.after,
                d.rel * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{} changed, {} added, {} removed, {} unchanged",
            self.changed.len(),
            self.added.len(),
            self.removed.len(),
            self.unchanged
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_obs::Registry;
    use pageforge_types::json::{self, FromJson, ToJson};
    use pageforge_types::stats::RunningStats;

    fn snap(counter: u64, gauge: f64, samples: &[f64]) -> Snapshot {
        let mut run_cycles = RunningStats::new();
        for s in samples {
            run_cycles.push(*s);
        }
        let mut reg = Registry::new();
        reg.counter("engine.batches", counter);
        reg.gauge("mem.savings", gauge);
        reg.histogram("engine.run_cycles", &run_cycles);
        reg.snapshot()
    }

    /// `s` written to JSON text and read back, as `snapshot_diff` reads
    /// its inputs.
    fn via_file(s: &Snapshot) -> Snapshot {
        Snapshot::from_json(&json::parse(&s.to_json().to_string_pretty()).unwrap())
            .expect("snapshot parses back")
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let d = diff(&snap(5, 0.5, &[1.0, 2.0]), &snap(5, 0.5, &[1.0, 2.0]));
        assert!(d.is_empty());
        assert!(!d.exceeds(0.0));
        // counter + gauge + 5 histogram fields.
        assert_eq!(d.unchanged, 7);
    }

    #[test]
    fn changed_counter_reports_relative_delta() {
        let d = diff(&snap(100, 0.5, &[1.0]), &snap(110, 0.5, &[1.0]));
        assert_eq!(d.changed.len(), 1);
        let delta = &d.changed[0];
        assert_eq!(delta.name, "engine.batches");
        assert!((delta.rel - 0.10).abs() < 1e-12);
        assert!(d.exceeds(0.05));
        assert!(!d.exceeds(0.15));
    }

    #[test]
    fn histogram_fields_diff_individually() {
        let d = diff(&snap(5, 0.5, &[1.0, 3.0]), &snap(5, 0.5, &[1.0, 5.0]));
        let names: Vec<&str> = d.changed.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"engine.run_cycles.mean"));
        assert!(names.contains(&"engine.run_cycles.max"));
        assert!(!names.contains(&"engine.run_cycles.count"));
        assert!(!names.contains(&"engine.run_cycles.min"));
    }

    #[test]
    fn added_and_removed_metrics_always_exceed() {
        let mut reg = Registry::new();
        reg.counter("engine.batches", 5);
        let small = reg.snapshot();
        let d = diff(&small, &snap(5, 0.5, &[1.0]));
        assert!(d.changed.is_empty());
        assert_eq!(d.added.len(), 2);
        assert!(d.exceeds(f64::INFINITY));
        let d = diff(&snap(5, 0.5, &[1.0]), &small);
        assert_eq!(d.removed.len(), 2);
    }

    #[test]
    fn zero_to_nonzero_is_infinite() {
        let d = diff(&snap(0, 0.5, &[1.0]), &snap(3, 0.5, &[1.0]));
        assert_eq!(d.changed[0].rel, f64::INFINITY);
        assert!(d.exceeds(1e12));
    }

    #[test]
    fn diff_survives_json_roundtrip_of_inputs() {
        // 181.0 is a whole-valued gauge, which the file reads back as a
        // counter.
        for gauge in [0.5, 181.0] {
            let a = snap(5, gauge, &[1.0, 2.0]);
            assert!(diff(&a, &via_file(&a)).is_empty(), "gauge {gauge}");
        }
    }

    #[test]
    fn gauge_falling_to_zero_between_files_is_a_delta() {
        let d = diff(
            &via_file(&snap(5, 0.25, &[1.0])),
            &via_file(&snap(5, 0.0, &[1.0])),
        );
        assert!(d.added.is_empty() && d.removed.is_empty(), "{d:?}");
        assert_eq!(d.changed.len(), 1);
        assert_eq!(d.changed[0].name, "mem.savings");
        assert_eq!(d.changed[0].rel, -1.0);
        assert!(!d.exceeds(10.0));
    }
}
