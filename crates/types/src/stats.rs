//! Small statistics helpers shared by the simulator and the workloads.
//!
//! The paper reports mean sojourn latency (Figure 9), 95th-percentile tail
//! latency (Figure 10), and per-application standard deviations (Table 5).
//! [`RunningStats`] provides streaming mean/stddev; [`LatencyRecorder`]
//! stores samples so exact percentiles can be extracted.

use crate::json::{obj, ToJson, Value};

/// Streaming mean / variance accumulator (Welford's algorithm).
///
/// ```
/// use pageforge_types::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_stddev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation; 0 with fewer than 2 samples.
    pub fn population_stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample; +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl ToJson for RunningStats {
    fn to_json(&self) -> Value {
        obj([
            ("count", self.count.to_json()),
            ("mean", self.mean.to_json()),
            ("m2", self.m2.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

impl Default for RunningStats {
    fn default() -> Self {
        RunningStats::new()
    }
}

/// Stores latency samples and extracts exact percentiles.
///
/// ```
/// use pageforge_types::stats::LatencyRecorder;
/// let mut r = LatencyRecorder::new();
/// for v in 1..=100u64 {
///     r.record(v as f64);
/// }
/// assert_eq!(r.percentile(0.95), 95.0);
/// assert_eq!(r.mean(), 50.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
    stats: RunningStats,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            samples: Vec::new(),
            stats: RunningStats::new(),
            sorted: true,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: f64) {
        self.sorted = false;
        self.samples.push(latency);
        self.stats.push(latency);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean of all samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Exact percentile `p` in `[0, 1]` (nearest-rank method); 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            self.sorted = true;
        }
        let rank = ((p * self.samples.len() as f64).ceil() as usize).max(1);
        self.samples[rank - 1]
    }

    /// The streaming statistics over all samples.
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.sorted = false;
        self.samples.extend_from_slice(&other.samples);
        self.stats.merge(&other.stats);
    }
}

impl ToJson for LatencyRecorder {
    fn to_json(&self) -> Value {
        obj([
            ("samples", self.samples.to_json()),
            ("stats", self.stats.to_json()),
            ("sorted", self.sorted.to_json()),
        ])
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_new() {
        assert_eq!(RunningStats::default(), RunningStats::new());
        assert_eq!(LatencyRecorder::default(), LatencyRecorder::new());
        let mut s = RunningStats::default();
        s.push(3.0);
        assert_eq!((s.min(), s.max()), (3.0, 3.0));
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_stddev(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.population_stddev(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * i) as f64).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_stddev() - all.population_stddev()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            r.record(v);
        }
        assert_eq!(r.percentile(0.25), 10.0);
        assert_eq!(r.percentile(0.5), 20.0);
        assert_eq!(r.percentile(0.95), 40.0);
        assert_eq!(r.percentile(1.0), 40.0);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.percentile(0.95), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_out_of_range_panics() {
        let mut r = LatencyRecorder::new();
        r.record(1.0);
        let _ = r.percentile(1.5);
    }

    #[test]
    fn recorder_merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.percentile(1.0), 3.0);
    }

    #[test]
    fn record_after_percentile_stays_correct() {
        let mut r = LatencyRecorder::new();
        r.record(5.0);
        assert_eq!(r.percentile(1.0), 5.0);
        r.record(1.0);
        assert_eq!(r.percentile(0.5), 1.0);
        assert_eq!(r.percentile(1.0), 5.0);
    }
}
