//! Simulation results: everything the paper's figures and tables read off.

use pageforge_types::json::{obj, ToJson, Value};
use pageforge_types::stats::LatencyRecorder;
use pageforge_types::Cycle;
use pageforge_vm::MemoryStats;

/// Summary of the deduplication machinery's behaviour during the
/// measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DedupSummary {
    /// Pages merged during the whole run (including pre-merge).
    pub merged_total: u64,
    /// Fraction of each core's measured cycles consumed by the dedup task,
    /// averaged across cores (Table 4's "Avg KSM Process / Total").
    pub core_cycles_frac_avg: f64,
    /// The maximum per-core fraction (Table 4's "Max").
    pub core_cycles_frac_max: f64,
    /// Fraction of dedup CPU cycles spent on page comparison (Table 4).
    pub compare_frac: f64,
    /// Fraction spent on hash-key generation (Table 4).
    pub hash_frac: f64,
    /// Mean cycles per Scan Table batch (Table 5; PageForge only).
    pub engine_run_cycles_mean: f64,
    /// Standard deviation of the above (Table 5).
    pub engine_run_cycles_std: f64,
    /// Lines fetched by the PageForge engine (bandwidth accounting).
    pub engine_lines_fetched: u64,
}

/// Degraded-mode accounting under fault injection (PageForge only): how
/// often the driver abandoned the hardware engine and fell back to the
/// software KSM path. All zeros — and absent from the JSON — on a fault-free
/// run, keeping results byte-identical with builds that never load a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedSummary {
    /// Candidates processed by the software fallback path.
    pub degraded_candidates: u64,
    /// Engine-stall retries (deterministic exponential backoff).
    pub stall_retries: u64,
    /// Engine errors (corrupted PPNs, diverged Scan Table walks).
    pub engine_errors: u64,
    /// Hardware duplicate/continuation reports rejected by cross-checks.
    pub cross_check_skips: u64,
}

impl DegradedSummary {
    /// True when no degradation of any kind occurred.
    pub fn is_zero(&self) -> bool {
        *self == DegradedSummary::default()
    }
}

/// The outcome of one full-system simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Configuration label ("Baseline" / "KSM" / "PageForge").
    pub label: String,
    /// Application name.
    pub app: String,
    /// Per-VM sojourn-latency recorders (cycles).
    pub per_vm_latency: Vec<LatencyRecorder>,
    /// Queries completed in the measurement window.
    pub queries_completed: u64,
    /// Shared-L3 miss rate over the measurement window.
    pub l3_miss_rate: f64,
    /// Mean DRAM bandwidth over the measurement window, GB/s.
    pub bandwidth_mean_gbps: f64,
    /// Peak-window DRAM bandwidth, GB/s (Figure 11's reporting point).
    pub bandwidth_peak_gbps: f64,
    /// Final memory state (frames, merges, CoW breaks).
    pub mem_stats: MemoryStats,
    /// Dedup summary (None for Baseline).
    pub dedup: Option<DedupSummary>,
    /// Degraded-mode summary; `None` unless fault injection actually
    /// degraded something (so fault-free JSON stays byte-identical).
    pub degraded: Option<DegradedSummary>,
    /// Length of the measurement window in cycles.
    pub window_cycles: Cycle,
}

impl SimResult {
    /// Mean sojourn latency: geometric mean of the per-VM means, as the
    /// paper reports ("each bar shows the geometric mean across the ten
    /// VMs", §6.3).
    pub fn mean_sojourn(&self) -> f64 {
        geomean(self.per_vm_latency.iter().filter_map(|r| {
            if r.count() == 0 {
                None
            } else {
                Some(r.mean())
            }
        }))
    }

    /// 95th-percentile (tail) latency: geometric mean of the per-VM p95s.
    pub fn p95_sojourn(&mut self) -> f64 {
        let values: Vec<f64> = self
            .per_vm_latency
            .iter_mut()
            .filter(|r| r.count() > 0)
            .map(|r| r.percentile(0.95))
            .collect();
        geomean(values.into_iter())
    }

    /// Total recorded queries across VMs.
    pub fn total_samples(&self) -> usize {
        self.per_vm_latency.iter().map(|r| r.count()).sum()
    }
}

impl ToJson for DedupSummary {
    fn to_json(&self) -> Value {
        obj([
            ("merged_total", self.merged_total.to_json()),
            ("core_cycles_frac_avg", self.core_cycles_frac_avg.to_json()),
            ("core_cycles_frac_max", self.core_cycles_frac_max.to_json()),
            ("compare_frac", self.compare_frac.to_json()),
            ("hash_frac", self.hash_frac.to_json()),
            (
                "engine_run_cycles_mean",
                self.engine_run_cycles_mean.to_json(),
            ),
            (
                "engine_run_cycles_std",
                self.engine_run_cycles_std.to_json(),
            ),
            ("engine_lines_fetched", self.engine_lines_fetched.to_json()),
        ])
    }
}

impl ToJson for DegradedSummary {
    fn to_json(&self) -> Value {
        obj([
            ("degraded_candidates", self.degraded_candidates.to_json()),
            ("stall_retries", self.stall_retries.to_json()),
            ("engine_errors", self.engine_errors.to_json()),
            ("cross_check_skips", self.cross_check_skips.to_json()),
        ])
    }
}

impl ToJson for SimResult {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("label", self.label.to_json()),
            ("app", self.app.to_json()),
            ("per_vm_latency", self.per_vm_latency.to_json()),
            ("queries_completed", self.queries_completed.to_json()),
            ("l3_miss_rate", self.l3_miss_rate.to_json()),
            ("bandwidth_mean_gbps", self.bandwidth_mean_gbps.to_json()),
            ("bandwidth_peak_gbps", self.bandwidth_peak_gbps.to_json()),
            ("mem_stats", self.mem_stats.to_json()),
            ("dedup", self.dedup.to_json()),
        ];
        // Emitted only when degradation happened: fault-free runs keep the
        // frozen JSON shape (determinism CI compares bytes).
        if let Some(d) = &self.degraded {
            fields.push(("degraded", d.to_json()));
        }
        fields.push(("window_cycles", self.window_cycles.to_json()));
        obj(fields)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(latencies: Vec<Vec<f64>>) -> SimResult {
        let per_vm = latencies
            .into_iter()
            .map(|vs| {
                let mut r = LatencyRecorder::new();
                for v in vs {
                    r.record(v);
                }
                r
            })
            .collect();
        SimResult {
            label: "test".into(),
            app: "test".into(),
            per_vm_latency: per_vm,
            queries_completed: 0,
            l3_miss_rate: 0.0,
            bandwidth_mean_gbps: 0.0,
            bandwidth_peak_gbps: 0.0,
            mem_stats: MemoryStats::default(),
            dedup: None,
            degraded: None,
            window_cycles: 0,
        }
    }

    #[test]
    fn geomean_of_identical_vms() {
        let r = result_with(vec![vec![100.0; 10], vec![100.0; 10]]);
        assert!((r.mean_sojourn() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_mixes_multiplicatively() {
        let r = result_with(vec![vec![100.0], vec![400.0]]);
        assert!((r.mean_sojourn() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_vms_are_skipped() {
        let r = result_with(vec![vec![50.0], vec![]]);
        assert!((r.mean_sojourn() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn p95_uses_per_vm_tails() {
        let mut r = result_with(vec![(1..=100).map(f64::from).collect()]);
        assert!((r.p95_sojourn() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn no_samples_is_zero() {
        let mut r = result_with(vec![vec![], vec![]]);
        assert_eq!(r.mean_sojourn(), 0.0);
        assert_eq!(r.p95_sojourn(), 0.0);
        assert_eq!(r.total_samples(), 0);
    }
}
