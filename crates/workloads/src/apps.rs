//! Per-application specifications (Table 3 + §5.2's app descriptions).

use pageforge_types::Cycle;

/// Factor by which wall-clock time is compressed relative to the paper's
/// runs: QPS is multiplied and query lengths divided by this factor, so
/// utilization and queueing shape are preserved while experiments finish
/// in seconds.
pub const TIME_SCALE: f64 = 100.0;

/// Simulated core clock in Hz (Table 2: 2 GHz).
pub const CPU_HZ: f64 = 2.0e9;

/// One TailBench application's load and service model.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Offered load in queries/second *of paper time* (Table 3). The
    /// arrival process applies [`TIME_SCALE`].
    pub qps: f64,
    /// Mean service demand in cycles *after scaling* (pure CPU + memory
    /// work of one query on an unloaded system).
    pub mean_service_cycles: Cycle,
    /// Coefficient of variation of the service demand (log-normal).
    pub service_cv: f64,
    /// Cache-line touches per 1,000 cycles of service demand.
    pub accesses_per_kilocycle: f64,
    /// Pages of the VM's memory a query may touch.
    pub working_set_pages: usize,
    /// Fraction of the working set that is hot.
    pub hot_frac: f64,
    /// Fraction of accesses that go to the hot set.
    pub hot_access_frac: f64,
    /// Fraction of accesses that are writes.
    pub write_frac: f64,
}

impl AppSpec {
    /// Mean interarrival time in (scaled) cycles.
    pub fn interarrival_cycles(&self) -> f64 {
        let scaled_qps = self.qps * TIME_SCALE;
        CPU_HZ / scaled_qps
    }

    /// The five TailBench applications with the paper's QPS (Table 3) and
    /// query granularities preserved under scaling.
    ///
    /// Paper-time mean service demands are chosen for ≈0.3 offered
    /// utilization (≈0.35–0.45 effective once memory stalls are added):
    /// the regime in which a ~⅔-duty KSM daemon parked on a core degrades
    /// that core badly without rendering its queue unstable, which is what
    /// Figures 9/10's 1.7×-mean / 2.4×-tail combination implies. The
    /// second-vs-millisecond query-granularity gap of §6.3 (sphinx vs
    /// silo/moses) is preserved under the 100× time scaling.
    pub fn tailbench_suite() -> Vec<AppSpec> {
        vec![
            AppSpec {
                name: "img_dnn".into(),
                qps: 500.0,
                mean_service_cycles: 12_000, // 0.6 ms paper-time
                service_cv: 0.6,
                accesses_per_kilocycle: 12.0,
                working_set_pages: 1200,
                hot_frac: 0.15,
                hot_access_frac: 0.8,
                write_frac: 0.25,
            },
            AppSpec {
                name: "masstree".into(),
                qps: 500.0,
                mean_service_cycles: 11_000, // 0.55 ms paper-time
                service_cv: 0.5,
                accesses_per_kilocycle: 18.0, // pointer-chasing key-value store
                working_set_pages: 1600,
                hot_frac: 0.1,
                hot_access_frac: 0.7,
                write_frac: 0.35,
            },
            AppSpec {
                name: "moses".into(),
                qps: 100.0,
                mean_service_cycles: 60_000, // 3 ms paper-time
                service_cv: 0.7,
                accesses_per_kilocycle: 10.0,
                working_set_pages: 1800,
                hot_frac: 0.2,
                hot_access_frac: 0.75,
                write_frac: 0.2,
            },
            AppSpec {
                name: "silo".into(),
                qps: 2000.0,
                mean_service_cycles: 3_000, // 0.15 ms paper-time
                service_cv: 0.5,
                accesses_per_kilocycle: 15.0, // OLTP transactions
                working_set_pages: 1400,
                hot_frac: 0.1,
                hot_access_frac: 0.8,
                write_frac: 0.4,
            },
            AppSpec {
                name: "sphinx".into(),
                qps: 1.0,
                mean_service_cycles: 5_400_000, // 0.27 s paper-time
                service_cv: 0.4,
                accesses_per_kilocycle: 8.0,
                working_set_pages: 1600,
                hot_frac: 0.25,
                hot_access_frac: 0.7,
                write_frac: 0.15,
            },
        ]
    }

    /// Looks up a suite member by name.
    pub fn by_name(name: &str) -> Option<AppSpec> {
        Self::tailbench_suite().into_iter().find(|a| a.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table3_qps() {
        let suite = AppSpec::tailbench_suite();
        let qps: Vec<(String, f64)> = suite.iter().map(|a| (a.name.clone(), a.qps)).collect();
        assert_eq!(
            qps,
            vec![
                ("img_dnn".to_string(), 500.0),
                ("masstree".to_string(), 500.0),
                ("moses".to_string(), 100.0),
                ("silo".to_string(), 2000.0),
                ("sphinx".to_string(), 1.0),
            ]
        );
    }

    #[test]
    fn all_apps_are_stable_queues() {
        for app in AppSpec::tailbench_suite() {
            let u = app.mean_service_cycles as f64 / app.interarrival_cycles();
            assert!(
                u > 0.2 && u < 0.45,
                "{}: baseline utilization {u} outside the paper's regime",
                app.name
            );
        }
    }

    #[test]
    fn sphinx_queries_dwarf_silo_queries() {
        let sphinx = AppSpec::by_name("sphinx").unwrap();
        let silo = AppSpec::by_name("silo").unwrap();
        // §6.3: "Sphinx queries have second-level granularity, while Moses
        // queries have millisecond-level granularity."
        assert!(sphinx.mean_service_cycles > 1000 * silo.mean_service_cycles);
    }

    #[test]
    fn interarrival_scales_with_qps() {
        let silo = AppSpec::by_name("silo").unwrap();
        // 2000 qps × 100 scale = 200k qps at 2 GHz → 10k cycles.
        assert!((silo.interarrival_cycles() - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn by_name_misses_unknown() {
        assert!(AppSpec::by_name("doom").is_none());
    }

    #[test]
    fn accesses_per_query_positive() {
        for app in AppSpec::tailbench_suite() {
            let accesses = app.mean_service_cycles as f64 / 1000.0 * app.accesses_per_kilocycle;
            assert!(accesses >= 10.0, "{}", app.name);
        }
    }
}
