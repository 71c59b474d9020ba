//! Simulation configuration: Table 2's architecture plus the experiment
//! knobs.

use pageforge_cache::HierarchyConfig;
use pageforge_core::PageForgeConfig;
use pageforge_faults::FaultPlan;
use pageforge_ksm::KsmConfig;
use pageforge_mem::MemorySystemConfig;
use pageforge_types::Cycle;
use pageforge_vm::AppProfile;
use pageforge_workloads::apps::{AppSpec, CPU_HZ, TIME_SCALE};

/// Which same-page-merging machinery runs (§5.3's three configurations).
#[derive(Debug, Clone, PartialEq)]
pub enum DedupMode {
    /// Baseline: no page merging.
    None,
    /// RedHat's KSM in software.
    Ksm(KsmConfig),
    /// The PageForge hardware.
    PageForge(PageForgeConfig),
}

impl DedupMode {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DedupMode::None => "Baseline",
            DedupMode::Ksm(_) => "KSM",
            DedupMode::PageForge(_) => "PageForge",
        }
    }
}

/// Full experiment configuration.
///
/// [`SimConfig::micro50`] is the paper's Table 2 machine;
/// [`SimConfig::quick`] is the down-scaled variant the test suite and
/// `--quick` bench runs use.
///
/// ```
/// use pageforge_sim::{DedupMode, SimConfig};
///
/// let cfg = SimConfig::micro50("silo", DedupMode::None, 0xC0FFEE);
/// assert_eq!(cfg.cores, 10);          // Table 2: 10 cores, one VM each
/// assert_eq!(cfg.mem.controllers, 2); // Figure 5: two memory controllers
///
/// let quick = SimConfig::quick("silo", DedupMode::None, 1);
/// assert_eq!(quick.cores, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cores = VMs (Table 2: 10, one VM pinned per core).
    pub cores: usize,
    /// The application(s) the VMs run: VM `i` runs `apps[i % apps.len()]`.
    /// One entry gives the paper's homogeneous-replica scenario (§5.3);
    /// several give a heterogeneous-mix extension.
    pub apps: Vec<AppSpec>,
    /// Memory-content profiles, indexed like `apps`.
    pub profiles: Vec<AppProfile>,
    /// Deduplication configuration.
    pub dedup: DedupMode,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Memory system: controllers + DRAM (Figure 5: two controllers,
    /// PageForge in one of them).
    pub mem: MemorySystemConfig,
    /// Warm-up window (stats reset at its end).
    pub warmup_cycles: Cycle,
    /// Measurement window (arrivals in it are recorded).
    pub measure_cycles: Cycle,
    /// Content-churn period (0 disables churn).
    pub churn_interval: Cycle,
    /// Number of PageForge modules (§4.1 discusses one per memory
    /// controller vs a single module; the paper chooses 1). Hints are
    /// partitioned round-robin across modules.
    pub pf_modules: usize,
    /// Work intervals the KSM kernel task stays on one core before the
    /// scheduler migrates it. The paper observes the migrating daemon
    /// loading its current host heavily (Table 4: 33% of the max core vs
    /// 6.8% average), which requires sticky placement over many intervals.
    pub ksm_sticky_intervals: u32,
    /// Fault-injection plan applied to the PageForge engine(s). `None` (or
    /// an empty plan) leaves the no-fault hot path untouched; ignored for
    /// Baseline and KSM modes, which have no engine to fault.
    pub faults: Option<FaultPlan>,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's configuration (Table 2) for one application, with all
    /// time constants consistently scaled by [`TIME_SCALE`]:
    /// `sleep_millisecs` 5 ms → 100 k cycles, `pages_to_scan` 400 → 56
    /// (the per-interval *duty cycle* of the daemon is what scaling must
    /// preserve), and the KSM task stays 32 work intervals on a core.
    pub fn micro50(app_name: &str, dedup: DedupMode, seed: u64) -> SimConfig {
        let app = AppSpec::by_name(app_name)
            .unwrap_or_else(|| panic!("unknown TailBench app {app_name}"));
        // 8192 pages (32 MB) per VM: the VMs' hot+cold working sets then
        // exceed the 32 MB L3, keeping the paper's capacity-miss regime
        // (Table 4: ~34% baseline L3 miss rate) under down-scaled memory.
        let profile = AppProfile::tailbench_suite_scaled(8192)
            .into_iter()
            .find(|p| p.name == app_name)
            .expect("suite covers all apps");
        SimConfig {
            cores: 10,
            apps: vec![app],
            profiles: vec![profile],
            dedup,
            hierarchy: HierarchyConfig::micro50(10),
            mem: MemorySystemConfig::micro50(),
            warmup_cycles: 40_000_000,
            measure_cycles: 400_000_000,
            churn_interval: 20_000_000,
            pf_modules: 1,
            ksm_sticky_intervals: 32,
            faults: None,
            seed,
        }
    }

    /// The scaled KSM parameters: `pages_to_scan` 400 → 56 so the daemon's
    /// per-interval duty cycle (the quantity that determines interference)
    /// is preserved under TIME_SCALE.
    pub fn scaled_ksm() -> KsmConfig {
        KsmConfig {
            pages_to_scan: 56,
            sleep_millisecs: 5, // interpreted through sleep_cycles()
            ..KsmConfig::default()
        }
    }

    /// The scaled PageForge parameters (same knobs as KSM, §5.3).
    pub fn scaled_pageforge() -> PageForgeConfig {
        PageForgeConfig {
            pages_to_scan: 56,
            sleep_millisecs: 5,
            ..PageForgeConfig::default()
        }
    }

    /// A down-scaled configuration for fast tests: 4 cores, small memory
    /// images, short windows.
    pub fn quick(app_name: &str, dedup: DedupMode, seed: u64) -> SimConfig {
        let mut cfg = Self::micro50(app_name, dedup, seed);
        cfg.cores = 4;
        cfg.hierarchy = HierarchyConfig::micro50(4);
        // Keep the paper's regime: total VM footprint exceeds the L3, so
        // misses are capacity misses and merging does not shrink the
        // working set below cache size.
        cfg.hierarchy.l3.size_bytes = 1 << 20;
        cfg.hierarchy.l3.ways = 16;
        for p in &mut cfg.profiles {
            p.pages_per_vm = 256;
        }
        cfg.warmup_cycles = 2_000_000;
        cfg.measure_cycles = 20_000_000;
        cfg.churn_interval = 5_000_000;
        cfg.ksm_sticky_intervals = 16;
        // The 4-core quick system needs a proportionally smaller scan
        // quota to stay in the paper's stable-queue regime.
        match &mut cfg.dedup {
            DedupMode::Ksm(k) => k.pages_to_scan = 16,
            DedupMode::PageForge(p) => p.pages_to_scan = 16,
            DedupMode::None => {}
        }
        cfg
    }

    /// An aggressively down-scaled configuration for CI smoke runs: the
    /// whole 15-simulation latency suite finishes in a couple of minutes
    /// on a shared runner. Keeps the quick() cache-pressure regime (VM
    /// footprint > L3) on an even smaller system.
    pub fn smoke(app_name: &str, dedup: DedupMode, seed: u64) -> SimConfig {
        let mut cfg = Self::quick(app_name, dedup, seed);
        cfg.cores = 2;
        cfg.hierarchy = HierarchyConfig::micro50(2);
        cfg.hierarchy.l3.size_bytes = 512 << 10;
        cfg.hierarchy.l3.ways = 16;
        for p in &mut cfg.profiles {
            p.pages_per_vm = 128;
        }
        cfg.warmup_cycles = 1_000_000;
        cfg.measure_cycles = 8_000_000;
        cfg.churn_interval = 2_000_000;
        cfg.ksm_sticky_intervals = 8;
        match &mut cfg.dedup {
            DedupMode::Ksm(k) => k.pages_to_scan = 8,
            DedupMode::PageForge(p) => p.pages_to_scan = 8,
            DedupMode::None => {}
        }
        cfg
    }

    /// A heterogeneous mix: VM `i` runs `app_names[i % len]`. Everything
    /// else follows [`micro50`](Self::micro50). The generated VM images
    /// still share their full-span library groups (same guest OS), so
    /// cross-application merging opportunities remain, just fewer of them.
    pub fn heterogeneous(app_names: &[&str], dedup: DedupMode, seed: u64) -> SimConfig {
        assert!(!app_names.is_empty(), "at least one application required");
        let mut cfg = Self::micro50(app_names[0], dedup, seed);
        cfg.apps = app_names
            .iter()
            .map(|n| AppSpec::by_name(n).unwrap_or_else(|| panic!("unknown TailBench app {n}")))
            .collect();
        cfg.profiles = app_names
            .iter()
            .map(|n| {
                AppProfile::tailbench_suite_scaled(8192)
                    .into_iter()
                    .find(|p| &p.name == n)
                    .expect("suite covers all apps")
            })
            .collect();
        cfg
    }

    /// The application VM/core `i` runs.
    pub fn app_for(&self, core: usize) -> &AppSpec {
        &self.apps[core % self.apps.len()]
    }

    /// The memory profile of VM/core `i`.
    pub fn profile_for(&self, core: usize) -> &AppProfile {
        &self.profiles[core % self.profiles.len()]
    }

    /// Label for results: the app name, or "mixed" for a heterogeneous run.
    pub fn app_label(&self) -> String {
        if self.apps.len() == 1 {
            self.apps[0].name.clone()
        } else {
            "mixed".to_owned()
        }
    }

    /// The dedup sleep interval in scaled cycles.
    pub fn sleep_cycles(&self) -> Cycle {
        let millis = match &self.dedup {
            DedupMode::None => return Cycle::MAX,
            DedupMode::Ksm(k) => k.sleep_millisecs,
            DedupMode::PageForge(p) => p.sleep_millisecs,
        };
        ((millis as f64 / 1000.0) * CPU_HZ / TIME_SCALE) as Cycle
    }

    /// Simulation horizon (warm-up + measurement).
    pub fn horizon(&self) -> Cycle {
        self.warmup_cycles + self.measure_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_types::DEFAULT_SEED;

    #[test]
    fn micro50_defaults() {
        let cfg = SimConfig::micro50(
            "silo",
            DedupMode::Ksm(SimConfig::scaled_ksm()),
            DEFAULT_SEED,
        );
        assert_eq!(cfg.cores, 10);
        assert_eq!(cfg.app_for(0).name, "silo");
        assert_eq!(cfg.profile_for(3).name, "silo");
        // 5 ms / 100 at 2 GHz = 100k cycles.
        assert_eq!(cfg.sleep_cycles(), 100_000);
    }

    #[test]
    fn baseline_never_wakes() {
        let cfg = SimConfig::micro50("moses", DedupMode::None, 1);
        assert_eq!(cfg.sleep_cycles(), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "unknown TailBench app")]
    fn unknown_app_panics() {
        let _ = SimConfig::micro50("quake", DedupMode::None, 1);
    }

    #[test]
    fn quick_is_smaller() {
        let q = SimConfig::quick("silo", DedupMode::None, 1);
        let full = SimConfig::micro50("silo", DedupMode::None, 1);
        assert!(q.cores < full.cores);
        assert!(q.measure_cycles < full.measure_cycles);
        assert!(q.horizon() == q.warmup_cycles + q.measure_cycles);
    }

    #[test]
    fn smoke_is_smaller_than_quick() {
        let s = SimConfig::smoke("silo", DedupMode::Ksm(SimConfig::scaled_ksm()), 1);
        let q = SimConfig::quick("silo", DedupMode::Ksm(SimConfig::scaled_ksm()), 1);
        assert!(s.cores < q.cores);
        assert!(s.measure_cycles < q.measure_cycles);
        assert!(s.profiles[0].pages_per_vm < q.profiles[0].pages_per_vm);
        match (&s.dedup, &q.dedup) {
            (DedupMode::Ksm(sk), DedupMode::Ksm(qk)) => {
                assert!(sk.pages_to_scan < qk.pages_to_scan);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn labels() {
        assert_eq!(DedupMode::None.label(), "Baseline");
        assert_eq!(DedupMode::Ksm(SimConfig::scaled_ksm()).label(), "KSM");
        assert_eq!(
            DedupMode::PageForge(SimConfig::scaled_pageforge()).label(),
            "PageForge"
        );
    }
}
