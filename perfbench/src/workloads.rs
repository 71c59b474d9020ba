//! The benchmark's workloads: which simulations it times, at what size,
//! and what a correct result of each must satisfy.

use pageforge_sim::{DedupMode, SimConfig, SimResult};

/// One benchmark workload: a full-system simulation cell.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// VM `i` runs `apps[i % apps.len()]`.
    pub apps: &'static [&'static str],
    /// The dedup engine: premerge during setup, scans during the run.
    pub mode: fn() -> DedupMode,
}

pub fn no_dedup() -> DedupMode {
    DedupMode::None
}

pub fn ksm() -> DedupMode {
    DedupMode::Ksm(SimConfig::scaled_ksm())
}

pub fn pageforge() -> DedupMode {
    DedupMode::PageForge(SimConfig::scaled_pageforge())
}

/// Every workload, in the order `BENCHMARK.json` lists them. Why each one
/// is here is recorded there and in the README.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pf-silo",
        apps: &["silo"],
        mode: pageforge,
    },
    Workload {
        name: "ksm-silo",
        apps: &["silo"],
        mode: ksm,
    },
    Workload {
        name: "base-masstree",
        apps: &["masstree"],
        mode: no_dedup,
    },
    Workload {
        name: "pf-mixed",
        apps: &["img_dnn", "masstree", "moses", "silo", "sphinx"],
        mode: pageforge,
    },
];

/// How big a simulation the workloads build. Both sizes are ones the
/// experiments already run, so the benchmark times traffic the simulator
/// serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size: the `--quick` latency-suite cell
    /// (`SimConfig::quick`), and for the mix the configuration of the
    /// `extension_heterogeneous` experiment at quick and full scale.
    Quick,
    /// The `--smoke` sizes of the same two: for checking the wiring,
    /// never a number.
    Smoke,
}

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The simulation this workload times, generated from `seed`.
    pub fn config(&self, seed: u64, scale: Scale) -> SimConfig {
        self.config_with((self.mode)(), seed, scale)
    }

    /// The same cell with another dedup engine.
    pub fn config_with(&self, mode: DedupMode, seed: u64, scale: Scale) -> SimConfig {
        match (self.apps, scale) {
            ([app], Scale::Quick) => SimConfig::quick(app, mode, seed),
            ([app], Scale::Smoke) => SimConfig::smoke(app, mode, seed),
            (apps, scale) => mix_config(apps, mode, seed, scale == Scale::Smoke),
        }
    }
}

/// The cell `extension_heterogeneous` (`crates/bench/src/experiments.rs`)
/// builds for each of its rows. It has no constructor of its own, so this
/// repeats its settings; a self-test checks the result against the
/// experiment's committed row.
fn mix_config(apps: &[&str], mode: DedupMode, seed: u64, smoke: bool) -> SimConfig {
    let mut cfg = SimConfig::heterogeneous(apps, mode, seed);
    cfg.cores = 5;
    cfg.hierarchy = pageforge_cache::HierarchyConfig::micro50(5);
    cfg.hierarchy.l3.size_bytes = 2 << 20;
    for p in &mut cfg.profiles {
        p.pages_per_vm = if smoke { 192 } else { 512 };
    }
    cfg.warmup_cycles = if smoke { 1_000_000 } else { 4_000_000 };
    cfg.measure_cycles = if smoke { 10_000_000 } else { 60_000_000 };
    match &mut cfg.dedup {
        DedupMode::Ksm(k) => k.pages_to_scan = if smoke { 8 } else { 16 },
        DedupMode::PageForge(p) => p.pages_to_scan = if smoke { 8 } else { 16 },
        DedupMode::None => {}
    }
    cfg
}

/// Checks the laws every result of `cfg` must obey, whatever the seed.
pub fn check_result(cfg: &SimConfig, r: &SimResult) -> Result<(), String> {
    let m = &r.mem_stats;
    let pages: usize = (0..cfg.cores)
        .map(|c| cfg.profile_for(c).pages_per_vm)
        .sum();
    let mut errors = Vec::new();
    // Nothing is ever unmapped in a simulation: every guest page stays.
    if m.mapped_guest_pages != pages {
        errors.push(format!(
            "{} guest pages mapped, {pages} generated",
            m.mapped_guest_pages
        ));
    }
    // Frame conservation: one frame per generated page, minus one per
    // merge, plus at most one per copy-on-write break (a break by a
    // frame's last mapper frees the frame it copies).
    if m.merges != m.frames_freed_by_merge {
        errors.push(format!(
            "{} merges freed {} frames",
            m.merges, m.frames_freed_by_merge
        ));
    }
    match (pages as u64).checked_sub(m.frames_freed_by_merge) {
        Some(lo) if (lo..=lo + m.cow_breaks).contains(&(m.allocated_frames as u64)) => {}
        lo => errors.push(format!(
            "{} frames allocated, conservation allows {lo:?} + up to {} breaks",
            m.allocated_frames, m.cow_breaks
        )),
    }
    if r.queries_completed == 0 || r.total_samples() == 0 {
        errors.push("no query completed".into());
    }
    if r.window_cycles != cfg.measure_cycles {
        errors.push(format!(
            "window of {} cycles, configured {}",
            r.window_cycles, cfg.measure_cycles
        ));
    }
    let dedup = !matches!(cfg.dedup, DedupMode::None);
    if r.dedup.is_some() != dedup || (dedup && m.merges == 0) {
        errors.push(format!(
            "dedup summary {:?} with {} merges under {}",
            r.dedup.is_some(),
            m.merges,
            cfg.dedup.label()
        ));
    }
    if r.degraded.is_some() {
        errors.push("engine degraded without a fault plan".into());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_sim::System;
    use pageforge_types::json::{self, Value};

    #[test]
    fn single_app_workloads_are_the_quick_suite_cells() {
        for w in WORKLOADS.iter().filter(|w| w.apps.len() == 1) {
            let app = w.apps[0];
            assert_eq!(
                w.config(3, Scale::Quick),
                SimConfig::quick(app, (w.mode)(), 3)
            );
            assert_eq!(
                w.config(3, Scale::Smoke),
                SimConfig::smoke(app, (w.mode)(), 3)
            );
        }
        assert!(by_name("fleet-d16").is_none());
        assert_eq!(by_name("pf-mixed").map(|w| w.apps.len()), Some(5));
    }

    /// `pf-mixed` at the reference seed reproduces the PageForge row of
    /// the committed `extension_heterogeneous` result, so `mix_config`
    /// is the experiment's cell.
    #[test]
    fn mixed_workload_reproduces_the_committed_experiment_row() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results/extension_heterogeneous.json"
        );
        let text = std::fs::read_to_string(path).expect("committed result");
        let table = json::parse(&text).expect("result parses");
        let row: Vec<&str> = table
            .get("rows")
            .and_then(Value::as_array)
            .expect("rows")
            .iter()
            .filter_map(Value::as_array)
            .find(|r| r.first().and_then(Value::as_str) == Some("PageForge"))
            .expect("a PageForge row")
            .iter()
            .filter_map(Value::as_str)
            .collect();

        let w = by_name("pf-mixed").expect("known");
        let r = System::new(w.config(0xC0FFEE, Scale::Quick)).run();
        let m = &r.mem_stats;
        assert_eq!(row[3], m.allocated_frames.to_string());
        assert_eq!(row[4], format!("{:.1}%", m.savings_fraction() * 100.0));
    }

    #[test]
    fn smoke_results_obey_the_laws_and_broken_ones_do_not() {
        let w = by_name("pf-silo").expect("known workload");
        let cfg = w.config(5, Scale::Smoke);
        let good = System::new(cfg.clone()).run();
        check_result(&cfg, &good).expect("a real run obeys every law");

        let mut leak = good.clone();
        let m = &mut leak.mem_stats;
        m.allocated_frames = m.mapped_guest_pages + m.cow_breaks as usize + 1;
        let err = check_result(&cfg, &leak).expect_err("a leaked frame breaks conservation");
        assert!(err.contains("conservation"), "{err}");

        let mut idle = good;
        idle.dedup = None;
        assert!(check_result(&cfg, &idle).is_err());
    }
}
