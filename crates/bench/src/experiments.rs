//! The experiment drivers behind every `run_all` experiment.
//!
//! Everything here is deterministic given the seed. The functions return
//! [`Table`]s, or per-unit cells the suite folds into tables. Each
//! experiment that simulates the whole system is split in two: the
//! [`Cell`]s it reads, and a table builder over their results. `run_all`
//! prints the tables and drops JSON copies under `results/`.

use pageforge_core::fabric::FlatFabric;
use pageforge_core::{EngineConfig, PageForge, PageForgeConfig, PowerModel, OS_CHECK_INTERVAL};
use pageforge_ecc::EccKeyConfig;
use pageforge_faults::{FaultInjector, FaultPlan, FleetFaultPlan};
use pageforge_fleet::{ControlPlane, FleetConfig, FleetResult};
use pageforge_ksm::{Ksm, KsmConfig};
use pageforge_obs::Registry;
use pageforge_sim::{DedupMode, SimConfig, SimResult, System};
use pageforge_types::stats::RunningStats;
use pageforge_types::{Cycle, Gfn, PageData, VmId};
use pageforge_vm::{AppProfile, HostMemory};
use pageforge_workloads::apps::AppSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{pct, ratio, Table};

/// The applications of Table 3, in the paper's order.
pub const APPS: [&str; 5] = ["img_dnn", "masstree", "moses", "silo", "sphinx"];

/// VMs per experiment (Table 2).
pub const N_VMS: u32 = 10;

/// How much of the evaluation to run. Every experiment is parameterized
/// by this single knob so `run_all`, the tests, and CI all agree on what
/// "quick" and "smoke" mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-faithful down-scaled run (tens of minutes).
    Full,
    /// `--quick`: about a minute end to end.
    Quick,
    /// `--smoke`: CI-sized — the complete pipeline in a couple of
    /// minutes on a shared runner.
    Smoke,
}

impl Scale {
    /// Resolves the `--quick` / `--smoke` flags (smoke wins).
    pub fn from_flags(quick: bool, smoke: bool) -> Scale {
        if smoke {
            Scale::Smoke
        } else if quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Pages per VM for the memory-image experiments (Figures 7/8,
    /// Table 5, ablations). The paper's VMs have 131,072 pages (512 MB);
    /// the full scale defaults to 2,048 (8 MB) so content statistics stay
    /// faithful while experiments remain laptop-sized.
    pub fn pages_per_vm(self) -> usize {
        match self {
            Scale::Full => 2048,
            Scale::Quick => 256,
            Scale::Smoke => 128,
        }
    }

    /// VMs per experiment for the memory-image experiments.
    pub fn n_vms(self) -> u32 {
        match self {
            Scale::Full | Scale::Quick => N_VMS,
            Scale::Smoke => 4,
        }
    }

    /// Churn/steady-state rounds for the Figure 8 measurement.
    pub fn fig8_rounds(self) -> usize {
        match self {
            Scale::Full => 6,
            Scale::Quick => 3,
            Scale::Smoke => 2,
        }
    }

    /// Builds the full-system configuration for one (app, mode) cell.
    pub fn sim_config(self, app: &str, mode: DedupMode, seed: u64) -> SimConfig {
        match self {
            Scale::Full => SimConfig::micro50(app, mode, seed),
            Scale::Quick => SimConfig::quick(app, mode, seed),
            Scale::Smoke => SimConfig::smoke(app, mode, seed),
        }
    }

    /// The scale for experiments that always run on a reduced system
    /// (e.g. the module-count ablation): never bigger than quick.
    pub fn at_most_quick(self) -> Scale {
        match self {
            Scale::Full | Scale::Quick => Scale::Quick,
            Scale::Smoke => Scale::Smoke,
        }
    }

    /// Function densities (target concurrent micro-VMs per host) the
    /// fleet experiment sweeps. At full scale every density yields well
    /// over the 1,000-arrival floor of the acceptance criteria.
    pub fn fleet_densities(self) -> [u32; 3] {
        match self {
            Scale::Full => [4, 8, 16],
            Scale::Quick | Scale::Smoke => [2, 4, 8],
        }
    }

    /// The base fleet configuration at this scale (before density/hints
    /// are applied).
    pub fn fleet_config(self, seed: u64) -> FleetConfig {
        match self {
            Scale::Full => FleetConfig::full(seed),
            Scale::Quick => FleetConfig::quick(seed),
            Scale::Smoke => FleetConfig::smoke(seed),
        }
    }
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// Table 3: applications and offered load.
pub fn table3() -> Table {
    let mut t = Table::new("Table 3: Applications executed", &["Application", "QPS"]);
    for app in AppSpec::tailbench_suite() {
        t.row(vec![app.name.clone(), format!("{}", app.qps)]);
    }
    t
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// One Figure 7 bar pair.
#[derive(Debug, Clone)]
pub struct MemorySavings {
    /// Application name.
    pub app: String,
    /// Pages without merging (the guest footprint).
    pub without: usize,
    /// Frames with merging at steady state.
    pub with: usize,
    /// Ground-truth unmergeable pages.
    pub unmergeable: usize,
    /// Ground-truth zero pages.
    pub zero: usize,
    /// Ground-truth mergeable non-zero pages.
    pub non_zero: usize,
    /// Frames the non-zero mergeable pages compressed into.
    pub non_zero_after: usize,
}

impl MemorySavings {
    /// Fraction of the footprint saved.
    pub fn savings(&self) -> f64 {
        1.0 - self.with as f64 / self.without as f64
    }
}

/// Runs the Figure 7 experiment for one app profile.
pub fn memory_savings_for(profile: &AppProfile, seed: u64, n_vms: u32) -> MemorySavings {
    let mut mem = HostMemory::new();
    let image = profile.generate(&mut mem, n_vms, seed);
    let without = mem.mapped_guest_pages();
    let counts = image.category_counts();

    let mut ksm = Ksm::new(KsmConfig::default(), image.mergeable_hints());
    ksm.run_to_steady_state(&mut mem, 16);

    let with = mem.allocated_frames();
    // The zero class merges into exactly one frame; whatever else was
    // freed came out of the non-zero mergeable class.
    let zero_after = usize::from(counts.zero > 0);
    let non_zero_after = with - counts.unmergeable - zero_after;
    MemorySavings {
        app: profile.name.clone(),
        without,
        with,
        unmergeable: counts.unmergeable,
        zero: counts.zero,
        non_zero: counts.non_zero,
        non_zero_after,
    }
}

/// Figure 7: memory allocation with and without page merging.
pub fn figure7(seed: u64, scale: Scale) -> (Table, Vec<MemorySavings>) {
    let results: Vec<MemorySavings> = AppProfile::tailbench_suite_scaled(scale.pages_per_vm())
        .iter()
        .map(|p| memory_savings_for(p, seed, scale.n_vms()))
        .collect();
    (figure7_table(&results), results)
}

/// Assembles the Figure 7 table from per-app results (split out so the
/// parallel scheduler can run the apps as independent units).
pub fn figure7_table(results: &[MemorySavings]) -> Table {
    let mut t = Table::new(
        "Figure 7: Memory allocation without and with page merging (pages)",
        &[
            "App",
            "Without",
            "With",
            "Unmergeable",
            "Zero->",
            "NonZero",
            "NonZero->",
            "Savings",
        ],
    );
    for s in results {
        t.row(vec![
            s.app.clone(),
            s.without.to_string(),
            s.with.to_string(),
            s.unmergeable.to_string(),
            format!("{}->{}", s.zero, usize::from(s.zero > 0)),
            s.non_zero.to_string(),
            s.non_zero_after.to_string(),
            pct(s.savings()),
        ]);
    }
    let avg = results.iter().map(MemorySavings::savings).sum::<f64>() / results.len() as f64;
    t.row(vec![
        "average".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        pct(avg),
    ]);
    t
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// Hash-key comparison outcome fractions for one app.
#[derive(Debug, Clone)]
pub struct HashKeyOutcome {
    /// Application name.
    pub app: String,
    /// Fraction of jhash checks that matched.
    pub jhash_match: f64,
    /// Fraction of ECC-key checks that matched.
    pub ecc_match: f64,
    /// Total key checks observed.
    pub checks: u64,
}

/// Runs the Figure 8 experiment: KSM with a shadow ECC key, churn between
/// passes, steady-state key-match fractions.
pub fn hash_keys_for(profile: &AppProfile, seed: u64, rounds: usize, n_vms: u32) -> HashKeyOutcome {
    let mut mem = HostMemory::new();
    let image = profile.generate(&mut mem, n_vms, seed);
    let cfg = KsmConfig {
        shadow_ecc: Some(EccKeyConfig::default()),
        ..KsmConfig::default()
    };
    let mut ksm = Ksm::new(cfg, image.mergeable_hints());
    // Warm up: reach merge steady state.
    ksm.run_to_steady_state(&mut mem, 10);
    let warm = ksm.stats().clone();

    // Measured rounds: churn, then one full pass.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF168);
    for _ in 0..rounds {
        image.churn_step(&mut mem, &profile.churn, &mut rng);
        ksm.run_pass(&mut mem);
    }
    let s = ksm.stats();
    let jhash_checks =
        (s.jhash_matches - warm.jhash_matches) + (s.jhash_mismatches - warm.jhash_mismatches);
    let ecc_checks = (s.ecc_matches - warm.ecc_matches) + (s.ecc_mismatches - warm.ecc_mismatches);
    HashKeyOutcome {
        app: profile.name.clone(),
        jhash_match: (s.jhash_matches - warm.jhash_matches) as f64 / jhash_checks.max(1) as f64,
        ecc_match: (s.ecc_matches - warm.ecc_matches) as f64 / ecc_checks.max(1) as f64,
        checks: jhash_checks,
    }
}

/// Figure 8: outcome of hash-key comparisons, jhash vs ECC keys.
pub fn figure8(seed: u64, scale: Scale) -> (Table, Vec<HashKeyOutcome>) {
    let results: Vec<HashKeyOutcome> = AppProfile::tailbench_suite_scaled(scale.pages_per_vm())
        .iter()
        .map(|p| hash_keys_for(p, seed, scale.fig8_rounds(), scale.n_vms()))
        .collect();
    (figure8_table(&results), results)
}

/// Assembles the Figure 8 table from per-app results.
pub fn figure8_table(results: &[HashKeyOutcome]) -> Table {
    let mut t = Table::new(
        "Figure 8: Outcome of hash key comparisons",
        &[
            "App",
            "jhash match",
            "jhash mismatch",
            "ECC match",
            "ECC mismatch",
            "extra ECC FPs",
        ],
    );
    for o in results {
        t.row(vec![
            o.app.clone(),
            pct(o.jhash_match),
            pct(1.0 - o.jhash_match),
            pct(o.ecc_match),
            pct(1.0 - o.ecc_match),
            pct(o.ecc_match - o.jhash_match),
        ]);
    }
    let delta = results
        .iter()
        .map(|o| o.ecc_match - o.jhash_match)
        .sum::<f64>()
        / results.len() as f64;
    t.row(vec![
        "average".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        pct(delta),
    ]);
    t
}

// ---------------------------------------------------------------------
// The latency suite (Table 4, Figures 9, 10, 11)
// ---------------------------------------------------------------------

/// The three dedup modes of the latency suite, in column order.
pub fn suite_modes() -> [DedupMode; 3] {
    [
        DedupMode::None,
        DedupMode::Ksm(SimConfig::scaled_ksm()),
        DedupMode::PageForge(SimConfig::scaled_pageforge()),
    ]
}

/// One full-system simulation an experiment reads. Its config alone
/// determines its result, so experiments that declare equal configs
/// share one simulation.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scheduler and trace label, e.g. `latency/silo/KSM`.
    pub label: String,
    /// The simulation's complete configuration.
    pub config: SimConfig,
}

/// The config of one (app, mode) latency-suite cell. A fault plan
/// (`--faults`) applies to PageForge cells only: Baseline and KSM cells
/// have no engine to fault.
pub fn latency_config(
    app: &str,
    mode: DedupMode,
    seed: u64,
    scale: Scale,
    plan: Option<&FaultPlan>,
) -> SimConfig {
    let mut cfg = scale.sim_config(app, mode, seed);
    if let (Some(plan), DedupMode::PageForge(_)) = (plan, &cfg.dedup) {
        cfg.faults = Some(plan.clone());
    }
    cfg
}

/// The latency suite's cells: every app under every mode, app-major, so
/// each app's Baseline/KSM/PageForge triple shares its arrival processes
/// and memory images.
pub fn latency_cells(seed: u64, scale: Scale, plan: Option<&FaultPlan>) -> Vec<Cell> {
    APPS.iter()
        .flat_map(|app| {
            suite_modes().map(|mode| Cell {
                label: format!("latency/{app}/{}", mode.label()),
                config: latency_config(app, mode, seed, scale, plan),
            })
        })
        .collect()
}

/// Table 4 and Figures 9–11, as `(file stem, table)` pairs, from the
/// results of [`latency_cells`] in their order.
pub fn latency_tables(results: &mut [SimResult]) -> Vec<(String, Table)> {
    vec![
        ("table4_ksm_characterization".to_owned(), table4(results)),
        ("fig9_mean_latency".to_owned(), figure9(results)),
        ("fig10_tail_latency".to_owned(), figure10(results)),
        ("fig11_bandwidth".to_owned(), figure11(results)),
    ]
}

/// Runs Baseline/KSM/PageForge for one app. The triple shares the seed so
/// arrival processes and memory images are identical across modes.
pub fn run_triple(app: &str, seed: u64, scale: Scale) -> [SimResult; 3] {
    suite_modes().map(|mode| System::new(scale.sim_config(app, mode, seed)).run())
}

/// The cells `run_all --snapshot` reads: silo under KSM and under
/// PageForge, the latency suite's own cells when no fault plan is given.
pub fn probe_cells(seed: u64, scale: Scale) -> Vec<Cell> {
    [
        DedupMode::Ksm(SimConfig::scaled_ksm()),
        DedupMode::PageForge(SimConfig::scaled_pageforge()),
    ]
    .into_iter()
    .map(|mode| Cell {
        label: format!("snapshot/silo/{}", mode.label()),
        config: scale.sim_config("silo", mode, seed),
    })
    .collect()
}

// ---------------------------------------------------------------------
// Seed sweeps
// ---------------------------------------------------------------------

/// The `seed_sweep` experiment's cells: the silo triple once per seed
/// replica. Replica 0 is the run's own seed; the rest are derived.
/// Replicas cap the scale at `--quick` — the sweep multiplies the
/// suite's heaviest cell by the seed count, and seed-to-seed spread is
/// what is being measured, not absolute magnitude.
pub fn seed_sweep_cells(seed: u64, seeds: usize, scale: Scale) -> Vec<Cell> {
    (0..seeds)
        .flat_map(|i| {
            let rep_seed = if i == 0 {
                seed
            } else {
                pageforge_types::derive_seed(seed, &format!("seed_sweep/{i}"))
            };
            suite_modes().map(|mode| Cell {
                label: format!("seed_sweep/{rep_seed:#x}/{}", mode.label()),
                config: scale.at_most_quick().sim_config("silo", mode, rep_seed),
            })
        })
        .collect()
}

/// Folds the results of [`seed_sweep_cells`] into the `seed_sweep`
/// table: each replica's headline metrics, latencies normalized to that
/// seed's own Baseline (the form Figures 9–10 report), as mean ± min/max
/// per metric — the spread column EXPERIMENTS.md quotes next to each
/// paper-vs-measured number.
pub fn seed_sweep_table(results: &mut [SimResult]) -> Table {
    let mut t = Table::new(
        &format!(
            "Seed sweep: silo across {} seeds (× Baseline)",
            results.len() / 3
        ),
        &["Metric", "Mean", "Min", "Max"],
    );
    let names = [
        "KSM mean sojourn",
        "PageForge mean sojourn",
        "KSM p95 sojourn",
        "PageForge p95 sojourn",
        "PageForge memory savings",
    ];
    let mut stats = names.map(|_| RunningStats::new());
    for triple in results.chunks_exact_mut(3) {
        let [base, ksm, pf] = triple else {
            unreachable!("chunks of three")
        };
        let base_mean = base.mean_sojourn();
        let base_p95 = base.p95_sojourn();
        let metrics = [
            ksm.mean_sojourn() / base_mean,
            pf.mean_sojourn() / base_mean,
            ksm.p95_sojourn() / base_p95,
            pf.p95_sojourn() / base_p95,
            pf.mem_stats.savings_fraction(),
        ];
        for (s, value) in stats.iter_mut().zip(metrics) {
            s.push(value);
        }
    }
    for (name, stats) in names.into_iter().zip(&stats) {
        t.row(vec![
            name.to_owned(),
            format!("{:.4}", stats.mean()),
            format!("{:.4}", stats.min()),
            format!("{:.4}", stats.max()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fleet: serverless churn
// ---------------------------------------------------------------------

/// One fleet experiment cell: a full multi-host run at one (function
/// density, hint policy) point.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCell {
    /// Target concurrent micro-VMs per host.
    pub density: u32,
    /// Whether hosts scanned only user-hinted (ground-truth mergeable)
    /// pages.
    pub hinted: bool,
    /// The run's outcome.
    pub result: FleetResult,
}

/// Builds the configuration for one fleet cell. Each cell derives its
/// own seed from the run seed and the cell label, so cells are
/// independent of scheduling order.
pub fn fleet_cell_config(
    density: u32,
    hinted: bool,
    seed: u64,
    scale: Scale,
    plan: Option<&FaultPlan>,
    fleet_plan: Option<&FleetFaultPlan>,
) -> FleetConfig {
    let hints_tag = if hinted { "hinted" } else { "all" };
    let label = format!("fleet d{density} {hints_tag}");
    let mut cfg = scale.fleet_config(pageforge_types::derive_seed(seed, &label));
    cfg.label = label;
    cfg.density = density as f64;
    cfg.user_hints = hinted;
    cfg.faults = plan.cloned();
    cfg.fleet_faults = fleet_plan.cloned();
    cfg
}

/// Runs one fleet cell. Byte-identical at any `--jobs` level.
pub fn fleet_cell(
    density: u32,
    hinted: bool,
    seed: u64,
    scale: Scale,
    plan: Option<&FaultPlan>,
    fleet_plan: Option<&FleetFaultPlan>,
) -> FleetCell {
    let cfg = fleet_cell_config(density, hinted, seed, scale, plan, fleet_plan);
    let (result, _snapshot) = ControlPlane::new(cfg).run();
    FleetCell {
        density,
        hinted,
        result,
    }
}

/// Folds fleet cells into the `fleet_serverless` table: dedup yield vs.
/// function density, migration cost, and per-host queue pressure, one
/// row per (density, hint policy) cell.
pub fn fleet_table(cells: &[FleetCell]) -> Table {
    let hosts = cells.first().map_or(0, |c| c.result.hosts);
    let mut t = Table::new(
        &format!("Fleet: serverless churn across {hosts} hosts — dedup yield vs. function density"),
        &[
            "Density",
            "Hints",
            "Arrivals",
            "Migrations",
            "Migrated pages",
            "Mig. Mcycles",
            "Merged",
            "Savings (mean)",
            "Savings (final)",
            "Queue depth (mean)",
            "Rejected",
            "Retries",
        ],
    );
    for c in cells {
        let r = &c.result;
        t.row(vec![
            format!("{}", c.density),
            if c.hinted { "user" } else { "all" }.to_owned(),
            format!("{}", r.arrivals),
            format!("{}", r.migrations),
            format!("{}", r.migrated_pages),
            format!("{:.2}", r.migration_cycles as f64 / 1e6),
            format!("{}", r.merged_pages),
            pct(r.savings_mean),
            pct(r.savings_final),
            format!("{:.2}", r.queue_depth_mean),
            format!("{}", r.queue_rejected),
            format!("{}", r.lease_retries),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fleet chaos: the availability campaign
// ---------------------------------------------------------------------

/// Fault intensities the chaos campaign sweeps: each rate `n > 0`
/// generates a plan with `n` crashes, `n` gray windows, `n` engine
/// wedges, and `n` armed migration failures. Rate 0 is the fault-free
/// baseline the yield-retained column normalizes against.
pub const CHAOS_RATES: [u32; 4] = [0, 1, 2, 4];

/// Seed replicas per fault rate (the campaign runs every rate × seed
/// combination).
pub const CHAOS_SEEDS: usize = 3;

/// One fleet-chaos campaign cell: a full multi-host run under one
/// generated fault plan (or fault-free at rate 0).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Events per fault class in the generated plan (0 = baseline).
    pub rate: u32,
    /// Seed-replica index within the rate.
    pub rep: usize,
    /// The run's outcome.
    pub result: FleetResult,
}

/// Builds the configuration for one chaos cell. The cell derives its own
/// seed from the run seed and its label — the same derivation at every
/// `--jobs` level — and rate > 0 cells generate their fault
/// plan from that derived seed, so the whole campaign is a pure function
/// of `(seed, scale)`.
pub fn fleet_chaos_config(rate: u32, rep: usize, seed: u64, scale: Scale) -> FleetConfig {
    let label = format!("fleet_chaos r{rate} s{rep}");
    let mut cfg = scale.fleet_config(pageforge_types::derive_seed(seed, &label));
    cfg.label = label;
    if rate > 0 {
        let n = rate as usize;
        cfg.fleet_faults = Some(FleetFaultPlan::generate(
            cfg.seed,
            cfg.hosts as u32,
            cfg.ticks,
            n,
            n,
            n,
            n,
        ));
    }
    cfg
}

/// Runs one chaos cell and enforces the zero-loss invariant on the spot:
/// under any plan, no VM is lost or double-placed and every host's
/// memory invariants hold at the horizon.
///
/// # Panics
///
/// Panics if the invariant is violated — a chaos campaign that loses a
/// VM must fail the run, not print a table.
pub fn fleet_chaos_cell(rate: u32, rep: usize, seed: u64, scale: Scale) -> ChaosCell {
    let cfg = fleet_chaos_config(rate, rep, seed, scale);
    let label = cfg.label.clone();
    let (result, _snapshot) = ControlPlane::new(cfg).run();
    if let Some(c) = &result.chaos {
        assert_eq!(c.vms_lost, 0, "{label}: lost {} VMs", c.vms_lost);
        assert_eq!(
            c.vms_double_placed, 0,
            "{label}: double-placed {} VMs",
            c.vms_double_placed
        );
        assert_eq!(
            c.memory_faults, 0,
            "{label}: {} hosts failed the memory invariant check",
            c.memory_faults
        );
    }
    ChaosCell { rate, rep, result }
}

/// Folds chaos cells into the `fleet_chaos` availability table: per
/// (rate, seed) row — crashes survived, VMs evacuated, evacuation
/// latency, rollbacks, unavailability, and dedup yield retained vs. the
/// same seed's fault-free baseline.
pub fn fleet_chaos_table(cells: &[ChaosCell]) -> Table {
    let hosts = cells.first().map_or(0, |c| c.result.hosts);
    let mut t = Table::new(
        &format!(
            "Fleet chaos: availability under host faults across {hosts} hosts \
             — zero VMs lost, zero incorrect merges"
        ),
        &[
            "Rate",
            "Seed",
            "Crashes",
            "Evacuated",
            "Evac pages",
            "Evac wait (mean)",
            "Evac wait (max)",
            "Rollbacks",
            "Reparked",
            "Unhealthy ticks",
            "Savings (mean)",
            "Yield retained",
            "Lost",
            "Dup-placed",
        ],
    );
    for c in cells {
        let r = &c.result;
        // The fault-free baseline for this replica: the rate-0 cell of
        // the same rep index (present by construction; campaigns always
        // include rate 0).
        let baseline = cells
            .iter()
            .find(|b| b.rate == 0 && b.rep == c.rep)
            .map_or(r.savings_mean, |b| b.result.savings_mean);
        let retained = if baseline > 0.0 {
            r.savings_mean / baseline
        } else {
            1.0
        };
        let chaos = r.chaos.unwrap_or_default();
        t.row(vec![
            format!("{}", c.rate),
            format!("{}", c.rep),
            format!("{}", chaos.crashes),
            format!("{}", chaos.evacuated_vms),
            format!("{}", chaos.evacuated_pages),
            format!("{:.2}", chaos.evac_latency_mean),
            format!("{}", chaos.evac_latency_max),
            format!("{}", chaos.migration_rollbacks),
            format!("{}", chaos.leases_reparked),
            format!("{}", chaos.unhealthy_host_ticks),
            pct(r.savings_mean),
            pct(retained),
            format!("{}", chaos.vms_lost),
            format!("{}", chaos.vms_double_placed),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fault-injection campaign (DESIGN.md §7)
// ---------------------------------------------------------------------

/// Scheduled fault events per campaign cell (the sweep axis).
pub const FAULT_RATES: [usize; 5] = [0, 8, 64, 256, 1024];

/// Campaign seeds: each, XORed with the run seed, reseeds both the guest
/// memory and the plan of one replica.
pub const FAULT_SEEDS: [u64; 3] = [1, 2, 3];

/// Idle gap between the campaign's scan passes, in cycles.
const PASS_GAP: Cycle = 10_000;

/// A duplicate-rich guest memory plus its golden shadow copy.
struct FaultWorld {
    mem: HostMemory,
    shadow: Vec<((VmId, Gfn), PageData)>,
    hints: Vec<(VmId, Gfn)>,
}

/// Builds a duplicate-rich guest memory: pages draw their contents from a
/// small pool of classes, so identical pages abound within and across VMs.
fn fault_world(seed: u64, vms: u32, pages: u64) -> FaultWorld {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0_0D1E);
    let classes = ((vms as u64 * pages) / 4).max(2);
    let mut mem = HostMemory::new();
    let mut shadow = Vec::new();
    let mut hints = Vec::new();
    for v in 0..vms {
        for g in 0..pages {
            let class = rng.gen_range(0..classes);
            let data = PageData::from_fn(|i| {
                (class
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64).wrapping_mul(0x100_0000_01B3))
                    >> 17) as u8
            });
            mem.map_new_page(VmId(v), Gfn(g), data.clone());
            shadow.push(((VmId(v), Gfn(g)), data));
            hints.push((VmId(v), Gfn(g)));
        }
    }
    FaultWorld { mem, shadow, hints }
}

/// Runs `passes` full scans over the hint list; returns the final cycle.
fn fault_passes(
    pf: &mut PageForge,
    mem: &mut HostMemory,
    fabric: &mut FlatFabric,
    passes: usize,
    n: usize,
) -> Cycle {
    let mut t = 0;
    for _ in 0..passes {
        let report = pf.scan_batch(mem, fabric, t, n);
        t = report.finished_at.max(t) + PASS_GAP;
    }
    t
}

/// The outcome of one (rate, seed) cell of the fault-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCell {
    /// Scheduled fault events in the cell's plan.
    pub rate: usize,
    /// Index into [`FAULT_SEEDS`].
    pub rep: usize,
    /// Faults the injector applied.
    pub injected: u64,
    /// Single-bit data and check-bit faults SECDED corrected.
    pub corrected: u64,
    /// Double-bit faults SECDED detected.
    pub detected: u64,
    /// Aliased faults SECDED silently miscorrected.
    pub miscorrected: u64,
    /// Stale and colliding minikeys.
    pub key_faults: u64,
    /// Faults that landed where nothing read them.
    pub masked: u64,
    /// Candidates that took the software path (stall budget, engine
    /// error, or cross-check rejection).
    pub degraded: u64,
    /// Merges the faulted run performed.
    pub merges: u64,
    /// Guest pages whose readback differs from the golden shadow.
    pub incorrect: u64,
}

/// One campaign cell: probe the horizon fault-free, rerun the identical
/// world under a generated [`FaultPlan`], then audit every guest page
/// against its golden shadow copy. Merging may only change *frames*,
/// never *bytes*. Guest memory is 3 VMs × 48 pages × 4 passes at smoke
/// and quick scale, 6 × 128 × 8 at full scale. `--faults` does not apply:
/// the campaign generates its own plans.
///
/// # Panics
///
/// Panics if the faulted run leaves host memory's invariants broken.
pub fn fault_campaign_cell(rate: usize, rep: usize, seed: u64, scale: Scale) -> FaultCell {
    let (vms, pages, passes) = match scale {
        Scale::Full => (6, 128, 8),
        Scale::Quick | Scale::Smoke => (3, 48, 4),
    };
    let seed = FAULT_SEEDS[rep] ^ seed;

    // Probe run: learns the cycle horizon the plan should cover.
    let FaultWorld { mut mem, hints, .. } = fault_world(seed, vms, pages);
    let mut fabric = FlatFabric::all_dram(80);
    let mut pf = PageForge::new(PageForgeConfig::default(), hints.clone());
    let n = hints.len();
    let horizon = fault_passes(&mut pf, &mut mem, &mut fabric, passes, n).max(1);

    // Faulted run: identical world, same pass schedule, plan installed.
    let stalls = if rate == 0 { 0 } else { 3 };
    let plan = FaultPlan::generate(seed, horizon, rate, stalls, (horizon / 8).max(200_000));
    let FaultWorld {
        mut mem,
        shadow,
        hints,
    } = fault_world(seed, vms, pages);
    let mut fabric = FlatFabric::all_dram(80);
    let mut pf = PageForge::new(PageForgeConfig::default(), hints);
    pf.set_fault_injector(Some(FaultInjector::new(&plan)));
    fault_passes(&mut pf, &mut mem, &mut fabric, passes, n);

    let incorrect = shadow
        .iter()
        .filter(|((vm, gfn), expect)| mem.guest_read(*vm, *gfn) != Some(expect))
        .count() as u64;
    mem.check_invariants()
        .unwrap_or_else(|e| panic!("memory invariants violated at rate {rate}: {e}"));

    let mut reg = Registry::new();
    pf.export_metrics(&mut reg);
    let snap = reg.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    FaultCell {
        rate,
        rep,
        injected: c("faults.injected"),
        corrected: c("faults.data_corrected") + c("faults.check_corrected"),
        detected: c("faults.data_detected"),
        miscorrected: c("faults.miscorrected"),
        key_faults: c("faults.key_faults") + c("faults.key_collisions"),
        masked: c("faults.masked"),
        degraded: c("pageforge.degraded_candidates")
            + c("pageforge.engine_errors")
            + c("pageforge.cross_check_skips"),
        merges: mem.stats().merges,
        incorrect,
    }
}

/// Folds campaign cells into the `fault_campaign` table and enforces the
/// safety property over the whole sweep.
///
/// # Panics
///
/// Panics if any guest page was corrupted, or if the campaign never
/// injected, corrected, detected, or degraded anything (a campaign that
/// exercises nothing proves nothing).
pub fn fault_campaign_table(cells: &[FaultCell]) -> Table {
    let mut t = Table::new(
        "Fault-injection campaign: outcomes per (rate, seed); incorrect merges must be 0",
        &[
            "Events",
            "Seed",
            "Injected",
            "Corrected",
            "Detected",
            "Miscorr",
            "KeyFaults",
            "Masked",
            "Degraded",
            "Merges",
            "Incorrect",
        ],
    );
    for c in cells {
        t.row(vec![
            c.rate.to_string(),
            format!("s{}", c.rep),
            c.injected.to_string(),
            c.corrected.to_string(),
            c.detected.to_string(),
            c.miscorrected.to_string(),
            c.key_faults.to_string(),
            c.masked.to_string(),
            c.degraded.to_string(),
            c.merges.to_string(),
            c.incorrect.to_string(),
        ]);
    }
    let sum = |f: fn(&FaultCell) -> u64| cells.iter().map(f).sum::<u64>();
    let incorrect = sum(|c| c.incorrect);
    assert_eq!(
        incorrect, 0,
        "campaign found {incorrect} corrupted guest pages — the safety \
         property is violated"
    );
    assert!(sum(|c| c.injected) > 0, "campaign injected nothing");
    assert!(sum(|c| c.corrected) > 0, "no fault was ever corrected");
    assert!(
        sum(|c| c.detected) > 0,
        "no double-bit fault was ever detected"
    );
    assert!(
        sum(|c| c.degraded) > 0,
        "graceful degradation never engaged"
    );
    t
}

/// Figure 9: mean sojourn latency normalized to Baseline. `suite` holds
/// one Baseline/KSM/PageForge triple per app, as [`latency_cells`] lays
/// them out (so do Figures 10–11 and Table 4).
pub fn figure9(suite: &[SimResult]) -> Table {
    let mut t = Table::new(
        "Figure 9: Mean sojourn latency normalized to Baseline",
        &["App", "Baseline", "KSM", "PageForge"],
    );
    let mut ksm_sum = 0.0;
    let mut pf_sum = 0.0;
    for triple in suite.chunks_exact(3) {
        let base = triple[0].mean_sojourn();
        let ksm = triple[1].mean_sojourn() / base;
        let pf = triple[2].mean_sojourn() / base;
        ksm_sum += ksm;
        pf_sum += pf;
        t.row(vec![
            triple[0].app.clone(),
            ratio(1.0),
            ratio(ksm),
            ratio(pf),
        ]);
    }
    let n = (suite.len() / 3) as f64;
    t.row(vec![
        "average".into(),
        ratio(1.0),
        ratio(ksm_sum / n),
        ratio(pf_sum / n),
    ]);
    t
}

/// Figure 10: 95th-percentile (tail) latency normalized to Baseline.
pub fn figure10(suite: &mut [SimResult]) -> Table {
    let mut t = Table::new(
        "Figure 10: 95th percentile latency normalized to Baseline",
        &["App", "Baseline", "KSM", "PageForge"],
    );
    let mut ksm_sum = 0.0;
    let mut pf_sum = 0.0;
    for triple in suite.chunks_exact_mut(3) {
        let app = triple[0].app.clone();
        let base = triple[0].p95_sojourn();
        let ksm = triple[1].p95_sojourn() / base;
        let pf = triple[2].p95_sojourn() / base;
        ksm_sum += ksm;
        pf_sum += pf;
        t.row(vec![app, ratio(1.0), ratio(ksm), ratio(pf)]);
    }
    let n = (suite.len() / 3) as f64;
    t.row(vec![
        "average".into(),
        ratio(1.0),
        ratio(ksm_sum / n),
        ratio(pf_sum / n),
    ]);
    t
}

/// Figure 11: memory bandwidth in the most memory-intensive dedup phase.
pub fn figure11(suite: &[SimResult]) -> Table {
    let mut t = Table::new(
        "Figure 11: Peak-window memory bandwidth (GB/s)",
        &["App", "Baseline", "KSM", "PageForge"],
    );
    let mut sums = [0.0f64; 3];
    for triple in suite.chunks_exact(3) {
        let mut row = vec![triple[0].app.clone()];
        for (i, r) in triple.iter().enumerate() {
            sums[i] += r.bandwidth_peak_gbps;
            row.push(format!("{:.2}", r.bandwidth_peak_gbps));
        }
        t.row(row);
    }
    let n = (suite.len() / 3) as f64;
    t.row(vec![
        "average".into(),
        format!("{:.2}", sums[0] / n),
        format!("{:.2}", sums[1] / n),
        format!("{:.2}", sums[2] / n),
    ]);
    t
}

/// Table 4: characterization of the KSM configuration.
pub fn table4(suite: &[SimResult]) -> Table {
    let mut t = Table::new(
        "Table 4: Characterization of the KSM configuration",
        &[
            "App",
            "KSM cyc avg",
            "KSM cyc max",
            "PageCmp/KSM",
            "HashGen/KSM",
            "L3 miss KSM",
            "L3 miss Base",
        ],
    );
    for triple in suite.chunks_exact(3) {
        let base = &triple[0];
        let ksm = &triple[1];
        let d = ksm.dedup.as_ref().expect("KSM summary");
        t.row(vec![
            ksm.app.clone(),
            pct(d.core_cycles_frac_avg),
            pct(d.core_cycles_frac_max),
            pct(d.compare_frac),
            pct(d.hash_frac),
            pct(ksm.l3_miss_rate),
            pct(base.l3_miss_rate),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Table 5
// ---------------------------------------------------------------------

/// Measures the Table 5 Scan-Table cycle distribution for one profile
/// (split out so the parallel scheduler can run profiles as independent
/// units).
pub fn table5_profile(profile: &AppProfile, seed: u64, n_vms: u32) -> RunningStats {
    let mut mem = HostMemory::new();
    let image = profile.generate(&mut mem, n_vms, seed);
    let mut pf = PageForge::new(PageForgeConfig::default(), image.mergeable_hints());
    let mut fabric = FlatFabric::all_dram(80);
    // Two passes: enough for the unstable tree to fill and searches to
    // traverse realistic depths.
    let mut now = 0;
    for _ in 0..3 {
        now = pf.run_pass(&mut mem, &mut fabric, now).1;
    }
    pf.engine_stats().run_cycles
}

/// Table 5: PageForge design characteristics — the per-application
/// Scan-Table processing-time distributions, plus the area/power model.
pub fn table5_from(all_means: &[(String, RunningStats)]) -> Table {
    let grand_mean = all_means.iter().map(|(_, s)| s.mean()).sum::<f64>() / all_means.len() as f64;
    let across_app_std = {
        let var = all_means
            .iter()
            .map(|(_, s)| (s.mean() - grand_mean).powi(2))
            .sum::<f64>()
            / all_means.len() as f64;
        var.sqrt()
    };

    let model = PowerModel::hp_22nm();
    let table_bytes = pageforge_core::ScanTable::default().size_bytes();
    let st = model.scan_table(table_bytes);
    let total = model.pageforge_module(table_bytes);

    let mut t = Table::new(
        "Table 5: PageForge design characteristics",
        &["Item", "Value", "Notes"],
    );
    t.row(vec![
        "Processing the Scan table (avg cycles)".into(),
        format!("{grand_mean:.0}"),
        "paper: 7,486".into(),
    ]);
    t.row(vec![
        "Applic. standard dev.".into(),
        format!("{across_app_std:.0}"),
        "paper: 1,296".into(),
    ]);
    t.row(vec![
        "OS checking (cycles)".into(),
        format!("{}", OS_CHECK_INTERVAL),
        "paper: 12,000".into(),
    ]);
    t.row(vec![
        "Scan table area (mm2)".into(),
        format!("{:.3}", st.area_mm2),
        "paper: 0.010".into(),
    ]);
    t.row(vec![
        "Scan table power (W)".into(),
        format!("{:.3}", st.power_w),
        "paper: 0.028".into(),
    ]);
    t.row(vec![
        "ALU area (mm2)".into(),
        format!("{:.3}", model.alu.area_mm2),
        "paper: 0.019".into(),
    ]);
    t.row(vec![
        "ALU power (W)".into(),
        format!("{:.3}", model.alu.power_w),
        "paper: 0.009".into(),
    ]);
    t.row(vec![
        "Total PageForge area (mm2)".into(),
        format!("{:.3}", total.area_mm2),
        "paper: 0.029".into(),
    ]);
    t.row(vec![
        "Total PageForge power (W)".into(),
        format!("{:.3}", total.power_w),
        "paper: 0.037".into(),
    ]);
    t
}

// ---------------------------------------------------------------------
// Ablations (§3.3, §4.1, §4.3, §6.4)
// ---------------------------------------------------------------------

/// Ablation: number of ECC minikey offsets vs key quality (false-positive
/// match rate when pages changed).
pub fn ablation_ecc_offsets(seed: u64, scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: ECC minikeys per page vs change-detection quality",
        &[
            "Minikeys",
            "Key bits",
            "Bytes fetched",
            "ECC match rate",
            "jhash match rate",
        ],
    );
    let profile = &AppProfile::tailbench_suite_scaled(scale.pages_per_vm())[0];
    for n in [1usize, 2, 4, 8] {
        let offsets: Vec<usize> = (0..n).map(|i| 3 + i * (64 / n)).collect();
        let mut mem = HostMemory::new();
        let image = profile.generate(&mut mem, 4, seed);
        let cfg = KsmConfig {
            shadow_ecc: Some(EccKeyConfig::with_offsets(offsets).expect("valid offsets")),
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, image.mergeable_hints());
        ksm.run_to_steady_state(&mut mem, 8);
        let warm = ksm.stats().clone();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            image.churn_step(&mut mem, &profile.churn, &mut rng);
            ksm.run_pass(&mut mem);
        }
        let s = ksm.stats();
        let ecc_total =
            (s.ecc_matches - warm.ecc_matches) + (s.ecc_mismatches - warm.ecc_mismatches);
        let j_total =
            (s.jhash_matches - warm.jhash_matches) + (s.jhash_mismatches - warm.jhash_mismatches);
        t.row(vec![
            n.to_string(),
            (8 * n).to_string(),
            (64 * n).to_string(),
            pct((s.ecc_matches - warm.ecc_matches) as f64 / ecc_total.max(1) as f64),
            pct((s.jhash_matches - warm.jhash_matches) as f64 / j_total.max(1) as f64),
        ]);
    }
    t
}

/// Ablation: Scan Table capacity vs refills per candidate (§4.1 discusses
/// why the table is kept small; more entries mean fewer OS interactions
/// but a bigger structure).
pub fn ablation_scan_table(seed: u64, scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: Scan Table entries vs refills and search latency",
        &[
            "Entries",
            "Refills/candidate",
            "Avg batch cycles",
            "Table bytes",
        ],
    );
    let profile = &AppProfile::tailbench_suite_scaled(scale.pages_per_vm())[0];
    for entries in [7usize, 15, 31, 63] {
        let mut mem = HostMemory::new();
        let image = profile.generate(&mut mem, scale.n_vms(), seed);
        let cfg = PageForgeConfig {
            engine: EngineConfig {
                table_entries: entries,
                ..EngineConfig::default()
            },
            ..PageForgeConfig::default()
        };
        let mut pf = PageForge::new(cfg, image.mergeable_hints());
        let mut fabric = FlatFabric::all_dram(80);
        let mut now = 0;
        for _ in 0..2 {
            now = pf.run_pass(&mut mem, &mut fabric, now).1;
        }
        let s = pf.stats();
        let table_bytes = pageforge_core::ScanTable::new(entries).size_bytes();
        t.row(vec![
            entries.to_string(),
            format!("{:.2}", s.refills as f64 / s.candidates.max(1) as f64),
            format!("{:.0}", pf.engine_stats().run_cycles.mean()),
            table_bytes.to_string(),
        ]);
    }
    t
}

/// Ablation (§4.3): PageForge vs an in-order core running the software
/// algorithm — area/power comparison from the calibrated model.
pub fn ablation_inorder_core() -> Table {
    let model = PowerModel::hp_22nm();
    let pf = model.pageforge_module(pageforge_core::ScanTable::default().size_bytes());
    let a9 = PowerModel::a9_core();
    let chip = PowerModel::server_chip();
    let mut t = Table::new(
        "Ablation: PageForge vs in-order-core alternative (22nm)",
        &["Design", "Area (mm2)", "Power (W)", "vs PageForge power"],
    );
    t.row(vec![
        "PageForge module".into(),
        format!("{:.3}", pf.area_mm2),
        format!("{:.3}", pf.power_w),
        ratio(1.0),
    ]);
    t.row(vec![
        "ARM-A9-class in-order core".into(),
        format!("{:.2}", a9.area_mm2),
        format!("{:.2}", a9.power_w),
        ratio(a9.power_w / pf.power_w),
    ]);
    t.row(vec![
        "10-core server chip (Table 2)".into(),
        format!("{:.1}", chip.area_mm2),
        format!("{:.1}", chip.power_w),
        ratio(chip.power_w / pf.power_w),
    ]);
    t
}

// ---------------------------------------------------------------------
// Related work & design-space extensions
// ---------------------------------------------------------------------

/// Comparison with UKSM (§7.2): whole-system scanning with a CPU-budget
/// governor vs KSM's fixed `pages_to_scan`/`sleep_millisecs`.
///
/// Reports, per CPU-share setting, how quickly UKSM converges to steady
/// state and what it costs, against KSM's fixed-knob behaviour.
pub fn comparison_uksm(seed: u64, scale: Scale) -> Table {
    use pageforge_ksm::{Uksm, UksmConfig};

    let profile = &AppProfile::tailbench_suite_scaled(scale.pages_per_vm())[0];
    let mut t = Table::new(
        "UKSM vs KSM: convergence and CPU cost (img_dnn image)",
        &[
            "Config",
            "Intervals",
            "Frames",
            "Savings",
            "Dedup cycles (M)",
        ],
    );

    // KSM reference.
    {
        let mut mem = HostMemory::new();
        let image = profile.generate(&mut mem, scale.n_vms(), seed);
        let before = mem.mapped_guest_pages();
        let mut ksm = Ksm::new(KsmConfig::default(), image.mergeable_hints());
        let passes = ksm.run_to_steady_state(&mut mem, 16);
        t.row(vec![
            "KSM (400 pages / 5 ms)".into(),
            format!("{passes} passes"),
            mem.allocated_frames().to_string(),
            pct(1.0 - mem.allocated_frames() as f64 / before as f64),
            format!("{:.1}", ksm.stats().cycles.total() as f64 / 1e6),
        ]);
    }

    for share in [0.05, 0.2, 0.5] {
        let mut mem = HostMemory::new();
        let image = profile.generate(&mut mem, scale.n_vms(), seed);
        let before = mem.mapped_guest_pages();
        drop(image); // UKSM scans everything; no hints needed.
        let cfg = UksmConfig {
            cpu_share: share,
            ..UksmConfig::default()
        };
        let mut uksm = Uksm::new(cfg, &mem);
        let intervals = uksm.run_to_steady_state(&mut mem, 40_000);
        t.row(vec![
            format!("UKSM @ {:.0}% CPU", share * 100.0),
            intervals.to_string(),
            mem.allocated_frames().to_string(),
            pct(1.0 - mem.allocated_frames() as f64 / before as f64),
            format!("{:.1}", uksm.inner().stats().cycles.total() as f64 / 1e6),
        ]);
    }
    t
}

/// PageForge module counts the §4.1 ablation compares with Baseline.
const MODULE_COUNTS: [usize; 3] = [1, 2, 4];

/// Ablation (§4.1): one PageForge module vs several. More modules scan
/// faster but add memory pressure; the paper argues a single module
/// suffices. Its cells are silo Baseline, then PageForge with 1, 2 and 4
/// modules, on the quick system so the run stays short.
pub fn ablation_modules_cells(seed: u64, scale: Scale) -> Vec<Cell> {
    let scale = scale.at_most_quick();
    let base = Cell {
        label: "ablation_modules/Baseline".to_owned(),
        config: scale.sim_config("silo", DedupMode::None, seed),
    };
    let engines = MODULE_COUNTS.map(|modules| {
        let mut config = scale.sim_config(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            seed,
        );
        config.pf_modules = modules;
        Cell {
            label: format!("ablation_modules/{modules}"),
            config,
        }
    });
    std::iter::once(base).chain(engines).collect()
}

/// The module-count ablation's table, from the results of
/// [`ablation_modules_cells`] in their order.
pub fn ablation_modules_table(results: &[SimResult]) -> Table {
    let mut t = Table::new(
        "Ablation: number of PageForge modules (silo, quick system)",
        &[
            "Modules",
            "Mean latency",
            "Peak BW (GB/s)",
            "Engine lines",
            "Frames",
        ],
    );
    let (base, engines) = results.split_first().expect("a Baseline cell");
    t.row(vec![
        "0 (Baseline)".into(),
        ratio(1.0),
        format!("{:.2}", base.bandwidth_peak_gbps),
        "0".into(),
        base.mem_stats.allocated_frames.to_string(),
    ]);
    for (modules, r) in MODULE_COUNTS.iter().zip(engines) {
        let d = r.dedup.as_ref().expect("pf summary");
        t.row(vec![
            modules.to_string(),
            ratio(r.mean_sojourn() / base.mean_sojourn()),
            format!("{:.2}", r.bandwidth_peak_gbps),
            d.engine_lines_fetched.to_string(),
            r.mem_stats.allocated_frames.to_string(),
        ]);
    }
    t
}

/// Extension (beyond the paper): a heterogeneous VM mix — every VM runs a
/// different TailBench app. Cross-VM duplication is lower (only the guest
/// OS/library pages are shared), so savings drop, but the interference
/// ordering (KSM ≫ PageForge) must persist. Its cells are the five-app
/// mix under each of the three modes.
pub fn extension_heterogeneous_cells(seed: u64, scale: Scale) -> Vec<Cell> {
    let smoke = scale == Scale::Smoke;
    suite_modes()
        .into_iter()
        .map(|mode| {
            let label = format!("extension_heterogeneous/{}", mode.label());
            let mut cfg = SimConfig::heterogeneous(&APPS, mode, seed);
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
            Cell { label, config: cfg }
        })
        .collect()
}

/// The heterogeneous-mix table, from the results of
/// [`extension_heterogeneous_cells`] in their order.
pub fn extension_heterogeneous_table(results: &mut [SimResult]) -> Table {
    let mut t = Table::new(
        "Extension: heterogeneous VM mix (all five apps co-located)",
        &["Config", "Mean latency", "p95 latency", "Frames", "Savings"],
    );
    let base_mean = results[0].mean_sojourn();
    let base_p95 = results[0].p95_sojourn();
    for r in results.iter_mut() {
        let mean = r.mean_sojourn();
        let p95 = r.p95_sojourn();
        t.row(vec![
            r.label.clone(),
            ratio(mean / base_mean),
            ratio(p95 / base_p95),
            r.mem_stats.allocated_frames.to_string(),
            pct(r.mem_stats.savings_fraction()),
        ]);
    }
    t
}

/// Row names of the cache-bypass ablation, in cell order.
const CACHE_BYPASS_ROWS: [&str; 4] = ["Baseline", "KSM", "KSM (uncacheable)", "PageForge"];

/// Ablation (§4.3, second alternative): KSM with cache-bypassing accesses.
/// Pollution disappears but the CPU cycles remain — the paper predicts it
/// lands between KSM and PageForge, closer to KSM. Its cells are silo
/// under Baseline, KSM, KSM with uncacheable reads, and PageForge.
pub fn ablation_cache_bypass_cells(seed: u64, scale: Scale) -> Vec<Cell> {
    let uncacheable = KsmConfig {
        cache_bypass: true,
        ..SimConfig::scaled_ksm()
    };
    let modes = [
        DedupMode::None,
        DedupMode::Ksm(SimConfig::scaled_ksm()),
        DedupMode::Ksm(uncacheable),
        DedupMode::PageForge(SimConfig::scaled_pageforge()),
    ];
    CACHE_BYPASS_ROWS
        .iter()
        .zip(modes)
        .map(|(row, mode)| Cell {
            label: format!("ablation_cache_bypass/{row}"),
            config: scale.sim_config("silo", mode, seed),
        })
        .collect()
}

/// The cache-bypass ablation's table, from the results of
/// [`ablation_cache_bypass_cells`] in their order.
pub fn ablation_cache_bypass_table(results: &mut [SimResult]) -> Table {
    let mut t = Table::new(
        "Ablation: software dedup with uncacheable accesses (silo)",
        &["Config", "Mean latency", "p95 latency", "L3 miss", "Frames"],
    );
    let base_mean = results[0].mean_sojourn();
    let base_p95 = results[0].p95_sojourn();
    for (row, r) in CACHE_BYPASS_ROWS.iter().zip(results.iter_mut()) {
        let mean = r.mean_sojourn();
        let p95 = r.p95_sojourn();
        t.row(vec![
            (*row).into(),
            ratio(mean / base_mean),
            ratio(p95 / base_p95),
            pct(r.l3_miss_rate),
            r.mem_stats.allocated_frames.to_string(),
        ]);
    }
    t
}

/// Ablation: Linux's `use_zero_pages` knob — zero pages bypass the trees
/// entirely. Measures tree traffic and time-to-steady-state with and
/// without the shortcut.
pub fn ablation_zero_pages(seed: u64, scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: use_zero_pages shortcut (img_dnn image)",
        &[
            "Config",
            "Passes",
            "Frames",
            "Zero merges",
            "Tree inserts",
            "Dedup cycles (M)",
        ],
    );
    let profile = &AppProfile::tailbench_suite_scaled(scale.pages_per_vm())[0];
    for use_zero in [false, true] {
        let mut mem = HostMemory::new();
        let image = profile.generate(&mut mem, scale.n_vms(), seed);
        let cfg = KsmConfig {
            use_zero_pages: use_zero,
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, image.mergeable_hints());
        let passes = ksm.run_to_steady_state(&mut mem, 16);
        let s = ksm.stats();
        t.row(vec![
            if use_zero {
                "use_zero_pages=1"
            } else {
                "use_zero_pages=0"
            }
            .into(),
            passes.to_string(),
            mem.allocated_frames().to_string(),
            s.merged_zero.to_string(),
            s.inserted_unstable.to_string(),
            format!("{:.1}", s.cycles.total() as f64 / 1e6),
        ]);
    }
    t
}

/// `pages_to_scan` values of the scan-rate sweep.
const SWEEP_PAGES: [usize; 4] = [8, 16, 32, 64];

/// Sweep: the `pages_to_scan`/`sleep_millisecs` aggressiveness trade-off
/// (§2.1: "two parameters are used to tune the aggressiveness of the
/// algorithm"). More aggressive scanning merges faster but costs more
/// latency — under KSM. Under PageForge the cost stays flat. Its cells
/// are silo Baseline, then KSM and PageForge at `pages_to_scan` 8, 16,
/// 32 and 64.
pub fn sweep_scan_rate_cells(seed: u64, scale: Scale) -> Vec<Cell> {
    let mut cells = vec![Cell {
        label: "sweep_scan_rate/Baseline".to_owned(),
        config: scale.sim_config("silo", DedupMode::None, seed),
    }];
    for pages in SWEEP_PAGES {
        for mode in [
            DedupMode::Ksm(SimConfig::scaled_ksm()),
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
        ] {
            let label = format!("sweep_scan_rate/{}/{pages}", mode.label());
            let mut config = scale.sim_config("silo", mode, seed);
            // The reduced scales rescale pages_to_scan; the sweep sets
            // its own value.
            match &mut config.dedup {
                DedupMode::Ksm(k) => k.pages_to_scan = pages,
                DedupMode::PageForge(p) => p.pages_to_scan = pages,
                DedupMode::None => {}
            }
            cells.push(Cell { label, config });
        }
    }
    cells
}

/// The scan-rate sweep's table, from the results of
/// [`sweep_scan_rate_cells`] in their order.
pub fn sweep_scan_rate_table(results: &mut [SimResult]) -> Table {
    let mut t = Table::new(
        "Sweep: scan aggressiveness vs latency overhead (silo)",
        &[
            "pages_to_scan",
            "KSM mean",
            "KSM p95",
            "KSM core% avg",
            "PF mean",
            "PF p95",
        ],
    );
    let (base, rows) = results.split_first_mut().expect("a Baseline cell");
    let base_mean = base.mean_sojourn();
    let base_p95 = base.p95_sojourn();
    for (pages, pair) in SWEEP_PAGES.iter().zip(rows.chunks_exact_mut(2)) {
        let [ksm, pf] = pair else {
            unreachable!("chunks of two")
        };
        let core_frac = ksm
            .dedup
            .as_ref()
            .expect("ksm summary")
            .core_cycles_frac_avg;
        t.row(vec![
            pages.to_string(),
            ratio(ksm.mean_sojourn() / base_mean),
            ratio(ksm.p95_sojourn() / base_p95),
            pct(core_frac),
            ratio(pf.mean_sojourn() / base_mean),
            ratio(pf.p95_sojourn() / base_p95),
        ]);
    }
    t
}
