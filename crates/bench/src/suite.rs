//! The complete evaluation, expressed as independent work units for the
//! parallel scheduler.
//!
//! `run_all` used to execute the experiments one after another; this
//! module decomposes the same work into ~30 seed-isolated units (one per
//! app × experiment cell where an experiment is separable, one per
//! experiment otherwise) and reassembles the exact same tables from their
//! outputs. Because every unit derives its values only from `(seed,
//! scale)` and the merge happens in submission order, the emitted
//! `results/*.json` files are byte-identical at any `--jobs` level.

use std::path::Path;

use pageforge_sim::SimResult;
use pageforge_types::stats::RunningStats;
use pageforge_vm::AppProfile;

use crate::experiments::{
    self, ChaosCell, FaultCell, FleetCell, HashKeyOutcome, MemorySavings, SeedReplicate,
};
use crate::report::Table;
use crate::scheduler::{
    run_units, run_units_spooled, ExperimentTiming, RunTiming, SchedulerError, ShardTiming, Unit,
};
use crate::trace_report;
use crate::BenchArgs;

/// Every experiment name `--only` accepts, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "table3",
    "fig7",
    "fig8",
    "latency",
    "table5",
    "ablation_ecc_offsets",
    "ablation_scan_table",
    "ablation_inorder_core",
    "ablation_cache_bypass",
    "ablation_modules",
    "ablation_zero_pages",
    "comparison_uksm",
    "sweep_scan_rate",
    "extension_heterogeneous",
    "shard_scaling",
    "seed_sweep",
    "fleet",
    "fleet_chaos",
    "fault_campaign",
];

/// What one work unit produces.
pub enum UnitOutput {
    /// A finished table (single-unit experiments).
    Table(Table),
    /// One app's Figure 7 measurement.
    Savings(MemorySavings),
    /// One app's Figure 8 measurement.
    HashKeys(HashKeyOutcome),
    /// One (app, mode) full-system simulation of the latency suite.
    Sim(Box<SimResult>),
    /// One app's Table 5 Scan-Table cycle distribution.
    Engine(String, RunningStats),
    /// The shard-scaling experiment: its deterministic table plus the
    /// wall-clock rows destined for `meta/timing.json`.
    ShardScaling(Table, Vec<ShardTiming>),
    /// One seed replica of the `seed_sweep` experiment.
    SeedRep(SeedReplicate),
    /// One (density, hint policy) cell of the fleet experiment.
    Fleet(FleetCell),
    /// One (fault rate, seed replica) cell of the chaos campaign.
    Chaos(ChaosCell),
    /// One (fault rate, seed) cell of the fault-injection campaign.
    Fault(FaultCell),
}

/// The reassembled evaluation: named tables (file stem, table) in paper
/// order, plus the scheduler's timing record.
pub struct SuiteOutcome {
    /// `(file_stem, table)` pairs, e.g. `("fig7_memory_savings", ...)`.
    pub tables: Vec<(String, Table)>,
    /// Per-experiment wall-clock accounting.
    pub timing: RunTiming,
    /// Accounting for the spooled trace stream; `None` unless `--trace`
    /// was given. (Events only exist when the crate was built with
    /// `--features trace`; without it the stream holds markers only.)
    pub trace: Option<TraceSummary>,
}

/// Accounting for a `--trace` run: each unit streamed its events to a
/// per-unit spool file mid-run, and the spools were folded into the
/// final JSONL in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Units scheduled (each contributes one `bench/unit_start` marker).
    pub units: usize,
    /// Unit trace events assembled into the stream (markers excluded).
    pub events: u64,
    /// Events dropped across all unit collectors, summed. Streaming
    /// collectors flush instead of dropping, so this must be 0 —
    /// `run_all` exits nonzero otherwise.
    pub dropped: u64,
}

/// Runs the selected experiments on `args.jobs` workers and reassembles
/// the tables. Results are byte-identical at any `--jobs` level.
///
/// Bad flags — an `--only` typo, `--only seed_sweep` without
/// `--seeds >= 2`, a missing or malformed `--faults`/`--fleet-faults`
/// plan — return an error naming the flag before any unit runs.
pub fn run_suite(args: &BenchArgs) -> Result<SuiteOutcome, SchedulerError> {
    // A typo in `--only` must fail loudly *before* any work is
    // scheduled, listing what would have been accepted.
    for name in &args.only {
        if !EXPERIMENTS.contains(&name.as_str()) {
            return Err(SchedulerError {
                label: format!("--only {name}"),
                message: format!(
                    "unknown experiment `{name}`; valid names: {}",
                    EXPERIMENTS.join(", ")
                ),
            });
        }
    }
    if args.seeds < 2 && args.only.iter().any(|o| o == "seed_sweep") {
        return Err(SchedulerError {
            label: "--only seed_sweep".into(),
            message: "needs --seeds N with N >= 2 to have anything to sweep".into(),
        });
    }
    let want = |name: &str| args.only.is_empty() || args.only.iter().any(|o| o == name);
    let scale = args.scale();
    let seed = args.seed;

    // Load the fault plan, if any. An empty plan is collapsed to `None`
    // here so `--faults empty.json` takes exactly the code path (and
    // produces exactly the bytes) of a run with no flag at all.
    let fault_plan = match &args.faults {
        Some(path) => {
            let plan =
                pageforge_faults::FaultPlan::read_file(path).map_err(|message| SchedulerError {
                    label: "--faults".into(),
                    message,
                })?;
            (!plan.is_empty()).then_some(plan)
        }
        None => None,
    };

    // Same collapse for the fleet chaos plan: `--fleet-faults empty.json`
    // takes exactly the code path (and produces exactly the bytes) of a
    // run with no flag at all.
    let fleet_fault_plan = match &args.fleet_faults {
        Some(path) => {
            let plan = pageforge_faults::FleetFaultPlan::read_file(path).map_err(|message| {
                SchedulerError {
                    label: "--fleet-faults".into(),
                    message,
                }
            })?;
            (!plan.is_empty()).then_some(plan)
        }
        None => None,
    };

    // The latency suite is cached on disk across binaries; when the cache
    // is valid there is nothing to schedule for it. Faulted runs bypass
    // the cache entirely — reading it would mask the faults, and writing
    // it would poison later fault-free runs.
    let cache_path = experiments::suite_cache_path(&args.out_dir, seed, scale);
    let cached_suite = if want("latency") && fault_plan.is_none() {
        experiments::read_suite_cache(&cache_path)
    } else {
        None
    };
    if cached_suite.is_some() {
        eprintln!("(reusing cached simulations from {})", cache_path.display());
    }

    // Build the unit list, heaviest experiments first so the pool stays
    // busy. Assembly below keys on the experiment name, not position.
    let shards = args.shards;
    let mut units: Vec<Unit<UnitOutput>> = Vec::new();
    if want("shard_scaling") {
        // Six back-to-back full-system simulations (three shard levels,
        // best of two) in one unit — the heaviest single unit of the
        // suite, so it goes first.
        units.push(Unit::new("shard_scaling", "shard_scaling", move || {
            let (table, rows) = experiments::shard_scaling(seed, scale);
            UnitOutput::ShardScaling(table, rows)
        }));
    }
    if want("latency") && cached_suite.is_none() {
        for app in experiments::APPS {
            for mode in experiments::suite_modes() {
                let label = format!("latency/{app}/{}", mode.label());
                let plan = fault_plan.clone();
                units.push(Unit::new("latency", label, move || {
                    UnitOutput::Sim(Box::new(experiments::run_suite_cell_with(
                        app,
                        mode,
                        seed,
                        scale,
                        shards,
                        plan.as_ref(),
                    )))
                }));
            }
        }
    }
    if want("fleet") {
        // One multi-host run per (density, hint policy) point; each
        // cell derives its own seed, so cells are order-independent.
        for density in scale.fleet_densities() {
            for hinted in [false, true] {
                let hints_tag = if hinted { "hinted" } else { "all" };
                let label = format!("fleet/d{density}/{hints_tag}");
                let plan = fault_plan.clone();
                let fleet_plan = fleet_fault_plan.clone();
                units.push(Unit::new("fleet", label, move || {
                    UnitOutput::Fleet(experiments::fleet_cell(
                        density,
                        hinted,
                        seed,
                        scale,
                        shards,
                        plan.as_ref(),
                        fleet_plan.as_ref(),
                    ))
                }));
            }
        }
    }
    if want("fleet_chaos") {
        // The availability campaign: every fault rate × seed replica.
        // Cells generate their own plans from their derived seeds, so
        // `--fleet-faults` does not apply here.
        for rate in experiments::CHAOS_RATES {
            for rep in 0..experiments::CHAOS_SEEDS {
                let label = format!("fleet_chaos/r{rate}/s{rep}");
                units.push(Unit::new("fleet_chaos", label, move || {
                    UnitOutput::Chaos(experiments::fleet_chaos_cell(
                        rate, rep, seed, scale, shards,
                    ))
                }));
            }
        }
    }
    if want("fault_campaign") {
        // Like the chaos campaign, cells generate their own plans, so
        // `--faults` does not apply here.
        for rate in experiments::FAULT_RATES {
            for rep in 0..experiments::FAULT_SEEDS.len() {
                let label = format!("fault_campaign/r{rate}/s{rep}");
                units.push(Unit::new("fault_campaign", label, move || {
                    UnitOutput::Fault(experiments::fault_campaign_cell(rate, rep, seed, scale))
                }));
            }
        }
    }
    if want("seed_sweep") && args.seeds >= 2 {
        for i in 0..args.seeds {
            // Replica 0 is the run's own seed; the rest are derived.
            let rep_seed = if i == 0 {
                seed
            } else {
                pageforge_types::derive_seed(seed, &format!("seed_sweep/{i}"))
            };
            let label = format!("seed_sweep/{rep_seed:#x}");
            units.push(Unit::new("seed_sweep", label, move || {
                UnitOutput::SeedRep(experiments::seed_sweep_cell(rep_seed, scale))
            }));
        }
    }
    let profiles = AppProfile::tailbench_suite_scaled(scale.pages_per_vm());
    if want("table5") {
        for profile in profiles.clone() {
            let label = format!("table5/{}", profile.name);
            units.push(Unit::new("table5", label, move || {
                let stats = experiments::table5_profile(&profile, seed, scale.n_vms());
                UnitOutput::Engine(profile.name, stats)
            }));
        }
    }
    if want("fig7") {
        for profile in profiles.clone() {
            let label = format!("fig7/{}", profile.name);
            units.push(Unit::new("fig7", label, move || {
                UnitOutput::Savings(experiments::memory_savings_for(
                    &profile,
                    seed,
                    scale.n_vms(),
                ))
            }));
        }
    }
    if want("fig8") {
        for profile in profiles {
            let label = format!("fig8/{}", profile.name);
            units.push(Unit::new("fig8", label, move || {
                UnitOutput::HashKeys(experiments::hash_keys_for(
                    &profile,
                    seed,
                    scale.fig8_rounds(),
                    scale.n_vms(),
                ))
            }));
        }
    }
    let mut single = |name: &'static str, run: Box<dyn FnOnce() -> Table + Send>| {
        if want(name) {
            units.push(Unit::new(name, name, move || UnitOutput::Table(run())));
        }
    };
    single(
        "sweep_scan_rate",
        Box::new(move || experiments::sweep_scan_rate(seed, scale)),
    );
    single(
        "extension_heterogeneous",
        Box::new(move || experiments::extension_heterogeneous(seed, scale)),
    );
    single(
        "ablation_cache_bypass",
        Box::new(move || experiments::ablation_cache_bypass(seed, scale)),
    );
    single(
        "ablation_modules",
        Box::new(move || experiments::ablation_modules(seed, scale)),
    );
    single(
        "comparison_uksm",
        Box::new(move || experiments::comparison_uksm(seed, scale)),
    );
    single(
        "ablation_ecc_offsets",
        Box::new(move || experiments::ablation_ecc_offsets(seed, scale)),
    );
    single(
        "ablation_scan_table",
        Box::new(move || experiments::ablation_scan_table(seed, scale)),
    );
    single(
        "ablation_zero_pages",
        Box::new(move || experiments::ablation_zero_pages(seed, scale)),
    );
    single("table3", Box::new(experiments::table3));
    single(
        "ablation_inorder_core",
        Box::new(experiments::ablation_inorder_core),
    );

    // With `--trace`, units stream their events to per-unit spool files
    // mid-run (nothing buffers or drops); the spools are folded into the
    // final JSONL after the pool drains.
    let spool_dir = args
        .trace
        .as_ref()
        .map(|path| std::path::PathBuf::from(format!("{}.spool.d", path.display())));
    let started = std::time::Instant::now();
    let results = match &spool_dir {
        Some(dir) => run_units_spooled(args.jobs, units, dir)?,
        None => run_units(args.jobs, units)?,
    };
    let mut timing = RunTiming::from_results(args.jobs, started.elapsed().as_secs_f64(), &results);
    let dropped: u64 = results.iter().map(|r| r.dropped).sum();
    let labels: Vec<String> = results.iter().map(|r| r.label.clone()).collect();

    // Reassemble in paper order, keyed by experiment name.
    let mut savings = Vec::new();
    let mut hash_keys = Vec::new();
    let mut sims = Vec::new();
    let mut engine = Vec::new();
    let mut singles: Vec<(String, Table)> = Vec::new();
    let mut shard_rows: Vec<ShardTiming> = Vec::new();
    let mut seed_reps: Vec<SeedReplicate> = Vec::new();
    let mut fleet_cells: Vec<FleetCell> = Vec::new();
    let mut chaos_cells: Vec<ChaosCell> = Vec::new();
    let mut fault_cells: Vec<FaultCell> = Vec::new();
    for r in results {
        match r.value {
            UnitOutput::Table(t) => singles.push((r.experiment, t)),
            UnitOutput::Savings(s) => savings.push(s),
            UnitOutput::HashKeys(h) => hash_keys.push(h),
            UnitOutput::Sim(s) => sims.push(*s),
            UnitOutput::Engine(name, stats) => engine.push((name, stats)),
            UnitOutput::ShardScaling(t, rows) => {
                singles.push((r.experiment, t));
                shard_rows = rows;
            }
            UnitOutput::SeedRep(rep) => seed_reps.push(rep),
            UnitOutput::Fleet(cell) => fleet_cells.push(cell),
            UnitOutput::Chaos(cell) => chaos_cells.push(cell),
            UnitOutput::Fault(cell) => fault_cells.push(cell),
        }
    }
    timing.shard_scaling = shard_rows;
    if let Some(row) = time_analyzer_pass() {
        timing.experiments.push(row);
    }
    let single_table = |singles: &mut Vec<(String, Table)>, name: &str| -> Option<Table> {
        let pos = singles.iter().position(|(n, _)| n == name)?;
        Some(singles.remove(pos).1)
    };

    let mut tables: Vec<(String, Table)> = Vec::new();
    let push = |tables: &mut Vec<(String, Table)>, stem: &str, t: Table| {
        tables.push((stem.to_owned(), t));
    };
    if let Some(t) = single_table(&mut singles, "table3") {
        push(&mut tables, "table3_apps", t);
    }
    if !savings.is_empty() {
        push(
            &mut tables,
            "fig7_memory_savings",
            experiments::figure7_table(&savings),
        );
    }
    if !hash_keys.is_empty() {
        push(
            &mut tables,
            "fig8_hash_keys",
            experiments::figure8_table(&hash_keys),
        );
    }
    if want("latency") {
        // Fresh sims arrive flat in (app-major, mode-minor) order; fold
        // them back into per-app triples.
        let mut suite: Vec<[SimResult; 3]> = match cached_suite {
            Some(s) => s,
            None => {
                let mut suite = Vec::new();
                let mut it = sims.into_iter();
                while let (Some(a), Some(b), Some(c)) = (it.next(), it.next(), it.next()) {
                    suite.push([a, b, c]);
                }
                // Cache before figure10 sorts the recorders, so the file's
                // bytes never depend on which figures were generated.
                // Faulted results never enter the cache.
                if fault_plan.is_none() {
                    experiments::write_suite_cache(&cache_path, &args.out_dir, &suite);
                }
                suite
            }
        };
        push(
            &mut tables,
            "table4_ksm_characterization",
            experiments::table4(&suite),
        );
        push(
            &mut tables,
            "fig9_mean_latency",
            experiments::figure9(&suite),
        );
        push(
            &mut tables,
            "fig10_tail_latency",
            experiments::figure10(&mut suite),
        );
        push(
            &mut tables,
            "fig11_bandwidth",
            experiments::figure11(&suite),
        );
    }
    if !engine.is_empty() {
        push(
            &mut tables,
            "table5_design",
            experiments::table5_from(&engine),
        );
    }
    for name in EXPERIMENTS {
        if let Some(t) = single_table(&mut singles, name) {
            push(&mut tables, name, t);
        }
    }
    if !seed_reps.is_empty() {
        push(
            &mut tables,
            "seed_sweep",
            experiments::seed_sweep_table(&seed_reps),
        );
    }
    if !fleet_cells.is_empty() {
        push(
            &mut tables,
            "fleet_serverless",
            experiments::fleet_table(&fleet_cells),
        );
    }
    if !chaos_cells.is_empty() {
        push(
            &mut tables,
            "fleet_chaos",
            experiments::fleet_chaos_table(&chaos_cells),
        );
    }
    if !fault_cells.is_empty() {
        push(
            &mut tables,
            "fault_campaign",
            experiments::fault_campaign_table(&fault_cells),
        );
    }
    let trace = match (&args.trace, &spool_dir) {
        (Some(path), Some(dir)) => {
            let events = trace_report::assemble_spooled_trace(path, dir, &labels)
                .unwrap_or_else(|e| panic!("--trace: could not assemble {}: {e}", path.display()));
            Some(TraceSummary {
                units: labels.len(),
                events,
                dropped,
            })
        }
        _ => None,
    };
    Ok(SuiteOutcome {
        tables,
        timing,
        trace,
    })
}

/// Times a full `pageforge-analyzer` pass over the workspace and returns
/// it as a timing row, so `perf_budget.toml` covers the CI analysis gate
/// alongside the experiments. Runs only when the workspace root
/// (`Cargo.toml` + `crates/`) is discoverable above the current
/// directory — out-of-tree invocations skip the row rather than fail.
/// The analyzer reads sources and `analyzer.toml` only; nothing here
/// touches `results/*.json`.
fn time_analyzer_pass() -> Option<ExperimentTiming> {
    let start = std::env::current_dir().ok()?;
    let mut dir = start.as_path();
    let root = loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            break dir.to_path_buf();
        }
        dir = dir.parent()?;
    };
    let started = std::time::Instant::now();
    pageforge_analyzer::analyze_workspace(&root).ok()?;
    Some(ExperimentTiming {
        name: "analyzer".to_owned(),
        secs: started.elapsed().as_secs_f64(),
        units: 1,
    })
}

/// Writes every table of a finished suite under `out_dir` and prints it.
pub fn print_and_write(outcome: &SuiteOutcome, out_dir: &Path) {
    for (stem, table) in &outcome.tables {
        table.print();
        table.write_json(out_dir, stem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_only_name_errors_listing_valid_names() {
        let mut args = BenchArgs::default();
        args.only.push("fig99".into());
        let err = match run_suite(&args) {
            Ok(_) => panic!("typo must not run anything"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown experiment `fig99`"), "{msg}");
        // The error enumerates every valid name so the typo is fixable
        // without opening the source.
        for name in EXPERIMENTS {
            assert!(msg.contains(name), "error must list `{name}`: {msg}");
        }
    }

    /// Asserts `args` fails validation on `flag`, with `needle` in the
    /// message. The label is the flag, not a unit's, so the error came
    /// before any unit ran (the default full-scale suite would take
    /// minutes otherwise).
    fn rejected_before_any_unit(args: &BenchArgs, flag: &str, needle: &str) {
        let err = match run_suite(args) {
            Ok(_) => panic!("{flag}: a bad flag must not run anything"),
            Err(e) => e,
        };
        assert_eq!(err.label, flag);
        assert!(err.message.contains(needle), "{err}");
    }

    #[test]
    fn missing_fault_plan_is_an_error() {
        let path = std::env::temp_dir().join("pageforge-suite-no-such-plan.json");
        let _ = std::fs::remove_file(&path);
        let path_text = path.display().to_string();
        let args = BenchArgs {
            faults: Some(path.clone()),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--faults", &path_text);
        let args = BenchArgs {
            fleet_faults: Some(path),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--fleet-faults", &path_text);
    }

    #[test]
    fn malformed_fault_plan_is_an_error() {
        let path = std::env::temp_dir().join("pageforge-suite-malformed-plan.json");
        std::fs::write(&path, "{\"seed\": 0, \"events\": [").expect("write plan");
        let path_text = path.display().to_string();
        let args = BenchArgs {
            faults: Some(path.clone()),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--faults", &path_text);
        let args = BenchArgs {
            fleet_faults: Some(path.clone()),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--fleet-faults", &path_text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seed_sweep_without_seeds_is_an_error() {
        let args = BenchArgs {
            only: vec!["seed_sweep".into()],
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--only seed_sweep", "--seeds");
    }

    #[test]
    fn table3_runs_through_the_scheduler() {
        let args = BenchArgs {
            smoke: true,
            jobs: 2,
            only: vec!["table3".into(), "ablation_inorder_core".into()],
            out_dir: std::env::temp_dir().join("pageforge-suite-unit-test"),
            ..BenchArgs::default()
        };
        let outcome = run_suite(&args).expect("suite runs");
        assert_eq!(outcome.tables.len(), 2);
        assert_eq!(outcome.tables[0].0, "table3_apps");
        assert_eq!(outcome.tables[1].0, "ablation_inorder_core");
        assert_eq!(outcome.timing.units, 2);
    }
}
