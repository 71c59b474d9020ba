//! The complete evaluation, expressed as independent work units for the
//! parallel scheduler.
//!
//! The suite is a graph of full-system simulation cells. Every experiment
//! that simulates the whole system declares the `SimConfig`s it reads;
//! equal configs give equal results, so the suite schedules one unit per
//! distinct config, and each table is a pure function of its cells'
//! results once the pool drains. The other experiments split into one
//! unit per app or campaign cell where they are separable, one unit
//! otherwise. Every unit derives its values only from `(seed, scale)`
//! and the merge happens in submission order, so the emitted
//! `results/*.json` files are byte-identical at any `--jobs` level.

use std::path::Path;

use pageforge_obs::Snapshot;
use pageforge_sim::{SimResult, System};
use pageforge_types::stats::RunningStats;
use pageforge_vm::AppProfile;

use crate::experiments::{
    self, Cell, ChaosCell, FaultCell, FleetCell, HashKeyOutcome, MemorySavings,
};
use crate::report::Table;
use crate::scheduler::{
    run_units, run_units_spooled, ExperimentTiming, RunTiming, SchedulerError, Unit,
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
    /// One full-system simulation cell, with its metric snapshot.
    Cell(Box<(SimResult, Snapshot)>),
    /// One app's Table 5 Scan-Table cycle distribution.
    Engine(String, RunningStats),
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
    /// The silo KSM and PageForge probe cells' snapshots, unioned under
    /// the `ksm/` and `pageforge/` prefixes; `None` unless `--snapshot`
    /// was given.
    pub snapshot: Option<Snapshot>,
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
}

/// Runs the selected experiments on `args.jobs` workers and reassembles
/// the tables. Results are byte-identical at any `--jobs` level.
///
/// Bad flags — an `--only` typo, `--only seed_sweep` without
/// `--seeds >= 2`, a missing or malformed `--faults`/`--fleet-faults`
/// plan, an `--out` directory or a `--trace`/`--snapshot` parent that
/// cannot be created, a `--trace` path that is a directory or whose
/// spool directory cannot be created — return an error naming the flag
/// before any unit runs.
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

    // Every output location must exist before any unit runs, so a bad
    // path fails at once instead of after the whole suite.
    let outputs = [
        ("--out", Some(args.out_dir.as_path())),
        ("--trace", args.trace.as_deref().and_then(Path::parent)),
        (
            "--snapshot",
            args.snapshot.as_deref().and_then(Path::parent),
        ),
    ];
    for (flag, dir) in outputs {
        if let Some(dir) = dir.filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| SchedulerError {
                label: flag.into(),
                message: format!("cannot create directory {}: {e}", dir.display()),
            })?;
        }
    }

    // With `--trace`, units stream their events to per-unit spool files
    // beside the trace mid-run (nothing buffers or drops); the spools are
    // folded into the final JSONL after the pool drains.
    let spool_dir = match &args.trace {
        Some(path) => {
            let trace_error = |message| SchedulerError {
                label: "--trace".into(),
                message,
            };
            if path.is_dir() {
                return Err(trace_error(format!(
                    "{} is a directory, not a trace file",
                    path.display()
                )));
            }
            let dir = std::path::PathBuf::from(format!("{}.spool.d", path.display()));
            std::fs::create_dir_all(&dir).map_err(|e| {
                trace_error(format!(
                    "cannot create the spool directory {}: {e}",
                    dir.display()
                ))
            })?;
            Some(dir)
        }
        None => None,
    };

    // The full-system simulation cells each experiment reads, in
    // EXPERIMENTS order, so a shared cell's first reader owns its time.
    // `--faults` applies to the latency suite's PageForge cells only; the
    // plan is part of their configs, so they never merge with unfaulted
    // cells.
    let mut readers: Vec<(&str, Vec<Cell>)> = Vec::new();
    if want("latency") {
        let cells = experiments::latency_cells(seed, scale, fault_plan.as_ref());
        readers.push(("latency", cells));
    }
    if want("ablation_cache_bypass") {
        let cells = experiments::ablation_cache_bypass_cells(seed, scale);
        readers.push(("ablation_cache_bypass", cells));
    }
    if want("ablation_modules") {
        let cells = experiments::ablation_modules_cells(seed, scale);
        readers.push(("ablation_modules", cells));
    }
    if want("sweep_scan_rate") {
        let cells = experiments::sweep_scan_rate_cells(seed, scale);
        readers.push(("sweep_scan_rate", cells));
    }
    if want("extension_heterogeneous") {
        let cells = experiments::extension_heterogeneous_cells(seed, scale);
        readers.push(("extension_heterogeneous", cells));
    }
    if want("seed_sweep") && args.seeds >= 2 {
        let cells = experiments::seed_sweep_cells(seed, args.seeds, scale);
        readers.push(("seed_sweep", cells));
    }
    if args.snapshot.is_some() {
        readers.push(("snapshot", experiments::probe_cells(seed, scale)));
    }

    // One unit per distinct config. A cell is a pure function of its
    // config, so each reader just records where its cells landed.
    let mut cells: Vec<(&str, Cell)> = Vec::new();
    let reads: Vec<(&str, Vec<usize>)> = readers
        .into_iter()
        .map(|(name, declared)| {
            let ids = declared
                .into_iter()
                .map(|cell| {
                    cells
                        .iter()
                        .position(|(_, c)| c.config == cell.config)
                        .unwrap_or_else(|| {
                            cells.push((name, cell));
                            cells.len() - 1
                        })
                })
                .collect();
            (name, ids)
        })
        .collect();

    // Build the unit list, heaviest first so the pool stays busy: the
    // simulation cells, then the other experiments. Assembly below keys
    // on the experiment name, not position.
    let mut units: Vec<Unit<UnitOutput>> = Vec::new();
    for (owner, cell) in cells {
        let Cell { label, config } = cell;
        units.push(Unit::new(owner, label, move || {
            UnitOutput::Cell(Box::new(System::new(config).run_observed()))
        }));
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
                    UnitOutput::Chaos(experiments::fleet_chaos_cell(rate, rep, seed, scale))
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

    let started = std::time::Instant::now();
    let results = match &spool_dir {
        Some(dir) => run_units_spooled(args.jobs, units, dir)?,
        None => run_units(args.jobs, units)?,
    };
    let mut timing = RunTiming::from_results(args.jobs, started.elapsed().as_secs_f64(), &results);
    let labels: Vec<String> = results.iter().map(|r| r.label.clone()).collect();

    // Reassemble in paper order, keyed by experiment name.
    let mut savings = Vec::new();
    let mut hash_keys = Vec::new();
    let mut sims: Vec<(SimResult, Snapshot)> = Vec::new();
    let mut engine = Vec::new();
    let mut singles: Vec<(String, Table)> = Vec::new();
    let mut fleet_cells: Vec<FleetCell> = Vec::new();
    let mut chaos_cells: Vec<ChaosCell> = Vec::new();
    let mut fault_cells: Vec<FaultCell> = Vec::new();
    for r in results {
        match r.value {
            UnitOutput::Table(t) => singles.push((r.experiment, t)),
            UnitOutput::Savings(s) => savings.push(s),
            UnitOutput::HashKeys(h) => hash_keys.push(h),
            UnitOutput::Cell(cell) => sims.push(*cell),
            UnitOutput::Engine(name, stats) => engine.push((name, stats)),
            UnitOutput::Fleet(cell) => fleet_cells.push(cell),
            UnitOutput::Chaos(cell) => chaos_cells.push(cell),
            UnitOutput::Fault(cell) => fault_cells.push(cell),
        }
    }
    if let Some(row) = time_analyzer_pass() {
        timing.experiments.push(row);
    }
    // Every simulating experiment's tables are a pure function of its
    // cells' results. Each reader folds a copy of them in the order it
    // declared: its cells need not sit together in the pool, and the
    // builders sort latency recorders in place.
    let mut latency_tables = Vec::new();
    let mut snapshot = None;
    for (name, ids) in reads {
        let copy = || -> Vec<SimResult> { ids.iter().map(|&id| sims[id].0.clone()).collect() };
        let table = match name {
            "latency" => {
                latency_tables = experiments::latency_tables(&mut copy());
                continue;
            }
            "snapshot" => {
                let [ksm, pf] = ids[..] else {
                    unreachable!("two probe cells")
                };
                snapshot = Some(Snapshot::union([
                    sims[ksm].1.prefixed("ksm"),
                    sims[pf].1.prefixed("pageforge"),
                ]));
                continue;
            }
            "ablation_cache_bypass" => experiments::ablation_cache_bypass_table(&mut copy()),
            "ablation_modules" => experiments::ablation_modules_table(&copy()),
            "sweep_scan_rate" => experiments::sweep_scan_rate_table(&mut copy()),
            "extension_heterogeneous" => experiments::extension_heterogeneous_table(&mut copy()),
            "seed_sweep" => experiments::seed_sweep_table(&mut copy()),
            _ => unreachable!("`{name}` declares no cells"),
        };
        singles.push((name.to_owned(), table));
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
    tables.extend(latency_tables);
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
            let events = trace_report::assemble_spooled_trace(path, dir, &labels).map_err(|e| {
                SchedulerError {
                    label: "--trace".into(),
                    message: format!("could not assemble {}: {e}", path.display()),
                }
            })?;
            Some(TraceSummary {
                units: labels.len(),
                events,
            })
        }
        _ => None,
    };
    Ok(SuiteOutcome {
        tables,
        timing,
        trace,
        snapshot,
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

/// Prints every table of a finished suite and writes it under `out_dir`.
pub fn print_and_write(outcome: &SuiteOutcome, out_dir: &Path) -> std::io::Result<()> {
    for (stem, table) in &outcome.tables {
        table.print();
        table.write_json(out_dir, stem)?;
    }
    Ok(())
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
    fn uncreatable_output_paths_are_errors() {
        let file = std::env::temp_dir().join("pageforge-suite-regular-file");
        std::fs::write(&file, "not a directory").expect("write file");
        let file_text = file.display().to_string();
        let args = BenchArgs {
            out_dir: file.join("out"),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--out", &file_text);
        let out_dir = std::env::temp_dir().join("pageforge-suite-output-paths");
        let args = BenchArgs {
            out_dir: out_dir.clone(),
            trace: Some(file.join("trace.jsonl")),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--trace", &file_text);
        let args = BenchArgs {
            out_dir: out_dir.clone(),
            snapshot: Some(file.join("snapshot.json")),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--snapshot", &file_text);
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn unusable_trace_paths_are_errors() {
        let dir = std::env::temp_dir().join("pageforge-suite-trace-paths");
        std::fs::create_dir_all(&dir).expect("create dir");
        let out_dir = dir.join("out");
        // An existing directory is not a trace file.
        let args = BenchArgs {
            out_dir: out_dir.clone(),
            trace: Some(dir.clone()),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--trace", "is a directory");
        // A regular file where the spool directory goes.
        let spool = dir.join("trace.jsonl.spool.d");
        std::fs::write(&spool, "not a directory").expect("write file");
        let args = BenchArgs {
            out_dir,
            trace: Some(dir.join("trace.jsonl")),
            ..BenchArgs::default()
        };
        rejected_before_any_unit(&args, "--trace", &spool.display().to_string());
        let _ = std::fs::remove_dir_all(&dir);
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

    /// The sweep and both silo ablations read 17 configs, 12 of them
    /// distinct. Each distinct cell runs once, and each experiment's
    /// table is byte-identical to the one it builds when run alone.
    #[test]
    fn shared_cells_run_once_and_tables_are_unchanged() {
        use pageforge_types::json::ToJson;
        let run = |only: &[&str]| {
            let args = BenchArgs {
                smoke: true,
                jobs: 2,
                only: only.iter().map(|name| (*name).to_owned()).collect(),
                out_dir: std::env::temp_dir().join("pageforge-suite-cell-graph"),
                ..BenchArgs::default()
            };
            run_suite(&args).expect("suite runs")
        };
        let names = [
            "sweep_scan_rate",
            "ablation_cache_bypass",
            "ablation_modules",
        ];
        let together = run(&names);
        assert_eq!(together.timing.units, 12);
        for name in names {
            let alone = run(&[name]);
            let [(stem, table)] = &alone.tables[..] else {
                panic!("{name} builds one table")
            };
            let (_, shared) = together
                .tables
                .iter()
                .find(|(s, _)| s == stem)
                .expect("the shared run builds every table");
            assert_eq!(
                shared.to_json().to_string_pretty(),
                table.to_json().to_string_pretty(),
                "{name}"
            );
        }
    }
}
