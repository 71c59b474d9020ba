//! Gates CI on the committed wall-time budget.
//!
//! ```text
//! timing_gate --budget perf_budget.toml <timing.json> [<timing.json> ...]
//! ```
//!
//! Each positional argument is a `meta/timing.json` written by `run_all`;
//! CI passes two smoke runs and the gate folds them best-of-N (minimum
//! per experiment, minimum wall-clock), so a single noisy scheduler
//! hiccup cannot fail the build. Exits 1 when any budgeted experiment
//! exceeds `reference × (1 + slack_frac)`, when the best wall-clock
//! exceeds the `[total] wall_secs` cap, or when the budget and the
//! timing record disagree about which experiments exist. Unusable input
//! (a bad flag, an unreadable file, a malformed budget or timing record)
//! prints `error:` and exits 2, so CI can tell a breach from a broken
//! gate. See `pageforge_bench::timing_gate` for the policy and DESIGN.md
//! for why wall-time is gated separately from byte-identity.

use pageforge_bench::scheduler::RunTiming;
use pageforge_bench::timing_gate::{evaluate, parse_budget, PerfBudget};
use pageforge_types::json::{self, FromJson};

const USAGE: &str = "usage: timing_gate --budget perf_budget.toml <timing.json> [...]";

fn load_timing(path: &str) -> Result<RunTiming, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let value = json::parse(&raw).map_err(|e| format!("{path}: {e}"))?;
    RunTiming::from_json(&value).ok_or_else(|| format!("{path}: not a run_all timing record"))
}

/// The budget path, the parsed budget and the timing records the
/// command line names.
fn inputs(argv: &[String]) -> Result<(String, PerfBudget, Vec<RunTiming>), String> {
    let mut budget_path: Option<&str> = None;
    let mut timing_paths: Vec<&str> = Vec::new();
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--budget" => {
                let path = iter
                    .next()
                    .ok_or(format!("--budget requires a path; {USAGE}"))?;
                budget_path = Some(path);
            }
            other if !other.starts_with("--") => timing_paths.push(other),
            other => return Err(format!("unknown argument `{other}`; {USAGE}")),
        }
    }
    let budget_path = budget_path.ok_or(USAGE)?;
    if timing_paths.is_empty() {
        return Err(USAGE.to_owned());
    }
    let budget_src = std::fs::read_to_string(budget_path)
        .map_err(|e| format!("could not read {budget_path}: {e}"))?;
    let budget = parse_budget(budget_path, &budget_src)?;
    let timings = timing_paths
        .iter()
        .map(|p| load_timing(p))
        .collect::<Result<_, _>>()?;
    Ok((budget_path.to_owned(), budget, timings))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (budget_path, budget, timings) = inputs(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });

    let report = evaluate(&budget, &timings);
    println!(
        "timing_gate: best of {} run(s) vs {budget_path} (slack {:.0}%)",
        timings.len(),
        budget.slack_frac * 100.0
    );
    for line in &report.lines {
        println!(
            "  {} {:<24} {:>8.2}s  (limit {:>8.2}s)",
            if line.breach { "FAIL" } else { "  ok" },
            line.name,
            line.best_secs,
            line.limit_secs
        );
    }
    for err in &report.errors {
        println!("  FAIL {err}");
    }
    if report.failed() {
        eprintln!("timing_gate: wall-time budget breached");
        std::process::exit(1);
    }
    println!("timing_gate: within budget");
}
