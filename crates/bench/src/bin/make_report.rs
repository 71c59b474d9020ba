//! Assembles every JSON table under `results/` into one Markdown report
//! (`results/REPORT.md`), so a full evaluation run can be archived or
//! diffed as a single artifact.
//!
//! Run the experiments first (e.g. `--bin run_all`), then:
//! `cargo run --release -p pageforge-bench --bin make_report`

use std::fmt::Write as _;
use std::path::Path;

use pageforge_bench::scheduler::RunTiming;
use pageforge_bench::trace_report::TraceAttribution;
use pageforge_bench::{BenchArgs, Table};
use pageforge_types::json::{self, FromJson};

/// Preferred ordering: paper artifacts first, then ablations/extensions.
const ORDER: &[&str] = &[
    "table3_apps",
    "fig7_memory_savings",
    "fig8_hash_keys",
    "table4_ksm_characterization",
    "fig9_mean_latency",
    "fig10_tail_latency",
    "fig11_bandwidth",
    "table5_design",
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
    "fleet_serverless",
    "fleet_chaos",
    "fault_campaign",
];

fn markdown_table(t: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {}\n", t.title);
    let _ = writeln!(out, "| {} |", t.headers.join(" | "));
    let _ = writeln!(out, "|{}|", vec!["---"; t.headers.len()].join("|"));
    for row in &t.rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out.push('\n');
    out
}

fn load(dir: &Path, name: &str) -> Option<Table> {
    let raw = std::fs::read_to_string(dir.join(format!("{name}.json"))).ok()?;
    Table::from_json(&json::parse(&raw).ok()?)
}

/// Renders the scheduler's timing record (written by `run_all` under
/// `<out_dir>/meta/timing.json`) as a Markdown section: per-experiment
/// wall-clock plus the parallel speedup actually achieved.
fn timing_section(dir: &Path) -> Option<String> {
    let raw = std::fs::read_to_string(dir.join("meta").join("timing.json")).ok()?;
    let timing = RunTiming::from_json(&json::parse(&raw).ok()?)?;
    let mut out = String::from("## Run timing (parallel experiment harness)\n\n");
    let _ = writeln!(
        out,
        "Scheduled {} work units across {} worker thread(s): total busy \
         time {:.1} s in {:.1} s wall-clock — a {:.2}x speedup.\n",
        timing.units,
        timing.jobs,
        timing.busy_secs(),
        timing.wall_secs,
        timing.speedup(),
    );
    out.push_str("| Experiment | Wall-clock (s) | Units |\n|---|---|---|\n");
    for exp in &timing.experiments {
        let _ = writeln!(out, "| {} | {:.2} | {} |", exp.name, exp.secs, exp.units);
    }
    out.push('\n');
    Some(out)
}

/// Renders the folded trace attribution (written by `trace_report` under
/// `<out_dir>/meta/trace_attribution.json`) as a Markdown section: per
/// component/kind event counts, summed cycles, and — where the Table 5
/// power model applies — energy.
fn trace_section(dir: &Path) -> Option<String> {
    let attr = TraceAttribution::read(dir)?;
    let mut out = String::from("## Trace attribution (per-component cycles and energy)\n\n");
    let _ = writeln!(
        out,
        "Folded from {} trace events ({} unparsed lines); see \
         OBSERVABILITY.md for the event schema. `—` marks components \
         without a power model.\n",
        attr.total_events, attr.unparsed_lines,
    );
    out.push_str("| Component | Kind | Events | Cycles | Energy (mJ) |\n|---|---|---|---|---|\n");
    for r in &attr.rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0} | {} |",
            r.component,
            r.kind,
            r.events,
            r.cycles,
            r.energy_mj
                .map_or_else(|| "—".to_owned(), |e| format!("{e:.4}")),
        );
    }
    out.push('\n');
    Some(out)
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = String::from(
        "# PageForge reproduction — generated evaluation report\n\n\
         Produced by `make_report` from the JSON artifacts under `results/`.\n\
         See EXPERIMENTS.md for paper-vs-measured commentary.\n\n",
    );
    let mut found = 0;
    for name in ORDER {
        if let Some(table) = load(&args.out_dir, name) {
            report.push_str(&markdown_table(&table));
            found += 1;
        }
    }
    if found == 0 {
        eprintln!(
            "no result JSONs under {} — run the bench binaries first (e.g. --bin run_all)",
            args.out_dir.display()
        );
        std::process::exit(1);
    }
    if let Some(timing) = timing_section(&args.out_dir) {
        report.push_str(&timing);
    }
    if let Some(trace) = trace_section(&args.out_dir) {
        report.push_str(&trace);
    }
    let path = args.out_dir.join("REPORT.md");
    std::fs::write(&path, &report).expect("write report");
    println!("wrote {} ({found} tables)", path.display());
}
