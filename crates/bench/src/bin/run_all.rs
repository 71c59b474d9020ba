//! Regenerates the complete evaluation: every table, figure, ablation, and
//! extension, in paper order, on the parallel experiment scheduler.
//!
//! * `--jobs N` fans the work units across N threads; results are
//!   byte-identical at any level (each unit is seed-isolated and the merge
//!   is ordered).
//! * `--quick` produces the whole set in about a minute; `--smoke` is the
//!   CI-sized variant; the full-scale run takes tens of minutes.
//! * `--only fig7,latency` restricts the run to named experiments.
//!
//! Timing lands in `<out>/meta/timing.json` (outside `results/*.json`, so
//! result artifacts stay diffable across jobs levels); `make_report`
//! renders it into REPORT.md.

use pageforge_bench::args::print_table2;
use pageforge_bench::{suite, BenchArgs};
use pageforge_fleet::ControlPlane;
use pageforge_obs::Snapshot;
use pageforge_sim::{DedupMode, SimConfig, System};
use pageforge_types::json::ToJson;

fn main() {
    let args = BenchArgs::parse();
    print_table2();

    if args.trace.is_some() && !pageforge_obs::trace::compiled_in() {
        eprintln!(
            "warning: --trace given but tracing is compiled out; \
             rebuild with `--features trace` to capture events"
        );
    }

    let outcome = match suite::run_suite(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    suite::print_and_write(&outcome, &args.out_dir);
    outcome.timing.table().print();
    outcome.timing.write(&args.out_dir);

    if let (Some(trace_path), Some(summary)) = (&args.trace, &outcome.trace) {
        println!(
            "Trace for {} unit(s) ({} events) streamed to {}.",
            summary.units,
            summary.events,
            trace_path.display()
        );
        // Streaming collectors flush instead of evicting; a nonzero drop
        // count means the spool pipeline lost events.
        if summary.dropped != 0 {
            eprintln!(
                "error: trace collectors dropped {} event(s); the spooled \
                 trace at {} is incomplete",
                summary.dropped,
                trace_path.display()
            );
            std::process::exit(1);
        }
    }

    // `--snapshot`: run one KSM, one PageForge, and one fleet probe
    // cell at this run's scale/seed/shards and write their unioned
    // observability snapshot. Snapshots are part of the determinism
    // contract — byte-identical at every `--jobs`/`--shards` level — so
    // CI diffs two of these from different parallelism levels with
    // `snapshot_diff --threshold 0`.
    if let Some(path) = &args.snapshot {
        let probe = |mode: DedupMode| {
            let cfg = args.scale().sim_config("silo", mode, args.seed);
            System::with_shards(cfg, args.shards).run_observed().1
        };
        let fleet_probe = ControlPlane::new(args.scale().fleet_config(args.seed))
            .run(args.shards)
            .1;
        let snap = Snapshot::union([
            probe(DedupMode::Ksm(SimConfig::scaled_ksm())).prefixed("ksm"),
            probe(DedupMode::PageForge(SimConfig::scaled_pageforge())).prefixed("pageforge"),
            fleet_probe.prefixed("fleet"),
        ]);
        std::fs::write(path, snap.to_json().to_string_pretty())
            .unwrap_or_else(|e| panic!("--snapshot: could not write {}: {e}", path.display()));
        println!("Probe-cell snapshot written to {}.", path.display());
    }

    println!(
        "\nAll experiments complete. JSON copies under {}.",
        args.out_dir.display()
    );
}
