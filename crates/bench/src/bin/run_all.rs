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
        Err(e) => fail(&e.to_string()),
    };
    if let Err(e) = suite::print_and_write(&outcome, &args.out_dir) {
        fail(&format!(
            "could not write results under {}: {e}",
            args.out_dir.display()
        ));
    }
    outcome.timing.table().print();
    if let Err(e) = outcome.timing.write(&args.out_dir) {
        fail(&format!("could not write the timing record: {e}"));
    }

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
            fail(&format!(
                "trace collectors dropped {} event(s); the spooled trace at {} \
                 is incomplete",
                summary.dropped,
                trace_path.display()
            ));
        }
    }

    // `--snapshot`: union the suite's silo KSM and PageForge probe cells
    // with one fleet probe at this run's scale/seed and write the
    // observability snapshot. Snapshots are part of the determinism
    // contract — byte-identical at every `--jobs` level — so CI diffs two
    // of these from different parallelism levels with
    // `snapshot_diff --threshold 0`.
    if let (Some(path), Some(probes)) = (&args.snapshot, outcome.snapshot) {
        let fleet_probe = ControlPlane::new(args.scale().fleet_config(args.seed))
            .run()
            .1;
        let snap = Snapshot::union([probes, fleet_probe.prefixed("fleet")]);
        if let Err(e) = std::fs::write(path, snap.to_json().to_string_pretty()) {
            fail(&format!(
                "--snapshot: could not write {}: {e}",
                path.display()
            ));
        }
        println!("Probe-cell snapshot written to {}.", path.display());
    }

    println!(
        "\nAll experiments complete. JSON copies under {}.",
        args.out_dir.display()
    );
}

/// Prints `error: <message>` and exits 1.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}
