//! Compares two observability snapshot JSONs metric-by-metric.
//!
//! ```text
//! snapshot_diff <before.json> <after.json> [--threshold F]
//! ```
//!
//! Prints every added, removed, and changed metric with its relative
//! delta, then exits 1 when the movement exceeds the threshold (default
//! 0.0 — any difference at all is a regression). Metrics that appear or
//! vanish always count as regressions, whatever the threshold: a schema
//! change is never "within tolerance". Unusable input (a bad flag, a
//! missing or malformed snapshot) prints `error:` and exits 2.

use pageforge_bench::snapshot_diff::diff;
use pageforge_obs::Snapshot;
use pageforge_types::json::{self, FromJson};

const USAGE: &str = "usage: snapshot_diff <before.json> <after.json> [--threshold F]";

fn load(path: &str) -> Result<Snapshot, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let value = json::parse(&raw).map_err(|e| format!("{path}: {e}"))?;
    Snapshot::from_json(&value).ok_or_else(|| format!("{path}: not a snapshot object"))
}

/// The two snapshots and the threshold the command line names.
fn inputs(argv: &[String]) -> Result<(Snapshot, Snapshot, f64), String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.0_f64;
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = iter
                    .next()
                    .ok_or(format!("--threshold requires a value; {USAGE}"))?;
                threshold = v.parse().ok().filter(|t: &f64| *t >= 0.0).ok_or(format!(
                    "--threshold takes a non-negative number, not `{v}`"
                ))?;
            }
            other if !other.starts_with("--") => paths.push(other),
            other => return Err(format!("unknown argument `{other}`; {USAGE}")),
        }
    }
    let [before, after] = paths[..] else {
        return Err(USAGE.to_owned());
    };
    Ok((load(before)?, load(after)?, threshold))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (before, after, threshold) = inputs(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let d = diff(&before, &after);
    print!("{}", d.render());
    if d.exceeds(threshold) {
        eprintln!("regression: metric movement exceeds threshold {threshold}");
        std::process::exit(1);
    }
}
