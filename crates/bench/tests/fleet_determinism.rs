//! The fleet experiment's byte-identity contract, end to end.
//!
//! DESIGN.md §10: `results/fleet_serverless.json` is a pure function of
//! `(config, seed)` — `--jobs` (experiment scheduler workers) may only
//! change wall-clock, never bytes, including under a non-empty fault
//! plan whose per-host injectors must perturb the same candidates
//! regardless of which worker thread runs each fleet cell.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pageforge_bench::{suite, BenchArgs};
use pageforge_faults::FaultPlan;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pageforge-fleet-det-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the smoke-scale fleet family at one `--jobs` level and returns
/// every JSON artifact it produced, keyed by file name.
fn run_fleet(jobs: usize, faults: Option<&Path>, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let out_dir = temp_dir(tag);
    let args = BenchArgs {
        smoke: true,
        jobs,
        only: vec!["fleet".into()],
        out_dir: out_dir.clone(),
        faults: faults.map(Path::to_path_buf),
        ..BenchArgs::default()
    };
    let outcome = suite::run_suite(&args).expect("fleet suite runs");
    for (stem, table) in &outcome.tables {
        table.write_json(&out_dir, stem).expect("write table");
    }
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(&out_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            files.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    files
}

fn assert_identical(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: file sets differ"
    );
    for (name, bytes) in a {
        assert_eq!(bytes, &b[name], "{what}: {name} bytes differ");
    }
}

#[test]
fn fleet_results_are_byte_identical_across_jobs_levels() {
    let reference = run_fleet(2, None, "j2");
    assert!(
        reference.contains_key("fleet_serverless.json"),
        "the fleet table is part of the compared artifact set: {:?}",
        reference.keys()
    );
    let jobs4 = run_fleet(4, None, "j4");
    assert_identical(&reference, &jobs4, "jobs 2 vs 4");
}

#[test]
fn faulted_fleet_results_are_byte_identical_across_jobs_levels() {
    let dir = temp_dir("plan");
    let plan_path = dir.join("plan.json");
    let plan = FaultPlan::generate(7, 5_000_000, 24, 1, 10_000);
    assert!(!plan.is_empty(), "the generated plan must actually fault");
    plan.write_file(&plan_path).unwrap();
    let one = run_fleet(2, Some(&plan_path), "f2");
    let four = run_fleet(4, Some(&plan_path), "f4");
    assert_identical(&one, &four, "faulted jobs 2 vs 4");
    // A plan must not be a silent no-op, but neither may it leak into
    // the artifact names: the faulted run produces the same file set as
    // the fault-free one (the `degraded` section rides inside the JSON).
    let clean = run_fleet(2, None, "clean");
    assert_eq!(
        clean.keys().collect::<Vec<_>>(),
        one.keys().collect::<Vec<_>>(),
        "fault plans may not change the artifact set"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
