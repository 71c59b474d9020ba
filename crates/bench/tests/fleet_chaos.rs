//! The chaos campaign's determinism and no-op contracts, end to end.
//!
//! `results/fleet_chaos.json` is a pure function of `(config, seed)`:
//! `--jobs` may only change wall-clock, never bytes. And
//! `--fleet-faults` obeys the same empty-plan rule as `--faults`: an
//! empty plan is collapsed before any unit is built, so its run is
//! byte-identical to a run with no flag at all.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pageforge_bench::{suite, BenchArgs};
use pageforge_faults::{FleetFaultPlan, PLAN_VERSION};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pageforge-fleet-chaos-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the smoke-scale experiments in `only` at one `--jobs` level and
/// returns every JSON artifact produced, keyed by file name.
fn run_experiments(
    only: &[&str],
    jobs: usize,
    fleet_faults: Option<&Path>,
    tag: &str,
) -> BTreeMap<String, Vec<u8>> {
    let out_dir = temp_dir(tag);
    let args = BenchArgs {
        smoke: true,
        jobs,
        only: only.iter().map(|s| s.to_string()).collect(),
        out_dir: out_dir.clone(),
        fleet_faults: fleet_faults.map(Path::to_path_buf),
        ..BenchArgs::default()
    };
    let outcome = suite::run_suite(&args).expect("suite runs");
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
fn chaos_campaign_is_byte_identical_across_jobs_levels() {
    let reference = run_experiments(&["fleet_chaos"], 2, None, "c-j2");
    assert!(
        reference.contains_key("fleet_chaos.json"),
        "the chaos table is part of the compared artifact set: {:?}",
        reference.keys()
    );
    let jobs4 = run_experiments(&["fleet_chaos"], 4, None, "c-j4");
    assert_identical(&reference, &jobs4, "chaos jobs 2 vs 4");
}

#[test]
fn fleet_fault_plans_are_deterministic_and_empty_plans_are_no_ops() {
    let dir = temp_dir("plans");
    // A generated plan sized to the smoke fleet (4 hosts, 160 ticks).
    let plan_path = dir.join("chaos.json");
    let plan = FleetFaultPlan::generate(13, 4, 160, 2, 2, 2, 2);
    assert!(!plan.is_empty(), "the generated plan must schedule faults");
    plan.write_file(&plan_path).unwrap();
    let one = run_experiments(&["fleet"], 2, Some(&plan_path), "p-j2");
    let four = run_experiments(&["fleet"], 4, Some(&plan_path), "p-j4");
    assert_identical(&one, &four, "planned fleet jobs 2 vs 4");

    // The empty-plan rule: `--fleet-faults empty.json` must produce the
    // bytes of a run with no flag at all — and a non-empty plan must not
    // change the artifact set (the `chaos` section rides inside).
    let empty_path = dir.join("empty.json");
    std::fs::write(
        &empty_path,
        format!("{{\"version\":{PLAN_VERSION},\"seed\":0,\"events\":[]}}"),
    )
    .unwrap();
    let unflagged = run_experiments(&["fleet"], 2, None, "p-none");
    let empty = run_experiments(&["fleet"], 2, Some(&empty_path), "p-empty");
    assert_identical(&unflagged, &empty, "empty plan vs no flag");
    assert_eq!(
        unflagged.keys().collect::<Vec<_>>(),
        one.keys().collect::<Vec<_>>(),
        "fleet fault plans may not change the artifact set"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
