//! Byte-identity under an active fault plan and with the digest cache
//! off, end to end.
//!
//! A fault plan's engine perturbations must land on the same cycles
//! whichever scheduler worker simulates the cell, and the KSM digest
//! cache may elide host compute only: neither may move a byte of any
//! `results/*.json` artifact or any metric outside the cache's own.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pageforge_bench::experiments::{self, Scale};
use pageforge_bench::snapshot_diff::diff;
use pageforge_bench::{suite, BenchArgs};
use pageforge_faults::FaultPlan;
use pageforge_ksm::KsmConfig;
use pageforge_sim::{DedupMode, SimConfig, System};
use pageforge_types::json::ToJson;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pageforge-fault-cache-det-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the smoke-scale latency suite at one `--jobs` level and returns
/// every JSON artifact it produced, keyed by file name.
fn run_latency(jobs: usize, faults: Option<&Path>, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let out_dir = temp_dir(tag);
    let args = BenchArgs {
        smoke: true,
        jobs,
        only: vec!["latency".into()],
        out_dir: out_dir.clone(),
        faults: faults.map(Path::to_path_buf),
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

#[test]
fn faulted_results_are_byte_identical_across_jobs_levels() {
    let dir = temp_dir("plan");
    let plan_path = dir.join("plan.json");
    let plan = FaultPlan::generate(7, 5_000_000, 24, 1, 10_000);
    assert!(!plan.is_empty(), "the generated plan must actually fault");
    plan.write_file(&plan_path).unwrap();
    let one = run_latency(1, Some(&plan_path), "f1");
    assert_eq!(
        one.keys().collect::<Vec<_>>(),
        [
            "fig10_tail_latency.json",
            "fig11_bandwidth.json",
            "fig9_mean_latency.json",
            "table4_ksm_characterization.json",
        ],
        "the latency suite's four tables are the compared artifact set"
    );
    let two = run_latency(2, Some(&plan_path), "f2");
    assert_eq!(one, two, "faulted latency suite, jobs 1 vs 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The digest cache elides *host* compute only: with the cache disabled
/// (`KsmConfig::digest_cache = false`, the full-recompute cross-check
/// mode) every `SimResult` byte and every snapshot metric except the
/// cache's own `ksm.digest.*` accounting must come out identical, through
/// a workload whose churn model exercises in-place dirty writes and CoW
/// breaks.
#[test]
fn digest_cache_off_is_byte_identical_modulo_its_own_counters() {
    let run = |cache: bool| {
        let ksm_cfg = KsmConfig {
            digest_cache: cache,
            ..SimConfig::scaled_ksm()
        };
        let cfg = SimConfig::smoke("silo", DedupMode::Ksm(ksm_cfg), 11);
        let (result, snapshot) = System::new(cfg).run_observed();
        (result.to_json().to_string_compact(), snapshot)
    };
    let (r_on, s_on) = run(true);
    let d_self = diff(&s_on, &run(true).1);
    assert!(d_self.is_empty(), "reference run is not reproducible");
    // The cache must actually be in play, or this test proves nothing.
    assert!(
        d_self.unchanged > 0
            && s_on
                .to_json()
                .to_string_compact()
                .contains("\"ksm.digest.hits\""),
        "snapshot must carry digest-cache accounting"
    );
    let (r_off, s_off) = run(false);
    assert_eq!(r_on, r_off, "cache off: SimResult bytes differ");
    let d = diff(&s_on, &s_off);
    assert!(
        d.added.is_empty() && d.removed.is_empty(),
        "cache off: snapshot schema changed: {d:?}"
    );
    for delta in &d.changed {
        assert!(
            delta.name.starts_with("ksm.digest."),
            "cache off: metric `{}` moved ({} -> {}); only ksm.digest.* may",
            delta.name,
            delta.before,
            delta.after
        );
    }
}

/// Same contract under a non-empty fault plan: toggling the digest cache
/// may not move a byte of any cell's `SimResult`, faulted PageForge cells
/// included.
#[test]
fn digest_cache_off_is_byte_identical_under_a_fault_plan() {
    let plan = FaultPlan::generate(7, 5_000_000, 24, 1, 10_000);
    assert!(!plan.is_empty(), "the generated plan must actually fault");
    let run = |cache: bool| {
        let ksm_cfg = KsmConfig {
            digest_cache: cache,
            ..SimConfig::scaled_ksm()
        };
        let modes = [
            DedupMode::Ksm(ksm_cfg),
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
        ];
        modes.map(|mode| {
            let cfg = experiments::latency_config("masstree", mode, 11, Scale::Smoke, Some(&plan));
            System::new(cfg).run().to_json().to_string_compact()
        })
    };
    assert_eq!(run(true), run(false), "cache off moved faulted bytes");
}
