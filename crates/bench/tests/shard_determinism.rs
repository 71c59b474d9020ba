//! The sharded executor's byte-identity contract, end to end.
//!
//! `--shards N` may only change wall-clock, never bytes: every
//! `results/*.json` artifact and every observability snapshot must be
//! identical at any worker count — including under an active fault plan,
//! whose engine perturbations must land on the same cycles regardless of
//! which thread simulates them.

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
    let dir = std::env::temp_dir().join(format!("pageforge-shard-det-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the smoke-scale latency suite at one `--shards` level and
/// returns every JSON artifact it produced, keyed by file name.
fn run_latency(shards: usize, faults: Option<&Path>, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let out_dir = temp_dir(tag);
    let args = BenchArgs {
        smoke: true,
        jobs: 2,
        shards,
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
fn results_are_byte_identical_across_shard_levels() {
    let one = run_latency(1, None, "s1");
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
    let two = run_latency(2, None, "s2");
    let four = run_latency(4, None, "s4");
    assert_identical(&one, &two, "shards 1 vs 2");
    assert_identical(&one, &four, "shards 1 vs 4");
}

#[test]
fn faulted_results_are_byte_identical_across_shard_levels() {
    let dir = temp_dir("plan");
    let plan_path = dir.join("plan.json");
    let plan = FaultPlan::generate(7, 5_000_000, 24, 1, 10_000);
    assert!(!plan.is_empty(), "the generated plan must actually fault");
    plan.write_file(&plan_path).unwrap();
    let one = run_latency(1, Some(&plan_path), "f1");
    let four = run_latency(4, Some(&plan_path), "f4");
    assert_identical(&one, &four, "faulted shards 1 vs 4");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The digest cache elides *host* compute only: with the cache disabled
/// (`KsmConfig::digest_cache = false`, the full-recompute cross-check
/// mode) every `SimResult` byte and every snapshot metric except the
/// cache's own `ksm.digest.*` accounting must come out identical, at any
/// `--shards` level, through a workload whose churn model exercises
/// in-place dirty writes and CoW breaks.
#[test]
fn digest_cache_off_is_byte_identical_modulo_its_own_counters() {
    let run = |cache: bool, shards: usize| {
        let ksm_cfg = KsmConfig {
            digest_cache: cache,
            ..SimConfig::scaled_ksm()
        };
        let cfg = SimConfig::smoke("silo", DedupMode::Ksm(ksm_cfg), 11);
        let (result, snapshot) = System::with_shards(cfg, shards).run_observed();
        (result.to_json().to_string_compact(), snapshot)
    };
    let (r_on, s_on) = run(true, 1);
    let d_self = diff(&s_on, &run(true, 1).1);
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
    for (cache, shards) in [(false, 1), (false, 4), (true, 4)] {
        let what = format!("cache={cache} shards={shards}");
        let (r, s) = run(cache, shards);
        assert_eq!(r_on, r, "{what}: SimResult bytes differ");
        let d = diff(&s_on, &s);
        assert!(
            d.added.is_empty() && d.removed.is_empty(),
            "{what}: snapshot schema changed: {d:?}"
        );
        if cache {
            // Cache-on legs differ from the reference only by shard
            // count, and OBSERVABILITY.md pins ksm.digest.* as
            // shard-invariant (the CI snapshot gate diffs shard levels
            // at --threshold 0) — so *nothing* may move here.
            assert!(
                d.changed.is_empty(),
                "{what}: shard-invariant metrics moved: {:?}",
                d.changed
            );
        } else {
            for delta in &d.changed {
                assert!(
                    delta.name.starts_with("ksm.digest."),
                    "{what}: metric `{}` moved ({} -> {}); only ksm.digest.* may",
                    delta.name,
                    delta.before,
                    delta.after
                );
            }
        }
    }
}

/// Same contract under a non-empty fault plan: toggling the digest cache
/// may not move a byte of any cell's `SimResult`, faulted PageForge cells
/// included, at any shard level.
#[test]
fn digest_cache_off_is_byte_identical_under_a_fault_plan() {
    let plan = FaultPlan::generate(7, 5_000_000, 24, 1, 10_000);
    assert!(!plan.is_empty(), "the generated plan must actually fault");
    let run = |cache: bool, shards: usize| {
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
            System::with_shards(cfg, shards)
                .run()
                .to_json()
                .to_string_compact()
        })
    };
    let reference = run(true, 1);
    assert_eq!(reference, run(false, 1), "cache off moved faulted bytes");
    assert_eq!(reference, run(false, 4), "cache off + shards 4 moved bytes");
}

#[test]
fn obs_snapshots_are_identical_across_shard_levels() {
    let cells: Vec<(&str, DedupMode)> = vec![
        ("silo", DedupMode::PageForge(SimConfig::scaled_pageforge())),
        ("masstree", DedupMode::Ksm(SimConfig::scaled_ksm())),
    ];
    for (app, mode) in cells {
        let snap = |shards: usize| {
            let cfg = SimConfig::smoke(app, mode.clone(), 11);
            let (result, snapshot) = System::with_shards(cfg, shards).run_observed();
            (
                result.to_json().to_string_compact(),
                snapshot.to_json().to_string_compact(),
            )
        };
        let (r1, s1) = snap(1);
        let (r2, s2) = snap(2);
        let (r4, s4) = snap(4);
        assert_eq!(r1, r2, "{app} result, shards 1 vs 2");
        assert_eq!(r1, r4, "{app} result, shards 1 vs 4");
        assert_eq!(s1, s2, "{app} snapshot, shards 1 vs 2");
        assert_eq!(s1, s4, "{app} snapshot, shards 1 vs 4");
    }
}
