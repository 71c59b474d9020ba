//! Integration tests for the parallel experiment scheduler: the suite's
//! emitted JSON must be byte-identical regardless of `--jobs`, and worker
//! panics must surface as errors through the public API.

use std::fs;
use std::path::{Path, PathBuf};

use pageforge_bench::scheduler::{run_units, Unit};
use pageforge_bench::suite;
use pageforge_bench::BenchArgs;

/// Collects `(file name, bytes)` for every JSON file under `dir`,
/// sorted by name.
fn json_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("read out dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, fs::read(&path).expect("read json")));
        }
    }
    out.sort();
    out
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pageforge-sched-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create out dir");
    dir
}

fn smoke_args(jobs: usize, out_dir: PathBuf) -> BenchArgs {
    BenchArgs {
        smoke: true,
        jobs,
        // A multi-unit subset that exercises fan-out, ordered merge, and
        // the per-profile unit splitting without the cost of the latency
        // suite.
        only: vec![
            "fig7".into(),
            "fig8".into(),
            "table5".into(),
            "fault_campaign".into(),
        ],
        out_dir,
        ..BenchArgs::default()
    }
}

/// The headline determinism guarantee: `--jobs 4` produces byte-identical
/// result files to `--jobs 1`.
#[test]
fn parallel_results_are_byte_identical_to_sequential() {
    let dir_seq = fresh_dir("seq");
    let dir_par = fresh_dir("par");

    let seq = suite::run_suite(&smoke_args(1, dir_seq.clone())).expect("sequential suite");
    let par = suite::run_suite(&smoke_args(4, dir_par.clone())).expect("parallel suite");
    assert_eq!(seq.timing.jobs, 1);
    assert_eq!(par.timing.jobs, 4);
    assert_eq!(seq.timing.units, par.timing.units);

    suite::print_and_write(&seq, &dir_seq).expect("write sequential tables");
    suite::print_and_write(&par, &dir_par).expect("write parallel tables");

    let a = json_files(&dir_seq);
    let b = json_files(&dir_par);
    assert!(!a.is_empty(), "suite emitted no JSON files");
    assert_eq!(
        a.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        "file sets differ between jobs=1 and jobs=4"
    );
    for ((name, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(bytes_a, bytes_b, "{name} differs between jobs=1 and jobs=4");
    }

    let _ = fs::remove_dir_all(&dir_seq);
    let _ = fs::remove_dir_all(&dir_par);
}

/// A panicking unit fails the whole run with its label, instead of
/// hanging the pool or being silently lost.
#[test]
fn worker_panic_propagates_as_error() {
    let units: Vec<Unit<u32>> = (0..8)
        .map(|i| {
            Unit::new("panic_test", format!("unit/{i}"), move || {
                if i == 5 {
                    panic!("injected failure");
                }
                i
            })
        })
        .collect();
    let err = run_units(4, units).expect_err("panic must fail the run");
    assert_eq!(err.label, "unit/5");
    assert!(
        err.message.contains("injected failure"),
        "got: {}",
        err.message
    );
}
