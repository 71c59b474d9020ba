//! End-to-end and per-layer benchmark of the PageForge simulator.
//!
//! ```text
//! perfbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! For each workload (all four without `--workload`) the benchmark runs
//! fresh child processes of itself, one at a time: a reference run whose
//! result must match the digest committed in `expected.json`, an audit
//! of the workload's premerge, then timed repetitions while the next one
//! still ends within `--seconds`. A fresh process per repetition matters:
//! the simulator memoizes VM image contents process-wide, so a second
//! repetition in one process would time the memo instead of the setup.
//! It prints one JSON line per workload: `{"correct", "attempted",
//! "failed", "metrics"}`, with the end-to-end metrics, or with `--trace 1`
//! the per-layer ones, each the median over the repetitions. End-to-end
//! times are in reference-host seconds: every repetition also times a
//! calibration kernel, and its times are divided by how much slower than
//! the reference host that kernel ran. See README.md.

mod child;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use pageforge_types::json::{self, ToJson, Value};

use child::Report;
use workloads::{Scale, Workload, WORKLOADS};

/// `(name, unit, better)` of every end-to-end metric, in print order.
const END_TO_END: [(&str, &str, &str); 4] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_mcycles_per_s", "Mcycles/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in print order.
const PER_LAYER: [(&str, &str, &str); 30] = [
    ("sim.setup_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.queries_completed", "count", "higher"),
    ("sim.epochs", "count", "lower"),
    ("workloads.next_touch_ns", "ns", "lower"),
    ("cache.access_ns", "ns", "lower"),
    ("cache.l3_miss_rate", "ratio", "lower"),
    ("mem.read_line_ns", "ns", "lower"),
    ("mem.dram_reads", "count", "lower"),
    ("mem.demand_lines", "count", "lower"),
    ("mem.pageforge_lines", "count", "lower"),
    ("mem.row_hit_ratio", "ratio", "higher"),
    ("mem.queue_wait_cycles", "cycles", "lower"),
    ("core.premerge_s", "s", "lower"),
    ("core.engine_runs", "count", "lower"),
    ("core.engine_lines_fetched", "count", "lower"),
    ("core.candidates", "count", "lower"),
    ("core.merge_yield", "ratio", "higher"),
    ("ksm.premerge_s", "s", "lower"),
    ("ksm.page_checksum_ns", "ns", "lower"),
    ("ksm.hash_ops", "count", "lower"),
    ("ksm.comparisons", "count", "lower"),
    ("ksm.digest_hit_ratio", "ratio", "higher"),
    ("ecc.page_key_ns", "ns", "lower"),
    ("vm.synth_s", "s", "lower"),
    ("vm.map_s", "s", "lower"),
    ("vm.churn_step_ms", "ms", "lower"),
    ("vm.merges", "count", "higher"),
    ("vm.cow_breaks", "count", "lower"),
    ("host.slowdown", "ratio", "lower"),
];

/// The seed of every pass's reference run, and the default `--seed`.
const REFERENCE_SEED: u64 = 0xC0FFEE;

/// Per scale and workload, the digest of the `SimResult` at
/// `REFERENCE_SEED` (README.md, "Re-baselining").
const EXPECTED: &str = include_str!("../expected.json");

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    role: Role,
}

/// What this process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Runs the benchmark, starting the children below.
    Parent,
    /// `--child W`: one timed repetition, printed as a `Report`.
    Run,
    /// `--audit W`: one premerge audit, printed as a `Report`.
    Audit,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: REFERENCE_SEED,
        seconds: 25.0,
        trace: false,
        scale: Scale::Quick,
        role: Role::Parent,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--child" | "--audit" => {
                let name = value()?;
                let w = workloads::by_name(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; one of {}", names.join(", "))
                })?;
                parsed.workload = Some(w);
                match flag.as_str() {
                    "--child" => parsed.role = Role::Run,
                    "--audit" => parsed.role = Role::Audit,
                    _ => {}
                }
            }
            "--seed" => {
                let v = value()?;
                let n = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed.seed = n.map_err(|_| format!("--seed {v}: not a 64-bit integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                };
            }
            "--smoke" => parsed.scale = Scale::Smoke,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.role, args.workload) {
        (Role::Run, Some(w)) => Some(child::run_rep(w, args.seed, args.scale, args.trace)),
        (Role::Audit, Some(w)) => Some(child::audit_rep(w, args.seed, args.scale, args.trace)),
        _ => None,
    };
    if let Some(report) = report {
        println!("{}", report.to_json().to_string_compact());
        return ExitCode::SUCCESS;
    }
    let chosen: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for w in chosen {
        let outcome = bench(w, &args, |role, seed| spawn(w, &args, role, seed));
        for line in outcome.report() {
            eprintln!("{}: {line}", w.name);
        }
        if outcome.metrics.is_empty() {
            eprintln!("{}: no repetition succeeded", w.name);
            return ExitCode::FAILURE;
        }
        println!("{}", outcome.to_json().to_string_compact());
        all_correct &= outcome.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How many inputs one run's repetitions cycle through. A cell's cost
/// depends on its input (`pf-mixed` takes 13% longer at some seeds than
/// at others), so a median over several inputs varies less from one
/// `--seed` to the next than one input does.
const INPUTS: usize = 8;

/// The seed of repetition `rep`'s input; the first is `seed` itself.
fn input_seed(seed: u64, rep: usize) -> u64 {
    let input = (rep % INPUTS) as u64;
    seed.wrapping_add(input.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `w` for at most `args.seconds`. `run(role, seed)` runs one child
/// (`--child` or `--audit`) to its end. The reference run and, untraced,
/// the audit come first; then repetitions follow while the next one, given
/// 10% more than the longest so far, still ends in time (one at smoke
/// scale). Untraced, the repetitions cycle through the inputs. Traced,
/// they all run `args.seed`, so every count repeats exactly, and each is
/// followed by an audit, which splits the setup and runs the layer
/// drivers.
fn bench(
    w: Workload,
    args: &Args,
    mut run: impl FnMut(&str, u64) -> Result<Report, String>,
) -> Outcome {
    let started = Instant::now();
    let reference = run("--child", REFERENCE_SEED);
    let mut reports = Vec::new();
    if !args.trace {
        reports.push((args.seed, run("--audit", args.seed)));
    }
    let mut longest: f64 = 0.0;
    for rep in 0.. {
        let rep_started = Instant::now();
        if args.trace {
            reports.push((args.seed, run("--child", args.seed)));
            reports.push((args.seed, run("--audit", args.seed)));
        } else {
            let seed = input_seed(args.seed, rep);
            reports.push((seed, run("--child", seed)));
        }
        longest = longest.max(rep_started.elapsed().as_secs_f64());
        let next_end = started.elapsed().as_secs_f64() + 1.1 * longest;
        if args.scale == Scale::Smoke || next_end > args.seconds {
            break;
        }
    }
    let expected = expected_digest(w.name, args.scale);
    summarize(&expected, &reference, &reports, args.trace)
}

/// Runs one child process of this executable to its end.
fn spawn(w: Workload, args: &Args, role: &str, seed: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([role, w.name, "--seed", &seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{role}: cannot start: {e}"))?;
    if !out.status.success() {
        return Err(format!("{role}: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or(format!("{role}: printed nothing"))?;
    let value = json::parse(line).map_err(|e| format!("{role}: output: {e}"))?;
    Report::from_json(&value).ok_or(format!("{role}: output lacks a field"))
}

/// The committed digest of workload `name` at `scale`.
fn expected_digest(name: &str, scale: Scale) -> Result<String, String> {
    let tag = match scale {
        Scale::Quick => "quick",
        Scale::Smoke => "smoke",
    };
    let all = json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    all.get(tag)
        .and_then(|digests| digests.get(name))
        .and_then(Value::as_str)
        .map(String::from)
        .ok_or(format!("expected.json has no {tag} digest for {name}"))
}

/// What one workload's run reports.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Median host slowdown of the timed repetitions, for reading the
    /// reported seconds back as host seconds.
    slowdown: f64,
    problems: Vec<String>,
}

/// One reported metric: the median of the repetitions, with their range.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    median: f64,
    min: f64,
    max: f64,
    samples: usize,
}

/// Folds the children's reports, each with the seed it ran, into one
/// median per metric. Every child is one operation, and one fails if its
/// process failed or it found an error. The reference run also fails if
/// its digest differs from `expected`, and a timed repetition if its
/// result differs from that of the first good one with its seed (same
/// seed, same bytes).
fn summarize(
    expected: &Result<String, String>,
    reference: &Result<Report, String>,
    reports: &[(u64, Result<Report, String>)],
    trace: bool,
) -> Outcome {
    let mut problems = Vec::new();
    let got = reference.clone().and_then(|r| match (r.error, r.timing) {
        (Some(e), _) => Err(e),
        (None, Some(t)) => Ok(t.digest),
        (None, None) => Err("no timing".into()),
    });
    match (got, expected) {
        (Ok(got), Ok(want)) if got == *want => {}
        (Ok(got), Ok(want)) => problems.push(format!(
            "reference run (seed {REFERENCE_SEED:#x}): digest {got}, expected.json has {want}"
        )),
        (Err(e), _) => problems.push(format!("reference run: {e}")),
        (_, Err(e)) => problems.push(format!("reference run: {e}")),
    }

    let mut good: Vec<&Report> = Vec::new();
    let mut digests: BTreeMap<u64, &str> = BTreeMap::new();
    for (i, (seed, report)) in reports.iter().enumerate() {
        let r = match report.as_ref().map(|r| (r, &r.error)) {
            Ok((r, None)) => r,
            Ok((_, Some(e))) | Err(e) => {
                problems.push(format!("child {i}: {e}"));
                continue;
            }
        };
        if let Some(t) = &r.timing {
            let first = *digests.entry(*seed).or_insert(&t.digest);
            if t.digest != first {
                problems.push(format!(
                    "child {i} (seed {seed}): result {} differs from {first}",
                    t.digest
                ));
                continue;
            }
        }
        good.push(r);
    }
    let timings: Vec<_> = good.iter().filter_map(|r| r.timing.as_ref()).collect();

    let samples: Vec<Vec<f64>> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, ..)| {
                good.iter()
                    .flat_map(|r| &r.layers)
                    .filter(|(k, _)| k == name)
                    .map(|(_, v)| *v)
                    .collect()
            })
            .collect()
    } else {
        // Host times are reported as reference-host seconds: each
        // repetition's divided by the slowdown its calibration measured.
        let pick = |f: fn(&child::Timing) -> f64| timings.iter().map(|t| f(t)).collect::<Vec<_>>();
        vec![
            pick(|t| (t.setup_s + t.run_s) / t.slowdown()),
            pick(|t| t.setup_s / t.slowdown()),
            pick(|t| t.horizon_cycles as f64 / (t.run_s / t.slowdown()) / 1e6),
            pick(|t| t.peak_rss_mb),
        ]
    };
    let specs = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = if timings.is_empty() {
        Vec::new()
    } else {
        specs
            .iter()
            .zip(samples)
            .map(|(&(name, unit, _), v)| {
                let (min, max) = v
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                Metric {
                    name,
                    unit,
                    median: median(&v),
                    min,
                    max,
                    samples: v.len(),
                }
            })
            .collect()
    };
    let slowdown: Vec<f64> = timings.iter().map(|t| t.slowdown()).collect();
    Outcome {
        correct: problems.is_empty(),
        attempted: reports.len() + 1,
        failed: problems.len(),
        metrics,
        slowdown: median(&slowdown),
        problems,
    }
}

impl Outcome {
    fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Obj(vec![
                    ("value".into(), m.median.to_json()),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_owned(), v)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), self.correct.to_json()),
            ("attempted".into(), self.attempted.to_json()),
            ("failed".into(), self.failed.to_json()),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }

    /// Human-readable lines: each median with the min, max and count of
    /// its repetitions, the host slowdown, then every problem found.
    fn report(&self) -> Vec<String> {
        let metrics = self.metrics.iter().map(|m| {
            format!(
                "{} = {:.6} {} (min {:.6}, max {:.6}, n={})",
                m.name, m.median, m.unit, m.min, m.max, m.samples
            )
        });
        let slowdown = format!(
            "host slowdown = {:.3} (median; host seconds are reference seconds times this)",
            self.slowdown
        );
        metrics
            .chain([slowdown])
            .chain(self.problems.iter().cloned())
            .collect()
    }
}

/// Median of `values` (the mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn timed(digest: &str, setup_s: f64) -> Result<Report, String> {
        Ok(Report {
            timing: Some(child::Timing {
                setup_s,
                run_s: 2.0,
                horizon_cycles: 22_000_000,
                peak_rss_mb: 40.0,
                calibration_s: child::REFERENCE_CALIBRATION_S,
                digest: digest.into(),
            }),
            error: None,
            layers: Vec::new(),
        })
    }

    fn audit(error: Option<&str>) -> Result<Report, String> {
        Ok(Report {
            timing: None,
            error: error.map(String::from),
            layers: Vec::new(),
        })
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(spec: &Value, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        spec.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("string field")
                            .to_owned()
                    })
                    .collect()
            })
            .collect()
    }

    fn args(seconds: f64, trace: bool, scale: Scale) -> Args {
        Args {
            workload: None,
            seed: 7,
            seconds,
            trace,
            scale,
            role: Role::Parent,
        }
    }

    #[test]
    fn metric_and_workload_names_follow_the_grammar() {
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.0)
            .chain(WORKLOADS.iter().map(|w| w.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(is_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_unit(unit), "{name}: bad unit {unit}");
            assert!(["lower", "higher"].contains(better), "{name}: {better}");
        }
        assert!(!is_name("_hidden") && !is_name("a b") && !is_name(&"x".repeat(65)));
        assert!(!is_unit("") && !is_unit("cycles per second"));
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let spec = benchmark_json();
        let as_rows = |ms: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            ms.iter()
                .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
                .collect()
        };
        let fields = ["name", "unit", "better"];
        assert_eq!(listed(&spec, "end_to_end", &fields), as_rows(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer", &fields), as_rows(&PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        let in_spec: Vec<String> = listed(&spec, "workloads", &["name"]).concat();
        assert_eq!(in_spec, workloads);

        // What a run prints, untraced and traced.
        let w = by_name("ksm-silo").expect("known");
        let expected = expected_digest(w.name, Scale::Smoke);
        let reference = Ok(child::run_rep(w, REFERENCE_SEED, Scale::Smoke, false));
        for trace in [false, true] {
            let reports = [
                (4, Ok(child::run_rep(w, 4, Scale::Smoke, trace))),
                (4, Ok(child::audit_rep(w, 4, Scale::Smoke, trace))),
            ];
            let out = summarize(&expected, &reference, &reports, trace);
            assert!(out.correct, "{:?}", out.problems);
            let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            }
            .iter()
            .map(|m| m.0)
            .collect();
            assert_eq!(printed, want);
            assert!(out.metrics.iter().all(|m| m.median.is_finite()));
            let line = out.to_json().to_string_compact();
            let back = json::parse(&line).expect("printed line is JSON");
            let keys: Vec<&str> = match &back {
                Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    /// The committed smoke digests are those of today's model; the quick
    /// ones are checked by every benchmark run.
    #[test]
    fn expected_json_holds_current_digests_for_every_workload() {
        for w in WORKLOADS {
            let r = child::run_rep(w, REFERENCE_SEED, Scale::Smoke, false);
            let got = r.timing.expect("timed").digest;
            assert_eq!(Ok(got), expected_digest(w.name, Scale::Smoke), "{}", w.name);
            let quick = expected_digest(w.name, Scale::Quick).expect("a quick digest");
            assert_eq!(quick.len(), 16, "{}", w.name);
        }
        assert!(expected_digest("fleet-d16", Scale::Quick).is_err());
    }

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
        let want = Ok("r".to_string());
        let reports = [
            (1, timed("a", 1.0)),
            (1, timed("a", 3.0)),
            (2, timed("b", 2.5)),
            (1, audit(None)),
        ];
        let out = summarize(&want, &timed("r", 0.5), &reports, false);
        assert!(out.correct, "{:?}", out.problems);
        let setup = out
            .metrics
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("printed");
        assert_eq!((setup.median, setup.min, setup.max), (2.5, 1.0, 3.0));
        assert_eq!(setup.samples, 3);
        let mcycles = out
            .metrics
            .iter()
            .find(|m| m.name == "sim_mcycles_per_s")
            .expect("printed");
        assert_eq!(mcycles.median, 11.0);
    }

    /// A repetition on a host running 1.5x slower, calibration included,
    /// reports what it reports on the reference host; a slower program
    /// on the same host does not.
    #[test]
    fn host_slowdown_is_divided_out() {
        let want = Ok("r".to_string());
        let slowed = |program: f64, host: f64| {
            let mut r = timed("a", 0.5 * program * host);
            if let Ok(Report {
                timing: Some(t), ..
            }) = &mut r
            {
                t.run_s *= program * host;
                t.calibration_s *= host;
            }
            let out = summarize(&want, &timed("r", 0.5), &[(1, r)], false);
            out.metrics.iter().map(|m| m.median).collect::<Vec<_>>()
        };
        let reference = slowed(1.0, 1.0);
        assert_eq!(reference, [2.5, 0.5, 11.0, 40.0]);
        let contended = slowed(1.0, 1.5);
        for (got, want) in contended.iter().zip(&reference) {
            assert!((got - want).abs() < 1e-9 * want, "{contended:?}");
        }
        assert_eq!(slowed(1.5, 1.0)[..2], [3.75, 0.75]);
    }

    #[test]
    fn a_wrong_result_fails_the_run() {
        let want = Ok("r".to_string());
        let reference = timed("r", 1.0);
        let good = summarize(
            &want,
            &reference,
            &[(1, timed("a", 1.0)), (1, timed("a", 1.0)), (1, audit(None))],
            false,
        );
        assert!(good.correct);
        assert_eq!((good.attempted, good.failed), (4, 0));

        // A reference run that no longer matches the committed digest:
        // every other check passes, and still the run fails.
        let corrupted = Ok("0123456789abcdef".to_string());
        let reports = [(1, timed("a", 1.0)), (1, audit(None))];
        let drifted = summarize(&corrupted, &reference, &reports, false);
        assert!(!drifted.correct && !drifted.metrics.is_empty());
        assert_eq!((drifted.attempted, drifted.failed), (3, 1));
        assert!(drifted.problems[0].contains("expected.json has 0123456789abcdef"));
        let unlisted = summarize(&Err("no digest".into()), &reference, &reports, false);
        assert_eq!(unlisted.failed, 1);

        // Same seed, different bytes: the odd repetition fails.
        let mismatch = summarize(
            &want,
            &reference,
            &[(1, timed("a", 1.0)), (1, timed("b", 1.0)), (1, audit(None))],
            false,
        );
        assert!(!mismatch.correct);
        assert_eq!((mismatch.attempted, mismatch.failed), (4, 1));

        // The only repetition broke a law: nothing to report.
        let mut broken = timed("a", 1.0);
        if let Ok(r) = &mut broken {
            r.error = Some("leaked frame".into());
        }
        let broken = summarize(&want, &reference, &[(1, broken), (1, audit(None))], false);
        assert_eq!((broken.attempted, broken.failed), (3, 1));
        assert!(!broken.correct && broken.metrics.is_empty());

        let crashed = summarize(
            &want,
            &Err("--child: exit status: 101".into()),
            &[
                (1, Err("--child: exit status: 101".into())),
                (1, audit(None)),
            ],
            false,
        );
        assert_eq!(crashed.failed, 2);

        let disagrees = summarize(
            &want,
            &reference,
            &[(1, timed("a", 1.0)), (1, audit(Some("disagrees")))],
            false,
        );
        assert!(!disagrees.correct && disagrees.failed == 1 && !disagrees.metrics.is_empty());
    }

    /// A pass, reference run and audit included, ends within `--seconds`.
    #[test]
    fn a_pass_stays_within_its_seconds() {
        let w = by_name("pf-silo").expect("known");
        for (trace, seconds) in [(false, 0.5), (true, 0.8)] {
            let mut children = Vec::new();
            let started = Instant::now();
            let out = bench(w, &args(seconds, trace, Scale::Quick), |role, seed| {
                children.push((role.to_owned(), seed));
                let (ms, report) = match (role, seed) {
                    ("--audit", _) => (60, audit(None)),
                    (_, REFERENCE_SEED) => (40, timed("r", 0.01)),
                    _ => (30, timed(&seed.to_string(), 0.01)),
                };
                std::thread::sleep(std::time::Duration::from_millis(ms));
                report
            });
            let elapsed = started.elapsed().as_secs_f64();
            assert!(elapsed <= seconds, "{elapsed} s > {seconds} s");
            let reps: Vec<u64> = children[1..]
                .iter()
                .filter(|(role, _)| role == "--child")
                .map(|&(_, seed)| seed)
                .collect();
            assert!(reps.len() >= 4, "only {} repetitions", reps.len());
            // Untraced, the repetitions cycle through the inputs, the first
            // being the seed itself; traced, they all run the seed.
            let want: Vec<u64> = (0..reps.len())
                .map(|i| if trace { 7 } else { input_seed(7, i) })
                .collect();
            assert_eq!(reps, want);
            assert_eq!((input_seed(7, 0), input_seed(7, INPUTS)), (7, 7));
            assert_ne!(input_seed(7, 1), 7);
            assert_eq!(out.attempted, children.len());
        }

        // At smoke scale one repetition ends the pass.
        let mut n = 0;
        bench(w, &args(60.0, false, Scale::Smoke), |_, _| {
            n += 1;
            audit(None)
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&strings(&[
            "--workload",
            "pf-silo",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload.map(|w| w.name), Some("pf-silo"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.role),
            (7, 10.0, true, Role::Parent)
        );
        assert_eq!(
            parse_args(&strings(&["--seed", "0xC0FFEE"])).map(|a| a.seed),
            Ok(0xC0FFEE)
        );
        let child = parse_args(&strings(&["--child", "base-masstree", "--smoke"])).expect("valid");
        assert!(child.role == Role::Run && child.scale == Scale::Smoke);
        let audit = parse_args(&strings(&["--audit", "pf-mixed"])).expect("valid");
        assert_eq!(audit.role, Role::Audit);
        for bad in [
            &["--workload", "fleet-d16"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed", "-1"],
            &["--seed"],
            &["--verbose"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
