//! Minimal, dependency-free command-line arguments shared by `run_all`
//! and the tools beside it.

use std::fmt;
use std::path::PathBuf;

use pageforge_types::DEFAULT_SEED;

use crate::experiments::Scale;

/// Arguments accepted by `run_all` (and, in part, by `make_report` and
/// `trace_report`).
///
/// * `--seed <u64>` — RNG seed (default `0xC0FFEE`);
/// * `--quick` — down-scaled configuration (4 cores, short windows) for
///   smoke runs;
/// * `--smoke` — even smaller CI-sized configuration (2 cores, tiny
///   images); implies everything `--quick` implies;
/// * `--jobs <N>` — worker threads for `run_all`'s experiment scheduler
///   (default 1; results are byte-identical at any level);
/// * `--shards <N>` — worker threads *inside* each full-system
///   simulation (the sharded executor's pool; default 1). Like `--jobs`,
///   any value produces byte-identical `results/*.json`;
/// * `--seeds <N>` — seed replicas for the `seed_sweep` experiment
///   (default 1; the sweep itself needs at least 2);
/// * `--only <a,b,...>` — run only the named experiments (`run_all`);
/// * `--out <dir>` — directory for JSON results (default `results/`);
/// * `--trace <file>` — write the unit trace streams as JSONL to this
///   path (`run_all`; produces events only when built with `--features
///   trace`), or read them from it (`trace_report`);
/// * `--faults <file>` — JSON fault plan applied to the PageForge engine
///   in the latency suite (`run_all`). An empty plan is a no-op by
///   construction;
/// * `--fleet-faults <file>` — JSON fleet fault plan (host crashes, gray
///   slowdowns, engine wedges, migration failures) installed on the
///   `fleet` experiment family's control plane (`run_all`). An empty plan
///   is a no-op by construction. The `fleet_chaos` campaign generates its
///   own plans and ignores this flag;
/// * `--snapshot <file>` — write the unioned observability snapshot
///   (metric names prefixed `ksm/`, `pageforge/`, `fleet/`) of the silo
///   KSM and PageForge cells, which join the suite's cell graph, and of
///   one fleet probe run after the suite, all at this run's
///   scale/seed/shards. Snapshots are part of the determinism contract,
///   so CI diffs two of these from different `--jobs`/`--shards` levels
///   with `snapshot_diff --threshold 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// RNG seed.
    pub seed: u64,
    /// Use the down-scaled quick configuration.
    pub quick: bool,
    /// Use the CI-sized smoke configuration (overrides `--quick`).
    pub smoke: bool,
    /// Worker threads for the experiment scheduler.
    pub jobs: usize,
    /// Worker threads inside each simulation (sharded executor pool).
    pub shards: usize,
    /// Seed replicas for the `seed_sweep` experiment.
    pub seeds: usize,
    /// Restrict `run_all` to these experiment names (empty = all).
    pub only: Vec<String>,
    /// JSON output directory.
    pub out_dir: PathBuf,
    /// JSONL trace path (written by `run_all`, read by `trace_report`).
    pub trace: Option<PathBuf>,
    /// Fault-plan JSON path (`run_all`).
    pub faults: Option<PathBuf>,
    /// Fleet fault-plan JSON path (`run_all`).
    pub fleet_faults: Option<PathBuf>,
    /// Unioned probe-cell snapshot path (`run_all`).
    pub snapshot: Option<PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            seed: DEFAULT_SEED,
            quick: false,
            smoke: false,
            jobs: 1,
            shards: 1,
            seeds: 1,
            only: Vec::new(),
            out_dir: PathBuf::from("results"),
            trace: None,
            faults: None,
            fleet_faults: None,
            snapshot: None,
        }
    }
}

/// Why a command line was rejected. The tools print it after `error:`
/// and exit 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// An argument no tool accepts.
    Unknown(String),
    /// A flag that takes a value ended the command line.
    MissingValue(String),
    /// A flag's value does not parse, or is a zero count.
    BadValue {
        /// The flag.
        flag: String,
        /// The value given.
        value: String,
        /// What the flag takes.
        expected: &'static str,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Unknown(arg) => write!(
                f,
                "unknown argument `{arg}`; \
                 usage: [--seed N] [--quick] [--smoke] [--jobs N] \
                 [--shards N] [--seeds N] [--only a,b] \
                 [--out DIR] [--trace FILE] [--faults FILE] \
                 [--fleet-faults FILE] [--snapshot FILE]"
            ),
            ArgsError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            ArgsError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} takes {expected}, not `{value}`"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl BenchArgs {
    /// Parses from `std::env::args`; on unknown or malformed arguments,
    /// prints `error:` and the [`ArgsError`] and exits with status 1.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }

    /// Parses from an explicit argument list (testable).
    ///
    /// # Errors
    ///
    /// Returns an [`ArgsError`] on unknown or malformed arguments.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, ArgsError> {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .ok_or_else(|| ArgsError::MissingValue(flag.clone()))
            };
            match flag.as_str() {
                "--seed" => out.seed = parse_seed(&flag, value()?)?,
                "--quick" => out.quick = true,
                "--smoke" => out.smoke = true,
                "--jobs" => out.jobs = parse_count(&flag, value()?)?,
                "--shards" => out.shards = parse_count(&flag, value()?)?,
                "--seeds" => out.seeds = parse_count(&flag, value()?)?,
                "--only" => out.only.extend(
                    value()?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned),
                ),
                "--out" => out.out_dir = PathBuf::from(value()?),
                "--trace" => out.trace = Some(PathBuf::from(value()?)),
                "--faults" => out.faults = Some(PathBuf::from(value()?)),
                "--fleet-faults" => out.fleet_faults = Some(PathBuf::from(value()?)),
                "--snapshot" => out.snapshot = Some(PathBuf::from(value()?)),
                _ => return Err(ArgsError::Unknown(flag)),
            }
        }
        Ok(out)
    }

    /// The experiment scale the flags select.
    pub fn scale(&self) -> Scale {
        Scale::from_flags(self.quick, self.smoke)
    }
}

/// A `u64` seed, decimal or `0x` hex.
fn parse_seed(flag: &str, value: String) -> Result<u64, ArgsError> {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    };
    parsed.ok_or_else(|| ArgsError::BadValue {
        flag: flag.to_owned(),
        value,
        expected: "a decimal or 0x-hex u64",
    })
}

/// A thread or replica count: an integer of at least 1.
fn parse_count(flag: &str, value: String) -> Result<usize, ArgsError> {
    match value.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ArgsError::BadValue {
            flag: flag.to_owned(),
            value,
            expected: "an integer of at least 1",
        }),
    }
}

/// Prints the Table 2 architecture parameters.
pub fn print_table2() {
    println!("Architecture parameters (Table 2):");
    println!("  10 single-issue out-of-order cores @ 2 GHz");
    println!("  L1: 32KB 8-way WB, 2-cycle RT, 16 MSHRs, 64B lines");
    println!("  L2: 256KB 8-way WB, 6-cycle RT, 16 MSHRs");
    println!("  L3: 32MB 20-way WB shared, 20-cycle RT, 24 MSHRs/slice");
    println!("  Coherence: snoopy MESI at L3, 512b bus");
    println!("  Memory: 16GB, 2 channels, 8 ranks/channel, 8 banks/rank, 1 GHz DDR");
    println!("  VMs: 10, 1 core each (512MB in the paper; scaled images here)");
    println!("  KSM/PageForge: sleep_millisecs=5, pages_to_scan=400 (scaled 56)");
    println!("  Scan table: 31 Other Pages + 1 PFE (~260B); ECC hash key: 32 bits");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = BenchArgs::from_args(Vec::<String>::new()).unwrap();
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.quick);
        assert!(!a.smoke);
        assert_eq!(a.jobs, 1);
        assert_eq!(a.shards, 1);
        assert_eq!(a.seeds, 1);
        assert!(a.only.is_empty());
        assert_eq!(a.scale(), Scale::Full);
    }

    #[test]
    fn parses_all_flags() {
        let a = BenchArgs::from_args(
            [
                "--seed",
                "0x2A",
                "--quick",
                "--smoke",
                "--jobs",
                "4",
                "--shards",
                "2",
                "--seeds",
                "5",
                "--only",
                "fig7,fig8",
                "--out",
                "/tmp/x",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.seed, 42);
        assert!(a.quick);
        assert!(a.smoke);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.shards, 2);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.only, vec!["fig7".to_string(), "fig8".to_string()]);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
        // Smoke wins over quick.
        assert_eq!(a.scale(), Scale::Smoke);
    }

    #[test]
    fn trace_path_parses() {
        let a = BenchArgs::from_args(
            ["--trace", "/tmp/trace.jsonl"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.trace, Some(PathBuf::from("/tmp/trace.jsonl")));
        assert_eq!(BenchArgs::default().trace, None);
    }

    #[test]
    fn faults_path_parses() {
        let a = BenchArgs::from_args(["--faults", "/tmp/plan.json"].iter().map(|s| s.to_string()))
            .unwrap();
        assert_eq!(a.faults, Some(PathBuf::from("/tmp/plan.json")));
        assert_eq!(BenchArgs::default().faults, None);
    }

    #[test]
    fn fleet_faults_path_parses() {
        let a = BenchArgs::from_args(
            ["--fleet-faults", "/tmp/chaos.json"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.fleet_faults, Some(PathBuf::from("/tmp/chaos.json")));
        assert_eq!(BenchArgs::default().fleet_faults, None);
    }

    #[test]
    fn snapshot_path_parses() {
        let a = BenchArgs::from_args(
            ["--snapshot", "/tmp/snap.json"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.snapshot, Some(PathBuf::from("/tmp/snap.json")));
        assert_eq!(BenchArgs::default().snapshot, None);
    }

    #[test]
    fn decimal_seed() {
        let a = BenchArgs::from_args(["--seed", "7"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn quick_scale() {
        let a = BenchArgs::from_args(["--quick".to_string()]).unwrap();
        assert_eq!(a.scale(), Scale::Quick);
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, ArgsError> {
        BenchArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse(&["--frobnicate"]).unwrap_err();
        assert_eq!(e, ArgsError::Unknown("--frobnicate".into()));
        assert!(e
            .to_string()
            .starts_with("unknown argument `--frobnicate`; usage:"));
    }

    #[test]
    fn zero_jobs_is_an_error() {
        let e = parse(&["--jobs", "0"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "--jobs takes an integer of at least 1, not `0`"
        );
    }

    #[test]
    fn zero_shards_is_an_error() {
        let e = parse(&["--shards", "0"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "--shards takes an integer of at least 1, not `0`"
        );
    }

    #[test]
    fn zero_seeds_is_an_error() {
        let e = parse(&["--seeds", "0"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "--seeds takes an integer of at least 1, not `0`"
        );
    }

    #[test]
    fn malformed_values_are_errors() {
        for flag in ["--jobs", "--shards", "--seeds"] {
            for bad in ["abc", "-1", "1.5", ""] {
                assert!(
                    matches!(parse(&[flag, bad]), Err(ArgsError::BadValue { .. })),
                    "{flag} {bad}"
                );
            }
        }
        for bad in ["seven", "0xZZ", "-3", "18446744073709551616"] {
            assert!(
                matches!(parse(&["--seed", bad]), Err(ArgsError::BadValue { .. })),
                "--seed {bad}"
            );
        }
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in [
            "--seed",
            "--jobs",
            "--shards",
            "--seeds",
            "--only",
            "--out",
            "--trace",
            "--faults",
            "--fleet-faults",
            "--snapshot",
        ] {
            let e = parse(&["--quick", flag]).unwrap_err();
            assert_eq!(e, ArgsError::MissingValue(flag.into()));
            assert_eq!(e.to_string(), format!("{flag} requires a value"));
        }
    }
}
