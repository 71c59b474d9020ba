//! The CI wall-time budget gate (`timing_gate` binary).
//!
//! ROADMAP's raw-speed campaign sets an explicit budget: the suite's
//! wall-clock trajectory is gated in CI instead of silently drifting.
//! The gate compares one or more `meta/timing.json` records (written by
//! `run_all`; CI passes two smoke runs and the gate keeps the *best*
//! per-experiment time, so one noisy scheduler hiccup cannot fail the
//! build) against a committed `perf_budget.toml`:
//!
//! ```toml
//! [total]
//! wall_secs = 60.0    # hard cap on the best run's wall-clock
//! slack_frac = 0.15   # per-experiment headroom over the reference
//!
//! [experiments]
//! latency = 5.0       # reference seconds per experiment
//! ```
//!
//! A run **breaches** when any budgeted experiment's best time exceeds
//! `reference × (1 + slack_frac)`, or the best wall-clock exceeds
//! `wall_secs`. The mapping must also stay *live* in both directions —
//! an experiment in the timing record with no budget line fails (new
//! experiments must be budgeted when they land), and a budget line whose
//! experiment never ran fails (the budget can only shrink ahead of the
//! suite, the same policy ALLOW-STALE applies to `analyzer.toml`).
//!
//! Wall-time is host-side by definition, so this file is the *only*
//! place in the workspace where a gate depends on the machine: the
//! committed references describe the CI runner class, and `slack_frac`
//! absorbs its run-to-run noise. Byte-identity of `results/*.json` is a
//! separate, machine-independent gate.

use std::collections::BTreeMap;

use crate::scheduler::RunTiming;

/// The committed budget: reference seconds per experiment plus a total
/// wall-clock cap. See the module docs for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBudget {
    /// Hard cap on the best run's `wall_secs`.
    pub total_secs: f64,
    /// Per-experiment headroom: breach at `reference * (1 + slack_frac)`.
    pub slack_frac: f64,
    /// Reference seconds per experiment (sorted by name).
    pub experiments: BTreeMap<String, f64>,
}

/// Parses a budget file such as `perf_budget.toml` (the same
/// deliberately minimal TOML subset `analyzer.toml` uses: `[section]`
/// headers and `key = number` lines). `path` names the file in error
/// messages.
///
/// # Errors
///
/// Returns a `path:line:`-prefixed message for unknown sections or keys,
/// non-numeric values, duplicates, and missing required fields.
pub fn parse_budget(path: &str, src: &str) -> Result<PerfBudget, String> {
    let mut total_secs: Option<f64> = None;
    let mut slack_frac: Option<f64> = None;
    let mut experiments: BTreeMap<String, f64> = BTreeMap::new();
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_owned();
            if section != "total" && section != "experiments" {
                return Err(format!("{path}:{lineno}: unknown section `[{section}]`"));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "{path}:{lineno}: expected `key = number`, got `{line}`"
            ));
        };
        let key = key.trim();
        let secs: f64 = value.trim().parse().map_err(|_| {
            format!(
                "{path}:{lineno}: value for `{key}` is not a number: `{}`",
                value.trim()
            )
        })?;
        match (section.as_str(), key) {
            ("total", "wall_secs") if total_secs.is_none() => total_secs = Some(secs),
            ("total", "slack_frac") if slack_frac.is_none() => slack_frac = Some(secs),
            ("total", k @ ("wall_secs" | "slack_frac")) => {
                return Err(format!("{path}:{lineno}: duplicate key `{k}`"));
            }
            ("total", other) => {
                return Err(format!("{path}:{lineno}: unknown key `{other}` in [total]"));
            }
            ("experiments", name) => {
                if experiments.insert(name.to_owned(), secs).is_some() {
                    return Err(format!("{path}:{lineno}: duplicate experiment `{name}`"));
                }
            }
            _ => {
                return Err(format!(
                    "{path}:{lineno}: `{key}` before the first section header"
                ));
            }
        }
    }
    let total_secs = total_secs.ok_or_else(|| format!("{path}: missing `wall_secs` in [total]"))?;
    if experiments.is_empty() {
        return Err(format!("{path}: empty [experiments] section"));
    }
    Ok(PerfBudget {
        total_secs,
        slack_frac: slack_frac.unwrap_or(0.15),
        experiments,
    })
}

/// Best-of-N fold of timing records: the minimum wall-clock and, per
/// experiment, the minimum busy seconds seen in any record.
pub fn best_of(timings: &[RunTiming]) -> (f64, BTreeMap<String, f64>) {
    let mut wall = f64::INFINITY;
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for t in timings {
        wall = wall.min(t.wall_secs);
        for e in &t.experiments {
            best.entry(e.name.clone())
                .and_modify(|s| *s = s.min(e.secs))
                .or_insert(e.secs);
        }
    }
    (wall, best)
}

/// One gate verdict line: what was measured against which limit.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLine {
    /// Experiment name, or `"(total wall-clock)"`.
    pub name: String,
    /// Best measured seconds.
    pub best_secs: f64,
    /// The limit it was held to (reference × (1+slack), or the cap).
    pub limit_secs: f64,
    /// Whether this line breaches the budget.
    pub breach: bool,
}

/// The gate's full verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Per-experiment verdicts plus the total-wall line, in budget order.
    pub lines: Vec<GateLine>,
    /// Mapping failures: unbudgeted experiments and stale budget lines.
    pub errors: Vec<String>,
}

impl GateReport {
    /// True when any line breached or the budget/timing mapping is stale.
    pub fn failed(&self) -> bool {
        !self.errors.is_empty() || self.lines.iter().any(|l| l.breach)
    }
}

/// Evaluates best-of-N timings against the budget (see module docs for
/// the breach rules).
pub fn evaluate(budget: &PerfBudget, timings: &[RunTiming]) -> GateReport {
    let (wall, best) = best_of(timings);
    let mut lines = Vec::new();
    let mut errors = Vec::new();
    for (name, &reference) in &budget.experiments {
        match best.get(name) {
            Some(&secs) => {
                let limit = reference * (1.0 + budget.slack_frac);
                lines.push(GateLine {
                    name: name.clone(),
                    best_secs: secs,
                    limit_secs: limit,
                    breach: secs > limit,
                });
            }
            None => errors.push(format!(
                "budgeted experiment `{name}` is missing from every timing record \
                 (remove the stale budget line or run the experiment)"
            )),
        }
    }
    for name in best.keys() {
        if !budget.experiments.contains_key(name) {
            errors.push(format!(
                "experiment `{name}` ran but has no line in perf_budget.toml \
                 (new experiments must be budgeted)"
            ));
        }
    }
    lines.push(GateLine {
        name: "(total wall-clock)".to_owned(),
        best_secs: wall,
        limit_secs: budget.total_secs,
        breach: wall > budget.total_secs,
    });
    GateReport { lines, errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ExperimentTiming;

    const BUDGET: &str = "\
# comment\n\
[total]\n\
wall_secs = 100.0  # trailing comment\n\
slack_frac = 0.15\n\
\n\
[experiments]\n\
latency = 10.0\n\
table3 = 0.5\n";

    fn timing(wall: f64, exps: &[(&str, f64)]) -> RunTiming {
        RunTiming {
            jobs: 1,
            units: exps.len(),
            wall_secs: wall,
            experiments: exps
                .iter()
                .map(|&(name, secs)| ExperimentTiming {
                    name: name.to_owned(),
                    secs,
                    units: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_documented_format() {
        let b = parse_budget("perf_budget.toml", BUDGET).unwrap();
        assert_eq!(b.total_secs, 100.0);
        assert_eq!(b.slack_frac, 0.15);
        assert_eq!(b.experiments["latency"], 10.0);
        assert_eq!(b.experiments["table3"], 0.5);
    }

    #[test]
    fn parse_errors_name_the_file_given() {
        let e = parse_budget("bad.toml", "[total]\nwall_secs = fast\n").unwrap_err();
        assert!(e.starts_with("bad.toml:2: "), "{e}");
        let e = parse_budget("bad.toml", "[experiments]\nlatency = 1\n").unwrap_err();
        assert!(e.starts_with("bad.toml: missing `wall_secs`"), "{e}");
    }

    #[test]
    fn parse_rejects_unknown_sections_keys_and_garbage() {
        assert!(parse_budget("b.toml", "[nope]\n")
            .unwrap_err()
            .contains("[nope]"));
        assert!(parse_budget("b.toml", "[total]\nbogus = 1\n")
            .unwrap_err()
            .contains("bogus"));
        assert!(parse_budget("b.toml", "[total]\nwall_secs = fast\n")
            .unwrap_err()
            .contains("not a number"));
        assert!(parse_budget("b.toml", "loose = 1\n")
            .unwrap_err()
            .contains("before the first section"));
        assert!(
            parse_budget("b.toml", "[total]\nwall_secs = 1\nwall_secs = 2\n")
                .unwrap_err()
                .contains("duplicate")
        );
        assert!(parse_budget("b.toml", "[total]\nwall_secs = 1\n")
            .unwrap_err()
            .contains("empty [experiments]"));
    }

    #[test]
    fn within_budget_passes() {
        let b = parse_budget("perf_budget.toml", BUDGET).unwrap();
        let t = timing(50.0, &[("latency", 9.0), ("table3", 0.4)]);
        let r = evaluate(&b, &[t]);
        assert!(!r.failed(), "{r:?}");
    }

    #[test]
    fn per_experiment_regression_beyond_slack_fails() {
        let b = parse_budget("perf_budget.toml", BUDGET).unwrap();
        // 11.6s > 10.0 * 1.15: breach. (11.4s would pass.)
        let t = timing(50.0, &[("latency", 11.6), ("table3", 0.4)]);
        let r = evaluate(&b, &[t]);
        assert!(r.failed());
        let line = r.lines.iter().find(|l| l.name == "latency").unwrap();
        assert!(line.breach);
        let ok = timing(50.0, &[("latency", 11.4), ("table3", 0.4)]);
        assert!(!evaluate(&b, &[ok]).failed());
    }

    #[test]
    fn total_wall_breach_fails_even_when_experiments_pass() {
        let b = parse_budget("perf_budget.toml", BUDGET).unwrap();
        let t = timing(100.5, &[("latency", 9.0), ("table3", 0.4)]);
        let r = evaluate(&b, &[t]);
        assert!(r.failed());
        assert!(r.lines.last().unwrap().breach);
    }

    #[test]
    fn best_of_two_keeps_the_minimum_per_experiment() {
        let b = parse_budget("perf_budget.toml", BUDGET).unwrap();
        // Each run breaches a different experiment; their best-of passes.
        let noisy1 = timing(120.0, &[("latency", 20.0), ("table3", 0.4)]);
        let noisy2 = timing(60.0, &[("latency", 9.0), ("table3", 5.0)]);
        assert!(evaluate(&b, std::slice::from_ref(&noisy1)).failed());
        assert!(evaluate(&b, std::slice::from_ref(&noisy2)).failed());
        assert!(!evaluate(&b, &[noisy1, noisy2]).failed());
    }

    #[test]
    fn mapping_must_stay_live_in_both_directions() {
        let b = parse_budget("perf_budget.toml", BUDGET).unwrap();
        // `table3` budgeted but never ran.
        let r = evaluate(&b, &[timing(50.0, &[("latency", 9.0)])]);
        assert!(r.failed());
        assert!(r.errors[0].contains("table3"));
        // `fig7` ran but is not budgeted.
        let t = timing(50.0, &[("latency", 9.0), ("table3", 0.4), ("fig7", 1.0)]);
        let r = evaluate(&b, &[t]);
        assert!(r.failed());
        assert!(r.errors[0].contains("fig7"));
    }
}
