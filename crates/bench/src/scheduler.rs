//! Deterministic parallel experiment scheduler.
//!
//! The evaluation suite is embarrassingly parallel — the paper itself
//! runs one PageForge engine per memory controller independently (§3.2),
//! and every unit here is a pure function of its inputs (a full-system
//! simulation cell of its `SimConfig`, any other unit of `(seed,
//! scale)`) — so this module fans work units out across a worker pool
//! while keeping the *observable output* bit-identical to a sequential
//! run:
//!
//! * every unit carries its own fixed seed (see
//!   [`pageforge_types::derive_seed`]), so values never depend on which
//!   worker runs a unit or in what order;
//! * results are merged back **in submission order** on the calling
//!   thread, so tables, JSON files, and stdout ordering are exactly those
//!   of `--jobs 1`;
//! * a panicking unit fails the whole run promptly (remaining queued
//!   units are abandoned, in-flight ones finish) instead of hanging or
//!   being silently dropped.
//!
//! The pool is plain scoped `std::thread` workers pulling indices off a
//! shared queue. It is the only place the suite starts a thread: each
//! unit, a whole simulation included, runs on the one worker that
//! claimed it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use pageforge_obs::trace::{self, Collector, TraceEvent};
use pageforge_types::json::{self, obj, FromJson, ToJson, Value};

/// One schedulable unit of work: a closure plus labels for reporting.
pub struct Unit<T> {
    /// The experiment this unit belongs to (e.g. `"fig7"`); timing is
    /// aggregated per experiment.
    pub experiment: String,
    /// Human-readable unit label (e.g. `"fig7/img_dnn"`).
    pub label: String,
    /// The work itself. Must be deterministic given its captured inputs.
    pub run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Unit<T> {
    /// Convenience constructor.
    pub fn new(
        experiment: impl Into<String>,
        label: impl Into<String>,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> Self {
        Unit {
            experiment: experiment.into(),
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// A completed unit: its output plus wall-clock accounting.
#[derive(Debug, Clone)]
pub struct UnitResult<T> {
    /// Experiment the unit belonged to.
    pub experiment: String,
    /// Unit label.
    pub label: String,
    /// The unit's output.
    pub value: T,
    /// Wall-clock seconds the unit took on its worker.
    pub secs: f64,
    /// Trace events the unit emitted. Always empty unless the `trace`
    /// cargo feature is enabled (each worker installs a per-unit
    /// [`Collector`], so events stay in deterministic submission order
    /// at any `--jobs` level) — and also empty under
    /// [`run_units_spooled`], where events stream to per-unit spool
    /// files instead of accumulating in memory.
    pub events: Vec<TraceEvent>,
    /// Events the unit's collector evicted because its ring filled.
    /// Always 0 for spooled (streaming) runs — that is the point of the
    /// chunked writer — and asserted to be 0 by `run_all --trace`.
    pub dropped: u64,
}

/// A unit panicked and the run was aborted, or the suite rejected a flag
/// before any unit ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerError {
    /// Label of the failing unit, or the rejected flag.
    pub label: String,
    /// The panic payload, stringified, or why the flag was rejected.
    pub message: String,
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "experiment unit `{}` failed: {}",
            self.label, self.message
        )
    }
}

impl std::error::Error for SchedulerError {}

/// Builds one unit's trace [`Collector`] from its submission index. The
/// default (`None`) is an in-memory ring ([`Collector::new`]); spooled
/// runs hand each unit a streaming collector writing to its own file.
type CollectorFactory<'a> = Option<&'a (dyn Fn(usize) -> Collector + Sync)>;

/// Runs `units` on `jobs` worker threads and returns their results **in
/// submission order**, or the first (by submission order) failure.
///
/// With `jobs <= 1` the units run inline on the calling thread — the
/// reference sequential schedule the parallel one must match.
pub fn run_units<T: Send>(
    jobs: usize,
    units: Vec<Unit<T>>,
) -> Result<Vec<UnitResult<T>>, SchedulerError> {
    run_units_with(jobs, units, None)
}

/// Like [`run_units`], but each unit streams its trace events to a
/// per-unit spool file under `spool_dir` (`unit_<index>.jsonl`, compact
/// JSONL) instead of buffering them in memory. Streaming collectors
/// flush to their sink when full, so nothing is ever dropped — the
/// chunked-writer replacement for the old 2^16-event drop-oldest ring.
///
/// Units that emit no events create no spool file (and with the `trace`
/// feature compiled out no file is ever created). Use
/// [`crate::trace_report::assemble_spooled_trace`] to fold the spools
/// into the final single-stream JSONL in submission order.
///
/// # Errors
///
/// Returns an error labelled with `spool_dir` if that directory cannot
/// be created, before any unit runs; otherwise as [`run_units`].
pub fn run_units_spooled<T: Send>(
    jobs: usize,
    units: Vec<Unit<T>>,
    spool_dir: &Path,
) -> Result<Vec<UnitResult<T>>, SchedulerError> {
    std::fs::create_dir_all(spool_dir).map_err(|e| SchedulerError {
        label: spool_dir.display().to_string(),
        message: format!("cannot create the trace spool directory: {e}"),
    })?;
    let mk = |idx: usize| {
        let path = spool_path(spool_dir, idx);
        let mut writer: Option<std::io::BufWriter<std::fs::File>> = None;
        Collector::with_sink(
            SPOOL_CHUNK_EVENTS,
            Box::new(move |events: Vec<TraceEvent>| {
                use pageforge_types::json::ToJson as _;
                use std::io::Write as _;
                let w = writer.get_or_insert_with(|| {
                    std::io::BufWriter::new(
                        std::fs::File::create(&path).expect("create trace spool file"),
                    )
                });
                for event in &events {
                    writeln!(w, "{}", event.to_json().to_string_compact())
                        .expect("write trace spool file");
                }
            }),
        )
    };
    run_units_with(jobs, units, Some(&mk))
}

/// Events buffered per streaming collector before a chunk is flushed to
/// its spool file.
const SPOOL_CHUNK_EVENTS: usize = 4096;

/// Spool-file path for the unit at submission index `idx`.
pub fn spool_path(spool_dir: &Path, idx: usize) -> std::path::PathBuf {
    spool_dir.join(format!("unit_{idx:05}.jsonl"))
}

fn run_units_with<T: Send>(
    jobs: usize,
    units: Vec<Unit<T>>,
    mk_collector: CollectorFactory<'_>,
) -> Result<Vec<UnitResult<T>>, SchedulerError> {
    let collector_for = |idx: usize| match mk_collector {
        Some(mk) => mk(idx),
        None => Collector::new(),
    };
    let n = units.len();
    if jobs <= 1 || n <= 1 {
        return units
            .into_iter()
            .enumerate()
            .map(|(idx, u)| {
                let started = Instant::now();
                let (value, events, dropped) = run_traced(collector_for(idx), u.run);
                let value = value.map_err(|message| SchedulerError {
                    label: u.label.clone(),
                    message,
                })?;
                Ok(UnitResult {
                    experiment: u.experiment,
                    label: u.label,
                    value,
                    secs: started.elapsed().as_secs_f64(),
                    events,
                    dropped,
                })
            })
            .collect();
    }

    // Shared state: take-once unit slots, a claim cursor, and an abort
    // flag raised on the first panic so queued units are abandoned.
    let slots: Vec<std::sync::Mutex<Option<Unit<T>>>> = units
        .into_iter()
        .map(|u| std::sync::Mutex::new(Some(u)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Result<UnitResult<T>, SchedulerError>)>();

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            let tx = tx.clone();
            let slots = &slots;
            let cursor = &cursor;
            let aborted = &aborted;
            let collector_for = &collector_for;
            scope.spawn(move || loop {
                if aborted.load(Ordering::Relaxed) {
                    break;
                }
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= slots.len() {
                    break;
                }
                let unit = slots[idx]
                    .lock()
                    .expect("unit slot lock")
                    .take()
                    .expect("each slot is claimed exactly once");
                let experiment = unit.experiment;
                let label = unit.label;
                let started = Instant::now();
                let (value, events, dropped) = run_traced(collector_for(idx), unit.run);
                let outcome = match value {
                    Ok(value) => Ok(UnitResult {
                        experiment,
                        label,
                        value,
                        secs: started.elapsed().as_secs_f64(),
                        events,
                        dropped,
                    }),
                    Err(message) => {
                        aborted.store(true, Ordering::Relaxed);
                        Err(SchedulerError { label, message })
                    }
                };
                // The receiver only disconnects after an abort; losing
                // late results then is fine.
                if tx.send((idx, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // Ordered merge: collect by index, then read out 0..n.
        let mut collected: Vec<Option<Result<UnitResult<T>, SchedulerError>>> =
            (0..n).map(|_| None).collect();
        for (idx, outcome) in rx {
            collected[idx] = Some(outcome);
        }
        let mut results = Vec::with_capacity(n);
        let mut first_error: Option<SchedulerError> = None;
        for slot in collected {
            match slot {
                Some(Ok(r)) => results.push(r),
                Some(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                // Unclaimed because the run aborted first.
                None => {}
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(results),
        }
    })
}

/// Runs one unit with `collector` installed as the current thread's
/// trace sink, returning its output, the events still buffered when it
/// finished, and the collector's drop count. A streaming collector
/// flushes its tail to the sink during the drain, so its event list
/// comes back empty; dropping the collector afterwards closes the sink.
/// Without the `trace` feature every call here is a no-op and the event
/// list is always empty.
fn run_traced<T>(
    collector: Collector,
    f: Box<dyn FnOnce() -> T + Send>,
) -> (Result<T, String>, Vec<TraceEvent>, u64) {
    trace::install(collector);
    let value = run_caught(f);
    let events = trace::drain();
    let dropped = trace::uninstall().map_or(0, |c| c.dropped());
    (value, events, dropped)
}

/// Runs the closure, translating a panic into its message.
fn run_caught<T>(f: Box<dyn FnOnce() -> T + Send>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_owned()
        }
    })
}

/// Wall-clock spent in one experiment (possibly several units).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment name (e.g. `"fig7"`).
    pub name: String,
    /// Total busy seconds across the experiment's units.
    pub secs: f64,
    /// Number of units the experiment was split into.
    pub units: usize,
}

/// Timing record for a whole scheduled run. Written by `run_all` to
/// `<out_dir>/meta/timing.json` — *outside* the `results/*.json` globs,
/// because timing legitimately differs between runs while the result
/// files must stay byte-identical at any `--jobs` level.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTiming {
    /// Worker threads used.
    pub jobs: usize,
    /// Total units scheduled.
    pub units: usize,
    /// Wall-clock seconds for the whole scheduled phase.
    pub wall_secs: f64,
    /// Per-experiment busy time, in first-submission order.
    pub experiments: Vec<ExperimentTiming>,
}

impl RunTiming {
    /// Aggregates per-unit timings (submission order) per experiment.
    pub fn from_results<T>(jobs: usize, wall_secs: f64, results: &[UnitResult<T>]) -> Self {
        let mut experiments: Vec<ExperimentTiming> = Vec::new();
        for r in results {
            match experiments.iter_mut().find(|e| e.name == r.experiment) {
                Some(e) => {
                    e.secs += r.secs;
                    e.units += 1;
                }
                None => experiments.push(ExperimentTiming {
                    name: r.experiment.clone(),
                    secs: r.secs,
                    units: 1,
                }),
            }
        }
        RunTiming {
            jobs,
            units: results.len(),
            wall_secs,
            experiments,
        }
    }

    /// Total busy seconds across all units.
    pub fn busy_secs(&self) -> f64 {
        self.experiments.iter().map(|e| e.secs).sum()
    }

    /// Busy/wall ratio: the speedup actually realized by the pool.
    pub fn speedup(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.busy_secs() / self.wall_secs
        } else {
            1.0
        }
    }

    /// Renders the timing as a printable [`crate::Table`].
    pub fn table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            &format!(
                "Run timing: {} units on {} worker(s), {:.1}s busy in {:.1}s wall ({:.2}x)",
                self.units,
                self.jobs,
                self.busy_secs(),
                self.wall_secs,
                self.speedup()
            ),
            &["Experiment", "Wall-clock (s)", "Units"],
        );
        for e in &self.experiments {
            t.row(vec![
                e.name.clone(),
                format!("{:.2}", e.secs),
                e.units.to_string(),
            ]);
        }
        t
    }

    /// Writes the record to `<out_dir>/meta/timing.json`.
    pub fn write(&self, out_dir: &Path) -> std::io::Result<()> {
        let dir = out_dir.join("meta");
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("timing.json"), self.to_json().to_string_pretty())
    }

    /// Reads a record written by [`RunTiming::write`].
    pub fn read(out_dir: &Path) -> Option<Self> {
        let raw = std::fs::read_to_string(out_dir.join("meta").join("timing.json")).ok()?;
        Self::from_json(&json::parse(&raw).ok()?)
    }
}

impl ToJson for ExperimentTiming {
    fn to_json(&self) -> Value {
        obj([
            ("name", self.name.to_json()),
            ("secs", self.secs.to_json()),
            ("units", self.units.to_json()),
        ])
    }
}

impl FromJson for ExperimentTiming {
    fn from_json(value: &Value) -> Option<Self> {
        Some(ExperimentTiming {
            name: String::from_json(value.get("name")?)?,
            secs: f64::from_json(value.get("secs")?)?,
            units: usize::from_json(value.get("units")?)?,
        })
    }
}

impl ToJson for RunTiming {
    fn to_json(&self) -> Value {
        obj([
            ("jobs", self.jobs.to_json()),
            ("units", self.units.to_json()),
            ("wall_secs", self.wall_secs.to_json()),
            ("experiments", self.experiments.to_json()),
        ])
    }
}

impl FromJson for RunTiming {
    fn from_json(value: &Value) -> Option<Self> {
        Some(RunTiming {
            jobs: usize::from_json(value.get("jobs")?)?,
            units: usize::from_json(value.get("units")?)?,
            wall_secs: f64::from_json(value.get("wall_secs")?)?,
            experiments: Vec::from_json(value.get("experiments")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_results_are_in_submission_order() {
        let mk = || {
            (0..20)
                .map(|i| Unit::new("exp", format!("u{i}"), move || i * i))
                .collect::<Vec<_>>()
        };
        let seq = run_units(1, mk()).unwrap();
        let par = run_units(4, mk()).unwrap();
        let seq_vals: Vec<i32> = seq.iter().map(|r| r.value).collect();
        let par_vals: Vec<i32> = par.iter().map(|r| r.value).collect();
        assert_eq!(seq_vals, par_vals);
        assert_eq!(par_vals, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_unit_fails_the_run_not_hangs_it() {
        for jobs in [1usize, 4] {
            let units = vec![
                Unit::new("ok", "a", || 1),
                Unit::new("bad", "boom", || panic!("deliberate test failure")),
                Unit::new("ok", "c", || 3),
            ];
            let err = run_units(jobs, units).unwrap_err();
            assert_eq!(err.label, "boom");
            assert!(err.message.contains("deliberate test failure"));
        }
    }

    #[test]
    fn first_failure_by_submission_order_wins() {
        let units = vec![
            Unit::new("bad", "first", || -> i32 { panic!("first") }),
            Unit::new("bad", "second", || panic!("second")),
        ];
        let err = run_units(1, units).unwrap_err();
        assert_eq!(err.label, "first");
    }

    #[test]
    fn timing_aggregates_per_experiment() {
        let results = vec![
            UnitResult {
                experiment: "fig7".into(),
                label: "fig7/a".into(),
                value: (),
                secs: 1.0,
                events: vec![],
                dropped: 0,
            },
            UnitResult {
                experiment: "fig8".into(),
                label: "fig8/a".into(),
                value: (),
                secs: 2.0,
                events: vec![],
                dropped: 0,
            },
            UnitResult {
                experiment: "fig7".into(),
                label: "fig7/b".into(),
                value: (),
                secs: 0.5,
                events: vec![],
                dropped: 0,
            },
        ];
        let t = RunTiming::from_results(4, 2.0, &results);
        assert_eq!(t.units, 3);
        assert_eq!(t.experiments.len(), 2);
        assert_eq!(t.experiments[0].name, "fig7");
        assert_eq!(t.experiments[0].units, 2);
        assert!((t.experiments[0].secs - 1.5).abs() < 1e-12);
        assert!((t.busy_secs() - 3.5).abs() < 1e-12);
        assert!((t.speedup() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn timing_roundtrips_through_json() {
        let t = RunTiming {
            jobs: 4,
            units: 2,
            wall_secs: 1.25,
            experiments: vec![ExperimentTiming {
                name: "fig7".into(),
                secs: 0.75,
                units: 2,
            }],
        };
        let back = RunTiming::from_json(&json::parse(&t.to_json().to_string_pretty()).unwrap());
        assert_eq!(back, Some(t));
    }

    #[test]
    fn zero_jobs_runs_inline() {
        let units = vec![Unit::new("e", "only", || 42)];
        let r = run_units(0, units).unwrap();
        assert_eq!(r[0].value, 42);
    }
}
