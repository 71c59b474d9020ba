//! Determinism and zero-overhead guarantees of the observability layer.
//!
//! Two properties underwrite the whole of OBSERVABILITY.md:
//!
//! 1. metric snapshots are byte-identical regardless of the scheduler's
//!    `--jobs` level (same guarantee `results/*.json` already has);
//! 2. with the `trace` feature disabled, the tracing hooks compile to
//!    literal no-ops — a zero-sized collector and no observable events —
//!    so instrumented hot paths cost nothing in default builds; with it
//!    enabled, each unit's spooled events are the same at any `--jobs`.

use std::sync::{Arc, Mutex};

use pageforge_bench::scheduler::{run_units, run_units_spooled, spool_path, Unit};
use pageforge_obs::trace::{self, TraceEvent};
use pageforge_sim::{DedupMode, SimConfig, System};
use pageforge_types::json::ToJson;

/// One snapshot-producing unit per (app, dedup mode) cell: run the full
/// simulation and serialise the aggregated registry snapshot.
fn snapshot_units() -> Vec<Unit<String>> {
    let cells: Vec<(&'static str, DedupMode)> = vec![
        ("silo", DedupMode::None),
        ("silo", DedupMode::Ksm(SimConfig::scaled_ksm())),
        ("silo", DedupMode::PageForge(SimConfig::scaled_pageforge())),
        (
            "masstree",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
        ),
    ];
    cells
        .into_iter()
        .map(|(app, mode)| {
            let label = format!("{app}/{}", mode.label());
            Unit::new("obs", label, move || {
                let (_, snapshot) = System::new(SimConfig::quick(app, mode, 11)).run_observed();
                snapshot.to_json().to_string_compact()
            })
        })
        .collect()
}

#[test]
fn snapshots_are_byte_identical_across_jobs_levels() {
    let two = run_units(2, snapshot_units()).expect("jobs=2 run");
    let four = run_units(4, snapshot_units()).expect("jobs=4 run");
    assert_eq!(two.len(), four.len());
    for (a, b) in two.iter().zip(&four) {
        assert_eq!(a.label, b.label, "submission order must be preserved");
        assert_eq!(a.value, b.value, "snapshot bytes for {}", a.label);
        assert!(
            a.value.starts_with('{'),
            "snapshot serialises as a JSON object"
        );
    }
    // The snapshots are not degenerate: the PageForge cell carries
    // engine metrics the baseline cell lacks.
    assert!(two[2].value.contains("\"engine.comparisons\""));
    assert!(!two[0].value.contains("\"engine.comparisons\""));
}

/// A fresh spool directory for one test run.
fn spool_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pageforge-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A collector whose sink appends to the returned list.
fn vec_sink() -> (trace::Collector, Arc<Mutex<Vec<TraceEvent>>>) {
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
    let out = Arc::clone(&events);
    let sink = Box::new(move |chunk: Vec<TraceEvent>| out.lock().unwrap().extend(chunk));
    (trace::Collector::new(4096, sink), events)
}

#[cfg(not(feature = "trace"))]
mod disabled {
    use super::*;

    /// The no-op configuration really is free: the collector is a ZST,
    /// the macro records nothing, and a spooled run writes no spool file.
    #[test]
    fn tracing_compiles_to_zero_overhead() {
        assert_eq!(std::mem::size_of::<trace::Collector>(), 0);
        assert!(!trace::compiled_in());
        let (collector, events) = vec_sink();
        trace::install(collector);
        pageforge_obs::trace_event!(1, "engine", "batch", { comparisons: 31.0 });
        assert!(!trace::active());
        assert!(trace::uninstall().is_none());
        assert!(events.lock().unwrap().is_empty());

        let dir = spool_dir("disabled");
        run_units_spooled(
            1,
            vec![Unit::new("obs", "noop", || {
                pageforge_obs::trace_event!(2, "engine", "batch", { comparisons: 7.0 });
            })],
            &dir,
        )
        .unwrap();
        assert!(!spool_path(&dir, 0).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(feature = "trace")]
mod enabled {
    use super::*;

    /// With tracing compiled in, the scheduler streams each unit's events
    /// to its own spool file, identically at any jobs level.
    #[test]
    fn scheduler_spools_per_unit_events_deterministically() {
        let mk = || {
            (0..4u64)
                .map(|i| {
                    Unit::new("obs", format!("u{i}"), move || {
                        pageforge_obs::trace_event!(i, "engine", "batch", { unit: i as f64 });
                        i
                    })
                })
                .collect::<Vec<_>>()
        };
        let (one, four) = (spool_dir("jobs1"), spool_dir("jobs4"));
        let seq = run_units_spooled(1, mk(), &one).unwrap();
        run_units_spooled(4, mk(), &four).unwrap();
        for (idx, r) in seq.iter().enumerate() {
            let a = std::fs::read_to_string(spool_path(&one, idx)).unwrap();
            let b = std::fs::read_to_string(spool_path(&four, idx)).unwrap();
            assert_eq!(a, b, "unit {}", r.label);
            let events: Vec<_> = a.lines().filter_map(trace::parse_line).collect();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].cycle, r.value);
        }
        std::fs::remove_dir_all(&one).unwrap();
        std::fs::remove_dir_all(&four).unwrap();
    }

    /// A traced simulation emits the documented event kinds.
    #[test]
    fn simulation_emits_documented_event_kinds() {
        let (collector, events) = vec_sink();
        trace::install(collector);
        let _ = System::new(SimConfig::quick(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            11,
        ))
        .run();
        trace::uninstall().unwrap().flush();
        let events = events.lock().unwrap();
        assert!(!events.is_empty());
        for (component, kind) in [
            ("engine", "batch"),
            ("scan_table", "transition"),
            ("dram", "command"),
            ("driver", "refill"),
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.component == component && e.kind == kind),
                "expected at least one {component}/{kind} event"
            );
        }
    }
}
