//! Unified observability layer for the PageForge reproduction.
//!
//! PageForge's evaluation (MICRO-50, §5–§6) lives and dies on
//! *attribution*: Table 4/5 break a page comparison into Scan Table
//! walk, line fetch, and key generation cycles; Figures 8–11 charge
//! energy to individual hardware components. This crate is the
//! substrate that makes those breakdowns reproducible here, replacing
//! the ad-hoc stats structs that used to be scattered across the
//! simulation crates:
//!
//! | Module | Provides | Paper tie-in |
//! |--------|----------|--------------|
//! | [`registry`] | counter/gauge/histogram [`Registry`] that components write by hierarchical dotted name on export, snapshotted to deterministic JSON | per-component counts behind Figures 7–11 |
//! | [`trace`]    | cycle-stamped structured event tracer, streamed in chunks and feature-gated to no-ops | event streams folded into Table 4/5-style cycle and Figure-8-style energy attribution |
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! 1. **Determinism.** [`Snapshot`]s are name-sorted and serialise
//!    through the same hand-rolled `pageforge_types::json` layer as
//!    `results/*.json`, so identical metric values produce identical
//!    bytes at any scheduler parallelism (`run_all --jobs N`).
//! 2. **Zero cost when off.** Without the `trace` cargo feature the
//!    tracer's [`trace::Collector`] is a zero-sized type and the
//!    [`trace_event!`] macro expands to a call that never runs its
//!    closure — instrumented hot paths cost nothing in ordinary builds.
//!
//! # Example
//!
//! Components count in plain fields and write them into a registry only
//! on export, one call per name:
//!
//! ```
//! use pageforge_obs::Registry;
//! use pageforge_types::json::ToJson;
//! use pageforge_types::stats::RunningStats;
//!
//! let mut run_cycles = RunningStats::new();
//! run_cycles.push(7486.0);
//!
//! let mut reg = Registry::new();
//! reg.counter("engine.comparisons", 31);
//! reg.histogram("engine.run_cycles", &run_cycles);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("engine.comparisons"), Some(31));
//! // Deterministic, name-sorted JSON — the same shape results/*.json use.
//! assert!(snap.to_json().to_string_compact().starts_with("{\"engine.comparisons\":31"));
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod registry;
pub mod trace;

pub use registry::{HistogramSummary, Registry, Snapshot, SnapshotValue};
pub use trace::{Collector, OwnedTraceEvent, TraceEvent};
