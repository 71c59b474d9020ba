//! Benchmark harness regenerating every table and figure of the PageForge
//! paper's evaluation (§5–§6).
//!
//! `run_all` is the one experiment entry point: [`suite::run_suite`]
//! schedules every experiment in [`suite::EXPERIMENTS`] (select with
//! `--only`). The experiment logic lives here so integration tests can
//! validate the same code paths `run_all` runs. Results print as aligned
//! text tables and are written as JSON under `results/` so EXPERIMENTS.md
//! can be kept honest. `make_report`, `trace_report`, `snapshot_diff` and
//! `timing_gate` post-process what `run_all` writes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod experiments;
pub mod report;
pub mod scheduler;
pub mod snapshot_diff;
pub mod suite;
pub mod timing_gate;
pub mod trace_report;

pub use args::BenchArgs;
pub use report::Table;
