//! The full-system simulator: 10 out-of-order cores with private L1/L2, a
//! shared L3 over a snoopy MESI bus, memory controllers with DDR DRAM
//! behind them, one VM pinned per core running a TailBench-like
//! application, and — depending on configuration — the KSM daemon
//! migrating across cores or the PageForge engine in the memory controller
//! (§5 of the paper).
//!
//! The simulation is event-driven and deterministic. Each VM's queries are
//! an open-loop arrival process; query execution drives synthetic line
//! touches through the cache hierarchy and DRAM, so interference between
//! the applications and the deduplication machinery (core theft, cache
//! pollution, DRAM bank/bus contention) emerges from the model rather than
//! being asserted:
//!
//! * **KSM** runs as a kernel task on a core (round-robin migration, as the
//!   Linux scheduler does): its page comparisons and jhash computations
//!   consume core cycles and stream pages through that core's caches.
//! * **PageForge** runs *in* the memory controller: its line reads probe
//!   the on-chip network first and fall through to DRAM, never touching
//!   the caches; only the tiny Scan Table refill/poll work is charged to a
//!   core.
//!
//! Time scaling (see `pageforge-workloads`): every interval — query
//! lengths, `sleep_millisecs`, `pages_to_scan`, warm-up — is scaled by the
//! same factor, preserving utilization and queueing shape.
//!
//! | module | paper anchor | contents |
//! |--------|--------------|----------|
//! | [`config`] | Table 2, §5.3 | [`SimConfig`]: machine + dedup-mode knobs |
//! | [`system`] | §5–§6 | the event loop, dispatcher, KSM/PageForge scheduling |
//! | [`fabric`] | §3.2, Figure 5 | [`SimFabric`]: PageForge's cache-probe/DRAM path |
//! | [`result`] | Figures 9–11, Table 4 | [`SimResult`]: latency/bandwidth/merge outcomes |
//!
//! [`System::run_observed`](system::System::run_observed) additionally
//! returns the unified metric snapshot described in OBSERVABILITY.md.
//!
//! # Examples
//!
//! ```no_run
//! use pageforge_sim::{DedupMode, SimConfig, System};
//!
//! let cfg = SimConfig::quick("silo", DedupMode::None, 42);
//! let result = System::new(cfg).run();
//! println!("mean sojourn latency: {:.0} cycles", result.mean_sojourn());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod fabric;
pub mod result;
pub mod system;

pub use config::{DedupMode, SimConfig};
pub use fabric::SimFabric;
pub use result::{DedupSummary, DegradedSummary, SimResult};
pub use system::System;
