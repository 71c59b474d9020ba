//! Fleet-scale deduplication control plane.
//!
//! Everything else in this repository drives **one** host. This crate
//! runs *N* of them: each [`Host`] owns the same substrate a single-host
//! simulation wraps (guest memory, a PageForge driver/engine pair, a
//! memory fabric), and a [`ControlPlane`] schedules a seeded serverless
//! churn workload over the fleet — thousands of short-lived micro-VM
//! instances ([`pageforge_workloads::serverless`]) arriving onto the
//! least-loaded host, departing when their lifetime expires, and
//! live-migrating under a periodic rebalancing policy. Scan work flows
//! through each host's **bounded queue**; when a host's merge pipeline
//! falls behind, the queue rejects and the control plane parks the work
//! under a deterministic lease with exponential-backoff retries.
//!
//! Under a [`pageforge_faults::FleetFaultPlan`] the plane also runs a
//! chaos-and-recovery loop: a per-tick heartbeat delivers host crashes,
//! gray slowdowns, engine wedges, and armed migration failures;
//! unhealthy hosts are quarantined (no admissions or rescans, due
//! leases re-parked); crashed hosts' micro-VMs evacuate over the
//! live-migration path in `(crash_tick, vm)` order; and a placement
//! audit enforces the zero-loss invariant every tick. The summary lands
//! in [`result::FleetChaos`].
//!
//! The run is a pure function of its [`FleetConfig`] (seed included):
//! byte-identical across `--jobs`, with or without a fault plan. DESIGN.md §7 and §10 give the architecture and the
//! determinism argument; OBSERVABILITY.md documents the `fleet.*`
//! metrics and the `fleet` trace events; EXPERIMENTS.md covers the
//! serverless-churn and fleet-chaos experiments built on top.
//!
//! ```
//! use pageforge_fleet::{ControlPlane, FleetConfig};
//!
//! let mut cfg = FleetConfig::smoke(42);
//! cfg.ticks = 40; // keep the doctest fast
//! let (result, snapshot) = ControlPlane::new(cfg.clone()).run();
//! assert!(result.arrivals > 0);
//! assert_eq!(snapshot.gauge("fleet.hosts"), Some(4.0));
//! // Same config: same result.
//! let (again, _) = ControlPlane::new(cfg).run();
//! assert_eq!(result, again);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chaos;
pub mod config;
pub mod host;
pub mod plane;
pub mod result;

pub use config::FleetConfig;
pub use host::{Host, HostTickReport, ScanJob};
pub use plane::{lease_backoff, ControlPlane};
pub use result::{FleetChaos, FleetDegraded, FleetResult};
