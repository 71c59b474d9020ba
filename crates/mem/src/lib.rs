//! Main-memory substrate: a DDR DRAM timing model and the memory controller
//! that PageForge lives in.
//!
//! The paper's configuration (Table 2) has 16 GB over 2 channels, 8 ranks
//! per channel, 8 banks per rank, clocked at 1 GHz DDR behind a 2 GHz
//! processor. This crate models:
//!
//! * [`Dram`] — per-bank row-buffer state and timing (activate / precharge /
//!   CAS, burst transfer, channel contention) with row-hit/miss statistics
//!   ([`dram`]);
//! * [`MemoryController`] — read/write request buffers, request
//!   *coalescing* (a PageForge request merges with an in-flight demand
//!   request for the same line and vice versa, §3.2.2), and windowed
//!   bandwidth metering for Figure 11 ([`controller`]);
//! * [`MemorySystem`] — the controllers of Figure 5 behind line
//!   interleaving ([`system`]).
//!
//! Controllers, channels, banks per channel and lines per row are powers
//! of two, so routing and the address map shift and mask instead of
//! dividing; the constructors refuse other geometry.
//!
//! # Examples
//!
//! ```
//! use pageforge_mem::{MemoryController, McConfig, MemSource};
//! use pageforge_types::LineAddr;
//!
//! let mut mc = MemoryController::new(McConfig::micro50());
//! let grant = mc.read_line(LineAddr(42), 1000, MemSource::Demand);
//! assert!(grant.ready_at > 1000);
//! // A second request for the same in-flight line coalesces.
//! let again = mc.read_line(LineAddr(42), 1001, MemSource::PageForge);
//! assert!(again.coalesced);
//! assert_eq!(again.ready_at, grant.ready_at);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod controller;
pub mod dram;
pub mod system;

pub use controller::{BandwidthMeter, McConfig, McStats, MemSource, MemoryController, ReadGrant};
pub use dram::{Dram, DramConfig, DramStats};
pub use system::{MemorySystem, MemorySystemConfig};
