//! The PageForge hardware engine and its OS driver — the paper's primary
//! contribution.
//!
//! PageForge (Skarlatos, Kim, Torrellas; MICRO-50 2017) moves the expensive
//! inner operations of same-page merging into the memory controller:
//!
//! * **pairwise page comparison** — a lockstep, line-by-line comparator FSM
//!   ([`engine`]);
//! * **hash-key generation** — repurposing the DIMM's (72,64) SECDED ECC
//!   codes: the low 8 ECC bits of a few fixed lines, concatenated, form a
//!   32-bit key assembled *in the background* while comparisons stream the
//!   candidate page through the controller ([`pageforge_ecc`]);
//! * **ordered traversal** of a software-chosen page set — the *Scan Table*
//!   ([`scan_table`]), 31 Other Pages entries with `Less`/`More` indices
//!   plus one candidate (PFE) entry, ≈260 B of state.
//!
//! The OS keeps the merging *policy* (which pages to compare, in what
//! order) and drives the hardware through the five-call interface of the
//! paper's Table 1. [`driver`] implements the KSM algorithm on top of that
//! interface, exactly as §3.4 describes; [`power`] reproduces the Table 5
//! area/power accounting.
//!
//! # Examples
//!
//! ```
//! use pageforge_core::{PageForge, PageForgeConfig};
//! use pageforge_core::fabric::FlatFabric;
//! use pageforge_types::{Gfn, PageData, VmId};
//! use pageforge_vm::HostMemory;
//!
//! // Two VMs with one identical page each.
//! let mut mem = HostMemory::new();
//! let data = PageData::from_fn(|i| (i * 7) as u8);
//! mem.map_new_page(VmId(0), Gfn(0), data.clone());
//! mem.map_new_page(VmId(1), Gfn(0), data);
//!
//! let hints = vec![(VmId(0), Gfn(0)), (VmId(1), Gfn(0))];
//! let mut pf = PageForge::new(PageForgeConfig::default(), hints);
//! let mut fabric = FlatFabric::all_dram(80); // stand-in memory system
//! pf.run_to_steady_state(&mut mem, &mut fabric, 8);
//! assert_eq!(mem.allocated_frames(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod engine;
pub mod fabric;
pub mod power;
pub mod scan_table;

pub use driver::{IntervalReport, PageForge, PageForgeConfig, PageForgeStats, OS_CHECK_INTERVAL};
pub use engine::{EngineConfig, EngineError, EngineRun, EngineStats, PageForgeEngine};
pub use fabric::{FabricRead, FlatFabric, MemoryFabric};
pub use power::{AreaPower, PowerModel};
pub use scan_table::{OtherPage, PfeEntry, PfeInfo, ScanTable, DEFAULT_OTHER_PAGES, INVALID_INDEX};
