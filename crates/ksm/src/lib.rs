//! A faithful reimplementation of RedHat's Kernel Same-page Merging (KSM),
//! the software baseline that PageForge is evaluated against.
//!
//! KSM (§2.1 of the paper; `mm/ksm.c` in Linux) continuously scans pages
//! that VMs registered with `madvise(MADV_MERGEABLE)`, discovers pages with
//! identical contents, and merges them into single CoW-protected frames.
//! The implementation here follows the paper's Algorithm 1, with the same
//! data structures and tuning knobs:
//!
//! * [`rbtree`] — an arena-based red-black tree with the Linux rbtree's
//!   caller-driven walk API (full CLRS insert/delete rebalancing);
//! * [`tree`] — the content-indexed *stable* and *unstable* page trees,
//!   including stale-node pruning;
//! * [`jhash`] — Bob Jenkins' `jhash2` and KSM's 1 KB page checksum;
//! * [`algorithm`] — the scanning daemon: passes, candidate processing,
//!   merging, and the `pages_to_scan` / `sleep_millisecs` knobs;
//! * [`cost`] — work metering and the cycle cost model used to charge KSM
//!   to a simulated core (Table 4).
//!
//! # Examples
//!
//! ```
//! use pageforge_ksm::{Ksm, KsmConfig};
//! use pageforge_types::{Gfn, PageData, VmId};
//! use pageforge_vm::HostMemory;
//!
//! // Two VMs, one identical page each.
//! let mut mem = HostMemory::new();
//! let data = PageData::from_fn(|i| i as u8);
//! mem.map_new_page(VmId(0), Gfn(0), data.clone());
//! mem.map_new_page(VmId(1), Gfn(0), data);
//!
//! let hints = vec![(VmId(0), Gfn(0)), (VmId(1), Gfn(0))];
//! let mut ksm = Ksm::new(KsmConfig::default(), hints);
//! ksm.run_to_steady_state(&mut mem, 8);
//! assert_eq!(mem.allocated_frames(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod cost;
pub mod jhash;
pub mod rbtree;
pub mod tree;
pub mod uksm;

pub use algorithm::{
    candidate_step, steady_state, BatchReport, CandidateOutcome, Ksm, KsmConfig, KsmStats,
};
pub use cost::{CostModel, KsmCycles, KsmWork};
pub use jhash::{jhash2, page_checksum};
pub use tree::{PageRef, PageTree, SearchInsert, TreeKind};
pub use uksm::{Uksm, UksmConfig};
