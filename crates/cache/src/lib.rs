//! Cache-hierarchy substrate: private L1/L2, shared L3, MESI snoopy
//! coherence, and the memory-controller probe path used by PageForge.
//!
//! The modeled chip (Table 2 of the paper) has 10 cores, each with a 32 KB
//! L1 and 256 KB L2, sharing a 32 MB L3, kept coherent by a snoopy MESI
//! protocol over a wide bus. Two clients generate traffic:
//!
//! * **cores** call [`SystemCaches::access`], which walks L1 → L2 → L3,
//!   snooping the peer caches an L3 hit names, and allocates on miss — this
//!   is the path that lets the software KSM daemon *pollute* the caches
//!   (Table 4 shows the L3 miss rate rising from 34% to 39% under KSM);
//! * **the memory controller** (PageForge) calls
//!   [`SystemCaches::probe_from_mc`], the §3.2.2 "issue each request to the
//!   on-chip network first" path: it *reads* the latest coherent copy but
//!   never allocates, because the PageForge module has no cache and does
//!   not participate as a supplier (§3.5).
//!
//! Caches track only tags and MESI state; data always lives in the
//! `HostMemory` substrate, which is exact because the simulation is
//! sequentially consistent at the event level. The inclusive L3 keeps
//! per-way core-valid bits, as inclusive last-level caches do in hardware:
//! they name exactly the cores whose private caches hold the line, so an
//! L3 miss skips the snoop entirely. Each private way links to its line's
//! slot one level down, and each way to its line's copy one level up: an
//! L2 way to its L1 copy, an L3 way to the L2 copy of the line's only
//! holder. So coherence updates reach the other levels without searching a
//! set, except an L2 set for a line whose L3 link is clear.
//!
//! # Examples
//!
//! ```
//! use pageforge_cache::{HierarchyConfig, HitLevel, SystemCaches};
//! use pageforge_types::LineAddr;
//!
//! let mut caches = SystemCaches::new(HierarchyConfig::micro50(2));
//! let first = caches.access(0, LineAddr(100), false);
//! assert_eq!(first.level, HitLevel::Memory); // cold miss
//! let second = caches.access(0, LineAddr(100), false);
//! assert_eq!(second.level, HitLevel::L1);    // now resident
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod hierarchy;

pub use cache::{CacheConfig, CacheStats, LineState, SetAssocCache};
pub use hierarchy::{Access, HierarchyConfig, HitLevel, SystemCaches};
