//! Common types and constants shared by every crate in the PageForge
//! reproduction.
//!
//! The PageForge paper (MICRO-50, 2017) models a server with 4 KB pages and
//! 64 B cache lines. This crate provides:
//!
//! * [`PageData`] — an owned 4 KB page with content-comparison helpers that
//!   mirror the byte-by-byte, line-by-line comparisons performed by both KSM
//!   and the PageForge hardware;
//! * strongly-typed frame numbers and addresses ([`Ppn`], [`Gfn`], [`VmId`],
//!   [`PhysAddr`], [`LineAddr`]) so guest and host page numbers can never be
//!   confused;
//! * [`Cycle`] — the simulation time unit;
//! * small statistics helpers ([`stats::RunningStats`],
//!   [`stats::LatencyRecorder`]) used by the simulator and the workload
//!   models.
//!
//! # Examples
//!
//! ```
//! use pageforge_types::{PageData, PAGE_SIZE};
//!
//! let zero = PageData::zeroed();
//! assert!(zero.is_zero());
//! assert_eq!(zero.as_bytes().len(), PAGE_SIZE);
//!
//! let mut other = PageData::zeroed();
//! other.as_bytes_mut()[100] = 7;
//! assert!(zero < other);
//! assert_eq!(zero.first_diverging_line(&other), Some(1));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod json;
pub mod page;
pub mod stats;

pub use addr::{Gfn, LineAddr, PhysAddr, Ppn, VmId};
pub use page::{PageData, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE, WORDS_PER_LINE};

/// Simulation time, measured in processor clock cycles (2 GHz in the paper's
/// configuration, Table 2).
///
/// A plain alias rather than a newtype: cycle arithmetic saturates every inner
/// loop of the simulator and the values are never confusable with frame
/// numbers, which *are* newtyped.
pub type Cycle = u64;

/// The default seed used by every deterministic experiment in the
/// reproduction. Override with `--seed` in the bench binaries.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Derives a per-experiment seed from a base seed and a stable label.
///
/// Every unit of work scheduled by the parallel experiment harness gets a
/// seed that depends only on `(base, label)` — never on worker identity,
/// scheduling order, or thread count — so results are bit-identical at
/// any `--jobs` level. FNV-1a over the label, SplitMix64-finalized.
pub fn derive_seed(base: u64, label: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = base ^ h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod seed_tests {
    use super::derive_seed;

    #[test]
    fn stable_and_label_sensitive() {
        assert_eq!(derive_seed(7, "fig7"), derive_seed(7, "fig7"));
        assert_ne!(derive_seed(7, "fig7"), derive_seed(7, "fig8"));
        assert_ne!(derive_seed(7, "fig7"), derive_seed(8, "fig7"));
    }
}
