//! UKSM: Ultra KSM, the alternative software deduplicator of §7.2.
//!
//! UKSM differs from KSM in three documented ways (the paper's related
//! work, citing [kerneldedup.org]). This model runs the first two:
//!
//! 1. **whole-system scanning** — it does not rely on
//!    `madvise(MADV_MERGEABLE)` hints; every anonymous page in the system
//!    is a candidate (so a cloud provider cannot exempt VMs);
//! 2. **CPU-budget governor** — the user sets a target CPU share for the
//!    daemon, and UKSM adapts its per-interval page quota to hit it,
//!    instead of KSM's fixed `pages_to_scan`/`sleep_millisecs` pair.
//!
//! The third, a different hash generation algorithm, is not modelled: the
//! daemon hashes with its inner [`Ksm`]'s `jhash2` page checksum. The same
//! stable/unstable tree machinery, cost model, and merge operations are
//! reused, so UKSM-vs-KSM comparisons isolate exactly the two policy
//! differences above.

use pageforge_types::{Cycle, Gfn, VmId};
use pageforge_vm::HostMemory;

use crate::algorithm::{BatchReport, Ksm, KsmConfig};

/// UKSM tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct UksmConfig {
    /// Target CPU share of one core the daemon may consume, in `(0, 1]`.
    pub cpu_share: f64,
    /// Work-interval length in cycles (quota is adapted per interval).
    pub interval_cycles: Cycle,
    /// Initial pages per interval (adapted thereafter).
    pub initial_quota: usize,
}

impl Default for UksmConfig {
    fn default() -> Self {
        UksmConfig {
            cpu_share: 0.2,
            interval_cycles: 200_000,
            initial_quota: 16,
        }
    }
}

/// The UKSM daemon: KSM's trees and merge machinery under UKSM's policies.
#[derive(Debug, Clone)]
pub struct Uksm {
    cfg: UksmConfig,
    inner: Ksm,
    quota: usize,
    /// Cycles consumed in the last interval (for the governor).
    last_interval_cycles: Cycle,
}

impl Uksm {
    /// Creates a daemon scanning *all* guest pages of `mem` — UKSM takes
    /// no hints ("performs a whole-system memory scan", §7.2).
    pub fn new(cfg: UksmConfig, mem: &HostMemory) -> Self {
        let pages: Vec<(VmId, Gfn)> = mem.iter_mappings().map(|(vm, gfn, _)| (vm, gfn)).collect();
        let inner_cfg = KsmConfig {
            pages_to_scan: cfg.initial_quota,
            sleep_millisecs: 0,
            shadow_ecc: None,
            use_zero_pages: false,
            cache_bypass: false,
            digest_cache: true,
        };
        Uksm {
            quota: cfg.initial_quota,
            inner: Ksm::new(inner_cfg, pages),
            cfg,
            last_interval_cycles: 0,
        }
    }

    /// Current adaptive per-interval quota.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// The underlying scanning state (trees, stats).
    pub fn inner(&self) -> &Ksm {
        &self.inner
    }

    /// Runs one work interval: scans the current quota of pages, then
    /// adapts the quota so consumed cycles track
    /// `cpu_share × interval_cycles`.
    pub fn work_interval(&mut self, mem: &mut HostMemory) -> BatchReport {
        let report = self.inner.scan_batch(mem, self.quota);
        self.last_interval_cycles = report.cycles.total();

        // Multiplicative-increase / multiplicative-decrease governor.
        let budget = (self.cfg.cpu_share * self.cfg.interval_cycles as f64) as Cycle;
        let spent = self.last_interval_cycles.max(1);
        let ratio = budget as f64 / spent as f64;
        let adjusted = (self.quota as f64 * ratio.clamp(0.5, 2.0)).round() as usize;
        self.quota = adjusted.clamp(1, 100_000);
        report
    }

    /// Cycles the last interval consumed (what the governor saw).
    pub fn last_interval_cycles(&self) -> Cycle {
        self.last_interval_cycles
    }

    /// Runs intervals until a full pass merges nothing, or `max_intervals`
    /// elapse. Returns intervals used.
    pub fn run_to_steady_state(&mut self, mem: &mut HostMemory, max_intervals: u64) -> u64 {
        let mut merged_this_pass = 0;
        for i in 1..=max_intervals {
            let r = self.work_interval(mem);
            merged_this_pass += r.merged;
            if r.pass_completed {
                if merged_this_pass == 0 && self.inner.stats().passes >= 2 {
                    return i;
                }
                merged_this_pass = 0;
            }
        }
        max_intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_types::PageData;

    fn identical_vms(n: u32, b: u8) -> HostMemory {
        let mut mem = HostMemory::new();
        for v in 0..n {
            mem.map_new_page(
                VmId(v),
                Gfn(0),
                PageData::from_fn(move |i| b.wrapping_add((i % 5) as u8)),
            );
        }
        mem
    }

    #[test]
    fn scans_all_pages_without_hints() {
        let mem = identical_vms(4, 1);
        let uksm = Uksm::new(UksmConfig::default(), &mem);
        assert_eq!(uksm.inner().hint_count(), 4);
    }

    #[test]
    fn merges_like_ksm() {
        let mut mem = identical_vms(5, 2);
        let mut uksm = Uksm::new(UksmConfig::default(), &mem);
        uksm.run_to_steady_state(&mut mem, 200);
        assert_eq!(mem.allocated_frames(), 1);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn governor_tracks_cpu_budget() {
        // Many pages with deep trees: quota must settle so that interval
        // cycles approximate the budget.
        let mut mem = HostMemory::new();
        for i in 0..400u64 {
            mem.map_new_page(
                VmId(0),
                Gfn(i),
                PageData::from_fn(move |j| ((i * 37 + j as u64) % 251) as u8),
            );
        }
        let cfg = UksmConfig {
            cpu_share: 0.25,
            interval_cycles: 200_000,
            ..UksmConfig::default()
        };
        let budget = (cfg.cpu_share * cfg.interval_cycles as f64) as Cycle;
        let mut uksm = Uksm::new(cfg, &mem);
        let mut spent = Vec::new();
        for _ in 0..60 {
            uksm.work_interval(&mut mem);
            spent.push(uksm.last_interval_cycles());
        }
        // After convergence, the average of the last intervals is within
        // 2x of the budget (governor granularity is one page).
        let tail = &spent[40..];
        let avg = tail.iter().sum::<Cycle>() as f64 / tail.len() as f64;
        assert!(
            avg > budget as f64 * 0.4 && avg < budget as f64 * 2.5,
            "avg {avg} vs budget {budget}"
        );
    }

    #[test]
    fn quota_increases_when_under_budget() {
        let mut mem = identical_vms(3, 1);
        let mut uksm = Uksm::new(UksmConfig::default(), &mem);
        let q0 = uksm.quota();
        // Scanning 3 trivial pages costs almost nothing: quota must grow.
        for _ in 0..5 {
            uksm.work_interval(&mut mem);
        }
        assert!(uksm.quota() > q0, "quota {} should grow", uksm.quota());
    }
}
