//! One simulated host: guest memory, a PageForge engine, and a bounded
//! scan queue.
//!
//! A host owns the same substrate a single-host simulation wraps — a
//! [`HostMemory`], a [`PageForge`] driver/engine pair, and a flat memory
//! fabric — but is driven at control-plane *tick* granularity instead of
//! cycle granularity: each tick the host drains queued scan jobs through
//! `scan_batch` up to its per-tick page budget. The queue is the
//! backpressure boundary: admission, migration, and periodic rescans all
//! *request* scan work, and a full queue rejects the request back to the
//! control plane (which takes a lease and retries later; see
//! `plane`). All host state is private to the host, so stepping one host
//! never reads or writes another.

use std::collections::{BTreeMap, VecDeque};

use pageforge_core::{FlatFabric, PageForge, PageForgeConfig};
use pageforge_faults::{FaultInjector, FaultPlan};
use pageforge_obs::Registry;
use pageforge_types::{Cycle, VmId};
use pageforge_vm::{AppProfile, ChurnModel, HostMemory, MemoryImage, PageCategory};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// DRAM latency of the per-host flat fabric, in cycles (same stand-in
/// the core driver tests use).
const HOST_DRAM_LATENCY: Cycle = 80;

/// One queued unit of scan work: a page quota the engine should consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanJob {
    /// Candidate pages left to scan for this job.
    pub pages: usize,
}

/// One resident micro-VM instance on a host.
#[derive(Debug, Clone)]
struct Resident {
    /// Generated layout (categories drive churn and user hints).
    image: MemoryImage,
    /// Write-churn parameters for this instance's function family.
    churn: ChurnModel,
}

/// What one host did during one control-plane tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTickReport {
    /// Candidate pages consumed from the queue.
    pub scanned: u64,
    /// Pages merged this tick.
    pub merged: u64,
    /// Churn write events applied this tick.
    pub churn_events: u64,
    /// Scan jobs fully drained this tick.
    pub jobs_completed: u64,
}

/// One simulated host in the fleet.
#[derive(Debug)]
pub struct Host {
    mem: HostMemory,
    engine: PageForge,
    fabric: FlatFabric,
    queue: VecDeque<ScanJob>,
    queue_capacity: usize,
    resident: BTreeMap<u32, Resident>,
    /// Whether the engine scans only ground-truth-mergeable pages
    /// (user-supplied hints) or every guest page.
    user_hints: bool,
    /// Host-local cycle clock, advanced by scan work and migration cost.
    now: Cycle,
}

impl Host {
    /// Creates an empty host. When a fault plan is given, a deterministic
    /// [`FaultInjector`] is installed on the host's engine; each host
    /// gets its own injector over the same plan, and injections land
    /// wherever that host's local clock takes them.
    pub fn new(
        pf: PageForgeConfig,
        queue_capacity: usize,
        user_hints: bool,
        faults: Option<&FaultPlan>,
    ) -> Host {
        let mut engine = PageForge::new(pf, Vec::new());
        if let Some(plan) = faults {
            engine.set_fault_injector(Some(FaultInjector::new(plan)));
        }
        Host {
            mem: HostMemory::new(),
            engine,
            fabric: FlatFabric::all_dram(HOST_DRAM_LATENCY),
            queue: VecDeque::new(),
            queue_capacity,
            resident: BTreeMap::new(),
            user_hints,
            now: 0,
        }
    }

    /// Admits one micro-VM: generates its guest image into host memory
    /// (content is a pure function of `(profile, vm, content_seed)`, so a
    /// migrated instance re-materialises byte-identically on its
    /// destination) and rebuilds the engine's hint list. Returns the
    /// number of pages hinted for scanning.
    pub fn admit(&mut self, vm: u32, profile: &AppProfile, content_seed: u64) -> usize {
        let image = profile.generate_image_for_vm(&mut self.mem, VmId(vm), content_seed);
        let hinted = if self.user_hints {
            image
                .pages
                .iter()
                .filter(|p| p.category != PageCategory::Unmergeable)
                .count()
        } else {
            image.pages.len()
        };
        self.resident.insert(
            vm,
            Resident {
                image,
                churn: profile.churn,
            },
        );
        self.rebuild_hints();
        hinted
    }

    /// Removes one micro-VM: unmaps all its guest pages (dropping shared
    /// frames' refcounts exactly as a hypervisor teardown would) and
    /// rebuilds the hint list. Returns the number of pages unmapped.
    pub fn depart(&mut self, vm: u32) -> usize {
        let Some(resident) = self.resident.remove(&vm) else {
            return 0;
        };
        let mut pages = 0;
        for p in &resident.image.pages {
            if self.mem.unmap(p.vm, p.gfn).is_some() {
                pages += 1;
            }
        }
        self.rebuild_hints();
        pages
    }

    /// Offers a scan job to the bounded queue; `false` means the queue is
    /// full and the caller must take a lease and retry.
    pub fn try_enqueue(&mut self, job: ScanJob) -> bool {
        if self.queue.len() >= self.queue_capacity {
            return false;
        }
        self.queue.push_back(job);
        true
    }

    /// Advances the host-local clock (migration landing cost).
    pub fn advance(&mut self, cycles: Cycle) {
        self.now += cycles;
    }

    /// Runs one control-plane tick: optional write churn over every
    /// resident instance (in VM-id order, from the given deterministic
    /// seed), then drains queued scan jobs through the engine up to
    /// `scan_budget` candidate pages.
    pub fn step(&mut self, scan_budget: usize, churn_seed: Option<u64>) -> HostTickReport {
        let mut report = HostTickReport::default();
        if let Some(seed) = churn_seed {
            let mut rng = SmallRng::seed_from_u64(seed);
            for r in self.resident.values() {
                report.churn_events +=
                    r.image.churn_step(&mut self.mem, &r.churn, &mut rng).len() as u64;
            }
        }
        let mut budget = scan_budget;
        while budget > 0 {
            let Some(job) = self.queue.front_mut() else {
                break;
            };
            let n = job.pages.min(budget);
            let r = self
                .engine
                .scan_batch(&mut self.mem, &mut self.fabric, self.now, n);
            self.now = r.finished_at;
            report.scanned += n as u64;
            report.merged += r.merged;
            budget -= n;
            job.pages -= n;
            if job.pages == 0 {
                self.queue.pop_front();
                report.jobs_completed += 1;
            }
        }
        report
    }

    /// Resident micro-VM count.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Whether a specific micro-VM is resident here.
    pub fn is_resident(&self, vm: u32) -> bool {
        self.resident.contains_key(&vm)
    }

    /// All resident micro-VM ids, ascending (the chaos plane's placement
    /// audit and evacuation enumeration both key off this order).
    pub fn resident_vms(&self) -> Vec<u32> {
        self.resident.keys().copied().collect()
    }

    /// Wedges (or un-wedges) the host's engine: while wedged, every
    /// hardware batch stalls, so the driver's bounded retry path degrades
    /// candidates to the software-KSM fallback. Installs an empty-plan
    /// injector on demand — a host with no fault plan can still be
    /// wedged by the fleet chaos plane.
    pub fn set_wedged(&mut self, on: bool) {
        if let Some(inj) = self.engine.fault_injector_mut() {
            inj.set_wedged(on);
        } else if on {
            // The engine drops inert injectors at install time, so wedge
            // the fresh empty-plan injector before handing it over.
            let mut inj = FaultInjector::new(&FaultPlan::empty());
            inj.set_wedged(true);
            self.engine.set_fault_injector(Some(inj));
        }
    }

    /// Crashes the host: drops every queued scan job (the work is lost
    /// with the host) and returns how many jobs were dropped. Residents
    /// are left mapped — the control plane evacuates them one by one via
    /// [`depart`](Host::depart)/re-admit so each migration is observable
    /// and charged.
    pub fn crash(&mut self) -> usize {
        let dropped = self.queue.len();
        self.queue.clear();
        dropped
    }

    /// Lowest resident VM id, if any (the migration victim policy).
    pub fn lowest_resident(&self) -> Option<u32> {
        self.resident.keys().next().copied()
    }

    /// Pages currently hinted to the engine.
    pub fn hint_count(&self) -> usize {
        self.resident
            .values()
            .map(|r| {
                if self.user_hints {
                    r.image
                        .pages
                        .iter()
                        .filter(|p| p.category != PageCategory::Unmergeable)
                        .count()
                } else {
                    r.image.pages.len()
                }
            })
            .sum()
    }

    /// Depth of the bounded scan queue, in jobs.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Fraction of guest pages whose frames are saved by merging.
    pub fn savings_fraction(&self) -> f64 {
        self.mem.stats().savings_fraction()
    }

    /// The host's guest-memory statistics source.
    pub fn memory(&self) -> &HostMemory {
        &self.mem
    }

    /// The host's PageForge driver (engine + driver statistics).
    pub fn engine(&self) -> &PageForge {
        &self.engine
    }

    /// Writes everything this host exports into `out`: the engine's
    /// `engine.*`/`pageforge.*` (and `faults.*`, if an injector is
    /// installed) metrics plus the memory substrate's `mem.*` metrics.
    pub fn export_metrics(&self, out: &mut Registry) {
        self.engine.export_metrics(out);
        self.mem.export_metrics(out);
    }

    /// Re-derives the engine's hint list from the resident set (VM-id
    /// order) and restarts the scan pass. With `user_hints`, only
    /// ground-truth-mergeable pages are offered — the serverless paper's
    /// premise that the function runtime knows its immutable image pages.
    fn rebuild_hints(&mut self) {
        let mut hints = Vec::new();
        for r in self.resident.values() {
            for p in &r.image.pages {
                if self.user_hints && p.category == PageCategory::Unmergeable {
                    continue;
                }
                hints.push((p.vm, p.gfn));
            }
        }
        self.engine.set_hints(hints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AppProfile {
        AppProfile::new("fn_test", 32, 0.25, 0.10)
    }

    fn host(user_hints: bool) -> Host {
        Host::new(PageForgeConfig::default(), 2, user_hints, None)
    }

    #[test]
    fn admit_scan_merges_shared_content() {
        let mut h = host(false);
        let p = profile();
        // Two instances of the same family share full-span content.
        let a = h.admit(1, &p, 99);
        let b = h.admit(2, &p, 99);
        assert_eq!(a, 32);
        assert_eq!(b, 32);
        assert!(h.try_enqueue(ScanJob { pages: 128 }));
        let mut merged = 0;
        for _ in 0..8 {
            merged += h.step(64, None).merged;
            h.try_enqueue(ScanJob { pages: 128 });
        }
        assert!(merged > 0, "identical runtime images must merge");
        assert!(h.savings_fraction() > 0.0);
    }

    #[test]
    fn depart_unmaps_everything() {
        let mut h = host(false);
        let p = profile();
        h.admit(7, &p, 1);
        assert_eq!(h.memory().mapped_guest_pages(), 32);
        assert_eq!(h.depart(7), 32);
        assert_eq!(h.memory().mapped_guest_pages(), 0);
        assert_eq!(h.resident_count(), 0);
        assert_eq!(h.depart(7), 0, "double departure is a no-op");
    }

    #[test]
    fn user_hints_exclude_unmergeable_pages() {
        let mut all = host(false);
        let mut hinted = host(true);
        let p = profile();
        let n_all = all.admit(1, &p, 5);
        let n_hinted = hinted.admit(1, &p, 5);
        assert_eq!(n_all, 32);
        // 25% of 32 pages are unmergeable and excluded by user hints.
        assert_eq!(n_hinted, 24);
        assert_eq!(hinted.hint_count(), 24);
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let mut h = host(false);
        assert!(h.try_enqueue(ScanJob { pages: 1 }));
        assert!(h.try_enqueue(ScanJob { pages: 1 }));
        assert!(!h.try_enqueue(ScanJob { pages: 1 }), "capacity is 2");
        assert_eq!(h.queue_depth(), 2);
    }

    #[test]
    fn wedged_host_still_merges_via_the_software_path() {
        let mut h = host(false);
        assert!(h.engine().fault_injector().is_none());
        h.set_wedged(false);
        assert!(
            h.engine().fault_injector().is_none(),
            "un-wedging a clean host must not install an injector"
        );
        h.set_wedged(true);
        assert!(h.engine().fault_injector().is_some());
        let p = profile();
        h.admit(1, &p, 99);
        h.admit(2, &p, 99);
        let mut merged = 0;
        for _ in 0..8 {
            h.try_enqueue(ScanJob { pages: 128 });
            merged += h.step(64, None).merged;
        }
        assert!(merged > 0, "degraded software path must still merge");
        let stats = h.engine().stats();
        assert!(
            stats.degraded_candidates > 0,
            "every batch should degrade while wedged"
        );
        h.set_wedged(false);
        assert!(h.engine().fault_injector().is_some_and(|i| i.is_inert()));
    }

    #[test]
    fn crash_drops_queued_work_and_reports_residents() {
        let mut h = host(false);
        let p = profile();
        h.admit(3, &p, 1);
        h.admit(9, &p, 1);
        h.try_enqueue(ScanJob { pages: 8 });
        h.try_enqueue(ScanJob { pages: 8 });
        assert_eq!(h.crash(), 2);
        assert_eq!(h.queue_depth(), 0);
        assert_eq!(h.resident_vms(), vec![3, 9]);
        assert!(h.is_resident(3) && !h.is_resident(4));
    }

    #[test]
    fn step_is_deterministic() {
        let run = || {
            let mut h = host(false);
            let p = profile();
            h.admit(1, &p, 3);
            h.admit(2, &p, 3);
            h.try_enqueue(ScanJob { pages: 96 });
            let mut tallies = Vec::new();
            for t in 0..6u64 {
                tallies.push(h.step(32, Some(1000 + t)));
            }
            (tallies, h.savings_fraction())
        };
        assert_eq!(run(), run());
    }
}
