//! Domain-sharded execution of the simulator (Figure 5's layout).
//!
//! The paper places one PageForge engine **per memory controller**
//! precisely because the merge workload partitions along controller
//! domains. This module carries that structure into the simulator's
//! execution model:
//!
//! * a [`DomainPlan`] statically assigns every core, PageForge module,
//!   and memory controller to a *domain* (2 in the Figure 5 config, 4
//!   when `ablation_modules` instantiates 4 engine modules);
//! * events retire from one global heap in the canonical
//!   `(cycle, sequence)` order, so results are byte-identical by
//!   construction whatever the domain count;
//! * [`ShardMetrics`] counts, as they happen, which DRAM lines each
//!   domain sent to its own controller or another domain's, and the Scan
//!   Table slices handed to the engine;
//! * [`ordered_map`] is the worker pool for the phases that are *pure*
//!   per item — today, per-VM image content synthesis (see
//!   `AppProfile::generate_vm_page_contents`): items are claimed from a
//!   shared cursor, computed on `threads` workers, and the outputs are
//!   re-emitted in submission order, so worker count never affects any
//!   byte of output.
//!
//! What is intentionally **not** parallel: retirement of coupled events.
//! Every demand access can probe the shared inclusive L3 (snoopy MESI
//! walks every peer), and the controllers are line-interleaved
//! (`addr % controllers`), so consecutive accesses from one domain land
//! in every other domain's controller. Under the byte-identity contract
//! this coupling forces cross-domain events to retire in the canonical
//! order. DESIGN.md §8 documents the argument.

/// Static assignment of cores, PageForge modules, and memory
/// controllers to execution domains.
///
/// The domain count is fixed by the machine configuration (the larger
/// of controller count and engine-module count), **not** by the
/// `--shards` thread count: threads are an execution resource, domains
/// are model structure, and output depends on neither.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainPlan {
    domains: usize,
    core_domain: Vec<usize>,
    module_domain: Vec<usize>,
    controller_domain: Vec<usize>,
}

impl DomainPlan {
    /// Builds the plan for `cores` cores, `controllers` memory
    /// controllers, and `modules` PageForge modules.
    ///
    /// Controllers and modules map 1:1 onto domains (modulo the domain
    /// count); cores are dealt round-robin, mirroring how the paper
    /// splits the hint list across engines.
    pub fn new(cores: usize, controllers: usize, modules: usize) -> Self {
        let domains = controllers.max(modules).max(1);
        DomainPlan {
            domains,
            core_domain: (0..cores).map(|c| c % domains).collect(),
            module_domain: (0..modules.max(1)).map(|m| m % domains).collect(),
            controller_domain: (0..controllers.max(1)).map(|c| c % domains).collect(),
        }
    }

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// Domain owning core `c`.
    pub fn core(&self, c: usize) -> usize {
        self.core_domain[c % self.core_domain.len().max(1)]
    }

    /// Domain owning PageForge module `m`.
    pub fn module(&self, m: usize) -> usize {
        self.module_domain[m % self.module_domain.len()]
    }

    /// Domain owning memory controller `c`.
    pub fn controller(&self, c: usize) -> usize {
        self.controller_domain[c % self.controller_domain.len()]
    }
}

/// Cross-domain traffic totals, exported as the `sim.shard.*` metrics
/// (see OBSERVABILITY.md). Counted directly as lines and slices move.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Demand/engine DRAM lines a domain sent to a controller owned by
    /// another domain (line interleaving makes this the common case).
    pub xdomain_lines: u64,
    /// DRAM lines that stayed within the issuing domain's own controller.
    pub local_lines: u64,
    /// Scan Table slices handed to the engine (refills) — the §4.2
    /// slice handoff.
    pub table_handoffs: u64,
}

/// Runs `f` over `0..items` on up to `threads` workers and returns the
/// outputs **in item order**.
///
/// Items are claimed from a shared atomic cursor (the same take-once
/// shape as the experiment scheduler) and each output lands in its
/// item's slot, so the result is independent of worker count and
/// scheduling. `f` must be a pure function of the item index. A worker
/// panic propagates out of the enclosing scope.
pub fn ordered_map<R, F>(threads: usize, items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || items <= 1 {
        return (0..items).map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..items).map(|_| std::sync::Mutex::new(None)).collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items) {
            let slots = &slots;
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= slots.len() {
                    break;
                }
                // Poison-tolerant: a slot is written exactly once, so a
                // poisoned lock (another worker panicked mid-store) still
                // holds either None or the completed value.
                *slots[idx]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(f(idx));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every item is computed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_by_controller_and_module() {
        // Figure 5: 10 cores, 2 controllers, 1 module -> 2 domains.
        let p = DomainPlan::new(10, 2, 1);
        assert_eq!(p.domains(), 2);
        assert_eq!(p.core(0), 0);
        assert_eq!(p.core(1), 1);
        assert_eq!(p.core(9), 1);
        assert_eq!(p.controller(0), 0);
        assert_eq!(p.controller(1), 1);
        assert_eq!(p.module(0), 0);

        // ablation_modules: 4 engine modules widen the plan to 4 domains.
        let p4 = DomainPlan::new(10, 2, 4);
        assert_eq!(p4.domains(), 4);
        assert_eq!(p4.module(3), 3);
        assert_eq!(p4.controller(1), 1);
    }

    #[test]
    fn ordered_map_is_thread_count_invariant() {
        let f = |i: usize| (i * i) as u64;
        let seq = ordered_map(1, 20, f);
        for threads in [2, 4, 7] {
            assert_eq!(ordered_map(threads, 20, f), seq);
        }
        assert_eq!(seq[19], 361);
        assert!(ordered_map(4, 0, f).is_empty());
    }
}
