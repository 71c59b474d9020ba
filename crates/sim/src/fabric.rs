//! The real memory fabric: PageForge's reads probe the caches first
//! (§3.2.2), then fall through to the memory controller.

use pageforge_cache::SystemCaches;
use pageforge_core::fabric::{FabricRead, MemoryFabric};
use pageforge_mem::{MemSource, MemorySystem};
use pageforge_types::{Cycle, LineAddr};

use crate::shard::ShardMetrics;

/// Borrows the chip's caches and memory controller for the duration of a
/// PageForge operation.
///
/// The fabric also carries the issuing engine module's execution domain
/// and counts which DRAM lines stayed within that domain's controller
/// versus crossed into another domain's (see [`crate::shard`]). The
/// count is bookkeeping over the *same* access stream; it never changes
/// an access's timing or routing.
#[derive(Debug)]
pub struct SimFabric<'a> {
    /// The chip caches (probed, never allocated into).
    pub caches: &'a mut SystemCaches,
    /// The memory system (PageForge-tagged traffic routes to the owning
    /// controller).
    pub mem: &'a mut MemorySystem,
    /// The run's cross-domain line counts, incremented per DRAM line.
    pub shard: &'a mut ShardMetrics,
    /// Execution domain of the engine module issuing through this
    /// fabric (controller domains are tagged via
    /// [`MemorySystem::assign_domains`]).
    pub domain: usize,
}

impl<'a> SimFabric<'a> {
    /// Borrows `caches`, `mem` and the run's `shard` counts for an engine
    /// module living in `domain`.
    pub fn new(
        caches: &'a mut SystemCaches,
        mem: &'a mut MemorySystem,
        shard: &'a mut ShardMetrics,
        domain: usize,
    ) -> Self {
        SimFabric {
            caches,
            mem,
            shard,
            domain,
        }
    }
}

impl MemoryFabric for SimFabric<'_> {
    fn read_line(&mut self, addr: LineAddr, now: Cycle) -> FabricRead {
        if let Some(latency) = self.caches.probe_from_mc(addr) {
            FabricRead {
                ready_at: now + latency,
                on_chip: true,
            }
        } else {
            if self.mem.domain_of(addr) == self.domain {
                self.shard.local_lines += 1;
            } else {
                self.shard.xdomain_lines += 1;
            }
            let grant = self.mem.read_line(addr, now, MemSource::PageForge);
            FabricRead {
                ready_at: grant.ready_at,
                on_chip: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_cache::HierarchyConfig;
    use pageforge_mem::MemorySystemConfig;

    #[test]
    fn probes_caches_then_dram() {
        let mut caches = SystemCaches::new(HierarchyConfig::micro50(2));
        let mut mem = MemorySystem::new(MemorySystemConfig::micro50());
        // Core 0 caches line 7.
        caches.access(0, LineAddr(7), false);
        let mut shard = ShardMetrics::default();
        let mut fabric = SimFabric::new(&mut caches, &mut mem, &mut shard, 0);
        let hit = fabric.read_line(LineAddr(7), 0);
        assert!(hit.on_chip);
        let miss = fabric.read_line(LineAddr(1000), 0);
        assert!(!miss.on_chip);
        assert!(miss.ready_at > hit.ready_at);
        assert_eq!(mem.stats().pageforge_lines, 1, "only the miss reached DRAM");
    }

    #[test]
    fn tallies_line_locality_by_domain() {
        let mut caches = SystemCaches::new(HierarchyConfig::micro50(2));
        let mut mem = MemorySystem::new(MemorySystemConfig::micro50());
        // Two controllers, line-interleaved: even lines -> controller 0
        // (domain 0), odd lines -> controller 1 (domain 1).
        mem.assign_domains(&[0, 1]);
        let mut shard = ShardMetrics::default();
        let mut fabric = SimFabric::new(&mut caches, &mut mem, &mut shard, 0);
        let _ = fabric.read_line(LineAddr(1000), 0); // even: local
        let _ = fabric.read_line(LineAddr(1001), 0); // odd: cross-domain
        let _ = fabric.read_line(LineAddr(1003), 0); // odd: cross-domain
        assert_eq!(shard.local_lines, 1);
        assert_eq!(shard.xdomain_lines, 2);
    }
}
