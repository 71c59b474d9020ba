//! The real memory fabric: PageForge's reads probe the caches first
//! (§3.2.2), then fall through to the memory controller.

use pageforge_cache::SystemCaches;
use pageforge_core::fabric::{FabricRead, MemoryFabric};
use pageforge_mem::{MemSource, MemorySystem};
use pageforge_types::{Cycle, LineAddr};

/// Borrows the chip's caches and memory controller for the duration of a
/// PageForge operation.
#[derive(Debug)]
pub struct SimFabric<'a> {
    /// The chip caches (probed, never allocated into).
    pub caches: &'a mut SystemCaches,
    /// The memory system (PageForge-tagged traffic routes to the owning
    /// controller).
    pub mem: &'a mut MemorySystem,
}

impl<'a> SimFabric<'a> {
    /// Borrows `caches` and `mem` for one PageForge operation.
    pub fn new(caches: &'a mut SystemCaches, mem: &'a mut MemorySystem) -> Self {
        SimFabric { caches, mem }
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
        let mut fabric = SimFabric::new(&mut caches, &mut mem);
        let hit = fabric.read_line(LineAddr(7), 0);
        assert!(hit.on_chip);
        let miss = fabric.read_line(LineAddr(1000), 0);
        assert!(!miss.on_chip);
        assert!(miss.ready_at > hit.ready_at);
        assert_eq!(mem.stats().pageforge_lines, 1, "only the miss reached DRAM");
    }
}
