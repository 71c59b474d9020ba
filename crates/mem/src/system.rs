//! The multi-controller memory system of Figure 5.
//!
//! "State-of-the-art server architectures usually have 1–4 memory
//! controllers, and interleave pages across memory controllers, channels,
//! ranks, and banks" (§4.1). The paper's Figure 5 shows two controllers,
//! with the single PageForge module living in one of them. This wrapper
//! routes line addresses across `n` controllers (line-interleaved, the
//! same policy the single controller uses across its channels, so total
//! timing is invariant to how channels are grouped into controllers) and
//! aggregates their statistics.

use pageforge_obs::Registry;
use pageforge_types::{Cycle, LineAddr};

use crate::controller::{McConfig, McStats, MemSource, MemoryController, ReadGrant};
use crate::dram::DramStats;

/// Configuration of the full memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySystemConfig {
    /// Number of memory controllers (Figure 5 shows 2).
    pub controllers: usize,
    /// Per-controller configuration. The per-controller DRAM keeps its
    /// own channel count; lines are interleaved across controllers first.
    pub mc: McConfig,
}

impl MemorySystemConfig {
    /// The paper's organization: 2 controllers, each owning one of the two
    /// DDR channels (Table 2 + Figure 5).
    pub fn micro50() -> Self {
        let mut mc = McConfig::micro50();
        // The two channels of Table 2 are split one per controller;
        // controller-level interleave takes over the even/odd split.
        mc.dram.channels = 1;
        MemorySystemConfig { controllers: 2, mc }
    }
}

/// `n` memory controllers behind line-address interleaving.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemorySystemConfig,
    mcs: Vec<MemoryController>,
}

impl MemorySystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.controllers` is zero.
    pub fn new(cfg: MemorySystemConfig) -> Self {
        assert!(cfg.controllers > 0, "at least one controller required");
        MemorySystem {
            mcs: (0..cfg.controllers)
                .map(|_| MemoryController::new(cfg.mc))
                .collect(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemorySystemConfig {
        &self.cfg
    }

    /// Which controller services `addr` (line-interleaved).
    pub fn route(&self, addr: LineAddr) -> usize {
        (addr.0 % self.cfg.controllers as u64) as usize
    }

    /// Number of controllers.
    pub fn controllers(&self) -> usize {
        self.cfg.controllers
    }

    /// Reads one line through the owning controller.
    pub fn read_line(&mut self, addr: LineAddr, now: Cycle, source: MemSource) -> ReadGrant {
        let mc = self.route(addr);
        // Strip the controller bits so the per-controller DRAM sees a
        // dense address space (its own channel/bank interleave applies
        // to the quotient).
        let local = LineAddr(addr.0 / self.cfg.controllers as u64);
        self.mcs[mc].read_line(local, now, source)
    }

    /// Writes one line through the owning controller.
    pub fn write_line(&mut self, addr: LineAddr, now: Cycle, source: MemSource) -> Cycle {
        let mc = self.route(addr);
        let local = LineAddr(addr.0 / self.cfg.controllers as u64);
        self.mcs[mc].write_line(local, now, source)
    }

    /// One controller, by index (for PageForge's ECC engine access).
    pub fn controller(&self, idx: usize) -> &MemoryController {
        &self.mcs[idx]
    }

    /// Mutable access to one controller.
    pub fn controller_mut(&mut self, idx: usize) -> &mut MemoryController {
        &mut self.mcs[idx]
    }

    /// Aggregated controller statistics.
    pub fn stats(&self) -> McStats {
        let mut total = McStats::default();
        for mc in &self.mcs {
            let s = mc.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.coalesced_reads += s.coalesced_reads;
            total.demand_lines += s.demand_lines;
            total.pageforge_lines += s.pageforge_lines;
            total.writeback_lines += s.writeback_lines;
        }
        total
    }

    /// Aggregated DRAM statistics.
    pub fn dram_stats(&self) -> DramStats {
        let mut total = DramStats::default();
        for mc in &self.mcs {
            let s = mc.dram_stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.row_hits += s.row_hits;
            total.row_misses += s.row_misses;
            total.bytes += s.bytes;
            total.queue_wait_cycles += s.queue_wait_cycles;
        }
        total
    }

    /// Controller and DRAM metrics summed across all controllers
    /// (`mem.controller.*` + `mem.dram.*`; counters add, the
    /// `queue_occupancy` gauge is the summed occupancy).
    pub fn export_metrics(&self) -> Registry {
        let mut total = Registry::new();
        for mc in &self.mcs {
            total.absorb(&mc.export_metrics());
        }
        total
    }

    /// Total bytes transferred in bandwidth-meter window `idx`, summed
    /// across controllers.
    pub fn window_bytes(&self, idx: usize) -> u64 {
        self.mcs
            .iter()
            .map(|mc| *mc.meter().windows().get(idx).unwrap_or(&0))
            .sum()
    }

    /// Number of meter windows any controller has recorded.
    pub fn window_count(&self) -> usize {
        self.mcs
            .iter()
            .map(|mc| mc.meter().windows().len())
            .max()
            .unwrap_or(0)
    }

    /// Total system bandwidth of window `idx` in GB/s.
    pub fn window_gbps(&self, idx: usize, cpu_hz: f64) -> f64 {
        let seconds = self.cfg.mc.meter_window as f64 / cpu_hz;
        self.window_bytes(idx) as f64 / seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_lines_round_robin() {
        let sys = MemorySystem::new(MemorySystemConfig::micro50());
        assert_eq!(sys.route(LineAddr(0)), 0);
        assert_eq!(sys.route(LineAddr(1)), 1);
        assert_eq!(sys.route(LineAddr(2)), 0);
    }

    #[test]
    fn adjacent_lines_serve_in_parallel() {
        // Same property the single dual-channel controller had: even/odd
        // lines never serialize.
        let mut sys = MemorySystem::new(MemorySystemConfig::micro50());
        let a = sys.read_line(LineAddr(0), 0, MemSource::Demand);
        let b = sys.read_line(LineAddr(1), 0, MemSource::Demand);
        assert_eq!(a.ready_at, b.ready_at);
        assert_eq!(sys.stats().reads, 2);
        assert_eq!(sys.dram_stats().reads, 2);
    }

    #[test]
    fn coalescing_stays_per_controller() {
        let mut sys = MemorySystem::new(MemorySystemConfig::micro50());
        let a = sys.read_line(LineAddr(4), 0, MemSource::Demand);
        let b = sys.read_line(LineAddr(4), 5, MemSource::PageForge);
        assert!(b.coalesced);
        assert_eq!(a.ready_at, b.ready_at);
        // A different line on the other controller does not coalesce.
        let c = sys.read_line(LineAddr(5), 5, MemSource::Demand);
        assert!(!c.coalesced);
    }

    #[test]
    fn window_bytes_aggregate_across_controllers() {
        let mut sys = MemorySystem::new(MemorySystemConfig::micro50());
        sys.read_line(LineAddr(0), 0, MemSource::Demand);
        sys.read_line(LineAddr(1), 0, MemSource::Demand);
        assert_eq!(sys.window_bytes(0), 128);
        assert!(sys.window_count() >= 1);
        assert!(sys.window_gbps(0, 2e9) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one controller")]
    fn zero_controllers_panics() {
        let _ = MemorySystem::new(MemorySystemConfig {
            controllers: 0,
            mc: McConfig::micro50(),
        });
    }

    #[test]
    fn single_controller_degenerates_to_plain_mc() {
        let mut one = MemorySystem::new(MemorySystemConfig {
            controllers: 1,
            mc: McConfig::micro50(),
        });
        let mut plain = MemoryController::new(McConfig::micro50());
        for addr in [0u64, 1, 2, 7, 100] {
            let a = one.read_line(LineAddr(addr), addr * 10, MemSource::Demand);
            let b = plain.read_line(LineAddr(addr), addr * 10, MemSource::Demand);
            assert_eq!(a, b, "addr {addr}");
        }
    }
}
