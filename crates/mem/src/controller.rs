//! The memory controller: request buffers, coalescing, and bandwidth
//! metering.
//!
//! Figure 3 of the paper shows the controller PageForge plugs into: read
//! and write request buffers in front of the command-generation engine,
//! with the ECC encoder on the write path and the ECC decoder on the read
//! path. §3.2.2 specifies the coalescing rule this module implements:
//! "if, before the DRAM satisfies the request, another request for the same
//! line arrives at the memory controller, then the incoming request is
//! coalesced with the pending request".

use std::cell::Cell;

use pageforge_obs::Registry;
use pageforge_types::{Cycle, LineAddr, LINE_SIZE};

use crate::dram::{Dram, DramConfig, DramStats};

/// Who issued a memory request. Used to attribute bandwidth (Figure 11
/// separates demand traffic from dedup-engine traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSource {
    /// A core's demand miss (including the software KSM daemon's misses).
    Demand,
    /// The PageForge engine.
    PageForge,
    /// Dirty evictions from the cache hierarchy.
    Writeback,
}

/// Result of a read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadGrant {
    /// Cycle at which the line's data is available at the controller.
    pub ready_at: Cycle,
    /// `true` if the request merged with an in-flight read of the same
    /// line (no extra DRAM traffic).
    pub coalesced: bool,
}

/// Controller-level counters, exported as `mem.controller.*` (see
/// OBSERVABILITY.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// Read requests accepted.
    pub reads: u64,
    /// Write requests accepted.
    pub writes: u64,
    /// Reads that coalesced with an in-flight request.
    pub coalesced_reads: u64,
    /// Per-source line counts.
    pub demand_lines: u64,
    /// Lines read/written by the PageForge engine.
    pub pageforge_lines: u64,
    /// Writeback lines.
    pub writeback_lines: u64,
}

/// Windowed bandwidth meter for Figure 11.
///
/// Records bytes per fixed-width cycle window; the paper reports the
/// bandwidth of "the most memory-intensive phase of the page deduplication
/// process", i.e. the peak window.
#[derive(Debug, Clone)]
pub struct BandwidthMeter {
    window_cycles: Cycle,
    windows: Vec<u64>,
    /// The window of the last record and its first cycle, so a record
    /// divides by the width only when it leaves that window.
    last: usize,
    last_start: Cycle,
}

impl BandwidthMeter {
    /// Creates a meter with the given window width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn new(window_cycles: Cycle) -> Self {
        assert!(window_cycles > 0, "window must be non-empty");
        BandwidthMeter {
            window_cycles,
            windows: Vec::new(),
            last: 0,
            last_start: 0,
        }
    }

    /// Records `bytes` transferred at `now`.
    pub fn record(&mut self, now: Cycle, bytes: u64) {
        // A cycle before the last window's start wraps to a large
        // difference.
        if now.wrapping_sub(self.last_start) >= self.window_cycles {
            let idx = now / self.window_cycles;
            self.last = idx as usize;
            self.last_start = idx * self.window_cycles;
        }
        if self.last >= self.windows.len() {
            self.windows.resize(self.last + 1, 0);
        }
        if let Some(window) = self.windows.get_mut(self.last) {
            *window += bytes;
        }
    }

    /// Bytes in each window.
    pub fn windows(&self) -> &[u64] {
        &self.windows
    }
}

/// Memory-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// The DRAM behind this controller.
    pub dram: DramConfig,
    /// Fixed controller pipeline latency added to every request (queueing,
    /// scheduling, ECC decode).
    pub pipeline_latency: Cycle,
    /// Bandwidth-meter window width in cycles.
    pub meter_window: Cycle,
    /// A request only coalesces with an in-flight read that completes
    /// within this many cycles. Requesters run on loosely-synchronized
    /// clocks (see the DRAM module docs); merging with a request stamped
    /// far in the future would teleport the requester forward.
    pub coalesce_window: Cycle,
}

impl McConfig {
    /// The paper's configuration.
    pub fn micro50() -> Self {
        McConfig {
            dram: DramConfig::micro50(),
            pipeline_latency: 10,
            meter_window: 200_000, // 100 µs at 2 GHz
            coalesce_window: 1_000,
        }
    }
}

/// Entries past which a read drops every read completed by its `now` from
/// the in-flight table. Model semantics, not a capacity: requesters run on
/// skewed clocks, so a read complete for one requester may still be in
/// flight for a lagging one, which can coalesce with it until a purge drops
/// it (DESIGN.md §4b).
const PURGE_ABOVE: usize = 4096;

/// Slots the in-flight table starts with: a power of two above
/// `PURGE_ABOVE`, so reads between purges always leave a slot free.
const INITIAL_SLOTS: usize = 8192;

/// The line stored in a free slot. `LineAddr(u64::MAX)` names no line: its
/// byte address does not fit in 64 bits.
const FREE: u64 = u64::MAX;

/// In-flight reads, line → ready cycle, for coalescing.
///
/// An open-addressing table: linear probing from a fixed multiplicative
/// hash. A lookup's answer depends only on the set of entries, never on
/// their slots, so the table behaves exactly like the ordered map it
/// replaced (kept as the test oracle). A read that does not coalesce always
/// leaves an entry for its line, so where the map removed a completed entry
/// and inserted the line again, the table overwrites it: no single entry is
/// ever deleted. Entries leave only in a purge, which runs once an insert
/// takes the table past `PURGE_ABOVE` entries and doubles the slots while
/// its survivors would fill more than 3/4 of them. So the table never
/// holds more than `max(PURGE_ABOVE, 3/4 of the slots) + 1` entries, and
/// every probe run ends at a free slot.
#[derive(Debug, Clone)]
struct InflightReads {
    /// `(line, ready)` per slot; `FREE` lines mark empty slots.
    slots: Vec<(u64, Cycle)>,
    /// `64 - log2(slots.len())`: a hash's top bits pick the home slot.
    shift: u32,
    /// Occupied slots.
    len: usize,
    /// Scratch for [`Self::purge_completed`]'s survivors; empty between
    /// purges.
    live: Vec<(u64, Cycle)>,
}

impl InflightReads {
    fn new() -> Self {
        InflightReads {
            slots: vec![(FREE, 0); INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            len: 0,
            live: Vec::new(),
        }
    }

    /// The slot holding `line`, or the free slot ending its probe run.
    fn probe(&self, line: u64) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of `line × 2^64/φ` scatter
        // strided lines across the table.
        let mut i = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize & mask;
        while let Some(&(held, _)) = self.slots.get(i) {
            if held == line || held == FREE {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    /// The ready cycle of the in-flight read of `line` at slot `i`, the
    /// slot [`probe`](Self::probe) returned for it, if any.
    fn ready_at(&self, i: usize, line: u64) -> Option<Cycle> {
        match self.slots.get(i) {
            Some(&(held, ready)) if held == line => Some(ready),
            _ => None,
        }
    }

    /// Records `line → ready` at slot `i`, the slot
    /// [`probe`](Self::probe) returned for `line` with no insert since,
    /// overwriting an entry for `line`.
    fn fill(&mut self, i: usize, line: u64, ready: Cycle) {
        if let Some(slot) = self.slots.get_mut(i) {
            if slot.0 == FREE {
                self.len += 1;
            }
            *slot = (line, ready);
        }
    }

    /// Drops every entry with `ready <= now`. The survivors are compacted
    /// to the table's front in place: every slot is copied to the write
    /// cursor, which moves past survivors only, so no slot takes a branch
    /// on its contents. A free slot's ready cycle is 0, never above `now`,
    /// so the one compare drops free and completed slots alike. The
    /// survivors then pass through `live`, whose capacity every later purge
    /// reuses, while the slots are cleared and refilled.
    fn purge_completed(&mut self, now: Cycle) {
        let cells = Cell::from_mut(self.slots.as_mut_slice()).as_slice_of_cells();
        let mut kept = 0;
        for cell in cells {
            let entry = cell.get();
            // `kept` never passes the slot being read, so it is in bounds.
            if let Some(front) = cells.get(kept) {
                front.set(entry);
            }
            kept += usize::from(entry.1 > now);
        }
        let mut live = std::mem::take(&mut self.live);
        live.extend_from_slice(self.slots.get(..kept).unwrap_or_default());
        let mut slots = self.slots.len();
        while live.len() * 4 > slots * 3 {
            slots *= 2;
        }
        self.slots.clear();
        self.slots.resize(slots, (FREE, 0));
        self.shift = 64 - slots.trailing_zeros();
        self.len = 0;
        for &(line, ready) in &live {
            self.fill(self.probe(line), line, ready);
        }
        live.clear();
        self.live = live;
    }
}

/// The memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: McConfig,
    dram: Dram,
    /// In-flight reads: line → ready cycle (for coalescing).
    pending_reads: InflightReads,
    stats: McStats,
    meter: BandwidthMeter,
}

impl MemoryController {
    /// Builds an idle controller.
    pub fn new(cfg: McConfig) -> Self {
        MemoryController {
            dram: Dram::new(cfg.dram),
            pending_reads: InflightReads::new(),
            stats: McStats::default(),
            meter: BandwidthMeter::new(cfg.meter_window),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Reads one line. Coalesces with an in-flight read of the same line.
    ///
    /// One probe of the in-flight table serves both the coalescing check
    /// and the insert: the DRAM service in between never touches the
    /// table.
    pub fn read_line(&mut self, addr: LineAddr, now: Cycle, source: MemSource) -> ReadGrant {
        self.stats.reads += 1;
        self.count_source(source);
        let slot = self.pending_reads.probe(addr.0);
        // A read completed by `now` is overwritten below; one too far
        // ahead in another requester's clock is serviced independently.
        if let Some(ready) = self.pending_reads.ready_at(slot, addr.0) {
            if ready > now && ready - now <= self.cfg.coalesce_window {
                self.stats.coalesced_reads += 1;
                return ReadGrant {
                    ready_at: ready,
                    coalesced: true,
                };
            }
        }
        let done = self
            .dram
            .service(addr, now + self.cfg.pipeline_latency, false);
        let ready_at = done + self.cfg.pipeline_latency;
        self.pending_reads.fill(slot, addr.0, ready_at);
        self.meter.record(done, LINE_SIZE as u64);
        if self.pending_reads.len > PURGE_ABOVE {
            self.pending_reads.purge_completed(now);
        }
        ReadGrant {
            ready_at,
            coalesced: false,
        }
    }

    /// Writes one line; returns the completion cycle. Writes are posted
    /// (buffered), so callers normally don't wait on this.
    pub fn write_line(&mut self, addr: LineAddr, now: Cycle, source: MemSource) -> Cycle {
        self.stats.writes += 1;
        self.count_source(source);
        let done = self
            .dram
            .service(addr, now + self.cfg.pipeline_latency, true);
        self.meter.record(done, LINE_SIZE as u64);
        done
    }

    fn count_source(&mut self, source: MemSource) {
        match source {
            MemSource::Demand => self.stats.demand_lines += 1,
            MemSource::PageForge => self.stats.pageforge_lines += 1,
            MemSource::Writeback => self.stats.writeback_lines += 1,
        }
    }

    /// Controller counters (`mem.controller.*`).
    pub fn stats(&self) -> McStats {
        self.stats
    }

    /// DRAM counters (`mem.dram.*`).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Audits the controller's conservation laws: every accepted request
    /// is attributed to exactly one source, every read that did not
    /// coalesce went to DRAM, and every write did.
    ///
    /// Returns the first law broken.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mc = self.stats();
        let dram = self.dram.stats();
        let sourced = mc.demand_lines + mc.pageforge_lines + mc.writeback_lines;
        if mc.reads + mc.writes != sourced {
            return Err(format!(
                "{} reads + {} writes != {sourced} demand + PageForge + writeback lines",
                mc.reads, mc.writes
            ));
        }
        if Some(dram.reads) != mc.reads.checked_sub(mc.coalesced_reads) {
            return Err(format!(
                "{} DRAM reads != {} reads - {} coalesced",
                dram.reads, mc.reads, mc.coalesced_reads
            ));
        }
        if dram.writes != mc.writes {
            return Err(format!(
                "{} DRAM writes != {} writes",
                dram.writes, mc.writes
            ));
        }
        Ok(())
    }

    /// Writes controller plus DRAM metrics (`mem.controller.*` +
    /// `mem.dram.*`) into `out`. The `queue_occupancy` gauge is the
    /// in-flight table's entry count.
    pub fn export_metrics(&self, out: &mut Registry) {
        let s = self.stats;
        for (name, value) in [
            ("mem.controller.reads", s.reads),
            ("mem.controller.writes", s.writes),
            ("mem.controller.coalesced_reads", s.coalesced_reads),
            ("mem.controller.demand_lines", s.demand_lines),
            ("mem.controller.pageforge_lines", s.pageforge_lines),
            ("mem.controller.writeback_lines", s.writeback_lines),
        ] {
            out.counter(name, value);
        }
        out.gauge(
            "mem.controller.queue_occupancy",
            self.pending_reads.len as f64,
        );
        self.dram.export_metrics(out);
    }

    /// The bandwidth meter.
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeMap;

    use crate::dram::PlainDram;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn read_latency_includes_pipeline() {
        let mut mc = MemoryController::new(McConfig::micro50());
        let g = mc.read_line(LineAddr(0), 0, MemSource::Demand);
        // pipeline + (tRCD + tCAS + burst) + pipeline
        assert_eq!(g.ready_at, 10 + 28 + 28 + 8 + 10);
        assert!(!g.coalesced);
    }

    #[test]
    fn coalescing_merges_in_flight_reads() {
        let mut mc = MemoryController::new(McConfig::micro50());
        let a = mc.read_line(LineAddr(5), 0, MemSource::Demand);
        let b = mc.read_line(LineAddr(5), 3, MemSource::PageForge);
        assert!(b.coalesced);
        assert_eq!(b.ready_at, a.ready_at);
        assert_eq!(mc.stats().coalesced_reads, 1);
        assert_eq!(mc.dram_stats().reads, 1, "only one DRAM access");
    }

    #[test]
    fn completed_reads_do_not_coalesce() {
        let mut mc = MemoryController::new(McConfig::micro50());
        let a = mc.read_line(LineAddr(5), 0, MemSource::Demand);
        let b = mc.read_line(LineAddr(5), a.ready_at + 1, MemSource::Demand);
        assert!(!b.coalesced);
        assert_eq!(mc.dram_stats().reads, 2);
    }

    #[test]
    fn source_attribution() {
        let mut mc = MemoryController::new(McConfig::micro50());
        mc.read_line(LineAddr(0), 0, MemSource::Demand);
        mc.read_line(LineAddr(1), 0, MemSource::PageForge);
        mc.write_line(LineAddr(2), 0, MemSource::Writeback);
        let s = mc.stats();
        assert_eq!(s.demand_lines, 1);
        assert_eq!(s.pageforge_lines, 1);
        assert_eq!(s.writeback_lines, 1);
    }

    #[test]
    fn conservation_holds_and_a_skewed_counter_breaks_it() {
        let fresh = || {
            let mut mc = MemoryController::new(McConfig::micro50());
            mc.read_line(LineAddr(0), 0, MemSource::Demand);
            mc.read_line(LineAddr(0), 3, MemSource::PageForge); // coalesces
            mc.read_line(LineAddr(9), 0, MemSource::Demand);
            mc.write_line(LineAddr(2), 0, MemSource::Writeback);
            mc
        };
        assert_eq!(fresh().check_conservation(), Ok(()));

        // A read no source claims.
        let mut mc = fresh();
        mc.stats.reads += 1;
        let err = mc.check_conservation().unwrap_err();
        assert!(err.contains("demand + PageForge + writeback"), "{err}");

        // A DRAM read behind the controller's back.
        let mut mc = fresh();
        mc.dram.service(LineAddr(5), 0, false);
        let err = mc.check_conservation().unwrap_err();
        assert!(err.contains("DRAM reads"), "{err}");

        // A write counted by the controller but never sent to DRAM.
        let mut mc = fresh();
        mc.stats.writes += 1;
        mc.stats.writeback_lines += 1;
        let err = mc.check_conservation().unwrap_err();
        assert!(err.contains("DRAM writes"), "{err}");
    }

    #[test]
    fn purge_reuses_its_survivor_buffer() {
        let mut mc = MemoryController::new(McConfig::micro50());
        let mut kept = 0;
        for line in 0..3 * PURGE_ABOVE as u64 {
            mc.read_line(LineAddr(line), line / 8, MemSource::Demand);
            let live = &mc.pending_reads.live;
            assert!(live.is_empty(), "survivors stay only for the purge");
            assert!(live.capacity() >= kept, "the survivor buffer was dropped");
            kept = live.capacity();
        }
        assert!(
            kept > 0,
            "no purge kept survivors, so this test proves nothing"
        );
    }

    #[test]
    fn bandwidth_meter_windows() {
        let mut m = BandwidthMeter::new(1000);
        m.record(0, 64);
        m.record(999, 64);
        m.record(1000, 64);
        assert_eq!(m.windows(), &[128, 64]);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_panics() {
        let _ = BandwidthMeter::new(0);
    }

    #[test]
    fn pending_set_is_purged() {
        let mut mc = MemoryController::new(McConfig::micro50());
        // Far more in-flight lines than the purge threshold; all complete
        // long before the final request's timestamp.
        for i in 0..5000u64 {
            mc.read_line(LineAddr(i), i * 10_000, MemSource::Demand);
        }
        // The map was purged along the way (entries with ready <= now).
        assert!(mc.stats().reads == 5000);
        let g = mc.read_line(LineAddr(3), 60_000_000, MemSource::Demand);
        assert!(!g.coalesced, "stale entries must not linger");
    }

    #[test]
    fn far_future_inflight_read_does_not_coalesce() {
        let mut mc = MemoryController::new(McConfig::micro50());
        // A requester far ahead in time issues a read...
        mc.read_line(LineAddr(9), 10_000_000, MemSource::PageForge);
        // ...a requester in the "past" must not wait for it.
        let g = mc.read_line(LineAddr(9), 1_000, MemSource::Demand);
        assert!(!g.coalesced);
        assert!(g.ready_at < 10_000_000);
    }

    /// The in-flight map the table replaced, kept as its oracle: the read
    /// path as it was, with a DRAM and a meter of its own that find every
    /// address and window by division.
    struct MapController {
        cfg: McConfig,
        dram: PlainDram,
        meter: Vec<u64>,
        pending_reads: BTreeMap<LineAddr, Cycle>,
        coalesced_reads: u64,
        purges: u64,
    }

    impl MapController {
        fn read_line(&mut self, addr: LineAddr, now: Cycle) -> ReadGrant {
            if let Some(&ready) = self.pending_reads.get(&addr) {
                if ready > now && ready - now <= self.cfg.coalesce_window {
                    self.coalesced_reads += 1;
                    return ReadGrant {
                        ready_at: ready,
                        coalesced: true,
                    };
                }
                if ready <= now {
                    self.pending_reads.remove(&addr);
                }
            }
            let done = self
                .dram
                .service(addr, now + self.cfg.pipeline_latency, false);
            let ready_at = done + self.cfg.pipeline_latency;
            self.pending_reads.insert(addr, ready_at);
            let window = (done / self.cfg.meter_window) as usize;
            if window >= self.meter.len() {
                self.meter.resize(window + 1, 0);
            }
            self.meter[window] += LINE_SIZE as u64;
            if self.pending_reads.len() > 4096 {
                self.pending_reads.retain(|_, &mut r| r > now);
                self.purges += 1;
            }
            ReadGrant {
                ready_at,
                coalesced: false,
            }
        }
    }

    /// A controller and the map oracle fed the same reads.
    struct Twins {
        mc: MemoryController,
        oracle: MapController,
        reads: usize,
    }

    impl Twins {
        fn new() -> Self {
            Twins::with(McConfig::micro50())
        }

        fn with(cfg: McConfig) -> Self {
            Twins {
                mc: MemoryController::new(cfg),
                oracle: MapController {
                    cfg,
                    dram: PlainDram::new(cfg.dram),
                    meter: Vec::new(),
                    pending_reads: BTreeMap::new(),
                    coalesced_reads: 0,
                    purges: 0,
                },
                reads: 0,
            }
        }

        /// Reads `line` at `now` on both; every observable must agree.
        fn read(&mut self, line: u64, now: Cycle) -> ReadGrant {
            let got = self.mc.read_line(LineAddr(line), now, MemSource::Demand);
            let want = self.oracle.read_line(LineAddr(line), now);
            let n = self.reads;
            self.reads += 1;
            assert_eq!(got, want, "read {n}: line {line:#x} at {now}");
            assert_eq!(
                self.mc.stats().coalesced_reads,
                self.oracle.coalesced_reads,
                "read {n}"
            );
            assert_eq!(
                self.mc.pending_reads.len,
                self.oracle.pending_reads.len(),
                "read {n}"
            );
            assert_eq!(self.mc.dram_stats(), self.oracle.dram.stats, "read {n}");
            assert_eq!(self.mc.meter().windows(), self.oracle.meter, "read {n}");
            got
        }

        /// The exported occupancy gauge is the oracle's entry count.
        fn check_export(&self) {
            let mut reg = Registry::new();
            self.mc.export_metrics(&mut reg);
            let snapshot = reg.snapshot();
            assert_eq!(
                snapshot.gauge("mem.controller.queue_occupancy"),
                Some(self.oracle.pending_reads.len() as f64)
            );
        }
    }

    /// Four requesters whose clocks start up to 100k cycles apart, so
    /// `now` is not monotone. Half the reads repeat one of 64 hot lines
    /// (coalescing and overwrites); the rest are fresh lines, which fill
    /// the table toward purges. A requester mostly blocks until its
    /// grant, so `now` often equals a ready cycle still in the table, and
    /// one read in 64 comes from 10M cycles ahead (far-future entries).
    #[test]
    fn inflight_table_matches_the_map_under_skewed_clocks() {
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut twins = Twins::new();
            let mut clocks: Vec<Cycle> = (0..4).map(|_| rng.gen_range(0..100_001)).collect();
            let mut fresh = 1u64 << 20;
            for _ in 0..30_000 {
                let clock = &mut clocks[rng.gen_range(0..4)];
                let line = if rng.gen_bool(0.5) {
                    rng.gen_range(0..64u64) * 97
                } else {
                    fresh += 1;
                    fresh
                };
                if rng.gen_range(0..64) == 0 {
                    twins.read(line, *clock + 10_000_000);
                    continue;
                }
                let grant = twins.read(line, *clock);
                *clock = if rng.gen_bool(0.8) {
                    grant.ready_at + rng.gen_range(0..3)
                } else {
                    *clock + rng.gen_range(0..2_000)
                };
            }
            assert!(twins.oracle.purges > 0, "seed {seed} never purged");
            assert!(
                twins.oracle.coalesced_reads > 0,
                "seed {seed} never coalesced"
            );
            twins.check_export();
        }
    }

    /// Requesters whose clocks start up to three utilization windows
    /// apart, on windows short enough that the channels queue, so reads
    /// arrive out of order across `util_window` and `meter_window`
    /// boundaries. Every grant, DRAM counter and meter window must match
    /// the division-based reference.
    #[test]
    fn inflight_table_matches_the_map_across_window_boundaries() {
        let mut cfg = McConfig::micro50();
        cfg.dram.util_window = 3_000;
        cfg.meter_window = 1_100;
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x3D);
            let mut twins = Twins::with(cfg);
            let mut clocks: Vec<Cycle> = (0..4)
                .map(|_| rng.gen_range(0..3 * cfg.dram.util_window))
                .collect();
            for _ in 0..20_000 {
                let clock = &mut clocks[rng.gen_range(0..4)];
                let line = rng.gen_range(0..512u64) * 33;
                let grant = twins.read(line, *clock);
                *clock = match rng.gen_range(0..8) {
                    0 => grant.ready_at,
                    1 => *clock + rng.gen_range(0..2 * cfg.dram.util_window),
                    _ => *clock + rng.gen_range(0..40),
                };
            }
            let dram = twins.mc.dram_stats();
            assert!(dram.queue_wait_cycles > 0, "seed {seed} never queued");
            assert!(twins.oracle.coalesced_reads > 0, "seed {seed}");
            twins.check_export();
        }
    }

    /// Fresh reads whose `now` barely advances complete after every purge
    /// point, so every entry survives the purges and the table must grow;
    /// re-reading those lines then looks each one up in the grown table,
    /// and a late jump in `now` finally purges them.
    #[test]
    fn inflight_table_grows_past_the_purge_point_like_the_map() {
        let mut rng = SmallRng::seed_from_u64(0x6209);
        let mut twins = Twins::new();
        let lines = 7_000u64;
        for i in 0..lines {
            twins.read(i * 32, 1_000 + i / 4_096);
        }
        assert!(twins.oracle.pending_reads.len() > 3 * INITIAL_SLOTS / 4);
        assert!(
            twins.mc.pending_reads.slots.len() > INITIAL_SLOTS,
            "never grew"
        );
        for i in 0..3_000 {
            twins.read(rng.gen_range(0..lines) * 32, 1_005 + i / 64);
        }
        for i in 0..2_000 {
            twins.read(rng.gen_range(0..2 * lines) * 32, 100_000_000 + i);
        }
        assert!(twins.oracle.purges > 0);
    }

    #[test]
    fn writes_are_metered() {
        let mut mc = MemoryController::new(McConfig::micro50());
        mc.write_line(LineAddr(0), 0, MemSource::Demand);
        assert!(mc.meter().windows().iter().sum::<u64>() >= 64);
    }
}
