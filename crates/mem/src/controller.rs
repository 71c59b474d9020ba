//! The memory controller: request buffers, coalescing, the ECC engine
//! position, and bandwidth metering.
//!
//! Figure 3 of the paper shows the controller PageForge plugs into: read
//! and write request buffers in front of the command-generation engine,
//! with the ECC encoder on the write path and the ECC decoder on the read
//! path. §3.2.2 specifies the coalescing rule this module implements:
//! "if, before the DRAM satisfies the request, another request for the same
//! line arrives at the memory controller, then the incoming request is
//! coalesced with the pending request".

use std::collections::BTreeMap;

use pageforge_ecc::LineEcc;
use pageforge_obs::{CounterId, GaugeId, Registry};
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

/// Controller-level counters.
///
/// A *view* assembled on demand from the controller's metric registry
/// (names `mem.controller.*`, see OBSERVABILITY.md).
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
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthMeter {
    window_cycles: Cycle,
    windows: Vec<u64>,
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
        }
    }

    /// Records `bytes` transferred at `now`.
    pub fn record(&mut self, now: Cycle, bytes: u64) {
        let idx = (now / self.window_cycles) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0);
        }
        if let Some(window) = self.windows.get_mut(idx) {
            *window += bytes;
        }
    }

    /// Bytes in each window.
    pub fn windows(&self) -> &[u64] {
        &self.windows
    }

    /// Converts a window's byte count to GB/s given the CPU frequency.
    pub fn window_gbps(&self, idx: usize, cpu_hz: f64) -> f64 {
        let bytes = *self.windows.get(idx).unwrap_or(&0) as f64;
        let seconds = self.window_cycles as f64 / cpu_hz;
        bytes / seconds / 1e9
    }

    /// The highest-bandwidth window in GB/s (Figure 11's reporting point).
    pub fn peak_gbps(&self, cpu_hz: f64) -> f64 {
        (0..self.windows.len())
            .map(|i| self.window_gbps(i, cpu_hz))
            .fold(0.0, f64::max)
    }

    /// Mean bandwidth over all complete windows in GB/s.
    pub fn mean_gbps(&self, cpu_hz: f64) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let total: u64 = self.windows.iter().sum();
        let seconds = (self.windows.len() as f64 * self.window_cycles as f64) / cpu_hz;
        total as f64 / seconds / 1e9
    }
}

/// The ECC engine at the memory controller (Figure 3): encodes on writes,
/// decodes on reads, and corrects/detects injected DRAM faults.
///
/// The paper's hash keys ride on exactly this machinery (§3.3); this model
/// supports fault injection so the SECDED guarantees — single-bit errors
/// corrected transparently, double-bit errors detected — can be exercised
/// end-to-end through the read path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EccEngine {
    /// Lines encoded (write path).
    pub encodes: u64,
    /// Lines decoded (read path).
    pub decodes: u64,
    /// Single-bit errors corrected on the read path.
    pub corrected: u64,
    /// Uncorrectable (double-bit) errors detected.
    pub uncorrectable: u64,
    /// Silent miscorrections: ≥3 aliased flips that SECDED "fixed" into
    /// the wrong word (its documented detection limit).
    pub miscorrected: u64,
    /// Outstanding injected faults: line → bit positions flipped within
    /// the line's 512 data bits (at most 2 tracked per line).
    faults: BTreeMap<LineAddr, Vec<u16>>,
}

/// A read hit an uncorrectable (multi-bit) DRAM error: SECDED detected it
/// and the controller must raise a machine-check instead of returning data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncorrectableError {
    /// The poisoned line.
    pub addr: LineAddr,
}

impl std::fmt::Display for UncorrectableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncorrectable ECC error at line {}", self.addr)
    }
}

impl std::error::Error for UncorrectableError {}

impl EccEngine {
    /// Encodes a 64-byte line, counting the operation.
    ///
    /// # Panics
    ///
    /// Panics if `line.len() != 64`.
    pub fn encode_line(&mut self, line: &[u8]) -> LineEcc {
        self.encodes += 1;
        LineEcc::encode(line)
    }

    /// "Decodes" a fault-free line on the read path and counts the
    /// operation. Use [`read_line_checked`](Self::read_line_checked) when
    /// injected faults should be considered.
    ///
    /// # Panics
    ///
    /// Panics if `line.len() != 64`.
    pub fn decode_line(&mut self, line: &[u8]) -> LineEcc {
        self.decodes += 1;
        LineEcc::encode(line)
    }

    /// Injects a DRAM fault: `bit` (0..512) of the stored copy of `addr`
    /// flips. A second injection on the same line makes it uncorrectable.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    pub fn inject_fault(&mut self, addr: LineAddr, bit: u16) {
        assert!(bit < 512, "a line holds 512 data bits");
        self.faults.entry(addr).or_default().push(bit);
    }

    /// Lines currently carrying injected faults.
    pub fn faulty_lines(&self) -> usize {
        self.faults.len()
    }

    /// Reads `line` (the true stored content) through the decoder, applying
    /// any injected faults for `addr`. Single-bit faults are corrected —
    /// the returned ECC matches the *true* content and the fault is
    /// scrubbed. Double-bit faults are detected and reported.
    ///
    /// # Errors
    ///
    /// [`UncorrectableError`] when two or more bits of the same 64-bit word
    /// were flipped (SECDED's detection limit).
    ///
    /// # Panics
    ///
    /// Panics if `line.len() != 64`.
    pub fn read_line_checked(
        &mut self,
        addr: LineAddr,
        line: &[u8],
    ) -> Result<LineEcc, UncorrectableError> {
        assert_eq!(line.len(), LINE_SIZE, "a cache line is {LINE_SIZE} bytes");
        self.decodes += 1;
        let Some(bits) = self.faults.get(&addr) else {
            return Ok(LineEcc::encode(line));
        };
        // Reconstruct the corrupted words and run real SECDED decode on
        // each affected one.
        let true_ecc = LineEcc::encode(line);
        let mut per_word: [u64; 8] = [0; 8];
        for (slot, chunk) in per_word.iter_mut().zip(line.chunks_exact(8)) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            *slot = u64::from_le_bytes(bytes);
        }
        let mut corrupted = per_word;
        for &bit in bits {
            // Fault positions are within the line's 512 data bits, so the
            // word index is always in range; ignore any that are not.
            if let Some(word) = corrupted.get_mut((bit / 64) as usize) {
                *word ^= 1u64 << (bit % 64);
            }
        }
        for ((&cor, &raw), &ecc) in corrupted.iter().zip(&per_word).zip(&true_ecc.0) {
            if cor == raw {
                continue;
            }
            match pageforge_ecc::Secded72::decode(cor, ecc) {
                pageforge_ecc::Decoded::CorrectedData { data, .. } if data == raw => {
                    self.corrected += 1;
                }
                pageforge_ecc::Decoded::DoubleError => {
                    self.uncorrectable += 1;
                    return Err(UncorrectableError { addr });
                }
                // Three or more aliased flips can decode to a *wrong*
                // single-bit "correction" (or a clean/check-bit verdict):
                // SECDED's silent-miscorrect limit. The controller cannot
                // tell, so the read succeeds; we only count it.
                _ => {
                    self.miscorrected += 1;
                }
            }
        }
        // Corrected: scrub the fault (the controller writes back the
        // repaired line).
        self.faults.remove(&addr);
        Ok(true_ecc)
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

/// Ids of the controller counters in the metric registry
/// (`mem.controller.*`).
#[derive(Debug, Clone, Copy)]
struct McMetricIds {
    reads: CounterId,
    writes: CounterId,
    coalesced_reads: CounterId,
    demand_lines: CounterId,
    pageforge_lines: CounterId,
    writeback_lines: CounterId,
    queue_occupancy: GaugeId,
}

impl McMetricIds {
    fn register(reg: &mut Registry) -> Self {
        McMetricIds {
            reads: reg.counter("mem.controller.reads"),
            writes: reg.counter("mem.controller.writes"),
            coalesced_reads: reg.counter("mem.controller.coalesced_reads"),
            demand_lines: reg.counter("mem.controller.demand_lines"),
            pageforge_lines: reg.counter("mem.controller.pageforge_lines"),
            writeback_lines: reg.counter("mem.controller.writeback_lines"),
            queue_occupancy: reg.gauge("mem.controller.queue_occupancy"),
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
}

impl InflightReads {
    fn new() -> Self {
        InflightReads {
            slots: vec![(FREE, 0); INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            len: 0,
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

    /// The ready cycle of `line`'s in-flight read, if any.
    fn get(&self, line: u64) -> Option<Cycle> {
        match self.slots.get(self.probe(line)) {
            Some(&(held, ready)) if held == line => Some(ready),
            _ => None,
        }
    }

    /// Records `line → ready`, overwriting an entry for `line`.
    fn insert(&mut self, line: u64, ready: Cycle) {
        let i = self.probe(line);
        if let Some(slot) = self.slots.get_mut(i) {
            if slot.0 == FREE {
                self.len += 1;
            }
            *slot = (line, ready);
        }
    }

    /// Drops every entry with `ready <= now`, in place: copies out the
    /// survivors, clears the slots and inserts the survivors again.
    fn purge_completed(&mut self, now: Cycle) {
        let live: Vec<(u64, Cycle)> = self
            .slots
            .iter()
            .copied()
            .filter(|&(line, ready)| line != FREE && ready > now)
            .collect();
        let mut slots = self.slots.len();
        while live.len() * 4 > slots * 3 {
            slots *= 2;
        }
        self.slots.clear();
        self.slots.resize(slots, (FREE, 0));
        self.shift = 64 - slots.trailing_zeros();
        self.len = 0;
        for (line, ready) in live {
            self.insert(line, ready);
        }
    }
}

/// The memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: McConfig,
    dram: Dram,
    /// In-flight reads: line → ready cycle (for coalescing).
    pending_reads: InflightReads,
    metrics: Registry,
    ids: McMetricIds,
    meter: BandwidthMeter,
    ecc: EccEngine,
}

impl MemoryController {
    /// Builds an idle controller.
    pub fn new(cfg: McConfig) -> Self {
        let mut metrics = Registry::new();
        let ids = McMetricIds::register(&mut metrics);
        MemoryController {
            dram: Dram::new(cfg.dram),
            pending_reads: InflightReads::new(),
            metrics,
            ids,
            meter: BandwidthMeter::new(cfg.meter_window),
            cfg,
            ecc: EccEngine::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Reads one line. Coalesces with an in-flight read of the same line.
    pub fn read_line(&mut self, addr: LineAddr, now: Cycle, source: MemSource) -> ReadGrant {
        self.metrics.inc(self.ids.reads);
        self.count_source(source);
        // A read completed by `now` is overwritten below; one too far
        // ahead in another requester's clock is serviced independently.
        if let Some(ready) = self.pending_reads.get(addr.0) {
            if ready > now && ready - now <= self.cfg.coalesce_window {
                self.metrics.inc(self.ids.coalesced_reads);
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
        self.pending_reads.insert(addr.0, ready_at);
        self.meter.record(done, LINE_SIZE as u64);
        if self.pending_reads.len > PURGE_ABOVE {
            self.pending_reads.purge_completed(now);
        }
        self.metrics
            .set(self.ids.queue_occupancy, self.pending_reads.len as f64);
        ReadGrant {
            ready_at,
            coalesced: false,
        }
    }

    /// Writes one line; returns the completion cycle. Writes are posted
    /// (buffered), so callers normally don't wait on this.
    pub fn write_line(&mut self, addr: LineAddr, now: Cycle, source: MemSource) -> Cycle {
        self.metrics.inc(self.ids.writes);
        self.count_source(source);
        let done = self
            .dram
            .service(addr, now + self.cfg.pipeline_latency, true);
        self.meter.record(done, LINE_SIZE as u64);
        done
    }

    fn count_source(&mut self, source: MemSource) {
        let id = match source {
            MemSource::Demand => self.ids.demand_lines,
            MemSource::PageForge => self.ids.pageforge_lines,
            MemSource::Writeback => self.ids.writeback_lines,
        };
        self.metrics.inc(id);
    }

    /// Controller counters, assembled from the metric registry
    /// (`mem.controller.*`). Returned by value: the struct is a view.
    pub fn stats(&self) -> McStats {
        McStats {
            reads: self.metrics.counter_value(self.ids.reads),
            writes: self.metrics.counter_value(self.ids.writes),
            coalesced_reads: self.metrics.counter_value(self.ids.coalesced_reads),
            demand_lines: self.metrics.counter_value(self.ids.demand_lines),
            pageforge_lines: self.metrics.counter_value(self.ids.pageforge_lines),
            writeback_lines: self.metrics.counter_value(self.ids.writeback_lines),
        }
    }

    /// DRAM counters (view over the device's `mem.dram.*` metrics).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Controller plus DRAM metrics (`mem.controller.*` + `mem.dram.*`)
    /// as one registry, for aggregation into a simulation-wide snapshot.
    pub fn export_metrics(&self) -> Registry {
        let mut reg = self.metrics.clone();
        reg.absorb(self.dram.metrics());
        reg
    }

    /// The bandwidth meter.
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// The ECC engine (shared by the read/write path and PageForge).
    pub fn ecc_engine_mut(&mut self) -> &mut EccEngine {
        &mut self.ecc
    }

    /// ECC engine counters.
    pub fn ecc_engine(&self) -> &EccEngine {
        &self.ecc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bandwidth_meter_windows() {
        let mut m = BandwidthMeter::new(1000);
        m.record(0, 64);
        m.record(999, 64);
        m.record(1000, 64);
        assert_eq!(m.windows(), &[128, 64]);
        // 128 bytes / (1000 cycles / 2 GHz) = 128 / 0.5µs = 256 MB/s.
        assert!((m.window_gbps(0, 2e9) - 0.256).abs() < 1e-9);
        assert!(m.peak_gbps(2e9) > m.window_gbps(1, 2e9));
    }

    #[test]
    fn meter_mean_spans_all_windows() {
        let mut m = BandwidthMeter::new(100);
        m.record(0, 100);
        m.record(250, 100);
        let mean = m.mean_gbps(1e9);
        assert!(mean > 0.0);
        assert!(m.peak_gbps(1e9) >= mean);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_panics() {
        let _ = BandwidthMeter::new(0);
    }

    #[test]
    fn ecc_engine_counts() {
        let mut e = EccEngine::default();
        let line = [7u8; 64];
        let enc = e.encode_line(&line);
        let dec = e.decode_line(&line);
        assert_eq!(enc, dec);
        assert_eq!(e.encodes, 1);
        assert_eq!(e.decodes, 1);
    }

    #[test]
    fn single_bit_fault_is_corrected_and_scrubbed() {
        let mut e = EccEngine::default();
        let line = [0xA5u8; 64];
        e.inject_fault(LineAddr(7), 133); // word 2, bit 5
        assert_eq!(e.faulty_lines(), 1);
        let ecc = e.read_line_checked(LineAddr(7), &line).expect("corrected");
        assert_eq!(ecc, LineEcc::encode(&line), "ECC reflects the true data");
        assert_eq!(e.corrected, 1);
        assert_eq!(e.faulty_lines(), 0, "fault scrubbed after correction");
        // Subsequent reads are clean.
        e.read_line_checked(LineAddr(7), &line).expect("clean");
        assert_eq!(e.corrected, 1);
    }

    #[test]
    fn double_bit_fault_is_detected() {
        let mut e = EccEngine::default();
        let line = [0x3Cu8; 64];
        e.inject_fault(LineAddr(9), 10);
        e.inject_fault(LineAddr(9), 20); // same word (word 0)
        let err = e.read_line_checked(LineAddr(9), &line).unwrap_err();
        assert_eq!(err.addr, LineAddr(9));
        assert_eq!(e.uncorrectable, 1);
        assert!(err.to_string().contains("uncorrectable"));
    }

    #[test]
    fn aliased_triple_fault_miscorrects_silently() {
        // Data bits 0, 1, 2 sit in H-matrix columns 3, 5, 6, which XOR to
        // zero: flipping all three yields an even syndrome with odd parity,
        // so SECDED "corrects" into the wrong word. The controller cannot
        // detect this — the read succeeds and the event is only counted.
        let mut e = EccEngine::default();
        let line = [0u8; 64];
        e.inject_fault(LineAddr(4), 0);
        e.inject_fault(LineAddr(4), 1);
        e.inject_fault(LineAddr(4), 2); // all in word 0
        e.read_line_checked(LineAddr(4), &line)
            .expect("silent miscorrect still returns Ok");
        assert_eq!(e.miscorrected, 1);
        assert_eq!(e.uncorrectable, 0);
    }

    #[test]
    fn two_faults_in_different_words_both_corrected() {
        // SECDED protects each 64-bit word independently: one flip per
        // word is still correctable.
        let mut e = EccEngine::default();
        let line = [0x11u8; 64];
        e.inject_fault(LineAddr(3), 5); // word 0
        e.inject_fault(LineAddr(3), 100); // word 1
        e.read_line_checked(LineAddr(3), &line)
            .expect("both corrected");
        assert_eq!(e.corrected, 2);
    }

    #[test]
    fn faults_do_not_corrupt_hash_keys() {
        // The PageForge key rides on the decoded (corrected) ECC: a
        // single-bit DRAM fault must not change the minikey.
        let mut e = EccEngine::default();
        let line: Vec<u8> = (0..64u8).collect();
        let clean_key = LineEcc::encode(&line).minikey();
        e.inject_fault(LineAddr(0), 3);
        let ecc = e.read_line_checked(LineAddr(0), &line).expect("corrected");
        assert_eq!(ecc.minikey(), clean_key);
    }

    #[test]
    #[should_panic(expected = "512 data bits")]
    fn fault_bit_out_of_range_panics() {
        let mut e = EccEngine::default();
        e.inject_fault(LineAddr(0), 512);
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
    /// path as it was, with a DRAM of its own.
    struct MapController {
        cfg: McConfig,
        dram: Dram,
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
            let cfg = McConfig::micro50();
            Twins {
                mc: MemoryController::new(cfg),
                oracle: MapController {
                    cfg,
                    dram: Dram::new(cfg.dram),
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
                self.mc.metrics.gauge_value(self.mc.ids.queue_occupancy),
                self.oracle.pending_reads.len() as f64,
                "read {n}"
            );
            got
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
