//! DDR DRAM timing: channels, ranks, banks, and row buffers.
//!
//! Timing is expressed in *CPU* cycles (2 GHz core clock, Table 2; the
//! 1 GHz DDR device clock means one memory cycle is two CPU cycles). Each
//! bank tracks its open row, giving row-hit/row-miss access latencies; each
//! channel tracks recent *utilization* over a sliding window, from which a
//! queueing delay is derived (M/M/1-shaped: `u/(1-u) × service`).
//!
//! Contention is modeled by utilization rather than by absolute
//! `busy-until` timestamps because the simulator's requesters (cores, the
//! PageForge engine, the KSM task) advance on loosely-synchronized clocks:
//! timestamp comparisons across requesters would charge enormous spurious
//! waits whenever one requester runs ahead in time. The utilization window
//! is long (≫ the clock skew) so the estimate is skew-robust, while still
//! making a streaming dedup engine visibly delay demand reads — which is
//! exactly the contention channel the paper's Figure 11 discussion cares
//! about.

use pageforge_obs::trace_event;
use pageforge_obs::Registry;
use pageforge_types::{Cycle, LineAddr, LINE_SIZE};

/// DRAM geometry and timing, in CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Lines per row buffer (a 2 KB row holds 32 64-byte lines).
    pub lines_per_row: u64,
    /// CAS latency (column access of an open row).
    pub t_cas: Cycle,
    /// RAS-to-CAS delay (activate a row).
    pub t_rcd: Cycle,
    /// Precharge time (close a row).
    pub t_rp: Cycle,
    /// Data-burst occupancy of the channel for one line.
    pub t_burst: Cycle,
    /// Utilization-window width for the contention estimate.
    pub util_window: Cycle,
    /// Upper bound on the queueing wait charged to one request.
    pub max_queue_wait: Cycle,
}

impl DramConfig {
    /// The paper's memory system: 2 channels, 8 ranks/channel, 8
    /// banks/rank, 1 GHz DDR (timings ×2 in CPU cycles).
    pub fn micro50() -> Self {
        DramConfig {
            channels: 2,
            ranks_per_channel: 8,
            banks_per_rank: 8,
            lines_per_row: 32,
            t_cas: 28,
            t_rcd: 28,
            t_rp: 28,
            t_burst: 8,
            util_window: 500_000,
            max_queue_wait: 2_000,
        }
    }

    /// Total banks across the device.
    pub fn total_banks(&self) -> usize {
        self.channels * self.banks_per_channel()
    }

    /// Banks behind one channel.
    fn banks_per_channel(&self) -> usize {
        self.ranks_per_channel * self.banks_per_rank
    }
}

/// Row-hit/miss and traffic counters, exported as `mem.dram.*` (see
/// OBSERVABILITY.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that had to close and open a row (or open a fresh one).
    pub row_misses: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total queueing-wait cycles charged.
    pub queue_wait_cycles: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
}

/// Ring size of utilization buckets: covers `RING × util_window` cycles of
/// requester clock skew.
const RING: usize = 16;

/// Busy-cycle accounting in absolute-indexed window buckets, so requesters
/// on skewed clocks each read the utilization of *their own* previous
/// window.
///
/// The channel keeps the index and first cycle of the window of its last
/// request, so a request divides by the window width only when its cycle
/// lies outside that window. It also keeps the queue-wait factor
/// `u / (1 - u)` of the last busy count it read: the factor depends on
/// nothing else, so a hit returns the bits the expression would.
#[derive(Debug, Clone, Copy)]
struct Channel {
    /// `(window_index, busy_cycles)` per ring slot.
    slots: [(u64, Cycle); RING],
    /// The window of the last request and its first cycle.
    window: u64,
    window_start: Cycle,
    /// The busy count the cached factor was computed from, and the factor.
    factor_busy: Cycle,
    factor: f64,
}

impl Default for Channel {
    fn default() -> Self {
        Channel {
            slots: [(u64::MAX, 0); RING],
            // Window 0 starts at cycle 0; no busy cycles give no wait.
            window: 0,
            window_start: 0,
            factor_busy: 0,
            factor: 0.0,
        }
    }
}

impl Channel {
    /// The index of the window `now` falls in.
    #[inline]
    fn window_of(&mut self, now: Cycle, width: Cycle) -> u64 {
        // A cycle before the window's start wraps to a large difference.
        if now.wrapping_sub(self.window_start) >= width {
            self.window = now / width;
            self.window_start = self.window * width;
        }
        self.window
    }

    /// Charges `busy` cycles to window `w`.
    fn note(&mut self, w: u64, busy: Cycle) {
        let slot = &mut self.slots[(w as usize) % RING];
        if slot.0 != w {
            *slot = (w, 0);
        }
        slot.1 += busy;
    }

    /// Busy cycles charged to the window preceding window `w` (to window
    /// 0 itself when `w` is 0).
    fn previous_busy(&self, w: u64) -> Cycle {
        let prev = w.saturating_sub(1);
        let slot = self.slots[(prev as usize) % RING];
        if slot.0 == prev {
            slot.1
        } else {
            0
        }
    }

    /// The queue-wait factor `u / (1 - u)` of a window with `busy` busy
    /// cycles, where `u` is its utilization capped at 0.98.
    fn wait_factor(&mut self, busy: Cycle, width: Cycle) -> f64 {
        if busy != self.factor_busy {
            let util = (busy as f64 / width as f64).min(0.98);
            self.factor_busy = busy;
            self.factor = util / (1.0 - util);
        }
        self.factor
    }

    /// The queueing wait of a request in window `w` whose service takes
    /// `service` cycles, capped at `cap`.
    fn queue_wait(&mut self, w: u64, width: Cycle, service: Cycle, cap: Cycle) -> Cycle {
        let busy = self.previous_busy(w);
        let wait = self.wait_factor(busy, width) * service as f64;
        (wait as Cycle).min(cap)
    }

    /// Utilization of the window preceding window `w`, in [0, 0.98].
    #[cfg(test)]
    fn utilization(&self, w: u64, width: Cycle) -> f64 {
        (self.previous_busy(w) as f64 / width as f64).min(0.98)
    }
}

/// The DRAM device array.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    channels: Vec<Channel>,
    stats: DramStats,
    /// `log2` of the channel count, banks per channel and lines per row:
    /// the address map shifts and masks by them.
    channel_bits: u32,
    bank_bits: u32,
    row_bits: u32,
}

impl Dram {
    /// Builds an idle DRAM with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the channel count, the banks per channel
    /// (`ranks_per_channel × banks_per_rank`) and the lines per row are
    /// powers of two.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = cfg.banks_per_channel();
        for (what, n) in [
            ("channels", cfg.channels as u64),
            ("banks per channel", banks as u64),
            ("lines per row", cfg.lines_per_row),
        ] {
            assert!(
                n.is_power_of_two(),
                "the address map shifts by log2: {what} must be a power of two, not {n}"
            );
        }
        Dram {
            banks: vec![Bank::default(); cfg.total_banks()],
            channels: vec![Channel::default(); cfg.channels],
            stats: DramStats::default(),
            channel_bits: cfg.channels.trailing_zeros(),
            bank_bits: banks.trailing_zeros(),
            row_bits: cfg.lines_per_row.trailing_zeros(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Counter snapshot (`mem.dram.*`).
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Writes the device counters into `out` (`mem.dram.*` namespace).
    pub fn export_metrics(&self, out: &mut Registry) {
        let s = self.stats;
        for (name, value) in [
            ("mem.dram.reads", s.reads),
            ("mem.dram.writes", s.writes),
            ("mem.dram.row_hits", s.row_hits),
            ("mem.dram.row_misses", s.row_misses),
            ("mem.dram.bytes", s.bytes),
            ("mem.dram.queue_wait_cycles", s.queue_wait_cycles),
        ] {
            out.counter(name, value);
        }
    }

    /// Utilization estimate a request at `now` on `channel` would observe.
    #[cfg(test)]
    fn channel_utilization_at(&self, channel: usize, now: Cycle) -> f64 {
        let width = self.cfg.util_window;
        self.channels[channel].utilization(now / width, width)
    }

    /// Address mapping: line-interleaved across channels, then banks, so
    /// consecutive lines spread across channels (the paper interleaves
    /// pages across controllers/channels/ranks/banks for parallelism,
    /// §4.1). Returns the channel, the bank's index across the device and
    /// the row.
    #[inline]
    fn map(&self, addr: LineAddr) -> (usize, usize, u64) {
        let channel = addr.0 & ((1 << self.channel_bits) - 1);
        let row_seq = addr.0 >> self.channel_bits >> self.row_bits;
        let bank = row_seq & ((1 << self.bank_bits) - 1);
        let row = row_seq >> self.bank_bits;
        (
            channel as usize,
            (channel << self.bank_bits | bank) as usize,
            row,
        )
    }

    /// Services one line access issued at `now`; returns the completion
    /// cycle (`now` + queueing + access + burst).
    pub fn service(&mut self, addr: LineAddr, now: Cycle, write: bool) -> Cycle {
        let (channel_idx, bank_idx, row) = self.map(addr);

        let bank = &mut self.banks[bank_idx];
        let row_hit = bank.open_row == Some(row);
        let access_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.cfg.t_cas
            }
            Some(_) => {
                self.stats.row_misses += 1;
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            }
            None => {
                self.stats.row_misses += 1;
                self.cfg.t_rcd + self.cfg.t_cas
            }
        };
        bank.open_row = Some(row);

        let channel = &mut self.channels[channel_idx];
        let window = channel.window_of(now, self.cfg.util_window);
        let wait = channel.queue_wait(
            window,
            self.cfg.util_window,
            access_latency + self.cfg.t_burst,
            self.cfg.max_queue_wait,
        );
        channel.note(window, self.cfg.t_burst);

        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.bytes += LINE_SIZE as u64;
        self.stats.queue_wait_cycles += wait;
        trace_event!(now, "dram", "command", {
            channel: channel_idx as f64,
            bank: bank_idx as f64,
            is_write: if write { 1.0 } else { 0.0 },
            row_hit: if row_hit { 1.0 } else { 0.0 },
            queue_wait: wait as f64,
            latency: (wait + access_latency + self.cfg.t_burst) as f64,
        });
        now + wait + access_latency + self.cfg.t_burst
    }
}

/// The DRAM model with every address and window found by division, as it
/// was before the shifts and the window caches: the reference the tests
/// hold [`Dram`] to.
#[cfg(test)]
pub(crate) struct PlainDram {
    cfg: DramConfig,
    open_rows: Vec<Option<u64>>,
    /// `(window_index, busy_cycles)` ring per channel.
    channels: Vec<[(u64, Cycle); RING]>,
    pub(crate) stats: DramStats,
}

#[cfg(test)]
impl PlainDram {
    pub(crate) fn new(cfg: DramConfig) -> Self {
        PlainDram {
            cfg,
            open_rows: vec![None; cfg.total_banks()],
            channels: vec![[(u64::MAX, 0); RING]; cfg.channels],
            stats: DramStats::default(),
        }
    }

    pub(crate) fn service(&mut self, addr: LineAddr, now: Cycle, write: bool) -> Cycle {
        let cfg = self.cfg;
        let channel = (addr.0 % cfg.channels as u64) as usize;
        let banks = (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
        let row_seq = addr.0 / cfg.channels as u64 / cfg.lines_per_row;
        let bank = channel * banks as usize + (row_seq % banks) as usize;
        let row = row_seq / banks;
        let access = match self.open_rows[bank] {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                cfg.t_cas
            }
            Some(_) => {
                self.stats.row_misses += 1;
                cfg.t_rp + cfg.t_rcd + cfg.t_cas
            }
            None => {
                self.stats.row_misses += 1;
                cfg.t_rcd + cfg.t_cas
            }
        };
        self.open_rows[bank] = Some(row);
        let slots = &mut self.channels[channel];
        let prev = (now / cfg.util_window).saturating_sub(1);
        let slot = slots[(prev as usize) % RING];
        let util = if slot.0 == prev {
            (slot.1 as f64 / cfg.util_window as f64).min(0.98)
        } else {
            0.0
        };
        let wait = util / (1.0 - util) * (access + cfg.t_burst) as f64;
        let wait = (wait as Cycle).min(cfg.max_queue_wait);
        let w = now / cfg.util_window;
        let slot = &mut slots[(w as usize) % RING];
        if slot.0 != w {
            *slot = (w, 0);
        }
        slot.1 += cfg.t_burst;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.bytes += LINE_SIZE as u64;
        self.stats.queue_wait_cycles += wait;
        now + wait + access + cfg.t_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_row_miss() {
        let mut d = Dram::new(DramConfig::micro50());
        let done = d.service(LineAddr(0), 0, false);
        assert_eq!(done, 28 + 28 + 8); // tRCD + tCAS + burst
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut d = Dram::new(DramConfig::micro50());
        let first = d.service(LineAddr(0), 0, false);
        // Line 2 maps to the same channel (even), same bank/row.
        let done = d.service(LineAddr(2), first, false);
        assert_eq!(done - first, 28 + 8); // tCAS + burst
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = DramConfig::micro50();
        let mut d = Dram::new(cfg);
        let banks = (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
        // Two rows on the same bank of channel 0.
        let same_bank_next_row = LineAddr(cfg.lines_per_row * banks * cfg.channels as u64);
        let first = d.service(LineAddr(0), 0, false);
        let done = d.service(same_bank_next_row, first, false);
        assert_eq!(done - first, 28 + 28 + 28 + 8); // tRP + tRCD + tCAS + burst
    }

    #[test]
    fn saturating_traffic_raises_queue_wait() {
        let cfg = DramConfig::micro50();
        let mut d = Dram::new(cfg);
        // Saturate channel 0 for two windows: one line per t_burst cycles.
        let mut t = 0;
        let mut addr = 0u64;
        while t < 2 * cfg.util_window {
            d.service(LineAddr(addr * 2), t, false); // even = channel 0
            addr = (addr + 7) % 100_000;
            t += cfg.t_burst;
        }
        assert!(
            d.channel_utilization_at(0, t) > 0.8,
            "utilization {}",
            d.channel_utilization_at(0, t)
        );
        // A new request now pays a substantial queueing wait.
        let start = t;
        let done = d.service(LineAddr(addr * 2), start, false);
        let base = 28 + 28 + 28 + 8; // worst-case access
        assert!(
            done - start > base,
            "expected queueing on a hot channel: {}",
            done - start
        );
        assert!(d.stats().queue_wait_cycles > 0);
    }

    #[test]
    fn idle_gap_decays_utilization() {
        let cfg = DramConfig::micro50();
        let mut d = Dram::new(cfg);
        let mut t = 0;
        for i in 0..2_000u64 {
            d.service(LineAddr(i * 2), t, false);
            t += cfg.t_burst;
        }
        // Long idle gap, then one access: utilization has decayed.
        let late = t + 10 * cfg.util_window;
        d.service(LineAddr(0), late, false);
        assert_eq!(d.channel_utilization_at(0, late), 0.0);
    }

    #[test]
    fn light_traffic_pays_no_wait() {
        let cfg = DramConfig::micro50();
        let mut d = Dram::new(cfg);
        // Sparse accesses: never builds utilization.
        for i in 0..100u64 {
            let start = i * 100_000;
            let done = d.service(LineAddr(0), start, false);
            assert!(done - start <= 28 + 28 + 28 + 8);
        }
    }

    #[test]
    fn queue_wait_is_capped() {
        let cfg = DramConfig::micro50();
        let mut ch = Channel::default();
        // Saturate window 0 completely.
        ch.note(0, cfg.util_window);
        // Window 1 reads window 0's utilization.
        let wait = ch.queue_wait(1, cfg.util_window, 1000, cfg.max_queue_wait);
        assert_eq!(wait, cfg.max_queue_wait);
        // A request whose previous window is empty pays nothing.
        assert_eq!(
            ch.queue_wait(10, cfg.util_window, 1000, cfg.max_queue_wait),
            0
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Dram::new(DramConfig::micro50());
        d.service(LineAddr(0), 0, false);
        d.service(LineAddr(0), 100, true);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().bytes, 128);
        assert_eq!((d.stats().row_hits, d.stats().row_misses), (1, 1));
    }

    /// Requesters whose clocks start up to three windows apart issue reads
    /// and writes in turn, so `now` moves back and forth across window
    /// boundaries. Every completion and counter must match the
    /// division-based reference. Returns the requests that queued.
    fn agrees_with_the_plain_model(cfg: DramConfig, seed: u64) -> u64 {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut dram, mut plain) = (Dram::new(cfg), PlainDram::new(cfg));
        let mut clocks: Vec<Cycle> = (0..4)
            .map(|_| rng.gen_range(0..3 * cfg.util_window))
            .collect();
        let mut waited = 0;
        for op in 0..20_000 {
            let clock = &mut clocks[rng.gen_range(0..4)];
            let addr = LineAddr(rng.gen_range(0..1u64 << 16));
            let write = rng.gen_range(0..8) == 0;
            let now = if rng.gen_range(0..100) == 0 {
                *clock + rng.gen_range(0..40 * cfg.util_window)
            } else {
                *clock
            };
            let done = dram.service(addr, now, write);
            assert_eq!(done, plain.service(addr, now, write), "op {op} at {now}");
            assert_eq!(dram.stats(), plain.stats, "op {op}");
            waited += u64::from(done - now > 28 + 28 + 28 + 8);
            *clock += rng.gen_range(0..cfg.util_window / 50);
        }
        waited
    }

    #[test]
    fn shifts_and_window_caches_match_division() {
        let small = DramConfig {
            util_window: 1_000,
            ..DramConfig::micro50()
        };
        // A short window keeps the channels busy enough to charge waits.
        for seed in 0..3 {
            assert!(agrees_with_the_plain_model(small, seed) > 1_000);
        }
        let mut one_channel = DramConfig::micro50();
        one_channel.channels = 1;
        agrees_with_the_plain_model(one_channel, 7);
    }

    #[test]
    fn non_power_of_two_geometry_is_refused() {
        let cfg = DramConfig::micro50();
        for (what, bad) in [
            ("channels", DramConfig { channels: 3, ..cfg }),
            (
                "banks per channel",
                DramConfig {
                    banks_per_rank: 6,
                    ..cfg
                },
            ),
            (
                "lines per row",
                DramConfig {
                    lines_per_row: 24,
                    ..cfg
                },
            ),
        ] {
            let refused = std::panic::catch_unwind(|| Dram::new(bad));
            let err = refused.expect_err("non-power-of-two geometry was accepted");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains(what), "{msg}");
        }
    }

    #[test]
    fn mapping_is_total_and_stable() {
        let d = Dram::new(DramConfig::micro50());
        let banks = d.cfg.banks_per_channel();
        for raw in [0u64, 1, 63, 64, 12345, 1 << 30] {
            let (c1, b1, r1) = d.map(LineAddr(raw));
            let (c2, b2, r2) = d.map(LineAddr(raw));
            assert_eq!((c1, b1, r1), (c2, b2, r2));
            assert!(c1 < d.cfg.channels);
            assert!((c1 * banks..(c1 + 1) * banks).contains(&b1));
        }
    }
}
