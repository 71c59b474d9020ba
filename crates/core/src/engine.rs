//! The PageForge hardware engine: the page-comparator state machine and the
//! background ECC hash-key generator (§3.2–§3.3).
//!
//! The engine owns the Scan Table and exposes the Table 1 software
//! interface (`insert_PPN`, `insert_PFE`, `update_PFE`, `get_PFE_info`,
//! `update_ECC_offset`). When triggered, it compares the candidate page
//! against the loaded Other Pages in lockstep, one 64-byte line pair at a
//! time, following the software-provided `Less`/`More` indices, and
//! snatches the candidate's ECC codes as its lines stream through the
//! memory controller to assemble the hash key for free.

use std::fmt;

use pageforge_ecc::{EccKeyConfig, EccKeyConfigError, KeyBuilder};
use pageforge_faults::FaultInjector;
use pageforge_obs::trace_event;
use pageforge_obs::Registry;
use pageforge_types::stats::RunningStats;
use pageforge_types::{Cycle, PageData, Ppn, LINES_PER_PAGE, LINE_SIZE};
use pageforge_vm::HostMemory;

use crate::fabric::MemoryFabric;
use crate::scan_table::{PfeInfo, ScanTable, DEFAULT_OTHER_PAGES};

/// Hardware parameters of the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of Other Pages entries in the Scan Table.
    pub table_entries: usize,
    /// ECC hash-key line offsets (Figure 6; changeable via
    /// `update_ECC_offset`).
    pub ecc: EccKeyConfig,
    /// Cycles the comparator spends per 64-byte line pair once both lines
    /// have arrived (a wide XOR/compare plus FSM transition).
    pub compare_cycles_per_line: Cycle,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            table_entries: DEFAULT_OTHER_PAGES,
            ecc: EccKeyConfig::default(),
            compare_cycles_per_line: 2,
        }
    }
}

/// Counters and the per-batch cycle distribution (Table 5 reports a mean of
/// 7,486 cycles with σ ≈ 1,296 for processing the Scan Table), exported as
/// the `engine.*` metrics (see OBSERVABILITY.md).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Batches processed (engine triggers).
    pub runs: u64,
    /// Pairwise page comparisons performed.
    pub comparisons: u64,
    /// Line reads issued.
    pub lines_fetched: u64,
    /// Line reads serviced by the on-chip network.
    pub lines_on_chip: u64,
    /// Line reads serviced from DRAM.
    pub lines_from_dram: u64,
    /// Duplicates found.
    pub duplicates: u64,
    /// Hash keys completed.
    pub keys_completed: u64,
    /// Distribution of cycles per batch.
    pub run_cycles: RunningStats,
}

/// Why a triggered batch could not complete. Without fault injection
/// none of these arise (the OS driver only loads valid frames); under an
/// active [`FaultInjector`] they surface corruption the hardware cannot
/// resolve, and the driver degrades the candidate to the software path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// `run_batch` was triggered with no valid PFE loaded.
    NoCandidate,
    /// The candidate frame does not exist in host memory.
    MissingCandidateFrame(Ppn),
    /// A loaded Other Pages frame does not exist (e.g. a corrupted PPN).
    MissingLoadedFrame(Ppn),
    /// The Less/More walk visited more entries than the table holds — a
    /// corrupted pointer created a cycle; the hardware watchdog fired.
    WalkDiverged,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoCandidate => write!(f, "run_batch without a candidate"),
            EngineError::MissingCandidateFrame(ppn) => {
                write!(f, "candidate frame {ppn} does not exist")
            }
            EngineError::MissingLoadedFrame(ppn) => {
                write!(f, "loaded frame {ppn} does not exist")
            }
            EngineError::WalkDiverged => {
                write!(f, "scan walk visited more entries than the table holds")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of one engine trigger (`run_batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineRun {
    /// Cycle at which the Scanned bit was set.
    pub finished_at: Cycle,
    /// Cycles the batch took.
    pub cycles: Cycle,
    /// Page comparisons performed in this batch.
    pub comparisons: u64,
}

/// The PageForge module: Scan Table + comparator FSM + key snatcher.
#[derive(Debug, Clone)]
pub struct PageForgeEngine {
    cfg: EngineConfig,
    table: ScanTable,
    /// Reset in place for each candidate; rebuilt from `cfg.ecc` by the
    /// first [`insert_pfe`](Self::insert_pfe) after the offsets change.
    key: KeyBuilder,
    /// `update_ecc_offset` changed `cfg.ecc` since `key` was built.
    rekey: bool,
    stats: EngineStats,
    /// [`key_line_mask`] of `key`'s offsets.
    key_lines: u64,
    /// Deterministic fault layer; `None` (the default) means the engine
    /// behaves exactly as before the fault subsystem existed.
    faults: Option<Box<FaultInjector>>,
}

impl PageForgeEngine {
    /// Builds an idle engine.
    pub fn new(cfg: EngineConfig) -> Self {
        let key = cfg.ecc.builder();
        PageForgeEngine {
            table: ScanTable::new(cfg.table_entries),
            key,
            rekey: false,
            key_lines: key_line_mask(&cfg.ecc),
            cfg,
            stats: EngineStats::default(),
            faults: None,
        }
    }

    /// Installs (or removes) a fault injector. An injector built from an
    /// empty plan is dropped to `None`, keeping the no-fault hot path
    /// free of per-line hook calls.
    pub fn set_fault_injector(&mut self, inj: Option<FaultInjector>) {
        self.faults = inj.filter(|i| !i.is_inert()).map(Box::new);
    }

    /// The installed fault injector, if any (for `faults.*` metric
    /// export).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Mutable access to the installed fault injector (the driver
    /// consumes key-collision events through this).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_deref_mut()
    }

    /// Whether the engine is unavailable at `now` (inside a scheduled
    /// stall window). Always `false` without an injector.
    #[inline]
    pub fn stalled(&mut self, now: Cycle) -> bool {
        self.faults.as_mut().is_some_and(|f| f.stalled(now))
    }

    /// First cycle at or after `now` outside every stall window.
    pub fn stall_clears_at(&self, now: Cycle) -> Cycle {
        self.faults
            .as_deref()
            .map_or(now, |f| f.stall_clears_at(now))
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The engine's counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Writes the counters into `out` as `engine.*` metrics.
    pub fn export_metrics(&self, out: &mut Registry) {
        let s = &self.stats;
        for (name, v) in [
            ("engine.runs", s.runs),
            ("engine.comparisons", s.comparisons),
            ("engine.lines_fetched", s.lines_fetched),
            ("engine.lines_on_chip", s.lines_on_chip),
            ("engine.lines_from_dram", s.lines_from_dram),
            ("engine.duplicates", s.duplicates),
            ("engine.keys_completed", s.keys_completed),
        ] {
            out.counter(name, v);
        }
        out.histogram("engine.run_cycles", &s.run_cycles);
    }

    /// The Scan Table (read-only; the OS mutates it through the API calls).
    pub fn table(&self) -> &ScanTable {
        &self.table
    }

    // ------------------------------------------------------------------
    // Table 1: the five-function OS interface.
    // ------------------------------------------------------------------

    /// `insert_PPN`: fill an Other Pages entry.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the table capacity.
    #[inline]
    pub fn insert_ppn(&mut self, index: u8, ppn: Ppn, less: u8, more: u8) {
        self.table.insert_ppn(index, ppn, less, more);
    }

    /// `insert_PFE`: load a new candidate page. Resets the hash-key
    /// builder — a new candidate means a new key — and rebuilds it if
    /// the offsets changed since the last candidate.
    #[inline]
    pub fn insert_pfe(&mut self, ppn: Ppn, last_refill: bool, ptr: u8) {
        self.table.insert_pfe(ppn, last_refill, ptr);
        if self.rekey {
            self.key = self.cfg.ecc.builder();
            self.key_lines = key_line_mask(&self.cfg.ecc);
            self.rekey = false;
        } else {
            self.key.reset();
        }
    }

    /// `update_PFE`: rearm for another batch of the same candidate. The
    /// partially-built hash key is retained.
    #[inline]
    pub fn update_pfe(&mut self, last_refill: bool, ptr: u8) {
        self.table.update_pfe(last_refill, ptr);
    }

    /// `get_PFE_info`: status snapshot.
    pub fn pfe_info(&self) -> PfeInfo {
        self.table.pfe_info()
    }

    /// `update_ECC_offset`: change the hash-key line offsets. Takes effect
    /// for the *next* candidate ("such offsets are rarely changed", §3.6):
    /// a candidate in progress keeps building its key from the offsets it
    /// started with.
    ///
    /// # Errors
    ///
    /// Returns the [`EccKeyConfigError`] if the offsets are invalid.
    pub fn update_ecc_offset(&mut self, offsets: Vec<usize>) -> Result<(), EccKeyConfigError> {
        self.cfg.ecc = EccKeyConfig::with_offsets(offsets)?;
        self.rekey = true;
        Ok(())
    }

    /// Clears the Other Pages array (OS helper before a refill).
    #[inline]
    pub fn clear_others(&mut self) {
        self.table.clear_others();
    }

    // ------------------------------------------------------------------
    // Hardware operation.
    // ------------------------------------------------------------------

    /// Triggers the engine: processes the loaded batch starting at cycle
    /// `start`, following `Ptr` through the Other Pages entries until a
    /// duplicate is found or the walk reaches an invalid index. Sets the
    /// S/D/H bits accordingly.
    ///
    /// Page *contents* are read from `mem` (the simulation's ground truth);
    /// *timing* comes from `fabric` (on-chip network first, then DRAM,
    /// §3.2.2). Candidate lines are re-fetched for every comparison — the
    /// module deliberately has no cache (§3.5).
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the batch cannot complete: no
    /// valid candidate was loaded, a loaded frame does not exist, or the
    /// walk diverged. Under the OS driver only fault injection causes
    /// them, and the driver then degrades the candidate to the software
    /// path.
    ///
    /// # Examples
    ///
    /// ```
    /// use pageforge_core::engine::{EngineConfig, PageForgeEngine};
    /// use pageforge_core::fabric::FlatFabric;
    /// use pageforge_core::scan_table::INVALID_INDEX;
    /// use pageforge_types::{Gfn, PageData, VmId};
    /// use pageforge_vm::HostMemory;
    ///
    /// // Two identical pages: the engine must flag a duplicate.
    /// let mut mem = HostMemory::new();
    /// let cand = mem.map_new_page(VmId(0), Gfn(0), PageData::from_fn(|_| 7));
    /// let other = mem.map_new_page(VmId(0), Gfn(1), PageData::from_fn(|_| 7));
    ///
    /// let mut engine = PageForgeEngine::new(EngineConfig::default());
    /// engine.insert_pfe(cand, true, 0); // Table 1: insert_PFE
    /// engine.insert_ppn(0, other, INVALID_INDEX, INVALID_INDEX);
    ///
    /// let mut fabric = FlatFabric::all_dram(80);
    /// let run = engine.run_batch(&mem, &mut fabric, 0).unwrap();
    /// assert!(engine.pfe_info().duplicate);
    /// assert_eq!(run.comparisons, 1);
    /// assert_eq!(engine.stats().duplicates, 1);
    /// ```
    pub fn run_batch(
        &mut self,
        mem: &HostMemory,
        fabric: &mut impl MemoryFabric,
        start: Cycle,
    ) -> Result<EngineRun, EngineError> {
        let mut lines = LineTally::default();
        let run = self.run_counting(mem, fabric, start, &mut lines);
        // Once per run, failed runs included: the fault campaign's engine
        // counters count the lines a run fetched before its error.
        self.stats.lines_fetched += lines.fetched;
        self.stats.lines_on_chip += lines.on_chip;
        self.stats.lines_from_dram += lines.fetched - lines.on_chip;
        run
    }

    /// [`Self::run_batch`], tallying its line reads into `lines`.
    fn run_counting(
        &mut self,
        mem: &HostMemory,
        fabric: &mut impl MemoryFabric,
        start: Cycle,
        lines: &mut LineTally,
    ) -> Result<EngineRun, EngineError> {
        if !self.table.pfe().valid {
            return Err(EngineError::NoCandidate);
        }
        // A pending Scan Table fault strikes before the walk begins (the
        // SRAM flip happened while the table sat loaded).
        if let Some(f) = self.faults.as_mut() {
            if let Some(tf) = f.take_table_fault(start) {
                self.table
                    .corrupt_other(tf.entry, tf.ppn_xor, tf.less_xor, tf.more_xor);
            }
        }
        let mut now = start;
        let mut comparisons = 0u64;
        let cand_ppn = self.table.pfe().ppn;
        let cand: &PageData = mem
            .frame_data(cand_ppn)
            .ok_or(EngineError::MissingCandidateFrame(cand_ppn))?;

        loop {
            let ptr = self.table.pfe().ptr;
            let Some(other_entry) = self.table.other(ptr) else {
                // Invalid index: batch exhausted without a match.
                self.table.pfe_mut().scanned = true;
                trace_event!(now, "scan_table", "transition", {
                    ptr: ptr as f64,
                    outcome: 2.0, // exhausted: Scanned set, no Duplicate
                });
                break;
            };
            let other_ppn = other_entry.ppn;
            let (less, more) = (other_entry.less, other_entry.more);
            let Some(other) = mem.frame_data(other_ppn) else {
                return Err(EngineError::MissingLoadedFrame(other_ppn));
            };

            comparisons += 1;
            // Watchdog: a legitimate walk descends a tree laid out in the
            // table, so it can visit at most `capacity` entries. More means
            // a corrupted pointer closed a cycle.
            if comparisons as usize > self.table.capacity() {
                return Err(EngineError::WalkDiverged);
            }
            let mut outcome = std::cmp::Ordering::Equal;
            for line in 0..LINES_PER_PAGE {
                // Lockstep fetch of the line pair: one offset, two PPNs.
                let a = fetch(fabric, lines, cand_ppn, line, now);
                let b = fetch(fabric, lines, other_ppn, line, now);
                now = a.max(b) + self.cfg.compare_cycles_per_line;
                // A scheduled DRAM fault corrupts the *view* of the
                // candidate line this fetch returned; the corrupted beat
                // goes through the SECDED decoder inside the injector.
                let view = self
                    .faults
                    .as_mut()
                    .and_then(|f| f.view_line(now, cand.line(line)));
                // Snatch the candidate's ECC code as it passes through the
                // controller (§3.3.2).
                self.observe_candidate_line(cand, line, now);
                let cmp = match &view {
                    // Detected-uncorrectable: the data is untrusted, so the
                    // comparator takes a deterministic safe direction — it
                    // can only cost a missed merge, never cause one.
                    Some(v) if !v.trusted => std::cmp::Ordering::Less,
                    Some(v) => cmp_lines(&v.bytes, other.line(line)),
                    None => cmp_lines(cand.line(line), other.line(line)),
                };
                if cmp != std::cmp::Ordering::Equal {
                    outcome = cmp;
                    break;
                }
            }
            match outcome {
                std::cmp::Ordering::Equal => {
                    let pfe = self.table.pfe_mut();
                    pfe.duplicate = true;
                    pfe.scanned = true;
                    self.stats.duplicates += 1;
                    trace_event!(now, "scan_table", "transition", {
                        ptr: ptr as f64,
                        outcome: 0.0, // duplicate: Scanned and Duplicate set
                    });
                    break;
                }
                std::cmp::Ordering::Less => {
                    self.table.pfe_mut().ptr = less;
                    trace_event!(now, "scan_table", "transition", {
                        ptr: ptr as f64,
                        outcome: -1.0, // candidate < entry: follow Less
                        next: less as f64,
                    });
                }
                std::cmp::Ordering::Greater => {
                    self.table.pfe_mut().ptr = more;
                    trace_event!(now, "scan_table", "transition", {
                        ptr: ptr as f64,
                        outcome: 1.0, // candidate > entry: follow More
                        next: more as f64,
                    });
                }
            }
        }

        // Force-complete the hash key on the last refill or on a duplicate
        // (§3.3.1 / §3.6): fetch whatever sampled lines are still missing.
        let pfe = *self.table.pfe();
        if (pfe.last_refill || pfe.duplicate) && !self.key.is_complete() {
            for line in self.key.missing() {
                let done = fetch(fabric, lines, cand_ppn, line, now);
                now = done;
                self.observe_candidate_line(cand, line, now);
            }
        }
        if self.key.is_complete() && !self.table.pfe().hash_ready {
            self.table.pfe_mut().hash = self.key.finish();
            self.table.pfe_mut().hash_ready = true;
            self.stats.keys_completed += 1;
            trace_event!(now, "engine", "key_complete", {});
        }

        let cycles = now - start;
        self.stats.runs += 1;
        self.stats.comparisons += comparisons;
        self.stats.run_cycles.push(cycles as f64);
        trace_event!(now, "engine", "batch", {
            cycles: cycles as f64,
            comparisons: comparisons as f64,
            duplicate: if self.table.pfe().duplicate { 1.0 } else { 0.0 },
        });
        Ok(EngineRun {
            finished_at: now,
            cycles,
            comparisons,
        })
    }

    /// Snatches the minikey of candidate line `line` if the hash key
    /// samples it. The test is one bit of `key_lines`, so the 60 of 64
    /// lines the key skips cost no call.
    #[inline]
    fn observe_candidate_line(&mut self, cand: &PageData, line: usize, now: Cycle) {
        if self
            .key_lines
            .checked_shr(line as u32)
            .is_some_and(|bits| bits & 1 != 0)
        {
            self.observe_key_line(cand, line, now);
        }
    }

    fn observe_key_line(&mut self, cand: &PageData, line: usize, now: Cycle) {
        let mut minikey = pageforge_ecc::minikey(cand.line(line));
        // A scheduled key fault corrupts the snatched minikey — the
        // hash hint lies, exactly the case §3.3 says must stay safe.
        if let Some(f) = self.faults.as_mut() {
            minikey = f.filter_minikey(now, minikey);
        }
        self.key.observe(line, minikey);
    }
}

/// Bit `l` set for every line `l` the hash key samples.
fn key_line_mask(ecc: &EccKeyConfig) -> u64 {
    ecc.offsets().iter().fold(0, |mask, &line| mask | 1 << line)
}

/// Line reads of one engine run, added to the registry once per run.
#[derive(Debug, Default)]
struct LineTally {
    fetched: u64,
    on_chip: u64,
}

/// Reads one line through the fabric; returns when it arrives.
fn fetch(
    fabric: &mut impl MemoryFabric,
    lines: &mut LineTally,
    ppn: Ppn,
    line: usize,
    now: Cycle,
) -> Cycle {
    let read = fabric.read_line(ppn.line_addr(line), now);
    lines.fetched += 1;
    lines.on_chip += u64::from(read.on_chip);
    read.ready_at
}

/// `a.cmp(b)` for two lines, without a `memcmp` call per line: a 64-byte
/// pair is compared as eight words, and only the first differing word
/// is ordered, as a big-endian `u64`. Lexicographic byte order equals
/// big-endian word order, so the `Ordering`, and with it the first
/// differing line, is unchanged.
#[inline]
fn cmp_lines(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let (Ok(a), Ok(b)) = (
        <&[u8; LINE_SIZE]>::try_from(a),
        <&[u8; LINE_SIZE]>::try_from(b),
    ) else {
        return a.cmp(b);
    };
    for (x, y) in a.as_chunks::<8>().0.iter().zip(b.as_chunks::<8>().0) {
        if x != y {
            return u64::from_be_bytes(*x).cmp(&u64::from_be_bytes(*y));
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FlatFabric;
    use crate::scan_table::INVALID_INDEX;
    use pageforge_types::{Gfn, VmId};

    fn page(b: u8) -> PageData {
        PageData::from_fn(|i| b.wrapping_add((i / 64) as u8))
    }

    /// Maps pages with contents from `bytes`, returns their PPNs.
    fn mem_with(bytes: &[u8]) -> (HostMemory, Vec<Ppn>) {
        let mut mem = HostMemory::new();
        let ppns = bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| mem.map_new_page(VmId(0), Gfn(i as u64), page(b)))
            .collect();
        (mem, ppns)
    }

    #[test]
    fn key_line_mask_marks_exactly_the_sampled_lines() {
        let mut engine = PageForgeEngine::new(EngineConfig::default());
        for offsets in [vec![3, 19, 35, 51], vec![0, 63], vec![7]] {
            engine.update_ecc_offset(offsets.clone()).unwrap();
            engine.insert_pfe(Ppn(0), true, 0);
            for line in 0..LINES_PER_PAGE {
                assert_eq!(
                    engine.key_lines >> line & 1 == 1,
                    offsets.contains(&line),
                    "line {line} of {offsets:?}"
                );
            }
        }
    }

    #[test]
    fn finds_duplicate_in_single_entry_table() {
        let (mem, ppns) = mem_with(&[5, 5]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(ppns[0], true, 0);
        eng.insert_ppn(0, ppns[1], INVALID_INDEX, INVALID_INDEX);
        let mut fabric = FlatFabric::all_dram(80);
        let run = eng.run_batch(&mem, &mut fabric, 0).unwrap();
        let info = eng.pfe_info();
        assert!(info.scanned);
        assert!(info.duplicate);
        assert_eq!(info.ptr, 0, "ptr names the matching entry");
        assert_eq!(run.comparisons, 1);
        // Full page compared: 64 line pairs fetched.
        assert!(eng.stats().lines_fetched >= 128);
    }

    #[test]
    fn walks_less_more_pointers() {
        // Tree: entry 0 holds content 30 (root), entry 1 holds 10 (left),
        // entry 2 holds 50 (right). Candidate = 50: walk root → more → hit.
        let (mem, p) = mem_with(&[30, 10, 50, 50]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(p[3], true, 0);
        eng.insert_ppn(0, p[0], 1, 2);
        eng.insert_ppn(1, p[1], INVALID_INDEX, INVALID_INDEX);
        eng.insert_ppn(2, p[2], INVALID_INDEX, INVALID_INDEX);
        let mut fabric = FlatFabric::all_dram(80);
        let run = eng.run_batch(&mem, &mut fabric, 0).unwrap();
        assert!(eng.pfe_info().duplicate);
        assert_eq!(eng.pfe_info().ptr, 2);
        assert_eq!(run.comparisons, 2, "root then right child");
    }

    #[test]
    fn no_match_sets_scanned_only() {
        let (mem, p) = mem_with(&[30, 99]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(p[1], true, 0);
        eng.insert_ppn(0, p[0], 40, 41); // encoded invalid continuations
        let mut fabric = FlatFabric::all_dram(80);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        let info = eng.pfe_info();
        assert!(info.scanned);
        assert!(!info.duplicate);
        assert_eq!(info.ptr, 41, "candidate (99) > node (30) → More path");
    }

    #[test]
    fn hash_key_completed_on_last_refill() {
        let (mem, p) = mem_with(&[1, 2]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(p[0], true, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        let mut fabric = FlatFabric::all_dram(80);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        let info = eng.pfe_info();
        assert!(info.hash_ready);
        let expected = EccKeyConfig::default().page_key(mem.frame_data(p[0]).unwrap());
        assert_eq!(info.hash, Some(expected));
    }

    #[test]
    fn hash_key_not_forced_without_last_refill() {
        // Pages diverge at line 0, so only line 0 streams through — the key
        // (offsets 3,19,35,51) cannot complete, and L=0 means no forcing.
        let (mem, p) = mem_with(&[1, 2]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(p[0], false, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        let mut fabric = FlatFabric::all_dram(80);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        assert!(!eng.pfe_info().hash_ready);
        assert_eq!(eng.pfe_info().hash, None);
    }

    #[test]
    fn hash_key_survives_refills() {
        let (mem, p) = mem_with(&[7, 8, 9]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        // Batch 1 without L.
        eng.insert_pfe(p[0], false, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        let mut fabric = FlatFabric::all_dram(80);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        // Refill with L: key must complete for the *candidate* (p0).
        eng.clear_others();
        eng.insert_ppn(0, p[2], INVALID_INDEX, INVALID_INDEX);
        eng.update_pfe(true, 0);
        eng.run_batch(&mem, &mut fabric, 50_000).unwrap();
        let expected = EccKeyConfig::default().page_key(mem.frame_data(p[0]).unwrap());
        assert_eq!(eng.pfe_info().hash, Some(expected));
    }

    #[test]
    fn new_candidate_resets_key() {
        let (mem, p) = mem_with(&[7, 7, 8]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        let mut fabric = FlatFabric::all_dram(80);
        eng.insert_pfe(p[0], true, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        let key0 = eng.pfe_info().hash;
        // New candidate with different content.
        eng.clear_others();
        eng.insert_pfe(p[2], true, 0);
        eng.insert_ppn(0, p[0], INVALID_INDEX, INVALID_INDEX);
        eng.run_batch(&mem, &mut fabric, 100_000).unwrap();
        let key1 = eng.pfe_info().hash;
        assert_ne!(key0, key1);
    }

    #[test]
    fn first_candidate_after_an_offset_update_keys_with_the_new_offsets() {
        let (mem, p) = mem_with(&[7, 8, 9]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        let mut fabric = FlatFabric::all_dram(80);
        eng.insert_pfe(p[0], true, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        let offsets = vec![0, 16, 32, 48];
        eng.update_ecc_offset(offsets.clone()).unwrap();
        eng.clear_others();
        eng.insert_pfe(p[2], true, 0);
        eng.insert_ppn(0, p[0], INVALID_INDEX, INVALID_INDEX);
        eng.run_batch(&mem, &mut fabric, 100_000).unwrap();
        let cfg = EccKeyConfig::with_offsets(offsets).unwrap();
        assert_eq!(
            eng.pfe_info().hash,
            Some(cfg.page_key(mem.frame_data(p[2]).unwrap()))
        );
    }

    #[test]
    fn a_candidate_in_progress_keeps_its_offsets() {
        let (mem, p) = mem_with(&[7, 8, 9]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        let mut fabric = FlatFabric::all_dram(80);
        eng.insert_pfe(p[0], false, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        // The offsets change between two batches of the same candidate.
        eng.update_ecc_offset(vec![0, 16, 32, 48]).unwrap();
        eng.clear_others();
        eng.insert_ppn(0, p[2], INVALID_INDEX, INVALID_INDEX);
        eng.update_pfe(true, 0);
        eng.run_batch(&mem, &mut fabric, 50_000).unwrap();
        let expected = EccKeyConfig::default().page_key(mem.frame_data(p[0]).unwrap());
        assert_eq!(eng.pfe_info().hash, Some(expected));
    }

    #[test]
    fn cycles_scale_with_divergence_depth() {
        // Early-diverging pages finish much faster than identical pages.
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), PageData::from_fn(|_| 1));
        let b = mem.map_new_page(VmId(0), Gfn(1), PageData::from_fn(|_| 2));
        let c = mem.map_new_page(VmId(0), Gfn(2), PageData::from_fn(|_| 1));
        let mut fabric = FlatFabric::all_dram(80);

        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(a, true, 0);
        eng.insert_ppn(0, b, INVALID_INDEX, INVALID_INDEX);
        let diverge = eng.run_batch(&mem, &mut fabric, 0).unwrap();

        let mut eng2 = PageForgeEngine::new(EngineConfig::default());
        eng2.insert_pfe(a, true, 0);
        eng2.insert_ppn(0, c, INVALID_INDEX, INVALID_INDEX);
        let full = eng2.run_batch(&mem, &mut fabric, 0).unwrap();
        assert!(full.cycles > 10 * diverge.cycles);
    }

    #[test]
    fn walk_stops_at_duplicate() {
        // Chain 0 -> 1 -> 2; entry 1 matches. Entry 2 must never be
        // compared (lines_fetched bounded accordingly).
        let (mem, p) = mem_with(&[9, 5, 9, 7]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(p[0], true, 0);
        eng.insert_ppn(0, p[1], 1, 1);
        eng.insert_ppn(1, p[2], 2, 2);
        eng.insert_ppn(2, p[3], INVALID_INDEX, INVALID_INDEX);
        let mut fabric = FlatFabric::all_dram(80);
        let run = eng.run_batch(&mem, &mut fabric, 0).unwrap();
        assert_eq!(run.comparisons, 2, "entry 2 must not be visited");
        assert_eq!(eng.pfe_info().ptr, 1);
        assert!(eng.pfe_info().duplicate);
    }

    #[test]
    fn rerun_after_duplicate_requires_rearm() {
        let (mem, p) = mem_with(&[4, 4]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        let mut fabric = FlatFabric::all_dram(80);
        eng.insert_pfe(p[0], true, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        assert!(eng.pfe_info().duplicate);
        // update_PFE clears S/D so the same candidate can continue.
        eng.update_pfe(true, 0);
        assert!(!eng.pfe_info().duplicate);
        assert!(!eng.pfe_info().scanned);
    }

    #[test]
    fn update_ecc_offset_validates() {
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        assert!(eng.update_ecc_offset(vec![1, 2, 3, 4]).is_ok());
        assert!(eng.update_ecc_offset(vec![64]).is_err());
        assert!(eng.update_ecc_offset(vec![]).is_err());
    }

    #[test]
    fn run_without_candidate_is_an_error() {
        let mem = HostMemory::new();
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        let mut fabric = FlatFabric::all_dram(80);
        let err = eng.run_batch(&mem, &mut fabric, 0);
        assert_eq!(err, Err(EngineError::NoCandidate));
    }

    /// The word compare against the slice `cmp` it replaced: random line
    /// pairs, and pairs that differ in one byte at every position.
    #[test]
    fn word_compare_matches_slice_cmp() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        use std::cmp::Ordering;

        let mut rng = SmallRng::seed_from_u64(0x11E5);
        for _ in 0..2_000 {
            let (mut a, mut b) = ([0u8; 64], [0u8; 64]);
            rng.fill_bytes(&mut a);
            if rng.gen_bool(0.5) {
                b = a;
                // A shared prefix of random length, as headers give.
                let from = rng.gen_range(0..64);
                rng.fill_bytes(&mut b[from..]);
            } else {
                rng.fill_bytes(&mut b);
            }
            assert_eq!(cmp_lines(&a, &b), a.cmp(&b), "{a:02x?} vs {b:02x?}");
        }
        // Anything but a 64-byte pair falls back to slice order.
        assert_eq!(cmp_lines(&[1, 2], &[1, 2, 0]), Ordering::Less);
        for base in [[0u8; 64], [0x80; 64], [0xFF; 64]] {
            assert_eq!(cmp_lines(&base, &base), Ordering::Equal);
            for pos in 0..64 {
                for delta in [1u8, 0x7F, 0x80, 0xFF] {
                    let mut other = base;
                    other[pos] = other[pos].wrapping_add(delta);
                    assert_eq!(cmp_lines(&base, &other), base.cmp(&other), "byte {pos}");
                    assert_eq!(cmp_lines(&other, &base), other.cmp(&base), "byte {pos}");
                }
            }
        }
    }

    /// A failed run still adds the lines it fetched to the counters.
    #[test]
    fn failed_run_counts_its_fetched_lines() {
        let (mut mem, p) = mem_with(&[3, 3, 3]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(p[0], true, 0);
        eng.insert_ppn(0, p[1], 1, 1);
        eng.insert_ppn(1, Ppn(999), INVALID_INDEX, INVALID_INDEX);
        let mut fabric = FlatFabric::all_dram(80);
        // Entry 0 differs from the candidate in its last line, so the walk
        // fetches the whole page pair before it reaches the missing frame.
        mem.guest_write(VmId(0), Gfn(1), 4095, &[0]);
        let err = eng.run_batch(&mem, &mut fabric, 0);
        assert_eq!(err, Err(EngineError::MissingLoadedFrame(Ppn(999))));
        let stats = eng.stats();
        assert_eq!(stats.lines_fetched, 128);
        assert_eq!(stats.lines_from_dram, 128);
        assert_eq!(stats.lines_on_chip, 0);
        assert_eq!(stats.runs, 0, "a failed run is not a run");
    }

    #[test]
    fn run_cycle_stats_accumulate() {
        let (mem, p) = mem_with(&[1, 1]);
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        let mut fabric = FlatFabric::all_dram(80);
        eng.insert_pfe(p[0], true, 0);
        eng.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        eng.run_batch(&mem, &mut fabric, 0).unwrap();
        assert_eq!(eng.stats().runs, 1);
        assert!(eng.stats().run_cycles.mean() > 0.0);
    }
}
