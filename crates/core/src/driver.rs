//! The OS-side PageForge driver: KSM implemented over the Scan Table
//! (§3.4 of the paper).
//!
//! The driver keeps the same stable/unstable red-black trees as software
//! KSM, but *all page comparisons and hash-key generation happen in the
//! memory controller*. For each candidate the driver loads the root of the
//! relevant tree plus a few subsequent levels in breadth-first order into
//! the Scan Table, sets `Less`/`More` to mirror the tree edges, triggers
//! the hardware, and polls `get_PFE_info` every [`OS_CHECK_INTERVAL`] cycles.
//! If the hardware ran off the loaded slice, the driver refills the table
//! with the subtree the search descended into.
//!
//! Continuation encoding: entries whose tree child was not loaded point
//! their `Less`/`More` at *distinct invalid indices* (`capacity + 2·i +
//! direction`), so the final `Ptr` value tells the driver exactly which
//! node and direction the hardware walked off at — both to refill from the
//! right subtree and to learn content-correct insertion points without
//! re-comparing pages in software.

use std::collections::BTreeMap;

use pageforge_ecc::EccHashKey;
use pageforge_faults::FaultInjector;
use pageforge_ksm::rbtree::{NodeId, Side};
use pageforge_ksm::tree::{PageRef, PageTree, TreeKind};
use pageforge_ksm::{candidate_step, steady_state, CandidateOutcome, CostModel, KsmWork};
use pageforge_obs::{trace_event, Registry};
use pageforge_types::stats::RunningStats;
use pageforge_types::{Cycle, Gfn, Ppn, VmId};
use pageforge_vm::HostMemory;

use crate::engine::{EngineConfig, EngineStats, PageForgeEngine};
use crate::fabric::MemoryFabric;
use crate::scan_table::INVALID_INDEX;

/// OS polling period for `get_PFE_info` (Table 5: 12,000 cycles).
pub const OS_CHECK_INTERVAL: Cycle = 12_000;

/// OS cycles consumed per Scan Table refill (the `insert_PPN` /
/// `update_PFE` calls).
const OS_REFILL_CYCLES: Cycle = 350;

/// OS cycles consumed per `get_PFE_info` poll.
const OS_CHECK_CYCLES: Cycle = 60;

/// Retries (with exponential backoff) when the engine is stalled before
/// the driver degrades the candidate to the software path.
const MAX_ENGINE_RETRIES: u32 = 3;

/// Base backoff between engine stall retries, in cycles; doubles on each
/// retry. Fully deterministic.
const RETRY_BACKOFF_CYCLES: Cycle = 20_000;

/// Driver configuration (the paper runs PageForge with KSM's knobs,
/// Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PageForgeConfig {
    /// Candidate pages per work interval.
    pub pages_to_scan: usize,
    /// Sleep between work intervals, milliseconds (consumed by the
    /// simulator's scheduler).
    pub sleep_millisecs: u64,
    /// Hardware parameters.
    pub engine: EngineConfig,
}

impl Default for PageForgeConfig {
    fn default() -> Self {
        PageForgeConfig {
            pages_to_scan: 400,
            sleep_millisecs: 5,
            engine: EngineConfig::default(),
        }
    }
}

/// Cumulative driver statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageForgeStats {
    /// Completed passes over the hint list.
    pub passes: u64,
    /// Candidates processed.
    pub candidates: u64,
    /// Merges into the stable tree.
    pub merged_stable: u64,
    /// Merges via the unstable tree.
    pub merged_unstable: u64,
    /// Insertions into the unstable tree.
    pub inserted_unstable: u64,
    /// Candidates dropped because the ECC key changed.
    pub dropped_changed: u64,
    /// Candidates skipped (already merged).
    pub already_shared: u64,
    /// Candidates skipped (unmapped).
    pub unmapped: u64,
    /// ECC key comparisons that matched (page deemed unchanged).
    pub key_matches: u64,
    /// ECC key comparisons that mismatched.
    pub key_mismatches: u64,
    /// Scan Table refills issued.
    pub refills: u64,
    /// OS-side cycles consumed (refills + polls); tiny by design.
    pub os_cycles: Cycle,
    /// Candidates that fell back to the software KSM path (engine stall,
    /// error, or a rejected cross-check).
    pub degraded_candidates: u64,
    /// Stall retries attempted (each backs off exponentially).
    pub stall_retries: u64,
    /// Engine batches that returned an error.
    pub engine_errors: u64,
    /// Hardware duplicate reports rejected by the driver's cross-check
    /// (table entry no longer matches the tree node — table corruption).
    pub cross_check_skips: u64,
    /// Per-candidate search latency (cycles from first trigger to
    /// decision).
    pub candidate_cycles: RunningStats,
}

/// Report for one `scan_interval` call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntervalReport {
    /// Cycle at which the interval's work finished.
    pub finished_at: Cycle,
    /// Pages merged.
    pub merged: u64,
    /// OS cycles consumed during the interval.
    pub os_cycles: Cycle,
    /// Whether a pass boundary (unstable reset) occurred.
    pub pass_completed: bool,
}

/// Outcome of a hardware tree search.
enum HwSearch {
    /// Identical page found at this tree node.
    Found(NodeId),
    /// Not found; insertion point is `(parent, side)` (`None` ⇒ the tree
    /// was empty).
    NotFound(Option<(NodeId, Side)>),
}

/// Whether the hardware resolved a search or the driver must degrade the
/// candidate to the software path.
enum HwOutcome {
    /// The hardware resolved the search.
    Done(HwSearch, Cycle),
    /// Engine stalled/errored beyond the retry budget, or its result
    /// failed the driver's cross-check: finish this candidate in software.
    Degrade(Cycle),
}

/// The PageForge system: hardware engine + OS driver state.
#[derive(Debug, Clone)]
pub struct PageForge {
    cfg: PageForgeConfig,
    engine: PageForgeEngine,
    stable: PageTree,
    unstable: PageTree,
    hints: Vec<(VmId, Gfn)>,
    cursor: usize,
    prev_key: BTreeMap<(VmId, Gfn), EccHashKey>,
    stats: PageForgeStats,
    /// Refill scratch: the current BFS slice. Reused across refills so the
    /// hot search loop allocates nothing in steady state.
    scratch_slice: Vec<NodeId>,
    /// Refill scratch: stale nodes found in the slice.
    scratch_stale: Vec<NodeId>,
}

impl PageForge {
    /// Creates a driver scanning the given hint list.
    pub fn new(cfg: PageForgeConfig, hints: Vec<(VmId, Gfn)>) -> Self {
        let engine = PageForgeEngine::new(cfg.engine.clone());
        PageForge {
            cfg,
            engine,
            stable: PageTree::new(TreeKind::Stable),
            unstable: PageTree::new(TreeKind::Unstable),
            hints,
            cursor: 0,
            prev_key: BTreeMap::new(),
            stats: PageForgeStats::default(),
            scratch_slice: Vec::new(),
            scratch_stale: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PageForgeConfig {
        &self.cfg
    }

    /// Replaces the hint list and restarts scanning from a fresh pass.
    ///
    /// The fleet control plane calls this when a host's resident-VM set
    /// changes (admission, departure, migration): the cursor rewinds and
    /// both trees are rebuilt on the next pass so stale `(vm, gfn)`
    /// entries can never match against departed guests. Pages already
    /// merged in host memory stay merged — a rescan simply re-counts
    /// them as `already_shared`.
    pub fn set_hints(&mut self, hints: Vec<(VmId, Gfn)>) {
        self.hints = hints;
        self.cursor = 0;
        self.stable.clear();
        self.unstable.clear();
        self.prev_key.clear();
    }

    /// Installs (or removes) a deterministic fault injector on the
    /// hardware engine.
    pub fn set_fault_injector(&mut self, inj: Option<FaultInjector>) {
        self.engine.set_fault_injector(inj);
    }

    /// The engine's fault injector, if one is installed.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.engine.fault_injector()
    }

    /// Mutable access to the engine's fault injector, if one is
    /// installed (the fleet chaos plane toggles the wedge flag here).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.engine.fault_injector_mut()
    }

    /// Driver statistics.
    pub fn stats(&self) -> &PageForgeStats {
        &self.stats
    }

    /// Audits the candidate conservation law: every candidate, degraded
    /// or not, ends in exactly one outcome, so `candidates` equals
    /// `merged_stable + merged_unstable + inserted_unstable +
    /// dropped_changed + already_shared + unmapped`.
    ///
    /// # Errors
    ///
    /// Names both sides of the law and the driver's counters when they
    /// differ.
    pub fn check_conservation(&self) -> Result<(), String> {
        let s = &self.stats;
        let outcomes = s.merged_stable
            + s.merged_unstable
            + s.inserted_unstable
            + s.dropped_changed
            + s.already_shared
            + s.unmapped;
        if s.candidates == outcomes {
            Ok(())
        } else {
            Err(format!(
                "{} candidates, {outcomes} outcomes: {s:?}",
                s.candidates
            ))
        }
    }

    /// Hardware engine statistics (Table 5's cycle distribution).
    pub fn engine_stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// Writes driver + engine statistics into `out`: the engine's own
    /// `engine.*` metrics plus the driver's `pageforge.*` counters and
    /// tree gauges (see OBSERVABILITY.md).
    pub fn export_metrics(&self, out: &mut Registry) {
        self.engine.export_metrics(out);
        let s = &self.stats;
        for (name, v) in [
            ("pageforge.passes", s.passes),
            ("pageforge.candidates", s.candidates),
            ("pageforge.merged_stable", s.merged_stable),
            ("pageforge.merged_unstable", s.merged_unstable),
            ("pageforge.inserted_unstable", s.inserted_unstable),
            ("pageforge.dropped_changed", s.dropped_changed),
            ("pageforge.already_shared", s.already_shared),
            ("pageforge.unmapped", s.unmapped),
            ("pageforge.key_matches", s.key_matches),
            ("pageforge.key_mismatches", s.key_mismatches),
            ("pageforge.refills", s.refills),
            ("pageforge.os_cycles", s.os_cycles),
            ("pageforge.degraded_candidates", s.degraded_candidates),
            ("pageforge.stall_retries", s.stall_retries),
            ("pageforge.engine_errors", s.engine_errors),
            ("pageforge.cross_check_skips", s.cross_check_skips),
            ("pageforge.stable_tree.rotations", self.stable.rotations()),
            (
                "pageforge.unstable_tree.rotations",
                self.unstable.rotations(),
            ),
        ] {
            out.counter(name, v);
        }
        for (name, v) in [
            ("pageforge.stable_tree.size", self.stable.len() as f64),
            ("pageforge.stable_tree.depth", self.stable.depth() as f64),
            ("pageforge.unstable_tree.size", self.unstable.len() as f64),
            (
                "pageforge.unstable_tree.depth",
                self.unstable.depth() as f64,
            ),
        ] {
            out.gauge(name, v);
        }
        out.histogram("pageforge.candidate_cycles", &s.candidate_cycles);
        if let Some(f) = self.engine.fault_injector() {
            f.export_metrics(out);
        }
    }

    /// The stable tree.
    pub fn stable_tree(&self) -> &PageTree {
        &self.stable
    }

    /// The unstable tree.
    pub fn unstable_tree(&self) -> &PageTree {
        &self.unstable
    }

    /// Processes one work interval of `pages_to_scan` candidates starting
    /// at cycle `now`. Time advances as the hardware runs; the returned
    /// report says when the interval's work completed.
    pub fn scan_interval(
        &mut self,
        mem: &mut HostMemory,
        fabric: &mut impl MemoryFabric,
        now: Cycle,
    ) -> IntervalReport {
        self.scan_batch(mem, fabric, now, self.cfg.pages_to_scan)
    }

    /// Processes up to `n` candidates.
    pub fn scan_batch(
        &mut self,
        mem: &mut HostMemory,
        fabric: &mut impl MemoryFabric,
        now: Cycle,
        n: usize,
    ) -> IntervalReport {
        let mut report = IntervalReport {
            finished_at: now,
            ..IntervalReport::default()
        };
        if self.hints.is_empty() {
            return report;
        }
        let os_before = self.stats.os_cycles;
        let mut t = now;
        for _ in 0..n {
            let Some(&(vm, gfn)) = self.hints.get(self.cursor) else {
                // Defensive: the cursor always stays in range (it wraps at
                // the end of each pass); never merge on a corrupt cursor.
                self.cursor = 0;
                break;
            };
            let (merged, t_after) = self.process_candidate(mem, fabric, vm, gfn, t);
            if merged {
                report.merged += 1;
            }
            t = t_after;
            self.cursor += 1;
            if self.cursor == self.hints.len() {
                self.cursor = 0;
                self.unstable.clear();
                self.stats.passes += 1;
                report.pass_completed = true;
            }
        }
        report.finished_at = t;
        report.os_cycles = self.stats.os_cycles - os_before;
        report
    }

    /// Scans batches of `pages_to_scan` (at least one page each) from
    /// cycle `now` until one completes a pass over the hint list, and
    /// returns the pages merged and the cycle the pass finished at. An
    /// empty hint list is an empty pass.
    pub fn run_pass(
        &mut self,
        mem: &mut HostMemory,
        fabric: &mut impl MemoryFabric,
        now: Cycle,
    ) -> (u64, Cycle) {
        let (mut merged, mut t) = (0, now);
        while !self.hints.is_empty() {
            let r = self.scan_batch(mem, fabric, t, self.cfg.pages_to_scan.max(1));
            merged += r.merged;
            t = r.finished_at;
            if r.pass_completed {
                break;
            }
        }
        (merged, t)
    }

    /// Runs passes from cycle 0 until [`steady_state`] or `max_passes`;
    /// returns the passes run.
    pub fn run_to_steady_state(
        &mut self,
        mem: &mut HostMemory,
        fabric: &mut impl MemoryFabric,
        max_passes: usize,
    ) -> usize {
        let mut t = 0;
        steady_state(max_passes, || {
            let (merged, finished_at) = self.run_pass(mem, fabric, t);
            t = finished_at;
            merged
        })
    }

    /// One candidate through the full §3.4 flow. Returns (merged, time).
    fn process_candidate(
        &mut self,
        mem: &mut HostMemory,
        fabric: &mut impl MemoryFabric,
        vm: VmId,
        gfn: Gfn,
        now: Cycle,
    ) -> (bool, Cycle) {
        self.stats.candidates += 1;
        let Some((ppn, cow)) = mem.translate_cow(vm, gfn) else {
            self.stats.unmapped += 1;
            return (false, now);
        };
        if cow {
            self.stats.already_shared += 1;
            return (false, now);
        }
        let started = now;

        // --- Stable tree search (hardware) --------------------------------
        let (stable_result, mut t) = match self.hw_search(TreeKind::Stable, mem, fabric, ppn, now) {
            HwOutcome::Done(result, t) => (result, t),
            HwOutcome::Degrade(t) => return self.software_candidate(mem, vm, gfn, ppn, started, t),
        };
        if let HwSearch::Found(hit) = stable_result {
            let target = *self.stable.node(hit);
            if mem.merge_into(target.ppn, ppn).is_ok() {
                self.stats.merged_stable += 1;
                self.stats.candidate_cycles.push((t - started) as f64);
                return (true, t);
            }
        }
        let stable_insert_point = match stable_result {
            HwSearch::NotFound(point) => point,
            HwSearch::Found(_) => None, // merge raced; re-derive on promotion
        };

        // --- Hash key decision (key came for free from the hardware) ------
        // `hw_search` always armed the PFE with this candidate, so the key
        // (if ready) belongs to it.
        let mut info = self.engine.pfe_info();
        if info.hash.is_none() {
            // The search ended before the key completed (no batch had L
            // set): one empty last-refill run forces the remaining fetches.
            self.engine.clear_others();
            self.engine.update_pfe(true, INVALID_INDEX);
            match self.engine.run_batch(mem, fabric, t) {
                Ok(run) => t = self.os_wait(run.finished_at),
                Err(_) => {
                    self.stats.engine_errors += 1;
                    trace_event!(t, "driver", "degrade", { reason: 1.0 });
                    return self.software_candidate(mem, vm, gfn, ppn, started, t);
                }
            }
            info = self.engine.pfe_info();
        }
        let Some(new_key) = info.hash else {
            // A forced last-refill run always completes the key; reaching
            // here means the engine misbehaved under faults. Degrade.
            return self.software_candidate(mem, vm, gfn, ppn, started, t);
        };
        // An adversarially colliding key forces the "unchanged" verdict
        // even when the previous key differs — §3.3's worst case. The
        // subsequent full comparison must keep it safe.
        let collide = self
            .engine
            .fault_injector_mut()
            .is_some_and(|f| f.collide_key(t));
        let prev = self.prev_key.insert((vm, gfn), new_key);
        if prev == Some(new_key) || (collide && prev.is_some()) {
            self.stats.key_matches += 1;
        } else {
            self.stats.key_mismatches += 1;
            self.stats.dropped_changed += 1;
            self.stats.candidate_cycles.push((t - started) as f64);
            return (false, t);
        }

        // --- Unstable tree search (hardware) -------------------------------
        let (unstable_result, t2) = match self.hw_search(TreeKind::Unstable, mem, fabric, ppn, t) {
            HwOutcome::Done(result, t2) => (result, t2),
            HwOutcome::Degrade(t2) => {
                return self.software_candidate(mem, vm, gfn, ppn, started, t2)
            }
        };
        t = t2;
        let merged = match unstable_result {
            HwSearch::Found(hit) => {
                let target = *self.unstable.node(hit);
                match mem.merge_into(target.ppn, ppn) {
                    Ok(()) => {
                        self.unstable.remove(hit);
                        // The epoch exists whenever the merge succeeded;
                        // if the frame somehow vanished, skip the stable
                        // promotion rather than panic.
                        if let Some(epoch) = mem.frame_epoch(target.ppn) {
                            let stable_ref = PageRef {
                                ppn: target.ppn,
                                epoch,
                                vm: target.vm,
                                gfn: target.gfn,
                            };
                            self.promote_to_stable(mem, stable_insert_point, stable_ref);
                        }
                        self.stats.merged_unstable += 1;
                        true
                    }
                    Err(_) => {
                        self.stats.dropped_changed += 1;
                        false
                    }
                }
            }
            HwSearch::NotFound(point) => {
                // Translated above; a `None` here means the mapping raced
                // away mid-candidate — skip the insert instead of panicking.
                match PageRef::capture(mem, vm, gfn) {
                    Some(me) => {
                        match point {
                            Some((parent, side)) => {
                                self.unstable.insert_at(Some(parent), side, me);
                            }
                            None => {
                                self.unstable.insert_at(None, Side::Left, me);
                            }
                        }
                        self.stats.inserted_unstable += 1;
                    }
                    None => self.stats.unmapped += 1,
                }
                false
            }
        };
        self.stats.candidate_cycles.push((t - started) as f64);
        (merged, t)
    }

    /// Degraded-mode path: finishes one candidate with KSM's own
    /// [`candidate_step`], bypassing the PageForge engine, and prices its
    /// work into `os_cycles`.
    ///
    /// Reached when the engine stalls past the retry budget, reports an
    /// error, or fails a cross-check. The change check is the same pure
    /// ECC key function the hardware computes, and both paths walk the
    /// same trees in content order, so merge *decisions* are identical to
    /// the hardware path: degradation costs cycles, never correctness.
    fn software_candidate(
        &mut self,
        mem: &mut HostMemory,
        vm: VmId,
        gfn: Gfn,
        ppn: Ppn,
        started: Cycle,
        now: Cycle,
    ) -> (bool, Cycle) {
        self.stats.degraded_candidates += 1;
        trace_event!(now, "driver", "software_fallback", {});
        let mut work = KsmWork::new();
        work.candidates += 1;
        let ecc = &self.cfg.engine.ecc;
        let trees = (&mut self.stable, &mut self.unstable);
        let outcome = candidate_step(trees, mem, (vm, gfn, ppn), &mut work, |_, data, work| {
            let key = ecc.page_key(data);
            work.hash_ops += 1;
            work.hash_bytes += (ecc.offsets().len() * 64) as u64;
            let unchanged = self.prev_key.insert((vm, gfn), key) == Some(key);
            if unchanged {
                self.stats.key_matches += 1;
            } else {
                self.stats.key_mismatches += 1;
            }
            !unchanged
        });
        let s = &mut self.stats;
        *match outcome {
            // The step never merges into a zero anchor.
            CandidateOutcome::MergedStable | CandidateOutcome::MergedZero => &mut s.merged_stable,
            CandidateOutcome::MergedUnstable => &mut s.merged_unstable,
            CandidateOutcome::InsertedUnstable => &mut s.inserted_unstable,
            CandidateOutcome::Dropped => &mut s.dropped_changed,
            CandidateOutcome::AlreadyShared => &mut s.already_shared,
            CandidateOutcome::Unmapped => &mut s.unmapped,
        } += 1;
        let cycles = CostModel::default().price(&work).total();
        s.os_cycles += cycles;
        let t = now + cycles;
        s.candidate_cycles.push((t - started) as f64);
        (outcome.merged(), t)
    }

    /// Inserts a freshly merged page into the stable tree, preferring the
    /// insertion point the earlier hardware search discovered.
    fn promote_to_stable(
        &mut self,
        mem: &HostMemory,
        point: Option<(NodeId, Side)>,
        stable_ref: PageRef,
    ) {
        match point {
            Some((parent, side)) => {
                self.stable.insert_at(Some(parent), side, stable_ref);
            }
            None if self.stable.is_empty() => {
                self.stable.insert_at(None, Side::Left, stable_ref);
            }
            None => {
                // No hint (raced stable-tree hit): fall back to a software
                // walk. Rare; accounted as OS work, not hardware work. If
                // the frame vanished (impossible after a successful merge),
                // drop the promotion rather than panic.
                let Some(data) = mem.frame_data(stable_ref.ppn).cloned() else {
                    return;
                };
                let mut scratch = KsmWork::new();
                self.stable.insert(mem, &data, stable_ref, &mut scratch);
            }
        }
    }

    /// Drives the hardware through one tree: load BFS slices, trigger,
    /// poll, refill into the descended subtree until resolution.
    ///
    /// Always leaves the engine's PFE armed with this candidate (so the
    /// caller can read or force the hash key), even when the tree is empty.
    /// Degrades (instead of panicking) when the engine stalls past the
    /// retry budget, errors, or reports a result that fails the driver's
    /// cross-checks.
    fn hw_search(
        &mut self,
        which: TreeKind,
        mem: &HostMemory,
        fabric: &mut impl MemoryFabric,
        cand_ppn: Ppn,
        now: Cycle,
    ) -> HwOutcome {
        // Lend the driver's scratch buffers to the search loop so refills
        // reuse their capacity instead of allocating per refill.
        let mut slice = std::mem::take(&mut self.scratch_slice);
        let mut stale = std::mem::take(&mut self.scratch_stale);
        let out = self.hw_search_with(which, mem, fabric, cand_ppn, now, &mut slice, &mut stale);
        self.scratch_slice = slice;
        self.scratch_stale = stale;
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn hw_search_with(
        &mut self,
        which: TreeKind,
        mem: &HostMemory,
        fabric: &mut impl MemoryFabric,
        cand_ppn: Ppn,
        now: Cycle,
        slice: &mut Vec<NodeId>,
        stale: &mut Vec<NodeId>,
    ) -> HwOutcome {
        let capacity = self.engine.table().capacity();
        let mut t = now;
        let mut first_batch = true;
        // (node, side) the search last walked off at; None = start at root.
        let mut continue_from: Option<(NodeId, Side)> = None;

        'search: loop {
            let tree = match which {
                TreeKind::Stable => &mut self.stable,
                TreeKind::Unstable => &mut self.unstable,
            };
            let subtree_root = match continue_from {
                None => tree.raw().root(),
                Some((node, side)) => match side {
                    Side::Left => tree.raw().left(node),
                    Side::Right => tree.raw().right(node),
                },
            };
            let Some(start_node) = subtree_root else {
                if first_batch {
                    // Empty tree: arm the candidate anyway so the PFE (and
                    // later the hash key) belongs to it.
                    self.engine.clear_others();
                    self.engine.insert_pfe(cand_ppn, false, INVALID_INDEX);
                }
                return HwOutcome::Done(HwSearch::NotFound(continue_from), t);
            };

            // Collect a breadth-first slice, pruning stale nodes.
            tree.raw().bfs_from_into(start_node, capacity, slice);
            stale.clear();
            stale.extend(
                slice
                    .iter()
                    .copied()
                    .filter(|&id| !tree.node_is_valid(mem, tree.node(id))),
            );
            if !stale.is_empty() {
                for &id in stale.iter() {
                    tree.prune(id);
                }
                // Pruning may rotate ancestors; restart from the root.
                continue_from = None;
                first_batch = true;
                continue 'search;
            }

            // Load the Scan Table straight from the slice. If the whole
            // subtree fits, no further refill can be needed, so this is
            // the last one: set L so the key completes.
            self.engine.clear_others();
            let last_refill = slice_links(tree, slice, capacity, |i, id, less, more| {
                self.engine
                    .insert_ppn(i as u8, tree.node(id).ppn, less, more);
            });
            if first_batch {
                self.engine.insert_pfe(cand_ppn, last_refill, 0);
                first_batch = false;
            } else {
                self.engine.update_pfe(last_refill, 0);
            }
            self.stats.refills += 1;
            self.stats.os_cycles += OS_REFILL_CYCLES;
            trace_event!(t, "driver", "refill", {
                entries: slice.len() as f64,
                last_refill: if last_refill { 1.0 } else { 0.0 },
            });

            // Engine unavailable (stall window)? Retry with exponential
            // backoff — fully deterministic in cycles — then degrade.
            let mut retries = 0u32;
            while self.engine.stalled(t) {
                if retries >= MAX_ENGINE_RETRIES {
                    trace_event!(t, "driver", "degrade", {
                        reason: 0.0, // stall outlasted the retry budget
                        retries: retries as f64,
                    });
                    return HwOutcome::Degrade(t);
                }
                self.stats.stall_retries += 1;
                let backoff = RETRY_BACKOFF_CYCLES << retries.min(20);
                trace_event!(t, "driver", "stall_retry", {
                    retry: retries as f64,
                    backoff: backoff as f64,
                });
                t = self.os_wait(t + backoff);
                retries += 1;
            }

            // Trigger and poll.
            let run = match self.engine.run_batch(mem, fabric, t) {
                Ok(run) => run,
                Err(_) => {
                    self.stats.engine_errors += 1;
                    trace_event!(t, "driver", "degrade", {
                        reason: 1.0, // engine error (corrupted PPN / walk cycle)
                    });
                    return HwOutcome::Degrade(t);
                }
            };
            t = self.os_wait(run.finished_at);
            let info = self.engine.pfe_info();
            debug_assert!(info.scanned);
            if info.duplicate {
                let idx = info.ptr as usize;
                // Cross-check: the matched table entry must still name the
                // same frame as the tree node loaded there. A mismatch
                // means the Scan Table was corrupted after the refill, so
                // the duplicate report is untrusted.
                let table_ppn = self.engine.table().other(info.ptr).map(|o| o.ppn);
                let hit = slice.get(idx).map(|&id| {
                    let ppn = match which {
                        TreeKind::Stable => self.stable.node(id).ppn,
                        TreeKind::Unstable => self.unstable.node(id).ppn,
                    };
                    (id, ppn)
                });
                match hit {
                    Some((id, tree_ppn)) if table_ppn == Some(tree_ppn) => {
                        return HwOutcome::Done(HwSearch::Found(id), t);
                    }
                    _ => {
                        self.stats.cross_check_skips += 1;
                        trace_event!(t, "driver", "degrade", {
                            reason: 3.0, // cross-check rejected the hw report
                        });
                        return HwOutcome::Degrade(t);
                    }
                }
            }
            // A non-empty batch without a duplicate always parks Ptr on an
            // encoded continuation — unless a corrupted pointer walked off
            // the encoding entirely, in which case the result is untrusted.
            let Some((entry, side)) = decode_invalid(info.ptr, capacity) else {
                self.stats.cross_check_skips += 1;
                trace_event!(t, "driver", "degrade", { reason: 3.0 });
                return HwOutcome::Degrade(t);
            };
            let Some(&next) = slice.get(entry) else {
                self.stats.cross_check_skips += 1;
                trace_event!(t, "driver", "degrade", { reason: 3.0 });
                return HwOutcome::Degrade(t);
            };
            continue_from = Some((next, side));
            // Loop: the child may be loaded next, or be absent (NotFound).
        }
    }

    fn os_wait(&mut self, finished_at: Cycle) -> Cycle {
        // The OS discovers completion at the next polling boundary.
        self.stats.os_cycles += OS_CHECK_CYCLES;
        finished_at.div_ceil(OS_CHECK_INTERVAL) * OS_CHECK_INTERVAL
    }
}

/// Encoded-invalid helpers: `capacity + 2·entry + side`.
fn encode_invalid(entry: usize, side: Side, capacity: usize) -> u8 {
    let code = capacity + 2 * entry + usize::from(side == Side::Right);
    debug_assert!(code < INVALID_INDEX as usize, "table too large to encode");
    code as u8
}

fn decode_invalid(ptr: u8, capacity: usize) -> Option<(usize, Side)> {
    if ptr == INVALID_INDEX || (ptr as usize) < capacity {
        return None;
    }
    let off = ptr as usize - capacity;
    let side = if off.is_multiple_of(2) {
        Side::Left
    } else {
        Side::Right
    };
    Some((off / 2, side))
}

/// Hands `load(index, node, less, more)` the Scan Table entry of every
/// node of a breadth-first `slice` from [`RbTree::bfs_from_into`], in one
/// pass, and returns whether the slice holds the node's whole subtree.
///
/// `bfs_from_into` appends children left then right in visit order and
/// stops at the table's capacity, so the k-th child met while walking the
/// slice sits at index k (the start node is index 0). A child that would
/// land at or past the slice's end was cut off, which is exactly when the
/// subtree does not fit. Unloaded and absent children get the encoded
/// continuation of their parent's entry.
///
/// [`RbTree::bfs_from_into`]: pageforge_ksm::rbtree::RbTree::bfs_from_into
fn slice_links(
    tree: &PageTree,
    slice: &[NodeId],
    capacity: usize,
    mut load: impl FnMut(usize, NodeId, u8, u8),
) -> bool {
    let mut next = 1;
    let mut fits = !slice.is_empty();
    for (i, &id) in slice.iter().enumerate() {
        let mut link = |child: Option<NodeId>, side| {
            if child.is_some() {
                if next < slice.len() {
                    next += 1;
                    return (next - 1) as u8;
                }
                fits = false;
            }
            encode_invalid(i, side, capacity)
        };
        let less = link(tree.raw().left(id), Side::Left);
        let more = link(tree.raw().right(id), Side::Right);
        load(i, id, less, more);
    }
    fits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FlatFabric;
    use pageforge_types::PageData;

    fn page(b: u8) -> PageData {
        PageData::from_fn(|i| b.wrapping_mul(17).wrapping_add((i % 11) as u8))
    }

    fn identical_vms(n: u32, b: u8) -> (HostMemory, Vec<(VmId, Gfn)>) {
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for v in 0..n {
            mem.map_new_page(VmId(v), Gfn(0), page(b));
            hints.push((VmId(v), Gfn(0)));
        }
        (mem, hints)
    }

    fn fabric() -> FlatFabric {
        FlatFabric::all_dram(80)
    }

    #[test]
    fn merges_identical_pages_like_ksm() {
        let (mut mem, hints) = identical_vms(4, 1);
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.run_to_steady_state(&mut mem, &mut f, 8);
        assert_eq!(mem.allocated_frames(), 1);
        assert_eq!(pf.stats().merged_unstable, 1);
        assert_eq!(pf.stats().merged_stable, 2);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn first_pass_records_keys_only() {
        let (mut mem, hints) = identical_vms(3, 2);
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        let r = pf.scan_batch(&mut mem, &mut f, 0, 3);
        assert_eq!(r.merged, 0);
        assert_eq!(pf.stats().key_mismatches, 3, "first sighting is a mismatch");
        assert_eq!(mem.allocated_frames(), 3);
    }

    #[test]
    fn distinct_pages_never_merge() {
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for v in 0..6u32 {
            mem.map_new_page(VmId(v), Gfn(0), page(v as u8));
            hints.push((VmId(v), Gfn(0)));
        }
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.run_to_steady_state(&mut mem, &mut f, 6);
        assert_eq!(mem.allocated_frames(), 6);
        assert_eq!(pf.stats().merged_stable + pf.stats().merged_unstable, 0);
    }

    #[test]
    fn mixed_contents_reach_content_optimal_state() {
        // 12 pages, 4 distinct contents → 4 frames at steady state.
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for i in 0..12u32 {
            mem.map_new_page(VmId(i), Gfn(0), page((i % 4) as u8));
            hints.push((VmId(i), Gfn(0)));
        }
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.run_to_steady_state(&mut mem, &mut f, 10);
        assert_eq!(mem.allocated_frames(), 4);
        mem.check_invariants().unwrap();
        pf.check_conservation().unwrap();
        // A candidate with no outcome breaks the law.
        pf.stats.candidates += 1;
        let violation = pf.check_conservation().unwrap_err();
        assert!(violation.contains("candidates, "), "{violation}");
    }

    #[test]
    fn changed_page_is_dropped() {
        let (mut mem, hints) = identical_vms(2, 5);
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.scan_batch(&mut mem, &mut f, 0, 2);
        // Mutate one of the ECC-sampled lines so the key changes.
        let off = PageForgeConfig::default().engine.ecc.offsets()[0] * 64;
        mem.guest_write(VmId(0), Gfn(0), off, &[0xEE]);
        let r = pf.scan_batch(&mut mem, &mut f, 1_000_000, 2);
        assert_eq!(r.merged, 0);
        assert!(pf.stats().dropped_changed >= 1);
    }

    #[test]
    fn key_false_positive_merges_anyway_safely() {
        // A change the ECC key cannot see (unsampled line): the key matches
        // (false positive), the unstable search runs — and the exhaustive
        // comparison correctly keeps the pages apart.
        let (mut mem, hints) = identical_vms(2, 7);
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.scan_batch(&mut mem, &mut f, 0, 2);
        // Line 0 is not sampled by the default config (offsets 3,19,35,51).
        mem.guest_write(VmId(0), Gfn(0), 1, &[0x55]);
        pf.scan_batch(&mut mem, &mut f, 1_000_000, 2);
        assert_eq!(
            mem.allocated_frames(),
            2,
            "false-positive keys never cause bad merges"
        );
        assert!(pf.stats().key_matches >= 1);
        mem.check_invariants().unwrap();
    }

    /// The loader [`slice_links`] replaced, kept as its oracle: a position
    /// scan of the slice for every link.
    fn child_index(
        tree: &PageTree,
        slice: &[NodeId],
        id: NodeId,
        side: Side,
        capacity: usize,
        my_index: usize,
    ) -> u8 {
        let child = match side {
            Side::Left => tree.raw().left(id),
            Side::Right => tree.raw().right(id),
        };
        match child.and_then(|c| slice.iter().position(|&n| n == c)) {
            Some(i) => i as u8,
            None => encode_invalid(my_index, side, capacity),
        }
    }

    /// The last-refill probe [`slice_links`] replaced, kept as its oracle:
    /// `true` iff the subtree rooted at `start` has exactly `budget`
    /// nodes, walking at most `budget + 1` of them.
    fn subtree_fits(tree: &PageTree, start: NodeId, budget: usize) -> bool {
        let mut count = 0usize;
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            count += 1;
            if count > budget {
                return false;
            }
            if let Some(l) = tree.raw().left(n) {
                stack.push(l);
            }
            if let Some(r) = tree.raw().right(n) {
                stack.push(r);
            }
        }
        count == budget
    }

    /// Exhaustive subtree size: the oracle for [`subtree_fits`].
    fn count_subtree(tree: &PageTree, start: NodeId) -> usize {
        let mut count = 0;
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            count += 1;
            if let Some(l) = tree.raw().left(n) {
                stack.push(l);
            }
            if let Some(r) = tree.raw().right(n) {
                stack.push(r);
            }
        }
        count
    }

    /// The one-pass loader against the position-scan loader and the
    /// last-refill probe it replaced, and both probes against the
    /// exhaustive subtree size: every node of random trees as the start,
    /// capacities 1–32.
    #[test]
    fn subtree_fits_matches_exhaustive_count() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut exact_fits = 0;
        let mut slice = Vec::new();
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // A random shape: each insert descends by coin flips to a free
            // slot (red-black fixup then rebalances), and some nodes are
            // removed again so deletion fixups shape the tree too.
            let mut tree = PageTree::new(TreeKind::Unstable);
            for i in 0..rng.gen_range(0usize..48) {
                let me = PageRef {
                    ppn: Ppn(i as u64),
                    epoch: 0,
                    vm: VmId(0),
                    gfn: Gfn(i as u64),
                };
                let mut parent = None;
                let mut side = Side::Left;
                let mut cur = tree.raw().root();
                while let Some(id) = cur {
                    parent = Some(id);
                    side = if rng.gen_bool(0.5) {
                        Side::Left
                    } else {
                        Side::Right
                    };
                    cur = match side {
                        Side::Left => tree.raw().left(id),
                        Side::Right => tree.raw().right(id),
                    };
                }
                tree.insert_at(parent, side, me);
                if rng.gen_range(0u32..4) == 0 {
                    let ids = tree.raw().bfs_from(tree.raw().root().unwrap(), tree.len());
                    tree.remove(ids[rng.gen_range(0usize..ids.len())]);
                }
            }
            let size = tree.len();
            let nodes = match tree.raw().root() {
                Some(root) => tree.raw().bfs_from(root, size),
                None => Vec::new(),
            };
            assert_eq!(nodes.len(), size);
            for &n in &nodes {
                let exact = count_subtree(&tree, n);
                for k in 0..=size + 2 {
                    assert_eq!(
                        subtree_fits(&tree, n, k),
                        exact == k,
                        "seed {seed}: node {n:?} has {exact} nodes, budget {k}"
                    );
                }
                for capacity in 1..=32 {
                    tree.raw().bfs_from_into(n, capacity, &mut slice);
                    let mut loaded = Vec::new();
                    let fits = slice_links(&tree, &slice, capacity, |i, id, less, more| {
                        loaded.push((i, id, less, more));
                    });
                    let expected: Vec<_> = slice
                        .iter()
                        .enumerate()
                        .map(|(i, &id)| {
                            let less = child_index(&tree, &slice, id, Side::Left, capacity, i);
                            let more = child_index(&tree, &slice, id, Side::Right, capacity, i);
                            (i, id, less, more)
                        })
                        .collect();
                    let at = format!("seed {seed}: start {n:?}, capacity {capacity}");
                    assert_eq!(loaded, expected, "{at}");
                    assert_eq!(fits, subtree_fits(&tree, n, slice.len()), "{at}");
                    assert_eq!(fits, exact <= capacity, "{at}");
                    exact_fits += usize::from(exact == capacity);
                }
            }
        }
        assert!(exact_fits > 100, "only {exact_fits} subtrees fit exactly");
    }

    #[test]
    fn large_tree_needs_refills() {
        // 80 distinct pages: the 31-entry table cannot hold the whole
        // unstable tree, so searches must refill.
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for i in 0..80u32 {
            mem.map_new_page(VmId(0), Gfn(i as u64), page(i as u8));
            hints.push((VmId(0), Gfn(i as u64)));
        }
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.scan_batch(&mut mem, &mut f, 0, 80); // pass 1
        pf.scan_batch(&mut mem, &mut f, 1 << 30, 80); // pass 2 builds big tree
        assert!(
            pf.stats().refills as usize > pf.stats().candidates as usize / 2,
            "refills {} candidates {}",
            pf.stats().refills,
            pf.stats().candidates
        );
        assert_eq!(mem.allocated_frames(), 80);
    }

    #[test]
    fn interval_advances_time_and_charges_os() {
        let (mut mem, hints) = identical_vms(4, 3);
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        let r = pf.scan_interval(&mut mem, &mut f, 0);
        assert!(r.finished_at > 0);
        assert!(r.os_cycles > 0);
        // OS cycles are tiny relative to elapsed time (that's the point).
        assert!(r.os_cycles < r.finished_at / 10);
    }

    #[test]
    fn engine_cycle_stats_populated() {
        let (mut mem, hints) = identical_vms(6, 4);
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.run_to_steady_state(&mut mem, &mut f, 6);
        let stats = pf.engine_stats();
        assert!(stats.runs > 0);
        assert!(stats.run_cycles.mean() > 0.0);
        assert!(stats.lines_from_dram > 0);
    }

    #[test]
    fn cow_break_then_remerge() {
        let (mut mem, hints) = identical_vms(3, 9);
        let mut pf = PageForge::new(PageForgeConfig::default(), hints);
        let mut f = fabric();
        pf.run_to_steady_state(&mut mem, &mut f, 6);
        assert_eq!(mem.allocated_frames(), 1);
        let original = mem.guest_read(VmId(2), Gfn(0)).unwrap().as_bytes()[0];
        mem.guest_write(VmId(2), Gfn(0), 0, &[original ^ 1]);
        assert_eq!(mem.allocated_frames(), 2);
        mem.guest_write(VmId(2), Gfn(0), 0, &[original]);
        pf.run_to_steady_state(&mut mem, &mut f, 8);
        assert_eq!(mem.allocated_frames(), 1);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn empty_hints_are_a_noop() {
        let mut mem = HostMemory::new();
        let mut pf = PageForge::new(PageForgeConfig::default(), vec![]);
        let mut f = fabric();
        let r = pf.scan_interval(&mut mem, &mut f, 5);
        assert_eq!(r.finished_at, 5);
        assert_eq!(r.merged, 0);
        assert_eq!(pf.run_pass(&mut mem, &mut f, 5), (0, 5), "an empty pass");
        assert_eq!(pf.run_to_steady_state(&mut mem, &mut f, 8), 2);
    }

    #[test]
    fn zero_pages_to_scan_still_completes_passes() {
        let (mut mem, hints) = identical_vms(3, 6);
        let cfg = PageForgeConfig {
            pages_to_scan: 0,
            ..PageForgeConfig::default()
        };
        let mut pf = PageForge::new(cfg, hints);
        let mut f = fabric();
        assert_eq!(pf.run_to_steady_state(&mut mem, &mut f, 8), 3);
        assert_eq!(mem.allocated_frames(), 1);
        assert_eq!(pf.stats().passes, 3);
    }

    #[test]
    fn decode_encode_round_trip() {
        for cap in [4usize, 31] {
            for entry in 0..cap.min(20) {
                for side in [Side::Left, Side::Right] {
                    let code = encode_invalid(entry, side, cap);
                    assert_eq!(decode_invalid(code, cap), Some((entry, side)));
                }
            }
            assert_eq!(decode_invalid(INVALID_INDEX, cap), None);
            assert_eq!(decode_invalid(0, cap), None);
        }
    }
}
