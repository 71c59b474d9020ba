//! RedHat's Kernel Same-page Merging, Algorithm 1 of the paper.
//!
//! The daemon runs in *passes* over the `madvise(MADV_MERGEABLE)` hint list.
//! For each candidate page it:
//!
//! 1. searches the **stable tree** (merged, CoW-protected pages) and merges
//!    on a hit;
//! 2. otherwise computes the page's jhash checksum and compares it with the
//!    previous pass's value — a changed page is dropped for this pass;
//! 3. otherwise searches the **unstable tree**: on a hit the two pages are
//!    merged, CoW-protected, and promoted to the stable tree; on a miss the
//!    candidate is inserted into the unstable tree.
//!
//! Steps 1–3 are [`candidate_step`], which PageForge's degraded path runs
//! too, with its ECC page key as the change check. At the end of each
//! pass the unstable tree is discarded ("throw away and regenerate").
//! Work is metered in [`KsmWork`] units and priced by a [`CostModel`] so
//! the simulator can charge the daemon to a core, and an optional
//! *shadow* ECC key (PageForge's §3.3 scheme) is evaluated at every
//! checksum decision to produce the Figure 8 comparison.

use std::collections::BTreeMap;

use pageforge_ecc::{EccHashKey, EccKeyConfig};
use pageforge_obs::trace_event;
use pageforge_obs::Registry;
use pageforge_types::{Gfn, PageData, Ppn, VmId, LINES_PER_PAGE, PAGE_SIZE};
use pageforge_vm::{DigestCache, HostMemory};

use crate::cost::{CostModel, KsmCycles, KsmWork};
use crate::jhash::{page_checksum, KSM_HASH_BYTES};
use crate::tree::{PageRef, PageTree, SearchInsert, TreeKind};

/// KSM tuning knobs (§2.1; values from Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct KsmConfig {
    /// Pages scanned per work interval (`pages_to_scan`, default 400).
    pub pages_to_scan: usize,
    /// Sleep between work intervals in milliseconds (`sleep_millisecs`,
    /// default 5). Consumed by the simulator's scheduler, not here.
    pub sleep_millisecs: u64,
    /// When set, an ECC hash key is computed alongside every jhash
    /// checksum check so the two schemes can be compared (Figure 8). The
    /// shadow adds no cycles to the KSM cost — it models what the PageForge
    /// hardware would have produced for free.
    pub shadow_ecc: Option<EccKeyConfig>,
    /// Linux's `use_zero_pages` knob: empty pages merge directly with the
    /// kernel zero page, skipping both tree searches. (The first all-zero
    /// candidate becomes the anchor frame.)
    pub use_zero_pages: bool,
    /// §4.3's alternative design: issue the daemon's page reads as
    /// *uncacheable* accesses. Cache pollution disappears, but the CPU
    /// cycles remain and every scanned line pays full memory latency
    /// (plus MSHR pressure, which the paper notes and the simulator
    /// charges as uncached-read stalls).
    pub cache_bypass: bool,
    /// Host-side digest memoization: reuse a candidate's jhash checksum
    /// (and shadow ECC key) while the frame's `(epoch, version)` stamp is
    /// unchanged. Modeled work (`hash_ops`, `hash_bytes`, cache touches)
    /// is charged identically either way, so every simulated result is
    /// byte-identical with this on or off — off exists as the
    /// determinism cross-check and recovers pre-cache wall-time.
    pub digest_cache: bool,
}

impl Default for KsmConfig {
    fn default() -> Self {
        KsmConfig {
            pages_to_scan: 400,
            sleep_millisecs: 5,
            shadow_ecc: None,
            use_zero_pages: false,
            cache_bypass: false,
            digest_cache: true,
        }
    }
}

/// Why a candidate page did not merge (or how it did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// Merged with a stable-tree page.
    MergedStable,
    /// All-zero page merged straight into the zero anchor
    /// (`use_zero_pages`).
    MergedZero,
    /// Merged with an unstable-tree page (and promoted to stable).
    MergedUnstable,
    /// Inserted into the unstable tree.
    InsertedUnstable,
    /// Checksum changed since the last pass: dropped.
    Dropped,
    /// Already a merged (CoW) page: skipped.
    AlreadyShared,
    /// The guest page is no longer mapped: skipped.
    Unmapped,
}

impl CandidateOutcome {
    /// Whether the candidate merged (into a stable page, an unstable
    /// match or the zero anchor).
    pub fn merged(self) -> bool {
        matches!(
            self,
            CandidateOutcome::MergedStable
                | CandidateOutcome::MergedUnstable
                | CandidateOutcome::MergedZero
        )
    }
}

/// Cumulative KSM statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KsmStats {
    /// Completed passes over the hint list.
    pub passes: u64,
    /// Candidate pages processed.
    pub candidates: u64,
    /// Merges into the stable tree.
    pub merged_stable: u64,
    /// Zero pages merged via the `use_zero_pages` shortcut.
    pub merged_zero: u64,
    /// Merges via the unstable tree.
    pub merged_unstable: u64,
    /// Insertions into the unstable tree.
    pub inserted_unstable: u64,
    /// Candidates dropped because their checksum changed.
    pub dropped_changed: u64,
    /// Candidates skipped because they were already merged.
    pub already_shared: u64,
    /// Candidates skipped because the mapping vanished.
    pub unmapped: u64,
    /// jhash checksum comparisons that matched (page deemed unchanged).
    pub jhash_matches: u64,
    /// jhash checksum comparisons that mismatched.
    pub jhash_mismatches: u64,
    /// Shadow ECC key comparisons that matched.
    pub ecc_matches: u64,
    /// Shadow ECC key comparisons that mismatched.
    pub ecc_mismatches: u64,
    /// Cumulative work counters.
    pub work: KsmWork,
    /// Cumulative priced cycles.
    pub cycles: KsmCycles,
}

impl KsmStats {
    /// Counts `outcome` under its counter and returns it.
    fn count(&mut self, outcome: CandidateOutcome) -> CandidateOutcome {
        *match outcome {
            CandidateOutcome::MergedStable => &mut self.merged_stable,
            CandidateOutcome::MergedZero => &mut self.merged_zero,
            CandidateOutcome::MergedUnstable => &mut self.merged_unstable,
            CandidateOutcome::InsertedUnstable => &mut self.inserted_unstable,
            CandidateOutcome::Dropped => &mut self.dropped_changed,
            CandidateOutcome::AlreadyShared => &mut self.already_shared,
            CandidateOutcome::Unmapped => &mut self.unmapped,
        } += 1;
        outcome
    }
}

/// Report for one `scan_batch` call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Work performed in this batch.
    pub work: KsmWork,
    /// Cycles this batch costs on a core.
    pub cycles: KsmCycles,
    /// Pages merged in this batch.
    pub merged: u64,
    /// Whether a pass boundary (unstable-tree reset) occurred.
    pub pass_completed: bool,
}

/// The KSM daemon state.
#[derive(Debug, Clone)]
pub struct Ksm {
    cfg: KsmConfig,
    stable: PageTree,
    unstable: PageTree,
    hints: Vec<(VmId, Gfn)>,
    cursor: usize,
    /// The anchor frame all-zero pages merge into (`use_zero_pages`).
    zero_frame: Option<(Ppn, u64)>,
    prev_checksum: BTreeMap<(VmId, Gfn), u32>,
    prev_ecc: BTreeMap<(VmId, Gfn), EccHashKey>,
    /// Host-side memo of `(jhash checksum, shadow ECC key)` per frame,
    /// tagged by the frame's `(epoch, version)` stamp. See
    /// [`KsmConfig::digest_cache`].
    digests: DigestCache<(u32, Option<EccHashKey>)>,
    stats: KsmStats,
}

impl Ksm {
    /// Creates a daemon scanning the given hint list (the pages each VM
    /// registered with `madvise(MADV_MERGEABLE)`).
    pub fn new(cfg: KsmConfig, hints: Vec<(VmId, Gfn)>) -> Self {
        let digests = DigestCache::new(cfg.digest_cache);
        Ksm {
            cfg,
            stable: PageTree::new(TreeKind::Stable),
            unstable: PageTree::new(TreeKind::Unstable),
            hints,
            cursor: 0,
            zero_frame: None,
            prev_checksum: BTreeMap::new(),
            prev_ecc: BTreeMap::new(),
            digests,
            stats: KsmStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KsmConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &KsmStats {
        &self.stats
    }

    /// Audits KSM's three conservation laws and names the first that fails:
    ///
    /// * the candidate law: every candidate ends in exactly one outcome, so
    ///   `candidates` equals `merged_stable + merged_zero + merged_unstable
    ///   + inserted_unstable + dropped_changed + already_shared + unmapped`;
    /// * the hash law: each hash op decides one checksum comparison, so
    ///   `jhash_matches + jhash_mismatches` equals `work.hash_ops`, which
    ///   equals the digest cache's hits plus misses when the cache is on;
    /// * the merge law: this daemon is `mem`'s only merger, so `mem`'s
    ///   merge count equals `merged_stable + merged_unstable + merged_zero`.
    ///
    /// # Errors
    ///
    /// Names the broken law and both of its sides.
    pub fn check_conservation(&self, mem: &HostMemory) -> Result<(), String> {
        let s = &self.stats;
        let merged = s.merged_stable + s.merged_zero + s.merged_unstable;
        let outcomes =
            merged + s.inserted_unstable + s.dropped_changed + s.already_shared + s.unmapped;
        if s.candidates != outcomes {
            return Err(format!(
                "KSM candidate law: {} candidates, {outcomes} outcomes",
                s.candidates
            ));
        }
        let decisions = s.jhash_matches + s.jhash_mismatches;
        let digests = self.digests.stats();
        let lookups = digests.hits + digests.misses;
        if decisions != s.work.hash_ops || (self.cfg.digest_cache && lookups != s.work.hash_ops) {
            return Err(format!(
                "KSM hash law: {decisions} jhash decisions, {} hash ops, {lookups} digest lookups",
                s.work.hash_ops
            ));
        }
        let mem_merges = mem.stats().merges;
        if mem_merges != merged {
            return Err(format!(
                "KSM merge law: {mem_merges} host merges, {merged} KSM merges"
            ));
        }
        Ok(())
    }

    /// Writes the cumulative statistics into `out` under the `ksm.*`
    /// namespace (see OBSERVABILITY.md).
    ///
    /// KSM's stats are richer than plain metrics — [`KsmWork::touched`]
    /// records *which* frames passed through the cache for pollution
    /// modeling — so [`KsmStats`] stays the storage and this is a
    /// one-way projection of the metric-representable part.
    pub fn export_metrics(&self, out: &mut Registry) {
        let s = &self.stats;
        for (name, v) in [
            ("ksm.passes", s.passes),
            ("ksm.candidates", s.candidates),
            ("ksm.merged_stable", s.merged_stable),
            ("ksm.merged_zero", s.merged_zero),
            ("ksm.merged_unstable", s.merged_unstable),
            ("ksm.inserted_unstable", s.inserted_unstable),
            ("ksm.dropped_changed", s.dropped_changed),
            ("ksm.already_shared", s.already_shared),
            ("ksm.unmapped", s.unmapped),
            ("ksm.jhash_matches", s.jhash_matches),
            ("ksm.jhash_mismatches", s.jhash_mismatches),
            ("ksm.ecc_matches", s.ecc_matches),
            ("ksm.ecc_mismatches", s.ecc_mismatches),
            ("ksm.work.comparisons", s.work.comparisons),
            ("ksm.work.cmp_bytes", s.work.cmp_bytes),
            ("ksm.work.hash_ops", s.work.hash_ops),
            ("ksm.work.hash_bytes", s.work.hash_bytes),
            ("ksm.work.tree_ops", s.work.tree_ops),
            ("ksm.work.merges", s.work.merges),
            ("ksm.cycles.compare", s.cycles.compare),
            ("ksm.cycles.hash", s.cycles.hash),
            ("ksm.cycles.other", s.cycles.other),
            ("ksm.digest.hits", self.digests.stats().hits),
            ("ksm.digest.misses", self.digests.stats().misses),
            (
                "ksm.digest.invalidations",
                self.digests.stats().invalidations,
            ),
            ("ksm.stable_tree.rotations", self.stable.rotations()),
            ("ksm.unstable_tree.rotations", self.unstable.rotations()),
        ] {
            out.counter(name, v);
        }
        for (name, v) in [
            ("ksm.stable_tree.size", self.stable.len() as f64),
            ("ksm.stable_tree.depth", self.stable.depth() as f64),
            ("ksm.unstable_tree.size", self.unstable.len() as f64),
            ("ksm.unstable_tree.depth", self.unstable.depth() as f64),
        ] {
            out.gauge(name, v);
        }
    }

    /// The stable tree (merged pages).
    pub fn stable_tree(&self) -> &PageTree {
        &self.stable
    }

    /// The unstable tree (scanned, unmerged pages of the current pass).
    pub fn unstable_tree(&self) -> &PageTree {
        &self.unstable
    }

    /// Number of hint-list entries.
    pub fn hint_count(&self) -> usize {
        self.hints.len()
    }

    /// Scans one work interval of `pages_to_scan` candidates.
    pub fn scan_interval(&mut self, mem: &mut HostMemory) -> BatchReport {
        self.scan_batch(mem, self.cfg.pages_to_scan)
    }

    /// Scans up to `n` candidate pages, wrapping (and resetting the
    /// unstable tree) at pass boundaries.
    ///
    /// # Examples
    ///
    /// ```
    /// use pageforge_ksm::{Ksm, KsmConfig};
    /// use pageforge_types::{Gfn, PageData, VmId};
    /// use pageforge_vm::HostMemory;
    ///
    /// // Three VMs, each with one identical page, all hinted mergeable.
    /// let mut mem = HostMemory::new();
    /// let mut hints = Vec::new();
    /// for v in 0..3 {
    ///     mem.map_new_page(VmId(v), Gfn(0), PageData::from_fn(|_| 42));
    ///     hints.push((VmId(v), Gfn(0)));
    /// }
    /// let mut ksm = Ksm::new(KsmConfig::default(), hints);
    ///
    /// // Pass 1 records checksums; pass 2 merges (Algorithm 1 requires a
    /// // page's checksum to be seen unchanged twice before tree insertion).
    /// ksm.scan_batch(&mut mem, 3);
    /// let report = ksm.scan_batch(&mut mem, 3);
    /// assert_eq!(report.merged, 2, "two pages merged into the first");
    /// assert_eq!(mem.allocated_frames(), 1);
    /// assert!(report.cycles.total() > 0, "work is priced in cycles");
    /// ```
    pub fn scan_batch(&mut self, mem: &mut HostMemory, n: usize) -> BatchReport {
        let mut report = BatchReport::default();
        if self.hints.is_empty() {
            return report;
        }
        let rotations_before = self.stable.rotations() + self.unstable.rotations();
        for _ in 0..n {
            let (vm, gfn) = self.hints[self.cursor];
            let outcome = self.process_candidate(mem, vm, gfn, &mut report.work);
            if outcome.merged() {
                report.merged += 1;
            }
            self.cursor += 1;
            if self.cursor == self.hints.len() {
                // End of pass: throw away and regenerate (Algorithm 1 l.27).
                self.cursor = 0;
                self.unstable.clear();
                self.stats.passes += 1;
                report.pass_completed = true;
                trace_event!(self.stats.cycles.total(), "ksm", "pass", {
                    pass: self.stats.passes as f64,
                    stable_size: self.stable.len() as f64,
                    stable_depth: self.stable.depth() as f64,
                });
            }
        }
        report.cycles = CostModel::default().price(&report.work);
        self.stats.work.absorb(&report.work);
        self.stats.cycles.absorb(report.cycles);
        // Trace stamps are the daemon's own cumulative priced cycles: KSM
        // has no global clock until the simulator schedules it.
        let rotated = self.stable.rotations() + self.unstable.rotations() - rotations_before;
        if rotated > 0 {
            trace_event!(self.stats.cycles.total(), "ksm", "rebalance", {
                rotations: rotated as f64,
                stable_depth: self.stable.depth() as f64,
                unstable_depth: self.unstable.depth() as f64,
            });
        }
        trace_event!(self.stats.cycles.total(), "ksm", "batch", {
            candidates: report.work.candidates as f64,
            merged: report.merged as f64,
            cycles: report.cycles.total() as f64,
        });
        report
    }

    /// Scans batches of `pages_to_scan` (at least one page each) until
    /// one completes a pass over the hint list, and returns the pages
    /// merged. An empty hint list is an empty pass.
    pub fn run_pass(&mut self, mem: &mut HostMemory) -> u64 {
        let mut merged = 0;
        while !self.hints.is_empty() {
            let r = self.scan_batch(mem, self.cfg.pages_to_scan.max(1));
            merged += r.merged;
            if r.pass_completed {
                break;
            }
        }
        merged
    }

    /// Runs passes until [`steady_state`] or `max_passes`; returns the
    /// passes run.
    pub fn run_to_steady_state(&mut self, mem: &mut HostMemory, max_passes: usize) -> usize {
        steady_state(max_passes, || self.run_pass(mem))
    }

    /// Processes one candidate (Algorithm 1 lines 6–24): translation, the
    /// `use_zero_pages` shortcut, then [`candidate_step`] with the jhash
    /// checksum as its change check.
    pub fn process_candidate(
        &mut self,
        mem: &mut HostMemory,
        vm: VmId,
        gfn: Gfn,
        work: &mut KsmWork,
    ) -> CandidateOutcome {
        self.stats.candidates += 1;
        work.candidates += 1;
        let Some((ppn, cow)) = mem.translate_cow(vm, gfn) else {
            return self.stats.count(CandidateOutcome::Unmapped);
        };
        if cow {
            // Already a merged KSM page; not rescanned as a candidate.
            return self.stats.count(CandidateOutcome::AlreadyShared);
        }
        if let Some(outcome) = self.merge_zero(mem, ppn, work) {
            return self.stats.count(outcome);
        }
        let shadow_ecc = self.cfg.shadow_ecc.as_ref();
        let trees = (&mut self.stable, &mut self.unstable);
        let outcome = candidate_step(trees, mem, (vm, gfn, ppn), work, |mem, data, work| {
            // Checksum check (lines 11–12). The digest pair is memoized by
            // the frame's `(epoch, version)` stamp; the modeled hash work is
            // charged unconditionally — a memo hit only skips host-side
            // arithmetic, so simulated cost and results never depend on it.
            let (hash, key) = self.digests.get_or_compute(mem, ppn, || {
                (
                    page_checksum(data),
                    shadow_ecc.map(|ecc_cfg| ecc_cfg.page_key(data)),
                )
            });
            work.hash_ops += 1;
            work.hash_bytes += KSM_HASH_BYTES as u64;
            work.touched.push((ppn, (KSM_HASH_BYTES / 64) as u32));
            let unchanged = self.prev_checksum.insert((vm, gfn), hash) == Some(hash);
            if unchanged {
                self.stats.jhash_matches += 1;
            } else {
                self.stats.jhash_mismatches += 1;
            }
            // Shadow ECC key for the same decision (Figure 8). Costs nothing:
            // the hardware produces it as a by-product of comparison traffic.
            if let Some(key) = key {
                if self.prev_ecc.insert((vm, gfn), key) == Some(key) {
                    self.stats.ecc_matches += 1;
                } else {
                    self.stats.ecc_mismatches += 1;
                }
            }
            !unchanged
        });
        self.stats.count(outcome)
    }

    /// The `use_zero_pages` shortcut: an empty page merges straight into
    /// the zero anchor, or becomes the anchor, skipping both trees. `None`
    /// when the shortcut is off, the page is not empty, or the merge into
    /// the anchor raced.
    fn merge_zero(
        &mut self,
        mem: &mut HostMemory,
        ppn: Ppn,
        work: &mut KsmWork,
    ) -> Option<CandidateOutcome> {
        if !self.cfg.use_zero_pages || !mem.frame_data(ppn).is_some_and(PageData::is_zero) {
            return None;
        }
        // Checking emptiness reads the whole page once.
        work.cmp_bytes += PAGE_SIZE as u64;
        work.touched.push((ppn, LINES_PER_PAGE as u32));
        match self.zero_frame {
            Some((anchor, epoch)) if mem.frame_epoch(anchor) == Some(epoch) => {
                mem.merge_into(anchor, ppn).ok()?;
                work.merges += 1;
                Some(CandidateOutcome::MergedZero)
            }
            _ => {
                // This page becomes the anchor.
                mem.cow_protect(ppn);
                self.zero_frame = mem.frame_epoch(ppn).map(|epoch| (ppn, epoch));
                Some(CandidateOutcome::AlreadyShared)
            }
        }
    }
}

/// Runs `pass` until steady state: the first pass, from the second on,
/// that merges nothing. A page merges only once its checksum has been
/// seen unchanged, which takes two passes, so a quiet first pass proves
/// nothing. Returns the passes run, at most `max_passes`.
pub fn steady_state(max_passes: usize, mut pass: impl FnMut() -> u64) -> usize {
    for n in 1..=max_passes {
        if pass() == 0 && n >= 2 {
            return n;
        }
    }
    max_passes
}

/// KSM's step for one candidate whose page translated to the unshared
/// frame `ppn` (Algorithm 1 lines 7–20), over the `(stable, unstable)`
/// trees:
///
/// 1. search the stable tree and merge on a hit;
/// 2. otherwise drop the candidate if `changed` says its page changed
///    since the last pass;
/// 3. otherwise search the unstable tree: merge with an equal page and
///    promote it to the stable tree, or insert the candidate.
///
/// `changed` is the one decision callers make differently: [`Ksm`]
/// compares jhash checksums, PageForge's degraded path compares ECC page
/// keys. It gets the candidate's data and charges its own hash work to
/// the [`KsmWork`] it is handed. A frame or mapping that vanished ends
/// the candidate as [`CandidateOutcome::Unmapped`]; the step never
/// panics.
pub fn candidate_step(
    (stable, unstable): (&mut PageTree, &mut PageTree),
    mem: &mut HostMemory,
    (vm, gfn, ppn): (VmId, Gfn, Ppn),
    work: &mut KsmWork,
    changed: impl FnOnce(&HostMemory, &PageData, &mut KsmWork) -> bool,
) -> CandidateOutcome {
    let Some(candidate) = mem.frame_data(ppn).cloned() else {
        return CandidateOutcome::Unmapped;
    };
    if let Some(hit) = stable.search(mem, &candidate, ppn, work) {
        if mem.merge_into(stable.node(hit).ppn, ppn).is_ok() {
            work.merges += 1;
            return CandidateOutcome::MergedStable;
        }
        // Racing write invalidated the match; fall through like the
        // kernel does.
    }
    if changed(mem, &candidate, work) {
        return CandidateOutcome::Dropped;
    }
    let Some(me) = PageRef::capture(mem, vm, gfn) else {
        return CandidateOutcome::Unmapped;
    };
    match unstable.search_or_insert(mem, &candidate, ppn, me, work) {
        SearchInsert::FoundEqual(hit) => {
            let target = *unstable.node(hit);
            // merge_into re-verifies content equality under write
            // protection. If it fails, the contents raced apart: drop this
            // candidate; the stale node is pruned later.
            if mem.merge_into(target.ppn, ppn).is_err() {
                return CandidateOutcome::Dropped;
            }
            work.merges += 1;
            // Promote (lines 15–17). merge_into already CoW-protected the
            // frame, whose data equals the candidate's.
            unstable.remove(hit);
            if let Some(epoch) = mem.frame_epoch(target.ppn) {
                stable.insert(mem, &candidate, PageRef { epoch, ..target }, work);
            }
            CandidateOutcome::MergedUnstable
        }
        SearchInsert::Inserted(_) => CandidateOutcome::InsertedUnstable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_types::PageData;

    fn page(b: u8) -> PageData {
        PageData::from_fn(|i| b.wrapping_mul(31).wrapping_add((i % 5) as u8))
    }

    /// Maps `n` VMs each with the same single page of content `b`.
    fn identical_vms(n: u32, b: u8) -> (HostMemory, Vec<(VmId, Gfn)>) {
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for v in 0..n {
            mem.map_new_page(VmId(v), Gfn(0), page(b));
            hints.push((VmId(v), Gfn(0)));
        }
        (mem, hints)
    }

    #[test]
    fn conservation_laws_hold_and_a_skewed_counter_is_named() {
        let (mut mem, mut hints) = identical_vms(4, 1);
        for v in 0..2 {
            mem.map_new_page(VmId(v), Gfn(1), PageData::zeroed());
            hints.push((VmId(v), Gfn(1)));
        }
        let cfg = KsmConfig {
            use_zero_pages: true,
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, hints);
        ksm.run_to_steady_state(&mut mem, 8);
        mem.guest_write(VmId(2), Gfn(0), 0, &[0xEE]);
        ksm.run_to_steady_state(&mut mem, 8);
        let s = ksm.stats();
        assert!(s.merged_zero > 0 && s.merged_stable + s.merged_unstable > 0);
        ksm.check_conservation(&mem).unwrap();

        // Each skew keeps the laws before its own, so the audit names it.
        let audit = |skew: fn(&mut KsmStats)| {
            let mut skewed = ksm.clone();
            skew(&mut skewed.stats);
            skewed.check_conservation(&mem).unwrap_err()
        };
        assert!(audit(|s| s.candidates += 1).contains("candidate law"));
        assert!(audit(|s| s.jhash_matches += 1).contains("hash law"));
        let digest_skew = audit(|s| {
            s.jhash_matches += 1;
            s.work.hash_ops += 1;
        });
        assert!(digest_skew.contains("hash law"), "{digest_skew}");
        let merge_skew = audit(|s| {
            s.merged_stable += 1;
            s.dropped_changed -= 1;
        });
        assert!(merge_skew.contains("merge law"), "{merge_skew}");
    }

    #[test]
    fn first_pass_only_inserts() {
        let (mut mem, hints) = identical_vms(4, 1);
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        let r = ksm.scan_batch(&mut mem, 4);
        // First sighting: every checksum is "changed" → all dropped.
        assert_eq!(r.merged, 0);
        assert_eq!(ksm.stats().dropped_changed, 4);
        assert!(r.pass_completed);
    }

    #[test]
    fn second_pass_merges_identical_pages() {
        let (mut mem, hints) = identical_vms(4, 1);
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        ksm.scan_batch(&mut mem, 4); // pass 1: checksums recorded
        let r = ksm.scan_batch(&mut mem, 4); // pass 2: merge
        assert_eq!(r.merged, 3, "three pages merge into the first");
        assert_eq!(mem.allocated_frames(), 1);
        assert_eq!(ksm.stats().merged_unstable, 1);
        assert_eq!(ksm.stats().merged_stable, 2);
        assert_eq!(ksm.stable_tree().len(), 1);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn merged_pages_are_skipped_in_later_passes() {
        let (mut mem, hints) = identical_vms(3, 1);
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        ksm.scan_batch(&mut mem, 3);
        ksm.scan_batch(&mut mem, 3);
        let before = ksm.stats().already_shared;
        ksm.scan_batch(&mut mem, 3);
        assert_eq!(ksm.stats().already_shared, before + 3);
    }

    #[test]
    fn distinct_pages_never_merge() {
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for v in 0..5u32 {
            mem.map_new_page(VmId(v), Gfn(0), page(v as u8));
            hints.push((VmId(v), Gfn(0)));
        }
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        for _ in 0..4 {
            ksm.scan_batch(&mut mem, 5);
        }
        assert_eq!(mem.allocated_frames(), 5);
        assert_eq!(ksm.stats().merged_stable + ksm.stats().merged_unstable, 0);
    }

    #[test]
    fn changed_page_is_dropped_not_merged() {
        let (mut mem, hints) = identical_vms(2, 1);
        let mut ksm = Ksm::new(KsmConfig::default(), hints.clone());
        ksm.scan_batch(&mut mem, 2); // pass 1
                                     // Mutate VM 0's page between passes: checksum mismatch → dropped.
        mem.guest_write(VmId(0), Gfn(0), 0, &[0xEE]);
        let r = ksm.scan_batch(&mut mem, 2);
        assert_eq!(r.merged, 0);
        assert!(ksm.stats().dropped_changed >= 1);
    }

    #[test]
    fn zero_pages_all_merge_to_one_frame() {
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for v in 0..6u32 {
            mem.map_new_page(VmId(v), Gfn(0), PageData::zeroed());
            hints.push((VmId(v), Gfn(0)));
        }
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        let passes = ksm.run_to_steady_state(&mut mem, 10);
        assert!(passes <= 4, "took {passes} passes");
        assert_eq!(mem.allocated_frames(), 1);
        assert_eq!(mem.mapped_guest_pages(), 6);
    }

    #[test]
    fn cow_break_after_merge_is_rescanned_and_remerges() {
        let (mut mem, hints) = identical_vms(3, 1);
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        ksm.run_to_steady_state(&mut mem, 6);
        assert_eq!(mem.allocated_frames(), 1);
        // VM 2 writes, gets a private copy...
        mem.guest_write(VmId(2), Gfn(0), 100, &[7]);
        assert_eq!(mem.allocated_frames(), 2);
        // ...then writes back the original value: identical again.
        let shared = mem.guest_read(VmId(0), Gfn(0)).unwrap().as_bytes()[100];
        mem.guest_write(VmId(2), Gfn(0), 100, &[shared]);
        ksm.run_to_steady_state(&mut mem, 8);
        assert_eq!(mem.allocated_frames(), 1, "page should re-merge");
        mem.check_invariants().unwrap();
    }

    #[test]
    fn batch_report_prices_work() {
        let (mut mem, hints) = identical_vms(4, 2);
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        ksm.scan_batch(&mut mem, 4);
        let r = ksm.scan_batch(&mut mem, 4);
        assert!(r.cycles.total() > 0);
        assert!(r.work.cmp_bytes > 0);
        assert!(r.work.hash_bytes > 0);
        assert!(ksm.stats().cycles.total() > 0);
    }

    #[test]
    fn shadow_ecc_keys_are_tracked() {
        let (mut mem, hints) = identical_vms(2, 3);
        let cfg = KsmConfig {
            shadow_ecc: Some(EccKeyConfig::default()),
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, hints);
        ksm.scan_batch(&mut mem, 2);
        ksm.scan_batch(&mut mem, 2);
        let s = ksm.stats();
        assert_eq!(
            s.ecc_matches + s.ecc_mismatches,
            s.jhash_matches + s.jhash_mismatches,
            "shadow keys evaluated at every checksum decision"
        );
    }

    #[test]
    fn ecc_key_misses_off_window_change_that_jhash_catches_nothing_of() {
        // A change outside both the jhash window (first 1 KB) and the ECC
        // sample lines is invisible to both schemes: both report a match.
        let (mut mem, hints) = identical_vms(1, 4);
        let cfg = KsmConfig {
            shadow_ecc: Some(EccKeyConfig::default()),
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, hints);
        ksm.scan_batch(&mut mem, 1); // record hashes
                                     // Mutate line 40 (beyond 1 KB, not an ECC sample offset).
        mem.guest_write(VmId(0), Gfn(0), 40 * 64 + 3, &[0xAB]);
        ksm.scan_batch(&mut mem, 1);
        let s = ksm.stats();
        assert_eq!(s.jhash_matches, 1);
        assert_eq!(s.ecc_matches, 1);
    }

    #[test]
    fn use_zero_pages_shortcuts_the_trees() {
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for v in 0..5u32 {
            mem.map_new_page(VmId(v), Gfn(0), PageData::zeroed());
            hints.push((VmId(v), Gfn(0)));
        }
        let cfg = KsmConfig {
            use_zero_pages: true,
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, hints);
        // A single pass suffices: no checksum-twice dance for zero pages.
        ksm.scan_batch(&mut mem, 5);
        assert_eq!(mem.allocated_frames(), 1, "all zeros on the anchor");
        assert_eq!(ksm.stats().merged_zero, 4);
        assert_eq!(ksm.stats().inserted_unstable, 0, "trees never touched");
        mem.check_invariants().unwrap();
    }

    #[test]
    fn zero_anchor_survives_cow_breaks() {
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for v in 0..3u32 {
            mem.map_new_page(VmId(v), Gfn(0), PageData::zeroed());
            hints.push((VmId(v), Gfn(0)));
        }
        let cfg = KsmConfig {
            use_zero_pages: true,
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, hints);
        ksm.scan_batch(&mut mem, 3);
        assert_eq!(mem.allocated_frames(), 1);
        // Everyone writes: the anchor frame is freed entirely.
        for v in 0..3u32 {
            mem.guest_write(VmId(v), Gfn(0), 0, &[v as u8 + 1]);
        }
        // Zero the pages again; re-scanning re-establishes an anchor.
        for v in 0..3u32 {
            mem.guest_write(VmId(v), Gfn(0), 0, &[0]);
        }
        ksm.run_to_steady_state(&mut mem, 8);
        assert_eq!(mem.allocated_frames(), 1);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn empty_hint_list_is_a_noop() {
        let mut mem = HostMemory::new();
        let mut ksm = Ksm::new(KsmConfig::default(), vec![]);
        let r = ksm.scan_batch(&mut mem, 100);
        assert_eq!(r, BatchReport::default());
        assert_eq!(ksm.run_pass(&mut mem), 0, "an empty list is an empty pass");
        assert_eq!(ksm.run_to_steady_state(&mut mem, 8), 2);
    }

    #[test]
    fn zero_pages_to_scan_still_completes_passes() {
        let (mut mem, hints) = identical_vms(3, 6);
        let cfg = KsmConfig {
            pages_to_scan: 0,
            ..KsmConfig::default()
        };
        let mut ksm = Ksm::new(cfg, hints);
        assert_eq!(ksm.run_to_steady_state(&mut mem, 8), 3);
        assert_eq!(mem.allocated_frames(), 1);
        assert_eq!(ksm.stats().passes, 3);
    }

    #[test]
    fn digest_cache_hits_on_unchanged_pages_and_invalidates_on_writes() {
        let (mut mem, hints) = identical_vms(1, 9);
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        ksm.scan_batch(&mut mem, 1); // pass 1: miss, digest stored
        ksm.scan_batch(&mut mem, 1); // pass 2: unchanged → hit
        assert_eq!(ksm.digests.stats().hits, 1);
        assert_eq!(ksm.digests.stats().misses, 1);
        mem.guest_write(VmId(0), Gfn(0), 0, &[0xAA]);
        ksm.scan_batch(&mut mem, 1); // pass 3: version bumped → refill
        assert_eq!(ksm.digests.stats().invalidations, 1);
        assert_eq!(ksm.digests.stats().misses, 2);
    }

    #[test]
    fn digest_cache_off_matches_on_exactly() {
        // Same workload with churn (in-place writes + CoW breaks): every
        // stat except the digest counters must be identical.
        let run = |digest_cache: bool| {
            let (mut mem, hints) = identical_vms(4, 5);
            let cfg = KsmConfig {
                digest_cache,
                shadow_ecc: Some(EccKeyConfig::default()),
                ..KsmConfig::default()
            };
            let mut ksm = Ksm::new(cfg, hints);
            ksm.run_to_steady_state(&mut mem, 4);
            mem.guest_write(VmId(2), Gfn(0), 50, &[1]); // CoW break
            mem.guest_write(VmId(3), Gfn(0), 60, &[2]); // CoW break
            ksm.run_to_steady_state(&mut mem, 4);
            mem.guest_write(VmId(2), Gfn(0), 50, &[3]); // in-place dirty
            ksm.run_to_steady_state(&mut mem, 4);
            (ksm.stats().clone(), mem.allocated_frames())
        };
        let (on, frames_on) = run(true);
        let (off, frames_off) = run(false);
        assert_eq!(on, off);
        assert_eq!(frames_on, frames_off);
    }

    #[test]
    fn unmapped_hints_are_skipped() {
        let mut mem = HostMemory::new();
        mem.map_new_page(VmId(0), Gfn(0), page(1));
        let hints = vec![(VmId(0), Gfn(0)), (VmId(0), Gfn(99))];
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        ksm.scan_batch(&mut mem, 2);
        assert_eq!(ksm.stats().unmapped, 1);
    }
}
