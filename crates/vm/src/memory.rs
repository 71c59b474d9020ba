//! Host physical memory, guest mappings, copy-on-write, and page merging.
//!
//! This is the hypervisor-side state that same-page merging manipulates
//! (Figure 1 of the paper): each VM maps guest frame numbers to host
//! physical frames; merging repoints several guest mappings at one shared,
//! CoW-protected frame and frees the rest.

use std::fmt;

use pageforge_obs::{CounterId, Registry};
use pageforge_types::json::{obj, FromJson, ToJson, Value};
use pageforge_types::{Gfn, PageData, Ppn, VmId};

/// A host physical frame: its contents plus the CoW protection bit.
#[derive(Debug, Clone)]
struct Frame {
    data: PageData,
    cow: bool,
    /// Allocation epoch: frame numbers are recycled, so holders of a `Ppn`
    /// (e.g. KSM tree nodes) compare epochs to detect staleness.
    epoch: u64,
    /// Content version: bumped on every in-place mutation (unlike `epoch`,
    /// which only changes across reallocations). `(Ppn, epoch, version)`
    /// uniquely identifies page *contents*, so digest caches key on it.
    version: u64,
    /// Reverse mappings: every (VM, guest frame) currently mapping here.
    rmap: Vec<(VmId, Gfn)>,
}

/// Counters describing the merge state of a [`HostMemory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Frames currently allocated.
    pub allocated_frames: usize,
    /// Guest pages currently mapped (the footprint *without* merging).
    pub mapped_guest_pages: usize,
    /// Total successful merges performed.
    pub merges: u64,
    /// Total CoW breaks (writes to shared frames).
    pub cow_breaks: u64,
    /// Frames freed by merging, cumulative.
    pub frames_freed_by_merge: u64,
}

impl MemoryStats {
    /// Fraction of the unmerged footprint saved by merging, in `[0, 1)`.
    pub fn savings_fraction(&self) -> f64 {
        if self.mapped_guest_pages == 0 {
            return 0.0;
        }
        1.0 - self.allocated_frames as f64 / self.mapped_guest_pages as f64
    }
}

impl ToJson for MemoryStats {
    fn to_json(&self) -> Value {
        obj([
            ("allocated_frames", self.allocated_frames.to_json()),
            ("mapped_guest_pages", self.mapped_guest_pages.to_json()),
            ("merges", self.merges.to_json()),
            ("cow_breaks", self.cow_breaks.to_json()),
            (
                "frames_freed_by_merge",
                self.frames_freed_by_merge.to_json(),
            ),
        ])
    }
}

impl FromJson for MemoryStats {
    fn from_json(value: &Value) -> Option<Self> {
        Some(MemoryStats {
            allocated_frames: usize::from_json(value.get("allocated_frames")?)?,
            mapped_guest_pages: usize::from_json(value.get("mapped_guest_pages")?)?,
            merges: u64::from_json(value.get("merges")?)?,
            cow_breaks: u64::from_json(value.get("cow_breaks")?)?,
            frames_freed_by_merge: u64::from_json(value.get("frames_freed_by_merge")?)?,
        })
    }
}

/// Outcome of a guest write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The frame was private (or unprotected): written in place.
    InPlace(Ppn),
    /// The frame was shared and CoW-protected: a private copy was made for
    /// the writer and written instead.
    CowBroken {
        /// The writer's new private frame.
        new_frame: Ppn,
        /// The shared frame the writer was unmapped from.
        old_frame: Ppn,
    },
}

impl WriteOutcome {
    /// The frame that now holds the written data.
    pub fn frame(self) -> Ppn {
        match self {
            WriteOutcome::InPlace(p) => p,
            WriteOutcome::CowBroken { new_frame, .. } => new_frame,
        }
    }

    /// `true` if the write triggered a copy-on-write.
    pub fn broke_cow(self) -> bool {
        matches!(self, WriteOutcome::CowBroken { .. })
    }
}

/// Error returned by [`HostMemory::merge_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// One of the frames does not exist.
    NoSuchFrame(Ppn),
    /// The two frames do not have identical contents. Merging them would
    /// corrupt a guest; the final write-protected comparison (§3.5) exists
    /// precisely to catch this.
    ContentMismatch,
    /// Attempted to merge a frame into itself.
    SameFrame(Ppn),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoSuchFrame(p) => write!(f, "frame {p} does not exist"),
            MergeError::ContentMismatch => write!(f, "page contents differ"),
            MergeError::SameFrame(p) => write!(f, "cannot merge frame {p} into itself"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Host physical memory with per-VM guest mappings, reverse mappings,
/// copy-on-write, and page merging.
///
/// Deterministic by construction: frame numbers are handed out sequentially
/// (recycling freed frames LIFO) and all iteration runs in sorted order.
///
/// Frame numbers and guest frame numbers are dense small integers, so both
/// tables are flat arenas indexed by value: `translate`, `is_cow`, and
/// `frame_data` — the per-access hot path of the simulator's query loop —
/// are O(1) slice lookups rather than tree walks. The arenas grow on
/// demand and keep `None` holes for freed entries, preserving the exact
/// iteration orders (ascending `Ppn`, ascending `(VmId, Gfn)`) that the
/// byte-identity contract depends on.
#[derive(Debug, Clone)]
pub struct HostMemory {
    /// Frame arena indexed by `Ppn`; `None` marks a freed (recyclable) slot.
    frames: Vec<Option<Frame>>,
    /// Live entries in `frames`.
    live_frames: usize,
    /// Guest page tables: `guest[vm][gfn]` holds the mapped frame.
    guest: Vec<Vec<Option<Ppn>>>,
    /// Live mappings across all of `guest`.
    mapped_pages: usize,
    free_list: Vec<Ppn>,
    next_ppn: u64,
    epoch_counter: u64,
    version_counter: u64,
    metrics: Registry,
    ids: MemMetricIds,
}

/// Ids of the cumulative merge counters in the metric registry
/// (`mem.*` namespace; see OBSERVABILITY.md).
#[derive(Debug, Clone, Copy)]
struct MemMetricIds {
    merges: CounterId,
    cow_breaks: CounterId,
    frames_freed_by_merge: CounterId,
}

impl MemMetricIds {
    fn register(reg: &mut Registry) -> Self {
        MemMetricIds {
            merges: reg.counter("mem.merges"),
            cow_breaks: reg.counter("mem.cow_breaks"),
            frames_freed_by_merge: reg.counter("mem.frames_freed_by_merge"),
        }
    }
}

impl Default for HostMemory {
    fn default() -> Self {
        let mut metrics = Registry::new();
        let ids = MemMetricIds::register(&mut metrics);
        HostMemory {
            frames: Vec::new(),
            live_frames: 0,
            guest: Vec::new(),
            mapped_pages: 0,
            free_list: Vec::new(),
            next_ppn: 0,
            epoch_counter: 0,
            version_counter: 0,
            metrics,
            ids,
        }
    }
}

impl HostMemory {
    /// Creates an empty host memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc_ppn(&mut self) -> Ppn {
        if let Some(p) = self.free_list.pop() {
            return p;
        }
        let p = Ppn(self.next_ppn);
        self.next_ppn += 1;
        p
    }

    fn frame(&self, ppn: Ppn) -> Option<&Frame> {
        self.frames.get(ppn.0 as usize)?.as_ref()
    }

    fn frame_mut(&mut self, ppn: Ppn) -> Option<&mut Frame> {
        self.frames.get_mut(ppn.0 as usize)?.as_mut()
    }

    /// Installs `frame` at `ppn`, growing the arena as needed.
    fn insert_frame(&mut self, ppn: Ppn, frame: Frame) {
        let idx = ppn.0 as usize;
        if idx >= self.frames.len() {
            self.frames.resize_with(idx + 1, || None);
        }
        debug_assert!(self.frames[idx].is_none(), "frame {ppn} double-allocated");
        self.frames[idx] = Some(frame);
        self.live_frames += 1;
    }

    fn remove_frame(&mut self, ppn: Ppn) -> Option<Frame> {
        let slot = self.frames.get_mut(ppn.0 as usize)?;
        let frame = slot.take()?;
        self.live_frames -= 1;
        Some(frame)
    }

    fn mapping(&self, vm: VmId, gfn: Gfn) -> Option<Ppn> {
        *self.guest.get(vm.0 as usize)?.get(gfn.0 as usize)?
    }

    /// Points `(vm, gfn)` at `ppn`, growing the page table as needed.
    /// Counts the mapping only when the slot was previously empty.
    fn set_mapping(&mut self, vm: VmId, gfn: Gfn, ppn: Ppn) {
        let v = vm.0 as usize;
        if v >= self.guest.len() {
            self.guest.resize_with(v + 1, Vec::new);
        }
        let table = &mut self.guest[v];
        let g = gfn.0 as usize;
        if g >= table.len() {
            table.resize(g + 1, None);
        }
        if table[g].replace(ppn).is_none() {
            self.mapped_pages += 1;
        }
    }

    fn clear_mapping(&mut self, vm: VmId, gfn: Gfn) -> Option<Ppn> {
        let ppn = self
            .guest
            .get_mut(vm.0 as usize)?
            .get_mut(gfn.0 as usize)?
            .take()?;
        self.mapped_pages -= 1;
        Some(ppn)
    }

    /// Allocates a fresh frame holding `data` and maps it at `(vm, gfn)`.
    ///
    /// # Panics
    ///
    /// Panics if `(vm, gfn)` is already mapped; unmap first.
    pub fn map_new_page(&mut self, vm: VmId, gfn: Gfn, data: PageData) -> Ppn {
        assert!(
            self.mapping(vm, gfn).is_none(),
            "({vm}, {gfn}) is already mapped"
        );
        let ppn = self.alloc_ppn();
        self.epoch_counter += 1;
        self.version_counter += 1;
        self.insert_frame(
            ppn,
            Frame {
                data,
                cow: false,
                epoch: self.epoch_counter,
                version: self.version_counter,
                rmap: vec![(vm, gfn)],
            },
        );
        self.set_mapping(vm, gfn, ppn);
        ppn
    }

    /// The allocation epoch of a frame: recycled frame numbers get a new
    /// epoch, so `(Ppn, epoch)` pairs uniquely identify an allocation.
    pub fn frame_epoch(&self, ppn: Ppn) -> Option<u64> {
        self.frame(ppn).map(|f| f.epoch)
    }

    /// The content version of a frame: unlike the epoch, this also changes
    /// on every in-place write, so `(epoch, version)` staleness checks let
    /// digest caches skip rehashing unchanged pages.
    pub fn frame_version(&self, ppn: Ppn) -> Option<u64> {
        self.frame(ppn).map(|f| f.version)
    }

    /// Translates a guest page to its host frame.
    #[inline]
    pub fn translate(&self, vm: VmId, gfn: Gfn) -> Option<Ppn> {
        self.mapping(vm, gfn)
    }

    /// The contents of a frame, if it exists.
    #[inline]
    pub fn frame_data(&self, ppn: Ppn) -> Option<&PageData> {
        self.frame(ppn).map(|f| &f.data)
    }

    /// Number of guest pages mapping a frame (0 if it does not exist).
    pub fn refcount(&self, ppn: Ppn) -> usize {
        self.frame(ppn).map_or(0, |f| f.rmap.len())
    }

    /// Whether a frame is CoW-protected.
    #[inline]
    pub fn is_cow(&self, ppn: Ppn) -> bool {
        self.frame(ppn).is_some_and(|f| f.cow)
    }

    /// Marks a frame CoW-protected (write-protects all its mappings).
    ///
    /// # Panics
    ///
    /// Panics if the frame does not exist.
    pub fn cow_protect(&mut self, ppn: Ppn) {
        self.frame_mut(ppn)
            .unwrap_or_else(|| panic!("cow_protect: frame {ppn} does not exist"))
            .cow = true;
    }

    /// Reads the page mapped at `(vm, gfn)`.
    pub fn guest_read(&self, vm: VmId, gfn: Gfn) -> Option<&PageData> {
        let ppn = self.translate(vm, gfn)?;
        self.frame_data(ppn)
    }

    /// Writes `bytes` at `offset` into the page mapped at `(vm, gfn)`,
    /// enforcing copy-on-write: if the target frame is shared and protected,
    /// the writer gets a private copy first (the OS behaviour described in
    /// §2.1: "the OS enforces the CoW policy by creating a copy of the page
    /// and providing it to the process that performed the write").
    ///
    /// # Panics
    ///
    /// Panics if `(vm, gfn)` is not mapped, or the write overruns the page.
    pub fn guest_write(&mut self, vm: VmId, gfn: Gfn, offset: usize, bytes: &[u8]) -> WriteOutcome {
        let ppn = self
            .translate(vm, gfn)
            .unwrap_or_else(|| panic!("guest_write: ({vm}, {gfn}) is not mapped"));
        let frame = self.frame_mut(ppn).expect("mapped frame exists");
        assert!(
            offset + bytes.len() <= pageforge_types::PAGE_SIZE,
            "write overruns the page"
        );
        if frame.cow {
            // Copy-on-write: give the writer a private copy. Like Linux KSM
            // pages, a CoW frame is *never* written in place — even a sole
            // mapper gets a fresh copy, keeping the merged (stable) frame
            // immutable for its whole lifetime.
            let mut copy = frame.data.clone();
            copy.as_bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
            frame.rmap.retain(|&m| m != (vm, gfn));
            let orphaned = frame.rmap.is_empty();
            self.clear_mapping(vm, gfn);
            self.metrics.inc(self.ids.cow_breaks);
            // Allocate the copy *before* freeing an orphaned frame so the
            // writer never receives the frame number it just left.
            let new_ppn = self.alloc_ppn();
            if orphaned {
                self.remove_frame(ppn);
                self.free_list.push(ppn);
            }
            self.epoch_counter += 1;
            self.version_counter += 1;
            self.insert_frame(
                new_ppn,
                Frame {
                    data: copy,
                    cow: false,
                    epoch: self.epoch_counter,
                    version: self.version_counter,
                    rmap: vec![(vm, gfn)],
                },
            );
            self.set_mapping(vm, gfn, new_ppn);
            WriteOutcome::CowBroken {
                new_frame: new_ppn,
                old_frame: ppn,
            }
        } else {
            frame.data.as_bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
            self.version_counter += 1;
            let stamp = self.version_counter;
            self.frame_mut(ppn).expect("mapped frame exists").version = stamp;
            WriteOutcome::InPlace(ppn)
        }
    }

    /// Merges frame `drop` into frame `keep`: verifies the contents are
    /// identical, repoints every mapping of `drop` at `keep`, CoW-protects
    /// `keep`, and frees `drop`.
    ///
    /// This is the `merge` step of Algorithm 1 (and what the hypervisor does
    /// when PageForge reports a duplicate).
    ///
    /// # Errors
    ///
    /// * [`MergeError::SameFrame`] if `keep == drop`;
    /// * [`MergeError::NoSuchFrame`] if either frame is unallocated;
    /// * [`MergeError::ContentMismatch`] if the contents differ (the
    ///   write-protected final comparison failed).
    pub fn merge_into(&mut self, keep: Ppn, drop: Ppn) -> Result<(), MergeError> {
        if keep == drop {
            return Err(MergeError::SameFrame(keep));
        }
        if self.frame(keep).is_none() {
            return Err(MergeError::NoSuchFrame(keep));
        }
        if self.frame(drop).is_none() {
            return Err(MergeError::NoSuchFrame(drop));
        }
        let equal = {
            let a = &self.frame(keep).expect("checked above").data;
            let b = &self.frame(drop).expect("checked above").data;
            a == b
        };
        if !equal {
            return Err(MergeError::ContentMismatch);
        }
        let dropped = self.remove_frame(drop).expect("checked above");
        for &(vm, gfn) in &dropped.rmap {
            self.set_mapping(vm, gfn, keep);
        }
        let kept = self.frame_mut(keep).expect("checked above");
        kept.rmap.extend(dropped.rmap);
        kept.cow = true;
        self.free_list.push(drop);
        self.metrics.inc(self.ids.merges);
        self.metrics.inc(self.ids.frames_freed_by_merge);
        Ok(())
    }

    /// Unmaps `(vm, gfn)`, freeing the frame if this was the last mapping.
    /// Returns the frame it was mapped to, if any.
    pub fn unmap(&mut self, vm: VmId, gfn: Gfn) -> Option<Ppn> {
        let ppn = self.clear_mapping(vm, gfn)?;
        let frame = self.frame_mut(ppn).expect("mapped frame exists");
        frame.rmap.retain(|&m| m != (vm, gfn));
        if frame.rmap.is_empty() {
            self.remove_frame(ppn);
            self.free_list.push(ppn);
        }
        Some(ppn)
    }

    /// Number of frames currently allocated (the footprint *with* merging).
    pub fn allocated_frames(&self) -> usize {
        self.live_frames
    }

    /// Number of guest pages currently mapped (the footprint *without*
    /// merging).
    pub fn mapped_guest_pages(&self) -> usize {
        self.mapped_pages
    }

    /// All guest mappings of a frame.
    pub fn reverse_map(&self, ppn: Ppn) -> &[(VmId, Gfn)] {
        self.frame(ppn).map_or(&[], |f| &f.rmap)
    }

    /// Iterates over all allocated frames in frame-number order.
    pub fn iter_frames(&self) -> impl Iterator<Item = (Ppn, &PageData, bool)> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(p, slot)| slot.as_ref().map(|f| (Ppn(p as u64), &f.data, f.cow)))
    }

    /// Iterates over all guest mappings in (VM, GFN) order.
    pub fn iter_mappings(&self) -> impl Iterator<Item = (VmId, Gfn, Ppn)> + '_ {
        self.guest.iter().enumerate().flat_map(|(vm, table)| {
            table.iter().enumerate().filter_map(move |(gfn, slot)| {
                slot.map(|ppn| (VmId(vm as u32), Gfn(gfn as u64), ppn))
            })
        })
    }

    /// Snapshot of the merge statistics — a view assembled from the
    /// metric registry plus the live footprint gauges.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            allocated_frames: self.allocated_frames(),
            mapped_guest_pages: self.mapped_guest_pages(),
            merges: self.metrics.counter_value(self.ids.merges),
            cow_breaks: self.metrics.counter_value(self.ids.cow_breaks),
            frames_freed_by_merge: self.metrics.counter_value(self.ids.frames_freed_by_merge),
        }
    }

    /// The cumulative merge counters plus point-in-time footprint gauges
    /// as a metric registry (`mem.*` namespace), for aggregation into a
    /// simulation-wide snapshot.
    pub fn export_metrics(&self) -> Registry {
        let mut reg = self.metrics.clone();
        let allocated = reg.gauge("mem.allocated_frames");
        reg.set(allocated, self.allocated_frames() as f64);
        let mapped = reg.gauge("mem.mapped_guest_pages");
        reg.set(mapped, self.mapped_guest_pages() as f64);
        reg
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// Invariants:
    /// 1. every guest mapping points at an allocated frame whose rmap
    ///    contains it;
    /// 2. every rmap entry is a live guest mapping pointing back at the
    ///    frame;
    /// 3. no frame has an empty rmap;
    /// 4. frames shared by >1 mapping are CoW-protected *only if* marked.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (vm, gfn, ppn) in self.iter_mappings() {
            let frame = self
                .frame(ppn)
                .ok_or_else(|| format!("mapping ({vm},{gfn})→{ppn} points at missing frame"))?;
            if !frame.rmap.contains(&(vm, gfn)) {
                return Err(format!("frame {ppn} rmap is missing ({vm},{gfn})"));
            }
        }
        for (idx, slot) in self.frames.iter().enumerate() {
            let Some(frame) = slot else { continue };
            let ppn = Ppn(idx as u64);
            if frame.rmap.is_empty() {
                return Err(format!("frame {ppn} has an empty rmap"));
            }
            for &(vm, gfn) in &frame.rmap {
                if self.mapping(vm, gfn) != Some(ppn) {
                    return Err(format!("rmap entry ({vm},{gfn}) of {ppn} is stale"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> PageData {
        PageData::from_fn(|_| b)
    }

    #[test]
    fn map_and_translate() {
        let mut mem = HostMemory::new();
        let p = mem.map_new_page(VmId(0), Gfn(1), page(1));
        assert_eq!(mem.translate(VmId(0), Gfn(1)), Some(p));
        assert_eq!(mem.translate(VmId(0), Gfn(2)), None);
        assert_eq!(mem.frame_data(p), Some(&page(1)));
        assert_eq!(mem.refcount(p), 1);
        mem.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut mem = HostMemory::new();
        mem.map_new_page(VmId(0), Gfn(1), page(1));
        mem.map_new_page(VmId(0), Gfn(1), page(2));
    }

    #[test]
    fn merge_identical_pages() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(7));
        let b = mem.map_new_page(VmId(1), Gfn(9), page(7));
        mem.merge_into(a, b).unwrap();
        assert_eq!(mem.allocated_frames(), 1);
        assert_eq!(mem.mapped_guest_pages(), 2);
        assert_eq!(mem.translate(VmId(1), Gfn(9)), Some(a));
        assert_eq!(mem.refcount(a), 2);
        assert!(mem.is_cow(a));
        assert_eq!(mem.stats().merges, 1);
        assert!((mem.stats().savings_fraction() - 0.5).abs() < 1e-12);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn merge_rejects_different_contents() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(1));
        let b = mem.map_new_page(VmId(0), Gfn(1), page(2));
        assert_eq!(mem.merge_into(a, b), Err(MergeError::ContentMismatch));
        assert_eq!(mem.allocated_frames(), 2);
    }

    #[test]
    fn merge_rejects_same_and_missing_frames() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(1));
        assert_eq!(mem.merge_into(a, a), Err(MergeError::SameFrame(a)));
        assert_eq!(
            mem.merge_into(a, Ppn(999)),
            Err(MergeError::NoSuchFrame(Ppn(999)))
        );
        assert_eq!(
            mem.merge_into(Ppn(999), a),
            Err(MergeError::NoSuchFrame(Ppn(999)))
        );
    }

    #[test]
    fn write_to_shared_frame_breaks_cow() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(7));
        let b = mem.map_new_page(VmId(1), Gfn(0), page(7));
        mem.merge_into(a, b).unwrap();
        let outcome = mem.guest_write(VmId(1), Gfn(0), 10, &[99]);
        assert!(outcome.broke_cow());
        let new = outcome.frame();
        assert_ne!(new, a);
        assert_eq!(mem.translate(VmId(1), Gfn(0)), Some(new));
        // Writer sees the new byte; the other VM does not.
        assert_eq!(mem.guest_read(VmId(1), Gfn(0)).unwrap().as_bytes()[10], 99);
        assert_eq!(mem.guest_read(VmId(0), Gfn(0)).unwrap().as_bytes()[10], 7);
        assert_eq!(mem.refcount(a), 1);
        assert_eq!(mem.stats().cow_breaks, 1);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn write_to_private_frame_is_in_place() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(1));
        let outcome = mem.guest_write(VmId(0), Gfn(0), 0, &[5, 6]);
        assert_eq!(outcome, WriteOutcome::InPlace(a));
        assert_eq!(mem.guest_read(VmId(0), Gfn(0)).unwrap().as_bytes()[1], 6);
        assert_eq!(mem.stats().cow_breaks, 0);
    }

    #[test]
    fn write_to_sole_mapper_cow_frame_still_copies() {
        // CoW frames are immutable for life (like Linux KSM pages): even
        // the last mapper gets a copy, and the orphaned frame is freed.
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(7));
        mem.cow_protect(a);
        let outcome = mem.guest_write(VmId(0), Gfn(0), 0, &[1]);
        assert!(outcome.broke_cow());
        assert_ne!(outcome.frame(), a);
        assert_eq!(mem.frame_data(a), None, "orphaned CoW frame is freed");
        assert_eq!(mem.allocated_frames(), 1);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn epochs_distinguish_recycled_frames() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(1));
        let e1 = mem.frame_epoch(a).unwrap();
        mem.unmap(VmId(0), Gfn(0));
        assert_eq!(mem.frame_epoch(a), None);
        let b = mem.map_new_page(VmId(0), Gfn(1), page(2));
        assert_eq!(a, b, "frame number recycled");
        let e2 = mem.frame_epoch(b).unwrap();
        assert_ne!(e1, e2, "epoch must change across reallocation");
    }

    #[test]
    fn three_way_merge_then_all_write() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(3));
        let b = mem.map_new_page(VmId(1), Gfn(0), page(3));
        let c = mem.map_new_page(VmId(2), Gfn(0), page(3));
        mem.merge_into(a, b).unwrap();
        mem.merge_into(a, c).unwrap();
        assert_eq!(mem.refcount(a), 3);
        assert_eq!(mem.allocated_frames(), 1);
        // Every writer breaks off a private copy; the stable frame is freed
        // once the last mapper leaves.
        assert!(mem.guest_write(VmId(1), Gfn(0), 0, &[1]).broke_cow());
        assert!(mem.guest_write(VmId(2), Gfn(0), 0, &[2]).broke_cow());
        assert!(mem.guest_write(VmId(0), Gfn(0), 0, &[3]).broke_cow());
        assert_eq!(mem.frame_data(a), None);
        assert_eq!(mem.allocated_frames(), 3);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn unmap_frees_last_mapping() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(1));
        let b = mem.map_new_page(VmId(1), Gfn(0), page(1));
        mem.merge_into(a, b).unwrap();
        assert_eq!(mem.unmap(VmId(0), Gfn(0)), Some(a));
        assert_eq!(mem.allocated_frames(), 1); // still mapped by vm1
        assert_eq!(mem.unmap(VmId(1), Gfn(0)), Some(a));
        assert_eq!(mem.allocated_frames(), 0);
        assert_eq!(mem.unmap(VmId(1), Gfn(0)), None);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn freed_frames_are_recycled() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(1));
        mem.unmap(VmId(0), Gfn(0));
        let b = mem.map_new_page(VmId(0), Gfn(1), page(2));
        assert_eq!(a, b, "freed frame should be recycled");
    }

    #[test]
    fn reverse_map_tracks_mappings() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(5), page(9));
        let b = mem.map_new_page(VmId(3), Gfn(8), page(9));
        mem.merge_into(a, b).unwrap();
        let rmap = mem.reverse_map(a);
        assert!(rmap.contains(&(VmId(0), Gfn(5))));
        assert!(rmap.contains(&(VmId(3), Gfn(8))));
        assert_eq!(mem.reverse_map(Ppn(12345)), &[]);
    }

    #[test]
    fn stats_track_savings() {
        let mut mem = HostMemory::new();
        let keep = mem.map_new_page(VmId(0), Gfn(0), page(0));
        for vm in 1..10u32 {
            let p = mem.map_new_page(VmId(vm), Gfn(0), page(0));
            mem.merge_into(keep, p).unwrap();
        }
        let s = mem.stats();
        assert_eq!(s.allocated_frames, 1);
        assert_eq!(s.mapped_guest_pages, 10);
        assert_eq!(s.merges, 9);
        assert!((s.savings_fraction() - 0.9).abs() < 1e-12);
    }
}
