//! Host physical memory, guest mappings, copy-on-write, and page merging.
//!
//! This is the hypervisor-side state that same-page merging manipulates
//! (Figure 1 of the paper): each VM maps guest frame numbers to host
//! physical frames; merging repoints several guest mappings at one shared,
//! CoW-protected frame and frees the rest.

use std::fmt;

use pageforge_obs::Registry;
use pageforge_types::json::{obj, ToJson, Value};
use pageforge_types::{Gfn, PageData, Ppn, VmId};

/// A host physical frame. Its CoW protection bit lives in the guest
/// entries that map it (see [`HostMemory`]).
#[derive(Debug, Clone)]
struct Frame {
    data: PageData,
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
/// tables are flat arenas indexed by value. The arenas grow on demand and
/// keep holes for freed entries, preserving the exact iteration orders
/// (ascending `Ppn`, ascending `(VmId, Gfn)`) that the byte-identity
/// contract depends on.
///
/// Like a host page-table entry, each guest entry is one `u64` holding the
/// frame number and the mapping's write-protect (CoW) bit, so
/// [`translate_cow`](Self::translate_cow), the per-access hot path of the
/// simulator's query loop, is a single slice read. Every mapping of a frame
/// carries the same bit, so a frame's CoW state is read through its first
/// reverse mapping.
#[derive(Debug, Clone, Default)]
pub struct HostMemory {
    /// Frame arena indexed by `Ppn`; `None` marks a freed (recyclable) slot.
    frames: Vec<Option<Frame>>,
    /// Guest page tables: `guest[vm][gfn]` is `ppn << 1 | cow` for a mapped
    /// page and [`UNMAPPED`] otherwise.
    guest: Vec<Vec<u64>>,
    free_list: Vec<Ppn>,
    next_ppn: u64,
    epoch_counter: u64,
    version_counter: u64,
    /// Live entries in `frames`, live mappings across all of `guest`, and
    /// the cumulative merge counters.
    stats: MemoryStats,
}

/// The CoW bit of a guest entry.
const COW: u64 = 1;

/// A guest entry that maps nothing: a frame number of all ones, which no
/// frame reaches, and a clear CoW bit. Every entry at or above it is
/// unmapped.
const UNMAPPED: u64 = !COW;

#[cfg(test)]
thread_local! {
    /// Guest entries this thread wrote with the CoW bit set, so a test can
    /// bound the marking work of a merge.
    static COW_BITS_WRITTEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        self.stats.allocated_frames += 1;
    }

    fn remove_frame(&mut self, ppn: Ppn) -> Option<Frame> {
        let slot = self.frames.get_mut(ppn.0 as usize)?;
        let frame = slot.take()?;
        self.stats.allocated_frames -= 1;
        Some(frame)
    }

    /// The guest entry of `(vm, gfn)`, [`UNMAPPED`] past the table's end.
    #[inline]
    fn entry(&self, vm: VmId, gfn: Gfn) -> u64 {
        self.guest
            .get(vm.0 as usize)
            .and_then(|table| table.get(gfn.0 as usize))
            .copied()
            .unwrap_or(UNMAPPED)
    }

    /// Points `(vm, gfn)` at `ppn` with the CoW bit `cow`, growing the page
    /// table as needed. Counts the mapping only when the slot was
    /// previously empty.
    fn set_mapping(&mut self, vm: VmId, gfn: Gfn, ppn: Ppn, cow: bool) {
        debug_assert!(
            ppn.0 < UNMAPPED >> 1,
            "frame {ppn} does not fit a guest entry"
        );
        let v = vm.0 as usize;
        if v >= self.guest.len() {
            self.guest.resize_with(v + 1, Vec::new);
        }
        let table = &mut self.guest[v];
        let g = gfn.0 as usize;
        if g >= table.len() {
            table.resize(g + 1, UNMAPPED);
        }
        if std::mem::replace(&mut table[g], ppn.0 << 1 | u64::from(cow)) >= UNMAPPED {
            self.stats.mapped_guest_pages += 1;
        }
        #[cfg(test)]
        COW_BITS_WRITTEN.with(|n| n.set(n.get() + u64::from(cow)));
    }

    fn clear_mapping(&mut self, vm: VmId, gfn: Gfn) -> Option<Ppn> {
        let entry = self
            .guest
            .get_mut(vm.0 as usize)?
            .get_mut(gfn.0 as usize)
            .filter(|e| **e < UNMAPPED)?;
        let ppn = Ppn(std::mem::replace(entry, UNMAPPED) >> 1);
        self.stats.mapped_guest_pages -= 1;
        Some(ppn)
    }

    /// Sets the CoW bit in every mapping of `ppn`.
    fn protect_mappings(&mut self, ppn: Ppn) {
        let Some(frame) = self.frames.get(ppn.0 as usize).and_then(Option::as_ref) else {
            return;
        };
        for &(vm, gfn) in &frame.rmap {
            if let Some(entry) = self
                .guest
                .get_mut(vm.0 as usize)
                .and_then(|table| table.get_mut(gfn.0 as usize))
            {
                *entry |= COW;
                #[cfg(test)]
                COW_BITS_WRITTEN.with(|n| n.set(n.get() + 1));
            }
        }
    }

    /// The CoW bit of `frame`, read through its first mapping.
    fn frame_cow(&self, frame: &Frame) -> bool {
        frame
            .rmap
            .first()
            .is_some_and(|&(vm, gfn)| self.entry(vm, gfn) & COW != 0)
    }

    /// Allocates a fresh frame holding `data` and maps it at `(vm, gfn)`.
    ///
    /// # Panics
    ///
    /// Panics if `(vm, gfn)` is already mapped; unmap first.
    pub fn map_new_page(&mut self, vm: VmId, gfn: Gfn, data: PageData) -> Ppn {
        assert!(
            self.translate(vm, gfn).is_none(),
            "({vm}, {gfn}) is already mapped"
        );
        let ppn = self.alloc_ppn();
        self.epoch_counter += 1;
        self.version_counter += 1;
        self.insert_frame(
            ppn,
            Frame {
                data,
                epoch: self.epoch_counter,
                version: self.version_counter,
                rmap: vec![(vm, gfn)],
            },
        );
        self.set_mapping(vm, gfn, ppn, false);
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
        self.translate_cow(vm, gfn).map(|(ppn, _)| ppn)
    }

    /// Translates a guest page to its host frame and whether that frame is
    /// CoW-protected, in one read of the guest entry.
    #[inline]
    pub fn translate_cow(&self, vm: VmId, gfn: Gfn) -> Option<(Ppn, bool)> {
        let entry = self.entry(vm, gfn);
        (entry < UNMAPPED).then_some((Ppn(entry >> 1), entry & COW != 0))
    }

    /// The contents of a frame, if it exists.
    #[inline]
    pub fn frame_data(&self, ppn: Ppn) -> Option<&PageData> {
        self.frame(ppn).map(|f| &f.data)
    }

    /// Whether a frame is CoW-protected.
    fn is_cow(&self, ppn: Ppn) -> bool {
        self.frame(ppn).is_some_and(|f| self.frame_cow(f))
    }

    /// Marks a frame CoW-protected (write-protects all its mappings).
    ///
    /// # Panics
    ///
    /// Panics if the frame does not exist.
    pub fn cow_protect(&mut self, ppn: Ppn) {
        if self.frame(ppn).is_none() {
            panic!("cow_protect: frame {ppn} does not exist");
        }
        self.protect_mappings(ppn);
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
        let (ppn, cow) = self
            .translate_cow(vm, gfn)
            .unwrap_or_else(|| panic!("guest_write: ({vm}, {gfn}) is not mapped"));
        let frame = self.frame_mut(ppn).expect("mapped frame exists");
        assert!(
            offset + bytes.len() <= pageforge_types::PAGE_SIZE,
            "write overruns the page"
        );
        if cow {
            // Copy-on-write: give the writer a private copy. Like Linux KSM
            // pages, a CoW frame is *never* written in place — even a sole
            // mapper gets a fresh copy, keeping the merged (stable) frame
            // immutable for its whole lifetime.
            let mut copy = frame.data.clone();
            copy.as_bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
            frame.rmap.retain(|&m| m != (vm, gfn));
            let orphaned = frame.rmap.is_empty();
            self.stats.cow_breaks += 1;
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
                    epoch: self.epoch_counter,
                    version: self.version_counter,
                    rmap: vec![(vm, gfn)],
                },
            );
            // Repointing the writer's entry clears its CoW bit.
            self.set_mapping(vm, gfn, new_ppn, false);
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
    /// Only the guest entries whose bit changes are written: `drop`'s
    /// mappings, and `keep`'s own the first time `keep` is protected. A
    /// popular frame such as the zero page collects thousands of mappings,
    /// so re-marking its whole reverse map on every merge would be
    /// quadratic.
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
        if !self.is_cow(keep) {
            self.protect_mappings(keep);
        }
        for &(vm, gfn) in &dropped.rmap {
            self.set_mapping(vm, gfn, keep, true);
        }
        self.frame_mut(keep)
            .expect("checked above")
            .rmap
            .extend(dropped.rmap);
        self.free_list.push(drop);
        self.stats.merges += 1;
        self.stats.frames_freed_by_merge += 1;
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
        self.stats.allocated_frames
    }

    /// Number of guest pages currently mapped (the footprint *without*
    /// merging).
    pub fn mapped_guest_pages(&self) -> usize {
        self.stats.mapped_guest_pages
    }

    /// Iterates over all allocated frames in frame-number order, with
    /// each frame's CoW bit.
    pub fn iter_frames(&self) -> impl Iterator<Item = (Ppn, &PageData, bool)> {
        self.frames.iter().enumerate().filter_map(|(p, slot)| {
            slot.as_ref()
                .map(|f| (Ppn(p as u64), &f.data, self.frame_cow(f)))
        })
    }

    /// Iterates over all guest mappings in (VM, GFN) order.
    pub fn iter_mappings(&self) -> impl Iterator<Item = (VmId, Gfn, Ppn)> + '_ {
        self.guest.iter().enumerate().flat_map(|(vm, table)| {
            table
                .iter()
                .enumerate()
                .filter(|&(_, &entry)| entry < UNMAPPED)
                .map(move |(gfn, &entry)| (VmId(vm as u32), Gfn(gfn as u64), Ppn(entry >> 1)))
        })
    }

    /// Snapshot of the footprint and the cumulative merge counters.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// Writes the cumulative merge counters plus point-in-time footprint
    /// gauges into `out` (`mem.*` namespace).
    pub fn export_metrics(&self, out: &mut Registry) {
        let s = &self.stats;
        for (name, v) in [
            ("mem.merges", s.merges),
            ("mem.cow_breaks", s.cow_breaks),
            ("mem.frames_freed_by_merge", s.frames_freed_by_merge),
        ] {
            out.counter(name, v);
        }
        out.gauge("mem.allocated_frames", self.allocated_frames() as f64);
        out.gauge("mem.mapped_guest_pages", self.mapped_guest_pages() as f64);
    }

    /// Checks internal invariants; used by tests and the end-of-run audit.
    ///
    /// Invariants:
    /// 1. every guest mapping points at an allocated frame whose rmap
    ///    contains it;
    /// 2. every rmap entry is a live guest mapping pointing back at the
    ///    frame;
    /// 3. no frame has an empty rmap;
    /// 4. all mappings of a frame carry the same CoW bit;
    /// 5. no unmapped guest entry carries a CoW bit.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (v, table) in self.guest.iter().enumerate() {
            for (g, &entry) in table.iter().enumerate() {
                if entry > UNMAPPED {
                    return Err(format!(
                        "unmapped entry ({},{}) carries the CoW bit",
                        VmId(v as u32),
                        Gfn(g as u64)
                    ));
                }
            }
        }
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
            let Some(&(vm0, gfn0)) = frame.rmap.first() else {
                return Err(format!("frame {ppn} has an empty rmap"));
            };
            let cow = self.entry(vm0, gfn0) & COW;
            for &(vm, gfn) in &frame.rmap {
                if self.translate(vm, gfn) != Some(ppn) {
                    return Err(format!("rmap entry ({vm},{gfn}) of {ppn} is stale"));
                }
                if self.entry(vm, gfn) & COW != cow {
                    return Err(format!(
                        "mapping ({vm},{gfn}) of {ppn} has CoW bit {} but ({vm0},{gfn0}) has {cow}",
                        cow ^ COW
                    ));
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

    /// Number of guest pages mapping a frame (0 if it does not exist).
    fn refcount(mem: &HostMemory, ppn: Ppn) -> usize {
        mem.frame(ppn).map_or(0, |f| f.rmap.len())
    }

    #[test]
    fn map_and_translate() {
        let mut mem = HostMemory::new();
        let p = mem.map_new_page(VmId(0), Gfn(1), page(1));
        assert_eq!(mem.translate(VmId(0), Gfn(1)), Some(p));
        assert_eq!(mem.translate(VmId(0), Gfn(2)), None);
        assert_eq!(mem.frame_data(p), Some(&page(1)));
        assert_eq!(refcount(&mem, p), 1);
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
        assert_eq!(refcount(&mem, a), 2);
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
        assert_eq!(refcount(&mem, a), 1);
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
        assert_eq!(refcount(&mem, a), 3);
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
    fn a_flipped_cow_bit_is_named() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(7));
        let b = mem.map_new_page(VmId(1), Gfn(3), page(7));
        mem.map_new_page(VmId(1), Gfn(5), page(1));
        mem.merge_into(a, b).unwrap();
        mem.unmap(VmId(1), Gfn(5));
        mem.check_invariants().unwrap();

        // One mapping of the shared frame loses its bit.
        let mut broken = mem.clone();
        broken.guest[1][3] ^= COW;
        let err = broken.check_invariants().unwrap_err();
        assert!(
            err.contains("mapping (vm1,0x3)") && err.contains("CoW bit 0"),
            "{err}"
        );

        // An unmapped entry gains one.
        let mut broken = mem.clone();
        broken.guest[1][5] ^= COW;
        let err = broken.check_invariants().unwrap_err();
        assert!(err.contains("unmapped entry (vm1,0x5)"), "{err}");
    }

    /// A seeded sequence of maps, merges, protections, writes and unmaps
    /// keeps every guest entry's frame and CoW bit equal to a reference
    /// model: a map of the mappings plus the set of protected frames.
    #[test]
    fn cow_bits_match_a_reference_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};

        const VMS: u32 = 3;
        const GFNS: u64 = 12;
        let (mut merges, mut breaks) = (0, 0);
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mem = HostMemory::new();
            let mut model: BTreeMap<(VmId, Gfn), Ppn> = BTreeMap::new();
            let mut protected: BTreeSet<Ppn> = BTreeSet::new();
            for step in 0..400 {
                let vm = VmId(rng.gen_range(0..VMS));
                let gfn = Gfn(rng.gen_range(0..GFNS));
                let frames: Vec<Ppn> = model.values().copied().collect();
                match rng.gen_range(0u32..10) {
                    0..=2 => {
                        if let std::collections::btree_map::Entry::Vacant(e) =
                            model.entry((vm, gfn))
                        {
                            let ppn = mem.map_new_page(vm, gfn, page(rng.gen_range(0..3)));
                            e.insert(ppn);
                            protected.remove(&ppn);
                        }
                    }
                    3..=5 if !frames.is_empty() => {
                        let keep = frames[rng.gen_range(0..frames.len())];
                        let drop = frames[rng.gen_range(0..frames.len())];
                        if mem.merge_into(keep, drop).is_ok() {
                            merges += 1;
                            for ppn in model.values_mut() {
                                if *ppn == drop {
                                    *ppn = keep;
                                }
                            }
                            protected.remove(&drop);
                            protected.insert(keep);
                        }
                    }
                    6 if !frames.is_empty() => {
                        let ppn = frames[rng.gen_range(0..frames.len())];
                        mem.cow_protect(ppn);
                        protected.insert(ppn);
                    }
                    7..=8 => {
                        if let Some(&old) = model.get(&(vm, gfn)) {
                            let outcome = mem.guest_write(vm, gfn, 0, &[rng.gen_range(0..3)]);
                            assert_eq!(outcome.broke_cow(), protected.contains(&old));
                            breaks += usize::from(outcome.broke_cow());
                            let new = outcome.frame();
                            model.insert((vm, gfn), new);
                            if new != old {
                                protected.remove(&new);
                                if !model.values().any(|&p| p == old) {
                                    protected.remove(&old);
                                }
                            }
                        }
                    }
                    _ => {
                        assert_eq!(mem.unmap(vm, gfn), model.remove(&(vm, gfn)));
                        protected.retain(|p| model.values().any(|q| q == p));
                    }
                }
                for v in 0..VMS {
                    for g in 0..GFNS {
                        let (vm, gfn) = (VmId(v), Gfn(g));
                        let want = model.get(&(vm, gfn)).copied();
                        let cow = want.map(|p| (p, protected.contains(&p)));
                        assert_eq!(mem.translate_cow(vm, gfn), cow, "seed {seed} step {step}");
                        assert_eq!(mem.translate(vm, gfn), want, "seed {seed} step {step}");
                    }
                }
                for p in 0..=mem.next_ppn {
                    let ppn = Ppn(p);
                    assert_eq!(
                        mem.is_cow(ppn),
                        protected.contains(&ppn),
                        "seed {seed} step {step}: {ppn}"
                    );
                }
                mem.check_invariants().unwrap();
            }
        }
        assert!(
            merges > 100 && breaks > 100,
            "{merges} merges, {breaks} CoW breaks"
        );
    }

    /// Merging n pages into one frame marks each mapping once: n bits in
    /// all, where re-marking the kept frame's reverse map on every merge
    /// would write n²/2.
    #[test]
    fn merging_n_pages_writes_n_cow_bits() {
        let n = 1000u32;
        let written = || COW_BITS_WRITTEN.with(std::cell::Cell::get);
        let before = written();
        let mut mem = HostMemory::new();
        let keep = mem.map_new_page(VmId(0), Gfn(0), page(0));
        for vm in 1..n {
            let p = mem.map_new_page(VmId(vm), Gfn(0), page(0));
            mem.merge_into(keep, p).unwrap();
        }
        assert_eq!(refcount(&mem, keep), n as usize);
        assert_eq!(written() - before, u64::from(n));
        assert!(mem.iter_frames().all(|(_, _, cow)| cow));
        mem.check_invariants().unwrap();
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
