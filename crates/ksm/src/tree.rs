//! Content-indexed page trees: the KSM *stable* and *unstable* trees.
//!
//! Both trees are red-black trees "indexed by the contents of the page"
//! (§2.1): walking left when the probe page compares smaller than the node's
//! page and right when it compares greater. Nodes do not store page
//! contents — they store frame references, and every visit re-reads the
//! frame through [`HostMemory`], charging the comparison cost to the
//! caller's [`KsmWork`] record.
//!
//! Unstable-tree nodes are not write-protected, so their pages may change or
//! vanish; stale nodes are detected via allocation epochs and pruned during
//! walks, as the kernel does.

use pageforge_types::{Gfn, PageData, Ppn, VmId};
use pageforge_vm::HostMemory;

use crate::cost::KsmWork;
use crate::rbtree::{NodeId, RbTree, Side};

/// A reference to a guest page held in a tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRef {
    /// The host frame at insertion time.
    pub ppn: Ppn,
    /// The frame's allocation epoch at insertion time (stale detection).
    pub epoch: u64,
    /// A guest mapping of the frame at insertion time.
    pub vm: VmId,
    /// See `vm`.
    pub gfn: Gfn,
}

impl PageRef {
    /// Captures a reference to the frame currently backing `(vm, gfn)`.
    ///
    /// Returns `None` if the guest page is unmapped.
    pub fn capture(mem: &HostMemory, vm: VmId, gfn: Gfn) -> Option<PageRef> {
        let ppn = mem.translate(vm, gfn)?;
        let epoch = mem.frame_epoch(ppn)?;
        Some(PageRef {
            ppn,
            epoch,
            vm,
            gfn,
        })
    }
}

/// Which of KSM's two trees this is; controls node validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Merged, CoW-protected pages. A node is valid while its frame is
    /// still the same allocation (contents are immutable under CoW).
    Stable,
    /// Scanned-but-unmerged pages. A node is valid while the captured
    /// guest mapping still points at the same allocation; contents may
    /// have changed (that is what makes the tree unstable).
    Unstable,
}

/// Result of [`PageTree::search_or_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchInsert {
    /// A node with identical content was found.
    FoundEqual(NodeId),
    /// No equal node; the probe was inserted and its new node returned.
    Inserted(NodeId),
}

/// A content-indexed red-black tree of page references.
#[derive(Debug, Clone)]
pub struct PageTree {
    tree: RbTree<PageRef>,
    kind: TreeKind,
    stale_pruned: u64,
}

impl PageTree {
    /// Creates an empty tree of the given kind.
    pub fn new(kind: TreeKind) -> Self {
        PageTree {
            tree: RbTree::new(),
            kind,
            stale_pruned: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The tree kind.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// Stale nodes pruned during walks, cumulative.
    pub fn stale_pruned(&self) -> u64 {
        self.stale_pruned
    }

    /// Height of the tree: nodes on the longest root-to-leaf path.
    pub fn depth(&self) -> usize {
        self.tree.depth()
    }

    /// Cumulative rebalancing rotations (survives [`clear`](Self::clear)).
    pub fn rotations(&self) -> u64 {
        self.tree.rotations()
    }

    /// Drops every node (the per-pass unstable reset).
    pub fn clear(&mut self) {
        self.tree.clear();
    }

    /// Read-only access to the underlying red-black tree, for callers that
    /// drive their own traversals (the PageForge Scan Table loader walks
    /// this in breadth-first order).
    pub fn raw(&self) -> &RbTree<PageRef> {
        &self.tree
    }

    /// Whether the referenced page is still the one the node captured.
    #[inline]
    pub fn node_is_valid(&self, mem: &HostMemory, node: &PageRef) -> bool {
        match self.kind {
            TreeKind::Stable => mem.frame_epoch(node.ppn) == Some(node.epoch),
            TreeKind::Unstable => {
                mem.frame_epoch(node.ppn) == Some(node.epoch)
                    && mem.translate(node.vm, node.gfn) == Some(node.ppn)
            }
        }
    }

    /// Removes a node by handle (e.g. after an unstable-tree merge).
    pub fn remove(&mut self, id: NodeId) -> PageRef {
        self.tree.remove(id)
    }

    /// Links `me` at an externally-determined position (the PageForge OS
    /// driver learns insertion points from the hardware walk, so it never
    /// re-compares pages in software). The caller guarantees the position
    /// is content-correct.
    ///
    /// # Panics
    ///
    /// Panics if the child slot is occupied or `parent` is `None` on a
    /// non-empty tree.
    pub fn insert_at(&mut self, parent: Option<NodeId>, side: Side, me: PageRef) -> NodeId {
        self.tree.insert_at(parent, side, me)
    }

    /// Prunes a node the caller observed to be stale. Counted like walk
    /// pruning.
    pub fn prune(&mut self, id: NodeId) -> PageRef {
        self.stale_pruned += 1;
        self.tree.remove(id)
    }

    /// The page reference stored at `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &PageRef {
        self.tree.value(id)
    }

    /// Searches for a node whose page content equals `probe`, pruning stale
    /// nodes along the way. Comparison costs are charged to `work`.
    pub fn search(
        &mut self,
        mem: &HostMemory,
        probe: &PageData,
        probe_ppn: Ppn,
        work: &mut KsmWork,
    ) -> Option<NodeId> {
        match self.walk(mem, probe, probe_ppn, work) {
            WalkEnd::Equal(id) => Some(id),
            WalkEnd::Leaf { .. } => None,
        }
    }

    /// Searches for an equal node; if none exists, inserts `me` at the
    /// position the walk reached.
    pub fn search_or_insert(
        &mut self,
        mem: &HostMemory,
        probe: &PageData,
        probe_ppn: Ppn,
        me: PageRef,
        work: &mut KsmWork,
    ) -> SearchInsert {
        match self.walk(mem, probe, probe_ppn, work) {
            WalkEnd::Equal(id) => SearchInsert::FoundEqual(id),
            WalkEnd::Leaf { parent, side } => {
                work.tree_ops += 1;
                SearchInsert::Inserted(self.tree.insert_at(parent, side, me))
            }
        }
    }

    /// Inserts `me` unconditionally at its content position (used when
    /// promoting a freshly merged page into the stable tree). If an equal
    /// node already exists, returns it instead of inserting a duplicate.
    pub fn insert(
        &mut self,
        mem: &HostMemory,
        probe: &PageData,
        me: PageRef,
        work: &mut KsmWork,
    ) -> NodeId {
        match self.search_or_insert(mem, probe, me.ppn, me, work) {
            SearchInsert::FoundEqual(id) | SearchInsert::Inserted(id) => id,
        }
    }

    /// Core walk: descends by content comparison, restarting after pruning
    /// a stale node. Terminates because every restart strictly shrinks the
    /// tree.
    fn walk(
        &mut self,
        mem: &HostMemory,
        probe: &PageData,
        probe_ppn: Ppn,
        work: &mut KsmWork,
    ) -> WalkEnd {
        'restart: loop {
            let mut parent = None;
            let mut side = Side::Left;
            let mut cur = self.tree.root();
            while let Some(id) = cur {
                work.tree_ops += 1;
                let node = *self.tree.value(id);
                if !self.node_is_valid(mem, &node) {
                    self.tree.remove(id);
                    self.stale_pruned += 1;
                    continue 'restart;
                }
                let node_data = mem.frame_data(node.ppn).expect("valid node frame exists");
                // Charge the byte-by-byte comparison: both pages stream
                // through the core's caches up to the diverging byte. One
                // fused pass yields the ordering and the byte count.
                let (ordering, bytes) = probe.cmp_and_bytes_examined(node_data);
                let lines = (bytes as u32).div_ceil(64);
                work.comparisons += 1;
                work.cmp_bytes += bytes as u64;
                work.touched.push((node.ppn, lines));
                work.touched.push((probe_ppn, lines));
                match ordering {
                    std::cmp::Ordering::Less => {
                        parent = Some(id);
                        side = Side::Left;
                        cur = self.tree.left(id);
                    }
                    std::cmp::Ordering::Greater => {
                        parent = Some(id);
                        side = Side::Right;
                        cur = self.tree.right(id);
                    }
                    std::cmp::Ordering::Equal => return WalkEnd::Equal(id),
                }
            }
            return WalkEnd::Leaf { parent, side };
        }
    }
}

enum WalkEnd {
    Equal(NodeId),
    Leaf { parent: Option<NodeId>, side: Side },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> PageData {
        PageData::from_fn(|i| b.wrapping_add((i % 3) as u8))
    }

    fn setup(pages: &[u8]) -> (HostMemory, Vec<(VmId, Gfn, Ppn)>) {
        let mut mem = HostMemory::new();
        let mut refs = Vec::new();
        for (i, &b) in pages.iter().enumerate() {
            let vm = VmId(0);
            let gfn = Gfn(i as u64);
            let ppn = mem.map_new_page(vm, gfn, page(b));
            refs.push((vm, gfn, ppn));
        }
        (mem, refs)
    }

    fn insert_all(tree: &mut PageTree, mem: &HostMemory, refs: &[(VmId, Gfn, Ppn)]) {
        let mut work = KsmWork::new();
        for &(vm, gfn, ppn) in refs {
            let me = PageRef::capture(mem, vm, gfn).unwrap();
            let data = mem.frame_data(ppn).unwrap().clone();
            tree.search_or_insert(mem, &data, ppn, me, &mut work);
        }
    }

    #[test]
    fn search_finds_equal_content() {
        let (mut mem, refs) = setup(&[10, 20, 30, 40, 50]);
        let mut tree = PageTree::new(TreeKind::Unstable);
        insert_all(&mut tree, &mem, &refs);
        assert_eq!(tree.len(), 5);
        // A new page equal to content 30 must be found.
        let probe_ppn = mem.map_new_page(VmId(1), Gfn(0), page(30));
        let probe = mem.frame_data(probe_ppn).unwrap().clone();
        let mut work = KsmWork::new();
        let hit = tree.search(&mem, &probe, probe_ppn, &mut work);
        assert!(hit.is_some());
        assert_eq!(mem.frame_data(tree.node(hit.unwrap()).ppn).unwrap(), &probe);
        assert!(work.comparisons >= 1);
        assert!(work.cmp_bytes >= 4096, "full compare on the equal node");
    }

    #[test]
    fn search_misses_absent_content() {
        let (mut mem, refs) = setup(&[10, 20, 30]);
        let mut tree = PageTree::new(TreeKind::Unstable);
        insert_all(&mut tree, &mem, &refs);
        let probe_ppn = mem.map_new_page(VmId(1), Gfn(0), page(25));
        let probe = mem.frame_data(probe_ppn).unwrap().clone();
        let mut work = KsmWork::new();
        assert_eq!(tree.search(&mem, &probe, probe_ppn, &mut work), None);
    }

    #[test]
    fn search_or_insert_inserts_once() {
        let (mem, _) = setup(&[]);
        let mut mem = mem;
        let ppn = mem.map_new_page(VmId(0), Gfn(0), page(1));
        let me = PageRef::capture(&mem, VmId(0), Gfn(0)).unwrap();
        let data = mem.frame_data(ppn).unwrap().clone();
        let mut tree = PageTree::new(TreeKind::Unstable);
        let mut work = KsmWork::new();
        let first = tree.search_or_insert(&mem, &data, ppn, me, &mut work);
        assert!(matches!(first, SearchInsert::Inserted(_)));
        let second = tree.search_or_insert(&mem, &data, ppn, me, &mut work);
        assert!(matches!(second, SearchInsert::FoundEqual(_)));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn unstable_node_goes_stale_on_cow_break() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(5));
        let b = mem.map_new_page(VmId(1), Gfn(0), page(5));
        let mut tree = PageTree::new(TreeKind::Unstable);
        let me = PageRef::capture(&mem, VmId(0), Gfn(0)).unwrap();
        let data = mem.frame_data(a).unwrap().clone();
        let mut work = KsmWork::new();
        tree.search_or_insert(&mem, &data, a, me, &mut work);
        // Merge a and b, then the node's captured frame is gone (freed).
        mem.merge_into(b, a).unwrap();
        let node = *tree.node(tree.raw().root().unwrap());
        assert!(!tree.node_is_valid(&mem, &node));
        // A subsequent search prunes it.
        let probe_ppn = mem.map_new_page(VmId(2), Gfn(0), page(5));
        let probe = mem.frame_data(probe_ppn).unwrap().clone();
        let hit = tree.search(&mem, &probe, probe_ppn, &mut work);
        assert_eq!(hit, None);
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.stale_pruned(), 1);
    }

    #[test]
    fn unstable_node_tolerates_content_change() {
        // Content changes do NOT make an unstable node stale — the mapping
        // is intact; the tree is simply mis-ordered (that's why it is
        // "unstable" and rebuilt every pass).
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(5));
        let mut tree = PageTree::new(TreeKind::Unstable);
        let me = PageRef::capture(&mem, VmId(0), Gfn(0)).unwrap();
        let data = mem.frame_data(a).unwrap().clone();
        let mut work = KsmWork::new();
        tree.search_or_insert(&mem, &data, a, me, &mut work);
        mem.guest_write(VmId(0), Gfn(0), 0, &[0xFF]);
        let node = *tree.node(tree.raw().root().unwrap());
        assert!(tree.node_is_valid(&mem, &node));
    }

    #[test]
    fn stable_node_valid_while_frame_lives() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), page(5));
        let b = mem.map_new_page(VmId(1), Gfn(0), page(5));
        mem.merge_into(a, b).unwrap();
        let mut tree = PageTree::new(TreeKind::Stable);
        let me = PageRef::capture(&mem, VmId(0), Gfn(0)).unwrap();
        let data = mem.frame_data(a).unwrap().clone();
        let mut work = KsmWork::new();
        tree.search_or_insert(&mem, &data, a, me, &mut work);
        let node = *tree.node(tree.raw().root().unwrap());
        assert!(tree.node_is_valid(&mem, &node));
        // One mapper breaks off: frame still lives, node still valid.
        mem.guest_write(VmId(0), Gfn(0), 0, &[9]);
        assert!(tree.node_is_valid(&mem, &node));
        // Last mapper breaks off: frame freed, node stale.
        mem.guest_write(VmId(1), Gfn(0), 0, &[9]);
        assert!(!tree.node_is_valid(&mem, &node));
    }

    #[test]
    fn walk_costs_scale_with_divergence_point() {
        let mut mem = HostMemory::new();
        // Two pages diverging at the very first byte.
        let a = mem.map_new_page(VmId(0), Gfn(0), PageData::from_fn(|_| 1));
        let mut tree = PageTree::new(TreeKind::Unstable);
        let me = PageRef::capture(&mem, VmId(0), Gfn(0)).unwrap();
        let data = mem.frame_data(a).unwrap().clone();
        let mut work = KsmWork::new();
        tree.search_or_insert(&mem, &data, a, me, &mut work);

        let probe_ppn = mem.map_new_page(VmId(1), Gfn(0), PageData::from_fn(|_| 2));
        let probe = mem.frame_data(probe_ppn).unwrap().clone();
        let mut cheap = KsmWork::new();
        tree.search(&mem, &probe, probe_ppn, &mut cheap);
        assert_eq!(cheap.cmp_bytes, 1, "diverges at byte 0 → 1 byte examined");

        // A page diverging only in the last byte costs a full page compare.
        let mut late = PageData::from_fn(|_| 1);
        late.as_bytes_mut()[4095] = 0;
        let late_ppn = mem.map_new_page(VmId(2), Gfn(0), late.clone());
        let mut expensive = KsmWork::new();
        tree.search(&mem, &late, late_ppn, &mut expensive);
        assert_eq!(expensive.cmp_bytes, 4096);
    }

    #[test]
    fn clear_empties_tree() {
        let (mem, refs) = setup(&[1, 2, 3]);
        let mut tree = PageTree::new(TreeKind::Unstable);
        insert_all(&mut tree, &mem, &refs);
        tree.clear();
        assert!(tree.is_empty());
    }
}
