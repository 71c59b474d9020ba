//! An arena-based red-black tree with caller-driven walks.
//!
//! KSM keeps its stable and unstable trees as Linux `rbtree`s, which expose
//! an *intrusive* API: the caller walks from the root comparing as it goes,
//! then links the new node and asks the tree to rebalance
//! (`rb_link_node` + `rb_insert_color`). That caller-driven style is exactly
//! what this reproduction needs, because every comparison during the walk is
//! a *page-content* comparison whose cost must be accounted, and because
//! PageForge's Scan Table is loaded with breadth-first slices of this very
//! tree (§3.4).
//!
//! This implementation stores nodes in a `Vec` arena with index links and a
//! sentinel NIL node (index 0), and provides full CLRS insert/delete
//! rebalancing. [`RbTree::check_invariants`] verifies the red-black
//! properties and is exercised by property tests.

use std::fmt;

/// The sentinel index: black, self-linked, never exposed.
const NIL: u32 = 0;

/// Handle to a live tree node. Never equal to the sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

/// Which child slot of a parent a new node should be linked into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Link as the left (smaller) child.
    Left,
    /// Link as the right (greater) child.
    Right,
}

#[derive(Debug, Clone)]
struct Node<T> {
    value: Option<T>,
    parent: u32,
    left: u32,
    right: u32,
    red: bool,
}

impl<T> Node<T> {
    fn vacant() -> Self {
        Node {
            value: None,
            parent: NIL,
            left: NIL,
            right: NIL,
            red: false,
        }
    }
}

/// A red-black tree over values of type `T`, ordered externally by the
/// caller's walks.
///
/// The tree never compares values itself: the caller walks with
/// [`root`](RbTree::root) / [`left`](RbTree::left) / [`right`](RbTree::right)
/// and links with [`insert_at`](RbTree::insert_at). This mirrors the Linux
/// rbtree API that KSM is written against.
///
/// # Examples
///
/// ```
/// use pageforge_ksm::rbtree::{RbTree, Side};
///
/// let mut t: RbTree<u32> = RbTree::new();
/// let root = t.insert_at(None, Side::Left, 50);
/// // Walk: 30 < 50, so it goes to the left of the root.
/// t.insert_at(Some(root), Side::Left, 30);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![30, 50]);
/// ```
#[derive(Clone)]
pub struct RbTree<T> {
    nodes: Vec<Node<T>>,
    root: u32,
    free: Vec<u32>,
    len: usize,
    /// Cumulative rotations performed by rebalancing (survives `clear`,
    /// like KSM's own work counters — it meters *work done*, not state).
    rotations: u64,
}

impl<T> Default for RbTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for RbTree<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RbTree")
            .field("len", &self.len)
            .field("inorder", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl<T> RbTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RbTree {
            nodes: vec![Node::vacant()], // sentinel at index 0
            root: NIL,
            free: Vec::new(),
            len: 0,
            rotations: 0,
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Cumulative rotations performed by rebalancing since construction
    /// (not reset by [`clear`](Self::clear)). A proxy for how much
    /// restructuring work the tree has cost — the paper's KSM analysis
    /// charges tree maintenance under "other" cycles.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Height of the tree: nodes on the longest root-to-leaf path
    /// (0 for an empty tree). O(n); intended for reporting, not hot paths.
    pub fn depth(&self) -> usize {
        let Some(root) = self.root() else {
            return 0;
        };
        let mut max = 0usize;
        let mut stack = vec![(root, 1usize)];
        while let Some((id, d)) = stack.pop() {
            max = max.max(d);
            if let Some(l) = self.left(id) {
                stack.push((l, d + 1));
            }
            if let Some(r) = self.right(id) {
                stack.push((r, d + 1));
            }
        }
        max
    }

    /// `true` when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all nodes. (KSM does this to the unstable tree at the end of
    /// every pass: "throw away and regenerate", Algorithm 1 line 27.)
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0] = Node::vacant();
        self.free.clear();
        self.root = NIL;
        self.len = 0;
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<NodeId> {
        self.wrap(self.root)
    }

    /// Left child of `id`.
    pub fn left(&self, id: NodeId) -> Option<NodeId> {
        self.wrap(self.nodes[id.0 as usize].left)
    }

    /// Right child of `id`.
    pub fn right(&self, id: NodeId) -> Option<NodeId> {
        self.wrap(self.nodes[id.0 as usize].right)
    }

    /// The value stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (already removed).
    pub fn value(&self, id: NodeId) -> &T {
        self.nodes[id.0 as usize]
            .value
            .as_ref()
            .expect("stale NodeId")
    }

    /// Whether `id` refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.nodes.len() && self.nodes[id.0 as usize].value.is_some()
    }

    fn wrap(&self, idx: u32) -> Option<NodeId> {
        if idx == NIL {
            None
        } else {
            Some(NodeId(idx))
        }
    }

    fn alloc(&mut self, value: T) -> u32 {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.nodes.push(Node::vacant());
                (self.nodes.len() - 1) as u32
            }
        };
        let node = &mut self.nodes[idx as usize];
        node.value = Some(value);
        node.parent = NIL;
        node.left = NIL;
        node.right = NIL;
        node.red = true;
        idx
    }

    /// Links `value` as the `side` child of `parent` and rebalances.
    /// With `parent == None` the value becomes the root of an empty tree.
    ///
    /// The caller must have walked to a genuine insertion point: the
    /// designated child slot must be empty.
    ///
    /// # Panics
    ///
    /// Panics if the child slot is occupied, or if `parent` is `None` on a
    /// non-empty tree.
    pub fn insert_at(&mut self, parent: Option<NodeId>, side: Side, value: T) -> NodeId {
        let z = self.alloc(value);
        match parent {
            None => {
                assert_eq!(self.root, NIL, "insert_at(None) on a non-empty tree");
                self.root = z;
            }
            Some(p) => {
                let p = p.0;
                let slot = match side {
                    Side::Left => &mut self.nodes[p as usize].left,
                    Side::Right => &mut self.nodes[p as usize].right,
                };
                assert_eq!(*slot, NIL, "insert_at: child slot is occupied");
                *slot = z;
                self.nodes[z as usize].parent = p;
            }
        }
        self.len += 1;
        self.insert_fixup(z);
        NodeId(z)
    }

    fn rotate_left(&mut self, x: u32) {
        self.rotations += 1;
        let y = self.nodes[x as usize].right;
        debug_assert_ne!(y, NIL);
        let y_left = self.nodes[y as usize].left;
        self.nodes[x as usize].right = y_left;
        if y_left != NIL {
            self.nodes[y_left as usize].parent = x;
        }
        let x_parent = self.nodes[x as usize].parent;
        self.nodes[y as usize].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent as usize].left == x {
            self.nodes[x_parent as usize].left = y;
        } else {
            self.nodes[x_parent as usize].right = y;
        }
        self.nodes[y as usize].left = x;
        self.nodes[x as usize].parent = y;
    }

    fn rotate_right(&mut self, x: u32) {
        self.rotations += 1;
        let y = self.nodes[x as usize].left;
        debug_assert_ne!(y, NIL);
        let y_right = self.nodes[y as usize].right;
        self.nodes[x as usize].left = y_right;
        if y_right != NIL {
            self.nodes[y_right as usize].parent = x;
        }
        let x_parent = self.nodes[x as usize].parent;
        self.nodes[y as usize].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent as usize].right == x {
            self.nodes[x_parent as usize].right = y;
        } else {
            self.nodes[x_parent as usize].left = y;
        }
        self.nodes[y as usize].right = x;
        self.nodes[x as usize].parent = y;
    }

    fn insert_fixup(&mut self, mut z: u32) {
        while self.nodes[self.nodes[z as usize].parent as usize].red {
            let p = self.nodes[z as usize].parent;
            let g = self.nodes[p as usize].parent;
            if p == self.nodes[g as usize].left {
                let u = self.nodes[g as usize].right;
                if self.nodes[u as usize].red {
                    self.nodes[p as usize].red = false;
                    self.nodes[u as usize].red = false;
                    self.nodes[g as usize].red = true;
                    z = g;
                } else {
                    if z == self.nodes[p as usize].right {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.nodes[z as usize].parent;
                    let g = self.nodes[p as usize].parent;
                    self.nodes[p as usize].red = false;
                    self.nodes[g as usize].red = true;
                    self.rotate_right(g);
                }
            } else {
                let u = self.nodes[g as usize].left;
                if self.nodes[u as usize].red {
                    self.nodes[p as usize].red = false;
                    self.nodes[u as usize].red = false;
                    self.nodes[g as usize].red = true;
                    z = g;
                } else {
                    if z == self.nodes[p as usize].left {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.nodes[z as usize].parent;
                    let g = self.nodes[p as usize].parent;
                    self.nodes[p as usize].red = false;
                    self.nodes[g as usize].red = true;
                    self.rotate_left(g);
                }
            }
        }
        let root = self.root;
        self.nodes[root as usize].red = false;
        self.nodes[NIL as usize].red = false; // fixups may sniff the sentinel
    }

    fn transplant(&mut self, u: u32, v: u32) {
        let up = self.nodes[u as usize].parent;
        if up == NIL {
            self.root = v;
        } else if self.nodes[up as usize].left == u {
            self.nodes[up as usize].left = v;
        } else {
            self.nodes[up as usize].right = v;
        }
        // Sentinel trick: v may be NIL; we still record its parent so
        // delete_fixup can navigate from it.
        self.nodes[v as usize].parent = up;
    }

    fn minimum(&self, mut x: u32) -> u32 {
        while self.nodes[x as usize].left != NIL {
            x = self.nodes[x as usize].left;
        }
        x
    }

    /// Removes node `id` and returns its value, rebalancing as needed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn remove(&mut self, id: NodeId) -> T {
        let z = id.0;
        assert!(
            self.nodes[z as usize].value.is_some(),
            "remove: stale NodeId"
        );
        let mut y = z;
        let mut y_was_red = self.nodes[y as usize].red;
        let x;
        if self.nodes[z as usize].left == NIL {
            x = self.nodes[z as usize].right;
            self.transplant(z, x);
        } else if self.nodes[z as usize].right == NIL {
            x = self.nodes[z as usize].left;
            self.transplant(z, x);
        } else {
            y = self.minimum(self.nodes[z as usize].right);
            y_was_red = self.nodes[y as usize].red;
            x = self.nodes[y as usize].right;
            if self.nodes[y as usize].parent == z {
                self.nodes[x as usize].parent = y;
            } else {
                self.transplant(y, x);
                let zr = self.nodes[z as usize].right;
                self.nodes[y as usize].right = zr;
                self.nodes[zr as usize].parent = y;
            }
            self.transplant(z, y);
            let zl = self.nodes[z as usize].left;
            self.nodes[y as usize].left = zl;
            self.nodes[zl as usize].parent = y;
            self.nodes[y as usize].red = self.nodes[z as usize].red;
        }
        if !y_was_red {
            self.delete_fixup(x);
        }
        // Reset the sentinel's links, which the fixup may have dirtied.
        self.nodes[NIL as usize].parent = NIL;
        self.nodes[NIL as usize].red = false;

        let value = self.nodes[z as usize].value.take().expect("checked above");
        self.nodes[z as usize] = Node::vacant();
        self.free.push(z);
        self.len -= 1;
        value
    }

    fn delete_fixup(&mut self, mut x: u32) {
        while x != self.root && !self.nodes[x as usize].red {
            let p = self.nodes[x as usize].parent;
            if x == self.nodes[p as usize].left {
                let mut w = self.nodes[p as usize].right;
                if self.nodes[w as usize].red {
                    self.nodes[w as usize].red = false;
                    self.nodes[p as usize].red = true;
                    self.rotate_left(p);
                    w = self.nodes[self.nodes[x as usize].parent as usize].right;
                }
                let wl = self.nodes[w as usize].left;
                let wr = self.nodes[w as usize].right;
                if !self.nodes[wl as usize].red && !self.nodes[wr as usize].red {
                    self.nodes[w as usize].red = true;
                    x = self.nodes[x as usize].parent;
                } else {
                    if !self.nodes[wr as usize].red {
                        self.nodes[wl as usize].red = false;
                        self.nodes[w as usize].red = true;
                        self.rotate_right(w);
                        w = self.nodes[self.nodes[x as usize].parent as usize].right;
                    }
                    let p = self.nodes[x as usize].parent;
                    self.nodes[w as usize].red = self.nodes[p as usize].red;
                    self.nodes[p as usize].red = false;
                    let wr = self.nodes[w as usize].right;
                    self.nodes[wr as usize].red = false;
                    self.rotate_left(p);
                    x = self.root;
                }
            } else {
                let mut w = self.nodes[p as usize].left;
                if self.nodes[w as usize].red {
                    self.nodes[w as usize].red = false;
                    self.nodes[p as usize].red = true;
                    self.rotate_right(p);
                    w = self.nodes[self.nodes[x as usize].parent as usize].left;
                }
                let wl = self.nodes[w as usize].left;
                let wr = self.nodes[w as usize].right;
                if !self.nodes[wl as usize].red && !self.nodes[wr as usize].red {
                    self.nodes[w as usize].red = true;
                    x = self.nodes[x as usize].parent;
                } else {
                    if !self.nodes[wl as usize].red {
                        self.nodes[wr as usize].red = false;
                        self.nodes[w as usize].red = true;
                        self.rotate_left(w);
                        w = self.nodes[self.nodes[x as usize].parent as usize].left;
                    }
                    let p = self.nodes[x as usize].parent;
                    self.nodes[w as usize].red = self.nodes[p as usize].red;
                    self.nodes[p as usize].red = false;
                    let wl = self.nodes[w as usize].left;
                    self.nodes[wl as usize].red = false;
                    self.rotate_right(p);
                    x = self.root;
                }
            }
        }
        self.nodes[x as usize].red = false;
    }

    /// In-order iterator over the values.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL {
            stack.push(cur);
            cur = self.nodes[cur as usize].left;
        }
        Iter { tree: self, stack }
    }

    /// Breadth-first traversal of the first `max_nodes` nodes starting at
    /// `start` — the slice of the tree the OS loads into PageForge's Scan
    /// Table (§3.4: "the root of the red-black tree... and a few subsequent
    /// levels of the tree in breadth-first order").
    pub fn bfs_from(&self, start: NodeId, max_nodes: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(max_nodes);
        self.bfs_from_into(start, max_nodes, &mut out);
        out
    }

    /// [`bfs_from`](Self::bfs_from) into a caller-owned buffer, clearing
    /// it first. The Scan Table loader refills thousands of times per
    /// scan round; reusing one buffer keeps that loop allocation-free.
    /// The output doubles as the BFS work queue — visited nodes are never
    /// removed, so the prefix *is* the traversal.
    pub fn bfs_from_into(&self, start: NodeId, max_nodes: usize, out: &mut Vec<NodeId>) {
        out.clear();
        if self.contains(start) && max_nodes > 0 {
            out.push(start);
        }
        let mut i = 0;
        while let Some(&n) = out.get(i) {
            if out.len() < max_nodes {
                if let Some(l) = self.left(n) {
                    out.push(l);
                }
            }
            if out.len() < max_nodes {
                if let Some(r) = self.right(n) {
                    out.push(r);
                }
            }
            i += 1;
        }
    }

    /// Verifies the red-black invariants and link consistency.
    ///
    /// Checks: the root is black; no red node has a red child; every
    /// root-to-leaf path has the same black height; parent/child links are
    /// mutually consistent; `len` matches the reachable node count.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.root != NIL {
            if self.nodes[self.root as usize].red {
                return Err("root is red".into());
            }
            if self.nodes[self.root as usize].parent != NIL {
                return Err("root has a parent".into());
            }
        }
        let mut count = 0usize;
        self.check_subtree(self.root, &mut count)?;
        if count != self.len {
            return Err(format!("len {} but {} reachable nodes", self.len, count));
        }
        Ok(())
    }

    /// Returns the black height of the subtree, checking invariants.
    fn check_subtree(&self, x: u32, count: &mut usize) -> Result<u32, String> {
        if x == NIL {
            return Ok(1);
        }
        *count += 1;
        let node = &self.nodes[x as usize];
        if node.value.is_none() {
            return Err(format!("reachable node {x} is vacant"));
        }
        for child in [node.left, node.right] {
            if child != NIL {
                if self.nodes[child as usize].parent != x {
                    return Err(format!("child {child} of {x} has wrong parent"));
                }
                if node.red && self.nodes[child as usize].red {
                    return Err(format!("red node {x} has red child {child}"));
                }
            }
        }
        let lh = self.check_subtree(node.left, count)?;
        let rh = self.check_subtree(node.right, count)?;
        if lh != rh {
            return Err(format!("black-height mismatch at {x}: {lh} vs {rh}"));
        }
        Ok(lh + u32::from(!node.red))
    }
}

/// In-order value iterator. Created by [`RbTree::iter`].
pub struct Iter<'a, T> {
    tree: &'a RbTree<T>,
    stack: Vec<u32>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let cur = self.stack.pop()?;
        let mut next = self.tree.nodes[cur as usize].right;
        while next != NIL {
            self.stack.push(next);
            next = self.tree.nodes[next as usize].left;
        }
        self.tree.nodes[cur as usize].value.as_ref()
    }
}

/// Convenience: ordered insert for `T: Ord`, used by tests and by callers
/// that don't need cost accounting.
impl<T: Ord> RbTree<T> {
    /// Inserts `value` by its `Ord`, allowing duplicates (placed right).
    pub fn insert_ord(&mut self, value: T) -> NodeId {
        let mut parent = None;
        let mut cur = self.root();
        let mut side = Side::Left;
        while let Some(n) = cur {
            parent = Some(n);
            if value < *self.value(n) {
                side = Side::Left;
                cur = self.left(n);
            } else {
                side = Side::Right;
                cur = self.right(n);
            }
        }
        self.insert_at(parent, side, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: RbTree<i32> = RbTree::new();
        assert!(t.is_empty());
        assert_eq!(t.root(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn single_insert() {
        let mut t = RbTree::new();
        let id = t.insert_at(None, Side::Left, 42);
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), Some(id));
        assert_eq!(*t.value(id), 42);
        t.check_invariants().unwrap();
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut t = RbTree::new();
        for i in 0..1000 {
            t.insert_ord(i);
            if i % 97 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        let inorder: Vec<_> = t.iter().copied().collect();
        let expected: Vec<_> = (0..1000).collect();
        assert_eq!(inorder, expected);
        // Balanced: depth of a 1000-node RB tree is at most 2*log2(1001).
        let max_depth = t.depth();
        assert!(max_depth <= 20, "depth {max_depth}");
    }

    #[test]
    fn remove_leaf_and_internal() {
        let mut t = RbTree::new();
        let ids: Vec<_> = (0..7).map(|i| t.insert_ord(i)).collect();
        assert_eq!(t.remove(ids[0]), 0);
        t.check_invariants().unwrap();
        assert_eq!(t.remove(ids[3]), 3);
        t.check_invariants().unwrap();
        let inorder: Vec<_> = t.iter().copied().collect();
        assert_eq!(inorder, vec![1, 2, 4, 5, 6]);
    }

    #[test]
    fn remove_all_in_insertion_order() {
        let mut t = RbTree::new();
        let ids: Vec<_> = (0..200).map(|i| t.insert_ord((i * 37) % 200)).collect();
        for (k, id) in ids.into_iter().enumerate() {
            t.remove(id);
            if k % 13 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn clear_resets() {
        let mut t = RbTree::new();
        for i in 0..50 {
            t.insert_ord(i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.root(), None);
        t.check_invariants().unwrap();
        // Usable after clear.
        t.insert_ord(1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut t = RbTree::new();
        let a = t.insert_ord(1);
        t.remove(a);
        let b = t.insert_ord(2);
        assert_eq!(a, b, "arena slot should be recycled");
    }

    #[test]
    #[should_panic(expected = "stale NodeId")]
    fn stale_handle_panics() {
        let mut t = RbTree::new();
        let a = t.insert_ord(1);
        t.remove(a);
        let _ = t.value(a);
    }

    #[test]
    #[should_panic(expected = "child slot is occupied")]
    fn double_link_panics() {
        let mut t = RbTree::new();
        let root = t.insert_at(None, Side::Left, 10);
        t.insert_at(Some(root), Side::Left, 5);
        t.insert_at(Some(root), Side::Left, 6);
    }

    #[test]
    fn bfs_returns_levels_in_order() {
        let mut t = RbTree::new();
        for i in 0..15 {
            t.insert_ord(i);
        }
        let root = t.root().unwrap();
        let bfs = t.bfs_from(root, 7);
        assert_eq!(bfs.len(), 7);
        assert_eq!(bfs[0], root);
        // Children of the root come next.
        let mut expected_next: Vec<_> = [t.left(root), t.right(root)]
            .into_iter()
            .flatten()
            .collect();
        expected_next.sort_by_key(|n| n.0);
        let mut got_next = vec![bfs[1], bfs[2]];
        got_next.sort_by_key(|n| n.0);
        assert_eq!(got_next, expected_next);
    }

    #[test]
    fn bfs_caps_at_tree_size() {
        let mut t = RbTree::new();
        for i in 0..3 {
            t.insert_ord(i);
        }
        let bfs = t.bfs_from(t.root().unwrap(), 31);
        assert_eq!(bfs.len(), 3);
    }
}
