//! Cycle-cost accounting for the software merging path.
//!
//! The simulator charges KSM's work to a core. Table 4 of the paper breaks
//! the KSM process down into page comparison (~52% of its cycles), hash-key
//! generation (~15%), and everything else (tree bookkeeping, mapping
//! updates, scheduling). [`CostModel`] converts the raw work counts
//! accumulated in [`KsmWork`] into that cycle breakdown; its defaults are
//! calibrated so a steady-state TailBench-like scan reproduces the paper's
//! proportions.

use pageforge_types::{Cycle, Ppn};

/// Raw work performed during a scan batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KsmWork {
    /// Candidate pages processed.
    pub candidates: u64,
    /// Pairwise page comparisons performed (tree walks).
    pub comparisons: u64,
    /// Bytes examined by those comparisons (memcmp stops at the first
    /// diverging byte).
    pub cmp_bytes: u64,
    /// Hash keys computed.
    pub hash_ops: u64,
    /// Bytes hashed (1 KB per jhash key).
    pub hash_bytes: u64,
    /// Tree nodes visited (walk steps, inserts, removals).
    pub tree_ops: u64,
    /// Pages merged.
    pub merges: u64,
    /// Distinct (frame, lines-touched) records for cache-pollution
    /// modeling: each record means the first `lines` cache lines of `ppn`
    /// passed through the core's cache hierarchy.
    pub touched: Vec<(Ppn, u32)>,
}

impl KsmWork {
    /// Creates an empty work record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another record's counters into this one. `touched` is not
    /// carried over: the simulator replays each batch's own list, and a
    /// cumulative one would grow for the whole run with no reader.
    pub fn absorb(&mut self, other: &KsmWork) {
        self.candidates += other.candidates;
        self.comparisons += other.comparisons;
        self.cmp_bytes += other.cmp_bytes;
        self.hash_ops += other.hash_ops;
        self.hash_bytes += other.hash_bytes;
        self.tree_ops += other.tree_ops;
        self.merges += other.merges;
    }
}

/// Converts [`KsmWork`] into cycles on a 2 GHz single-issue core.
///
/// Defaults: `memcmp` sustains ~4 B/cycle (loads + compare + branches on
/// uncached data), jhash ~2.2 B/cycle, and each tree visit /
/// candidate / merge carries fixed bookkeeping overhead. These land the
/// Table 4 breakdown (≈52% compare, ≈15% hash) at the paper's workload mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles per byte compared.
    pub cycles_per_cmp_byte: f64,
    /// Cycles per byte hashed.
    pub cycles_per_hash_byte: f64,
    /// Fixed cycles per tree-node visit (pointer chasing, refcounting).
    pub cycles_per_tree_op: u64,
    /// Fixed cycles per candidate page (scan-list advance, pte lookup).
    pub cycles_per_candidate: u64,
    /// Fixed cycles per merge (mapping update, TLB shootdown, CoW arming).
    pub cycles_per_merge: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cycles_per_cmp_byte: 0.3,
            cycles_per_hash_byte: 0.45,
            cycles_per_tree_op: 32,
            cycles_per_candidate: 220,
            cycles_per_merge: 3200,
        }
    }
}

/// The cycle breakdown of a batch of KSM work (Table 4's categories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KsmCycles {
    /// Cycles spent on page comparison.
    pub compare: Cycle,
    /// Cycles spent generating hash keys.
    pub hash: Cycle,
    /// Everything else (tree bookkeeping, candidate management, merges).
    pub other: Cycle,
}

impl KsmCycles {
    /// Total cycles.
    pub fn total(&self) -> Cycle {
        self.compare + self.hash + self.other
    }

    /// Fraction of cycles spent on page comparison.
    pub fn compare_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.compare as f64 / self.total() as f64
        }
    }

    /// Fraction of cycles spent on hash-key generation.
    pub fn hash_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hash as f64 / self.total() as f64
        }
    }

    /// Accumulates another breakdown.
    pub fn absorb(&mut self, other: KsmCycles) {
        self.compare += other.compare;
        self.hash += other.hash;
        self.other += other.other;
    }
}

impl CostModel {
    /// Prices a work record in cycles.
    pub fn price(&self, work: &KsmWork) -> KsmCycles {
        KsmCycles {
            compare: (work.cmp_bytes as f64 * self.cycles_per_cmp_byte) as Cycle
                + work.comparisons * 30, // per-comparison setup (page map, prefetch)
            hash: (work.hash_bytes as f64 * self.cycles_per_hash_byte) as Cycle,
            other: work.tree_ops * self.cycles_per_tree_op
                + work.candidates * self.cycles_per_candidate
                + work.merges * self.cycles_per_merge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pricing_is_linear() {
        let model = CostModel::default();
        let mut w = KsmWork::new();
        w.cmp_bytes = 4096;
        w.comparisons = 1;
        let c1 = model.price(&w);
        w.cmp_bytes = 8192;
        w.comparisons = 2;
        let c2 = model.price(&w);
        // Within 1 cycle of exactly double (float-to-cycle truncation).
        assert!(c2.compare.abs_diff(2 * c1.compare) <= 1);
    }

    #[test]
    fn fractions_sum_to_one() {
        let model = CostModel::default();
        let w = KsmWork {
            candidates: 100,
            comparisons: 900,
            cmp_bytes: 900 * 2048,
            hash_ops: 80,
            hash_bytes: 80 * 1024,
            tree_ops: 1500,
            merges: 20,
            touched: vec![],
        };
        let c = model.price(&w);
        let sum = c.compare_fraction() + c.hash_fraction();
        assert!(sum > 0.0 && sum < 1.0);
        assert_eq!(c.total(), c.compare + c.hash + c.other);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = KsmWork::new();
        a.candidates = 1;
        a.touched.push((Ppn(1), 64));
        let mut b = KsmWork::new();
        b.candidates = 2;
        b.touched.push((Ppn(2), 16));
        a.absorb(&b);
        assert_eq!(a.candidates, 3);
        assert_eq!(a.touched, vec![(Ppn(1), 64)]);
    }

    #[test]
    fn zero_work_prices_to_zero() {
        let c = CostModel::default().price(&KsmWork::new());
        assert_eq!(c.total(), 0);
        assert_eq!(c.compare_fraction(), 0.0);
    }
}
