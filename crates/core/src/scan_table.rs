//! The Scan Table (Figure 2(b) of the paper).
//!
//! The Scan Table is the only architectural state PageForge adds: one *PFE*
//! (PageForge Entry) describing the candidate page, and a small array of
//! *Other Pages* entries describing the pages to compare against, each with
//! `Less`/`More` indices that encode the software-chosen search order. With
//! the paper's sizing — 31 Other Pages + 1 PFE — the whole table is ≈260 B.

use pageforge_ecc::EccHashKey;
use pageforge_types::Ppn;

/// Index value meaning "no entry": walking to it terminates the search
/// ("If Ptr points to an invalid entry, PageForge completed the search
/// without finding a match", §3.2.1).
pub const INVALID_INDEX: u8 = u8::MAX;

/// Number of Other Pages entries in the paper's configuration (Table 2).
pub const DEFAULT_OTHER_PAGES: usize = 31;

/// One *Other Pages* entry: a page to compare against the candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtherPage {
    /// Valid bit.
    pub valid: bool,
    /// Physical page number of this page.
    pub ppn: Ppn,
    /// Next entry when the candidate compares *smaller* than this page.
    pub less: u8,
    /// Next entry when the candidate compares *greater* than this page.
    pub more: u8,
}

impl OtherPage {
    /// An invalid (empty) entry.
    pub fn invalid() -> Self {
        OtherPage {
            valid: false,
            ppn: Ppn(0),
            less: INVALID_INDEX,
            more: INVALID_INDEX,
        }
    }
}

/// The *PFE* entry: candidate page state and control bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfeEntry {
    /// Valid bit (V).
    pub valid: bool,
    /// Physical page number of the candidate page.
    pub ppn: Ppn,
    /// The ECC-based hash key, once generated.
    pub hash: Option<EccHashKey>,
    /// Scanned (S): the current batch has been fully processed.
    pub scanned: bool,
    /// Duplicate (D): an identical page was found; `ptr` names it.
    pub duplicate: bool,
    /// Hash Key Ready (H): `hash` is complete.
    pub hash_ready: bool,
    /// Last Refill (L): this is the final batch, so the hardware must
    /// finish the hash key before idling.
    pub last_refill: bool,
    /// Index of the Other Pages entry currently being compared (or, with D
    /// set, the entry that matched).
    pub ptr: u8,
}

impl PfeEntry {
    /// An invalid (empty) PFE.
    pub fn invalid() -> Self {
        PfeEntry {
            valid: false,
            ppn: Ppn(0),
            hash: None,
            scanned: false,
            duplicate: false,
            hash_ready: false,
            last_refill: false,
            ptr: INVALID_INDEX,
        }
    }
}

/// The snapshot returned by `get_PFE_info` (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfeInfo {
    /// The hash key, if ready.
    pub hash: Option<EccHashKey>,
    /// Current / matching entry index.
    pub ptr: u8,
    /// Scanned bit.
    pub scanned: bool,
    /// Duplicate bit.
    pub duplicate: bool,
    /// Hash Key Ready bit.
    pub hash_ready: bool,
}

/// The Scan Table: one PFE plus `N` Other Pages entries.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanTable {
    pfe: PfeEntry,
    others: Vec<OtherPage>,
}

impl ScanTable {
    /// Creates a table with `entries` Other Pages slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or ≥ 255 (index 255 is the invalid
    /// sentinel).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries > 0 && entries < INVALID_INDEX as usize,
            "entry count must be in 1..255"
        );
        ScanTable {
            pfe: PfeEntry::invalid(),
            others: vec![OtherPage::invalid(); entries],
        }
    }

    /// Number of Other Pages slots.
    pub fn capacity(&self) -> usize {
        self.others.len()
    }

    /// Storage footprint in bytes, for the Table 5 area accounting: each
    /// Other Pages entry packs V + PPN (52 bits) + two 5-bit-rounded-to-8
    /// indices, and the PFE adds the hash key and control bits.
    pub fn size_bytes(&self) -> usize {
        // 8 B PPN + 2 index bytes + flags, conservatively 8 B per entry
        // plus a 12 B PFE (PPN + 4 B hash + flags + ptr).
        self.others.len() * 8 + 12
    }

    /// `insert_PPN` (Table 1): fills an Other Pages entry.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn insert_ppn(&mut self, index: u8, ppn: Ppn, less: u8, more: u8) {
        let slot = self
            .others
            .get_mut(index as usize)
            .unwrap_or_else(|| panic!("insert_ppn: index {index} out of range"));
        *slot = OtherPage {
            valid: true,
            ppn,
            less,
            more,
        };
    }

    /// `insert_PFE` (Table 1): fills the PFE entry and clears status bits.
    pub fn insert_pfe(&mut self, ppn: Ppn, last_refill: bool, ptr: u8) {
        self.pfe = PfeEntry {
            valid: true,
            ppn,
            hash: None,
            scanned: false,
            duplicate: false,
            hash_ready: false,
            last_refill,
            ptr,
        };
    }

    /// `update_PFE` (Table 1): rearms the table for another batch without
    /// resetting the candidate or the partially-built hash key.
    ///
    /// # Panics
    ///
    /// Panics if no candidate was inserted (`insert_PFE` first).
    #[inline]
    pub fn update_pfe(&mut self, last_refill: bool, ptr: u8) {
        assert!(self.pfe.valid, "update_pfe before insert_pfe");
        self.pfe.last_refill = last_refill;
        self.pfe.ptr = ptr;
        self.pfe.scanned = false;
        self.pfe.duplicate = false;
    }

    /// `get_PFE_info` (Table 1): status snapshot for the OS.
    pub fn pfe_info(&self) -> PfeInfo {
        PfeInfo {
            hash: if self.pfe.hash_ready {
                self.pfe.hash
            } else {
                None
            },
            ptr: self.pfe.ptr,
            scanned: self.pfe.scanned,
            duplicate: self.pfe.duplicate,
            hash_ready: self.pfe.hash_ready,
        }
    }

    /// Invalidates every Other Pages entry (a refill starts fresh).
    pub fn clear_others(&mut self) {
        for o in &mut self.others {
            *o = OtherPage::invalid();
        }
    }

    /// The PFE entry (hardware-side access).
    pub fn pfe(&self) -> &PfeEntry {
        &self.pfe
    }

    /// Mutable PFE (hardware-side access).
    pub(crate) fn pfe_mut(&mut self) -> &mut PfeEntry {
        &mut self.pfe
    }

    /// The Other Pages entry at `index`, if it is in range and valid.
    #[inline]
    pub fn other(&self, index: u8) -> Option<&OtherPage> {
        self.others.get(index as usize).filter(|o| o.valid)
    }

    /// Fault hook: XORs the stored fields of the Other Pages entry at
    /// `index`, modeling a soft error in the table SRAM. No-op when the
    /// slot is out of range or invalid (an SRAM flip in an invalid entry
    /// is architecturally silent). Only the fault-injection layer calls
    /// this; the Table 1 OS interface cannot reach it.
    pub fn corrupt_other(&mut self, index: u8, ppn_xor: u64, less_xor: u8, more_xor: u8) {
        if let Some(slot) = self.others.get_mut(index as usize).filter(|o| o.valid) {
            slot.ppn = Ppn(slot.ppn.0 ^ ppn_xor);
            slot.less ^= less_xor;
            slot.more ^= more_xor;
        }
    }
}

impl Default for ScanTable {
    /// The paper's sizing: 31 Other Pages + 1 PFE.
    fn default() -> Self {
        Self::new(DEFAULT_OTHER_PAGES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_sizing() {
        let t = ScanTable::default();
        assert_eq!(t.capacity(), 31);
        // "Scan table size ≈ 260B" (Table 2).
        assert!((250..=270).contains(&t.size_bytes()), "{}", t.size_bytes());
    }

    #[test]
    fn insert_ppn_fills_entry() {
        let mut t = ScanTable::new(4);
        t.insert_ppn(2, Ppn(99), 0, INVALID_INDEX);
        let o = t.other(2).unwrap();
        assert_eq!(o.ppn, Ppn(99));
        assert_eq!(o.less, 0);
        assert_eq!(o.more, INVALID_INDEX);
        assert!(t.other(1).is_none(), "unfilled entries are invalid");
    }

    #[test]
    fn insert_pfe_resets_status() {
        let mut t = ScanTable::new(4);
        t.insert_pfe(Ppn(1), false, 0);
        assert!(t.pfe().valid);
        assert!(!t.pfe_info().scanned);
        assert_eq!(t.pfe_info().ptr, 0);
        assert_eq!(t.pfe_info().hash, None);
    }

    #[test]
    fn update_pfe_preserves_candidate() {
        let mut t = ScanTable::new(4);
        t.insert_pfe(Ppn(7), false, 0);
        t.pfe_mut().scanned = true;
        t.update_pfe(true, 1);
        assert_eq!(t.pfe().ppn, Ppn(7));
        assert!(t.pfe().last_refill);
        assert!(!t.pfe().scanned);
        assert_eq!(t.pfe().ptr, 1);
    }

    #[test]
    #[should_panic(expected = "update_pfe before insert_pfe")]
    fn update_before_insert_panics() {
        let mut t = ScanTable::new(4);
        t.update_pfe(false, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_ppn_out_of_range_panics() {
        let mut t = ScanTable::new(4);
        t.insert_ppn(4, Ppn(0), 0, 0);
    }

    #[test]
    fn clear_others_invalidates() {
        let mut t = ScanTable::new(4);
        t.insert_ppn(0, Ppn(5), INVALID_INDEX, INVALID_INDEX);
        t.clear_others();
        assert!(t.other(0).is_none());
    }

    #[test]
    fn hash_hidden_until_ready() {
        let mut t = ScanTable::new(2);
        t.insert_pfe(Ppn(1), false, 0);
        t.pfe_mut().hash = Some(pageforge_ecc::EccHashKey(0xABCD));
        assert_eq!(t.pfe_info().hash, None, "H bit not set yet");
        t.pfe_mut().hash_ready = true;
        assert!(t.pfe_info().hash.is_some());
    }

    #[test]
    #[should_panic(expected = "entry count")]
    fn zero_capacity_panics() {
        let _ = ScanTable::new(0);
    }

    #[test]
    fn corrupt_other_xors_valid_entries_only() {
        let mut t = ScanTable::new(4);
        t.insert_ppn(1, Ppn(0b1000), 2, 3);
        t.corrupt_other(1, 0b0010, 1, 0);
        let o = t.other(1).unwrap();
        assert_eq!(o.ppn, Ppn(0b1010));
        assert_eq!(o.less, 3);
        assert_eq!(o.more, 3);
        // Invalid slot and out-of-range index: silently ignored.
        t.corrupt_other(0, u64::MAX, 0xFF, 0xFF);
        assert!(t.other(0).is_none());
        t.corrupt_other(200, 1, 1, 1);
    }
}
