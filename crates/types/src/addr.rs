//! Strongly-typed frame numbers and addresses.
//!
//! Same-page merging manipulates *three* address spaces (guest virtual,
//! guest physical, host physical — Figure 1 of the paper). The newtypes here
//! make it impossible to pass a guest frame number where a host frame number
//! is expected.

use std::fmt;

use crate::page::{LINE_SIZE, PAGE_SIZE};

/// Host **P**hysical **P**age **N**umber: the frame number of a page in host
/// physical memory. This is what the PageForge Scan Table stores (§3.2).
///
/// ```
/// use pageforge_types::{Ppn, PhysAddr};
/// let ppn = Ppn(3);
/// assert_eq!(ppn.base_addr(), PhysAddr(3 * 4096));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppn(pub u64);

impl Ppn {
    /// The host-physical address of the first byte of this frame.
    pub fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE as u64)
    }

    /// The address of cache line `line` within this frame.
    ///
    /// The PageForge request generator "only needs to compute the offset
    /// within the page and concatenate it with the PPN of the page" (§3.2.1);
    /// this is that concatenation.
    ///
    /// # Panics
    ///
    /// Panics if `line >= LINES_PER_PAGE`.
    #[inline]
    pub fn line_addr(self, line: usize) -> LineAddr {
        assert!(
            line < PAGE_SIZE / LINE_SIZE,
            "line index {line} out of range"
        );
        LineAddr(self.0 * (PAGE_SIZE / LINE_SIZE) as u64 + line as u64)
    }
}

impl fmt::Debug for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ppn({:#x})", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Ppn> for u64 {
    fn from(p: Ppn) -> u64 {
        p.0
    }
}

/// **G**uest **F**rame **N**umber: a guest-physical page number inside one
/// VM. The pair (`VmId`, `Gfn`) identifies a guest page globally.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gfn(pub u64);

impl fmt::Debug for Gfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gfn({:#x})", self.0)
    }
}

impl fmt::Display for Gfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of one virtual machine (the paper deploys 10, one per core).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl fmt::Debug for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VmId({})", self.0)
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// A byte-granular host physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The frame containing this address.
    pub fn ppn(self) -> Ppn {
        Ppn(self.0 / PAGE_SIZE as u64)
    }

    /// The cache line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE as u64)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A line-granular host physical address (address / 64): the unit of
/// transfer between caches, the memory controller, and DRAM.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The byte address of the first byte of the line.
    pub fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 * LINE_SIZE as u64)
    }

    /// The frame containing this line.
    pub fn ppn(self) -> Ppn {
        Ppn(self.0 / (PAGE_SIZE / LINE_SIZE) as u64)
    }

    /// The line index within its page (0..64).
    pub fn line_in_page(self) -> usize {
        (self.0 % (PAGE_SIZE / LINE_SIZE) as u64) as usize
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::LINES_PER_PAGE;

    #[test]
    fn ppn_base_addr() {
        assert_eq!(Ppn(0).base_addr(), PhysAddr(0));
        assert_eq!(Ppn(2).base_addr(), PhysAddr(8192));
    }

    #[test]
    fn ppn_line_addr_concatenates() {
        let a = Ppn(1).line_addr(0);
        assert_eq!(a, LineAddr(64));
        assert_eq!(a.ppn(), Ppn(1));
        assert_eq!(a.line_in_page(), 0);
        let b = Ppn(1).line_addr(63);
        assert_eq!(b.line_in_page(), 63);
        assert_eq!(b.ppn(), Ppn(1));
    }

    #[test]
    #[should_panic(expected = "line index")]
    fn line_addr_out_of_range_panics() {
        let _ = Ppn(0).line_addr(LINES_PER_PAGE);
    }

    #[test]
    fn phys_addr_round_trips() {
        let a = PhysAddr(4096 * 5 + 100);
        assert_eq!(a.ppn(), Ppn(5));
        assert_eq!(a.line(), LineAddr((4096 * 5 + 100) / 64));
    }

    #[test]
    fn line_addr_round_trips() {
        for raw in [0u64, 1, 63, 64, 1_000_000] {
            let l = LineAddr(raw);
            assert_eq!(l.base_addr().line(), l);
        }
    }

    #[test]
    fn display_forms_are_compact() {
        assert_eq!(VmId(3).to_string(), "vm3");
        assert_eq!(Ppn(255).to_string(), "0xff");
    }

    #[test]
    fn newtypes_are_ordered_by_value() {
        assert!(Ppn(1) < Ppn(2));
        assert!(Gfn(1) < Gfn(2));
        assert!(VmId(0) < VmId(1));
    }
}
