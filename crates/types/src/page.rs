//! Owned 4 KB page contents and the comparison primitives used by both the
//! software (KSM) and hardware (PageForge) merging paths.

use std::cmp::Ordering;
use std::fmt;

/// Size of a page in bytes (4 KB, Table 2).
pub const PAGE_SIZE: usize = 4096;
/// Size of a cache line in bytes (64 B, Table 2).
pub const LINE_SIZE: usize = 64;
/// Number of cache lines per page (64).
pub const LINES_PER_PAGE: usize = PAGE_SIZE / LINE_SIZE;
/// Number of 64-bit words per cache line (8). Each word carries one
/// (72,64) SECDED codeword in the ECC model.
pub const WORDS_PER_LINE: usize = LINE_SIZE / 8;

/// The contents of one 4 KB physical page.
///
/// `PageData` is the unit of content that same-page merging operates on.
/// Ordering and equality are defined on the raw bytes, exactly matching the
/// `memcmp` ordering KSM uses to index its stable and unstable red-black
/// trees (§2.1 of the paper).
///
/// # Examples
///
/// ```
/// use pageforge_types::PageData;
///
/// let a = PageData::from_fn(|i| (i % 251) as u8);
/// let b = a.clone();
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PageData(Box<[u8; PAGE_SIZE]>);

impl PageData {
    /// Creates a page filled with zero bytes.
    pub fn zeroed() -> Self {
        PageData(Box::new([0u8; PAGE_SIZE]))
    }

    /// Creates a page whose byte at offset `i` is `f(i)`.
    ///
    /// ```
    /// use pageforge_types::PageData;
    /// let p = PageData::from_fn(|i| i as u8);
    /// assert_eq!(p.as_bytes()[255], 255);
    /// ```
    pub fn from_fn(mut f: impl FnMut(usize) -> u8) -> Self {
        let mut page = Self::zeroed();
        for (i, b) in page.0.iter_mut().enumerate() {
            *b = f(i);
        }
        page
    }

    /// Returns the full page as a byte slice.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.0
    }

    /// Returns the full page as a mutable byte slice.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.0
    }

    /// Returns cache line `index` (64 bytes) of the page.
    ///
    /// # Panics
    ///
    /// Panics if `index >= LINES_PER_PAGE`.
    #[inline]
    pub fn line(&self, index: usize) -> &[u8] {
        assert!(index < LINES_PER_PAGE, "line index {index} out of range");
        &self.0[index * LINE_SIZE..(index + 1) * LINE_SIZE]
    }

    /// Returns cache line `index` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `index >= LINES_PER_PAGE`.
    pub fn line_mut(&mut self, index: usize) -> &mut [u8] {
        assert!(index < LINES_PER_PAGE, "line index {index} out of range");
        &mut self.0[index * LINE_SIZE..(index + 1) * LINE_SIZE]
    }

    /// Returns `true` if every byte of the page is zero.
    ///
    /// Zero pages form their own merge class in the paper's Figure 7
    /// ("Mergeable Zero"): hypervisors hand out zeroed pages on first touch
    /// and all remaining zero pages merge into a single frame.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Byte-wise comparison, the ordering used to walk the KSM trees.
    pub fn content_cmp(&self, other: &PageData) -> Ordering {
        self.0.as_slice().cmp(other.0.as_slice())
    }

    /// Returns the index of the first cache line at which `self` and `other`
    /// differ, or `None` if the pages are identical.
    ///
    /// The PageForge comparator walks pages one line at a time in lockstep
    /// (§3.2.1); the diverging line determines both the comparison outcome
    /// and the number of lines the hardware had to fetch.
    pub fn first_diverging_line(&self, other: &PageData) -> Option<usize> {
        (0..LINES_PER_PAGE).find(|&i| self.line(i) != other.line(i))
    }

    /// Number of *bytes* examined by a byte-by-byte comparison (KSM's
    /// `memcmp`), i.e. the first diverging byte + 1, or the whole page.
    pub fn bytes_examined(&self, other: &PageData) -> usize {
        self.cmp_and_bytes_examined(other).1
    }

    /// Lexicographic comparison *and* the number of bytes examined to
    /// decide it, in one pass — the KSM tree walk needs both at every
    /// node visit, and a separate `content_cmp` + `bytes_examined` pair
    /// would stream each page twice.
    ///
    /// Scans 64-bit words (big-endian loads order the same way a byte
    /// `memcmp` does) and resolves the diverging byte inside the first
    /// mismatching word.
    pub fn cmp_and_bytes_examined(&self, other: &PageData) -> (Ordering, usize) {
        for base in (0..PAGE_SIZE).step_by(8) {
            let a = u64::from_be_bytes(self.0[base..base + 8].try_into().expect("8 bytes"));
            let b = u64::from_be_bytes(other.0[base..base + 8].try_into().expect("8 bytes"));
            if a != b {
                let byte = base + ((a ^ b).leading_zeros() / 8) as usize;
                return (a.cmp(&b), byte + 1);
            }
        }
        (Ordering::Equal, PAGE_SIZE)
    }

    /// Reads the 64-bit little-endian word `word` of line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= LINES_PER_PAGE` or `word >= WORDS_PER_LINE`.
    pub fn word(&self, line: usize, word: usize) -> u64 {
        assert!(word < WORDS_PER_LINE, "word index {word} out of range");
        let base = line * LINE_SIZE + word * 8;
        u64::from_le_bytes(self.0[base..base + 8].try_into().expect("8 bytes"))
    }
}

impl Default for PageData {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl PartialOrd for PageData {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PageData {
    fn cmp(&self, other: &Self) -> Ordering {
        self.content_cmp(other)
    }
}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Dumping 4 KB is useless in test failures; show a prefix and a
        // FNV-style digest instead.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for &b in self.0.iter() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
        write!(
            f,
            "PageData {{ first8: {:02x?}, digest: {digest:016x} }}",
            &self.0[..8]
        )
    }
}

impl From<[u8; PAGE_SIZE]> for PageData {
    fn from(bytes: [u8; PAGE_SIZE]) -> Self {
        PageData(Box::new(bytes))
    }
}

impl AsRef<[u8]> for PageData {
    fn as_ref(&self) -> &[u8] {
        self.0.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        assert!(PageData::zeroed().is_zero());
    }

    #[test]
    fn nonzero_page_is_not_zero() {
        let mut p = PageData::zeroed();
        p.as_bytes_mut()[PAGE_SIZE - 1] = 1;
        assert!(!p.is_zero());
    }

    #[test]
    fn from_fn_fills_bytes() {
        let p = PageData::from_fn(|i| (i / LINE_SIZE) as u8);
        assert_eq!(p.as_bytes()[0], 0);
        assert_eq!(p.as_bytes()[LINE_SIZE], 1);
        assert_eq!(p.as_bytes()[PAGE_SIZE - 1], (LINES_PER_PAGE - 1) as u8);
    }

    #[test]
    fn content_ordering_matches_byte_ordering() {
        let a = PageData::from_fn(|i| if i == 10 { 1 } else { 0 });
        let b = PageData::from_fn(|i| if i == 10 { 2 } else { 0 });
        assert_eq!(a.content_cmp(&b), Ordering::Less);
        assert!(a < b);
        assert_eq!(b.content_cmp(&a), Ordering::Greater);
        assert_eq!(a.content_cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn diverging_line_found() {
        let a = PageData::zeroed();
        let mut b = PageData::zeroed();
        b.line_mut(17)[5] = 9;
        assert_eq!(a.first_diverging_line(&b), Some(17));
    }

    #[test]
    fn identical_pages_have_no_diverging_line() {
        let a = PageData::from_fn(|i| i as u8);
        assert_eq!(a.first_diverging_line(&a.clone()), None);
        assert_eq!(a.bytes_examined(&a.clone()), PAGE_SIZE);
    }

    #[test]
    fn bytes_examined_counts_to_first_difference() {
        let a = PageData::zeroed();
        let mut b = PageData::zeroed();
        b.as_bytes_mut()[100] = 1;
        assert_eq!(a.bytes_examined(&b), 101);
    }

    #[test]
    fn cmp_and_bytes_examined_agrees_with_separate_calls() {
        // Divergence at every offset within a word, both directions, plus
        // the equal case: the fused word-at-a-time scan must match the
        // reference byte-by-byte pair exactly.
        for offset in [0usize, 1, 7, 8, 63, 64, 100, 4095] {
            for (av, bv) in [(1u8, 2u8), (2, 1)] {
                let mut a = PageData::from_fn(|i| (i % 251) as u8);
                let mut b = a.clone();
                a.as_bytes_mut()[offset] = av;
                b.as_bytes_mut()[offset] = bv;
                let (ord, bytes) = a.cmp_and_bytes_examined(&b);
                assert_eq!(ord, a.content_cmp(&b), "offset {offset}");
                assert_eq!(bytes, offset + 1, "offset {offset}");
            }
        }
        let p = PageData::from_fn(|i| i as u8);
        assert_eq!(
            p.cmp_and_bytes_examined(&p.clone()),
            (Ordering::Equal, PAGE_SIZE)
        );
    }

    #[test]
    fn word_reads_little_endian() {
        let mut p = PageData::zeroed();
        p.as_bytes_mut()[0] = 0x01;
        p.as_bytes_mut()[7] = 0x80;
        assert_eq!(p.word(0, 0), 0x8000_0000_0000_0001);
    }

    #[test]
    #[should_panic(expected = "line index")]
    fn line_index_out_of_range_panics() {
        let p = PageData::zeroed();
        let _ = p.line(LINES_PER_PAGE);
    }

    #[test]
    fn debug_is_compact_and_nonempty() {
        let s = format!("{:?}", PageData::zeroed());
        assert!(s.len() < 200);
        assert!(s.contains("PageData"));
    }
}
