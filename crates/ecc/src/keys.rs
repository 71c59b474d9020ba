//! ECC-based page hash keys (§3.3, Figure 6).
//!
//! PageForge logically divides the 4 KB page into four 1 KB sections and
//! picks a fixed cache-line offset inside each section. The low 8 ECC bits
//! of each selected line (its *minikey*) are concatenated into a 32-bit hash
//! key. Only 256 B of the page are touched — a 75% reduction over KSM's
//! 1 KB jhash window — and the minikeys can be collected *out of order* as
//! lines happen to stream through the memory controller, which is what
//! [`KeyBuilder`] models.

use std::fmt;

use pageforge_types::{PageData, LINES_PER_PAGE};

use crate::hamming::minikey;

/// Number of minikeys (and page sections) in the paper's configuration.
pub const DEFAULT_MINIKEYS: usize = 4;

/// A page hash key assembled from ECC minikeys.
///
/// The paper's key is 32 bits (4 minikeys × 8 bits, Table 2); wider
/// configurations (up to 8 minikeys) are supported for the offset-count
/// ablation study.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EccHashKey(pub u64);

impl fmt::Debug for EccHashKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EccHashKey({:#010x})", self.0)
    }
}

impl fmt::LowerHex for EccHashKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<EccHashKey> for u64 {
    fn from(k: EccHashKey) -> u64 {
        k.0
    }
}

/// Error returned when an [`EccKeyConfig`] is constructed with invalid
/// offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EccKeyConfigError {
    /// No offsets were supplied.
    Empty,
    /// More than 8 offsets were supplied (the key is at most 64 bits).
    TooMany(usize),
    /// An offset is not a valid line index (0..64).
    OutOfRange(usize),
    /// The same line offset appears twice.
    Duplicate(usize),
}

impl fmt::Display for EccKeyConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EccKeyConfigError::Empty => write!(f, "at least one line offset is required"),
            EccKeyConfigError::TooMany(n) => {
                write!(f, "at most 8 line offsets are supported, got {n}")
            }
            EccKeyConfigError::OutOfRange(o) => {
                write!(f, "line offset {o} is outside 0..{LINES_PER_PAGE}")
            }
            EccKeyConfigError::Duplicate(o) => write!(f, "line offset {o} appears twice"),
        }
    }
}

impl std::error::Error for EccKeyConfigError {}

/// The line offsets used to build ECC hash keys.
///
/// The offsets are "rarely changed... set after profiling the workloads"
/// (§3.6, `update_ECC_offset`); the default picks one line in each 1 KB
/// section of the page, as in Figure 6.
///
/// ```
/// use pageforge_ecc::EccKeyConfig;
/// let cfg = EccKeyConfig::default();
/// assert_eq!(cfg.offsets(), &[3, 19, 35, 51]);
/// assert_eq!(cfg.key_bits(), 32);
/// assert_eq!(cfg.bytes_fetched(), 256);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EccKeyConfig {
    offsets: Vec<usize>,
}

impl EccKeyConfig {
    /// Creates a configuration from explicit line offsets.
    ///
    /// # Errors
    ///
    /// Returns [`EccKeyConfigError`] if `offsets` is empty, longer than 8,
    /// contains an index ≥ 64, or contains duplicates.
    pub fn with_offsets(offsets: Vec<usize>) -> Result<Self, EccKeyConfigError> {
        if offsets.is_empty() {
            return Err(EccKeyConfigError::Empty);
        }
        if offsets.len() > 8 {
            return Err(EccKeyConfigError::TooMany(offsets.len()));
        }
        let mut seen = [false; LINES_PER_PAGE];
        for &o in &offsets {
            if o >= LINES_PER_PAGE {
                return Err(EccKeyConfigError::OutOfRange(o));
            }
            if seen[o] {
                return Err(EccKeyConfigError::Duplicate(o));
            }
            seen[o] = true;
        }
        Ok(EccKeyConfig { offsets })
    }

    /// The configured line offsets, in minikey order.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Width of the resulting key in bits (8 per minikey).
    pub fn key_bits(&self) -> usize {
        self.offsets.len() * 8
    }

    /// Bytes of page data that must be fetched to build the key (64 per
    /// minikey; 256 B in the default configuration vs KSM's 1 KB).
    pub fn bytes_fetched(&self) -> usize {
        self.offsets.len() * pageforge_types::LINE_SIZE
    }

    /// Computes the key of a page directly (the "all lines available at
    /// once" path, used by software and by tests).
    ///
    /// Keys are pure functions of content at the sampled offsets, so
    /// identical pages can never produce different keys — the "zero
    /// false negatives" property §3.3.2 relies on (compare Figure 8,
    /// where jhash sampling misses merge opportunities that ECC keys
    /// keep).
    ///
    /// ```
    /// use pageforge_ecc::EccKeyConfig;
    /// use pageforge_types::PageData;
    ///
    /// let cfg = EccKeyConfig::default();
    /// let page = PageData::from_fn(|i| (i % 251) as u8);
    /// let key = cfg.page_key(&page);
    /// // Identical content always reproduces the identical key.
    /// assert_eq!(key, cfg.page_key(&page.clone()));
    /// // The default key is 32 bits built from 256 B of the page.
    /// assert_eq!(cfg.key_bits(), 32);
    /// ```
    pub fn page_key(&self, page: &PageData) -> EccHashKey {
        let mut key = 0u64;
        for (i, &line) in self.offsets.iter().enumerate() {
            key |= u64::from(minikey(page.line(line))) << (8 * i);
        }
        EccHashKey(key)
    }

    /// Starts an incremental, out-of-order key assembly. The builder owns a
    /// copy of the configuration so it can live inside hardware state (the
    /// PageForge module keeps it across Scan Table refills).
    pub fn builder(&self) -> KeyBuilder {
        KeyBuilder {
            cfg: self.clone(),
            key: 0,
            filled: 0,
        }
    }
}

impl Default for EccKeyConfig {
    /// One fixed offset per 1 KB section, as in Figure 6.
    fn default() -> Self {
        EccKeyConfig {
            offsets: vec![3, 19, 35, 51],
        }
    }
}

/// Incrementally assembles an [`EccHashKey`] from line minikeys arriving in
/// any order.
///
/// The PageForge control logic "snatches" ECC codes as lines flow through
/// the memory controller during page comparison (§3.3.2); lines can come
/// back out of order because some are serviced from caches and some from
/// DRAM. The builder accepts each `(line_index, minikey)` observation and
/// reports completion once every configured offset has been seen.
///
/// ```
/// use pageforge_ecc::{minikey, EccKeyConfig};
/// use pageforge_types::PageData;
///
/// let cfg = EccKeyConfig::default();
/// let page = PageData::from_fn(|i| (i * 31) as u8);
/// let mut b = cfg.builder();
/// // Feed the sampled lines in reverse order: order does not matter.
/// for &off in cfg.offsets().iter().rev() {
///     b.observe(off, minikey(page.line(off)));
/// }
/// assert_eq!(b.finish(), Some(cfg.page_key(&page)));
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    cfg: EccKeyConfig,
    key: u64,
    filled: u8,
}

impl KeyBuilder {
    /// Forgets every observation, keeping the configuration: the builder
    /// starts the next key as a fresh [`EccKeyConfig::builder`] would,
    /// without cloning the offsets.
    pub fn reset(&mut self) {
        self.key = 0;
        self.filled = 0;
    }

    /// Feeds the minikey of one observed line. Lines that are not at a
    /// configured offset are ignored; repeated observations of the same
    /// offset overwrite the minikey (the content may have changed in
    /// between — last write wins, matching hardware behaviour).
    pub fn observe(&mut self, line_index: usize, minikey: u8) {
        for (i, &off) in self.cfg.offsets.iter().enumerate() {
            if off == line_index {
                let shift = 8 * i;
                self.key = (self.key & !(0xFFu64 << shift)) | (u64::from(minikey) << shift);
                self.filled |= 1 << i;
            }
        }
    }

    /// `true` once every configured offset has been observed.
    pub fn is_complete(&self) -> bool {
        self.filled == (1u8 << self.cfg.offsets.len()).wrapping_sub(1)
            || self.filled.count_ones() == self.cfg.offsets.len() as u32
    }

    /// Line offsets that have not been observed yet, in minikey order.
    pub fn missing(&self) -> Vec<usize> {
        self.cfg
            .offsets
            .iter()
            .enumerate()
            .filter(|(i, _)| self.filled & (1 << i) == 0)
            .map(|(_, &off)| off)
            .collect()
    }

    /// Returns the key if complete, else `None`.
    pub fn finish(&self) -> Option<EccHashKey> {
        if self.is_complete() {
            Some(EccHashKey(self.key))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::LineEcc;

    #[test]
    fn default_config_matches_figure6() {
        let cfg = EccKeyConfig::default();
        assert_eq!(cfg.offsets().len(), DEFAULT_MINIKEYS);
        // One offset in each 1 KB section (16 lines per section).
        for (section, &off) in cfg.offsets().iter().enumerate() {
            assert!(off >= section * 16 && off < (section + 1) * 16);
        }
        assert_eq!(cfg.key_bits(), 32);
        assert_eq!(cfg.bytes_fetched(), 256);
    }

    #[test]
    fn key_is_deterministic() {
        let cfg = EccKeyConfig::default();
        let page = PageData::from_fn(|i| (i % 7) as u8);
        assert_eq!(cfg.page_key(&page), cfg.page_key(&page.clone()));
    }

    #[test]
    fn key_detects_change_in_sampled_line() {
        let cfg = EccKeyConfig::default();
        let a = PageData::zeroed();
        let mut b = PageData::zeroed();
        b.line_mut(3)[0] = 1; // word 0 of sampled line 3
        assert_ne!(cfg.page_key(&a), cfg.page_key(&b));
    }

    #[test]
    fn key_misses_change_in_unsampled_line() {
        // This is the documented false-positive source (§3.3): the key only
        // covers the sampled lines.
        let cfg = EccKeyConfig::default();
        let a = PageData::zeroed();
        let mut b = PageData::zeroed();
        b.line_mut(0)[0] = 1;
        assert_eq!(cfg.page_key(&a), cfg.page_key(&b));
    }

    #[test]
    fn config_rejects_bad_offsets() {
        assert_eq!(
            EccKeyConfig::with_offsets(vec![]),
            Err(EccKeyConfigError::Empty)
        );
        assert_eq!(
            EccKeyConfig::with_offsets(vec![0, 1, 2, 3, 4, 5, 6, 7, 8]),
            Err(EccKeyConfigError::TooMany(9))
        );
        assert_eq!(
            EccKeyConfig::with_offsets(vec![64]),
            Err(EccKeyConfigError::OutOfRange(64))
        );
        assert_eq!(
            EccKeyConfig::with_offsets(vec![5, 5]),
            Err(EccKeyConfigError::Duplicate(5))
        );
    }

    #[test]
    fn config_error_display_is_meaningful() {
        let e = EccKeyConfig::with_offsets(vec![99]).unwrap_err();
        assert!(e.to_string().contains("99"));
    }

    #[test]
    fn builder_assembles_out_of_order() {
        let cfg = EccKeyConfig::default();
        let page = PageData::from_fn(|i| (i * 13 % 251) as u8);
        let mut b = cfg.builder();
        assert!(!b.is_complete());
        assert_eq!(b.finish(), None);
        let mut order = cfg.offsets().to_vec();
        order.reverse();
        for off in order {
            b.observe(off, LineEcc::encode(page.line(off)).minikey());
        }
        assert!(b.is_complete());
        assert_eq!(b.finish(), Some(cfg.page_key(&page)));
    }

    #[test]
    fn builder_ignores_unsampled_lines() {
        let cfg = EccKeyConfig::default();
        let page = PageData::zeroed();
        let mut b = cfg.builder();
        b.observe(0, LineEcc::encode(page.line(0)).minikey());
        b.observe(63, LineEcc::encode(page.line(63)).minikey());
        assert!(!b.is_complete());
        assert_eq!(b.missing(), cfg.offsets().to_vec());
    }

    #[test]
    fn reset_builder_starts_a_fresh_key() {
        let cfg = EccKeyConfig::default();
        let mut b = cfg.builder();
        for &off in cfg.offsets() {
            b.observe(off, 0xA5);
        }
        assert!(b.is_complete());
        b.reset();
        assert!(!b.is_complete());
        assert_eq!(b.missing(), cfg.offsets());
        let page = PageData::from_fn(|i| (i * 13) as u8);
        for &off in cfg.offsets() {
            b.observe(off, minikey(page.line(off)));
        }
        assert_eq!(b.finish(), Some(cfg.page_key(&page)));
    }

    #[test]
    fn builder_last_write_wins() {
        let cfg = EccKeyConfig::with_offsets(vec![0]).expect("valid");
        let mut old = PageData::zeroed();
        old.line_mut(0)[0] = 1;
        let mut new = PageData::zeroed();
        new.line_mut(0)[0] = 2;
        let mut b = cfg.builder();
        b.observe(0, LineEcc::encode(old.line(0)).minikey());
        b.observe(0, LineEcc::encode(new.line(0)).minikey());
        assert_eq!(b.finish(), Some(cfg.page_key(&new)));
    }

    #[test]
    fn narrow_and_wide_configs() {
        let one = EccKeyConfig::with_offsets(vec![7]).expect("valid");
        assert_eq!(one.key_bits(), 8);
        let eight = EccKeyConfig::with_offsets(vec![0, 8, 16, 24, 32, 40, 48, 56]).expect("valid");
        assert_eq!(eight.key_bits(), 64);
        let page = PageData::from_fn(|i| i as u8);
        // Wider keys see at least as much as narrow ones.
        let _ = one.page_key(&page);
        let _ = eight.page_key(&page);
    }
}
