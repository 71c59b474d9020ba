//! SECDED ECC codec and ECC-based page hash keys, as used by PageForge.
//!
//! DRAM in the modeled server is protected by a (72,64) single-error-correct,
//! double-error-detect (SECDED) code: 8 check bits per 64 data bits,
//! obtained by truncating the (127,120) Hamming code to 64 data bits and
//! adding an overall parity bit (§6.2 of the paper). The memory controller
//! encodes every 64-bit word on writes and decodes on reads.
//!
//! PageForge's key insight (§3.3) is that these ECC codes are *already*
//! content hashes: the hash key of a page can be assembled for free by
//! concatenating the low 8 ECC bits ("minikeys") of a few fixed cache lines
//! of the page, as they stream through the memory controller during page
//! comparison.
//!
//! This crate provides:
//!
//! * [`Secded72`] — the (72,64) codec with encode, decode/correct, and error
//!   injection ([`hamming`]);
//! * [`minikey`] — the 8 ECC bits of one 64-byte cache line that reach a
//!   page hash key;
//! * [`EccKeyConfig`], [`EccHashKey`], [`KeyBuilder`] — ECC-based page hash
//!   keys with out-of-order incremental assembly ([`keys`]).
//!
//! # Examples
//!
//! ```
//! use pageforge_ecc::{EccKeyConfig, Secded72};
//! use pageforge_types::PageData;
//!
//! // ECC protects data.
//! let code = Secded72::encode(0xDEAD_BEEF_0123_4567);
//! let flipped = 0xDEAD_BEEF_0123_4567 ^ (1 << 13);
//! let decoded = Secded72::decode(flipped, code);
//! assert_eq!(decoded.data(), Some(0xDEAD_BEEF_0123_4567));
//!
//! // ...and doubles as a page hash.
//! let cfg = EccKeyConfig::default();
//! let page = PageData::from_fn(|i| i as u8);
//! let key = cfg.page_key(&page);
//! assert_eq!(key, cfg.page_key(&page.clone()));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hamming;
pub mod keys;

pub use hamming::{minikey, Decoded, EccCode, Secded72};
pub use keys::{EccHashKey, EccKeyConfig, EccKeyConfigError, KeyBuilder};
