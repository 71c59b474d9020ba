//! The (72,64) SECDED Hamming codec.
//!
//! Construction (following the paper's §6.2): take the (127,120) Hamming
//! code, truncate the data bits to 64, and add an overall parity bit. The
//! resulting codeword has 72 bits: 64 data bits, 7 Hamming check bits, and
//! 1 overall parity bit. Single-bit errors are corrected; double-bit errors
//! are detected.
//!
//! Layout: codeword positions `1..=71` hold the Hamming code; positions that
//! are powers of two (1, 2, 4, 8, 16, 32, 64) hold the check bits and the
//! remaining 64 positions hold the data bits in ascending order. The overall
//! parity bit covers all 71 Hamming positions.

use std::fmt;

use pageforge_types::LINE_SIZE;
#[cfg(test)]
use pageforge_types::WORDS_PER_LINE;

/// Highest codeword position used by the truncated Hamming code.
const MAX_POS: u32 = 71;

/// Per-data-bit contribution to the 7 check bits: `COLUMNS[i]` is the
/// syndrome column (the codeword position) of data bit `i`.
const fn build_columns() -> [u8; 64] {
    let mut cols = [0u8; 64];
    let mut pos = 1u32;
    let mut i = 0usize;
    while pos <= MAX_POS {
        if !pos.is_power_of_two() {
            cols[i] = pos as u8;
            i += 1;
        }
        pos += 1;
    }
    cols
}

/// `COLUMNS[i]` = codeword position of data bit `i` (never a power of two).
const COLUMNS: [u8; 64] = build_columns();

/// Maps a codeword position back to the data-bit index stored there, or 64
/// for check-bit positions.
const fn build_pos_to_data() -> [u8; 72] {
    let mut map = [64u8; 72];
    let mut i = 0usize;
    while i < 64 {
        map[COLUMNS[i] as usize] = i as u8;
        i += 1;
    }
    map
}

const POS_TO_DATA: [u8; 72] = build_pos_to_data();

/// `CODE_TABLE[b][v]`: the share of the 8-bit ECC code due to byte `b` of a
/// word (little-endian) holding `v` — the XOR of the columns of its set
/// data bits in the low 7 bits, and in bit 7 the parity of those data bits
/// plus that share's check bits. Check bits and overall parity are both
/// XOR-linear in the data, so a word's code is the XOR of its eight shares.
const fn build_code_table() -> [[u8; 256]; 8] {
    let mut table = [[0u8; 256]; 8];
    let mut byte = 0usize;
    while byte < 8 {
        let mut v = 0usize;
        while v < 256 {
            let mut check = 0u8;
            let mut bit = 0usize;
            while bit < 8 {
                if (v >> bit) & 1 == 1 {
                    check ^= COLUMNS[byte * 8 + bit];
                }
                bit += 1;
            }
            let parity = (v.count_ones() + check.count_ones()) & 1;
            table[byte][v] = check | ((parity as u8) << 7);
            v += 1;
        }
        byte += 1;
    }
    table
}

/// 2 KB, read-only. A `static`, so every lookup reads one copy.
static CODE_TABLE: [[u8; 256]; 8] = build_code_table();

/// The 8 stored ECC bits of one 64-bit word: 7 Hamming check bits (low bits)
/// plus the overall parity bit (bit 7).
///
/// This is exactly what one ECC DRAM chip stores per 64-bit burst beat
/// (Figure 4 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EccCode(pub u8);

impl EccCode {
    /// The 7 Hamming check bits.
    pub fn check_bits(self) -> u8 {
        self.0 & 0x7F
    }

    /// The overall parity bit.
    pub fn overall_parity(self) -> bool {
        self.0 & 0x80 != 0
    }
}

impl fmt::Debug for EccCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EccCode({:#04x})", self.0)
    }
}

impl fmt::LowerHex for EccCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for EccCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<EccCode> for u8 {
    fn from(c: EccCode) -> u8 {
        c.0
    }
}

/// Outcome of decoding a (data, code) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// No error: data is returned as received.
    Clean(u64),
    /// A single flipped data bit was corrected; the corrected word and the
    /// flipped bit index are returned.
    CorrectedData {
        /// The corrected data word.
        data: u64,
        /// Index (0..64) of the data bit that was flipped.
        bit: u8,
    },
    /// A single flipped *check or parity* bit was corrected; the data was
    /// intact and is returned unmodified.
    CorrectedCheck(u64),
    /// A double-bit error was detected; the data cannot be trusted.
    DoubleError,
}

impl Decoded {
    /// The usable data word, or `None` on an uncorrectable error.
    pub fn data(self) -> Option<u64> {
        match self {
            Decoded::Clean(d)
            | Decoded::CorrectedData { data: d, .. }
            | Decoded::CorrectedCheck(d) => Some(d),
            Decoded::DoubleError => None,
        }
    }
}

/// The (72,64) SECDED codec. All methods are associated functions; the codec
/// is stateless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Secded72;

impl Secded72 {
    /// Encodes a 64-bit word into its 8-bit ECC code: the 7 Hamming check
    /// bits, and the overall parity of the data and check bits in bit 7.
    ///
    /// ```
    /// use pageforge_ecc::Secded72;
    /// let c = Secded72::encode(0);
    /// assert_eq!(u8::from(c), 0); // all-zero word has all-zero code
    /// ```
    pub fn encode(data: u64) -> EccCode {
        let code = data
            .to_le_bytes()
            .iter()
            .zip(&CODE_TABLE)
            .fold(0u8, |code, (&v, shares)| code ^ shares[usize::from(v)]);
        EccCode(code)
    }

    /// Decodes a received (data, code) pair, correcting a single-bit error
    /// and detecting double-bit errors.
    ///
    /// ```
    /// use pageforge_ecc::{Decoded, Secded72};
    /// let code = Secded72::encode(99);
    /// assert_eq!(Secded72::decode(99, code), Decoded::Clean(99));
    /// ```
    pub fn decode(data: u64, received: EccCode) -> Decoded {
        let expected = Self::encode(data);
        let syndrome = expected.check_bits() ^ received.check_bits();
        // Parity of the *received* codeword: data + received check bits +
        // received parity bit must be even.
        let received_parity_ok = (data.count_ones()
            + received.check_bits().count_ones()
            + u32::from(received.overall_parity()))
            & 1
            == 0;
        match (syndrome, received_parity_ok) {
            (0, true) => Decoded::Clean(data),
            // Parity violated, zero syndrome: the overall parity bit itself
            // flipped.
            (0, false) => Decoded::CorrectedCheck(data),
            // Parity violated, nonzero syndrome: single-bit error at
            // codeword position `syndrome`.
            (s, false) => {
                let pos = s as usize;
                if pos > MAX_POS as usize {
                    // Syndrome points outside the truncated code: treat as
                    // uncorrectable (can only arise from multi-bit errors).
                    return Decoded::DoubleError;
                }
                let bit = POS_TO_DATA[pos];
                if bit == 64 {
                    // A check-bit position: data unaffected.
                    Decoded::CorrectedCheck(data)
                } else {
                    Decoded::CorrectedData {
                        data: data ^ (1u64 << bit),
                        bit,
                    }
                }
            }
            // Parity satisfied but nonzero syndrome: an even number (≥2) of
            // bits flipped.
            (_, true) => Decoded::DoubleError,
        }
    }
}

/// The "minikey" of a 64-byte line that PageForge extracts for hash-key
/// generation (Figure 6): the least-significant 8 bits of the line's 64-bit
/// ECC code. With little-endian word order these are the code bits of word
/// 0, so only word 0 is encoded — the seven other codes never reach a hash
/// key.
///
/// ```
/// use pageforge_ecc::{minikey, Secded72};
/// let line: Vec<u8> = (0..64).collect();
/// let word0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
/// assert_eq!(minikey(&line), u8::from(Secded72::encode(word0)));
/// ```
///
/// # Panics
///
/// Panics if `line.len() != 64`.
pub fn minikey(line: &[u8]) -> u8 {
    assert_eq!(line.len(), LINE_SIZE, "a cache line is {LINE_SIZE} bytes");
    let word0 = line.first_chunk().map_or(0, |w| u64::from_le_bytes(*w));
    Secded72::encode(word0).0
}

/// The stored ECC of one 64-byte cache line: one [`EccCode`] per 64-bit word,
/// 8 bytes total ("for each line, an 8B ECC code", §3.3.1). The simulator
/// reads only the [`minikey`]; the tests encode whole lines as the reference
/// it must match.
#[cfg(test)]
#[derive(Clone, Copy)]
pub(crate) struct LineEcc(pub [EccCode; WORDS_PER_LINE]);

#[cfg(test)]
impl LineEcc {
    /// Encodes a 64-byte line (little-endian words).
    ///
    /// # Panics
    ///
    /// Panics if `line.len() != 64`.
    pub fn encode(line: &[u8]) -> Self {
        assert_eq!(line.len(), LINE_SIZE, "a cache line is {LINE_SIZE} bytes");
        let mut codes = [EccCode::default(); WORDS_PER_LINE];
        for (w, code) in codes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(line[w * 8..w * 8 + 8].try_into().expect("8 bytes"));
            *code = Secded72::encode(word);
        }
        LineEcc(codes)
    }

    /// The least-significant 8 bits of the line's 64-bit ECC code.
    pub fn minikey(self) -> u8 {
        self.0[0].0
    }

    /// The ECC bytes as stored in the spare DRAM chip.
    pub fn as_bytes(self) -> [u8; WORDS_PER_LINE] {
        let mut out = [0u8; WORDS_PER_LINE];
        for (b, code) in out.iter_mut().zip(self.0.iter()) {
            *b = code.0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use pageforge_types::{derive_seed, PageData, LINES_PER_PAGE};
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    use crate::EccKeyConfig;

    /// Random inputs per table test; Miri runs the same checks on fewer.
    const RANDOM_CASES: usize = if cfg!(miri) { 64 } else { 20_000 };

    /// The encoder `CODE_TABLE` replaced, kept as its reference: XOR the
    /// column of every set data bit, then add the overall parity bit.
    fn reference_encode(data: u64) -> EccCode {
        let mut check = 0u8;
        let mut d = data;
        let mut i = 0usize;
        while d != 0 {
            let tz = d.trailing_zeros() as usize;
            i += tz;
            check ^= COLUMNS[i];
            d >>= tz;
            d >>= 1;
            i += 1;
        }
        let parity = (data.count_ones() + check.count_ones()) & 1;
        EccCode(check | ((parity as u8) << 7))
    }

    #[test]
    fn table_encoder_matches_the_set_bit_loop() {
        let mut words = vec![0u64, u64::MAX];
        for a in 0..64 {
            words.push(1u64 << a);
            for b in (a + 1)..64 {
                words.push((1u64 << a) | (1u64 << b));
            }
        }
        assert_eq!(words.len(), 2 + 64 + 64 * 63 / 2);
        let mut rng = SmallRng::seed_from_u64(0xC0DE);
        words.extend((0..RANDOM_CASES).map(|_| rng.gen::<u64>()));
        for data in words {
            assert_eq!(Secded72::encode(data), reference_encode(data), "{data:#x}");
        }
    }

    #[test]
    fn line_encoder_matches_the_set_bit_loop() {
        let mut rng = SmallRng::seed_from_u64(0x11AE);
        for _ in 0..RANDOM_CASES / 8 {
            let mut line = [0u8; LINE_SIZE];
            rng.fill_bytes(&mut line);
            let ecc = LineEcc::encode(&line);
            for (chunk, code) in line.chunks_exact(8).zip(ecc.0) {
                let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                assert_eq!(code, reference_encode(word));
            }
        }
    }

    #[test]
    fn columns_are_nonpowers_in_range() {
        for (i, &c) in COLUMNS.iter().enumerate() {
            let c = u32::from(c);
            assert!((3..=MAX_POS).contains(&c), "column {i} = {c}");
            assert!(!c.is_power_of_two(), "column {i} = {c} is a power of two");
        }
        // All distinct.
        let mut sorted = COLUMNS;
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn clean_round_trip() {
        for data in [
            0u64,
            1,
            u64::MAX,
            0xDEAD_BEEF_CAFE_BABE,
            0x8000_0000_0000_0000,
        ] {
            let code = Secded72::encode(data);
            assert_eq!(Secded72::decode(data, code), Decoded::Clean(data));
        }
    }

    #[test]
    fn corrects_every_single_data_bit_flip() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let code = Secded72::encode(data);
        for bit in 0..64 {
            let corrupted = data ^ (1u64 << bit);
            let decoded = Secded72::decode(corrupted, code);
            assert_eq!(
                decoded,
                Decoded::CorrectedData {
                    data,
                    bit: bit as u8
                },
                "bit {bit}"
            );
        }
    }

    #[test]
    fn corrects_every_single_check_bit_flip() {
        let data = 0xFEED_F00D_0000_1234u64;
        let code = Secded72::encode(data);
        for bit in 0..8 {
            let corrupted = EccCode(code.0 ^ (1 << bit));
            let decoded = Secded72::decode(data, corrupted);
            assert_eq!(decoded, Decoded::CorrectedCheck(data), "check bit {bit}");
        }
    }

    #[test]
    fn detects_double_data_bit_flips() {
        let data = 0xAAAA_5555_3333_CCCCu64;
        let code = Secded72::encode(data);
        for (a, b) in [(0u32, 1u32), (5, 40), (62, 63), (0, 63), (13, 37)] {
            let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
            assert_eq!(
                Secded72::decode(corrupted, code),
                Decoded::DoubleError,
                "bits {a},{b}"
            );
        }
    }

    #[test]
    fn detects_data_plus_check_double_flip() {
        let data = 7u64;
        let code = Secded72::encode(data);
        let corrupted_data = data ^ (1 << 20);
        let corrupted_code = EccCode(code.0 ^ 0b100);
        assert_eq!(
            Secded72::decode(corrupted_data, corrupted_code),
            Decoded::DoubleError
        );
    }

    /// The flip for codeword position `pos` (0..72): 64 data bits, then 7
    /// check bits, then the overall parity bit, as `(data_xor, code_xor)`.
    fn position_flip(pos: usize) -> (u64, u8) {
        match pos {
            0..=63 => (1u64 << pos, 0),
            64..=70 => (0, 1u8 << (pos - 64)),
            71 => (0, 0x80),
            _ => unreachable!("72 codeword positions"),
        }
    }

    #[test]
    fn exhaustive_single_flip_over_all_72_positions() {
        // Every one of the 72 stored bits, flipped alone, must be corrected
        // — and data flips must name the exact bit.
        for data in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF, 0x8000_0000_0000_0001] {
            let code = Secded72::encode(data);
            for pos in 0..72 {
                let (dx, cx) = position_flip(pos);
                let decoded = Secded72::decode(data ^ dx, EccCode(code.0 ^ cx));
                match pos {
                    0..=63 => assert_eq!(
                        decoded,
                        Decoded::CorrectedData {
                            data,
                            bit: pos as u8
                        },
                        "data bit {pos} of {data:#x}"
                    ),
                    _ => assert_eq!(
                        decoded,
                        Decoded::CorrectedCheck(data),
                        "check/parity position {pos} of {data:#x}"
                    ),
                }
                assert_eq!(decoded.data(), Some(data));
            }
        }
    }

    #[test]
    fn exhaustive_double_flips_over_all_position_pairs() {
        // All C(72,2) = 2556 distinct double flips must be *detected*, never
        // miscorrected: every pair leaves overall parity intact and a
        // syndrome that is either nonzero (two distinct columns never XOR
        // to zero) or pure-parity — both classified DoubleError.
        let data = 0xA5A5_0FF0_1234_8765u64;
        let code = Secded72::encode(data);
        let mut pairs = 0;
        for a in 0..72 {
            for b in (a + 1)..72 {
                let (dxa, cxa) = position_flip(a);
                let (dxb, cxb) = position_flip(b);
                let decoded = Secded72::decode(data ^ dxa ^ dxb, EccCode(code.0 ^ cxa ^ cxb));
                assert_eq!(decoded, Decoded::DoubleError, "positions {a},{b}");
                assert_eq!(decoded.data(), None, "positions {a},{b}");
                pairs += 1;
            }
        }
        assert_eq!(pairs, 72 * 71 / 2);
    }

    #[test]
    fn aliased_triple_miscorrects_by_design() {
        // SECOND is not TripleED: data bits 0,1,2 live at codeword columns
        // 3, 5, 6 and 3^5^6 = 0, so flipping all three yields a zero
        // syndrome with odd parity — indistinguishable from a flipped
        // parity bit. The decoder "corrects" the parity bit and hands back
        // three wrong data bits. This is the SECDED limit the fault
        // injector's `faults.miscorrected` counter measures.
        assert_eq!(COLUMNS[0] ^ COLUMNS[1] ^ COLUMNS[2], 0, "aliasing triple");
        let data = 0u64;
        let code = Secded72::encode(data);
        let corrupted = data ^ 0b111;
        let decoded = Secded72::decode(corrupted, code);
        assert_eq!(decoded, Decoded::CorrectedCheck(corrupted));
        assert_eq!(decoded.data(), Some(corrupted), "wrong data is trusted");
        assert_ne!(decoded.data(), Some(data));
    }

    #[test]
    fn decoded_data_accessor() {
        assert_eq!(Decoded::Clean(5).data(), Some(5));
        assert_eq!(Decoded::CorrectedData { data: 5, bit: 0 }.data(), Some(5));
        assert_eq!(Decoded::CorrectedCheck(5).data(), Some(5));
        assert_eq!(Decoded::DoubleError.data(), None);
    }

    #[test]
    fn code_is_content_sensitive() {
        // Different words usually get different codes; at minimum these do.
        assert_ne!(Secded72::encode(0), Secded72::encode(1));
        assert_ne!(Secded72::encode(1), Secded72::encode(2));
    }

    #[test]
    fn line_ecc_encodes_per_word() {
        let mut line = [0u8; LINE_SIZE];
        line[8] = 1; // word 1 = 1
        let ecc = LineEcc::encode(&line);
        assert_eq!(ecc.0[0], Secded72::encode(0));
        assert_eq!(ecc.0[1], Secded72::encode(1));
        assert_eq!(ecc.minikey(), u8::from(Secded72::encode(0)));
    }

    #[test]
    fn word0_minikey_matches_the_full_line_encode() {
        let mut rng = SmallRng::seed_from_u64(0x3141);
        let mut lines = vec![[0u8; LINE_SIZE], [0xFF; LINE_SIZE]];
        for byte in 0..LINE_SIZE {
            let mut line = [0u8; LINE_SIZE];
            line[byte] = 1 << (byte % 8);
            lines.push(line);
        }
        for _ in 0..RANDOM_CASES / 8 {
            let mut line = [0u8; LINE_SIZE];
            rng.fill_bytes(&mut line);
            lines.push(line);
        }
        for line in lines {
            assert_eq!(
                minikey(&line),
                LineEcc::encode(&line).minikey(),
                "{line:02x?}"
            );
        }
    }

    #[test]
    fn line_ecc_minikey_tracks_word0() {
        let mut a = [0u8; LINE_SIZE];
        let mut b = [0u8; LINE_SIZE];
        a[0] = 1;
        b[0] = 2;
        assert_ne!(LineEcc::encode(&a).minikey(), LineEcc::encode(&b).minikey());
    }

    #[test]
    #[should_panic(expected = "cache line")]
    fn line_ecc_wrong_length_panics() {
        let _ = LineEcc::encode(&[0u8; 32]);
    }

    /// The ECC of a line tracks each word independently.
    #[test]
    fn line_ecc_word_independence() {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xECC, "word_independence"));
        for _ in 0..128 {
            let mut line = vec![0u8; LINE_SIZE];
            rng.fill_bytes(&mut line);
            let w = rng.gen_range(0usize..8);
            let ecc = LineEcc::encode(&line);
            let mut other = line.clone();
            // Flip a bit in word w; only that word's code may change.
            other[w * 8] ^= 1;
            let ecc2 = LineEcc::encode(&other);
            for k in 0..8 {
                if k != w {
                    assert_eq!(ecc.0[k], ecc2.0[k]);
                }
            }
            assert_ne!(ecc.0[w], ecc2.0[w]);
        }
    }

    /// Builder fed in a random order produces the same key as the direct
    /// computation.
    #[test]
    fn builder_order_invariance() {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xECC, "builder_order"));
        for _ in 0..64 {
            let mut seedbytes = vec![0u8; 16];
            rng.fill_bytes(&mut seedbytes);
            let page = PageData::from_fn(|i| seedbytes[i % seedbytes.len()].wrapping_mul(i as u8));
            let cfg = EccKeyConfig::default();
            let mut order: Vec<usize> = (0..LINES_PER_PAGE).collect();
            // Fisher–Yates driven by the test RNG.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0usize..i + 1);
                order.swap(i, j);
            }
            let mut b = cfg.builder();
            for &line in &order {
                b.observe(line, LineEcc::encode(page.line(line)).minikey());
            }
            assert_eq!(b.finish(), Some(cfg.page_key(&page)));
        }
    }

    #[test]
    fn line_ecc_bytes_round_trip() {
        let line = [0x5Au8; LINE_SIZE];
        let ecc = LineEcc::encode(&line);
        let bytes = ecc.as_bytes();
        for (w, &b) in bytes.iter().enumerate() {
            assert_eq!(b, ecc.0[w].0);
        }
    }
}
