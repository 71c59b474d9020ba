//! Randomized tests for the SECDED codec and ECC hash keys, driven by the
//! vendored deterministic RNG (fixed seeds; rerunning reproduces any
//! failure exactly).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pageforge_ecc::{Decoded, EccKeyConfig, Secded72};
use pageforge_types::{derive_seed, PageData, LINE_SIZE, PAGE_SIZE};

fn rng_for(label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(0xECC, label))
}

/// SEC: any single data-bit flip is corrected back to the original word.
#[test]
fn single_bit_errors_always_corrected() {
    let mut rng = rng_for("single_bit");
    for _ in 0..512 {
        let data = rng.gen::<u64>();
        let bit = rng.gen_range(0u32..64);
        let code = Secded72::encode(data);
        let corrupted = data ^ (1u64 << bit);
        let decoded = Secded72::decode(corrupted, code);
        assert_eq!(decoded.data(), Some(data));
        assert!(matches!(decoded, Decoded::CorrectedData { .. }));
    }
}

/// DED: any double data-bit flip is detected, never miscorrected.
#[test]
fn double_bit_errors_always_detected() {
    let mut rng = rng_for("double_bit");
    for _ in 0..512 {
        let data = rng.gen::<u64>();
        let a = rng.gen_range(0u32..64);
        let b = rng.gen_range(0u32..64);
        if a == b {
            continue;
        }
        let code = Secded72::encode(data);
        let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
        assert_eq!(Secded72::decode(corrupted, code), Decoded::DoubleError);
    }
}

/// Clean words always decode cleanly.
#[test]
fn clean_words_decode_clean() {
    let mut rng = rng_for("clean");
    for _ in 0..512 {
        let data = rng.gen::<u64>();
        let code = Secded72::encode(data);
        assert_eq!(Secded72::decode(data, code), Decoded::Clean(data));
    }
}

/// Single check-bit flips never change the data.
#[test]
fn check_bit_flips_leave_data_intact() {
    let mut rng = rng_for("check_bit");
    for _ in 0..512 {
        let data = rng.gen::<u64>();
        let bit = rng.gen_range(0u32..8);
        let code = Secded72::encode(data);
        let corrupted = pageforge_ecc::EccCode(u8::from(code) ^ (1 << bit));
        let decoded = Secded72::decode(data, corrupted);
        assert_eq!(decoded.data(), Some(data));
    }
}

/// One data-bit plus one check-bit flip is a double error.
#[test]
fn mixed_double_errors_detected() {
    let mut rng = rng_for("mixed_double");
    for _ in 0..512 {
        let data = rng.gen::<u64>();
        let dbit = rng.gen_range(0u32..64);
        let cbit = rng.gen_range(0u32..8);
        let code = Secded72::encode(data);
        let corrupted_code = pageforge_ecc::EccCode(u8::from(code) ^ (1 << cbit));
        let corrupted_data = data ^ (1u64 << dbit);
        assert_eq!(
            Secded72::decode(corrupted_data, corrupted_code),
            Decoded::DoubleError
        );
    }
}

/// ECC code is a (linear) function of the data: equal words, equal codes.
#[test]
fn encode_is_deterministic() {
    let mut rng = rng_for("deterministic");
    for _ in 0..512 {
        let data = rng.gen::<u64>();
        assert_eq!(Secded72::encode(data), Secded72::encode(data));
    }
}

/// Key is insensitive to changes outside its sampled lines, and changes
/// to word 0 of a sampled line always change the key.
#[test]
fn key_sensitivity() {
    let mut rng = rng_for("key_sensitivity");
    for _ in 0..256 {
        let off_choice = rng.gen_range(0usize..4);
        let poke = rng.gen_range(0usize..PAGE_SIZE);
        let cfg = EccKeyConfig::default();
        let base = PageData::zeroed();
        let sampled_line = cfg.offsets()[off_choice];

        // Change word 0 of a sampled line → key must change.
        let mut hit = base.clone();
        hit.line_mut(sampled_line)[0] ^= 0xFF;
        assert_ne!(cfg.page_key(&base), cfg.page_key(&hit));

        // Change any byte in a line that is not sampled → key unchanged.
        let poke_line = poke / LINE_SIZE;
        if !cfg.offsets().contains(&poke_line) {
            let mut miss = base.clone();
            miss.as_bytes_mut()[poke] ^= 0xFF;
            assert_eq!(cfg.page_key(&base), cfg.page_key(&miss));
        }
    }
}
