//! Randomized tests for the SECDED codec and ECC hash keys, driven by the
//! vendored deterministic RNG (fixed seeds; rerunning reproduces any
//! failure exactly).

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use pageforge_ecc::{Decoded, EccKeyConfig, LineEcc, Secded72};
use pageforge_types::{derive_seed, PageData, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};

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

/// The ECC of a line tracks each word independently.
#[test]
fn line_ecc_word_independence() {
    let mut rng = rng_for("word_independence");
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

/// Builder fed in a random order produces the same key as the direct
/// computation.
#[test]
fn builder_order_invariance() {
    let mut rng = rng_for("builder_order");
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
