//! The full-scale digest gate. The `--quick` and `--smoke` L3s have
//! power-of-two set counts, so only the paper's geometry (a 26,214-set
//! L3 indexed by `%`, ten cores, 32 MB per VM) exercises every path of
//! the hierarchy at the scale the headline results use. This runs the
//! full silo cell at seed 2 under PageForge and with no merging, and at
//! seed 3 under KSM, and compares each result's digest, hashed as the
//! benchmark hashes it (FNV-1a of the compact `SimResult` JSON), with
//! the committed value. The three dedup modes share the query loop and
//! host memory, and each drives them differently: PageForge merges
//! through its engine, KSM through its software trees, and the baseline
//! not at all.
//!
//! Each cell takes several seconds and a few hundred MB, so the tests
//! are ignored by default; run them with
//!
//! ```sh
//! cargo test --release -p pageforge-sim --test full_scale_digest -- --ignored
//! ```

use pageforge_sim::{DedupMode, SimConfig, System};
use pageforge_types::json::ToJson;

/// FNV-1a over `bytes`, as 16 hex digits.
fn fnv1a(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The digest of the full-scale silo cell under `dedup` at `seed`.
fn full_scale_silo_digest(dedup: DedupMode, seed: u64) -> String {
    let (result, _) = System::new(SimConfig::micro50("silo", dedup, seed)).run_observed();
    fnv1a(result.to_json().to_string_compact().as_bytes())
}

#[test]
#[ignore = "full scale: several seconds and a few hundred MB; run with --ignored"]
fn full_scale_pageforge_silo_keeps_its_digest() {
    let digest = full_scale_silo_digest(DedupMode::PageForge(SimConfig::scaled_pageforge()), 2);
    assert_eq!(digest, "abd3db53dfb72776");
}

#[test]
#[ignore = "full scale: several seconds and a few hundred MB; run with --ignored"]
fn full_scale_ksm_silo_keeps_its_digest() {
    let digest = full_scale_silo_digest(DedupMode::Ksm(SimConfig::scaled_ksm()), 3);
    assert_eq!(digest, "992aade5dbd84cf1");
}

#[test]
#[ignore = "full scale: several seconds and a few hundred MB; run with --ignored"]
fn full_scale_baseline_silo_keeps_its_digest() {
    let digest = full_scale_silo_digest(DedupMode::None, 2);
    assert_eq!(digest, "2eb0f76f85a6f6e4");
}
