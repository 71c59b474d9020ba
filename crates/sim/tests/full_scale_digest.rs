//! The full-scale digest gate. The `--quick` and `--smoke` L3s have
//! power-of-two set counts, so only the paper's geometry (a 26,214-set
//! L3 indexed by `%`, ten cores, 32 MB per VM) exercises every path of
//! the hierarchy at the scale the headline results use. This runs the
//! full silo cell under PageForge at seed 2 and compares its result's
//! digest, hashed as the benchmark hashes it (FNV-1a of the compact
//! `SimResult` JSON), with the committed value.
//!
//! It takes several seconds and a few hundred MB, so it is ignored by
//! default; run it with
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

#[test]
#[ignore = "full scale: several seconds and a few hundred MB; run with --ignored"]
fn full_scale_pageforge_silo_keeps_its_digest() {
    let cfg = SimConfig::micro50(
        "silo",
        DedupMode::PageForge(SimConfig::scaled_pageforge()),
        2,
    );
    let (result, _) = System::new(cfg).run_observed();
    let digest = fnv1a(result.to_json().to_string_compact().as_bytes());
    assert_eq!(digest, "abd3db53dfb72776");
}
