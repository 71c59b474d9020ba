//! Randomized tests: the PageForge engine's batch outcome is a pure
//! function of page contents (differential against direct comparison).
//! Driven by the vendored deterministic RNG (fixed seeds).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pageforge_core::fabric::FlatFabric;
use pageforge_core::{EngineConfig, PageForgeEngine, INVALID_INDEX};
use pageforge_ecc::EccKeyConfig;
use pageforge_types::{derive_seed, Gfn, PageData, VmId};
use pageforge_vm::HostMemory;

fn rng_for(label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(0xF06E, label))
}

fn content(c: u8) -> PageData {
    PageData::from_fn(move |i| c.wrapping_mul(41).wrapping_add((i % 23) as u8))
}

/// Linear-scan batches (Less == More == next) find a duplicate iff the
/// candidate's content equals some loaded page's content, and Ptr names
/// the *first* such page.
#[test]
fn linear_batch_matches_reference() {
    let mut rng = rng_for("linear_batch");
    for _ in 0..128 {
        let n = rng.gen_range(1usize..20);
        let set: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..8)).collect();
        let cand = rng.gen_range(0u8..8);

        let mut mem = HostMemory::new();
        let ppns: Vec<_> = set
            .iter()
            .enumerate()
            .map(|(i, &c)| mem.map_new_page(VmId(0), Gfn(i as u64), content(c)))
            .collect();
        let cand_ppn = mem.map_new_page(VmId(1), Gfn(0), content(cand));

        let mut engine = PageForgeEngine::new(EngineConfig {
            table_entries: 31,
            ..EngineConfig::default()
        });
        let mut fabric = FlatFabric::all_dram(50);
        engine.insert_pfe(cand_ppn, true, 0);
        for (i, &ppn) in ppns.iter().enumerate().take(31) {
            let next = if i + 1 < ppns.len().min(31) {
                (i + 1) as u8
            } else {
                INVALID_INDEX
            };
            engine.insert_ppn(i as u8, ppn, next, next);
        }
        engine.run_batch(&mem, &mut fabric, 0).unwrap();
        let info = engine.pfe_info();

        let reference = set.iter().position(|&c| c == cand);
        match reference {
            Some(idx) => {
                assert!(info.duplicate);
                assert_eq!(usize::from(info.ptr), idx, "first match wins");
            }
            None => assert!(!info.duplicate),
        }
        // The hash key always completes (L was set) and equals the direct
        // computation.
        assert_eq!(
            info.hash,
            Some(EccKeyConfig::default().page_key(mem.frame_data(cand_ppn).unwrap()))
        );
    }
}

/// Engine timing is deterministic: identical batches take identical
/// cycle counts.
#[test]
fn engine_timing_is_deterministic() {
    let mut rng = rng_for("engine_timing");
    for _ in 0..64 {
        let n = rng.gen_range(1usize..10);
        let set: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..5)).collect();
        let run = || {
            let mut mem = HostMemory::new();
            let ppns: Vec<_> = set
                .iter()
                .enumerate()
                .map(|(i, &c)| mem.map_new_page(VmId(0), Gfn(i as u64), content(c)))
                .collect();
            let cand = mem.map_new_page(VmId(1), Gfn(0), content(2));
            let mut engine = PageForgeEngine::new(EngineConfig::default());
            let mut fabric = FlatFabric::all_dram(80);
            engine.insert_pfe(cand, true, 0);
            for (i, &ppn) in ppns.iter().enumerate() {
                let next = if i + 1 < ppns.len() {
                    (i + 1) as u8
                } else {
                    INVALID_INDEX
                };
                engine.insert_ppn(i as u8, ppn, next, next);
            }
            engine.run_batch(&mem, &mut fabric, 0).unwrap().cycles
        };
        assert_eq!(run(), run());
    }
}
