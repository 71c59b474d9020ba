//! End-to-end exercises of the Table 1 hardware/software protocol, played
//! exactly as §3.6 describes: fill → trigger → poll → refill → read key.

use pageforge::core::fabric::FlatFabric;
use pageforge::core::{EngineConfig, PageForgeEngine, INVALID_INDEX};
use pageforge::ecc::EccKeyConfig;
use pageforge::types::{Gfn, PageData, Ppn, VmId};
use pageforge::vm::HostMemory;

fn pages(contents: &[u8]) -> (HostMemory, Vec<Ppn>) {
    let mut mem = HostMemory::new();
    let ppns = contents
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            mem.map_new_page(
                VmId(0),
                Gfn(i as u64),
                PageData::from_fn(move |j| c.wrapping_mul(29).wrapping_add((j % 17) as u8)),
            )
        })
        .collect();
    (mem, ppns)
}

/// The §3.6 protocol across multiple refills: "the OS periodically calls
/// get_PFE_info... If S is set and D reset, it refills the Scan table with
/// another batch of insert_PPN calls, and then calls update_PFE."
#[test]
fn multi_batch_protocol_finds_late_duplicate() {
    // Candidate equals content 9; batches hold 2 pages each, the match is
    // in the third batch.
    let (mem, p) = pages(&[1, 2, 3, 4, 5, 9, 9]);
    let mut engine = PageForgeEngine::new(EngineConfig {
        table_entries: 2,
        ..EngineConfig::default()
    });
    let mut fabric = FlatFabric::all_dram(80);

    let candidate = p[6];
    engine.insert_pfe(candidate, false, 0);
    let mut found = None;
    for (batch, chunk) in p[..6].chunks(2).enumerate() {
        engine.clear_others();
        for (i, &ppn) in chunk.iter().enumerate() {
            let next = if i + 1 < chunk.len() {
                (i + 1) as u8
            } else {
                INVALID_INDEX
            };
            engine.insert_ppn(i as u8, ppn, next, next);
        }
        let last = batch == 2;
        engine.update_pfe(last, 0);
        engine
            .run_batch(&mem, &mut fabric, batch as u64 * 50_000)
            .unwrap();
        let info = engine.pfe_info();
        assert!(info.scanned, "S must be set after every batch");
        if info.duplicate {
            found = Some(chunk[info.ptr as usize]);
            break;
        }
    }
    assert_eq!(found, Some(p[5]), "duplicate is the first '9' page");
    // "If D is set... the hardware completes the generation of the hash
    // key" — H must be readable now.
    let info = engine.pfe_info();
    assert!(info.hash_ready);
    assert_eq!(
        info.hash,
        Some(EccKeyConfig::default().page_key(mem.frame_data(candidate).unwrap()))
    );
}

/// `update_ECC_offset` changes the key for subsequent candidates.
#[test]
fn update_ecc_offset_affects_next_candidate() {
    let (mem, p) = pages(&[7, 8]);
    let mut fabric = FlatFabric::all_dram(80);
    let mut key_with = |offsets: Vec<usize>| {
        let mut engine = PageForgeEngine::new(EngineConfig::default());
        engine.update_ecc_offset(offsets).unwrap();
        engine.insert_pfe(p[0], true, 0);
        engine.insert_ppn(0, p[1], INVALID_INDEX, INVALID_INDEX);
        engine.run_batch(&mem, &mut fabric, 0).unwrap();
        engine.pfe_info().hash.expect("key ready after L-batch")
    };
    let a = key_with(vec![3, 19, 35, 51]);
    let b = key_with(vec![0, 16, 32, 48]);
    assert_ne!(a, b, "different sampled lines give different keys");
    // And each matches the software-computed key for those offsets.
    let cfg = EccKeyConfig::with_offsets(vec![0, 16, 32, 48]).unwrap();
    assert_eq!(b, cfg.page_key(mem.frame_data(p[0]).unwrap()));
}

/// The S bit without D after a full scan of distinct pages; Ptr tells the
/// OS which way the last comparison went.
#[test]
fn scanned_without_duplicate_reports_direction() {
    let (mem, p) = pages(&[50, 10]);
    let mut engine = PageForgeEngine::new(EngineConfig::default());
    let mut fabric = FlatFabric::all_dram(80);
    // Candidate (content 10*29...) is smaller than the node (50...):
    // encode distinct invalid continuations on each side.
    engine.insert_pfe(p[1], true, 0);
    engine.insert_ppn(0, p[0], 100, 101);
    engine.run_batch(&mem, &mut fabric, 0).unwrap();
    let info = engine.pfe_info();
    assert!(info.scanned && !info.duplicate);
    assert!(
        info.ptr == 100 || info.ptr == 101,
        "Ptr must carry the walk-off code, got {}",
        info.ptr
    );
}

/// Hardware statistics reflect the §3.5 no-cache design: candidate lines
/// are re-fetched for every comparison.
#[test]
fn candidate_is_refetched_per_comparison() {
    let (mem, p) = pages(&[5, 6, 7]);
    // Make two nodes identical-prefix so comparisons run deep... simpler:
    // compare candidate against two distinct pages; candidate lines are
    // fetched once per comparison.
    let mut engine = PageForgeEngine::new(EngineConfig::default());
    let mut fabric = FlatFabric::all_dram(80);
    engine.insert_pfe(p[0], true, 0);
    engine.insert_ppn(0, p[1], 1, 1);
    engine.insert_ppn(1, p[2], INVALID_INDEX, INVALID_INDEX);
    engine.run_batch(&mem, &mut fabric, 0).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.comparisons, 2);
    // Each comparison fetched pairs of lines; totals must be even and > 2
    // (candidate re-read for the second comparison).
    assert!(stats.lines_fetched >= 4);
}

/// A full driver pass equals software KSM's merge decisions even when the
/// Scan Table is tiny (max refill pressure).
#[test]
fn tiny_scan_table_still_correct() {
    use pageforge::core::{PageForge, PageForgeConfig};
    let contents: Vec<u8> = (0..40).map(|i| (i % 7) as u8).collect();
    let (mem, _) = pages(&contents);
    let mut m = mem.clone();
    let hints: Vec<_> = (0..40).map(|i| (VmId(0), Gfn(i as u64))).collect();
    let cfg = PageForgeConfig {
        engine: EngineConfig {
            table_entries: 3,
            ..EngineConfig::default()
        },
        ..PageForgeConfig::default()
    };
    let mut pf = PageForge::new(cfg, hints.clone());
    let mut fabric = FlatFabric::all_dram(80);
    pf.run_to_steady_state(&mut m, &mut fabric, 16);
    assert_eq!(m.allocated_frames(), 7, "7 distinct contents remain");
    m.check_invariants().unwrap();

    // And a tiny table needs strictly more refills than the paper's 31-entry
    // table to do the same job.
    let mut m31 = mem.clone();
    let mut pf31 = PageForge::new(PageForgeConfig::default(), hints);
    pf31.run_to_steady_state(&mut m31, &mut fabric, 16);
    assert_eq!(m31.allocated_frames(), 7);
    assert!(
        pf.stats().refills > pf31.stats().refills,
        "3-entry table: {} refills vs 31-entry: {}",
        pf.stats().refills,
        pf31.stats().refills
    );
}
