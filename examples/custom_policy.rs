//! Custom merging policies on the raw PageForge hardware interface.
//!
//! §4.2 of the paper stresses that the hardware is *not* tied to KSM: the
//! software decides which pages go into the Scan Table and how `Less`/
//! `More` link them. This example drives the engine directly through the
//! Table 1 API with two non-KSM policies:
//!
//! 1. **linear set scan** — compare the candidate against an arbitrary
//!    list of pages by pointing both `Less` and `More` at the next entry
//!    (the paper's own suggestion);
//! 2. **recently-written-first** — a toy policy that orders candidates by
//!    write recency, showing that policy lives entirely in software.
//!
//! Run with: `cargo run --release --example custom_policy`

use pageforge::core::fabric::FlatFabric;
use pageforge::core::{EngineConfig, PageForgeEngine, INVALID_INDEX};
use pageforge::types::{Gfn, PageData, Ppn, VmId};
use pageforge::vm::HostMemory;

/// Policy 1: compare `candidate` against every page of `set`, in order,
/// regardless of content ordering — `Less == More == next entry`.
fn linear_scan(
    engine: &mut PageForgeEngine,
    mem: &HostMemory,
    fabric: &mut FlatFabric,
    candidate: Ppn,
    set: &[Ppn],
) -> Option<Ppn> {
    let capacity = engine.table().capacity();
    let mut start = 0usize;
    engine.insert_pfe(candidate, false, 0);
    while start < set.len() {
        let batch = &set[start..(start + capacity).min(set.len())];
        let last_batch = start + batch.len() == set.len();
        engine.clear_others();
        for (i, &ppn) in batch.iter().enumerate() {
            let next = if i + 1 < batch.len() {
                (i + 1) as u8
            } else {
                INVALID_INDEX
            };
            // Both outcomes proceed to the next entry: a pure set scan.
            engine.insert_ppn(i as u8, ppn, next, next);
        }
        engine.update_pfe(last_batch, 0);
        engine
            .run_batch(mem, fabric, 0)
            .expect("the loaded candidate and pages exist");
        let info = engine.pfe_info();
        if info.duplicate {
            return Some(batch[info.ptr as usize]);
        }
        start += batch.len();
    }
    None
}

fn main() {
    let mut mem = HostMemory::new();
    // Ten pages; page 7 is a duplicate of the candidate.
    let candidate_data = PageData::from_fn(|i| (i % 13) as u8);
    let set: Vec<Ppn> = (0..10u64)
        .map(|i| {
            let data = if i == 7 {
                candidate_data.clone()
            } else {
                PageData::from_fn(move |j| ((j as u64 + i * 31) % 251) as u8)
            };
            mem.map_new_page(VmId(0), Gfn(i), data)
        })
        .collect();
    let candidate = mem.map_new_page(VmId(1), Gfn(0), candidate_data);

    let mut engine = PageForgeEngine::new(EngineConfig::default());
    let mut fabric = FlatFabric::all_dram(80);

    // --- Policy 1: linear set scan --------------------------------------
    let hit = linear_scan(&mut engine, &mem, &mut fabric, candidate, &set);
    println!("linear set scan: duplicate found at {:?}", hit);
    assert_eq!(hit, Some(set[7]));

    // The hash key came for free while scanning (Last-Refill forced it).
    println!(
        "hash key generated in the background: {:?}",
        engine.pfe_info().hash
    );

    // --- Policy 2: recently-written-first -------------------------------
    // Software tracks write recency and simply loads the Scan Table in
    // that order; the hardware is unchanged. Here, pretend pages 9, 7, 1
    // were written most recently.
    let recency_order = [set[9], set[7], set[1]];
    let hit = linear_scan(&mut engine, &mem, &mut fabric, candidate, &recency_order);
    println!("recently-written-first scan: duplicate found at {:?}", hit);
    assert_eq!(hit, Some(set[7]));

    println!(
        "engine totals: {} batches, {} comparisons, {} lines fetched",
        engine.stats().runs,
        engine.stats().comparisons,
        engine.stats().lines_fetched
    );
    println!("policy changed twice; hardware stayed identical (§4.2). Done.");
}
