//! Cross-crate behavioural tests of the full-system simulator: the
//! interference mechanisms the paper's evaluation hinges on must be
//! *mechanisms in the model*, not assertions.

use pageforge::cache::HitLevel;
use pageforge::mem::{McConfig, MemSource, MemoryController, MemorySystem, MemorySystemConfig};
use pageforge::sim::{DedupMode, SimConfig, SimFabric, System};
use pageforge::types::LineAddr;

use pageforge::cache::{HierarchyConfig, SystemCaches};
use pageforge::core::fabric::MemoryFabric;

/// The PageForge probe path: lines cached by cores are served on-chip and
/// *not* re-fetched from DRAM; uncached lines go to DRAM tagged as
/// PageForge traffic.
#[test]
fn pageforge_traffic_is_tagged_and_cache_aware() {
    let mut caches = SystemCaches::new(HierarchyConfig::micro50(2));
    let mut mem = MemorySystem::new(MemorySystemConfig::micro50());
    caches.access(0, LineAddr(64), false); // core 0 caches line 64
    let mut fabric = SimFabric::new(&mut caches, &mut mem);
    let hit = fabric.read_line(LineAddr(64), 100);
    assert!(hit.on_chip);
    let miss = fabric.read_line(LineAddr(9999), 100);
    assert!(!miss.on_chip);
    assert_eq!(mem.stats().pageforge_lines, 1);
    assert_eq!(mem.stats().demand_lines, 0);
}

/// Coalescing (§3.2.2): a demand read and a PageForge read of the same line
/// merge into one DRAM access when close in time.
#[test]
fn demand_and_pageforge_reads_coalesce() {
    let mut mc = MemoryController::new(McConfig::micro50());
    let g1 = mc.read_line(LineAddr(7), 1000, MemSource::PageForge);
    let g2 = mc.read_line(LineAddr(7), 1010, MemSource::Demand);
    assert!(g2.coalesced);
    assert_eq!(g1.ready_at, g2.ready_at);
    assert_eq!(mc.dram_stats().reads, 1);
}

/// Merging changes the *cache* behaviour, not just the frame count: after
/// merging, two VMs' identical pages are the same lines, so the second
/// VM's accesses hit on-chip.
#[test]
fn merged_pages_share_cache_lines() {
    use pageforge::ksm::{Ksm, KsmConfig};
    use pageforge::types::{Gfn, PageData, VmId};
    use pageforge::vm::HostMemory;

    let mut mem = HostMemory::new();
    let data = PageData::from_fn(|i| (i % 83) as u8);
    mem.map_new_page(VmId(0), Gfn(0), data.clone());
    mem.map_new_page(VmId(1), Gfn(0), data);
    let mut caches = SystemCaches::new(HierarchyConfig::micro50(2));

    // Before merging: distinct frames, distinct lines — core 1 misses.
    let p0 = mem.translate(VmId(0), Gfn(0)).unwrap();
    let p1 = mem.translate(VmId(1), Gfn(0)).unwrap();
    caches.access(0, p0.line_addr(0), false);
    let before = caches.access(1, p1.line_addr(0), false);
    assert_eq!(before.level, HitLevel::Memory);

    // Merge, then: same frame, so core 1 finds core 0's line.
    let mut ksm = Ksm::new(
        KsmConfig::default(),
        vec![(VmId(0), Gfn(0)), (VmId(1), Gfn(0))],
    );
    ksm.run_to_steady_state(&mut mem, 8);
    let shared = mem.translate(VmId(0), Gfn(0)).unwrap();
    assert_eq!(shared, mem.translate(VmId(1), Gfn(0)).unwrap());
    caches.access(0, shared.line_addr(1), false);
    let after = caches.access(1, shared.line_addr(1), false);
    assert_ne!(
        after.level,
        HitLevel::Memory,
        "merged line supplied on-chip"
    );
}

/// The KSM daemon's core theft shows up on exactly the cores it visited.
#[test]
fn ksm_core_theft_is_visible_per_core() {
    let r = System::new(SimConfig::quick(
        "moses",
        DedupMode::Ksm(SimConfig::scaled_ksm()),
        21,
    ))
    .run();
    let d = r.dedup.expect("ksm summary");
    assert!(d.core_cycles_frac_max > d.core_cycles_frac_avg);
    assert!(d.core_cycles_frac_avg > 0.01);
    // Table 4's breakdown categories hold at steady state.
    assert!(d.compare_frac > d.hash_frac, "comparison dominates hashing");
    assert!(d.compare_frac > 0.3 && d.compare_frac < 0.7);
    assert!(d.hash_frac > 0.05 && d.hash_frac < 0.3);
}

/// PageForge achieves the same savings with engine cycles in the Table 5
/// range and near-zero core usage — on every application.
#[test]
fn pageforge_summary_sane_across_apps() {
    for app in ["img_dnn", "silo"] {
        let ksm = System::new(SimConfig::quick(
            app,
            DedupMode::Ksm(SimConfig::scaled_ksm()),
            33,
        ))
        .run();
        let pf = System::new(SimConfig::quick(
            app,
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            33,
        ))
        .run();
        assert_eq!(
            ksm.mem_stats.allocated_frames, pf.mem_stats.allocated_frames,
            "{app}: savings must be identical"
        );
        let d = pf.dedup.expect("pf summary");
        assert!(d.engine_run_cycles_mean > 100.0, "{app}");
        assert!(d.core_cycles_frac_avg < 0.02, "{app}");
        assert!(d.engine_lines_fetched > 0, "{app}");
    }
}

/// Churn keeps the system dynamic: CoW breaks occur during measurement and
/// the dedup machinery re-merges pages, so merges keep happening after the
/// pre-merge phase.
#[test]
fn churn_drives_continuous_remerging() {
    let r = System::new(SimConfig::quick(
        "masstree",
        DedupMode::Ksm(SimConfig::scaled_ksm()),
        5,
    ))
    .run();
    assert!(r.mem_stats.cow_breaks > 0, "churn must break CoW");
    let d = r.dedup.expect("summary");
    // Total merges exceed what the pre-merge alone produced is hard to
    // observe directly; at minimum the daemon stayed busy.
    assert!(d.merged_total > 0);
}

/// All five applications complete queries under every configuration.
#[test]
fn all_apps_complete_queries_in_all_modes() {
    for app in ["img_dnn", "masstree", "moses", "silo", "sphinx"] {
        for mode in [
            DedupMode::None,
            DedupMode::Ksm(SimConfig::scaled_ksm()),
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
        ] {
            let mut cfg = SimConfig::quick(app, mode, 3);
            if app == "sphinx" {
                cfg.measure_cycles = 60_000_000; // second-level queries
            }
            let label = cfg.dedup.label();
            let r = System::new(cfg).run();
            assert!(
                r.queries_completed > 0,
                "{app}/{label}: no queries completed"
            );
            assert!(r.mean_sojourn() > 0.0, "{app}/{label}");
        }
    }
}
