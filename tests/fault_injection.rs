//! Fault-injection integration tests: graceful degradation must change
//! *costs*, never *decisions*. An engine stall mid-run pushes candidates
//! onto the software KSM fallback, and the final merge state must be
//! identical to a fault-free run — at any parallelism level of the bench
//! scheduler.

use pageforge::core::fabric::FlatFabric;
use pageforge::core::{PageForge, PageForgeConfig};
use pageforge::faults::{FaultInjector, FaultPlan, StallWindow};
use pageforge::ksm::{Ksm, KsmConfig};
use pageforge::types::{Cycle, Gfn, PageData, VmId};
use pageforge::vm::HostMemory;
use pageforge_bench::scheduler::{run_units, Unit};

/// A duplicate-rich scenario: `n` pages drawn from a small content pool.
fn world(seed: u64) -> (HostMemory, Vec<(VmId, Gfn)>) {
    let mut mem = HostMemory::new();
    let mut hints = Vec::new();
    for vm in 0..4u32 {
        for gfn in 0..32u64 {
            let class = (vm as u64 * 32 + gfn).wrapping_mul(seed | 1) % 24;
            mem.map_new_page(
                VmId(vm),
                Gfn(gfn),
                PageData::from_fn(|i| {
                    (class.wrapping_mul(0x9E37).wrapping_add(i as u64 * 131) >> 4) as u8
                }),
            );
            hints.push((VmId(vm), Gfn(gfn)));
        }
    }
    (mem, hints)
}

/// Runs the driver over the whole hint list for `passes` full scans under
/// an optional plan; returns final memory, driver, and last cycle.
fn run(
    mem: &HostMemory,
    hints: &[(VmId, Gfn)],
    plan: Option<&FaultPlan>,
    passes: usize,
) -> (HostMemory, PageForge, Cycle) {
    let mut m = mem.clone();
    let mut pf = PageForge::new(PageForgeConfig::default(), hints.to_vec());
    if let Some(p) = plan {
        pf.set_fault_injector(Some(FaultInjector::new(p)));
    }
    let mut fabric = FlatFabric::all_dram(80);
    let mut t = 0;
    for _ in 0..passes {
        let report = pf.scan_batch(&mut m, &mut fabric, t, hints.len());
        t = report.finished_at.max(t) + 10_000;
    }
    (m, pf, t)
}

/// A plan whose only content is one stall window straddling the middle of
/// the run: the engine goes dark mid-batch and recovers later.
fn stall_plan(horizon: Cycle) -> FaultPlan {
    FaultPlan {
        seed: 0,
        events: Vec::new(),
        stalls: vec![StallWindow {
            from: horizon / 4,
            until: horizon / 2,
        }],
    }
}

#[test]
fn stall_mid_batch_preserves_merge_decisions() {
    let (mem, hints) = world(5);
    // Fault-free probe: learns the horizon and the reference merge state.
    let (clean, _, horizon) = run(&mem, &hints, None, 3);

    let plan = stall_plan(horizon);
    let (faulted, pf, _) = run(&mem, &hints, Some(&plan), 3);

    // The stall must actually have engaged the fallback machinery...
    let stats = pf.stats();
    assert!(
        stats.stall_retries > 0 || stats.degraded_candidates > 0,
        "stall window never hit: retries {} degraded {}",
        stats.stall_retries,
        stats.degraded_candidates
    );
    // ...without changing a single merge decision.
    assert_eq!(
        clean.allocated_frames(),
        faulted.allocated_frames(),
        "degraded mode changed the memory savings"
    );
    for (vm, gfn, _) in clean.iter_mappings() {
        assert_eq!(
            clean.guest_read(vm, gfn),
            faulted.guest_read(vm, gfn),
            "guest ({vm}, {gfn}) diverged under the stall"
        );
    }
    clean.check_invariants().unwrap();
    faulted.check_invariants().unwrap();
}

#[test]
fn degraded_candidates_take_the_software_path_entirely() {
    let (mem, hints) = world(11);
    // A stall covering the whole run: every candidate must degrade, and
    // the result must still match the fault-free state.
    let (clean, _, _) = run(&mem, &hints, None, 3);
    let plan = FaultPlan {
        seed: 0,
        events: Vec::new(),
        stalls: vec![StallWindow {
            from: 0,
            until: Cycle::MAX,
        }],
    };
    let (faulted, pf, _) = run(&mem, &hints, Some(&plan), 3);
    assert!(
        pf.stats().degraded_candidates > 0,
        "a run-long stall must degrade candidates"
    );
    assert_eq!(clean.allocated_frames(), faulted.allocated_frames());
    faulted.check_invariants().unwrap();
}

/// KSM and a PageForge whose engine is stalled for the whole run decide
/// alike: every search of a non-empty tree degrades to KSM's own
/// candidate step, so both reach the same frames through the same
/// candidate outcomes, pass for pass.
#[test]
fn stalled_pageforge_decides_like_ksm() {
    let (mem, hints) = world(7);
    let mut ksm_mem = mem.clone();
    let mut ksm = Ksm::new(KsmConfig::default(), hints.clone());
    let passes = ksm.run_to_steady_state(&mut ksm_mem, 20);

    let mut pf_mem = mem;
    let mut pf = PageForge::new(PageForgeConfig::default(), hints);
    let stall = FaultPlan {
        seed: 0,
        events: Vec::new(),
        stalls: vec![StallWindow {
            from: 0,
            until: Cycle::MAX,
        }],
    };
    pf.set_fault_injector(Some(FaultInjector::new(&stall)));
    let mut fabric = FlatFabric::all_dram(80);
    assert_eq!(pf.run_to_steady_state(&mut pf_mem, &mut fabric, 20), passes);

    let (k, p) = (ksm.stats(), pf.stats());
    assert!(p.degraded_candidates > 0, "the stall never degraded");
    assert!(k.merged_stable > 0 && k.merged_unstable > 0);
    assert_eq!(
        [
            k.merged_stable,
            k.merged_unstable,
            k.inserted_unstable,
            k.dropped_changed,
            k.already_shared,
            k.unmapped,
        ],
        [
            p.merged_stable,
            p.merged_unstable,
            p.inserted_unstable,
            p.dropped_changed,
            p.already_shared,
            p.unmapped,
        ],
        "merged_stable, merged_unstable, inserted_unstable, dropped_changed, \
         already_shared, unmapped"
    );
    let frames = |m: &HostMemory| m.iter_mappings().collect::<Vec<_>>();
    assert_eq!(frames(&ksm_mem), frames(&pf_mem));
    pf_mem.check_invariants().unwrap();
}

/// The same stall scenario scheduled as bench work units: outputs must be
/// byte-identical at `--jobs 2` and `--jobs 4` (deterministic replay does
/// not depend on worker interleaving).
#[test]
fn stall_scenario_identical_across_scheduler_jobs() {
    let cell = |seed: u64| -> (usize, u64, u64) {
        let (mem, hints) = world(seed);
        let (_, _, horizon) = run(&mem, &hints, None, 2);
        let plan = stall_plan(horizon);
        let (m, pf, _) = run(&mem, &hints, Some(&plan), 2);
        (
            m.allocated_frames(),
            m.stats().merges,
            pf.stats().degraded_candidates + pf.stats().stall_retries,
        )
    };
    let units = |n: usize| -> Vec<Unit<(usize, u64, u64)>> {
        (0..n)
            .map(|i| {
                let seed = 21 + i as u64;
                Unit::new("faults", format!("stall/{seed}"), move || cell(seed))
            })
            .collect()
    };
    let at2: Vec<_> = run_units(2, units(6))
        .expect("jobs=2 runs")
        .into_iter()
        .map(|r| (r.label, r.value))
        .collect();
    let at4: Vec<_> = run_units(4, units(6))
        .expect("jobs=4 runs")
        .into_iter()
        .map(|r| (r.label, r.value))
        .collect();
    assert_eq!(at2, at4, "fault outcomes depend on --jobs level");
    // And the faulted cells really exercised degradation somewhere.
    assert!(
        at2.iter().any(|(_, (_, _, deg))| *deg > 0),
        "no cell ever degraded"
    );
}
