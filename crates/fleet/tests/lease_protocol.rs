//! Lease-protocol pins: backoff shape and quarantine re-parking.
//!
//! The exponential backoff and the `(retry_tick, grant_seq)` drain order
//! are load-bearing for determinism (DESIGN.md §10) — these tests pin
//! them from outside the crate so a refactor cannot quietly change the
//! retry schedule.

use pageforge_faults::{FleetFaultEvent, FleetFaultKind, FleetFaultPlan};
use pageforge_fleet::{lease_backoff, ControlPlane, FleetConfig};

#[test]
fn lease_backoff_is_monotone_and_caps_at_the_shift_limit() {
    let cfg = FleetConfig::smoke(1);
    // Monotone non-decreasing in the attempt number...
    for attempt in 0..20 {
        assert!(
            lease_backoff(&cfg, attempt + 1) >= lease_backoff(&cfg, attempt),
            "backoff must not shrink at attempt {attempt}"
        );
    }
    // ...doubling until the cap, then flat.
    assert_eq!(lease_backoff(&cfg, 0), cfg.lease_ticks);
    for attempt in 0..cfg.max_lease_backoff_shift {
        assert_eq!(
            lease_backoff(&cfg, attempt + 1),
            lease_backoff(&cfg, attempt) * 2
        );
    }
    let capped = lease_backoff(&cfg, cfg.max_lease_backoff_shift);
    assert_eq!(lease_backoff(&cfg, cfg.max_lease_backoff_shift + 1), capped);
    assert_eq!(lease_backoff(&cfg, u32::MAX), capped);
}

#[test]
fn pathological_shifts_saturate_instead_of_overflowing() {
    let mut cfg = FleetConfig::smoke(1);
    cfg.max_lease_backoff_shift = 200; // would overflow a u64 shift
    assert_eq!(lease_backoff(&cfg, 199), u64::MAX);
    cfg.lease_ticks = 0; // a zero base still waits at least one tick
    cfg.max_lease_backoff_shift = 3;
    assert_eq!(lease_backoff(&cfg, 0), 1);
}

/// A starved fleet with a mid-run wedge window: leases that come due
/// while their host is quarantined re-park with the next backoff step,
/// then drain in `(retry_tick, grant_seq)` order after recovery.
#[test]
fn quarantined_leases_repark_and_drain_deterministically() {
    let mut cfg = FleetConfig::smoke(31);
    cfg.hosts = 3;
    cfg.ticks = 96;
    // Long jobs on a trickle budget: rejections (and therefore leases)
    // are plentiful before the wedge opens, and a scan job is always in
    // flight when it does — so the wedged engines demonstrably degrade.
    cfg.pages_per_vm = 64;
    cfg.density = 4.0;
    cfg.mean_lifetime_ticks = 16.0;
    cfg.queue_capacity = 1;
    cfg.scan_pages_per_tick = 8;
    cfg.fleet_faults = Some(FleetFaultPlan {
        seed: 31,
        events: (0..3)
            .map(|h| FleetFaultEvent {
                at_tick: 24,
                host: h,
                kind: FleetFaultKind::Wedge { for_ticks: 16 },
            })
            .collect(),
    });

    let (r, snap) = ControlPlane::new(cfg).run();
    let chaos = r.chaos.expect("plan installed");
    assert!(
        chaos.leases_reparked > 0,
        "due leases must re-park while every host is wedged"
    );
    assert_eq!(
        snap.counter("fleet.health.reparked"),
        Some(chaos.leases_reparked),
        "metric mirrors the tally"
    );
    assert!(
        r.lease_retries > chaos.leases_reparked,
        "parked work must drain after recovery (retries beyond re-parks)"
    );
    assert!(chaos.quarantines >= 3, "every host quarantined once");
    assert!(chaos.recoveries >= 3, "every host recovered");
    assert_eq!(chaos.vms_lost, 0);
    assert_eq!(chaos.vms_double_placed, 0);
}

/// With a generous scan budget (full passes complete inside the wedge
/// window) a wedged fleet visibly falls back to the software-KSM path:
/// candidates degrade, yet pages still merge and nothing is lost.
#[test]
fn a_wedged_fleet_degrades_to_software_ksm_and_still_merges() {
    let mut cfg = FleetConfig::smoke(7);
    cfg.hosts = 3;
    cfg.ticks = 64;
    cfg.pages_per_vm = 32;
    cfg.density = 4.0;
    cfg.mean_lifetime_ticks = 24.0;
    cfg.queue_capacity = 8;
    cfg.scan_pages_per_tick = 256;
    cfg.fleet_faults = Some(FleetFaultPlan {
        seed: 7,
        events: (0..3)
            .map(|h| FleetFaultEvent {
                at_tick: 4,
                host: h,
                kind: FleetFaultKind::Wedge { for_ticks: 40 },
            })
            .collect(),
    });
    let (r, _) = ControlPlane::new(cfg).run();
    let degraded = r.degraded.expect("wedged engines must degrade");
    assert!(degraded.degraded_candidates > 0, "software path exercised");
    assert!(degraded.stall_retries > 0, "the retry budget was consumed");
    assert!(r.merged_pages > 0, "degraded fleet must still merge");
    let chaos = r.chaos.expect("plan installed");
    assert_eq!(chaos.vms_lost, 0);
    assert_eq!(chaos.vms_double_placed, 0);
    assert_eq!(chaos.memory_faults, 0);
}
