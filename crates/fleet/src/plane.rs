//! The fleet control plane: arrivals, placement, migration, leases —
//! and, under a [`FleetFaultPlan`](pageforge_faults::FleetFaultPlan),
//! heartbeats, quarantine, evacuation, and rollback.
//!
//! One [`ControlPlane::run`] call executes the whole scenario as a pure
//! function of its [`FleetConfig`]: a seeded serverless arrival stream
//! is placed onto the least-loaded host, instances depart when their
//! lifetime expires, a periodic rebalancer live-migrates instances off
//! overloaded hosts, and every piece of scan work flows through each
//! host's bounded queue — with a deterministic lease/retry protocol
//! absorbing rejections when a host's merge pipeline falls behind.
//!
//! Determinism (DESIGN.md §10): every control-plane decision happens in
//! one sequential phase per tick, in a total order (VM-id order for
//! departures, `(retry_tick, lease_seq)` order for retries, arrival
//! order for admissions, host-id order for scans and host stepping).
//!
//! Chaos (DESIGN.md §7): when a fleet fault plan is installed, two
//! sequential phases run before departures — a heartbeat (deliver due
//! fault events, toggle engine wedges, compute per-host health, count
//! quarantine/recovery transitions) and an evacuation drain (move up to
//! `evac_vms_per_tick` VMs off crashed hosts in `(crash_tick, vm)`
//! order, re-materialising content byte-identically on the
//! destination). Unhealthy hosts take no admissions or rescans and
//! their due leases re-park with the same exponential backoff; an armed
//! migration failure rolls the move back with the source authoritative.
//! A per-tick placement audit enforces the zero-loss invariant: no VM
//! lost, none double-placed, and (at the horizon) every host's memory
//! invariants intact. Without a plan every chaos phase is skipped, so
//! plan-free runs are byte-identical to pre-chaos builds.

use std::collections::BTreeMap;

use pageforge_faults::FleetFaultKind;
use pageforge_obs::{trace_event, Registry, Snapshot};
use pageforge_types::derive_seed;
use pageforge_types::stats::RunningStats;
use pageforge_vm::AppProfile;
use pageforge_workloads::ServerlessWorkload;

use crate::chaos::ChaosState;
use crate::config::FleetConfig;
use crate::host::{Host, HostTickReport, ScanJob};
use crate::result::{FleetDegraded, FleetResult};

/// A rejected scan job parked for a deterministic retry.
#[derive(Debug, Clone, Copy)]
struct Lease {
    host: usize,
    pages: usize,
    attempt: u32,
}

/// Running aggregates folded into the final [`FleetResult`] and the
/// `fleet.*` metrics.
#[derive(Default)]
struct Totals {
    arrivals: u64,
    departures: u64,
    migrations: u64,
    migrated_pages: u64,
    migration_cycles: u64,
    rebalances: u64,
    scanned: u64,
    merged: u64,
    churn: u64,
    enqueued: u64,
    rejected: u64,
    retries: u64,
    depth_sum: u64,
    depth_max: u64,
    /// Every host's queue depth at every tick.
    depth_samples: RunningStats,
    resident_tick_sum: u64,
    savings_tick_sum: f64,
    /// The last tick's resident VMs and mean savings fraction.
    resident_now: u64,
    savings_now: f64,
}

/// The scenario driver. See the module docs for the per-tick phase
/// order; [`run`](Self::run) is the only entry point.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    cfg: FleetConfig,
}

impl ControlPlane {
    /// Wraps a configuration.
    pub fn new(cfg: FleetConfig) -> ControlPlane {
        ControlPlane { cfg }
    }

    /// The configuration this plane runs.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Runs the scenario and returns the result plus a unified
    /// observability snapshot (the plane's `fleet.*` metrics merged with
    /// every host's engine/driver/memory metrics — per-host counters add
    /// up fleet-wide).
    pub fn run(&self) -> (FleetResult, Snapshot) {
        let cfg = &self.cfg;
        assert!(cfg.hosts > 0, "a fleet needs at least one host");

        // Per-family content profiles and seeds: instances of one family
        // share runtime-image content (full-span groups), which is the
        // dedup opportunity the scenario measures.
        let profiles: Vec<AppProfile> = cfg
            .functions
            .iter()
            .map(|f| AppProfile::new(&f.name, cfg.pages_per_vm, f.unmergeable_frac, f.zero_frac))
            .collect();
        let content_seeds: Vec<u64> = cfg
            .functions
            .iter()
            .map(|f| derive_seed(cfg.seed, &format!("content.{}", f.name)))
            .collect();

        // The whole arrival schedule, precomputed and grouped by tick.
        let mut arrivals_by_tick: BTreeMap<u64, Vec<pageforge_workloads::MicroVm>> =
            BTreeMap::new();
        let mut stream = ServerlessWorkload::new(
            cfg.functions.clone(),
            cfg.arrival_rate(),
            cfg.mean_lifetime_ticks,
            derive_seed(cfg.seed, "arrivals"),
        );
        for vm in stream.arrivals_until(cfg.ticks) {
            arrivals_by_tick
                .entry(vm.arrival_tick)
                .or_default()
                .push(vm);
        }

        let mut hosts: Vec<Host> = (0..cfg.hosts)
            .map(|_| {
                Host::new(
                    cfg.pf.clone(),
                    cfg.queue_capacity,
                    cfg.user_hints,
                    cfg.faults.as_ref(),
                )
            })
            .collect();

        // vm id -> (current host, function family).
        let mut placement: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        let mut departures_by_tick: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        // Parked retries in (retry_tick, grant_seq) order.
        let mut leases: BTreeMap<(u64, u64), Lease> = BTreeMap::new();
        let mut lease_seq = 0u64;
        let mut totals = Totals::default();
        let churn_base = derive_seed(cfg.seed, "churn");
        let mut chaos = cfg
            .fleet_faults
            .as_ref()
            .map(|plan| ChaosState::new(plan, cfg.hosts));

        for t in 0..cfg.ticks {
            let cycle = t * cfg.tick_cycles;

            // Phase 0a: heartbeat — deliver due fault events, toggle
            // engine wedges, count quarantine/recovery transitions.
            if let Some(ch) = chaos.as_mut() {
                chaos_heartbeat(ch, t, cycle, &mut hosts);
            }

            // Phase 0b: evacuation drain — move VMs off crashed hosts
            // over the live-migration path, in (crash_tick, vm) order.
            if let Some(ch) = chaos.as_mut() {
                chaos_evacuate(
                    ch,
                    t,
                    cycle,
                    &mut hosts,
                    cfg,
                    &profiles,
                    &content_seeds,
                    &mut placement,
                    &mut leases,
                    &mut lease_seq,
                    &mut totals,
                );
            }

            // Phase 1: departures, in VM-id order.
            if let Some(mut gone) = departures_by_tick.remove(&t) {
                gone.sort_unstable();
                for vm in gone {
                    let (h, _) = placement.remove(&vm).expect("departing VM is placed");
                    if let Some(ch) = chaos.as_mut() {
                        // Lifetime expiry beats a pending evacuation:
                        // cancel it so the drain cannot re-admit a
                        // departed VM (a double placement).
                        ch.cancel_evac(vm, h);
                    }
                    let Some(host) = hosts.get_mut(h) else {
                        continue;
                    };
                    let pages = host.depart(vm);
                    totals.departures += 1;
                    trace_event!(cycle, "fleet", "depart", {
                        vm: vm as f64,
                        host: h as f64,
                        pages: pages as f64,
                    });
                }
            }

            // Phase 2: lease retries due at or before this tick, in
            // (retry_tick, grant_seq) order. Retries targeting a
            // quarantined host re-park with the next backoff step.
            while let Some(entry) = leases.first_entry() {
                if entry.key().0 > t {
                    break;
                }
                let lease = entry.remove();
                totals.retries += 1;
                let quarantined = chaos.as_ref().is_some_and(|ch| !ch.healthy(lease.host, t));
                let enqueued = !quarantined
                    && hosts
                        .get_mut(lease.host)
                        .is_some_and(|host| host.try_enqueue(ScanJob { pages: lease.pages }));
                if enqueued {
                    totals.enqueued += 1;
                    continue;
                }
                if quarantined {
                    if let Some(ch) = chaos.as_mut() {
                        ch.tally.leases_reparked += 1;
                    }
                }
                let attempt = lease.attempt + 1;
                let due = t + lease_backoff(cfg, attempt);
                leases.insert((due, lease_seq), Lease { attempt, ..lease });
                lease_seq += 1;
                trace_event!(cycle, "fleet", "lease", {
                    host: lease.host as f64,
                    pages: lease.pages as f64,
                    retry_tick: due as f64,
                    attempt: attempt as f64,
                });
            }

            // Phase 3: admissions onto the least-loaded healthy host
            // (ties to the lowest host id), in arrival order. Fallback
            // order healthy → up → any: quarantine is best-effort, but a
            // VM is never refused placement (zero-loss wins).
            if let Some(batch) = arrivals_by_tick.remove(&t) {
                for vm in batch {
                    let pick = match chaos.as_ref() {
                        None => least_loaded_of(&hosts, |_| true),
                        Some(ch) => least_loaded_of(&hosts, |h| ch.healthy(h, t))
                            .or_else(|| least_loaded_of(&hosts, |h| !ch.down(h, t)))
                            .or_else(|| least_loaded_of(&hosts, |_| true)),
                    };
                    let Some((h, _)) = pick else { continue };
                    let (Some(host), Some(profile), Some(&cseed)) = (
                        hosts.get_mut(h),
                        profiles.get(vm.func),
                        content_seeds.get(vm.func),
                    ) else {
                        continue;
                    };
                    let hinted = host.admit(vm.id, profile, cseed);
                    placement.insert(vm.id, (h, vm.func));
                    departures_by_tick
                        .entry(t + vm.lifetime_ticks)
                        .or_default()
                        .push(vm.id);
                    totals.arrivals += 1;
                    trace_event!(cycle, "fleet", "admit", {
                        vm: vm.id as f64,
                        host: h as f64,
                        func: vm.func as f64,
                        pages: hinted as f64,
                    });
                    offer_scan(
                        h,
                        host,
                        hinted,
                        t,
                        cfg,
                        &mut leases,
                        &mut lease_seq,
                        &mut totals,
                    );
                }
            }

            // Phase 4: periodic rebalance — migrate the lowest-id
            // instance off the most loaded healthy host while the spread
            // exceeds the threshold (bounded moves per invocation). An
            // armed migration failure aborts the copy mid-flight and
            // rolls back with the source authoritative.
            if cfg.rebalance_every > 0 && t > 0 && t % cfg.rebalance_every == 0 {
                totals.rebalances += 1;
                for _ in 0..cfg.hosts {
                    let (max_pick, min_pick) = {
                        let ch = chaos.as_ref();
                        let eligible = |h: usize| ch.is_none_or(|c| c.healthy(h, t));
                        (
                            most_loaded_of(&hosts, eligible),
                            least_loaded_of(&hosts, eligible),
                        )
                    };
                    let (Some((max_h, max_n)), Some((min_h, min_n))) = (max_pick, min_pick) else {
                        break;
                    };
                    if max_h == min_h || max_n.saturating_sub(min_n) <= cfg.migration_threshold {
                        break;
                    }
                    let Ok([src_host, dst_host]) = hosts.get_disjoint_mut([max_h, min_h]) else {
                        break;
                    };
                    let Some(vm) = src_host.lowest_resident() else {
                        break;
                    };
                    let Some(&(_, func)) = placement.get(&vm) else {
                        break;
                    };
                    let (Some(profile), Some(&cseed)) =
                        (profiles.get(func), content_seeds.get(func))
                    else {
                        break;
                    };
                    let pages = src_host.depart(vm);
                    let cost = pages as u64 * cfg.migrate_cycles_per_page;
                    if chaos.as_mut().is_some_and(|ch| ch.take_migfail(max_h)) {
                        // Mid-copy failure: the destination burned half
                        // the copy cost, the source re-materialises the
                        // instance and stays authoritative.
                        dst_host.advance(cost / 2);
                        totals.migration_cycles += cost / 2;
                        let _ = src_host.admit(vm, profile, cseed);
                        if let Some(ch) = chaos.as_mut() {
                            ch.tally.migration_rollbacks += 1;
                        }
                        trace_event!(cycle, "fleet", "rollback", {
                            vm: vm as f64,
                            from: max_h as f64,
                            to: min_h as f64,
                            pages: pages as f64,
                        });
                        continue;
                    }
                    dst_host.advance(cost);
                    let hinted = dst_host.admit(vm, profile, cseed);
                    placement.insert(vm, (min_h, func));
                    totals.migrations += 1;
                    totals.migrated_pages += pages as u64;
                    totals.migration_cycles += cost;
                    trace_event!(cycle, "fleet", "migrate", {
                        vm: vm as f64,
                        from: max_h as f64,
                        to: min_h as f64,
                        pages: pages as f64,
                    });
                    offer_scan(
                        min_h,
                        dst_host,
                        hinted,
                        t,
                        cfg,
                        &mut leases,
                        &mut lease_seq,
                        &mut totals,
                    );
                }
            }

            // Phase 5: periodic full rescan per host (churn re-exposes
            // candidates between arrivals), in host-id order. Down and
            // gray hosts shed this load; wedged hosts still rescan —
            // their driver degrades the work to the software-KSM path,
            // which is exactly the fallback the chaos campaign measures.
            if cfg.rescan_every > 0 && t > 0 && t % cfg.rescan_every == 0 {
                for (h, host) in hosts.iter_mut().enumerate() {
                    if chaos
                        .as_ref()
                        .is_some_and(|ch| ch.down(h, t) || ch.gray(h, t))
                    {
                        continue;
                    }
                    let pages = host.hint_count();
                    offer_scan(
                        h,
                        host,
                        pages,
                        t,
                        cfg,
                        &mut leases,
                        &mut lease_seq,
                        &mut totals,
                    );
                }
            }

            // Phase 6: step every host in host-id order — churn, then
            // queue draining. Down hosts are dark (no churn, no
            // scanning); gray hosts run on a divided budget.
            let churn_tick = cfg.churn_every > 0 && t > 0 && t % cfg.churn_every == 0;
            let reports: Vec<HostTickReport> = hosts
                .iter_mut()
                .enumerate()
                .map(|(h, host)| {
                    if chaos.as_ref().is_some_and(|ch| ch.down(h, t)) {
                        return HostTickReport::default();
                    }
                    let budget = chaos.as_ref().map_or(cfg.scan_pages_per_tick, |ch| {
                        ch.scan_budget(h, t, cfg.scan_pages_per_tick)
                    });
                    let churn_seed = churn_tick.then(|| mix64(churn_base, h as u64, t));
                    host.step(budget, churn_seed)
                })
                .collect();

            // Phase 7: sequential sampling.
            let mut resident = 0u64;
            let mut savings = 0.0f64;
            for (r, host) in reports.iter().zip(&hosts) {
                totals.scanned += r.scanned;
                totals.merged += r.merged;
                totals.churn += r.churn_events;
                let depth = host.queue_depth() as u64;
                totals.depth_samples.push(depth as f64);
                totals.depth_sum += depth;
                totals.depth_max = totals.depth_max.max(depth);
                resident += host.resident_count() as u64;
                savings += host.savings_fraction();
            }
            let savings_mean = savings / cfg.hosts as f64;
            totals.resident_tick_sum += resident;
            totals.savings_tick_sum += savings_mean;
            totals.resident_now = resident;
            totals.savings_now = savings_mean;

            // Phase 8: placement audit — the zero-loss invariant,
            // checked every tick while a plan is active.
            if let Some(ch) = chaos.as_mut() {
                chaos_audit(ch, &hosts, &placement);
            }
        }

        // Write the plane's metrics once, from the fields that counted
        // them (a plan-free run writes the chaos names at 0), then every
        // host's metrics, and sum the degraded-mode summary.
        let mut out = Registry::new();
        let idle = ChaosState::default();
        let ch = chaos.as_ref().unwrap_or(&idle);
        for (name, v) in [
            ("fleet.arrivals", totals.arrivals),
            ("fleet.departures", totals.departures),
            ("fleet.migrations", totals.migrations),
            ("fleet.migrated_pages", totals.migrated_pages),
            ("fleet.rebalances", totals.rebalances),
            ("fleet.scanned_pages", totals.scanned),
            ("fleet.merged_pages", totals.merged),
            ("fleet.churn_events", totals.churn),
            ("fleet.queue.enqueued", totals.enqueued),
            ("fleet.queue.rejected", totals.rejected),
            ("fleet.queue.retries", totals.retries),
            // Every rejection grants a lease.
            ("fleet.leases.granted", totals.rejected),
            ("fleet.health.checks", ch.health_checks),
            ("fleet.health.crashes", ch.tally.crashes),
            ("fleet.health.crashes_skipped", ch.tally.crashes_skipped),
            ("fleet.health.quarantines", ch.tally.quarantines),
            ("fleet.health.recoveries", ch.tally.recoveries),
            ("fleet.health.reparked", ch.tally.leases_reparked),
            ("fleet.evac.vms", ch.tally.evacuated_vms),
            ("fleet.evac.pages", ch.tally.evacuated_pages),
            ("fleet.evac.rollbacks", ch.tally.migration_rollbacks),
        ] {
            out.counter(name, v);
        }
        for (name, v) in [
            ("fleet.hosts", cfg.hosts as f64),
            ("fleet.vms_resident", totals.resident_now as f64),
            ("fleet.dedup.savings_frac", totals.savings_now),
            ("fleet.health.unhealthy", ch.unhealthy_now as f64),
        ] {
            out.gauge(name, v);
        }
        out.histogram("fleet.queue.depth", &totals.depth_samples);
        out.histogram("fleet.evac.latency", &ch.evac_waits);
        let mut degraded = FleetDegraded::default();
        let mut resident_final = 0u64;
        let mut savings_final = 0.0f64;
        let mut memory_faults = 0u64;
        for host in &hosts {
            host.export_metrics(&mut out);
            let s = host.engine().stats();
            degraded.degraded_candidates += s.degraded_candidates;
            degraded.stall_retries += s.stall_retries;
            degraded.engine_errors += s.engine_errors;
            resident_final += host.resident_count() as u64;
            savings_final += host.savings_fraction();
            if host.memory().check_invariants().is_err() {
                memory_faults += 1;
            }
        }
        let chaos_summary = chaos.map(|mut ch| {
            chaos_audit(&mut ch, &hosts, &placement);
            ch.tally.memory_faults = memory_faults;
            ch.into_tally()
        });

        let samples = (cfg.ticks * cfg.hosts as u64).max(1);
        let result = FleetResult {
            label: cfg.label.clone(),
            hosts: cfg.hosts as u64,
            ticks: cfg.ticks,
            arrivals: totals.arrivals,
            departures: totals.departures,
            migrations: totals.migrations,
            migrated_pages: totals.migrated_pages,
            migration_cycles: totals.migration_cycles,
            rebalances: totals.rebalances,
            scanned_pages: totals.scanned,
            merged_pages: totals.merged,
            queue_enqueued: totals.enqueued,
            queue_rejected: totals.rejected,
            lease_retries: totals.retries,
            queue_depth_mean: totals.depth_sum as f64 / samples as f64,
            queue_depth_max: totals.depth_max,
            resident_mean: totals.resident_tick_sum as f64 / cfg.ticks.max(1) as f64,
            resident_final,
            savings_mean: totals.savings_tick_sum / cfg.ticks.max(1) as f64,
            savings_final: savings_final / cfg.hosts as f64,
            churn_events: totals.churn,
            degraded: (!degraded.is_zero()).then_some(degraded),
            chaos: chaos_summary,
        };
        (result, out.snapshot())
    }
}

/// Exponential lease backoff: retry `attempt` waits
/// `lease_ticks << min(attempt, max_lease_backoff_shift)` ticks (at
/// least one; saturating at `u64::MAX` for pathological shifts).
pub fn lease_backoff(cfg: &FleetConfig, attempt: u32) -> u64 {
    cfg.lease_ticks
        .checked_shl(attempt.min(cfg.max_lease_backoff_shift))
        .unwrap_or(u64::MAX)
        .max(1)
}

/// Deterministic per-(host, tick) stream seed (SplitMix64 finalizer).
fn mix64(base: u64, a: u64, b: u64) -> u64 {
    let mut z =
        base ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Eligible host with the fewest residents; ties go to the lowest host
/// id. `None` when no host is eligible.
fn least_loaded_of(hosts: &[Host], eligible: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for (h, host) in hosts.iter().enumerate() {
        if !eligible(h) {
            continue;
        }
        let n = host.resident_count();
        if best.is_none_or(|(_, bn)| n < bn) {
            best = Some((h, n));
        }
    }
    best
}

/// Eligible host with the most residents; ties go to the lowest host
/// id. `None` when no host is eligible.
fn most_loaded_of(hosts: &[Host], eligible: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for (h, host) in hosts.iter().enumerate() {
        if !eligible(h) {
            continue;
        }
        let n = host.resident_count();
        if best.is_none_or(|(_, bn)| n > bn) {
            best = Some((h, n));
        }
    }
    best
}

/// Phase 0a: deliver due fault events, toggle engine wedges, and run
/// the health check (quarantine/recovery transitions, unavailability
/// accounting).
fn chaos_heartbeat(ch: &mut ChaosState, t: u64, cycle: u64, hosts: &mut [Host]) {
    for e in ch.take_due(t) {
        let h = e.host as usize;
        match e.kind {
            FleetFaultKind::Crash { down_ticks } => {
                // A crash must leave at least one other host up (the
                // evacuation destination); inadmissible crashes are
                // counted and skipped, never partially applied.
                let Some(host) = hosts.get_mut(h).filter(|_| ch.crash_admissible(h, t)) else {
                    ch.tally.crashes_skipped += 1;
                    continue;
                };
                let dropped = host.crash();
                let vms = host.resident_vms();
                ch.record_crash(h, t, down_ticks, &vms);
                ch.tally.crashes += 1;
                ch.tally.dropped_jobs += dropped as u64;
                trace_event!(cycle, "fleet", "crash", {
                    host: h as f64,
                    vms: vms.len() as f64,
                    dropped_jobs: dropped as f64,
                    down_ticks: down_ticks as f64,
                });
            }
            FleetFaultKind::GraySlow { for_ticks, factor } => {
                ch.extend_gray(h, t, for_ticks, factor);
            }
            FleetFaultKind::Wedge { for_ticks } => ch.extend_wedge(h, t, for_ticks),
            FleetFaultKind::MigrationFail => ch.arm_migfail(h),
        }
    }
    // Engine-wedge transitions: toggle each host's injector only on
    // window edges (the flag, not the window, is what the driver sees).
    for (h, host) in hosts.iter_mut().enumerate() {
        let want = ch.wedged(h, t);
        if ch.wedge_transition(h, want) {
            host.set_wedged(want);
        }
    }
    // Health check over every host.
    ch.health_checks += hosts.len() as u64;
    let mut unhealthy_now = 0u64;
    for h in 0..hosts.len() {
        let unhealthy = !ch.healthy(h, t);
        if unhealthy {
            unhealthy_now += 1;
        }
        match (ch.was_unhealthy(h), unhealthy) {
            (false, true) => {
                ch.tally.quarantines += 1;
                trace_event!(cycle, "fleet", "quarantine", {
                    host: h as f64,
                    on: 1.0,
                    reason: ch.reason(h, t) as f64,
                });
            }
            (true, false) => {
                ch.tally.recoveries += 1;
                trace_event!(cycle, "fleet", "quarantine", {
                    host: h as f64,
                    on: 0.0,
                    reason: ch.reason(h, t) as f64,
                });
            }
            _ => {}
        }
        ch.set_unhealthy(h, unhealthy);
    }
    ch.tally.unhealthy_host_ticks += unhealthy_now;
    ch.unhealthy_now = unhealthy_now;
}

/// Phase 0b: drain up to `evac_vms_per_tick` pending evacuations in
/// `(crash_tick, vm)` order. Each evacuation is a live migration: the
/// VM departs the crashed source, the destination pays the copy cost,
/// and the content re-materialises byte-identically (admission content
/// is a pure function of `(profile, vm, content_seed)`).
#[allow(clippy::too_many_arguments)]
fn chaos_evacuate(
    ch: &mut ChaosState,
    t: u64,
    cycle: u64,
    hosts: &mut [Host],
    cfg: &FleetConfig,
    profiles: &[AppProfile],
    content_seeds: &[u64],
    placement: &mut BTreeMap<u32, (usize, usize)>,
    leases: &mut BTreeMap<(u64, u64), Lease>,
    lease_seq: &mut u64,
    totals: &mut Totals,
) {
    for _ in 0..cfg.evac_vms_per_tick.max(1) {
        let Some((crash_tick, vm)) = ch.next_evac() else {
            break;
        };
        let Some(&(src, func)) = placement.get(&vm) else {
            // Unreachable: departures cancel their pending evacuation.
            continue;
        };
        let pick = {
            let c = &*ch;
            least_loaded_of(hosts, |h| h != src && c.healthy(h, t))
                .or_else(|| least_loaded_of(hosts, |h| h != src && !c.down(h, t)))
        };
        let Some((dst, _)) = pick else {
            // No live destination this tick (unreachable while the
            // crash-admissibility invariant holds); retry next tick.
            ch.repark_evac(crash_tick, vm);
            break;
        };
        let (Ok([src_host, dst_host]), Some(profile), Some(&cseed)) = (
            hosts.get_disjoint_mut([src, dst]),
            profiles.get(func),
            content_seeds.get(func),
        ) else {
            ch.repark_evac(crash_tick, vm);
            break;
        };
        let pages = src_host.depart(vm);
        let cost = pages as u64 * cfg.migrate_cycles_per_page;
        dst_host.advance(cost);
        let hinted = dst_host.admit(vm, profile, cseed);
        placement.insert(vm, (dst, func));
        ch.evac_done(src);
        let waited = t.saturating_sub(crash_tick);
        ch.tally.evacuated_vms += 1;
        ch.tally.evacuated_pages += pages as u64;
        ch.note_evac_wait(waited);
        totals.migration_cycles += cost;
        trace_event!(cycle, "fleet", "evac", {
            vm: vm as f64,
            from: src as f64,
            to: dst as f64,
            pages: pages as f64,
            waited: waited as f64,
        });
        offer_scan(dst, dst_host, hinted, t, cfg, leases, lease_seq, totals);
    }
}

/// The zero-loss placement audit: every placed VM must be resident on
/// exactly its placed host, and every resident VM must be placed.
/// Violations are counted, not panicked on — the campaign asserts the
/// counts are zero.
fn chaos_audit(ch: &mut ChaosState, hosts: &[Host], placement: &BTreeMap<u32, (usize, usize)>) {
    ch.tally.placement_audits += 1;
    let mut seen: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (h, host) in hosts.iter().enumerate() {
        for vm in host.resident_vms() {
            seen.entry(vm).or_default().push(h);
        }
    }
    for (vm, &(h, _)) in placement {
        if !seen.get(vm).is_some_and(|hs| hs.contains(&h)) {
            ch.tally.vms_lost += 1;
        }
    }
    for (vm, hs) in &seen {
        if hs.len() > 1 || !placement.contains_key(vm) {
            ch.tally.vms_double_placed += 1;
        }
    }
}

/// Offers `pages` of scan work to a host's bounded queue; a rejection
/// grants a lease with deterministic exponential-backoff retries.
#[allow(clippy::too_many_arguments)]
fn offer_scan(
    host_idx: usize,
    host: &mut Host,
    pages: usize,
    tick: u64,
    cfg: &FleetConfig,
    leases: &mut BTreeMap<(u64, u64), Lease>,
    lease_seq: &mut u64,
    totals: &mut Totals,
) {
    if pages == 0 {
        return;
    }
    if host.try_enqueue(ScanJob { pages }) {
        totals.enqueued += 1;
        return;
    }
    totals.rejected += 1;
    let due = tick + lease_backoff(cfg, 0);
    leases.insert(
        (due, *lease_seq),
        Lease {
            host: host_idx,
            pages,
            attempt: 0,
        },
    );
    *lease_seq += 1;
    trace_event!(tick * cfg.tick_cycles, "fleet", "lease", {
        host: host_idx as f64,
        pages: pages as f64,
        retry_tick: due as f64,
        attempt: 0.0,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_faults::{FaultPlan, FleetFaultEvent, FleetFaultPlan};
    use pageforge_obs::SnapshotValue;
    use pageforge_types::json::ToJson;

    /// Asserts that the snapshot's `fleet.*` counters are exactly those
    /// written from result fields, each equal to its field. Under a plan
    /// the heartbeat checks every host every tick; without one, every
    /// chaos counter is written at 0.
    fn assert_counters_mirror_result(r: &FleetResult, snap: &Snapshot) {
        let c = r.chaos.unwrap_or_default();
        let checks = r.chaos.map_or(0, |_| r.ticks * r.hosts);
        let expected = [
            ("fleet.arrivals", r.arrivals),
            ("fleet.departures", r.departures),
            ("fleet.migrations", r.migrations),
            ("fleet.migrated_pages", r.migrated_pages),
            ("fleet.rebalances", r.rebalances),
            ("fleet.scanned_pages", r.scanned_pages),
            ("fleet.merged_pages", r.merged_pages),
            ("fleet.churn_events", r.churn_events),
            ("fleet.queue.enqueued", r.queue_enqueued),
            ("fleet.queue.rejected", r.queue_rejected),
            ("fleet.queue.retries", r.lease_retries),
            ("fleet.leases.granted", r.queue_rejected),
            ("fleet.health.checks", checks),
            ("fleet.health.crashes", c.crashes),
            ("fleet.health.crashes_skipped", c.crashes_skipped),
            ("fleet.health.quarantines", c.quarantines),
            ("fleet.health.recoveries", c.recoveries),
            ("fleet.health.reparked", c.leases_reparked),
            ("fleet.evac.vms", c.evacuated_vms),
            ("fleet.evac.pages", c.evacuated_pages),
            ("fleet.evac.rollbacks", c.migration_rollbacks),
        ];
        let written = snap
            .entries()
            .iter()
            .filter(|(n, v)| n.starts_with("fleet.") && matches!(v, SnapshotValue::Counter(_)))
            .count();
        assert_eq!(written, expected.len(), "fleet.* counters written");
        for (name, v) in expected {
            assert_eq!(snap.counter(name), Some(v), "{name} mirrors the result");
        }
    }

    fn tiny(seed: u64) -> FleetConfig {
        FleetConfig {
            hosts: 3,
            ticks: 48,
            pages_per_vm: 24,
            density: 2.0,
            mean_lifetime_ticks: 12.0,
            scan_pages_per_tick: 48,
            ..FleetConfig::smoke(seed)
        }
    }

    /// A tiny config plus a mixed-class chaos plan that exercises every
    /// fault kind inside the 48-tick horizon.
    fn tiny_chaos(seed: u64) -> FleetConfig {
        let mut cfg = tiny(seed);
        cfg.fleet_faults = Some(FleetFaultPlan::generate(seed, 3, 48, 2, 2, 2, 2));
        cfg
    }

    #[test]
    fn churn_and_merging_actually_happen() {
        let (r, snap) = ControlPlane::new(tiny(9)).run();
        assert!(r.arrivals > 20, "arrivals: {}", r.arrivals);
        assert!(r.departures > 0);
        assert!(r.merged_pages > 0, "shared runtime images must merge");
        // Point-in-time savings at the horizon can be zero in a tiny run
        // (the merged instances may all have departed); the time average
        // cannot be.
        assert!(r.savings_mean > 0.0);
        assert!(r.churn_events > 0);
        assert!(r.degraded.is_none(), "fault-free run must not degrade");
        assert!(r.chaos.is_none(), "plan-free run must not report chaos");
        assert_eq!(snap.gauge("fleet.hosts"), Some(3.0));
        // Every chaos name is written at 0 without a plan.
        assert_counters_mirror_result(&r, &snap);
        assert_eq!(snap.gauge("fleet.health.unhealthy"), Some(0.0));
        assert_eq!(snap.histogram("fleet.evac.latency").unwrap().count, 0);
        // Host engine metrics are folded in fleet-wide.
        assert!(snap.counter("pageforge.candidates").unwrap() > 0);
    }

    #[test]
    fn backpressure_engages_under_a_starved_pipeline() {
        let mut cfg = tiny(3);
        // A pipeline that cannot keep up: tiny queue, trickle budget.
        cfg.queue_capacity = 1;
        cfg.scan_pages_per_tick = 4;
        cfg.density = 4.0;
        let (r, snap) = ControlPlane::new(cfg).run();
        assert!(r.queue_rejected > 0, "queue must reject under starvation");
        assert!(r.lease_retries > 0, "leases must retry");
        assert!(r.queue_depth_max >= 1);
        // Every rejection grants a lease.
        assert_counters_mirror_result(&r, &snap);
        assert_eq!(
            snap.histogram("fleet.queue.depth").unwrap().count,
            r.ticks * r.hosts
        );
    }

    #[test]
    fn migration_moves_pages_between_hosts() {
        let mut cfg = tiny(11);
        cfg.migration_threshold = 0;
        cfg.rebalance_every = 4;
        let (r, _) = ControlPlane::new(cfg).run();
        assert!(r.migrations > 0, "rebalancer must migrate");
        assert!(r.migrated_pages > 0);
        assert!(r.migration_cycles > 0);
    }

    #[test]
    fn user_hints_shrink_the_scan_load() {
        let all = {
            let (r, _) = ControlPlane::new(tiny(13)).run();
            r
        };
        let hinted = {
            let mut cfg = tiny(13);
            cfg.user_hints = true;
            let (r, _) = ControlPlane::new(cfg).run();
            r
        };
        assert_eq!(all.arrivals, hinted.arrivals, "same arrival stream");
        assert!(
            hinted.scanned_pages < all.scanned_pages,
            "user hints scan fewer pages ({} vs {})",
            hinted.scanned_pages,
            all.scanned_pages
        );
    }

    #[test]
    fn fault_plans_work_per_host_and_stay_deterministic() {
        let mut cfg = tiny(7);
        cfg.faults = Some(FaultPlan::generate(7, 50_000_000, 200, 4, 50_000));
        let run = || {
            let (r, s) = ControlPlane::new(cfg.clone()).run();
            (
                r.to_json().to_string_compact(),
                s.to_json().to_string_compact(),
            )
        };
        let one = run();
        assert_eq!(one, run(), "faulted fleet, run twice");
        assert!(
            one.1.contains("faults."),
            "per-host injectors must export faults.* metrics"
        );
    }

    #[test]
    fn chaos_runs_lose_nothing() {
        let (r, _) = ControlPlane::new(tiny_chaos(17)).run();
        let c = r.chaos.expect("plan installed: chaos section present");
        assert_eq!(c.vms_lost, 0, "zero-loss: no VM lost");
        assert_eq!(c.vms_double_placed, 0, "zero-loss: no double placement");
        assert_eq!(c.memory_faults, 0, "zero incorrect merges");
        assert_eq!(c.placement_audits, r.ticks + 1);
        assert!(c.quarantines > 0, "the plan must actually quarantine");
        assert_eq!(
            c.crashes + c.crashes_skipped,
            2,
            "every crash event accounted for"
        );
    }

    #[test]
    fn crashed_hosts_evacuate_and_recover() {
        let mut cfg = tiny(21);
        // Dense enough that every host holds residents at the crash
        // tick, with one deterministic crash long before the horizon so
        // the host is both evacuated and recovered inside the run.
        cfg.density = 6.0;
        cfg.mean_lifetime_ticks = 24.0;
        cfg.fleet_faults = Some(FleetFaultPlan {
            seed: 21,
            events: vec![FleetFaultEvent {
                at_tick: 20,
                host: 1,
                kind: FleetFaultKind::Crash { down_ticks: 8 },
            }],
        });
        let (r, snap) = ControlPlane::new(cfg).run();
        let c = r.chaos.expect("chaos section present");
        assert_eq!(c.crashes, 1);
        assert!(c.evacuated_vms > 0, "residents must evacuate");
        assert!(c.evacuated_pages > 0);
        assert!(c.recoveries >= 1, "the host must rejoin after the window");
        assert_eq!(c.vms_lost, 0);
        assert_eq!(c.vms_double_placed, 0);
        assert_eq!(c.memory_faults, 0);
        assert!(c.unhealthy_host_ticks >= 8, "down at least its window");
        assert_counters_mirror_result(&r, &snap);
        assert_eq!(
            snap.histogram("fleet.evac.latency").unwrap().count,
            c.evacuated_vms
        );
    }

    #[test]
    fn migration_failures_roll_back_with_the_source_authoritative() {
        let mut cfg = tiny(11);
        cfg.migration_threshold = 0;
        cfg.rebalance_every = 4;
        // Arm mid-copy failures on every host at t=1: the first
        // rebalancer migration from each source rolls back.
        cfg.fleet_faults = Some(FleetFaultPlan {
            seed: 11,
            events: (0..3)
                .map(|h| FleetFaultEvent {
                    at_tick: 1,
                    host: h,
                    kind: FleetFaultKind::MigrationFail,
                })
                .collect(),
        });
        let (r, _) = ControlPlane::new(cfg).run();
        let c = r.chaos.expect("chaos section present");
        assert!(c.migration_rollbacks > 0, "armed failures must fire");
        assert_eq!(c.vms_lost, 0);
        assert_eq!(c.vms_double_placed, 0);
        assert!(
            r.migration_cycles > 0,
            "partial copies are still charged cycles"
        );
    }

    #[test]
    fn empty_fleet_plan_reports_chaos_but_changes_nothing_else() {
        // The bench suite collapses empty plans to `None`; the plane
        // itself treats an installed empty plan as "chaos on, nothing
        // scheduled": same traffic, all-zero tally.
        let base = ControlPlane::new(tiny(5)).run().0;
        let mut cfg = tiny(5);
        cfg.fleet_faults = Some(FleetFaultPlan::empty());
        let with_plan = ControlPlane::new(cfg).run().0;
        let c = with_plan.chaos.expect("chaos section present");
        assert_eq!(c.crashes, 0);
        assert_eq!(c.quarantines, 0);
        assert_eq!(c.vms_lost + c.vms_double_placed + c.memory_faults, 0);
        let mut stripped = with_plan.clone();
        stripped.chaos = None;
        assert_eq!(
            base, stripped,
            "an empty plan must not perturb the simulation"
        );
    }
}
