//! Chaos bookkeeping for the control plane: which hosts are down, gray,
//! or wedged, what is pending evacuation, and the running
//! [`FleetChaos`] tally.
//!
//! [`ChaosState`] is pure state — the recovery *logic* (heartbeat,
//! evacuation drain, placement audit) lives in `plane`, where the lease
//! machinery is in scope. Everything here is a
//! deterministic function of the plan and the tick number:
//!
//! * a host is **down** while its crash window is open *or* while any of
//!   its residents are still pending evacuation (a rejoining host must
//!   come back empty);
//! * a host is **unhealthy** (quarantined: no admissions, no rescans,
//!   leases re-parked) while down, gray, or wedged;
//! * evacuations drain in `(crash_tick, vm)` order — a total order that
//!   does not depend on host stepping, which is the determinism argument
//!   for recovery (DESIGN.md §7).

use std::collections::{BTreeMap, BTreeSet};

use pageforge_faults::{FleetFaultEvent, FleetFaultPlan};
use pageforge_types::stats::RunningStats;

use crate::result::FleetChaos;

/// Per-run chaos state, sized to the fleet at construction. The default
/// is a zero-host state with every count at 0: what a plan-free run
/// exports.
#[derive(Debug, Default)]
pub(crate) struct ChaosState {
    /// Plan events sorted by firing tick; `next_event` is the replay
    /// cursor.
    events: Vec<FleetFaultEvent>,
    next_event: usize,
    /// Absolute tick each host's crash window closes (0 = never down).
    down_until: Vec<u64>,
    /// Absolute tick each host's gray-slowdown window closes.
    gray_until: Vec<u64>,
    /// Scan-budget divisor while the gray window is open.
    gray_factor: Vec<u32>,
    /// Absolute tick each host's engine-wedge window closes.
    wedge_until: Vec<u64>,
    /// Whether the host's engine is currently wedged (edge detection for
    /// the injector toggle).
    wedged_now: Vec<bool>,
    /// Last heartbeat's health verdict (edge detection for
    /// quarantine/recovery transitions).
    unhealthy_prev: Vec<bool>,
    /// Armed mid-copy migration failures per source host.
    migfail_armed: Vec<u32>,
    /// VMs still pending evacuation, per crashed source host.
    pending_from: Vec<usize>,
    /// Evacuation queue in `(crash_tick, vm)` order.
    evac: BTreeSet<(u64, u32)>,
    /// Reverse index: pending VM → its crash tick (O(log n)
    /// cancellation when the VM departs on its own).
    evac_tick: BTreeMap<u32, u64>,
    /// Sum of evacuation waits, for the latency mean.
    wait_sum: u64,
    /// Every evacuation wait, in ticks (the `fleet.evac.latency`
    /// histogram).
    pub(crate) evac_waits: RunningStats,
    /// Per-host health checks run by the heartbeat.
    pub(crate) health_checks: u64,
    /// Hosts the last heartbeat found unhealthy.
    pub(crate) unhealthy_now: u64,
    /// The running summary folded into the result.
    pub(crate) tally: FleetChaos,
}

impl ChaosState {
    pub(crate) fn new(plan: &FleetFaultPlan, hosts: usize) -> ChaosState {
        let mut events = plan.events.clone();
        // Generated plans are sorted; plans read from disk may not be.
        events.sort_by_key(|e| e.at_tick);
        ChaosState {
            events,
            down_until: vec![0; hosts],
            gray_until: vec![0; hosts],
            gray_factor: vec![1; hosts],
            wedge_until: vec![0; hosts],
            wedged_now: vec![false; hosts],
            unhealthy_prev: vec![false; hosts],
            migfail_armed: vec![0; hosts],
            pending_from: vec![0; hosts],
            ..ChaosState::default()
        }
    }

    fn hosts(&self) -> usize {
        self.down_until.len()
    }

    /// Plan events firing at or before tick `t`; each is delivered once.
    pub(crate) fn take_due(&mut self, t: u64) -> Vec<FleetFaultEvent> {
        let mut due = Vec::new();
        while let Some(e) = self.events.get(self.next_event) {
            if e.at_tick > t {
                break;
            }
            due.push(e.clone());
            self.next_event += 1;
        }
        due
    }

    /// Down: crash window open, or residents still pending evacuation.
    pub(crate) fn down(&self, h: usize, t: u64) -> bool {
        self.down_until.get(h).is_some_and(|&u| t < u)
            || self.pending_from.get(h).is_some_and(|&n| n > 0)
    }

    /// Inside a gray-slowdown window.
    pub(crate) fn gray(&self, h: usize, t: u64) -> bool {
        self.gray_until.get(h).is_some_and(|&u| t < u)
    }

    /// Inside an engine-wedge window.
    pub(crate) fn wedged(&self, h: usize, t: u64) -> bool {
        self.wedge_until.get(h).is_some_and(|&u| t < u)
    }

    /// Healthy hosts take admissions, rescans, and rebalancer traffic;
    /// everything else is quarantined.
    pub(crate) fn healthy(&self, h: usize, t: u64) -> bool {
        !self.down(h, t) && !self.gray(h, t) && !self.wedged(h, t)
    }

    /// Quarantine reason code for `fleet/quarantine` traces:
    /// 0 crash, 1 gray, 2 wedge, 3 healthy.
    pub(crate) fn reason(&self, h: usize, t: u64) -> u8 {
        if self.down(h, t) {
            0
        } else if self.gray(h, t) {
            1
        } else if self.wedged(h, t) {
            2
        } else {
            3
        }
    }

    /// Scan budget for host `h` this tick: the base budget divided by
    /// the gray factor while a slowdown window is open (at least one).
    pub(crate) fn scan_budget(&self, h: usize, t: u64, base: usize) -> usize {
        if self.gray(h, t) {
            let f = self.gray_factor.get(h).copied().unwrap_or(1).max(1) as usize;
            (base / f).max(1)
        } else {
            base
        }
    }

    /// Whether a crash of `h` at `t` may fire: host index in range, not
    /// already down, and at least one *other* host up to evacuate to.
    /// Because every admitted crash preserves an up host and the down
    /// set otherwise only shrinks, at least one host is up at every
    /// tick — which is why the evacuation drain always finds a
    /// destination.
    pub(crate) fn crash_admissible(&self, h: usize, t: u64) -> bool {
        h < self.hosts()
            && !self.down(h, t)
            && (0..self.hosts()).any(|o| o != h && !self.down(o, t))
    }

    /// Marks `h` down for `down_ticks` and queues its residents for
    /// evacuation in `(crash_tick, vm)` order. Callers validate with
    /// [`crash_admissible`](Self::crash_admissible) first.
    pub(crate) fn record_crash(&mut self, h: usize, t: u64, down_ticks: u64, vms: &[u32]) {
        if h >= self.hosts() {
            return;
        }
        self.down_until[h] = t.saturating_add(down_ticks.max(1));
        self.pending_from[h] += vms.len();
        for &vm in vms {
            self.evac.insert((t, vm));
            self.evac_tick.insert(vm, t);
        }
    }

    /// Opens (or extends) a gray-slowdown window on `h`.
    pub(crate) fn extend_gray(&mut self, h: usize, t: u64, for_ticks: u64, factor: u32) {
        if h >= self.hosts() {
            return;
        }
        self.gray_until[h] = self.gray_until[h].max(t.saturating_add(for_ticks.max(1)));
        self.gray_factor[h] = factor.max(2);
    }

    /// Opens (or extends) an engine-wedge window on `h`.
    pub(crate) fn extend_wedge(&mut self, h: usize, t: u64, for_ticks: u64) {
        if h >= self.hosts() {
            return;
        }
        self.wedge_until[h] = self.wedge_until[h].max(t.saturating_add(for_ticks.max(1)));
    }

    /// Arms one mid-copy failure for the next rebalancer migration
    /// sourced from `h`.
    pub(crate) fn arm_migfail(&mut self, h: usize) {
        if let Some(n) = self.migfail_armed.get_mut(h) {
            *n += 1;
        }
    }

    /// Consumes one armed mid-copy failure for source host `h`.
    pub(crate) fn take_migfail(&mut self, h: usize) -> bool {
        match self.migfail_armed.get_mut(h) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Records the engine-wedge verdict for `h`; returns `true` when it
    /// changed (the caller must toggle the host's injector).
    pub(crate) fn wedge_transition(&mut self, h: usize, want: bool) -> bool {
        match self.wedged_now.get_mut(h) {
            Some(now) if *now != want => {
                *now = want;
                true
            }
            _ => false,
        }
    }

    /// Last heartbeat's health verdict for `h`.
    pub(crate) fn was_unhealthy(&self, h: usize) -> bool {
        self.unhealthy_prev.get(h).copied().unwrap_or(false)
    }

    /// Stores this heartbeat's health verdict for `h`.
    pub(crate) fn set_unhealthy(&mut self, h: usize, unhealthy: bool) {
        if let Some(slot) = self.unhealthy_prev.get_mut(h) {
            *slot = unhealthy;
        }
    }

    /// Pops the next VM awaiting evacuation, in `(crash_tick, vm)` order.
    pub(crate) fn next_evac(&mut self) -> Option<(u64, u32)> {
        let &(ct, vm) = self.evac.first()?;
        self.evac.remove(&(ct, vm));
        self.evac_tick.remove(&vm);
        Some((ct, vm))
    }

    /// Re-queues an evacuation that found no destination this tick.
    pub(crate) fn repark_evac(&mut self, crash_tick: u64, vm: u32) {
        self.evac.insert((crash_tick, vm));
        self.evac_tick.insert(vm, crash_tick);
    }

    /// Marks one evacuation from `src` complete (or cancelled).
    pub(crate) fn evac_done(&mut self, src: usize) {
        if let Some(n) = self.pending_from.get_mut(src) {
            *n = n.saturating_sub(1);
        }
    }

    /// Accumulates one evacuation wait for the latency mean, max and
    /// histogram.
    pub(crate) fn note_evac_wait(&mut self, waited: u64) {
        self.wait_sum += waited;
        self.tally.evac_latency_max = self.tally.evac_latency_max.max(waited);
        self.evac_waits.push(waited as f64);
    }

    /// Cancels a pending evacuation when the VM departs on its own
    /// (lifetime expiry beats the drain to it); returns whether one was
    /// pending. Without this, the drain would later re-admit a departed
    /// VM — a double placement.
    pub(crate) fn cancel_evac(&mut self, vm: u32, src: usize) -> bool {
        let Some(ct) = self.evac_tick.remove(&vm) else {
            return false;
        };
        self.evac.remove(&(ct, vm));
        self.evac_done(src);
        true
    }

    /// Finalises the tally (latency mean) and returns it.
    pub(crate) fn into_tally(mut self) -> FleetChaos {
        self.tally.evac_latency_mean = if self.tally.evacuated_vms > 0 {
            self.wait_sum as f64 / self.tally.evacuated_vms as f64
        } else {
            0.0
        };
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_faults::FleetFaultKind;

    fn crash_at(t: u64, host: u32) -> FleetFaultEvent {
        FleetFaultEvent {
            at_tick: t,
            host,
            kind: FleetFaultKind::Crash { down_ticks: 4 },
        }
    }

    #[test]
    fn events_fire_once_in_tick_order_even_when_unsorted() {
        let plan = FleetFaultPlan {
            seed: 0,
            events: vec![crash_at(9, 1), crash_at(3, 0)],
        };
        let mut ch = ChaosState::new(&plan, 2);
        assert!(ch.take_due(2).is_empty());
        let due = ch.take_due(3);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].host, 0);
        assert_eq!(ch.take_due(100).len(), 1);
        assert!(ch.take_due(200).is_empty());
    }

    #[test]
    fn down_covers_crash_window_and_pending_evacuations() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 3);
        ch.record_crash(1, 10, 5, &[7, 8]);
        assert!(ch.down(1, 10) && ch.down(1, 14));
        // Window elapsed but one VM still pending: still down.
        ch.evac_done(1);
        assert!(ch.down(1, 15));
        ch.evac_done(1);
        assert!(!ch.down(1, 15));
        assert!(!ch.down(0, 10), "other hosts unaffected");
        assert!(!ch.down(9, 10), "out-of-range host is never down");
    }

    #[test]
    fn crash_admissibility_always_keeps_one_host_up() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 2);
        assert!(ch.crash_admissible(0, 5));
        ch.record_crash(0, 5, 10, &[]);
        assert!(!ch.crash_admissible(0, 6), "already down");
        assert!(!ch.crash_admissible(1, 6), "would leave no host up");
        assert!(!ch.crash_admissible(7, 6), "out of range");
        assert!(ch.crash_admissible(1, 15), "host 0 recovered");
    }

    #[test]
    fn evacuations_drain_in_crash_tick_then_vm_order() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 4);
        ch.record_crash(2, 8, 4, &[9, 4]);
        ch.record_crash(1, 6, 4, &[7]);
        assert_eq!(ch.next_evac(), Some((6, 7)));
        assert_eq!(ch.next_evac(), Some((8, 4)));
        assert_eq!(ch.next_evac(), Some((8, 9)));
        assert_eq!(ch.next_evac(), None);
    }

    #[test]
    fn cancelling_a_departed_vm_skips_its_evacuation() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 2);
        ch.record_crash(0, 3, 4, &[5, 6]);
        assert!(ch.cancel_evac(5, 0));
        assert!(!ch.cancel_evac(5, 0), "already cancelled");
        assert_eq!(ch.next_evac(), Some((3, 6)));
        ch.evac_done(0);
        assert!(!ch.down(0, 99), "drained host rejoins");
    }

    #[test]
    fn gray_wedge_and_health_transitions() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 2);
        ch.extend_gray(0, 4, 6, 3);
        ch.extend_wedge(1, 2, 5);
        assert_eq!(ch.scan_budget(0, 5, 96), 32);
        assert_eq!(ch.scan_budget(0, 10, 96), 96, "window closed");
        assert_eq!(ch.scan_budget(1, 3, 96), 96, "wedge does not slow");
        assert!(!ch.healthy(0, 5) && !ch.healthy(1, 3));
        assert_eq!(ch.reason(0, 5), 1);
        assert_eq!(ch.reason(1, 3), 2);
        assert!(ch.wedge_transition(1, true));
        assert!(!ch.wedge_transition(1, true), "no repeat toggles");
        assert!(ch.wedge_transition(1, false));
        assert!(!ch.was_unhealthy(0));
        ch.set_unhealthy(0, true);
        assert!(ch.was_unhealthy(0));
    }

    #[test]
    fn unbounded_windows_stay_open_instead_of_wrapping() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 3);
        ch.record_crash(0, 7, u64::MAX, &[]);
        ch.extend_gray(1, 7, u64::MAX, 2);
        ch.extend_wedge(2, 7, u64::MAX);
        let late = u64::MAX - 1;
        assert!(ch.down(0, late) && ch.gray(1, late) && ch.wedged(2, late));
    }

    #[test]
    fn migfail_arms_per_source_host_and_drains() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 2);
        ch.arm_migfail(1);
        ch.arm_migfail(1);
        ch.arm_migfail(5); // out of range: ignored
        assert!(!ch.take_migfail(0));
        assert!(ch.take_migfail(1));
        assert!(ch.take_migfail(1));
        assert!(!ch.take_migfail(1));
    }

    #[test]
    fn tally_finalises_the_latency_mean() {
        let mut ch = ChaosState::new(&FleetFaultPlan::empty(), 1);
        ch.tally.evacuated_vms = 2;
        ch.note_evac_wait(1);
        ch.note_evac_wait(4);
        let tally = ch.into_tally();
        assert!((tally.evac_latency_mean - 2.5).abs() < 1e-12);
        assert_eq!(tally.evac_latency_max, 4);
        let empty = ChaosState::new(&FleetFaultPlan::empty(), 1).into_tally();
        assert_eq!(empty.evac_latency_mean, 0.0);
    }
}
