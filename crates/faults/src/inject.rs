//! Replaying a [`FaultPlan`] against the engine's own cycle stream.
//!
//! The [`FaultInjector`] holds the plan's events in arm-cycle order and a
//! small set of *pending* queues, one per injection point. Each hook first
//! drains every event whose arm cycle has been reached into its queue, then
//! applies at most one pending fault. Replay consumes no randomness and
//! mutates nothing when the plan is empty, so an injector built from
//! [`FaultPlan::empty`] is indistinguishable from no injector at all.
//!
//! Bit-flip faults are routed through the real [`Secded72`] decoder here,
//! against the true per-word ECC of the pristine line, so the outcome
//! accounting (`faults.data_corrected` vs `faults.data_detected` vs
//! `faults.miscorrected`) reflects exactly what the modeled memory
//! controller would have done with the corrupted beat.

use std::collections::VecDeque;

use pageforge_ecc::{Decoded, EccCode, Secded72};
use pageforge_obs::{trace_event, Registry};
use pageforge_types::{Cycle, LINE_SIZE};

use crate::plan::{FaultEvent, FaultKind, FaultPlan, StallWindow};

/// The engine's (possibly corrupted) view of one fetched candidate line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineView {
    /// The line bytes after corruption and SECDED decode.
    pub bytes: [u8; LINE_SIZE],
    /// `false` when some word hit a detected-uncorrectable error: the
    /// bytes must not feed a merge decision (the comparator takes a
    /// deterministic safe direction instead).
    pub trusted: bool,
}

/// A pending Scan Table corruption, applied by the engine at batch start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFault {
    /// Other Pages entry index to corrupt.
    pub entry: u8,
    /// XOR applied to the entry's PPN.
    pub ppn_xor: u64,
    /// XOR applied to the Less pointer.
    pub less_xor: u8,
    /// XOR applied to the More pointer.
    pub more_xor: u8,
}

/// The `faults.*` counters (OBSERVABILITY.md).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    scheduled: u64,
    injected: u64,
    data_corrected: u64,
    data_detected: u64,
    miscorrected: u64,
    check_corrected: u64,
    key_faults: u64,
    key_collisions: u64,
    table_corruptions: u64,
    stall_hits: u64,
}

/// Deterministic replayer of one [`FaultPlan`].
///
/// Every PageForge module that gets an injector replays the *same* plan
/// independently against its own cycle stream; what differs is which
/// injection points each module's workload happens to reach, which is
/// itself deterministic.
///
/// # Examples
///
/// ```
/// use pageforge_faults::{FaultInjector, FaultPlan};
///
/// let mut inj = FaultInjector::new(&FaultPlan::empty());
/// // An empty plan never corrupts anything.
/// assert!(inj.view_line(1_000, &[0u8; 64]).is_none());
/// assert_eq!(inj.filter_minikey(1_000, 0x5A), 0x5A);
/// assert!(!inj.stalled(1_000));
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    events: VecDeque<FaultEvent>,
    stalls: Vec<StallWindow>,
    pending_line: VecDeque<FaultKind>,
    pending_key: VecDeque<u8>,
    pending_collide: u32,
    pending_table: VecDeque<TableFault>,
    wedged: bool,
    counts: Counts,
}

impl FaultInjector {
    /// Builds an injector replaying `plan`. Events replay in arm-cycle
    /// order whatever order the plan lists them in; events armed at the
    /// same cycle keep the plan's order. The `faults.scheduled` counter
    /// is set immediately; outcome counters tick as hooks fire.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.at_cycle);
        FaultInjector {
            events: events.into(),
            stalls: plan.stalls.clone(),
            pending_line: VecDeque::new(),
            pending_key: VecDeque::new(),
            pending_collide: 0,
            pending_table: VecDeque::new(),
            wedged: false,
            counts: Counts {
                scheduled: plan.events.len() as u64,
                ..Counts::default()
            },
        }
    }

    /// Wedges (or un-wedges) the injector: while wedged, [`stalled`]
    /// reports a stall at *every* cycle, regardless of the plan's stall
    /// windows. The fleet chaos plane uses this to force a host's engine
    /// into the driver's retry/degrade path for a bounded tick window.
    ///
    /// [`stalled`]: FaultInjector::stalled
    pub fn set_wedged(&mut self, on: bool) {
        self.wedged = on;
    }

    /// Whether nothing is scheduled, pending, or stalling: every hook is
    /// a guaranteed no-op.
    pub fn is_inert(&self) -> bool {
        self.events.is_empty()
            && self.stalls.is_empty()
            && self.pending_line.is_empty()
            && self.pending_key.is_empty()
            && self.pending_collide == 0
            && self.pending_table.is_empty()
            && !self.wedged
    }

    /// Drains every event armed at or before `now` into its pending queue.
    fn poll(&mut self, now: Cycle) {
        while self.events.front().is_some_and(|e| e.at_cycle <= now) {
            let event = self.events.pop_front().expect("front checked above");
            match event.kind {
                FaultKind::DataFlip { .. }
                | FaultKind::CheckFlip { .. }
                | FaultKind::AliasedTriple { .. } => self.pending_line.push_back(event.kind),
                FaultKind::KeyFault { xor } => self.pending_key.push_back(xor),
                FaultKind::KeyCollision => self.pending_collide += 1,
                FaultKind::TableCorrupt {
                    entry,
                    ppn_xor,
                    less_xor,
                    more_xor,
                } => self.pending_table.push_back(TableFault {
                    entry,
                    ppn_xor,
                    less_xor,
                    more_xor,
                }),
            }
        }
    }

    /// Corrupts the engine's view of a fetched candidate line, routing the
    /// flipped bits through the SECDED decoder against the line's true ECC.
    /// Returns `None` when no line fault is pending (the common, cheap
    /// path: one front-of-queue check).
    pub fn view_line(&mut self, now: Cycle, line: &[u8]) -> Option<LineView> {
        self.poll(now);
        let kind = self.pending_line.pop_front()?;
        assert_eq!(line.len(), LINE_SIZE, "a cache line is {LINE_SIZE} bytes");
        let mut bytes = [0u8; LINE_SIZE];
        bytes.copy_from_slice(line);
        let (word, data_xor, check_xor) = match &kind {
            FaultKind::DataFlip { word, bits } => {
                let xor = bits.iter().fold(0u64, |m, b| m | (1u64 << (b & 63)));
                (*word as usize % 8, xor, 0u8)
            }
            FaultKind::CheckFlip { word, bits } => {
                let xor = bits.iter().fold(0u8, |m, b| m | (1u8 << (b & 7)));
                (*word as usize % 8, 0u64, xor)
            }
            FaultKind::AliasedTriple { word } => (*word as usize % 8, 0b111u64, 0u8),
            _ => unreachable!("poll only queues line faults here"),
        };
        let true_word =
            u64::from_le_bytes(bytes[word * 8..word * 8 + 8].try_into().expect("8 bytes"));
        let stored_code = Secded72::encode(true_word);
        let seen_word = true_word ^ data_xor;
        let seen_code = EccCode(u8::from(stored_code) ^ check_xor);
        let decoded = Secded72::decode(seen_word, seen_code);
        self.counts.injected += 1;
        let trusted = match decoded {
            Decoded::Clean(d) | Decoded::CorrectedData { data: d, .. } => {
                // Single data-bit flips land here with d == true_word; the
                // fault was absorbed by the code exactly as §6.2 promises.
                self.counts.data_corrected += 1;
                bytes[word * 8..word * 8 + 8].copy_from_slice(&d.to_le_bytes());
                true
            }
            Decoded::CorrectedCheck(d) => {
                if d == true_word {
                    self.counts.check_corrected += 1;
                } else {
                    // The aliased triple: decode accepted wrong data.
                    self.counts.miscorrected += 1;
                }
                bytes[word * 8..word * 8 + 8].copy_from_slice(&d.to_le_bytes());
                true
            }
            Decoded::DoubleError => {
                self.counts.data_detected += 1;
                bytes[word * 8..word * 8 + 8].copy_from_slice(&seen_word.to_le_bytes());
                false
            }
        };
        // AliasedTriple corrupts data but decodes as CorrectedCheck(d) with
        // d == seen_word != true_word, so the miscorrect branch above fires.
        trace_event!(now, "faults", "inject", {
            class: f64::from(class_code(&kind)),
            word: word as f64,
            trusted: f64::from(u8::from(trusted)),
        });
        Some(LineView { bytes, trusted })
    }

    /// Applies a pending key fault to a snatched minikey (identity when
    /// none is pending).
    pub fn filter_minikey(&mut self, now: Cycle, minikey: u8) -> u8 {
        self.poll(now);
        match self.pending_key.pop_front() {
            Some(xor) => {
                self.counts.injected += 1;
                self.counts.key_faults += 1;
                trace_event!(now, "faults", "inject", {
                    class: f64::from(class_code(&FaultKind::KeyFault { xor })),
                });
                minikey ^ xor
            }
            None => minikey,
        }
    }

    /// Whether a pending collision should force the next hash-key
    /// comparison to report "unchanged" (consumes the event).
    pub fn collide_key(&mut self, now: Cycle) -> bool {
        self.poll(now);
        if self.pending_collide == 0 {
            return false;
        }
        self.pending_collide -= 1;
        self.counts.injected += 1;
        self.counts.key_collisions += 1;
        trace_event!(now, "faults", "inject", {
            class: f64::from(class_code(&FaultKind::KeyCollision)),
        });
        true
    }

    /// A pending Scan Table corruption for the engine to apply at batch
    /// start, if one has armed.
    pub fn take_table_fault(&mut self, now: Cycle) -> Option<TableFault> {
        self.poll(now);
        let fault = self.pending_table.pop_front()?;
        self.counts.injected += 1;
        self.counts.table_corruptions += 1;
        trace_event!(now, "faults", "inject", {
            class: 5.0,
            entry: f64::from(fault.entry),
        });
        Some(fault)
    }

    /// Whether the engine is inside a stall window at `now`. Each query
    /// that lands in a window ticks `faults.stall_hits`.
    pub fn stalled(&mut self, now: Cycle) -> bool {
        if self.wedged {
            self.counts.stall_hits += 1;
            return true;
        }
        if self.stalls.iter().any(|w| w.contains(now)) {
            self.counts.stall_hits += 1;
            return true;
        }
        false
    }

    /// First cycle at or after `now` that is outside every stall window
    /// (`now` itself when not stalled). Lets the driver compute a
    /// deterministic retry target without probing cycle by cycle.
    pub fn stall_clears_at(&self, now: Cycle) -> Cycle {
        let mut t = now;
        // Windows may overlap; iterate until none contains `t`. Each pass
        // strictly advances `t`, and there are finitely many windows.
        loop {
            match self.stalls.iter().find(|w| w.contains(t)) {
                Some(w) => t = w.until,
                None => return t,
            }
        }
    }

    /// Writes the `faults.*` counters into `out`, adding the derived
    /// `faults.masked` count (scheduled but never reached an injection
    /// point — e.g. armed after the last batch of the run).
    pub fn export_metrics(&self, out: &mut Registry) {
        let c = &self.counts;
        for (name, v) in [
            ("faults.scheduled", c.scheduled),
            ("faults.injected", c.injected),
            ("faults.data_corrected", c.data_corrected),
            ("faults.data_detected", c.data_detected),
            ("faults.miscorrected", c.miscorrected),
            ("faults.check_corrected", c.check_corrected),
            ("faults.key_faults", c.key_faults),
            ("faults.key_collisions", c.key_collisions),
            ("faults.table_corruptions", c.table_corruptions),
            ("faults.stall_hits", c.stall_hits),
            ("faults.masked", c.scheduled.saturating_sub(c.injected)),
        ] {
            out.counter(name, v);
        }
    }
}

/// Numeric class code carried in `faults/inject` trace events
/// (OBSERVABILITY.md): data=0, check=1, alias3=2, key=3, collide=4,
/// table=5.
fn class_code(kind: &FaultKind) -> u8 {
    match kind {
        FaultKind::DataFlip { .. } => 0,
        FaultKind::CheckFlip { .. } => 1,
        FaultKind::AliasedTriple { .. } => 2,
        FaultKind::KeyFault { .. } => 3,
        FaultKind::KeyCollision => 4,
        FaultKind::TableCorrupt { .. } => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;

    fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan {
            seed: 0,
            events,
            stalls: Vec::new(),
        }
    }

    fn line_of(fill: u8) -> [u8; LINE_SIZE] {
        [fill; LINE_SIZE]
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(&FaultPlan::empty());
        assert!(inj.is_inert());
        assert!(inj.view_line(u64::MAX, &line_of(0xAB)).is_none());
        assert_eq!(inj.filter_minikey(u64::MAX, 0x77), 0x77);
        assert!(!inj.collide_key(u64::MAX));
        assert!(inj.take_table_fault(u64::MAX).is_none());
        assert!(!inj.stalled(u64::MAX));
        assert_eq!(inj.counts.injected, 0);
    }

    #[test]
    fn single_data_flip_is_corrected() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 100,
            kind: FaultKind::DataFlip {
                word: 2,
                bits: vec![17],
            },
        }]));
        // Not armed yet.
        assert!(inj.view_line(99, &line_of(0x3C)).is_none());
        let view = inj.view_line(100, &line_of(0x3C)).expect("armed");
        assert!(view.trusted);
        assert_eq!(view.bytes, line_of(0x3C), "SECDED must undo a single flip");
        assert_eq!(inj.counts.data_corrected, 1);
        assert_eq!(inj.counts.injected, 1);
        // Consumed: next fetch is clean.
        assert!(inj.view_line(101, &line_of(0x3C)).is_none());
    }

    #[test]
    fn double_data_flip_is_detected_untrusted() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::DataFlip {
                word: 0,
                bits: vec![3, 40],
            },
        }]));
        let view = inj.view_line(0, &line_of(0x55)).expect("armed");
        assert!(!view.trusted);
        assert_ne!(view.bytes, line_of(0x55));
        assert_eq!(inj.counts.data_detected, 1);
    }

    #[test]
    fn aliased_triple_miscorrects() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::AliasedTriple { word: 1 },
        }]));
        let pristine = line_of(0x00);
        let view = inj.view_line(0, &pristine).expect("armed");
        // Decode *trusts* the view even though word 1 now differs: bits
        // 0..3 of the word flipped and the syndrome cancelled.
        assert!(view.trusted);
        assert_eq!(view.bytes[8], 0b111);
        assert_eq!(&view.bytes[9..], &pristine[9..]);
        assert_eq!(inj.counts.miscorrected, 1);
    }

    #[test]
    fn single_check_flip_leaves_data_intact() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::CheckFlip {
                word: 7,
                bits: vec![4],
            },
        }]));
        let view = inj.view_line(0, &line_of(0x9D)).expect("armed");
        assert!(view.trusted);
        assert_eq!(view.bytes, line_of(0x9D));
        assert_eq!(inj.counts.check_corrected, 1);
    }

    #[test]
    fn double_check_flip_is_detected() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::CheckFlip {
                word: 4,
                bits: vec![0, 6],
            },
        }]));
        let view = inj.view_line(0, &line_of(0xE1)).expect("armed");
        assert!(!view.trusted);
        assert_eq!(inj.counts.data_detected, 1);
    }

    #[test]
    fn key_fault_xors_minikey_once() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 50,
            kind: FaultKind::KeyFault { xor: 0x0F },
        }]));
        assert_eq!(inj.filter_minikey(49, 0xA0), 0xA0);
        assert_eq!(inj.filter_minikey(50, 0xA0), 0xAF);
        assert_eq!(inj.filter_minikey(51, 0xA0), 0xA0);
        assert_eq!(inj.counts.key_faults, 1);
    }

    #[test]
    fn collision_fires_once() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 10,
            kind: FaultKind::KeyCollision,
        }]));
        assert!(!inj.collide_key(9));
        assert!(inj.collide_key(10));
        assert!(!inj.collide_key(11));
        assert_eq!(inj.counts.key_collisions, 1);
    }

    #[test]
    fn table_fault_is_delivered_once() {
        let mut inj = FaultInjector::new(&plan_with(vec![FaultEvent {
            at_cycle: 5,
            kind: FaultKind::TableCorrupt {
                entry: 3,
                ppn_xor: 1 << 20,
                less_xor: 1,
                more_xor: 0,
            },
        }]));
        assert!(inj.take_table_fault(4).is_none());
        let fault = inj.take_table_fault(5).expect("armed");
        assert_eq!(fault.entry, 3);
        assert_eq!(fault.ppn_xor, 1 << 20);
        assert!(inj.take_table_fault(6).is_none());
        assert_eq!(inj.counts.table_corruptions, 1);
    }

    #[test]
    fn stall_windows_and_clearance() {
        let plan = FaultPlan {
            seed: 0,
            events: Vec::new(),
            stalls: vec![
                StallWindow {
                    from: 100,
                    until: 200,
                },
                StallWindow {
                    from: 180,
                    until: 260,
                },
            ],
        };
        let mut inj = FaultInjector::new(&plan);
        assert!(!inj.stalled(99));
        assert!(inj.stalled(100));
        assert!(inj.stalled(199));
        assert!(inj.stalled(250));
        assert!(!inj.stalled(260));
        // Overlapping windows resolve transitively.
        assert_eq!(inj.stall_clears_at(150), 260);
        assert_eq!(inj.stall_clears_at(50), 50);
        assert_eq!(inj.counts.stall_hits, 3);
    }

    #[test]
    fn wedging_stalls_every_cycle_until_cleared() {
        let mut inj = FaultInjector::new(&FaultPlan::empty());
        assert!(inj.is_inert());
        assert!(!inj.stalled(0));
        inj.set_wedged(true);
        assert!(!inj.is_inert());
        assert!(inj.stalled(0));
        assert!(inj.stalled(1_000_000));
        inj.set_wedged(false);
        assert!(inj.is_inert());
        assert!(!inj.stalled(2_000_000));
        assert_eq!(inj.counts.stall_hits, 2);
    }

    #[test]
    fn export_reports_masked_remainder() {
        let mut inj = FaultInjector::new(&plan_with(vec![
            FaultEvent {
                at_cycle: 0,
                kind: FaultKind::KeyCollision,
            },
            FaultEvent {
                at_cycle: 1_000_000,
                kind: FaultKind::KeyCollision,
            },
        ]));
        assert!(inj.collide_key(0));
        let mut out = Registry::new();
        inj.export_metrics(&mut out);
        let snap = out.snapshot();
        assert_eq!(snap.counter("faults.scheduled"), Some(2));
        assert_eq!(snap.counter("faults.injected"), Some(1));
        assert_eq!(snap.counter("faults.masked"), Some(1));
    }

    #[test]
    fn events_listed_out_of_order_replay_in_cycle_order() {
        let key_fault = |at_cycle, xor| FaultEvent {
            at_cycle,
            kind: FaultKind::KeyFault { xor },
        };
        // A hand-edited plan: the later event is listed first, and two
        // events share a cycle.
        let mut inj = FaultInjector::new(&plan_with(vec![
            key_fault(100, 0x01),
            key_fault(10, 0x02),
            key_fault(10, 0x04),
        ]));
        assert_eq!(inj.filter_minikey(50, 0), 0x02);
        assert_eq!(
            inj.filter_minikey(50, 0),
            0x04,
            "ties keep the plan's order"
        );
        assert_eq!(
            inj.filter_minikey(50, 0),
            0,
            "the cycle-100 event is not armed"
        );
        assert_eq!(inj.filter_minikey(100, 0), 0x01);
        assert_eq!(inj.counts.key_faults, 3);
    }

    #[test]
    fn replay_is_deterministic() {
        let plan = FaultPlan::generate(77, 1_000_000, 32, 2, 10_000);
        let run = |plan: &FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            let mut log = Vec::new();
            for t in (0..1_000_000).step_by(7_919) {
                if let Some(v) = inj.view_line(t, &line_of(0x42)) {
                    log.push((t, v.trusted, v.bytes));
                }
                log.push((t, inj.collide_key(t), line_of(inj.filter_minikey(t, 9))));
            }
            (log, inj.counts.injected)
        };
        assert_eq!(run(&plan), run(&plan));
    }
}
