//! Fleet-level fault plans: host crashes, gray slowdowns, engine wedges,
//! and migration failures, scheduled by control-plane *tick*.
//!
//! A [`FleetFaultPlan`] is the control-plane counterpart of the engine's
//! [`FaultPlan`](crate::FaultPlan): all randomness is spent at
//! [`generate`](FleetFaultPlan::generate) time, the plan serializes to
//! versioned JSON for archival/CI, and replay is a pure function of the
//! tick number — the fleet's `ControlPlane` resolves every host's health
//! from the plan alone, so a chaos run is as reproducible as a clean one.
//!
//! The four event classes map onto the failure taxonomy of DESIGN.md §7:
//!
//! * **Crash** — the host goes dark for `down_ticks`; its queue is
//!   dropped and its residents are evacuated over the live-migration
//!   path. The host rejoins empty once the window elapses *and* the
//!   evacuation has drained.
//! * **GraySlow** — a gray host: still up, but its per-tick scan budget
//!   is divided by `factor` for `for_ticks`. Quarantined (no new
//!   admissions) while slow.
//! * **Wedge** — the host's engine stalls unconditionally, driving every
//!   hardware batch past the driver's retry budget and into the
//!   software-KSM degraded path (PR 3's graceful-degradation machinery).
//! * **MigrationFail** — arms one mid-copy failure for the next
//!   rebalancer migration sourced from `host`; the control plane rolls
//!   back, leaving the source authoritative.

use pageforge_types::json::{obj, FromJson, ToJson, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::plan::{check_version, u64_field, version_accepted, PLAN_VERSION};

/// One scheduled host-level fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetFaultEvent {
    /// Control-plane tick at which the fault fires.
    pub at_tick: u64,
    /// Target host index. Events naming a host outside the fleet are
    /// skipped (and counted) rather than rejected, so one plan can be
    /// replayed against fleets of any size.
    pub host: u32,
    /// What happens to the host.
    pub kind: FleetFaultKind,
}

/// The fleet fault classes (DESIGN.md §7's failure taxonomy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetFaultKind {
    /// Host crash: down (dark, queue dropped, residents evacuated) for
    /// `down_ticks` ticks.
    Crash {
        /// Ticks the host stays dark before rejoining empty.
        down_ticks: u64,
    },
    /// Gray host: scan budget divided by `factor` for `for_ticks`.
    GraySlow {
        /// Window length in ticks.
        for_ticks: u64,
        /// Step-cost multiplier (budget divisor), at least 2.
        factor: u32,
    },
    /// Engine wedge: the host's injector reports a permanent stall for
    /// `for_ticks`, forcing the software-KSM degraded path.
    Wedge {
        /// Window length in ticks.
        for_ticks: u64,
    },
    /// Arms one mid-copy failure for the next rebalancer migration
    /// sourced from the event's host.
    MigrationFail,
}

impl FleetFaultKind {
    /// Short class tag (JSON discriminant).
    pub fn tag(&self) -> &'static str {
        match self {
            FleetFaultKind::Crash { .. } => "crash",
            FleetFaultKind::GraySlow { .. } => "gray",
            FleetFaultKind::Wedge { .. } => "wedge",
            FleetFaultKind::MigrationFail => "migfail",
        }
    }
}

/// A complete fleet fault schedule: the seed it derives from plus the
/// events sorted by firing tick.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetFaultPlan {
    /// Seed the plan was generated from (informational once serialized).
    pub seed: u64,
    /// Events, sorted by [`FleetFaultEvent::at_tick`].
    pub events: Vec<FleetFaultEvent>,
}

impl FleetFaultPlan {
    /// The no-fault plan: the chaos phases become no-ops.
    pub fn empty() -> Self {
        FleetFaultPlan::default()
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a mixed-class plan against a fleet of `hosts` hosts and
    /// a `ticks`-tick horizon: `crashes` host crashes (fired in the
    /// middle half of the run so evacuation and recovery both fit),
    /// `grays` gray-slowdown windows, `wedges` engine wedges, and
    /// `migration_fails` armed mid-copy failures. All randomness is
    /// spent here; the returned plan replays purely.
    ///
    /// ```
    /// use pageforge_faults::FleetFaultPlan;
    /// let a = FleetFaultPlan::generate(7, 8, 2_000, 2, 2, 2, 2);
    /// let b = FleetFaultPlan::generate(7, 8, 2_000, 2, 2, 2, 2);
    /// assert_eq!(a, b); // fully deterministic
    /// assert_eq!(a.events.len(), 8);
    /// ```
    #[allow(clippy::too_many_arguments)]
    pub fn generate(
        seed: u64,
        hosts: u32,
        ticks: u64,
        crashes: usize,
        grays: usize,
        wedges: usize,
        migration_fails: usize,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF1EE7);
        let hosts = hosts.max(1);
        let ticks = ticks.max(16);
        let mut events = Vec::new();
        for _ in 0..crashes {
            let down = (ticks / 8).max(4);
            events.push(FleetFaultEvent {
                at_tick: rng.gen_range(ticks / 4..ticks * 3 / 4),
                host: rng.gen_range(0..hosts),
                kind: FleetFaultKind::Crash {
                    down_ticks: rng.gen_range(down / 2 + 1..down + 1),
                },
            });
        }
        for _ in 0..grays {
            events.push(FleetFaultEvent {
                at_tick: rng.gen_range(1..ticks * 3 / 4),
                host: rng.gen_range(0..hosts),
                kind: FleetFaultKind::GraySlow {
                    for_ticks: rng.gen_range(ticks / 16 + 1..ticks / 4 + 2),
                    factor: rng.gen_range(2..5),
                },
            });
        }
        for _ in 0..wedges {
            events.push(FleetFaultEvent {
                at_tick: rng.gen_range(1..ticks * 3 / 4),
                host: rng.gen_range(0..hosts),
                kind: FleetFaultKind::Wedge {
                    for_ticks: rng.gen_range(ticks / 16 + 1..ticks / 4 + 2),
                },
            });
        }
        for _ in 0..migration_fails {
            events.push(FleetFaultEvent {
                at_tick: rng.gen_range(1..ticks),
                host: rng.gen_range(0..hosts),
                kind: FleetFaultKind::MigrationFail,
            });
        }
        // Stable by firing tick: class grouping above breaks ties
        // deterministically.
        events.sort_by_key(|e| e.at_tick);
        FleetFaultPlan { seed, events }
    }

    /// Reads a plan from a JSON file, rejecting future-versioned plans
    /// with a message naming the supported version
    /// ([`PLAN_VERSION`]).
    pub fn read_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value =
            pageforge_types::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        check_version(&value, path)?;
        Self::from_json(&value).ok_or_else(|| format!("{}: not a fleet fault plan", path.display()))
    }

    /// Writes the plan as compact JSON.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json().to_string_compact())
    }
}

impl ToJson for FleetFaultEvent {
    fn to_json(&self) -> Value {
        let mut fields: Vec<(&'static str, Value)> = vec![
            ("at", self.at_tick.to_json()),
            ("host", u64::from(self.host).to_json()),
            ("kind", self.kind.tag().to_owned().to_json()),
        ];
        match &self.kind {
            FleetFaultKind::Crash { down_ticks } => {
                fields.push(("down_ticks", down_ticks.to_json()));
            }
            FleetFaultKind::GraySlow { for_ticks, factor } => {
                fields.push(("for_ticks", for_ticks.to_json()));
                fields.push(("factor", u64::from(*factor).to_json()));
            }
            FleetFaultKind::Wedge { for_ticks } => {
                fields.push(("for_ticks", for_ticks.to_json()));
            }
            FleetFaultKind::MigrationFail => {}
        }
        obj(fields)
    }
}

impl FromJson for FleetFaultEvent {
    fn from_json(value: &Value) -> Option<Self> {
        let at_tick = u64_field(value, "at")?;
        let host = u32::try_from(u64_field(value, "host")?).ok()?;
        let kind = match String::from_json(value.get("kind")?)?.as_str() {
            "crash" => FleetFaultKind::Crash {
                down_ticks: u64_field(value, "down_ticks")?,
            },
            "gray" => FleetFaultKind::GraySlow {
                for_ticks: u64_field(value, "for_ticks")?,
                factor: u32::try_from(u64_field(value, "factor")?).ok()?,
            },
            "wedge" => FleetFaultKind::Wedge {
                for_ticks: u64_field(value, "for_ticks")?,
            },
            "migfail" => FleetFaultKind::MigrationFail,
            _ => return None,
        };
        Some(FleetFaultEvent {
            at_tick,
            host,
            kind,
        })
    }
}

impl ToJson for FleetFaultPlan {
    fn to_json(&self) -> Value {
        obj([
            ("version", u64::from(PLAN_VERSION).to_json()),
            ("seed", self.seed.to_json()),
            ("events", self.events.to_json()),
        ])
    }
}

impl FromJson for FleetFaultPlan {
    fn from_json(value: &Value) -> Option<Self> {
        if !version_accepted(value) {
            return None;
        }
        Some(FleetFaultPlan {
            seed: u64_field(value, "seed")?,
            events: Vec::from_json(value.get("events")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FleetFaultPlan::empty().is_empty());
        assert!(!FleetFaultPlan::generate(1, 4, 160, 1, 0, 0, 0).is_empty());
    }

    #[test]
    fn generation_is_deterministic_sorted_and_complete() {
        let a = FleetFaultPlan::generate(42, 8, 2_000, 3, 3, 3, 3);
        let b = FleetFaultPlan::generate(42, 8, 2_000, 3, 3, 3, 3);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 12);
        assert!(a.events.windows(2).all(|w| w[0].at_tick <= w[1].at_tick));
        for tag in ["crash", "gray", "wedge", "migfail"] {
            assert!(
                a.events.iter().any(|e| e.kind.tag() == tag),
                "missing class {tag}"
            );
        }
        assert!(a.events.iter().all(|e| e.host < 8));
        assert_ne!(a, FleetFaultPlan::generate(43, 8, 2_000, 3, 3, 3, 3));
    }

    #[test]
    fn crashes_leave_room_to_recover() {
        let plan = FleetFaultPlan::generate(5, 4, 160, 8, 0, 0, 0);
        for e in &plan.events {
            let FleetFaultKind::Crash { down_ticks } = e.kind else {
                panic!("only crashes requested");
            };
            assert!(e.at_tick >= 40 && e.at_tick < 120, "at {}", e.at_tick);
            assert!(e.at_tick + down_ticks < 160, "recovery fits the horizon");
        }
    }

    #[test]
    fn json_round_trip() {
        let plan = FleetFaultPlan::generate(9, 6, 400, 2, 2, 2, 2);
        let text = plan.to_json().to_string_compact();
        assert!(text.contains("\"version\":1"), "{text}");
        let parsed =
            FleetFaultPlan::from_json(&pageforge_types::json::parse(&text).unwrap()).unwrap();
        assert_eq!(plan, parsed);
    }

    #[test]
    fn file_round_trip_and_version_rejection() {
        let dir = std::env::temp_dir().join("pageforge-fleet-plan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        let plan = FleetFaultPlan::generate(11, 4, 160, 1, 1, 1, 1);
        plan.write_file(&path).unwrap();
        assert_eq!(FleetFaultPlan::read_file(&path).unwrap(), plan);

        let future = dir.join("future.json");
        std::fs::write(&future, r#"{"version":7,"seed":0,"events":[]}"#).unwrap();
        let err = FleetFaultPlan::read_file(&future).unwrap_err();
        assert!(err.contains("plan version 7 is not supported"), "{err}");
        assert!(err.contains("reads version 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unversioned_plans_parse_as_version_one() {
        let value = pageforge_types::json::parse(
            r#"{"seed":3,"events":[{"at":10,"host":1,"kind":"migfail"}]}"#,
        )
        .unwrap();
        let plan = FleetFaultPlan::from_json(&value).unwrap();
        assert_eq!(plan.events.len(), 1);
        assert_eq!(plan.events[0].kind, FleetFaultKind::MigrationFail);
    }
}
