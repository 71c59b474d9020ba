//! Cycle-stamped structured event tracing, feature-gated to vanish.
//!
//! Simulation crates call [`crate::trace_event!`] at interesting points
//! (engine batch completions, Scan Table transitions, KSM tree
//! rebalances, DRAM command issue). The macro routes through
//! [`with`], which only invokes its closure when the `trace` cargo
//! feature is enabled **and** a [`Collector`] has been installed on the
//! current thread. With the feature disabled, [`Collector`] is a
//! zero-sized type, [`with`] is an empty inline function whose closure
//! argument is never called, and the whole call site — including
//! argument construction inside the closure — is dead code the
//! optimiser removes. The zero-overhead tests in `tests/` pin both the
//! size (`size_of::<Collector>() == 0`) and the behaviour (no events
//! observable) of the disabled configuration.
//!
//! Collectors are **thread-local** so the parallel experiment scheduler
//! can install one per unit on the worker that runs it, keeping the
//! resulting JSONL stream in deterministic submission order regardless
//! of `--jobs`. Each collector streams: it buffers up to `capacity`
//! events and hands each full chunk to its sink, so memory stays bounded
//! and no event is ever lost.

use pageforge_types::json::{FromJson, ToJson, Value};
use pageforge_types::Cycle;

/// One structured trace event.
///
/// Events carry a cycle stamp, a static `component` / `kind` pair
/// identifying the emitter (e.g. `("engine", "batch")`,
/// `("dram", "command")`), and a small list of named numeric fields.
/// Fields are `f64` so one schema covers counts, cycle deltas, and
/// ratios; the JSONL writer renders integers without a fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated cycle at which the event occurred.
    pub cycle: Cycle,
    /// Emitting component, first level of the metric namespace
    /// (`engine`, `scan_table`, `ksm`, `dram`, ...).
    pub component: &'static str,
    /// Event kind within the component (`batch`, `transition`,
    /// `rebalance`, `command`, ...).
    pub kind: &'static str,
    /// Named numeric payload, in emission order.
    pub fields: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// Convenience constructor.
    pub fn new(
        cycle: Cycle,
        component: &'static str,
        kind: &'static str,
        fields: Vec<(&'static str, f64)>,
    ) -> Self {
        TraceEvent {
            cycle,
            component,
            kind,
            fields,
        }
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Value {
        let mut members = vec![
            ("cycle".to_owned(), self.cycle.to_json()),
            (
                "component".to_owned(),
                Value::Str(self.component.to_owned()),
            ),
            ("kind".to_owned(), Value::Str(self.kind.to_owned())),
        ];
        for (name, v) in &self.fields {
            members.push(((*name).to_owned(), v.to_json()));
        }
        Value::Obj(members)
    }
}

/// Owned form of a parsed trace line, used by `trace_report` when
/// folding a JSONL file back into attribution tables (the `&'static str`
/// fields of [`TraceEvent`] cannot be produced by a parser).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedTraceEvent {
    /// Simulated cycle at which the event occurred.
    pub cycle: Cycle,
    /// Emitting component.
    pub component: String,
    /// Event kind within the component.
    pub kind: String,
    /// Named numeric payload, in serialised order.
    pub fields: Vec<(String, f64)>,
}

impl OwnedTraceEvent {
    /// Looks up a payload field by name.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

impl FromJson for OwnedTraceEvent {
    fn from_json(value: &Value) -> Option<Self> {
        let Value::Obj(members) = value else {
            return None;
        };
        let mut cycle = None;
        let mut component = None;
        let mut kind = None;
        let mut fields = Vec::new();
        for (name, v) in members {
            match name.as_str() {
                "cycle" => cycle = Cycle::from_json(v),
                "component" => component = String::from_json(v),
                "kind" => kind = String::from_json(v),
                _ => fields.push((name.clone(), f64::from_json(v)?)),
            }
        }
        Some(OwnedTraceEvent {
            cycle: cycle?,
            component: component?,
            kind: kind?,
            fields,
        })
    }
}

/// Parses one JSONL line into an [`OwnedTraceEvent`].
pub fn parse_line(line: &str) -> Option<OwnedTraceEvent> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return None;
    }
    OwnedTraceEvent::from_json(&pageforge_types::json::parse(trimmed).ok()?)
}

#[cfg(feature = "trace")]
mod imp {
    use super::TraceEvent;
    use std::cell::RefCell;

    /// Streaming event sink for the current thread: events are buffered
    /// and handed to the sink callback in chunks of `capacity`, in
    /// emission order, so no event is lost however long the run.
    /// `run_all --trace` hands each unit one that appends to a per-unit
    /// spool file.
    ///
    /// With the `trace` feature disabled this type is zero-sized and
    /// every method is a no-op.
    pub struct Collector {
        events: Vec<TraceEvent>,
        capacity: usize,
        sink: Box<dyn FnMut(Vec<TraceEvent>) + Send>,
    }

    impl std::fmt::Debug for Collector {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Collector")
                .field("events", &self.events.len())
                .field("capacity", &self.capacity)
                .finish()
        }
    }

    impl Collector {
        /// Creates a collector that hands every `capacity` buffered
        /// events (at least one) to `sink`, oldest first. Call
        /// [`flush`](Self::flush) at the end of the run to push out the
        /// final partial chunk.
        pub fn new(capacity: usize, sink: Box<dyn FnMut(Vec<TraceEvent>) + Send>) -> Self {
            Collector {
                events: Vec::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                sink,
            }
        }

        /// Records an event, first flushing a full buffer to the sink.
        pub fn emit(&mut self, event: TraceEvent) {
            if self.events.len() == self.capacity {
                self.flush();
            }
            self.events.push(event);
        }

        /// Hands all buffered events to the sink.
        pub fn flush(&mut self) {
            if !self.events.is_empty() {
                (self.sink)(self.events.drain(..).collect());
            }
        }
    }

    thread_local! {
        static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    }

    /// Installs `collector` as this thread's event sink, replacing (and
    /// returning) any previous one.
    pub fn install(collector: Collector) -> Option<Collector> {
        COLLECTOR.with(|slot| slot.borrow_mut().replace(collector))
    }

    /// Removes and returns this thread's event sink, disabling tracing
    /// on this thread until the next [`install`]. Its buffered tail is
    /// still to be flushed.
    pub fn uninstall() -> Option<Collector> {
        COLLECTOR.with(|slot| slot.borrow_mut().take())
    }

    /// Runs `f` against this thread's collector, if one is installed.
    ///
    /// This is the single funnel every instrumentation site goes
    /// through: [`crate::trace_event!`] expands to a `with` call, so
    /// event construction happens only when a collector is listening.
    #[inline]
    pub fn with<F: FnOnce(&mut Collector)>(f: F) {
        COLLECTOR.with(|slot| {
            if let Some(c) = slot.borrow_mut().as_mut() {
                f(c);
            }
        });
    }

    /// `true` if the crate was built with the `trace` feature.
    pub const fn compiled_in() -> bool {
        true
    }

    /// `true` if a collector is installed on this thread.
    pub fn active() -> bool {
        COLLECTOR.with(|slot| slot.borrow().is_some())
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::TraceEvent;

    /// Streaming event sink for the current thread.
    ///
    /// The `trace` feature is disabled in this build, so this is a
    /// zero-sized stand-in: every method is an inlined no-op and
    /// [`super::with`] never runs its closure, letting the optimiser
    /// delete instrumentation sites entirely.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Collector;

    impl Collector {
        /// No-op constructor (feature disabled); the sink is discarded
        /// unused.
        pub fn new(_capacity: usize, _sink: Box<dyn FnMut(Vec<TraceEvent>) + Send>) -> Self {
            Collector
        }

        /// No-op (feature disabled); the event is discarded.
        #[inline(always)]
        pub fn emit(&mut self, _event: TraceEvent) {}

        /// No-op (feature disabled).
        #[inline(always)]
        pub fn flush(&mut self) {}
    }

    /// No-op install (feature disabled).
    pub fn install(_collector: Collector) -> Option<Collector> {
        None
    }

    /// No-op uninstall (feature disabled).
    pub fn uninstall() -> Option<Collector> {
        None
    }

    /// Never runs `f` (feature disabled) — the closure and everything
    /// captured by it are dead code.
    #[inline(always)]
    pub fn with<F: FnOnce(&mut Collector)>(_f: F) {}

    /// `false`: the crate was built without the `trace` feature.
    pub const fn compiled_in() -> bool {
        false
    }

    /// Always `false` (feature disabled).
    pub fn active() -> bool {
        false
    }
}

pub use imp::{active, compiled_in, install, uninstall, with, Collector};

/// Emits a structured trace event if (and only if) tracing is compiled
/// in **and** a [`Collector`] is installed on the current thread.
///
/// The field expressions are evaluated inside the closure handed to
/// [`with`], so when tracing is disabled nothing is computed at the
/// call site.
///
/// ```
/// use pageforge_obs::trace_event;
///
/// let comparisons = 31u64;
/// trace_event!(7486, "engine", "batch", {
///     comparisons: comparisons as f64,
///     duplicates: 2.0,
/// });
/// // Without the `trace` feature (or with no collector installed)
/// // this line costs nothing.
/// ```
#[macro_export]
macro_rules! trace_event {
    ($cycle:expr, $component:expr, $kind:expr, { $($name:ident : $value:expr),* $(,)? }) => {
        $crate::trace::with(|c| {
            c.emit($crate::trace::TraceEvent::new(
                $cycle,
                $component,
                $kind,
                vec![$((stringify!($name), $value)),*],
            ));
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn owned_event_roundtrips_through_jsonl() {
        let ev = TraceEvent::new(
            42,
            "dram",
            "command",
            vec![("bank", 3.0), ("is_write", 1.0)],
        );
        let line = ev.to_json().to_string_compact();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.cycle, 42);
        assert_eq!(parsed.component, "dram");
        assert_eq!(parsed.kind, "command");
        assert_eq!(parsed.field("bank"), Some(3.0));
        assert_eq!(parsed.field("is_write"), Some(1.0));
        assert_eq!(parsed.field("missing"), None);
    }

    #[test]
    fn blank_lines_parse_to_none() {
        assert!(parse_line("").is_none());
        assert!(parse_line("   \t").is_none());
        assert!(parse_line("not json").is_none());
    }

    /// A collector whose sink appends to the returned list.
    fn vec_sink(capacity: usize) -> (Collector, Arc<Mutex<Vec<Vec<TraceEvent>>>>) {
        let chunks: Arc<Mutex<Vec<Vec<TraceEvent>>>> = Arc::default();
        let out = Arc::clone(&chunks);
        let sink = Box::new(move |events| out.lock().unwrap().push(events));
        (Collector::new(capacity, sink), chunks)
    }

    #[cfg(feature = "trace")]
    mod enabled {
        use super::super::*;
        use super::vec_sink;

        #[test]
        fn macro_records_into_installed_collector() {
            let (c, chunks) = vec_sink(16);
            install(c);
            trace_event!(10, "engine", "batch", { comparisons: 31.0 });
            trace_event!(20, "engine", "batch", { comparisons: 7.0 });
            uninstall().unwrap().flush();
            let events = chunks.lock().unwrap().concat();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].cycle, 10);
            assert_eq!(events[1].fields[0], ("comparisons", 7.0));
        }

        #[test]
        fn no_collector_means_no_events() {
            let (c, chunks) = vec_sink(16);
            install(c);
            let mut c = uninstall().unwrap();
            trace_event!(1, "engine", "batch", { x: 1.0 });
            c.flush();
            assert!(!active());
            assert!(chunks.lock().unwrap().is_empty());
        }

        #[test]
        fn streaming_sink_loses_nothing() {
            let (mut c, chunks) = vec_sink(3);
            for i in 0..8u64 {
                c.emit(TraceEvent::new(i, "t", "k", vec![]));
            }
            c.flush();
            let chunks = chunks.lock().unwrap();
            // 8 events at capacity 3: flushes of 3, 3, then the tail of 2.
            let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
            assert_eq!(sizes, [3, 3, 2]);
            let cycles: Vec<u64> = chunks.iter().flatten().map(|e| e.cycle).collect();
            assert_eq!(cycles, (0..8).collect::<Vec<_>>(), "order preserved");
        }
    }

    #[cfg(not(feature = "trace"))]
    mod disabled {
        use super::super::*;
        use super::vec_sink;

        #[test]
        fn collector_is_zero_sized_and_silent() {
            assert_eq!(std::mem::size_of::<Collector>(), 0);
            assert!(!compiled_in());
            let (c, chunks) = vec_sink(16);
            install(c);
            trace_event!(1, "engine", "batch", { x: 1.0 });
            assert!(!active());
            assert!(uninstall().is_none());
            assert!(chunks.lock().unwrap().is_empty());
        }
    }
}
