//! The event-driven full-system model.
//!
//! Each core runs one VM's query stream. The dispatcher executes tasks in
//! *slices* (≤ [`SLICE_CYCLES`]) so the migrating KSM kernel task can
//! preempt long-running queries at slice boundaries, the way the Linux
//! scheduler timeslices it against application threads. PageForge work
//! never occupies a core beyond the tiny Scan-Table refill/poll calls; its
//! memory traffic contends with demand traffic in the DRAM banks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use pageforge_cache::{HitLevel, SystemCaches};
use pageforge_core::{FlatFabric, PageForge};
use pageforge_ksm::Ksm;
use pageforge_mem::{MemSource, MemorySystem};
use pageforge_obs::{Registry, Snapshot};
use pageforge_types::stats::LatencyRecorder;
use pageforge_types::{Cycle, Gfn, LineAddr, VmId};
use pageforge_vm::{HostMemory, MemoryImage};
use pageforge_workloads::{AccessPattern, AppSpec, ArrivalProcess, Query};

use pageforge_faults::FaultInjector;

use crate::config::{DedupMode, SimConfig};
use crate::fabric::SimFabric;
use crate::result::{DedupSummary, DegradedSummary, SimResult};

/// Maximum cycles a dispatcher slice may run before yielding.
pub const SLICE_CYCLES: Cycle = 100_000;

/// CFS-like timeslice for the KSM kernel task: after this many cycles the
/// daemon yields to queued application work on its core. Linux's scheduling
/// latency (~6 ms) divided by the 100× time scale is ~60 µs — 120k cycles
/// at 2 GHz. Fair-sharing at this granularity is what keeps a ⅔-duty
/// daemon from starving its host core outright while still stalling
/// queries for whole timeslices (the paper's tail-latency mechanism).
pub const KSM_TIMESLICE: Cycle = 120_000;

/// Divisor applied to memory-stall cycles to model latency overlap in an
/// out-of-order core (×10 fixed-point: 15 ⇒ 1.5).
const OVERLAP_X10: Cycle = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A query arrives at a core's queue.
    Arrival(usize),
    /// The core's dispatcher runs.
    Dispatch(usize),
    /// The dedup daemon wakes (KSM: enqueue a batch; PageForge: run an
    /// interval in the memory controller). The payload selects the
    /// PageForge module (always 0 for KSM).
    DedupWake(usize),
    /// Content churn tick.
    Churn,
    /// End of warm-up: statistics reset.
    WarmupEnd,
}

/// A query in execution (possibly across several slices).
#[derive(Debug)]
struct RunningQuery {
    arrival: Cycle,
    pattern: AccessPattern,
    accesses_left: u32,
    cpu_per_access: Cycle,
    tail_cpu_left: Cycle,
}

#[derive(Debug)]
enum Task {
    Query(RunningQuery),
    /// One KSM work interval (`pages_to_scan` candidates), not yet started.
    KsmBatch,
    /// An in-progress KSM interval with this much core time left; executed
    /// in [`KSM_TIMESLICE`] chunks, yielding to queued queries in between.
    KsmRun(Cycle),
    /// PageForge OS work (Scan Table refills/polls) of this many cycles.
    OsWork(Cycle),
}

struct CoreState {
    vm: VmId,
    /// The guest frame of each pattern page index, [`TouchRegions::map_touch`]
    /// evaluated once per index.
    gfns: Vec<Gfn>,
    arrivals: ArrivalProcess,
    pending: Option<Query>,
    queue: VecDeque<Task>,
    dispatching: bool,
    /// Core cycles spent on dedup work inside the measurement window.
    dedup_busy: Cycle,
    recorder: LatencyRecorder,
}

impl CoreState {
    fn new(cfg: &SimConfig, core: usize) -> Self {
        let app = cfg.app_for(core);
        CoreState {
            vm: VmId(core as u32),
            gfns: TouchRegions::for_profile(cfg.profile_for(core)).gfn_table(app),
            arrivals: ArrivalProcess::new(app.clone(), cfg.seed ^ (core as u64) << 17),
            pending: None,
            queue: VecDeque::new(),
            dispatching: false,
            dedup_busy: 0,
            recorder: LatencyRecorder::new(),
        }
    }
}

/// A VM's page-region bounds, from which [`TouchRegions::map_touch`]
/// places pattern pages in its image.
#[derive(Debug, Clone, Copy)]
struct TouchRegions {
    /// Total pages in the VM's image.
    pages: u64,
    /// Pages in the mergeable (shared library/OS) region, clamped ≥ 1.
    mergeable: u64,
    /// Pages in the unmergeable (private) region, clamped ≥ 1.
    private: u64,
}

impl TouchRegions {
    fn for_profile(profile: &pageforge_vm::AppProfile) -> Self {
        let pages = profile.pages_per_vm as u64;
        TouchRegions {
            pages,
            mergeable: ((pages as f64 * (1.0 - profile.unmergeable_frac)) as u64).max(1),
            private: ((pages as f64 * profile.unmergeable_frac) as u64).max(1),
        }
    }

    /// Maps a pattern page index to a guest frame. The pattern indexes
    /// pages hottest-first; hot indices land on the VM's *private*
    /// (unmergeable) pages — the application's own data — and a small
    /// fixed fraction (1 in 16) of accesses divert to the shared
    /// library/zero region. Latency-critical apps touch their own state
    /// overwhelmingly; the mergeable half of memory is mostly cold OS and
    /// library pages (§6.1: "the large majority of them are OS pages"),
    /// which is why the paper's L3 miss rates barely move when those pages
    /// merge (Table 4).
    fn map_touch(&self, page_index: usize) -> Gfn {
        if page_index % 16 == 15 {
            // Shared-region access: the mergeable pages sit at the front
            // of the generated image.
            Gfn((page_index as u64 / 16) % self.mergeable)
        } else {
            // Private access: confined to the unmergeable region, which is
            // generated at the end of the image (hottest-last mapping).
            Gfn(self.pages - 1 - (page_index as u64 % self.private))
        }
    }

    /// [`map_touch`](Self::map_touch) of every page index a pattern of
    /// `spec` draws.
    fn gfn_table(&self, spec: &AppSpec) -> Vec<Gfn> {
        (0..AccessPattern::page_bound(spec))
            .map(|i| self.map_touch(i))
            .collect()
    }
}

enum DedupState {
    None,
    Ksm(Box<Ksm>),
    /// One or more PageForge modules (§4.1), each owning a partition of
    /// the hint list.
    PageForge(Vec<PageForge>),
}

/// The assembled system.
pub struct System {
    cfg: SimConfig,
    mem: HostMemory,
    images: Vec<MemoryImage>,
    caches: SystemCaches,
    mems: MemorySystem,
    cores: Vec<CoreState>,
    dedup: DedupState,
    churn_rng: SmallRng,
    /// Pending events, popped in the canonical global `(cycle, seq)`
    /// total order.
    events: BinaryHeap<Reverse<(Cycle, u64, Event)>>,
    seq: u64,
    clock: Cycle,
    next_victim: usize,
    victim_intervals_left: u32,
    /// Alternation state for the skewed migration policy.
    victim_toggle: bool,
    /// Round-robin cursor over the non-preferred cores.
    victim_rr: usize,
    merged_during_run: u64,
    in_window: bool,
    queries_completed: u64,
}

impl System {
    /// Builds the system: generates the VM images, optionally pre-merges to
    /// steady state, and arms the initial events.
    pub fn new(cfg: SimConfig) -> Self {
        let (mem, images, mut dedup) = Self::premerged_state(&cfg);

        // Fault injection starts only after premerge: the plan's cycle
        // schedule is relative to the timed run, and premerge is a
        // content-level setup phase outside the fault model.
        if let (Some(plan), DedupState::PageForge(pfs)) = (&cfg.faults, &mut dedup) {
            let injector = FaultInjector::new(plan);
            for pf in pfs.iter_mut() {
                pf.set_fault_injector(Some(injector.clone()));
            }
        }
        let cores = (0..cfg.cores).map(|c| CoreState::new(&cfg, c)).collect();

        let mut system = System {
            caches: SystemCaches::new(cfg.hierarchy),
            mems: MemorySystem::new(cfg.mem),
            cores,
            dedup,
            churn_rng: SmallRng::seed_from_u64(cfg.seed ^ 0xCAFE),
            events: BinaryHeap::new(),
            seq: 0,
            clock: 0,
            next_victim: 0,
            victim_intervals_left: 0,
            victim_toggle: false,
            victim_rr: 0,
            merged_during_run: 0,
            in_window: false,
            queries_completed: 0,
            mem,
            images,
            cfg,
        };
        system.arm_initial_events();
        system
    }

    /// The post-premerge content state `(host memory, images, dedup
    /// engines)`, a pure function of the config.
    fn premerged_state(cfg: &SimConfig) -> (HostMemory, Vec<MemoryImage>, DedupState) {
        let mut mem = HostMemory::new();
        // One image per VM, each from its own profile (heterogeneous mixes
        // share the full-span library groups via the common seed), mapped
        // in VM order: frame assignment order is part of the byte-identity
        // contract.
        let images: Vec<MemoryImage> = (0..cfg.cores)
            .map(|c| {
                cfg.profile_for(c)
                    .generate_image_for_vm(&mut mem, VmId(c as u32), cfg.seed)
            })
            .collect();
        let hints: Vec<_> = images.iter().flat_map(|i| i.mergeable_hints()).collect();

        let mut dedup = match &cfg.dedup {
            DedupMode::None => DedupState::None,
            DedupMode::Ksm(k) => DedupState::Ksm(Box::new(Ksm::new(k.clone(), hints))),
            DedupMode::PageForge(p) => {
                let modules = cfg.pf_modules.max(1);
                // Partition the hint list round-robin across modules.
                let mut parts: Vec<Vec<_>> = vec![Vec::new(); modules];
                for (i, h) in hints.into_iter().enumerate() {
                    parts[i % modules].push(h);
                }
                DedupState::PageForge(
                    parts
                        .into_iter()
                        .map(|part| PageForge::new(p.clone(), part))
                        .collect(),
                )
            }
        };

        // Reach merge steady state before timing starts (§5.3: the paper
        // measures with the merging algorithm at steady state).
        // Content-level only: a flat fabric keeps the timed MC clean.
        match &mut dedup {
            DedupState::None => {}
            DedupState::Ksm(ksm) => {
                ksm.run_to_steady_state(&mut mem, 12);
            }
            DedupState::PageForge(pfs) => {
                let mut flat = FlatFabric::all_dram(80);
                // Alternate modules until both partitions are quiet: a
                // duplicate pair may straddle partitions, so each module
                // must see the other's stable pages... each keeps its own
                // trees, so convergence needs both to finish.
                for pf in pfs.iter_mut() {
                    pf.run_to_steady_state(&mut mem, &mut flat, 12);
                }
                if pfs.len() > 1 {
                    for pf in pfs.iter_mut() {
                        pf.run_to_steady_state(&mut mem, &mut flat, 12);
                    }
                }
            }
        }
        (mem, images, dedup)
    }

    fn arm_initial_events(&mut self) {
        for core in 0..self.cfg.cores {
            let q = self.cores[core].arrivals.next_query();
            let at = q.arrival;
            self.cores[core].pending = Some(q);
            self.push(at, Event::Arrival(core));
        }
        match &self.dedup {
            DedupState::None => {}
            DedupState::Ksm(_) => self.push(0, Event::DedupWake(0)),
            DedupState::PageForge(pfs) => {
                for m in 0..pfs.len() {
                    self.push(0, Event::DedupWake(m));
                }
            }
        }
        if self.cfg.churn_interval > 0 {
            self.push(self.cfg.churn_interval, Event::Churn);
        }
        self.push(self.cfg.warmup_cycles, Event::WarmupEnd);
    }

    fn push(&mut self, at: Cycle, event: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, event)));
    }

    /// Runs the simulation to completion and collects the result.
    pub fn run(self) -> SimResult {
        self.run_observed().0
    }

    /// Runs the simulation and also returns the unified metric snapshot
    /// aggregated from every component registry (engine, driver, KSM,
    /// memory controllers, DRAM, host memory — see OBSERVABILITY.md).
    ///
    /// [`SimResult`]'s JSON shape is frozen by the determinism CI check,
    /// so the snapshot rides alongside instead of inside it.
    ///
    /// # Panics
    ///
    /// Panics if, at the end of the run, the cache hierarchy fails
    /// [`SystemCaches::check_invariants`] or
    /// [`SystemCaches::check_conservation`], a memory controller fails
    /// [`MemorySystem::check_conservation`], host memory fails
    /// [`HostMemory::check_invariants`], a PageForge module fails
    /// [`PageForge::check_conservation`], or the KSM daemon fails
    /// [`Ksm::check_conservation`].
    pub fn run_observed(mut self) -> (SimResult, Snapshot) {
        while let Some(Reverse((t, _, event))) = self.events.pop() {
            self.clock = t.max(self.clock);
            match event {
                Event::Arrival(core) => self.on_arrival(core, t),
                Event::Dispatch(core) => self.on_dispatch(core, t),
                Event::DedupWake(m) => self.on_dedup_wake(t, m),
                Event::Churn => self.on_churn(t),
                Event::WarmupEnd => self.on_warmup_end(),
            }
        }
        // A broken invariant is a simulator bug: no result may leave a
        // run whose caches, memory or merge accounting fail their audit.
        let mut audit = self
            .caches
            .check_invariants()
            .and(self.caches.check_conservation())
            .and(self.mems.check_conservation())
            .and(self.mem.check_invariants());
        match &self.dedup {
            DedupState::None => {}
            DedupState::Ksm(ksm) => audit = audit.and(ksm.check_conservation(&self.mem)),
            DedupState::PageForge(pfs) => {
                audit = audit.and(pfs.iter().try_for_each(PageForge::check_conservation));
            }
        }
        if let Err(violation) = audit {
            panic!("audit failed at the end of the run: {violation}");
        }
        let mut reg = Registry::new();
        self.export_metrics(&mut reg);
        (self.collect(), reg.snapshot())
    }

    /// Writes every component's metrics into `out`. Counters add across
    /// PageForge modules and memory controllers; gauges add too (summed
    /// occupancy / tree sizes), which is the meaningful system-level view.
    fn export_metrics(&self, out: &mut Registry) {
        self.mems.export_metrics(out);
        self.mem.export_metrics(out);
        match &self.dedup {
            DedupState::None => {}
            DedupState::Ksm(ksm) => ksm.export_metrics(out),
            DedupState::PageForge(pfs) => {
                for pf in pfs {
                    pf.export_metrics(out);
                }
            }
        }
        out.counter("sim.queries_completed", self.queries_completed);
        out.counter("sim.merged_during_run", self.merged_during_run);
        out.gauge("sim.clock", self.clock as f64);
        // Whole millions of simulated cycles, the clock's coarse progress
        // (`perfbench` reports it as `sim.epochs`). The name outlives the
        // sharded executor because perfbench reads it.
        out.counter("sim.shard.epochs", self.clock / 1_000_000);
    }

    fn on_arrival(&mut self, core: usize, t: Cycle) {
        // Invariant: an Arrival event is only ever scheduled together with
        // a `pending` query on its core (see `schedule_next_arrival`).
        let q = self.cores[core].pending.take().expect("pending query");
        debug_assert_eq!(q.arrival, t);
        let spec = self.cfg.app_for(core);
        let running = RunningQuery {
            arrival: q.arrival,
            pattern: AccessPattern::new(spec, q.pattern_seed),
            accesses_left: q.accesses.max(1),
            cpu_per_access: (q.service_cycles / u64::from(q.accesses.max(1))).max(1),
            tail_cpu_left: q.service_cycles % u64::from(q.accesses.max(1)),
        };
        self.cores[core].queue.push_back(Task::Query(running));

        // Draw the next arrival while the stream is within the horizon.
        let next = self.cores[core].arrivals.next_query();
        if next.arrival < self.cfg.horizon() {
            let at = next.arrival;
            self.cores[core].pending = Some(next);
            self.push(at, Event::Arrival(core));
        }
        self.wake_dispatcher(core, t);
    }

    fn wake_dispatcher(&mut self, core: usize, t: Cycle) {
        if !self.cores[core].dispatching && !self.cores[core].queue.is_empty() {
            self.cores[core].dispatching = true;
            self.push(t, Event::Dispatch(core));
        }
    }

    fn on_dispatch(&mut self, core: usize, t: Cycle) {
        let Some(task) = self.cores[core].queue.pop_front() else {
            self.cores[core].dispatching = false;
            return;
        };
        match task {
            Task::Query(mut rq) => {
                let (finished, end) = self.run_query_slice(core, &mut rq, t);
                if finished {
                    let latency = (end - rq.arrival) as f64;
                    if rq.arrival >= self.cfg.warmup_cycles && rq.arrival < self.cfg.horizon() {
                        self.cores[core].recorder.record(latency);
                        self.queries_completed += 1;
                    }
                } else {
                    self.cores[core].queue.push_front(Task::Query(rq));
                }
                self.push(end, Event::Dispatch(core));
            }
            Task::KsmBatch => {
                // Perform the content-level scan and its cache traffic up
                // front; the resulting core time is then consumed in
                // CFS-like timeslices.
                let duration = self.run_ksm_batch(core, t).saturating_sub(t).max(1);
                self.cores[core].queue.push_front(Task::KsmRun(duration));
                self.push(t, Event::Dispatch(core));
            }
            Task::KsmRun(remaining) => {
                let step = remaining.min(KSM_TIMESLICE);
                let end = t + step;
                if self.in_window {
                    self.cores[core].dedup_busy += step;
                }
                let left = remaining - step;
                if left > 0 {
                    // Yield: queued queries run before the next timeslice.
                    self.cores[core].queue.push_back(Task::KsmRun(left));
                } else if end < self.cfg.horizon() {
                    // Interval complete: the daemon sleeps, then migrates.
                    self.push(end + self.cfg.sleep_cycles(), Event::DedupWake(0));
                }
                self.push(end, Event::Dispatch(core));
            }
            Task::OsWork(cycles) => {
                let end = t + cycles;
                if self.in_window {
                    self.cores[core].dedup_busy += cycles;
                }
                self.push(end, Event::Dispatch(core));
            }
        }
    }

    /// Executes up to [`SLICE_CYCLES`] of a query; returns (finished, end).
    fn run_query_slice(
        &mut self,
        core: usize,
        rq: &mut RunningQuery,
        start: Cycle,
    ) -> (bool, Cycle) {
        let vm = self.cores[core].vm;
        // Lent out of the core for the slice, so `access` may borrow `self`.
        let gfns = std::mem::take(&mut self.cores[core].gfns);
        let mut t = start;
        let budget_end = start + SLICE_CYCLES;
        while rq.accesses_left > 0 && t < budget_end {
            t += rq.cpu_per_access;
            rq.accesses_left -= 1;
            let touch = rq.pattern.next_touch();
            let Some((ppn, cow)) = self.mem.translate_cow(vm, gfns[touch.page_index]) else {
                continue;
            };
            // Writes to CoW (merged) frames would fault in reality; the
            // synthetic pattern treats them as reads (content churn is
            // modeled separately).
            let write = touch.is_write && !cow;
            t += self.access(core, ppn.line_addr(touch.line), write, t).1;
        }
        self.cores[core].gfns = gfns;
        if rq.accesses_left == 0 {
            t += rq.tail_cpu_left;
            rq.tail_cpu_left = 0;
            (true, t)
        } else {
            (false, t)
        }
    }

    /// One cached access: `core` touches `addr` at `t` through its caches,
    /// and a miss reads the line from memory. Returns where the access was
    /// satisfied and the cycles it charged: the stall beyond the L1 hit
    /// (already part of the CPU demand), shrunk by the out-of-order overlap
    /// factor.
    #[inline]
    fn access(&mut self, core: usize, addr: LineAddr, write: bool, t: Cycle) -> (HitLevel, Cycle) {
        let acc = self.caches.access(core, addr, write);
        let stall = if acc.level == HitLevel::Memory {
            let grant = self.mems.read_line(addr, t, MemSource::Demand);
            acc.latency + (grant.ready_at - t)
        } else {
            acc.latency
        };
        let l1 = self.cfg.hierarchy.l1.latency;
        (acc.level, stall.saturating_sub(l1) * 10 / OVERLAP_X10)
    }

    /// Executes one KSM work interval on `core`: the content-level scan,
    /// then its memory traffic through the core's caches.
    fn run_ksm_batch(&mut self, core: usize, start: Cycle) -> Cycle {
        let DedupState::Ksm(ksm) = &mut self.dedup else {
            unreachable!("KsmBatch task without a KSM daemon");
        };
        let bypass = ksm.config().cache_bypass;
        let report = ksm.scan_interval(&mut self.mem);
        self.merged_during_run += report.merged;
        let mut t = start + report.cycles.total();
        for &(ppn, lines) in &report.work.touched {
            for line in 0..(lines as usize).min(pageforge_types::LINES_PER_PAGE) {
                let addr = ppn.line_addr(line);
                if bypass {
                    // §4.3: uncacheable reads — no allocation, no pollution,
                    // full memory latency on every line, and less MLP
                    // (uncached reads occupy MSHRs without the cache's
                    // overlap machinery): charge the stall unshrunk.
                    t = self.mems.read_line(addr, t, MemSource::Demand).ready_at;
                } else {
                    t += self.access(core, addr, false, t).1;
                }
            }
        }
        t
    }

    fn on_dedup_wake(&mut self, t: Cycle, module: usize) {
        if t >= self.cfg.horizon() {
            return;
        }
        match &mut self.dedup {
            DedupState::None => {}
            DedupState::Ksm(_) => {
                // Skewed sticky migration: the load balancer parks the
                // daemon on a *preferred* core (0) about half the time and
                // rotates it across the others otherwise, in stretches of
                // `ksm_sticky_intervals`. This reproduces Table 4's split:
                // every core sees episodes (tail latency inflates fleet-
                // wide) while the busiest core carries ~33% KSM cycles
                // against a ~6.8% average.
                if self.victim_intervals_left == 0 {
                    self.victim_toggle = !self.victim_toggle;
                    self.next_victim = if self.victim_toggle || self.cfg.cores == 1 {
                        0
                    } else {
                        let others = self.cfg.cores - 1;
                        self.victim_rr = (self.victim_rr + 1) % others;
                        1 + self.victim_rr
                    };
                    self.victim_intervals_left = self.cfg.ksm_sticky_intervals.max(1);
                }
                self.victim_intervals_left -= 1;
                let core = self.next_victim;
                self.cores[core].queue.push_front(Task::KsmBatch);
                self.wake_dispatcher(core, t);
            }
            DedupState::PageForge(pfs) => {
                let pf = &mut pfs[module];
                let mut fabric = SimFabric::new(&mut self.caches, &mut self.mems);
                let report = pf.scan_interval(&mut self.mem, &mut fabric, t);
                self.merged_during_run += report.merged;
                // The tiny OS-side work lands on a round-robin core.
                let core = self.next_victim;
                self.next_victim = (self.next_victim + 1) % self.cfg.cores;
                self.cores[core]
                    .queue
                    .push_front(Task::OsWork(report.os_cycles.max(1)));
                self.wake_dispatcher(core, t);
                let next = report.finished_at.max(t) + self.cfg.sleep_cycles();
                if next < self.cfg.horizon() {
                    self.push(next, Event::DedupWake(module));
                }
            }
        }
    }

    fn on_churn(&mut self, t: Cycle) {
        for (c, image) in self.images.iter().enumerate() {
            let churn = self.cfg.profiles[c % self.cfg.profiles.len()].churn;
            image.churn_step(&mut self.mem, &churn, &mut self.churn_rng);
        }
        let next = t + self.cfg.churn_interval;
        if next < self.cfg.horizon() {
            self.push(next, Event::Churn);
        }
    }

    fn on_warmup_end(&mut self) {
        self.caches.reset_stats();
        self.in_window = true;
        for core in &mut self.cores {
            core.dedup_busy = 0;
        }
    }

    fn collect(mut self) -> SimResult {
        let window = self.cfg.measure_cycles;
        let cpu_hz = pageforge_workloads::apps::CPU_HZ;
        // Bandwidth over the measurement window's meter slots, aggregated
        // across controllers.
        let win_cycles = self.cfg.mem.mc.meter_window;
        let first = (self.cfg.warmup_cycles / win_cycles) as usize;
        let last = (self.cfg.horizon() / win_cycles) as usize;
        let mut peak = 0.0f64;
        let mut total_bytes = 0u64;
        let mut slots = 0usize;
        for idx in first..last.min(self.mems.window_count()) {
            peak = peak.max(self.mems.window_gbps(idx, cpu_hz));
            total_bytes += self.mems.window_bytes(idx);
            slots += 1;
        }
        let mean = if slots == 0 {
            0.0
        } else {
            total_bytes as f64 / (slots as f64 * win_cycles as f64 / cpu_hz) / 1e9
        };

        let mut deg = DegradedSummary::default();
        let dedup = match &self.dedup {
            DedupState::None => None,
            DedupState::Ksm(ksm) => {
                let fracs: Vec<f64> = self
                    .cores
                    .iter()
                    .map(|c| c.dedup_busy as f64 / window as f64)
                    .collect();
                let cycles = &ksm.stats().cycles;
                Some(DedupSummary {
                    merged_total: ksm.stats().merged_stable + ksm.stats().merged_unstable,
                    core_cycles_frac_avg: fracs.iter().sum::<f64>() / fracs.len() as f64,
                    core_cycles_frac_max: fracs.iter().fold(0.0f64, |a, &b| a.max(b)),
                    compare_frac: cycles.compare_fraction(),
                    hash_frac: cycles.hash_fraction(),
                    engine_run_cycles_mean: 0.0,
                    engine_run_cycles_std: 0.0,
                    engine_lines_fetched: 0,
                })
            }
            DedupState::PageForge(pfs) => {
                let fracs: Vec<f64> = self
                    .cores
                    .iter()
                    .map(|c| c.dedup_busy as f64 / window as f64)
                    .collect();
                let mut run_cycles = pageforge_types::stats::RunningStats::new();
                let mut merged_total = 0;
                let mut lines = 0;
                for pf in pfs {
                    run_cycles.merge(&pf.engine_stats().run_cycles);
                    merged_total += pf.stats().merged_stable + pf.stats().merged_unstable;
                    lines += pf.engine_stats().lines_fetched;
                    deg.degraded_candidates += pf.stats().degraded_candidates;
                    deg.stall_retries += pf.stats().stall_retries;
                    deg.engine_errors += pf.stats().engine_errors;
                    deg.cross_check_skips += pf.stats().cross_check_skips;
                }
                Some(DedupSummary {
                    merged_total,
                    core_cycles_frac_avg: fracs.iter().sum::<f64>() / fracs.len() as f64,
                    core_cycles_frac_max: fracs.iter().fold(0.0f64, |a, &b| a.max(b)),
                    compare_frac: 0.0,
                    hash_frac: 0.0,
                    engine_run_cycles_mean: run_cycles.mean(),
                    engine_run_cycles_std: run_cycles.population_stddev(),
                    engine_lines_fetched: lines,
                })
            }
        };

        SimResult {
            label: self.cfg.dedup.label().to_string(),
            app: self.cfg.app_label(),
            per_vm_latency: self.cores.drain(..).map(|c| c.recorder).collect(),
            queries_completed: self.queries_completed,
            l3_miss_rate: self.caches.l3_stats().miss_rate(),
            bandwidth_mean_gbps: mean,
            bandwidth_peak_gbps: peak,
            mem_stats: self.mem.stats(),
            dedup,
            degraded: (!deg.is_zero()).then_some(deg),
            window_cycles: window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn run(app: &str, dedup: DedupMode, seed: u64) -> SimResult {
        System::new(SimConfig::quick(app, dedup, seed)).run()
    }

    #[test]
    fn baseline_completes_queries() {
        let r = run("silo", DedupMode::None, 1);
        assert!(r.queries_completed > 100, "{}", r.queries_completed);
        assert!(r.mean_sojourn() > 0.0);
        assert!(r.dedup.is_none());
        assert_eq!(r.label, "Baseline");
    }

    #[test]
    fn baseline_is_deterministic() {
        let a = run("silo", DedupMode::None, 7);
        let b = run("silo", DedupMode::None, 7);
        assert_eq!(a.queries_completed, b.queries_completed);
        assert_eq!(a.mean_sojourn(), b.mean_sojourn());
        assert_eq!(a.l3_miss_rate, b.l3_miss_rate);
    }

    #[test]
    fn seeds_change_outcomes() {
        let a = run("silo", DedupMode::None, 1);
        let b = run("silo", DedupMode::None, 2);
        assert_ne!(a.mean_sojourn(), b.mean_sojourn());
    }

    #[test]
    fn ksm_merges_and_costs_latency() {
        let base = run("silo", DedupMode::None, 3);
        let ksm = run("silo", DedupMode::Ksm(SimConfig::scaled_ksm()), 3);
        let d = ksm.dedup.as_ref().expect("KSM summary");
        assert!(d.merged_total > 0, "KSM merged nothing");
        assert!(d.core_cycles_frac_avg > 0.0);
        assert!(d.core_cycles_frac_max >= d.core_cycles_frac_avg);
        assert!(
            ksm.mean_sojourn() > base.mean_sojourn(),
            "KSM should add latency: base {} vs ksm {}",
            base.mean_sojourn(),
            ksm.mean_sojourn()
        );
        assert!(
            ksm.mem_stats.allocated_frames < base.mem_stats.allocated_frames,
            "KSM should save memory"
        );
    }

    #[test]
    fn pageforge_merges_with_less_overhead_than_ksm() {
        let base = run("silo", DedupMode::None, 4);
        let ksm = run("silo", DedupMode::Ksm(SimConfig::scaled_ksm()), 4);
        let pf = run(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            4,
        );
        let pd = pf.dedup.as_ref().expect("PF summary");
        assert!(pd.merged_total > 0);
        assert!(pd.engine_run_cycles_mean > 0.0);
        // The headline result, in miniature: PageForge's latency overhead
        // is well below KSM's.
        let ksm_over = ksm.mean_sojourn() / base.mean_sojourn();
        let pf_over = pf.mean_sojourn() / base.mean_sojourn();
        assert!(
            pf_over < ksm_over,
            "PageForge ({pf_over:.3}×) should beat KSM ({ksm_over:.3}×)"
        );
        // And identical memory savings.
        assert_eq!(
            pf.mem_stats.allocated_frames,
            ksm.mem_stats.allocated_frames
        );
    }

    #[test]
    fn pageforge_core_theft_is_negligible() {
        let pf = run(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            5,
        );
        let d = pf.dedup.as_ref().unwrap();
        assert!(
            d.core_cycles_frac_avg < 0.01,
            "PF core usage should be <1%, got {}",
            d.core_cycles_frac_avg
        );
    }

    #[test]
    fn dedup_consumes_bandwidth() {
        let base = run("silo", DedupMode::None, 6);
        let pf = run(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            6,
        );
        assert!(pf.bandwidth_peak_gbps > base.bandwidth_peak_gbps);
        assert!(pf.bandwidth_peak_gbps >= pf.bandwidth_mean_gbps);
    }

    /// Premerge batches scan at least one page, so `pages_to_scan: 0`
    /// still completes passes and reaches steady state.
    #[test]
    fn premerge_ends_with_zero_pages_to_scan() {
        for dedup in [
            DedupMode::Ksm(SimConfig::scaled_ksm()),
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
        ] {
            let mut cfg = SimConfig::smoke("silo", dedup, 1);
            match &mut cfg.dedup {
                DedupMode::Ksm(k) => k.pages_to_scan = 0,
                DedupMode::PageForge(p) => p.pages_to_scan = 0,
                DedupMode::None => unreachable!(),
            }
            let sys = System::new(cfg);
            assert!(sys.mem.stats().merges > 0, "premerge merged nothing");
        }
    }

    #[test]
    fn sphinx_long_queries_run() {
        // Sphinx queries are huge; just a few must still complete and be
        // multi-slice.
        let mut cfg = SimConfig::quick("sphinx", DedupMode::None, 1);
        cfg.measure_cycles = 60_000_000;
        let r = System::new(cfg).run();
        assert!(r.queries_completed >= 2, "{}", r.queries_completed);
    }

    #[test]
    fn map_touch_respects_regions() {
        let cfg = SimConfig::quick("silo", DedupMode::None, 1);
        let profile = cfg.profile_for(0);
        let regions = TouchRegions::for_profile(profile);
        let pages = profile.pages_per_vm as u64;
        let mergeable = (pages as f64 * (1.0 - profile.unmergeable_frac)) as u64;
        let unmergeable_start = pages - ((pages as f64 * profile.unmergeable_frac) as u64).max(1);
        let mut shared = 0usize;
        let total = 4096;
        for idx in 0..total {
            let gfn = regions.map_touch(idx);
            assert!(gfn.0 < pages, "gfn in range");
            if idx % 16 == 15 {
                shared += 1;
                assert!(gfn.0 < mergeable, "shared access lands in mergeable region");
            } else {
                assert!(
                    gfn.0 >= unmergeable_start,
                    "private access {idx} -> {gfn} must land in the unmergeable region"
                );
            }
        }
        // Exactly 1/16 of accesses divert to the shared region.
        assert_eq!(shared, total / 16);
    }

    /// Every core's table holds `map_touch` of every page index its
    /// pattern can draw, at each scale and in a heterogeneous mix.
    #[test]
    fn gfn_tables_match_map_touch() {
        let mut configs = vec![
            SimConfig::smoke("silo", DedupMode::None, 1),
            SimConfig::quick("masstree", DedupMode::None, 1),
            SimConfig::micro50("img_dnn", DedupMode::None, 1),
            SimConfig::heterogeneous(
                &["silo", "masstree", "img_dnn", "moses", "sphinx"],
                DedupMode::None,
                1,
            ),
        ];
        // A hot set wider than the working set still stays in the table.
        let mut wide = SimConfig::smoke("moses", DedupMode::None, 1);
        wide.apps[0].hot_frac = 1.5;
        configs.push(wide);
        for cfg in &configs {
            for c in 0..cfg.cores {
                let spec = cfg.app_for(c);
                let regions = TouchRegions::for_profile(cfg.profile_for(c));
                let core = CoreState::new(cfg, c);
                assert_eq!(core.gfns.len(), AccessPattern::page_bound(spec));
                assert!(core.gfns.len() >= spec.working_set_pages);
                for (i, &gfn) in core.gfns.iter().enumerate() {
                    assert_eq!(gfn, regions.map_touch(i), "core {c}, page index {i}");
                }
                let mut pattern = AccessPattern::new(spec, c as u64);
                for touch in pattern.touches(20_000) {
                    assert!(touch.page_index < core.gfns.len());
                }
            }
        }
    }

    #[test]
    fn heterogeneous_mix_runs_and_merges() {
        let mut cfg = SimConfig::heterogeneous(
            &["silo", "masstree", "img_dnn", "moses"],
            DedupMode::Ksm(SimConfig::scaled_ksm()),
            9,
        );
        cfg.cores = 4;
        cfg.hierarchy = pageforge_cache::HierarchyConfig::micro50(4);
        cfg.hierarchy.l3.size_bytes = 1 << 20;
        for p in &mut cfg.profiles {
            p.pages_per_vm = 256;
        }
        cfg.warmup_cycles = 2_000_000;
        cfg.measure_cycles = 20_000_000;
        if let DedupMode::Ksm(k) = &mut cfg.dedup {
            k.pages_to_scan = 16;
        }
        let r = System::new(cfg).run();
        assert_eq!(r.app, "mixed");
        assert!(r.queries_completed > 0);
        // Cross-app merging still happens: the shared guest-OS library
        // groups are identical across profiles.
        assert!(
            r.mem_stats.allocated_frames < r.mem_stats.mapped_guest_pages,
            "mixed VMs still share library pages"
        );
    }

    #[test]
    fn run_observed_snapshot_covers_components() {
        let cfg = SimConfig::quick(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            4,
        );
        let (r, snap) = System::new(cfg).run_observed();
        assert!(snap.counter("engine.comparisons").unwrap() > 0);
        assert!(snap.counter("pageforge.candidates").unwrap() > 0);
        assert!(snap.counter("mem.dram.reads").unwrap() > 0);
        assert!(snap.counter("mem.merges").unwrap() > 0);
        assert_eq!(
            snap.counter("sim.queries_completed"),
            Some(r.queries_completed)
        );
        // The snapshot rides alongside SimResult: same run, same numbers.
        let plain = System::new(SimConfig::quick(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            4,
        ))
        .run();
        assert_eq!(plain.queries_completed, r.queries_completed);
    }

    #[test]
    fn ksm_snapshot_exports_tree_metrics() {
        let cfg = SimConfig::quick("silo", DedupMode::Ksm(SimConfig::scaled_ksm()), 3);
        let (_, snap) = System::new(cfg).run_observed();
        assert!(snap.counter("ksm.passes").is_some());
        assert!(snap.gauge("ksm.stable_tree.size").unwrap() > 0.0);
        assert!(snap.gauge("ksm.stable_tree.depth").unwrap() > 0.0);
    }

    #[test]
    fn l3_misses_observed() {
        let r = run("masstree", DedupMode::None, 8);
        assert!(r.l3_miss_rate > 0.0 && r.l3_miss_rate < 1.0);
    }

    #[test]
    fn shard_metrics_are_exported_and_consistent() {
        let cfg = SimConfig::quick(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            11,
        );
        let (_, snap) = System::new(cfg).run_observed();
        // Whole millions of cycles on the final clock.
        let clock = snap.gauge("sim.clock").unwrap() as u64;
        assert_eq!(snap.counter("sim.shard.epochs"), Some(clock / 1_000_000));
        assert_eq!(snap.counter("sim.shard.epochs"), Some(22));
    }

    #[test]
    fn empty_fault_plan_is_byte_identical() {
        use pageforge_types::json::ToJson;
        let plain = System::new(SimConfig::smoke(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            12,
        ))
        .run();
        let mut cfg = SimConfig::smoke(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            12,
        );
        cfg.faults = Some(pageforge_faults::FaultPlan::empty());
        let faulted = System::new(cfg).run();
        assert_eq!(
            plain.to_json().to_string_compact(),
            faulted.to_json().to_string_compact(),
            "an empty plan must leave results byte-identical"
        );
    }

    #[test]
    fn fault_plan_degrades_but_run_completes() {
        let mut cfg = SimConfig::smoke(
            "silo",
            DedupMode::PageForge(SimConfig::scaled_pageforge()),
            13,
        );
        // A dense plan: an event roughly every 10k cycles plus stall
        // windows, guaranteeing the injector actually fires.
        cfg.faults = Some(pageforge_faults::FaultPlan::generate(
            13,
            cfg.horizon(),
            (cfg.horizon() / 10_000) as usize,
            4,
            200_000,
        ));
        let r = System::new(cfg).run();
        assert!(r.queries_completed > 0, "faulted system still serves");
        // Merging still happens and never merges differing pages:
        // HostMemory::merge_into verifies content equality internally.
        assert!(r.mem_stats.merges > 0, "faulted system still merges");
    }
}
