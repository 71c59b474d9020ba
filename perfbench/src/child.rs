//! What a child process measures, from outside the program: spans around
//! calls into the crates' public functions, and counts read off the
//! `SimResult` and `Snapshot` they return. The parent starts a fresh
//! process for every report (see `main.rs`).

use std::hint::black_box;
use std::time::Instant;

use pageforge_cache::{HitLevel, SystemCaches};
use pageforge_core::{FlatFabric, PageForge};
use pageforge_ksm::{page_checksum, Ksm};
use pageforge_mem::{MemSource, MemorySystem};
use pageforge_obs::Snapshot;
use pageforge_sim::{DedupMode, SimConfig, SimResult, System};
use pageforge_types::json::{ToJson, Value};
use pageforge_types::{Gfn, LineAddr, VmId};
use pageforge_vm::{HostMemory, MemoryImage};
use pageforge_workloads::AccessPattern;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::workloads::{check_result, ksm, pageforge, Scale, Workload};

/// What one child process reports to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Set by a timed repetition, `None` for an audit.
    pub timing: Option<Timing>,
    /// Why the output is wrong, if it is.
    pub error: Option<String>,
    /// Per-layer metrics, traced children only.
    pub layers: Vec<(String, f64)>,
}

/// The end-to-end measurements of one timed repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub setup_s: f64,
    pub run_s: f64,
    /// Simulated cycles of the run (warm-up + measurement window).
    pub horizon_cycles: u64,
    pub peak_rss_mb: f64,
    /// Mean seconds of [`Calibration::time`] just before the setup and
    /// just after the run.
    pub calibration_s: f64,
    /// FNV-1a of the serialized `SimResult`: equal seeds, equal digests.
    pub digest: String,
}

impl Timing {
    /// How much slower the host ran during this repetition than the
    /// reference host did, uncontended: above 1 is slower.
    pub fn slowdown(&self) -> f64 {
        self.calibration_s / REFERENCE_CALIBRATION_S
    }
}

/// Seconds [`Calibration::time`] takes on the reference host (README.md,
/// "Host speed") when no other tenant contends for it: about the fastest
/// it ran there.
pub const REFERENCE_CALIBRATION_S: f64 = 0.0065;

/// A fixed piece of the benchmark's own work, timed to measure the host's
/// speed: sorting the same 2^17 pseudo-random `u64`s (1 MB), then 2^20
/// random reads of a 2 MB table. It runs no code of the simulator, so no
/// change to the simulator can move it; only the host's speed does. The
/// host is shared, and other tenants slow it by 1.5x and more for seconds
/// to minutes at a time. Branchy work and random reads that stay in the
/// core's own caches slow with the simulator then, where a pure
/// arithmetic loop or a walk through DRAM hardly does, so dividing a
/// repetition's times by this one cancels the slowdown.
///
/// The buffers live as long as the calibration: freeing them before the
/// simulation would change how the allocator serves it, and so its peak
/// resident set.
pub struct Calibration {
    keys: Vec<u64>,
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            keys: vec![0; 1 << 17],
            table: vec![0; 1 << 18],
        }
    }

    /// Seconds the kernel takes now.
    pub fn time(&mut self) -> f64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for x in self.keys.iter_mut().chain(self.table.iter_mut()) {
            *x = rng.next_u64();
        }
        let mask = self.table.len() - 1;
        let started = Instant::now();
        self.keys.sort_unstable();
        let mut sum = black_box(self.keys[0]);
        for _ in 0..1 << 20 {
            sum = sum.wrapping_add(self.table[rng.next_u64() as usize & mask]);
        }
        black_box(sum);
        started.elapsed().as_secs_f64()
    }
}

/// Builds and runs the workload once, between two calibrations. With
/// `trace`, also reads the per-layer counts of the run.
pub fn run_rep(w: Workload, seed: u64, scale: Scale, trace: bool) -> Report {
    let cfg = w.config(seed, scale);
    let mut calibration = Calibration::new();
    let before = calibration.time();
    let started = Instant::now();
    let system = System::new(cfg.clone());
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (result, snapshot) = system.run_observed();
    let run_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    // Serialize before anything reads the recorders (`p95_sojourn` sorts
    // them in place).
    let digest = fnv1a(result.to_json().to_string_compact().as_bytes());
    let timing = Timing {
        setup_s,
        run_s,
        horizon_cycles: cfg.horizon(),
        peak_rss_mb,
        calibration_s: (before + calibration.time()) / 2.0,
        digest,
    };
    Report {
        layers: if trace {
            run_layers(&timing, &result, &snapshot)
        } else {
            Vec::new()
        },
        timing: Some(timing),
        error: check_result(&cfg, &result).err(),
    }
}

/// Audits the workload's premerge (see [`audit`]). With `trace`, also
/// reports the setup split and runs the layer drivers.
pub fn audit_rep(w: Workload, seed: u64, scale: Scale, trace: bool) -> Report {
    let cfg = w.config(seed, scale);
    let engines = [pageforge(), ksm()].map(|mode| w.config_with(mode, seed, scale));
    let audit = audit(&cfg, &engines);
    Report {
        timing: None,
        error: audit.error.clone(),
        layers: if trace {
            driver_layers(&cfg, audit)
        } else {
            Vec::new()
        },
    }
}

impl Report {
    pub fn to_json(&self) -> Value {
        let timing = match &self.timing {
            None => Value::Null,
            Some(t) => Value::Obj(vec![
                ("setup_s".into(), t.setup_s.to_json()),
                ("run_s".into(), t.run_s.to_json()),
                ("horizon_cycles".into(), t.horizon_cycles.to_json()),
                ("peak_rss_mb".into(), t.peak_rss_mb.to_json()),
                ("calibration_s".into(), t.calibration_s.to_json()),
                ("digest".into(), t.digest.to_json()),
            ]),
        };
        let layers = self
            .layers
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        Value::Obj(vec![
            ("timing".into(), timing),
            ("error".into(), self.error.to_json()),
            ("layers".into(), Value::Obj(layers)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Report> {
        let timing = match v.get("timing")? {
            Value::Null => None,
            t => Some(Timing {
                setup_s: t.get("setup_s")?.as_f64()?,
                run_s: t.get("run_s")?.as_f64()?,
                horizon_cycles: t.get("horizon_cycles")?.as_u64()?,
                peak_rss_mb: t.get("peak_rss_mb")?.as_f64()?,
                calibration_s: t.get("calibration_s")?.as_f64()?,
                digest: t.get("digest")?.as_str()?.to_owned(),
            }),
        };
        let layers = match v.get("layers")? {
            Value::Obj(members) => members
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Report {
            timing,
            error: match v.get("error")? {
                Value::Null => None,
                e => Some(e.as_str()?.to_owned()),
            },
            layers,
        })
    }
}

/// The premerge outcome of one workload's images, rebuilt through the
/// public calls `System::new` makes (synthesize, map, premerge), once per
/// engine so the two can be checked against each other.
struct Audit {
    synth_s: f64,
    map_s: f64,
    pf_premerge_s: f64,
    ksm_premerge_s: f64,
    /// Unmerged memory, the premerged memories, and the images.
    mem: HostMemory,
    pf_mem: HostMemory,
    ksm_mem: HostMemory,
    images: Vec<MemoryImage>,
    error: Option<String>,
}

/// Premerges the workload's images with PageForge and with software KSM,
/// each configured as `engines` (the same cell under either engine). The
/// paper's PageForge finds the pages KSM finds, so both must reach the
/// same merge count and footprint, with consistent memory.
///
/// Run first thing in a fresh process, the spans split `System::new`'s
/// setup: synthesis goes through the content memo, which is empty, so it
/// pays what `System::new` pays (synthesis plus the memo's copy).
fn audit(cfg: &SimConfig, [pf_cfg, ksm_cfg]: &[SimConfig; 2]) -> Audit {
    let started = Instant::now();
    let contents: Vec<_> = (0..cfg.cores)
        .map(|c| {
            cfg.profile_for(c)
                .generate_vm_page_contents(VmId(c as u32), cfg.seed)
        })
        .collect();
    let synth_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut mem = HostMemory::new();
    let images: Vec<MemoryImage> = contents
        .into_iter()
        .enumerate()
        .map(|(c, vm_contents)| {
            let profile = cfg.profile_for(c);
            let mut pages = Vec::with_capacity(vm_contents.len());
            profile.map_vm_page_contents(&mut mem, VmId(c as u32), vm_contents, &mut pages);
            MemoryImage {
                app: profile.name.clone(),
                n_vms: 1,
                pages,
            }
        })
        .collect();
    let map_s = started.elapsed().as_secs_f64();

    let hints: Vec<_> = images.iter().flat_map(|i| i.mergeable_hints()).collect();
    let (pf_mem, pf_premerge_s) = premerge(pf_cfg, &mem, &hints);
    let (ksm_mem, ksm_premerge_s) = premerge(ksm_cfg, &mem, &hints);

    Audit {
        synth_s,
        map_s,
        pf_premerge_s,
        ksm_premerge_s,
        error: premerge_errors(&mem, &pf_mem, &ksm_mem),
        mem,
        pf_mem,
        ksm_mem,
        images,
    }
}

fn premerge_errors(mem: &HostMemory, pf_mem: &HostMemory, ksm_mem: &HostMemory) -> Option<String> {
    let mut errors = Vec::new();
    for (engine, m) in [("PageForge", pf_mem), ("KSM", ksm_mem)] {
        if let Err(e) = m.check_invariants() {
            errors.push(format!("{engine} premerge: {e}"));
        }
    }
    let (p, k) = (pf_mem.stats(), ksm_mem.stats());
    if p.merges == 0
        || (p.merges, p.allocated_frames) != (k.merges, k.allocated_frames)
        || p.mapped_guest_pages != mem.mapped_guest_pages()
    {
        errors.push(format!(
            "premerge disagrees: PageForge {p:?}, KSM {k:?}, {} pages mapped",
            mem.mapped_guest_pages()
        ));
    }
    (!errors.is_empty()).then(|| errors.join("; "))
}

/// Premerges a copy of `mem` to steady state the way `System::new` does
/// under `cfg.dedup` with one module, and returns it with the seconds the
/// premerge took.
fn premerge(cfg: &SimConfig, mem: &HostMemory, hints: &[(VmId, Gfn)]) -> (HostMemory, f64) {
    let mut mem = mem.clone();
    let started = Instant::now();
    match &cfg.dedup {
        DedupMode::None => {}
        DedupMode::Ksm(k) => {
            Ksm::new(k.clone(), hints.to_vec()).run_to_steady_state(&mut mem, 12);
        }
        DedupMode::PageForge(p) => {
            let mut pf = PageForge::new(p.clone(), hints.to_vec());
            pf.run_to_steady_state(&mut mem, &mut FlatFabric::all_dram(80), 12);
        }
    }
    (mem, started.elapsed().as_secs_f64())
}

/// The per-layer spans and counts of one run.
fn run_layers(t: &Timing, result: &SimResult, snap: &Snapshot) -> Vec<(String, f64)> {
    let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let candidates = count("pageforge.candidates");
    let pf_merged = count("pageforge.merged_stable") + count("pageforge.merged_unstable");
    let digest_hits = count("ksm.digest.hits");
    let row_hits = count("mem.dram.row_hits");
    let m = &result.mem_stats;
    named(&[
        ("sim.setup_s", t.setup_s),
        ("sim.run_s", t.run_s),
        ("sim.queries_completed", result.queries_completed as f64),
        ("sim.epochs", count("sim.shard.epochs")),
        ("cache.l3_miss_rate", result.l3_miss_rate),
        ("mem.dram_reads", count("mem.dram.reads")),
        ("mem.demand_lines", count("mem.controller.demand_lines")),
        (
            "mem.pageforge_lines",
            count("mem.controller.pageforge_lines"),
        ),
        (
            "mem.row_hit_ratio",
            ratio(row_hits, row_hits + count("mem.dram.row_misses")),
        ),
        ("mem.queue_wait_cycles", count("mem.dram.queue_wait_cycles")),
        ("core.engine_runs", count("engine.runs")),
        ("core.engine_lines_fetched", count("engine.lines_fetched")),
        ("core.candidates", candidates),
        ("core.merge_yield", ratio(pf_merged, candidates)),
        ("ksm.hash_ops", count("ksm.work.hash_ops")),
        ("ksm.comparisons", count("ksm.work.comparisons")),
        (
            "ksm.digest_hit_ratio",
            ratio(digest_hits, digest_hits + count("ksm.digest.misses")),
        ),
        ("vm.merges", m.merges as f64),
        ("vm.cow_breaks", m.cow_breaks as f64),
        ("host.slowdown", t.slowdown()),
    ])
}

/// The setup split and the layer drivers, on the workload's own inputs.
/// A `*_ns` or `*_ms` driver times one layer alone: it measures that
/// layer's speed, not its share of the run.
fn driver_layers(cfg: &SimConfig, audit: Audit) -> Vec<(String, f64)> {
    let pages: Vec<_> = audit.mem.iter_frames().map(|(_, data, _)| data).collect();
    let ecc = SimConfig::scaled_pageforge().engine.ecc;
    let page_key_ns = time_per_op(pages.len(), || {
        for p in &pages {
            black_box(ecc.page_key(black_box(p)));
        }
    });
    let page_checksum_ns = time_per_op(pages.len(), || {
        for p in &pages {
            black_box(page_checksum(black_box(p)));
        }
    });

    // Touch stream: each core's own access pattern, round-robin, through
    // the premerged translation (merged pages share cache lines).
    let mut premerged = match cfg.dedup {
        DedupMode::PageForge(_) => audit.pf_mem,
        DedupMode::Ksm(_) => audit.ksm_mem,
        DedupMode::None => audit.mem,
    };
    let mut patterns: Vec<_> = (0..cfg.cores)
        .map(|c| AccessPattern::new(cfg.app_for(c), cfg.seed ^ c as u64))
        .collect();
    const TOUCHES: usize = 1 << 20;
    let started = Instant::now();
    let touches: Vec<_> = (0..TOUCHES)
        .map(|i| (i % cfg.cores, patterns[i % cfg.cores].next_touch()))
        .collect();
    let next_touch_ns = per_op_ns(started, TOUCHES);
    let stream: Vec<(usize, LineAddr, bool)> = touches
        .iter()
        .filter_map(|&(core, t)| {
            let pages = cfg.profile_for(core).pages_per_vm;
            let gfn = Gfn((t.page_index % pages) as u64);
            let ppn = premerged.translate(VmId(core as u32), gfn)?;
            Some((core, ppn.line_addr(t.line), t.is_write))
        })
        .collect();

    let mut caches = SystemCaches::new(cfg.hierarchy);
    let mut misses = Vec::new();
    let started = Instant::now();
    for &(core, addr, write) in &stream {
        if caches.access(core, addr, write).level == HitLevel::Memory {
            misses.push(addr);
        }
    }
    let cache_access_ns = per_op_ns(started, stream.len());

    let mut mems = MemorySystem::new(cfg.mem);
    let started = Instant::now();
    for (i, &addr) in misses.iter().enumerate() {
        black_box(mems.read_line(addr, i as u64 * 20, MemSource::Demand));
    }
    let read_line_ns = per_op_ns(started, misses.len());

    // One churn interval over every VM, as the run applies it.
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xCAFE);
    let started = Instant::now();
    for (c, image) in audit.images.iter().enumerate() {
        image.churn_step(&mut premerged, &cfg.profile_for(c).churn, &mut rng);
    }
    let churn_step_ms = started.elapsed().as_secs_f64() * 1e3;

    named(&[
        ("workloads.next_touch_ns", next_touch_ns),
        ("cache.access_ns", cache_access_ns),
        ("mem.read_line_ns", read_line_ns),
        ("core.premerge_s", audit.pf_premerge_s),
        ("ksm.premerge_s", audit.ksm_premerge_s),
        ("ksm.page_checksum_ns", page_checksum_ns),
        ("ecc.page_key_ns", page_key_ns),
        ("vm.synth_s", audit.synth_s),
        ("vm.map_s", audit.map_s),
        ("vm.churn_step_ms", churn_step_ms),
    ])
}

fn named(metrics: &[(&str, f64)]) -> Vec<(String, f64)> {
    metrics.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_op_ns(started: Instant, ops: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Repeats `pass` (`ops` operations each) for at least 50 ms and returns
/// nanoseconds per operation.
fn time_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < 0.05 {
        pass();
        passes += 1;
    }
    per_op_ns(started, ops * passes)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fnv1a(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, WORKLOADS};

    #[test]
    fn report_round_trips_through_json() {
        let timed = Report {
            timing: Some(Timing {
                setup_s: 0.25,
                run_s: 1.5,
                horizon_cycles: 70_000_000,
                peak_rss_mb: 190.125,
                calibration_s: 0.0075,
                digest: fnv1a(b"result"),
            }),
            error: Some("broken".into()),
            layers: vec![("sim.run_s".into(), 1.5)],
        };
        let audit = Report {
            timing: None,
            error: None,
            layers: Vec::new(),
        };
        for report in [timed, audit] {
            let text = report.to_json().to_string_compact();
            let back = pageforge_types::json::parse(&text).expect("valid JSON");
            assert_eq!(Report::from_json(&back), Some(report));
        }
    }

    #[test]
    fn smoke_reports_are_deterministic_and_pass_their_checks() {
        let digest = |r: &Report| r.timing.as_ref().expect("timed").digest.clone();
        for w in WORKLOADS {
            let a = run_rep(w, 11, Scale::Smoke, true);
            let b = run_rep(w, 11, Scale::Smoke, false);
            assert_eq!((&a.error, &b.error), (&None, &None), "{}", w.name);
            assert_eq!(digest(&a), digest(&b), "{}", w.name);
            let t = b.timing.as_ref().expect("timed");
            assert!(t.setup_s > 0.0 && t.run_s > 0.0 && t.peak_rss_mb > 0.0);
            assert!(t.calibration_s > 0.0);
            assert!(b.layers.is_empty());
            let audit = audit_rep(w, 11, Scale::Smoke, true);
            assert_eq!(audit.error, None, "{}", w.name);
            assert!(audit.timing.is_none());
        }
        let pf = by_name("pf-silo").expect("known");
        let other_seed = run_rep(pf, 12, Scale::Smoke, false);
        let same_seed = run_rep(pf, 11, Scale::Smoke, false);
        assert_ne!(digest(&other_seed), digest(&same_seed));
    }

    #[test]
    fn audit_catches_a_premerge_that_disagrees() {
        let w = by_name("pf-silo").expect("known");
        let engines = [pageforge(), ksm()].map(|mode| w.config_with(mode, 2, Scale::Smoke));
        let a = audit(&w.config(2, Scale::Smoke), &engines);
        assert_eq!(a.error, None);
        // A PageForge premerge that merged nothing disagrees with KSM.
        let err = premerge_errors(&a.mem, &a.mem, &a.ksm_mem).expect("disagreement");
        assert!(err.contains("premerge disagrees"), "{err}");
    }
}
