//! The single-scan hierarchy against the reference model in `reference/`,
//! the two-scan hierarchy with its per-line holder vector. Seeded random
//! streams of reads, writes and memory-controller probes from 1 to 5 cores
//! must give the same `Access` and probe results, the same counters in
//! every cache and the same MESI state of every line after every
//! operation, and the hierarchy must pass its own audit throughout.
//! Driven by the vendored deterministic RNG (fixed seeds).

mod reference;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pageforge_cache::{CacheConfig, HierarchyConfig, SystemCaches};
use pageforge_types::{derive_seed, LineAddr, LINE_SIZE};
use reference::RefCaches;

fn cache(sets: usize, ways: usize, latency: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * ways * LINE_SIZE,
        ways,
        latency,
    }
}

/// A hierarchy of `cores` cores with the given `(sets, ways)` per level.
fn hierarchy(
    cores: usize,
    l1: (usize, usize),
    l2: (usize, usize),
    l3: (usize, usize),
) -> HierarchyConfig {
    HierarchyConfig {
        cores,
        l1: cache(l1.0, l1.1, 2),
        l2: cache(l2.0, l2.1, 6),
        l3: cache(l3.0, l3.1, 20),
        peer_transfer_latency: 12,
        bus_latency: 4,
    }
}

/// Drives both models with 24 random streams on the geometry `geometry`
/// builds for a core count, on line addresses below `lines`.
fn models_agree(label: &str, geometry: impl Fn(usize) -> HierarchyConfig, lines: u64) {
    let mut rng = SmallRng::seed_from_u64(derive_seed(0x0AC1E, label));
    for stream in 0..24 {
        let cores = rng.gen_range(1usize..6);
        let cfg = geometry(cores);
        let mut caches = SystemCaches::new(cfg);
        let mut reference = RefCaches::new(cfg);
        for op in 0..rng.gen_range(100usize..600) {
            let addr = LineAddr(rng.gen_range(0..lines));
            let at = format!("{label}: stream {stream}, op {op}");
            if rng.gen_range(0u32..5) == 0 {
                assert_eq!(
                    caches.probe_from_mc(addr),
                    reference.probe_from_mc(addr),
                    "{at}: probe of {addr}"
                );
            } else {
                let core = rng.gen_range(0..cores);
                let write = rng.gen::<bool>();
                assert_eq!(
                    caches.access(core, addr, write),
                    reference.access(core, addr, write),
                    "{at}: core {core} {} {addr}",
                    if write { "writes" } else { "reads" }
                );
            }
            for core in 0..cores {
                assert_eq!(caches.l1_stats(core), reference.l1_stats(core), "{at}");
                assert_eq!(caches.l2_stats(core), reference.l2_stats(core), "{at}");
                for a in (0..lines).map(LineAddr) {
                    assert_eq!(
                        caches.private_state(core, a),
                        reference.private_state(core, a),
                        "{at}: core {core}'s state of {a}"
                    );
                }
            }
            assert_eq!(caches.l3_stats(), reference.l3_stats(), "{at}");
            if let Err(violation) = caches.check_invariants() {
                panic!("{at}: {violation}");
            }
        }
    }
}

/// The L1 and L2 set counts divide the L3's, so an L3 victim always maps
/// to the requester's own L1 and L2 sets: the back-invalidation can free a
/// way in a set whose lookup found it full.
#[test]
fn agree_when_l3_victims_share_the_requesters_sets() {
    models_agree(
        "shared_sets",
        |cores| hierarchy(cores, (2, 2), (4, 4), (16, 4)),
        96,
    );
}

/// A 12-set L3 indexes by `%`; the power-of-two private caches by mask.
#[test]
fn agree_on_a_non_power_of_two_l3() {
    models_agree(
        "l3_12_sets",
        |cores| hierarchy(cores, (2, 2), (4, 4), (12, 4)),
        80,
    );
}

/// No level's set count divides another's.
#[test]
fn agree_when_no_set_counts_divide() {
    models_agree(
        "coprime_sets",
        |cores| hierarchy(cores, (3, 2), (5, 2), (7, 4)),
        64,
    );
}
