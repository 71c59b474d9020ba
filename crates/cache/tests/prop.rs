//! Randomized tests: the MESI single-writer invariant holds under
//! arbitrary interleavings of core accesses and memory-controller probes.
//! Driven by the vendored deterministic RNG (fixed seeds).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pageforge_cache::{CacheConfig, HierarchyConfig, SystemCaches};
use pageforge_types::{derive_seed, LineAddr, LINE_SIZE};

fn rng_for(label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(0xCAC4E, label))
}

#[derive(Debug, Clone)]
enum Op {
    Access { core: u8, addr: u8, write: bool },
    Probe { addr: u8 },
}

fn arb_ops(rng: &mut SmallRng) -> Vec<Op> {
    let n = rng.gen_range(1usize..300);
    (0..n)
        .map(|_| {
            // Weights 4:1 access:probe, as the original strategy had.
            if rng.gen_range(0u32..5) < 4 {
                Op::Access {
                    core: rng.gen::<u8>(),
                    addr: rng.gen::<u8>(),
                    write: rng.gen::<bool>(),
                }
            } else {
                Op::Probe {
                    addr: rng.gen::<u8>(),
                }
            }
        })
        .collect()
}

fn small_hierarchy(cores: usize) -> SystemCaches {
    SystemCaches::new(HierarchyConfig {
        cores,
        l1: CacheConfig {
            size_bytes: 4 * LINE_SIZE,
            ways: 2,
            latency: 2,
        },
        l2: CacheConfig {
            size_bytes: 16 * LINE_SIZE,
            ways: 4,
            latency: 6,
        },
        l3: CacheConfig {
            size_bytes: 64 * LINE_SIZE,
            ways: 4,
            latency: 20,
        },
        peer_transfer_latency: 12,
        bus_latency: 4,
    })
}

/// After every operation the hierarchy passes its audit: inclusion, the
/// core-valid bits covering every holder, and no line with two owners or
/// an owner beside sharers. Addresses are confined to 32 lines so sets
/// conflict hard and evictions/back-invalidations fire constantly.
#[test]
fn mesi_single_writer_invariant() {
    let mut rng = rng_for("single_writer");
    for _ in 0..24 {
        let ops = arb_ops(&mut rng);
        let cores = rng.gen_range(2usize..5);
        let mut s = small_hierarchy(cores);
        for op in &ops {
            match *op {
                Op::Access { core, addr, write } => {
                    s.access(core as usize % cores, LineAddr(u64::from(addr % 32)), write);
                }
                Op::Probe { addr } => {
                    s.probe_from_mc(LineAddr(u64::from(addr % 32)));
                }
            }
            s.check_invariants().unwrap();
        }
    }
}

/// A writer always ends up the sole owner of its line.
#[test]
fn writer_becomes_owner() {
    let mut rng = rng_for("writer_owner");
    for _ in 0..48 {
        let pre = arb_ops(&mut rng);
        let core = rng.gen_range(0usize..3);
        let addr = rng.gen_range(0u8..32);
        let cores = 3;
        let mut s = small_hierarchy(cores);
        for op in &pre {
            if let Op::Access { core, addr, write } = *op {
                s.access(core as usize % cores, LineAddr(u64::from(addr % 32)), write);
                s.check_invariants().unwrap();
            }
        }
        let line = LineAddr(u64::from(addr));
        s.access(core, line, true);
        s.check_invariants().unwrap();
        // The writer holds it Modified...
        let state = s.private_state(core, line);
        assert_eq!(state, Some(pageforge_cache::LineState::Modified));
        // ...and nobody else holds it at all.
        for c in 0..cores {
            if c != core {
                assert_eq!(s.private_state(c, line), None);
            }
        }
    }
}

/// Probes never install lines: core-visible cache state is unchanged by
/// any probe storm.
#[test]
fn probes_allocate_nothing() {
    let mut rng = rng_for("probes");
    for _ in 0..48 {
        let n = rng.gen_range(1usize..100);
        let addrs: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..64)).collect();
        let mut s = small_hierarchy(2);
        s.access(0, LineAddr(1), false);
        s.access(1, LineAddr(2), true);
        let miss_before = s.l1_stats(0).accesses() + s.l1_stats(1).accesses();
        for &a in &addrs {
            s.probe_from_mc(LineAddr(u64::from(a)));
            s.check_invariants().unwrap();
        }
        // Core accesses unchanged; both cores still hold their lines.
        assert_eq!(
            miss_before,
            s.l1_stats(0).accesses() + s.l1_stats(1).accesses()
        );
        assert!(s.private_state(0, LineAddr(1)).is_some());
        assert!(s.private_state(1, LineAddr(2)).is_some());
    }
}
