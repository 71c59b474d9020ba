//! Randomized tests: red-black tree invariants under random operation
//! sequences, and end-to-end KSM merge correctness. Driven by the vendored
//! deterministic RNG (fixed seeds; failures reproduce exactly).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pageforge_ksm::rbtree::RbTree;
use pageforge_ksm::{Ksm, KsmConfig};
use pageforge_types::{derive_seed, Gfn, PageData, VmId};
use pageforge_vm::HostMemory;

fn rng_for(label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(0x2B7, label))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    RemoveNth(u16),
}

fn arb_ops(rng: &mut SmallRng) -> Vec<Op> {
    let n = rng.gen_range(1usize..200);
    (0..n)
        .map(|_| {
            // Weights 3:1 insert:remove, as the original strategy had.
            if rng.gen_range(0u32..4) < 3 {
                Op::Insert(rng.gen::<u16>())
            } else {
                Op::RemoveNth(rng.gen::<u16>())
            }
        })
        .collect()
}

/// Random insert/remove sequences preserve the red-black invariants and
/// agree with a sorted-model reference.
#[test]
fn rbtree_matches_model() {
    let mut rng = rng_for("rbtree_model");
    for _ in 0..64 {
        let ops = arb_ops(&mut rng);
        let mut tree: RbTree<u16> = RbTree::new();
        let mut handles = Vec::new();
        let mut model: Vec<u16> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(v) => {
                    let id = tree.insert_ord(v);
                    handles.push(id);
                    model.push(v);
                }
                Op::RemoveNth(n) => {
                    if !handles.is_empty() {
                        let idx = n as usize % handles.len();
                        let id = handles.swap_remove(idx);
                        let v = tree.remove(id);
                        let pos = model.iter().position(|&x| x == v).unwrap();
                        model.swap_remove(pos);
                    }
                }
            }
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("invariant violated: {e}"));
        }
        model.sort_unstable();
        let inorder: Vec<u16> = tree.iter().copied().collect();
        assert_eq!(inorder, model);
    }
}

/// The tree height stays logarithmic (RB guarantee: ≤ 2·log2(n+1)).
#[test]
fn rbtree_height_is_logarithmic() {
    let mut rng = rng_for("rbtree_height");
    for _ in 0..32 {
        let count = rng.gen_range(1usize..500);
        let mut tree = RbTree::new();
        for _ in 0..count {
            tree.insert_ord(rng.gen::<u32>());
        }
        let n = tree.len();
        let bound = 2 * ((n + 1) as f64).log2().ceil() as usize + 1;
        let depth = tree.depth();
        assert!(depth <= bound, "depth {depth} > bound {bound} for n={n}");
    }
}

/// KSM merges exactly the duplicate classes: after steady state, the
/// number of frames equals the number of distinct page contents, and
/// every guest still reads its original bytes.
#[test]
fn ksm_reaches_content_optimal_state() {
    let mut rng = rng_for("content_optimal");
    for _ in 0..32 {
        let n = rng.gen_range(2usize..24);
        let contents: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..6)).collect();
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        let mut originals = Vec::new();
        for (i, &c) in contents.iter().enumerate() {
            let vm = VmId((i % 4) as u32);
            let gfn = Gfn((i / 4) as u64);
            let data = PageData::from_fn(|j| c.wrapping_add((j % 7) as u8));
            mem.map_new_page(vm, gfn, data.clone());
            hints.push((vm, gfn));
            originals.push((vm, gfn, data));
        }
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        ksm.run_to_steady_state(&mut mem, 12);

        // Frame count equals distinct contents.
        let mut distinct: Vec<u8> = contents.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(mem.allocated_frames(), distinct.len());

        // No guest observes corrupted data.
        for (vm, gfn, data) in &originals {
            assert_eq!(mem.guest_read(*vm, *gfn).unwrap(), data);
        }
        mem.check_invariants().unwrap();
    }
}

/// Writes between passes never corrupt other guests' views.
#[test]
fn ksm_with_interleaved_writes_is_safe() {
    let mut rng = rng_for("interleaved_writes");
    for _ in 0..32 {
        let n = rng.gen_range(4usize..16);
        let contents: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..4)).collect();
        let n_writes = rng.gen_range(0usize..20);
        let writes: Vec<(usize, usize, u8)> = (0..n_writes)
            .map(|_| {
                (
                    rng.gen_range(0usize..16),
                    rng.gen_range(0usize..4096),
                    rng.gen::<u8>(),
                )
            })
            .collect();
        let mut mem = HostMemory::new();
        let mut hints = Vec::new();
        for (i, &c) in contents.iter().enumerate() {
            let vm = VmId(i as u32);
            mem.map_new_page(vm, Gfn(0), PageData::from_fn(|_| c));
            hints.push((vm, Gfn(0)));
        }
        let mut ksm = Ksm::new(KsmConfig::default(), hints);
        let mut expected: Vec<PageData> = (0..n)
            .map(|i| mem.guest_read(VmId(i as u32), Gfn(0)).unwrap().clone())
            .collect();

        for (k, &(who, off, val)) in writes.iter().enumerate() {
            let vm = VmId((who % n) as u32);
            mem.guest_write(vm, Gfn(0), off, &[val]);
            expected[who % n].as_bytes_mut()[off] = val;
            if k % 3 == 0 {
                ksm.scan_batch(&mut mem, n);
            }
        }
        ksm.run_to_steady_state(&mut mem, 8);
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(mem.guest_read(VmId(i as u32), Gfn(0)).unwrap(), exp);
        }
        mem.check_invariants().unwrap();
    }
}
