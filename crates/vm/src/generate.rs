//! Synthetic VM memory images and write churn.
//!
//! The paper boots 10 Ubuntu cloud VMs per experiment; we cannot. Instead,
//! this module generates guest memory whose *content statistics* match the
//! published steady state (Figure 7): on average 45% unmergeable pages, 5%
//! zero pages, and 50% mergeable non-zero pages (mostly OS/library pages
//! replicated across VMs) that compress to ≈6.6% of the original footprint.
//! The per-application presets vary these fractions the way Figure 7 does.
//!
//! A [`ChurnModel`] mutates pages between merging passes: full rewrites
//! (page reallocated for new data), partial in-place writes (biased toward
//! the first 1 KB, where structure headers live), and writes to merged pages
//! (CoW breaks). Churn is what makes hash-key staleness checks (jhash in
//! KSM, ECC keys in PageForge) meaningful — Figure 8 measures exactly how
//! often the two key schemes miss a change.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use pageforge_types::{Gfn, PageData, VmId, PAGE_SIZE};

use crate::memory::HostMemory;

/// Ground-truth class of a generated page, matching Figure 7's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageCategory {
    /// Unique or frequently-changing content; never merges.
    Unmergeable,
    /// All-zero content; merges into the single zero page.
    MergeableZero,
    /// Duplicated non-zero content (OS/library pages shared across VMs).
    MergeableNonZero,
}

/// Write-churn parameters, applied once per merging interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Per-interval probability that an unmergeable page is fully
    /// rewritten with new content.
    pub full_rewrite_prob: f64,
    /// Per-interval probability that an unmergeable page receives a small
    /// in-place write.
    pub partial_write_prob: f64,
    /// Probability that a partial write lands in the first 1 KB of the page
    /// (header/metadata locality). KSM's jhash window covers exactly this
    /// region, so the bias controls the jhash-vs-ECC detection gap of
    /// Figure 8.
    pub header_bias: f64,
    /// Per-interval probability that a mergeable non-zero page is written
    /// (breaking CoW if it was merged).
    pub shared_write_prob: f64,
    /// Per-interval probability that a zero page is claimed (written with
    /// real data for the first time).
    pub zero_claim_prob: f64,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel {
            full_rewrite_prob: 0.05,
            partial_write_prob: 0.08,
            header_bias: 0.7,
            shared_write_prob: 0.002,
            zero_claim_prob: 0.004,
        }
    }
}

/// One write applied by the churn step; the simulator replays these as
/// guest memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The whole page was rewritten.
    FullRewrite {
        /// VM that wrote.
        vm: VmId,
        /// Guest frame written.
        gfn: Gfn,
    },
    /// A small region was overwritten in place.
    PartialWrite {
        /// VM that wrote.
        vm: VmId,
        /// Guest frame written.
        gfn: Gfn,
        /// Byte offset of the write.
        offset: usize,
        /// Length of the write in bytes.
        len: usize,
    },
}

/// Memory-content profile of one application, stand-in for its real VM
/// image. Fractions must sum to at most 1; the remainder is mergeable
/// non-zero content.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name (TailBench suite).
    pub name: String,
    /// Guest pages per VM (scaled from the paper's 512 MB; see DESIGN.md).
    pub pages_per_vm: usize,
    /// Fraction of pages with unique / fast-changing content.
    pub unmergeable_frac: f64,
    /// Fraction of all-zero pages.
    pub zero_frac: f64,
    /// Of the mergeable non-zero pages, the fraction replicated in *every*
    /// VM (the rest is shared by pairs of VMs only).
    pub full_span_frac: f64,
    /// Write churn applied between merging intervals.
    pub churn: ChurnModel,
}

impl AppProfile {
    /// Builds a profile with the given fractions and default churn.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are not in `[0, 1]` or sum to more than 1.
    pub fn new(name: &str, pages_per_vm: usize, unmergeable_frac: f64, zero_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&unmergeable_frac));
        assert!((0.0..=1.0).contains(&zero_frac));
        assert!(
            unmergeable_frac + zero_frac <= 1.0,
            "fractions sum to more than 1"
        );
        AppProfile {
            name: name.to_owned(),
            pages_per_vm,
            unmergeable_frac,
            zero_frac,
            full_span_frac: 0.9,
            churn: ChurnModel::default(),
        }
    }

    /// The five TailBench presets of Table 3 / Figure 7, at the default
    /// scaled size (2048 pages ≈ 8 MB per VM).
    pub fn tailbench_suite() -> Vec<AppProfile> {
        Self::tailbench_suite_scaled(2048)
    }

    /// The TailBench presets with an explicit per-VM page count.
    ///
    /// The unmergeable/zero fractions are read off Figure 7's bars; churn
    /// varies per app (Moses and Silo churn more, being
    /// translation/OLTP-heavy; Sphinx least).
    pub fn tailbench_suite_scaled(pages_per_vm: usize) -> Vec<AppProfile> {
        let mut img_dnn = AppProfile::new("img_dnn", pages_per_vm, 0.42, 0.06);
        img_dnn.churn.full_rewrite_prob = 0.05;
        let mut masstree = AppProfile::new("masstree", pages_per_vm, 0.46, 0.05);
        masstree.churn.full_rewrite_prob = 0.06;
        let mut moses = AppProfile::new("moses", pages_per_vm, 0.48, 0.04);
        moses.churn.full_rewrite_prob = 0.08;
        moses.churn.partial_write_prob = 0.10;
        let mut silo = AppProfile::new("silo", pages_per_vm, 0.44, 0.06);
        silo.churn.full_rewrite_prob = 0.07;
        silo.churn.partial_write_prob = 0.10;
        let mut sphinx = AppProfile::new("sphinx", pages_per_vm, 0.45, 0.04);
        sphinx.churn.full_rewrite_prob = 0.04;
        vec![img_dnn, masstree, moses, silo, sphinx]
    }

    /// Generates guest memory for `n_vms` VMs into `mem`, returning the
    /// layout (hint list + ground-truth categories).
    ///
    /// Page counts per category are exact (floor of fraction × pages), so
    /// runs are reproducible and the Figure 7 bars are stable.
    pub fn generate(&self, mem: &mut HostMemory, n_vms: u32, seed: u64) -> MemoryImage {
        let mut image = MemoryImage {
            app: self.name.clone(),
            n_vms,
            pages: Vec::with_capacity(self.pages_per_vm * n_vms as usize),
        };
        for vm_raw in 0..n_vms {
            self.generate_vm_pages(mem, VmId(vm_raw), seed, &mut image.pages);
        }
        image
    }

    /// Boots one additional VM into an existing memory: its duplicate
    /// pages share content with any previously generated VM that used the
    /// same base `seed` (elastic-deployment scenarios). Returns the new
    /// VM's `madvise` hints.
    pub fn generate_one_vm(&self, mem: &mut HostMemory, vm: VmId, seed: u64) -> Vec<(VmId, Gfn)> {
        self.generate_image_for_vm(mem, vm, seed)
            .pages
            .into_iter()
            .map(|p| (p.vm, p.gfn))
            .collect()
    }

    /// Like [`generate_one_vm`](Self::generate_one_vm) but returns the full
    /// [`MemoryImage`] (with categories) so churn can be applied per VM —
    /// used by heterogeneous-mix simulations where each VM runs a
    /// different application. VMs generated from *different* profiles with
    /// the same base `seed` still share their full-span library groups
    /// (same guest OS, different application).
    pub fn generate_image_for_vm(&self, mem: &mut HostMemory, vm: VmId, seed: u64) -> MemoryImage {
        let mut pages = Vec::with_capacity(self.pages_per_vm);
        self.generate_vm_pages(mem, vm, seed, &mut pages);
        MemoryImage {
            app: self.name.clone(),
            n_vms: 1,
            pages,
        }
    }

    /// Synthesizes one VM's page contents in mapping order — a **pure**
    /// function of `(profile, vm, seed)`, touching no shared state.
    ///
    /// [`generate_vm_pages`](Self::generate_image_for_vm) is exactly
    /// "synthesize, then map sequentially", so the sharded simulator can
    /// fan this call out across worker threads (one VM per task) and
    /// replay the mapping in VM order with byte-identical frame
    /// assignment and content.
    pub fn generate_vm_page_contents(
        &self,
        vm: VmId,
        seed: u64,
    ) -> Vec<(Gfn, PageData, PageCategory)> {
        let n_unmergeable = (self.pages_per_vm as f64 * self.unmergeable_frac) as usize;
        let n_zero = (self.pages_per_vm as f64 * self.zero_frac) as usize;
        let n_mergeable = self.pages_per_vm - n_unmergeable - n_zero;
        let n_full_span = (n_mergeable as f64 * self.full_span_frac) as usize;
        let vm_raw = vm.0;

        let mut out = Vec::with_capacity(self.pages_per_vm);
        let mut gfn_raw = 0u64;
        // Mergeable non-zero pages: group `g` has identical content in
        // every VM (full span) or in a pair of VMs (content keyed by the
        // pair id so exactly two VMs share it).
        for g in 0..n_mergeable {
            let content_seed = if g < n_full_span {
                // Same content in all VMs.
                hash3(seed, 1, g as u64)
            } else {
                // Shared by VM pairs: (0,1), (2,3), ...
                hash3(seed, 2, (g as u64) << 32 | u64::from(vm_raw / 2))
            };
            out.push((
                Gfn(gfn_raw),
                synthetic_library_page(content_seed),
                PageCategory::MergeableNonZero,
            ));
            gfn_raw += 1;
        }
        // Zero pages.
        for _ in 0..n_zero {
            out.push((
                Gfn(gfn_raw),
                PageData::zeroed(),
                PageCategory::MergeableZero,
            ));
            gfn_raw += 1;
        }
        // Unmergeable pages: unique random content per (vm, gfn).
        for u in 0..n_unmergeable {
            let content_seed = hash3(seed, 3, (u64::from(vm_raw) << 32) | u as u64);
            out.push((
                Gfn(gfn_raw),
                random_page(content_seed),
                PageCategory::Unmergeable,
            ));
            gfn_raw += 1;
        }
        out
    }

    fn generate_vm_pages(
        &self,
        mem: &mut HostMemory,
        vm: VmId,
        seed: u64,
        out: &mut Vec<GeneratedPage>,
    ) {
        self.map_vm_page_contents(mem, vm, self.generate_vm_page_contents(vm, seed), out);
    }

    /// Maps pre-synthesized page contents into `mem` in order, recording
    /// the layout. Split from the synthesis step so content generation
    /// can run on shard workers while frame allocation stays sequential
    /// (frame numbers are handed out in mapping order).
    pub fn map_vm_page_contents(
        &self,
        mem: &mut HostMemory,
        vm: VmId,
        contents: Vec<(Gfn, PageData, PageCategory)>,
        out: &mut Vec<GeneratedPage>,
    ) {
        for (gfn, data, category) in contents {
            mem.map_new_page(vm, gfn, data);
            out.push(GeneratedPage { vm, gfn, category });
        }
    }
}

/// One generated guest page with its ground-truth category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedPage {
    /// Owning VM.
    pub vm: VmId,
    /// Guest frame number.
    pub gfn: Gfn,
    /// Ground-truth merge class.
    pub category: PageCategory,
}

/// The generated layout: every guest page with its category. The hint list
/// (`madvise(MADV_MERGEABLE)` in the paper) is all pages.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryImage {
    /// Application name this image models.
    pub app: String,
    /// Number of VMs generated.
    pub n_vms: u32,
    /// All generated pages in generation order.
    pub pages: Vec<GeneratedPage>,
}

impl MemoryImage {
    /// The `madvise(MADV_MERGEABLE)` hint list: every generated guest page,
    /// in a deterministic scan order.
    pub fn mergeable_hints(&self) -> Vec<(VmId, Gfn)> {
        self.pages.iter().map(|p| (p.vm, p.gfn)).collect()
    }

    /// Ground-truth page counts per category (across all VMs).
    pub fn category_counts(&self) -> CategoryCounts {
        let mut c = CategoryCounts::default();
        for p in &self.pages {
            match p.category {
                PageCategory::Unmergeable => c.unmergeable += 1,
                PageCategory::MergeableZero => c.zero += 1,
                PageCategory::MergeableNonZero => c.non_zero += 1,
            }
        }
        c
    }

    /// Applies one interval of write churn, returning the events applied.
    ///
    /// Churn is applied through [`HostMemory::guest_write`], so writes to
    /// merged pages break CoW exactly as they would under a hypervisor.
    pub fn churn_step(
        &self,
        mem: &mut HostMemory,
        churn: &ChurnModel,
        rng: &mut SmallRng,
    ) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        for p in &self.pages {
            match p.category {
                PageCategory::Unmergeable => {
                    let roll: f64 = rng.gen();
                    if roll < churn.full_rewrite_prob {
                        let mut bytes = vec![0u8; PAGE_SIZE];
                        rng.fill_bytes(&mut bytes);
                        mem.guest_write(p.vm, p.gfn, 0, &bytes);
                        events.push(ChurnEvent::FullRewrite {
                            vm: p.vm,
                            gfn: p.gfn,
                        });
                    } else if roll < churn.full_rewrite_prob + churn.partial_write_prob {
                        let (offset, len) = partial_write_span(churn, rng);
                        let mut bytes = vec![0u8; len];
                        rng.fill_bytes(&mut bytes);
                        mem.guest_write(p.vm, p.gfn, offset, &bytes);
                        events.push(ChurnEvent::PartialWrite {
                            vm: p.vm,
                            gfn: p.gfn,
                            offset,
                            len,
                        });
                    }
                }
                PageCategory::MergeableNonZero => {
                    if rng.gen::<f64>() < churn.shared_write_prob {
                        let (offset, len) = partial_write_span(churn, rng);
                        let mut bytes = vec![0u8; len];
                        rng.fill_bytes(&mut bytes);
                        mem.guest_write(p.vm, p.gfn, offset, &bytes);
                        events.push(ChurnEvent::PartialWrite {
                            vm: p.vm,
                            gfn: p.gfn,
                            offset,
                            len,
                        });
                    }
                }
                PageCategory::MergeableZero => {
                    if rng.gen::<f64>() < churn.zero_claim_prob {
                        let mut bytes = vec![0u8; 256];
                        rng.fill_bytes(&mut bytes);
                        mem.guest_write(p.vm, p.gfn, 0, &bytes);
                        events.push(ChurnEvent::PartialWrite {
                            vm: p.vm,
                            gfn: p.gfn,
                            offset: 0,
                            len: 256,
                        });
                    }
                }
            }
        }
        events
    }
}

/// Ground-truth category counts for Figure 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    /// Unmergeable pages.
    pub unmergeable: usize,
    /// All-zero pages.
    pub zero: usize,
    /// Mergeable non-zero pages.
    pub non_zero: usize,
}

impl CategoryCounts {
    /// Total pages.
    pub fn total(&self) -> usize {
        self.unmergeable + self.zero + self.non_zero
    }
}

fn partial_write_span(churn: &ChurnModel, rng: &mut SmallRng) -> (usize, usize) {
    let len = [16usize, 64, 128, 256][rng.gen_range(0..4)];
    let region = if rng.gen::<f64>() < churn.header_bias {
        0..1024 - len
    } else {
        1024..PAGE_SIZE - len
    };
    (rng.gen_range(region), len)
}

/// 64-bit mix for deriving content seeds (splitmix64 finalizer).
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a ^ b.rotate_left(21) ^ c.rotate_left(43);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bytes of common structured header at the start of generated pages.
///
/// Real pages rarely diverge at byte 0: allocator metadata, object
/// headers, and zero-initialised prefixes are widely shared, which is what
/// makes KSM's byte-by-byte tree comparisons expensive (Table 4: ~52% of
/// KSM cycles go to page comparison). Generated pages draw their first
/// 512 B from a small pool of header templates so comparisons examine
/// hundreds of bytes before diverging, as they do on real memory.
pub const HEADER_BYTES: usize = 512;
/// Number of distinct header templates.
const HEADER_TEMPLATES: u64 = 4;

fn write_header(page: &mut PageData, seed: u64) {
    let template = seed % HEADER_TEMPLATES;
    let mut rng = SmallRng::seed_from_u64(0x4845_4144 ^ template);
    rng.fill_bytes(&mut page.as_bytes_mut()[..HEADER_BYTES]);
}

/// A pseudo-random page (unique content beyond the common header).
fn random_page(seed: u64) -> PageData {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut page = PageData::zeroed();
    rng.fill_bytes(page.as_bytes_mut());
    write_header(&mut page, seed);
    page
}

/// A "library" page: pseudo-random but with structured zero runs, the way
/// code/rodata pages look.
fn synthetic_library_page(seed: u64) -> PageData {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut page = PageData::zeroed();
    rng.fill_bytes(page.as_bytes_mut());
    write_header(&mut page, seed);
    // Punch some zero runs to mimic padding/alignment holes.
    for _ in 0..4 {
        let start = rng.gen_range(HEADER_BYTES..PAGE_SIZE - 64);
        let len = rng.gen_range(8..64);
        page.as_bytes_mut()[start..start + len].fill(0);
    }
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_profile() -> AppProfile {
        AppProfile::new("test", 100, 0.4, 0.1)
    }

    #[test]
    fn generation_matches_fractions() {
        let mut mem = HostMemory::new();
        let image = small_profile().generate(&mut mem, 4, 7);
        let c = image.category_counts();
        assert_eq!(c.total(), 400);
        assert_eq!(c.unmergeable, 160);
        assert_eq!(c.zero, 40);
        assert_eq!(c.non_zero, 200);
        assert_eq!(mem.mapped_guest_pages(), 400);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn full_span_pages_are_identical_across_vms() {
        let mut mem = HostMemory::new();
        let image = small_profile().generate(&mut mem, 3, 7);
        // Group 0 is full-span: Gfn(0) should be identical in all VMs.
        let a = mem.guest_read(VmId(0), Gfn(0)).unwrap();
        let b = mem.guest_read(VmId(1), Gfn(0)).unwrap();
        let c = mem.guest_read(VmId(2), Gfn(0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(!a.is_zero());
        drop(image);
    }

    #[test]
    fn unmergeable_pages_are_unique() {
        let mut mem = HostMemory::new();
        let image = small_profile().generate(&mut mem, 2, 7);
        let unmergeable: Vec<_> = image
            .pages
            .iter()
            .filter(|p| p.category == PageCategory::Unmergeable)
            .collect();
        let first = mem
            .guest_read(unmergeable[0].vm, unmergeable[0].gfn)
            .unwrap();
        let second = mem
            .guest_read(unmergeable[1].vm, unmergeable[1].gfn)
            .unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn zero_pages_are_zero() {
        let mut mem = HostMemory::new();
        let image = small_profile().generate(&mut mem, 1, 7);
        for p in image
            .pages
            .iter()
            .filter(|p| p.category == PageCategory::MergeableZero)
        {
            assert!(mem.guest_read(p.vm, p.gfn).unwrap().is_zero());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut m1 = HostMemory::new();
        let mut m2 = HostMemory::new();
        let i1 = small_profile().generate(&mut m1, 2, 42);
        let i2 = small_profile().generate(&mut m2, 2, 42);
        assert_eq!(i1, i2);
        for (vm, gfn, _) in m1.iter_mappings() {
            assert_eq!(m1.guest_read(vm, gfn), m2.guest_read(vm, gfn));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut m1 = HostMemory::new();
        let mut m2 = HostMemory::new();
        small_profile().generate(&mut m1, 1, 1);
        small_profile().generate(&mut m2, 1, 2);
        let diff = m1
            .iter_mappings()
            .filter(|&(vm, gfn, _)| m1.guest_read(vm, gfn) != m2.guest_read(vm, gfn))
            .count();
        assert!(diff > 0);
    }

    #[test]
    fn tailbench_suite_has_five_apps() {
        let suite = AppProfile::tailbench_suite();
        assert_eq!(suite.len(), 5);
        let names: Vec<_> = suite.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["img_dnn", "masstree", "moses", "silo", "sphinx"]);
        // Average unmergeable fraction ≈ 45% as in Figure 7.
        let avg: f64 = suite.iter().map(|p| p.unmergeable_frac).sum::<f64>() / suite.len() as f64;
        assert!((avg - 0.45).abs() < 0.01, "avg unmergeable {avg}");
    }

    #[test]
    fn churn_mutates_unmergeable_pages() {
        let mut mem = HostMemory::new();
        let mut profile = small_profile();
        profile.churn.full_rewrite_prob = 1.0; // force rewrites
        profile.churn.partial_write_prob = 0.0;
        let image = profile.generate(&mut mem, 1, 7);
        let before: Vec<_> = image
            .pages
            .iter()
            .filter(|p| p.category == PageCategory::Unmergeable)
            .map(|p| mem.guest_read(p.vm, p.gfn).unwrap().clone())
            .collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let events = image.churn_step(&mut mem, &profile.churn, &mut rng);
        assert_eq!(events.len(), 40); // every unmergeable page rewritten
        let after: Vec<_> = image
            .pages
            .iter()
            .filter(|p| p.category == PageCategory::Unmergeable)
            .map(|p| mem.guest_read(p.vm, p.gfn).unwrap().clone())
            .collect();
        assert_ne!(before, after);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn churn_is_deterministic_given_seed() {
        let profile = small_profile();
        let run = |seed| {
            let mut mem = HostMemory::new();
            let image = profile.generate(&mut mem, 2, 9);
            let mut rng = SmallRng::seed_from_u64(seed);
            image.churn_step(&mut mem, &profile.churn, &mut rng)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn equal_names_with_different_fractions_generate_different_images() {
        let a = AppProfile::new("same", 50, 0.2, 0.1);
        let b = AppProfile::new("same", 50, 0.4, 0.1);
        assert_ne!(
            a.generate_vm_page_contents(VmId(0), 5),
            b.generate_vm_page_contents(VmId(0), 5),
            "parameters, not names, shape the image"
        );
    }

    #[test]
    fn hints_cover_all_pages() {
        let mut mem = HostMemory::new();
        let image = small_profile().generate(&mut mem, 2, 7);
        assert_eq!(image.mergeable_hints().len(), 200);
    }

    #[test]
    #[should_panic(expected = "sum to more than 1")]
    fn profile_rejects_bad_fractions() {
        let _ = AppProfile::new("bad", 10, 0.8, 0.4);
    }
}
