//! Per-query memory access patterns.
//!
//! Each query touches lines within its VM's working set, split into a hot
//! region (frequently re-touched; cache-resident in steady state) and a
//! cold region. The pattern speaks in *guest page indices* — the simulator
//! maps them to host frames through the VM's page table, so merged (CoW)
//! pages are genuinely shared in the cache hierarchy.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use pageforge_types::LINES_PER_PAGE;

use crate::apps::AppSpec;

/// One touched line: `(page_index, line_in_page, is_write)` where
/// `page_index` indexes the VM's working-set pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineTouch {
    /// Index into the VM's working-set page list.
    pub page_index: usize,
    /// Line within the page (0..64).
    pub line: usize,
    /// Whether this access writes.
    pub is_write: bool,
}

/// `2^53`: a uniform `f64` draw is `(next_u64() >> 11) · 2^-53`.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The integer threshold `t` for which `m < t` exactly when the float draw
/// `m · 2^-53` is below `p`, for every 53-bit `m`.
///
/// Both `m · 2^-53` (for `m < 2^53`) and `p · 2^53` are exact in `f64`, so
/// `m · 2^-53 < p` holds exactly when `m < p · 2^53`, that is when
/// `m < ⌈p · 2^53⌉` for an integer `m`. The saturating cast takes a
/// negative or NaN `p`, below every draw, to 0, and any `p ≥ 1` above
/// every `m`.
fn threshold(p: f64) -> u64 {
    (p * TWO_POW_53).ceil() as u64
}

/// Deterministic access-pattern generator for one query.
#[derive(Debug, Clone)]
pub struct AccessPattern {
    rng: SmallRng,
    working_set: usize,
    hot_pages: usize,
    /// [`threshold`] of the spec's `hot_access_frac`.
    hot_threshold: u64,
    /// [`threshold`] of the spec's `write_frac`.
    write_threshold: u64,
}

impl AccessPattern {
    /// Creates the pattern for one query of `spec`, seeded by the query's
    /// `pattern_seed`.
    pub fn new(spec: &AppSpec, seed: u64) -> Self {
        AccessPattern {
            rng: SmallRng::seed_from_u64(seed),
            working_set: spec.working_set_pages.max(1),
            hot_pages: Self::hot_pages(spec),
            hot_threshold: threshold(spec.hot_access_frac),
            write_threshold: threshold(spec.write_frac),
        }
    }

    fn hot_pages(spec: &AppSpec) -> usize {
        ((spec.working_set_pages as f64 * spec.hot_frac) as usize).max(1)
    }

    /// The page indices the patterns of `spec` draw from: every
    /// [`LineTouch::page_index`] is below this bound.
    pub fn page_bound(spec: &AppSpec) -> usize {
        Self::hot_pages(spec).max(spec.working_set_pages.max(1))
    }

    /// Draws the next line touch. The hot and write draws compare 53
    /// random bits with an integer threshold, the same decision as
    /// comparing a uniform `f64` draw with the fraction.
    #[inline]
    pub fn next_touch(&mut self) -> LineTouch {
        let hot = self.rng.next_u64() >> 11 < self.hot_threshold;
        let page_index = if hot {
            self.rng.gen_range(0..self.hot_pages)
        } else {
            self.rng
                .gen_range(self.hot_pages.min(self.working_set - 1)..self.working_set)
        };
        LineTouch {
            page_index,
            line: self.rng.gen_range(0..LINES_PER_PAGE),
            is_write: self.rng.next_u64() >> 11 < self.write_threshold,
        }
    }

    /// Draws `n` touches.
    pub fn touches(&mut self, n: u32) -> Vec<LineTouch> {
        (0..n).map(|_| self.next_touch()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fractions the threshold draws must reproduce: every suite app's,
    /// and the edges of the `f64` comparison.
    fn fractions() -> Vec<f64> {
        let mut ps = vec![
            0.0,
            1.0 / TWO_POW_53,
            0.5,
            1.0 - 1.0 / TWO_POW_53,
            1.0,
            1.5,
            -0.5,
            f64::NAN,
        ];
        for s in AppSpec::tailbench_suite() {
            ps.extend([s.hot_access_frac, s.write_frac]);
        }
        ps
    }

    /// The float draw the thresholds replaced, on 53 random bits.
    fn float_below(m: u64, p: f64) -> bool {
        (m as f64) * (1.0 / TWO_POW_53) < p
    }

    #[test]
    fn thresholds_agree_with_float_draws_at_the_boundary() {
        for p in fractions() {
            let t = threshold(p);
            for m in [t.wrapping_sub(1), t, t.wrapping_add(1)] {
                if m < 1 << 53 {
                    assert_eq!(m < t, float_below(m, p), "p {p}, m {m}, t {t}");
                }
            }
        }
        assert_eq!(threshold(0.5), 1 << 52);
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(-0.5), 0);
        assert!(threshold(1.0) >= 1 << 53 && threshold(1.5) >= 1 << 53);
    }

    #[test]
    fn thresholds_agree_with_float_draws_over_a_stream() {
        for p in fractions() {
            let t = threshold(p);
            let mut floats = SmallRng::seed_from_u64(0x5EED);
            let mut ints = floats.clone();
            for _ in 0..100_000 {
                assert_eq!(floats.gen::<f64>() < p, ints.next_u64() >> 11 < t, "p {p}");
            }
        }
    }

    /// The old `next_touch`, drawing the hot and write decisions as floats.
    fn float_touch(p: &mut AccessPattern, spec: &AppSpec) -> LineTouch {
        let hot = p.rng.gen::<f64>() < spec.hot_access_frac;
        let page_index = if hot {
            p.rng.gen_range(0..p.hot_pages)
        } else {
            p.rng
                .gen_range(p.hot_pages.min(p.working_set - 1)..p.working_set)
        };
        LineTouch {
            page_index,
            line: p.rng.gen_range(0..LINES_PER_PAGE),
            is_write: p.rng.gen::<f64>() < spec.write_frac,
        }
    }

    #[test]
    fn touches_match_the_float_draws() {
        for spec in AppSpec::tailbench_suite() {
            for seed in [1, 0xC0FFEE] {
                let mut oracle = AccessPattern::new(&spec, seed);
                let want: Vec<LineTouch> = (0..10_000)
                    .map(|_| float_touch(&mut oracle, &spec))
                    .collect();
                assert_eq!(
                    AccessPattern::new(&spec, seed).touches(10_000),
                    want,
                    "{}",
                    spec.name
                );
            }
        }
    }

    fn spec() -> AppSpec {
        AppSpec::by_name("img_dnn").unwrap()
    }

    #[test]
    fn touches_stay_in_working_set() {
        let s = spec();
        let mut p = AccessPattern::new(&s, 1);
        for t in p.touches(10_000) {
            assert!(t.page_index < s.working_set_pages);
            assert!(t.line < LINES_PER_PAGE);
        }
    }

    #[test]
    fn hot_set_dominates() {
        let s = spec();
        let hot_pages = (s.working_set_pages as f64 * s.hot_frac) as usize;
        let mut p = AccessPattern::new(&s, 2);
        let touches = p.touches(20_000);
        let hot = touches.iter().filter(|t| t.page_index < hot_pages).count() as f64;
        let frac = hot / touches.len() as f64;
        assert!(
            (frac - s.hot_access_frac).abs() < 0.05,
            "hot fraction {frac} vs {}",
            s.hot_access_frac
        );
    }

    #[test]
    fn write_fraction_respected() {
        let s = spec();
        let mut p = AccessPattern::new(&s, 3);
        let touches = p.touches(20_000);
        let writes = touches.iter().filter(|t| t.is_write).count() as f64;
        let frac = writes / touches.len() as f64;
        assert!((frac - s.write_frac).abs() < 0.05);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = spec();
        let a = AccessPattern::new(&s, 9).touches(100);
        let b = AccessPattern::new(&s, 9).touches(100);
        assert_eq!(a, b);
        let c = AccessPattern::new(&s, 10).touches(100);
        assert_ne!(a, c);
    }

    #[test]
    fn tiny_working_set_is_safe() {
        let mut s = spec();
        s.working_set_pages = 1;
        let mut p = AccessPattern::new(&s, 1);
        for t in p.touches(100) {
            assert_eq!(t.page_index, 0);
        }
    }
}
