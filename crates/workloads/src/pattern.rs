//! Per-query memory access patterns.
//!
//! Each query touches lines within its VM's working set, split into a hot
//! region (frequently re-touched; cache-resident in steady state) and a
//! cold region. The pattern speaks in *guest page indices* — the simulator
//! maps them to host frames through the VM's page table, so merged (CoW)
//! pages are genuinely shared in the cache hierarchy.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Deterministic access-pattern generator for one query.
#[derive(Debug, Clone)]
pub struct AccessPattern {
    rng: SmallRng,
    working_set: usize,
    hot_pages: usize,
    hot_access_frac: f64,
    write_frac: f64,
}

impl AccessPattern {
    /// Creates the pattern for one query of `spec`, seeded by the query's
    /// `pattern_seed`.
    pub fn new(spec: &AppSpec, seed: u64) -> Self {
        let hot_pages = ((spec.working_set_pages as f64 * spec.hot_frac) as usize).max(1);
        AccessPattern {
            rng: SmallRng::seed_from_u64(seed),
            working_set: spec.working_set_pages.max(1),
            hot_pages,
            hot_access_frac: spec.hot_access_frac,
            write_frac: spec.write_frac,
        }
    }

    /// Draws the next line touch.
    #[inline]
    pub fn next_touch(&mut self) -> LineTouch {
        let hot = self.rng.gen::<f64>() < self.hot_access_frac;
        let page_index = if hot {
            self.rng.gen_range(0..self.hot_pages)
        } else {
            self.rng
                .gen_range(self.hot_pages.min(self.working_set - 1)..self.working_set)
        };
        LineTouch {
            page_index,
            line: self.rng.gen_range(0..LINES_PER_PAGE),
            is_write: self.rng.gen::<f64>() < self.write_frac,
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
