//! A single set-associative cache with MESI line states and true-LRU
//! replacement.

use pageforge_types::{Cycle, LineAddr, LINE_SIZE};

/// MESI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Valid, clean, possibly shared with other caches.
    Shared,
    /// Valid, clean, exclusive to this cache.
    Exclusive,
    /// Valid, dirty, exclusive to this cache.
    Modified,
}

impl LineState {
    /// Whether the line must be written back on eviction.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified)
    }
}

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Round-trip hit latency in cycles.
    pub latency: Cycle,
    /// Miss-status-holding registers (bookkeeping only; outstanding-miss
    /// limits are enforced by the core model).
    pub mshrs: usize,
}

impl CacheConfig {
    /// The paper's L1: 32 KB, 8-way, 2-cycle round trip, 16 MSHRs.
    pub fn l1_micro50() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            ways: 8,
            latency: 2,
            mshrs: 16,
        }
    }

    /// The paper's L2: 256 KB, 8-way, 6-cycle round trip, 16 MSHRs.
    pub fn l2_micro50() -> Self {
        CacheConfig {
            size_bytes: 256 << 10,
            ways: 8,
            latency: 6,
            mshrs: 16,
        }
    }

    /// The paper's shared L3: 32 MB, 20-way, 20-cycle round trip.
    pub fn l3_micro50() -> Self {
        CacheConfig {
            size_bytes: 32 << 20,
            ways: 20,
            latency: 20,
            mshrs: 24 * 10, // 24 per slice, 10 slices
        }
    }

    /// Number of sets implied by the geometry (rounded down when the line
    /// count does not divide evenly by the associativity, as with a 32 MB
    /// 20-way cache).
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer lines than one way.
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / LINE_SIZE;
        assert!(lines >= self.ways, "cache smaller than one set");
        lines / self.ways
    }
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
    /// Lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when there were no lookups.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: LineState,
    last_used: u64,
}

/// One set-associative cache. Tags only — data lives in `HostMemory`.
///
/// Ways are stored in one flat arena (`num_sets × ways` slots) rather than
/// per-set `Vec`s: a set is the contiguous slice
/// `ways[set × cfg.ways ..][.. occupancy[set]]`, which keeps lookups on a
/// single allocation and makes the hierarchy's snoop scans cache-friendly
/// on the host.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Flat way storage: slot `set * cfg.ways + i` holds way `i` of `set`.
    ways: Vec<Way>,
    /// Live ways per set (the occupied prefix of the set's slice).
    occupancy: Vec<u8>,
    num_sets: usize,
    use_counter: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ways` exceeds the `u8` occupancy counters.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.ways <= u8::MAX as usize,
            "set occupancy is tracked in u8 counters"
        );
        let num_sets = cfg.num_sets();
        SetAssocCache {
            cfg,
            ways: vec![
                Way {
                    tag: 0,
                    state: LineState::Shared,
                    last_used: 0,
                };
                num_sets * cfg.ways
            ],
            occupancy: vec![0; num_sets],
            num_sets,
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears the statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.0 % self.num_sets as u64) as usize
    }

    /// The occupied ways of `addr`'s set.
    fn set_ways(&self, set: usize) -> &[Way] {
        let base = set * self.cfg.ways;
        &self.ways[base..base + self.occupancy[set] as usize]
    }

    fn set_ways_mut(&mut self, set: usize) -> &mut [Way] {
        let base = set * self.cfg.ways;
        &mut self.ways[base..base + self.occupancy[set] as usize]
    }

    /// Looks up `addr`, updating LRU and hit/miss counters.
    /// Returns the line's state on a hit.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<LineState> {
        let set = self.set_index(addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        let hit = self
            .set_ways_mut(set)
            .iter_mut()
            .find(|w| w.tag == addr.0)
            .map(|way| {
                way.last_used = counter;
                way.state
            });
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Checks presence without touching LRU or counters (snoop path).
    pub fn peek(&self, addr: LineAddr) -> Option<LineState> {
        let set = self.set_index(addr);
        self.set_ways(set)
            .iter()
            .find(|w| w.tag == addr.0)
            .map(|w| w.state)
    }

    /// Sets the state of a resident line. No-op if absent.
    pub fn set_state(&mut self, addr: LineAddr, state: LineState) {
        let set = self.set_index(addr);
        if let Some(way) = self.set_ways_mut(set).iter_mut().find(|w| w.tag == addr.0) {
            way.state = state;
        }
    }

    /// Installs `addr` with `state`, evicting the LRU way if the set is
    /// full. Returns the evicted line, if any.
    pub fn fill(&mut self, addr: LineAddr, state: LineState) -> Option<(LineAddr, LineState)> {
        let set = self.set_index(addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        if let Some(way) = self.set_ways_mut(set).iter_mut().find(|w| w.tag == addr.0) {
            // Already resident: refresh (upgrade) in place.
            way.state = state;
            way.last_used = counter;
            return None;
        }
        let base = set * self.cfg.ways;
        let len = self.occupancy[set] as usize;
        let mut victim = None;
        let slot = if len == self.cfg.ways {
            let lru = self
                .set_ways(set)
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_used)
                .map(|(i, _)| i)
                .expect("set is full");
            let evicted = self.ways[base + lru];
            self.stats.evictions += 1;
            if evicted.state.is_dirty() {
                self.stats.writebacks += 1;
            }
            victim = Some((LineAddr(evicted.tag), evicted.state));
            // Mirror the old per-set `swap_remove(lru); push(new)`: the
            // tail way moves into the victim's slot and the new line lands
            // at the tail, preserving slot order exactly.
            if lru != len - 1 {
                self.ways[base + lru] = self.ways[base + len - 1];
            }
            base + len - 1
        } else {
            self.occupancy[set] += 1;
            base + len
        };
        self.ways[slot] = Way {
            tag: addr.0,
            state,
            last_used: counter,
        };
        victim
    }

    /// Invalidates `addr`, returning its state if it was resident.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<LineState> {
        let set = self.set_index(addr);
        if let Some(pos) = self.set_ways(set).iter().position(|w| w.tag == addr.0) {
            let base = set * self.cfg.ways;
            let len = self.occupancy[set] as usize;
            let way = self.ways[base + pos];
            if pos != len - 1 {
                self.ways[base + pos] = self.ways[base + len - 1];
            }
            self.occupancy[set] -= 1;
            self.stats.invalidations += 1;
            Some(way.state)
        } else {
            None
        }
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.occupancy.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways.
        SetAssocCache::new(CacheConfig {
            size_bytes: 8 * LINE_SIZE,
            ways: 2,
            latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(LineAddr(0)), None);
        c.fill(LineAddr(0), LineState::Exclusive);
        assert_eq!(c.lookup(LineAddr(0)), Some(LineState::Exclusive));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds addrs 0, 4, 8... (4 sets).
        c.fill(LineAddr(0), LineState::Shared);
        c.fill(LineAddr(4), LineState::Shared);
        c.lookup(LineAddr(0)); // 0 is now MRU
        let victim = c.fill(LineAddr(8), LineState::Shared);
        assert_eq!(victim, Some((LineAddr(4), LineState::Shared)));
        assert_eq!(c.peek(LineAddr(0)), Some(LineState::Shared));
        assert_eq!(c.peek(LineAddr(4)), None);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(LineAddr(0), LineState::Modified);
        c.fill(LineAddr(4), LineState::Shared);
        c.fill(LineAddr(8), LineState::Shared); // evicts 0 (LRU, dirty)
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refill_upgrades_in_place() {
        let mut c = tiny();
        c.fill(LineAddr(0), LineState::Shared);
        assert_eq!(c.fill(LineAddr(0), LineState::Modified), None);
        assert_eq!(c.peek(LineAddr(0)), Some(LineState::Modified));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(LineAddr(3), LineState::Modified);
        assert_eq!(c.invalidate(LineAddr(3)), Some(LineState::Modified));
        assert_eq!(c.invalidate(LineAddr(3)), None);
        assert_eq!(c.peek(LineAddr(3)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = tiny();
        c.fill(LineAddr(0), LineState::Shared);
        let before = *c.stats();
        c.peek(LineAddr(0));
        c.peek(LineAddr(1));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Fill set 0 beyond capacity; set 1 lines must survive.
        c.fill(LineAddr(1), LineState::Shared);
        for i in 0..4 {
            c.fill(LineAddr(i * 4), LineState::Shared);
        }
        assert_eq!(c.peek(LineAddr(1)), Some(LineState::Shared));
    }

    #[test]
    fn micro50_geometries() {
        assert_eq!(CacheConfig::l1_micro50().num_sets(), 64);
        assert_eq!(CacheConfig::l2_micro50().num_sets(), 512);
        assert_eq!(CacheConfig::l3_micro50().num_sets(), 26214);
    }
}
