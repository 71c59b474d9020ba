//! Reference model: the cache hierarchy as it was before the single-scan
//! rewrite, kept only as a test oracle. Its `lookup` and `fill` each scan
//! the set (`fill` rescans for an already-resident line and again for the
//! LRU way), and a per-line holder vector indexed by line address stands
//! in for the L3's core-valid bits. The crate's `SystemCaches` must match
//! it access for access: same `Access`, same probe result, same counters
//! and same MESI states.

use pageforge_cache::{Access, CacheConfig, CacheStats, HierarchyConfig, HitLevel, LineState};
use pageforge_types::{Cycle, LineAddr};

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: LineState,
    last_used: u64,
}

/// One set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct RefCache {
    cfg: CacheConfig,
    ways: Vec<Way>,
    occupancy: Vec<u8>,
    num_sets: usize,
    use_counter: u64,
    stats: CacheStats,
}

impl RefCache {
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        RefCache {
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

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.0 % self.num_sets as u64) as usize
    }

    fn set_ways(&self, set: usize) -> &[Way] {
        let base = set * self.cfg.ways;
        &self.ways[base..base + self.occupancy[set] as usize]
    }

    fn set_ways_mut(&mut self, set: usize) -> &mut [Way] {
        let base = set * self.cfg.ways;
        &mut self.ways[base..base + self.occupancy[set] as usize]
    }

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

    pub fn peek(&self, addr: LineAddr) -> Option<LineState> {
        let set = self.set_index(addr);
        self.set_ways(set)
            .iter()
            .find(|w| w.tag == addr.0)
            .map(|w| w.state)
    }

    pub fn set_state(&mut self, addr: LineAddr, state: LineState) {
        let set = self.set_index(addr);
        if let Some(way) = self.set_ways_mut(set).iter_mut().find(|w| w.tag == addr.0) {
            way.state = state;
        }
    }

    pub fn fill(&mut self, addr: LineAddr, state: LineState) -> Option<(LineAddr, LineState)> {
        let set = self.set_index(addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        if let Some(way) = self.set_ways_mut(set).iter_mut().find(|w| w.tag == addr.0) {
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
}

/// The whole hierarchy, with the per-line holder vector.
#[derive(Debug, Clone)]
pub struct RefCaches {
    cfg: HierarchyConfig,
    l1: Vec<RefCache>,
    l2: Vec<RefCache>,
    l3: RefCache,
    holders: Vec<u64>,
}

impl RefCaches {
    pub fn new(cfg: HierarchyConfig) -> Self {
        RefCaches {
            l1: (0..cfg.cores).map(|_| RefCache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| RefCache::new(cfg.l2)).collect(),
            l3: RefCache::new(cfg.l3),
            cfg,
            holders: Vec::new(),
        }
    }

    fn holder_mask(&self, addr: LineAddr) -> u64 {
        self.holders.get(addr.0 as usize).copied().unwrap_or(0)
    }

    fn note_holder(&mut self, core: usize, addr: LineAddr) {
        let idx = addr.0 as usize;
        if idx >= self.holders.len() {
            self.holders.resize(idx + 1, 0);
        }
        self.holders[idx] |= 1 << core;
    }

    fn clear_holders(&mut self, addr: LineAddr, mask: u64) {
        if let Some(m) = self.holders.get_mut(addr.0 as usize) {
            *m &= !mask;
        }
    }

    pub fn access(&mut self, core: usize, addr: LineAddr, write: bool) -> Access {
        let mut latency = self.cfg.l1.latency;

        if let Some(state) = self.l1[core].lookup(addr) {
            if write && state == LineState::Shared {
                latency += self.cfg.bus_latency;
                self.invalidate_peers(core, addr);
                self.l1[core].set_state(addr, LineState::Modified);
                self.l2[core].set_state(addr, LineState::Modified);
            } else if write {
                self.l1[core].set_state(addr, LineState::Modified);
            }
            return Access {
                level: HitLevel::L1,
                latency,
            };
        }

        latency += self.cfg.l2.latency;
        if let Some(state) = self.l2[core].lookup(addr) {
            let new_state = if write {
                if state == LineState::Shared {
                    latency += self.cfg.bus_latency;
                    self.invalidate_peers(core, addr);
                }
                LineState::Modified
            } else {
                state
            };
            self.l2[core].set_state(addr, new_state);
            self.fill_private(core, addr, new_state, 1);
            return Access {
                level: HitLevel::L2,
                latency,
            };
        }

        latency += self.cfg.bus_latency + self.cfg.l3.latency;
        let peer_had_it = self.snoop(core, addr, write);
        if peer_had_it {
            latency += self.cfg.peer_transfer_latency;
        }

        let l3_state = self.l3.lookup(addr);
        let level = if peer_had_it {
            HitLevel::Peer
        } else if l3_state.is_some() {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };

        let install = if write {
            LineState::Modified
        } else if peer_had_it || self.any_peer_holds(core, addr) {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        if l3_state.is_none() {
            if let Some((victim, _)) = self.l3.fill(addr, LineState::Shared) {
                self.back_invalidate(victim);
            }
        }
        self.fill_private(core, addr, install, 2);
        Access { level, latency }
    }

    pub fn probe_from_mc(&mut self, addr: LineAddr) -> Option<Cycle> {
        let mut latency = self.cfg.bus_latency;
        let mask = self.holder_mask(addr);
        let mut found = false;
        let mut still_held = 0u64;
        for core in 0..self.cfg.cores {
            if mask & (1 << core) == 0 {
                continue;
            }
            if let Some(state) = self.l1[core].peek(addr) {
                if state == LineState::Modified {
                    self.l1[core].set_state(addr, LineState::Shared);
                    self.l2[core].set_state(addr, LineState::Shared);
                }
                found = true;
                still_held |= 1 << core;
            } else if let Some(state) = self.l2[core].peek(addr) {
                if state == LineState::Modified {
                    self.l2[core].set_state(addr, LineState::Shared);
                }
                found = true;
                still_held |= 1 << core;
            }
        }
        self.clear_holders(addr, mask & !still_held);
        if found {
            latency += self.cfg.peer_transfer_latency;
            return Some(latency);
        }
        if self.l3.peek(addr).is_some() {
            return Some(latency + self.cfg.l3.latency);
        }
        None
    }

    fn fill_private(&mut self, core: usize, addr: LineAddr, state: LineState, levels: u8) {
        self.note_holder(core, addr);
        if levels >= 2 {
            if let Some((victim, vstate)) = self.l2[core].fill(addr, state) {
                if vstate.is_dirty() {
                    self.l3.set_state(victim, LineState::Modified);
                }
                self.l1[core].invalidate(victim);
            }
        }
        if let Some((victim, vstate)) = self.l1[core].fill(addr, state) {
            if vstate.is_dirty() {
                self.l2[core].set_state(victim, LineState::Modified);
            }
        }
    }

    fn snoop(&mut self, requester: usize, addr: LineAddr, write: bool) -> bool {
        let peer_mask = self.holder_mask(addr) & !(1u64 << requester);
        if peer_mask == 0 {
            return false;
        }
        let mut found = false;
        let mut still_held = 0u64;
        for core in 0..self.cfg.cores {
            if peer_mask & (1 << core) == 0 {
                continue;
            }
            let in_l1 = self.l1[core].peek(addr).is_some();
            let in_l2 = self.l2[core].peek(addr).is_some();
            if in_l1 || in_l2 {
                found = true;
                if write {
                    self.l1[core].invalidate(addr);
                    self.l2[core].invalidate(addr);
                } else {
                    if self.l1[core].peek(addr).is_some_and(LineState::is_dirty)
                        || self.l2[core].peek(addr).is_some_and(LineState::is_dirty)
                    {
                        self.l3.set_state(addr, LineState::Modified);
                    }
                    self.l1[core].set_state(addr, LineState::Shared);
                    self.l2[core].set_state(addr, LineState::Shared);
                    still_held |= 1 << core;
                }
            }
        }
        self.clear_holders(addr, peer_mask & !still_held);
        found
    }

    fn any_peer_holds(&self, requester: usize, addr: LineAddr) -> bool {
        let peer_mask = self.holder_mask(addr) & !(1u64 << requester);
        if peer_mask == 0 {
            return false;
        }
        (0..self.cfg.cores).any(|core| {
            peer_mask & (1 << core) != 0
                && (self.l1[core].peek(addr).is_some() || self.l2[core].peek(addr).is_some())
        })
    }

    fn invalidate_peers(&mut self, requester: usize, addr: LineAddr) {
        let peer_mask = self.holder_mask(addr) & !(1u64 << requester);
        if peer_mask == 0 {
            return;
        }
        for core in 0..self.cfg.cores {
            if peer_mask & (1 << core) != 0 {
                self.l1[core].invalidate(addr);
                self.l2[core].invalidate(addr);
            }
        }
        self.clear_holders(addr, peer_mask);
    }

    fn back_invalidate(&mut self, addr: LineAddr) {
        let mask = self.holder_mask(addr);
        if mask == 0 {
            return;
        }
        for core in 0..self.cfg.cores {
            if mask & (1 << core) != 0 {
                self.l1[core].invalidate(addr);
                self.l2[core].invalidate(addr);
            }
        }
        self.clear_holders(addr, mask);
    }

    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.l1[core].stats()
    }

    pub fn l2_stats(&self, core: usize) -> &CacheStats {
        self.l2[core].stats()
    }

    pub fn l3_stats(&self) -> &CacheStats {
        self.l3.stats()
    }

    pub fn private_state(&self, core: usize, addr: LineAddr) -> Option<LineState> {
        let l1 = self.l1[core].peek(addr);
        let l2 = self.l2[core].peek(addr);
        match (l1, l2) {
            (Some(a), Some(b)) => Some(if a == LineState::Modified || b == LineState::Modified {
                LineState::Modified
            } else if a == LineState::Exclusive || b == LineState::Exclusive {
                LineState::Exclusive
            } else {
                LineState::Shared
            }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}
