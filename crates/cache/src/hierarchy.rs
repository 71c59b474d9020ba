//! The full chip cache hierarchy with snoopy MESI coherence.
//!
//! Topology (Figure 5 / Table 2): per-core private L1 and L2, one shared
//! (logically sliced) L3, a wide snoopy bus, and the memory controllers
//! behind it. The L3 is inclusive of the private levels, so an L3 eviction
//! back-invalidates L1/L2 copies.
//!
//! As inclusive last-level caches do in hardware, each L3 way keeps
//! core-valid bits: bit `c` is set exactly when core `c`'s L2 holds the
//! line. Inclusion makes them the whole snoop directory. An L3 miss needs
//! no snoop, an L3 hit snoops only the cores its bits name, an evicted
//! way names the cores to back-invalidate, and a memory-controller probe
//! that misses the L3 is done.
//!
//! A resident line never moves within its cache (see [`Slot`]), so ways
//! link to each other by slot, in both directions.
//!
//! * **Down.** An L1 way carries the line's L2 slot and an L2 way its L3
//!   slot. A dirty victim marks its copy below through the link, a write
//!   upgrade reaches its L2 and L3 ways through the links, and an L2
//!   victim clears its core's bit in its L3 way, which is what keeps the
//!   bits exact.
//! * **Up.** L2 and L3 ways have a 16-bit link to their line's copy one
//!   level toward the cores. An L2 way's link names the same core's L1 way
//!   that holds the line, and is none when the L1 lacks it: an L1 fill
//!   sets it and an L1 victim clears it through its own down link. An L3
//!   way's link names the L2 way of the line's only holder. The fill or
//!   write upgrade that leaves one core holding the line sets it, and a
//!   second holder joining (a read snoop) or any holder leaving clears it.
//!   So a set L3 link always names the one holder's L2 way, and a clear
//!   one means no holder, or an unrecorded one: a core left holding the
//!   line alone when the others left.
//!
//! Back-invalidations, snoops, probes and L2 victims reach the private
//! copies through the up links: an L2 set is searched only for a line whose
//! L3 link is clear, and an L1 set never outside a lookup.
//!
//! Every level scans a set once per access: a lookup that misses records
//! the way its insert will evict. Between the two the set can only lose
//! lines (to back-invalidation or an L2 victim's L1 invalidation), so a
//! set still full at the insert lost nothing and the recorded way is
//! still its least-recently-used one.

use pageforge_types::{Cycle, LineAddr};

use crate::cache::{
    way_bytes, CacheConfig, CacheStats, LineState, Lookup, Miss, SetAssocCache, Slot,
};

// Every level's ways take 16 bytes: private ways carry a `Slot` and L3 ways
// the `u32` core-valid bits.
const _: () = assert!(way_bytes::<Slot>() == 16 && way_bytes::<u32>() == 16);

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Own L1.
    L1,
    /// Own L2.
    L2,
    /// Another core's private cache (snoop intervention).
    Peer,
    /// The shared L3.
    L3,
    /// Nowhere on chip: the line comes from DRAM (the caller charges memory
    /// latency on top of [`Access::latency`]).
    Memory,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Where the line was found.
    pub level: HitLevel,
    /// On-chip latency in cycles (excluding DRAM time for
    /// [`HitLevel::Memory`]).
    pub latency: Cycle,
}

/// Geometry and timing of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (private L1/L2 pairs).
    pub cores: usize,
    /// Per-core L1 geometry.
    pub l1: CacheConfig,
    /// Per-core L2 geometry.
    pub l2: CacheConfig,
    /// Shared L3 geometry.
    pub l3: CacheConfig,
    /// Extra cycles for a snoop intervention from a peer cache.
    pub peer_transfer_latency: Cycle,
    /// Bus transit latency added to every off-core hop.
    pub bus_latency: Cycle,
}

impl HierarchyConfig {
    /// The paper's configuration (Table 2) with `cores` cores.
    pub fn micro50(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            l1: CacheConfig::l1_micro50(),
            l2: CacheConfig::l2_micro50(),
            l3: CacheConfig::l3_micro50(),
            peer_transfer_latency: 12,
            bus_latency: 4,
        }
    }
}

/// The chip's caches: `cores` private L1/L2 pairs and a shared L3.
#[derive(Debug, Clone)]
pub struct SystemCaches {
    cfg: HierarchyConfig,
    /// Each way carries the slot of its line in the same core's L2.
    l1: Vec<SetAssocCache<Slot>>,
    /// Each way carries the slot of its line in the L3, and links up to
    /// the same core's L1 way that holds it.
    l2: Vec<SetAssocCache<Slot>>,
    /// The inclusive L3. Each way carries its line's core-valid bits, as
    /// inclusive last-level caches keep them in hardware: bit `c` is set
    /// exactly when core `c`'s L2 holds the line (set on fill, cleared
    /// when the line leaves that L2). Snoops, probes and
    /// back-invalidations visit only those cores, and a line the L3 lacks
    /// is in no private cache. A way links up to its only holder's L2 way.
    l3: SetAssocCache<u32>,
}

/// The cores whose bits are set in `mask`, in ascending order.
fn cores_in(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let core = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (core < 32).then_some(core)
    })
}

impl SystemCaches {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero or exceeds the 32 core-valid bits, or
    /// if an L1 or L2 has more than 65,535 slots, which the 16-bit link up
    /// of an L2 or L3 way cannot name. Both are refused before anything is
    /// allocated.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.cores > 0, "at least one core required");
        assert!(
            cfg.cores <= 32,
            "core-valid bits pack cores into a u32: at most 32 cores, not {}",
            cfg.cores
        );
        for (level, cache) in [("L1", cfg.l1), ("L2", cfg.l2)] {
            let slots = cache.num_sets() * cache.ways;
            assert!(
                slots <= usize::from(u16::MAX),
                "a way links up in 16 bits: at most 65,535 {level} slots, not {slots}"
            );
        }
        SystemCaches {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            l3: SetAssocCache::new(cfg.l3),
            cfg,
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// One load (`write = false`) or store (`write = true`) by `core`.
    ///
    /// Walks L1 → L2 → L3, snooping peers on an L3 hit; allocates the line
    /// on the way back up. For stores, peer copies are invalidated and the
    /// line installs Modified. Each level's set is scanned once: a miss
    /// records the way its insert will evict, and the line's ways below a
    /// hit are reached through their links.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: LineAddr, write: bool) -> Access {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let mut latency = self.cfg.l1.latency;

        // L1.
        let l1_miss = match self.l1[core].lookup(addr) {
            Lookup::Hit(slot, state) => {
                if write && state == LineState::Shared {
                    // Upgrade: invalidate peers, go Modified.
                    latency += self.cfg.bus_latency;
                    let l2_slot = self.l1[core].data(slot);
                    self.upgrade(core, addr, l2_slot);
                    self.l2[core].set_state_at(l2_slot, LineState::Modified);
                }
                if write {
                    self.l1[core].set_state_at(slot, LineState::Modified);
                }
                return Access {
                    level: HitLevel::L1,
                    latency,
                };
            }
            Lookup::Miss(miss) => miss,
        };

        // L2. The line stays in the L3 with this core's bit set.
        latency += self.cfg.l2.latency;
        let l2_miss = match self.l2[core].lookup(addr) {
            Lookup::Hit(slot, state) => {
                let new_state = if write {
                    if state == LineState::Shared {
                        latency += self.cfg.bus_latency;
                        self.upgrade(core, addr, slot);
                    }
                    LineState::Modified
                } else {
                    state
                };
                self.l2[core].set_state_at(slot, new_state);
                self.fill_l1(core, l1_miss, addr, new_state, slot);
                return Access {
                    level: HitLevel::L2,
                    latency,
                };
            }
            Lookup::Miss(miss) => miss,
        };

        // Off-core: bus + L3, snooping the peers its bits name. Inclusion
        // means an L3 miss has no peer to snoop.
        latency += self.cfg.bus_latency + self.cfg.l3.latency;
        let (level, l3_slot) = match self.l3.lookup(addr) {
            Lookup::Hit(slot, _) => {
                let peer_had_it = self.snoop(core, addr, slot, write);
                *self.l3.data_mut(slot) |= 1 << core;
                if peer_had_it {
                    latency += self.cfg.peer_transfer_latency;
                    (HitLevel::Peer, slot)
                } else {
                    (HitLevel::L3, slot)
                }
            }
            Lookup::Miss(miss) => {
                // Inclusive L3: back-invalidate the victim's private
                // copies. Its writeback is already counted by the L3 stats.
                let (slot, victim) = self.l3.insert(miss, addr, LineState::Shared, 1 << core);
                if let Some(victim) = victim {
                    self.invalidate_private(victim.line, victim.data, victim.up);
                }
                (HitLevel::Memory, slot)
            }
        };

        // Install in the private levels.
        let install = if write {
            LineState::Modified
        } else if level == HitLevel::Peer {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        let (l2_slot, victim) = self.l2[core].insert(l2_miss, addr, install, l3_slot);
        if let Some(victim) = victim {
            // The victim leaves this core: its L3 way takes the dirty data
            // and loses the core's bit and, as a holder left, its link.
            let l3_way = victim.data;
            if victim.state.is_dirty() {
                self.l3.set_state_at(l3_way, LineState::Modified);
            }
            *self.l3.data_mut(l3_way) &= !(1 << core);
            self.l3.set_up(l3_way, None);
            if let Some(l1_slot) = victim.up {
                self.l1[core].invalidate_at(l1_slot); // L2 inclusive of L1
            }
        }
        // This core is the line's only holder exactly when no peer's bit
        // is set; a peer that kept a copy clears the link.
        let sole = self.l3.data(l3_slot) == 1 << core;
        self.l3.set_up(l3_slot, sole.then_some(l2_slot));
        self.fill_l1(core, l1_miss, addr, install, l2_slot);
        Access { level, latency }
    }

    /// The PageForge probe (§3.2.2): "the control logic issues each request
    /// to the on-chip network first. If the request is serviced from the
    /// network, no other action is taken."
    ///
    /// Returns the on-chip latency when some cache holds the line; `None`
    /// when the request must fall through to DRAM. Peer Modified lines are
    /// downgraded to Shared (the snoop supplies the data) but nothing is
    /// allocated anywhere — the PageForge module has no cache.
    pub fn probe_from_mc(&mut self, addr: LineAddr) -> Option<Cycle> {
        // Inclusion: a line the L3 lacks is in no private cache.
        let slot = self.l3.find(addr)?;
        // Snoopy bus: every private cache whose bit is set is checked.
        let (holders, link) = (self.l3.data(slot), self.l3.up(slot));
        for core in cores_in(holders) {
            match self.private_slots(core, addr, link) {
                (Some(l1_slot), Some(l2_slot))
                    if self.l1[core].state(l1_slot) == LineState::Modified =>
                {
                    self.l1[core].set_state_at(l1_slot, LineState::Shared);
                    self.l2[core].set_state_at(l2_slot, LineState::Shared);
                }
                (None, Some(l2_slot)) if self.l2[core].state(l2_slot) == LineState::Modified => {
                    self.l2[core].set_state_at(l2_slot, LineState::Shared);
                }
                _ => {}
            }
        }
        // An L3 hit is serviced without LRU update (the MC-side read does
        // not re-rank working sets).
        Some(if holders != 0 {
            self.cfg.bus_latency + self.cfg.peer_transfer_latency
        } else {
            self.cfg.bus_latency + self.cfg.l3.latency
        })
    }

    /// Installs `addr`, held at `l2_slot` of `core`'s L2, in its L1
    /// through the miss of its lookup, and links the L2 way up to it. The
    /// L1 victim clears its own L2 way's link through its down link.
    fn fill_l1(
        &mut self,
        core: usize,
        miss: Miss,
        addr: LineAddr,
        state: LineState,
        l2_slot: Slot,
    ) {
        let l2 = &mut self.l2[core];
        let (l1_slot, victim) = self.l1[core].insert(miss, addr, state, l2_slot);
        if let Some(victim) = victim {
            if victim.state.is_dirty() {
                l2.set_state_at(victim.data, LineState::Modified);
            }
            l2.set_up(victim.data, None);
        }
        l2.set_up(l2_slot, Some(l1_slot));
    }

    /// A store by `core` to `addr`, which its L2 holds Shared at `l2_slot`:
    /// invalidates every peer's copy, which leaves `core` the line's only
    /// holder, and links the L3 way up to `l2_slot`.
    fn upgrade(&mut self, core: usize, addr: LineAddr, l2_slot: Slot) {
        let l3_slot = self.l2[core].data(l2_slot);
        self.invalidate_peers(core, addr, l3_slot);
        self.l3.set_up(l3_slot, Some(l2_slot));
    }

    /// The slots of `addr` in the L1 and L2 of `core`, whose core-valid bit
    /// is set. `link` is the L3 way's link up: when it is set, `core` is
    /// the line's only holder and the link is its L2 slot, so no set is
    /// searched; otherwise the L2 set is. The L1 slot is the L2 way's link
    /// up.
    fn private_slots(
        &self,
        core: usize,
        addr: LineAddr,
        link: Option<Slot>,
    ) -> (Option<Slot>, Option<Slot>) {
        let Some(l2_slot) = link.or_else(|| self.l2[core].find(addr)) else {
            return (None, None);
        };
        debug_assert_eq!(self.l2[core].line_at(l2_slot), Some(addr), "core {core}");
        (self.l2[core].up(l2_slot), Some(l2_slot))
    }

    /// Snoops the peers whose core-valid bits are set in the L3 way at
    /// `l3_slot`; on a write, invalidates their copies. Returns whether
    /// any peer held the line: the bits are exact, so whether any peer's
    /// bit is set.
    fn snoop(&mut self, requester: usize, addr: LineAddr, l3_slot: Slot, write: bool) -> bool {
        let peers = self.l3.data(l3_slot) & !(1u32 << requester);
        if write {
            self.invalidate_peers(requester, addr, l3_slot);
            return peers != 0;
        }
        let link = self.l3.up(l3_slot);
        for core in cores_in(peers) {
            // Downgrade M/E to S; dirty data is reflected to L3.
            let (l1_slot, l2_slot) = self.private_slots(core, addr, link);
            if l1_slot.is_some_and(|s| self.l1[core].state(s).is_dirty())
                || l2_slot.is_some_and(|s| self.l2[core].state(s).is_dirty())
            {
                self.l3.set_state_at(l3_slot, LineState::Modified);
            }
            if let Some(s) = l1_slot {
                self.l1[core].set_state_at(s, LineState::Shared);
            }
            if let Some(s) = l2_slot {
                self.l2[core].set_state_at(s, LineState::Shared);
            }
        }
        peers != 0
    }

    /// Invalidates the copies of the line whose L3 way is at `l3_slot` in
    /// every core but `requester`, and clears those cores' bits. The caller
    /// then links the L3 way up to the requester's L2 way.
    fn invalidate_peers(&mut self, requester: usize, addr: LineAddr, l3_slot: Slot) {
        let peers = self.l3.data(l3_slot) & !(1u32 << requester);
        self.invalidate_private(addr, peers, self.l3.up(l3_slot));
        *self.l3.data_mut(l3_slot) &= !peers;
    }

    /// Removes `addr` from the private caches of the cores in `mask`, each
    /// a holder of the line; `link` is the line's L3 link up.
    fn invalidate_private(&mut self, addr: LineAddr, mask: u32, link: Option<Slot>) {
        for core in cores_in(mask) {
            let (l1_slot, l2_slot) = self.private_slots(core, addr, link);
            if let Some(s) = l1_slot {
                self.l1[core].invalidate_at(s);
            }
            if let Some(s) = l2_slot {
                self.l2[core].invalidate_at(s);
            }
        }
    }

    /// Stats of one core's L1.
    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.l1[core].stats()
    }

    /// Stats of one core's L2.
    pub fn l2_stats(&self, core: usize) -> &CacheStats {
        self.l2[core].stats()
    }

    /// Stats of the shared L3 (Table 4 reports its miss rate).
    pub fn l3_stats(&self) -> &CacheStats {
        self.l3.stats()
    }

    /// The MESI state a core's private caches hold for `addr` (the more
    /// privileged of its L1/L2 states), for tests and validation.
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

    /// Audits the whole hierarchy:
    ///
    /// * every L1 way's L2 slot holds the same line and links up to it, so
    ///   every L1 line is in the same core's L2;
    /// * an L2 way links up exactly when the core's L1 holds the line, to
    ///   the L1 way that holds it;
    /// * every L2 way's L3 slot holds the same line, with that core's bit
    ///   set, so every L2 line is in the L3;
    /// * an L3 way's bit `c` is set exactly when core `c`'s L2 holds the
    ///   line;
    /// * an L3 way links up only when one core holds the line, to that
    ///   core's L2 way that holds it;
    /// * a line a core holds Modified or Exclusive is in no other core's
    ///   caches (by the checks above, only the cores whose bits are set
    ///   need looking at).
    ///
    /// Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (core, (l1, l2)) in self.l1.iter().zip(&self.l2).enumerate() {
            for (_, addr, l2_slot) in l1.lines() {
                if l2.line_at(l2_slot) != Some(addr) {
                    return Err(format!(
                        "{addr}: core {core}'s L1 way links to an L2 way that does not hold it"
                    ));
                }
                if l2.up(l2_slot).is_none() {
                    return Err(format!(
                        "{addr}: in core {core}'s L1 but its L2 way does not link up"
                    ));
                }
            }
            for (l2_slot, addr, l3_slot) in l2.lines() {
                if l2
                    .up(l2_slot)
                    .is_some_and(|up| l1.line_at(up) != Some(addr))
                {
                    return Err(format!(
                        "{addr}: core {core}'s L2 way links up to an L1 way that does not hold it"
                    ));
                }
                if self.l3.line_at(l3_slot) != Some(addr) {
                    return Err(format!(
                        "{addr}: core {core}'s L2 way links to an L3 way that does not hold it"
                    ));
                }
                let bits = self.l3.data(l3_slot);
                if bits & (1 << core) == 0 {
                    return Err(format!(
                        "{addr}: in core {core}'s L2 without its core-valid bit"
                    ));
                }
                if !matches!(
                    self.private_state(core, addr),
                    Some(LineState::Modified | LineState::Exclusive)
                ) {
                    continue;
                }
                if let Some(peer) = cores_in(bits & !(1 << core))
                    .find(|&peer| self.private_state(peer, addr).is_some())
                {
                    return Err(format!(
                        "{addr}: owned by core {core} but held by core {peer}"
                    ));
                }
            }
        }
        // Each L2 line sets its own bit (checked above), so the bits are
        // exact when there are as many as L2 lines. Only a surplus needs
        // the search that names its line.
        let bits: usize = self.l3.lines().map(|(.., b)| b.count_ones() as usize).sum();
        let held: usize = self.l2.iter().map(SetAssocCache::resident_lines).sum();
        if bits != held {
            for (_, addr, bits) in self.l3.lines() {
                if let Some(core) = cores_in(bits)
                    .find(|&core| core >= self.cfg.cores || self.l2[core].find(addr).is_none())
                {
                    return Err(format!(
                        "{addr}: core {core}'s core-valid bit is set but its L2 lacks the line"
                    ));
                }
            }
        }
        // The bits are exact, so a lone bit names a core that exists.
        for (slot, addr, bits) in self.l3.lines() {
            let Some(l2_slot) = self.l3.up(slot) else {
                continue;
            };
            if bits.count_ones() != 1 {
                return Err(format!(
                    "{addr}: the L3 way links up to one holder but {} cores hold it",
                    bits.count_ones()
                ));
            }
            let core = bits.trailing_zeros() as usize;
            if self.l2[core].line_at(l2_slot) != Some(addr) {
                return Err(format!(
                    "{addr}: the L3 way links up to a way of core {core}'s L2 that does not hold it"
                ));
            }
        }
        Ok(())
    }

    /// Audits the lookup chain's conservation law: a level is looked up
    /// exactly when the level above it missed, so each core's L2 lookups
    /// equal its L1 misses and the L3's lookups equal the summed L2
    /// misses. Probes and snoops look nothing up. The law survives
    /// [`reset_stats`](Self::reset_stats), which clears every level at
    /// once between accesses.
    ///
    /// Returns the first violation found.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut l2_misses = 0;
        for (core, (l1, l2)) in self.l1.iter().zip(&self.l2).enumerate() {
            let (misses, lookups) = (l1.stats().misses, l2.stats().accesses());
            if lookups != misses {
                return Err(format!(
                    "core {core}: {lookups} L2 lookups != {misses} L1 misses"
                ));
            }
            l2_misses += l2.stats().misses;
        }
        let lookups = self.l3.stats().accesses();
        if lookups != l2_misses {
            return Err(format!("{lookups} L3 lookups != {l2_misses} L2 misses"));
        }
        Ok(())
    }

    /// Clears all statistics (post-warm-up).
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.l3.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_types::LINE_SIZE;

    /// A small hierarchy so eviction paths are exercised quickly.
    fn small(cores: usize) -> SystemCaches {
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

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut s = small(2);
        let a = s.access(0, LineAddr(5), false);
        assert_eq!(a.level, HitLevel::Memory);
        let b = s.access(0, LineAddr(5), false);
        assert_eq!(b.level, HitLevel::L1);
        assert!(b.latency < a.latency);
    }

    #[test]
    fn peer_hit_is_detected() {
        let mut s = small(2);
        s.access(0, LineAddr(5), false);
        let a = s.access(1, LineAddr(5), false);
        assert_eq!(a.level, HitLevel::Peer);
    }

    #[test]
    fn write_invalidates_peer_copies() {
        let mut s = small(2);
        s.access(0, LineAddr(5), false);
        s.access(1, LineAddr(5), true); // core 1 writes
                                        // Core 0's next access misses its L1 (copy invalidated).
        let a = s.access(0, LineAddr(5), false);
        assert_ne!(a.level, HitLevel::L1);
    }

    #[test]
    fn read_after_peer_write_sees_peer() {
        let mut s = small(2);
        s.access(0, LineAddr(9), true); // core 0 has it Modified
        let a = s.access(1, LineAddr(9), false);
        assert_eq!(a.level, HitLevel::Peer);
        // Now both are Shared; a store by core 1 upgrades.
        let b = s.access(1, LineAddr(9), true);
        assert!(matches!(b.level, HitLevel::L1 | HitLevel::L2));
    }

    #[test]
    fn l3_hit_after_private_eviction() {
        let mut s = small(1);
        // Touch enough distinct lines mapping to the same L1/L2 sets that
        // the line is evicted from private caches but still in L3.
        s.access(0, LineAddr(0), false);
        for i in 1..=16 {
            s.access(0, LineAddr(i * 4), false); // L2 has 4 sets
        }
        let a = s.access(0, LineAddr(0), false);
        assert!(
            matches!(a.level, HitLevel::L3 | HitLevel::Memory),
            "got {:?}",
            a.level
        );
    }

    #[test]
    fn probe_finds_cached_line_without_allocating() {
        let mut s = small(2);
        s.access(0, LineAddr(7), false);
        let probe = s.probe_from_mc(LineAddr(7));
        assert!(probe.is_some());
        // A line nobody has:
        assert_eq!(s.probe_from_mc(LineAddr(1000)), None);
    }

    #[test]
    fn probe_downgrades_modified_lines() {
        let mut s = small(2);
        s.access(0, LineAddr(7), true); // Modified in core 0
        s.probe_from_mc(LineAddr(7));
        // Core 0 still hits L1 (line not stolen, just downgraded).
        let a = s.access(0, LineAddr(7), false);
        assert_eq!(a.level, HitLevel::L1);
    }

    #[test]
    fn probe_does_not_pollute() {
        let mut s = small(1);
        for i in 0..1000 {
            s.probe_from_mc(LineAddr(i));
        }
        // Nothing was allocated anywhere.
        assert_eq!(s.l1_stats(0).accesses(), 0);
        let a = s.access(0, LineAddr(1), false);
        assert_eq!(a.level, HitLevel::Memory);
    }

    #[test]
    fn l3_miss_rate_reflects_pollution() {
        let mut s = small(1);
        // A working set that fits L3: high hit rate on re-access.
        for i in 0..32 {
            s.access(0, LineAddr(i), false);
        }
        s.reset_stats();
        for _ in 0..4 {
            for i in 0..32 {
                s.access(0, LineAddr(i), false);
            }
        }
        let quiet = s.l3_stats().miss_rate();
        // Now stream a huge polluting scan through the same cache.
        for i in 100..1000 {
            s.access(0, LineAddr(i), false);
        }
        s.reset_stats();
        for _ in 0..4 {
            for i in 0..32 {
                s.access(0, LineAddr(i), false);
                s.access(0, LineAddr(500 + i * 7), false); // ongoing pollution
            }
        }
        let polluted = s.l3_stats().miss_rate();
        assert!(
            polluted > quiet,
            "pollution should raise L3 miss rate: {quiet} -> {polluted}"
        );
    }

    #[test]
    fn inclusive_l3_back_invalidates() {
        let mut s = small(1);
        // Fill far beyond L3 capacity (64 lines, 16 sets × 4 ways).
        for i in 0..256 {
            s.access(0, LineAddr(i), false);
        }
        // Early lines must be gone from L1 as well (back-invalidated or
        // evicted): accessing line 0 is a full miss.
        let a = s.access(0, LineAddr(0), false);
        assert_eq!(a.level, HitLevel::Memory);
    }

    #[test]
    fn lookup_chain_is_conserved_and_a_skewed_counter_breaks_it() {
        let mut s = small(2);
        for i in 0..200u64 {
            s.access((i % 2) as usize, LineAddr(i * 7 % 96), i % 5 == 0);
            s.probe_from_mc(LineAddr(i % 40));
            if i == 100 {
                s.reset_stats();
            }
        }
        assert_eq!(s.check_conservation(), Ok(()));

        // An L2 lookup no L1 miss led to.
        let mut skewed = s.clone();
        skewed.l2[1].lookup(LineAddr(3));
        let err = skewed.check_conservation().unwrap_err();
        assert!(err.starts_with("core 1:"), "{err}");

        // An L3 lookup no L2 miss led to.
        let mut skewed = s;
        skewed.l3.lookup(LineAddr(3));
        let err = skewed.check_conservation().unwrap_err();
        assert!(err.contains("L3 lookups"), "{err}");
    }

    /// A hierarchy after a mixed stream, audited clean.
    fn exercised() -> SystemCaches {
        let mut s = small(3);
        for i in 0..300u64 {
            s.access((i % 3) as usize, LineAddr(i * 7 % 80), i % 4 == 0);
            if i % 5 == 0 {
                s.probe_from_mc(LineAddr(i % 40));
            }
        }
        assert_eq!(s.check_invariants(), Ok(()));
        s
    }

    /// The slot of a resident line of `cache` other than `addr`.
    fn another_line<T: Copy + Default>(cache: &SetAssocCache<T>, addr: LineAddr) -> Slot {
        cache
            .lines()
            .find(|&(_, a, _)| a != addr)
            .map(|(slot, ..)| slot)
            .expect("another line is resident")
    }

    #[test]
    fn a_broken_link_is_named() {
        let s = exercised();
        let (l1_slot, addr, _) = s.l1[1].lines().next().expect("core 1's L1 holds lines");
        let mut broken = s.clone();
        *broken.l1[1].data_mut(l1_slot) = another_line(&s.l2[1], addr);
        let err = broken.check_invariants().unwrap_err();
        assert_eq!(
            err,
            format!("{addr}: core 1's L1 way links to an L2 way that does not hold it")
        );

        let (l2_slot, addr, _) = s.l2[2].lines().next().expect("core 2's L2 holds lines");
        let mut broken = s.clone();
        *broken.l2[2].data_mut(l2_slot) = another_line(&s.l3, addr);
        let err = broken.check_invariants().unwrap_err();
        assert_eq!(
            err,
            format!("{addr}: core 2's L2 way links to an L3 way that does not hold it")
        );
    }

    #[test]
    fn a_wrong_l1_link_is_named() {
        let s = exercised();
        // A link cleared for a line the L1 holds.
        let (l1_slot, addr, l2_slot) = s.l1[1].lines().next().expect("core 1's L1 holds lines");
        let mut broken = s.clone();
        broken.l2[1].set_up(l2_slot, None);
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            format!("{addr}: in core 1's L1 but its L2 way does not link up")
        );

        // A link to the L1 way of another line the L1 holds.
        let mut broken = s.clone();
        broken.l2[1].set_up(l2_slot, Some(another_line(&s.l1[1], addr)));
        assert_ne!(Some(l1_slot), broken.l2[1].up(l2_slot));
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            format!("{addr}: core 1's L2 way links up to an L1 way that does not hold it")
        );

        // A link set for a line the L1 lacks.
        let (l2_slot, addr, _) = s.l2[0]
            .lines()
            .find(|&(slot, addr, _)| s.l2[0].up(slot).is_none() && s.l1[0].find(addr).is_none())
            .expect("core 0's L2 holds a line its L1 lacks");
        let mut broken = s;
        broken.l2[0].set_up(l2_slot, Some(another_line(&broken.l1[0], addr)));
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            format!("{addr}: core 0's L2 way links up to an L1 way that does not hold it")
        );
    }

    #[test]
    fn a_wrong_l3_link_is_named() {
        let mut s = small(2);
        // Both cores hold line 5 and core 1 alone holds 6. Lines 0, 4, 8,
        // 12 and 16 fill core 0's L2 set 0, so its victim, line 0, stays
        // in the 16-set L3 with no holder.
        let fills = [0, 4, 8, 12, 16].map(|line| (0, line));
        for (core, line) in [(0, 5), (1, 5), (1, 6)].into_iter().chain(fills) {
            s.access(core, LineAddr(line), false);
        }
        assert_eq!(s.check_invariants(), Ok(()));

        // A link on a line two cores hold.
        let (slot, link) = l3_link(&s, 5);
        assert_eq!((s.l3.data(slot), link), (0b11, None));
        let mut broken = s.clone();
        broken.l3.set_up(slot, s.l2[0].find(LineAddr(5)));
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            "0x5: the L3 way links up to one holder but 2 cores hold it"
        );

        // A link on a line no core holds.
        let (slot, link) = l3_link(&s, 0);
        assert_eq!((s.l3.data(slot), link), (0, None));
        let mut broken = s.clone();
        broken.l3.set_up(slot, Some(Slot(0)));
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            "0x0: the L3 way links up to one holder but 0 cores hold it"
        );

        // A link to a way of the one holder's L2 that holds another line.
        let (slot, link) = l3_link(&s, 6);
        assert_eq!(link, s.l2[1].find(LineAddr(6)));
        let mut broken = s;
        broken.l3.set_up(slot, broken.l2[1].find(LineAddr(5)));
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            "0x6: the L3 way links up to a way of core 1's L2 that does not hold it"
        );
    }

    #[test]
    fn l2_victims_held_only_by_the_l2_leave_the_l1_alone() {
        let mut s = small(1);
        // Lines 0, 2 and 4 share set 0 of the 2-set, 2-way L1, so filling
        // 4 evicts 0 from the L1 and clears its link; 0 stays in the L2.
        for line in [0, 2, 4] {
            s.access(0, LineAddr(line), false);
        }
        let l2_slot = s.l2[0].find(LineAddr(0)).expect("the L2 keeps line 0");
        assert_eq!(s.l1[0].find(LineAddr(0)), None);
        assert_eq!(s.l2[0].up(l2_slot), None);
        let l2_slot = s.l2[0].find(LineAddr(4)).expect("resident");
        assert_eq!(s.l2[0].up(l2_slot), s.l1[0].find(LineAddr(4)));
        assert_eq!(s.check_invariants(), Ok(()));
        // Lines 8, 12 and 16 fill set 0 of the 4-set, 4-way L2, so 16
        // evicts line 0, which no L1 way holds: the L1 loses no line.
        for line in [8, 12, 16] {
            s.access(0, LineAddr(line), false);
        }
        assert_eq!(s.private_state(0, LineAddr(0)), None);
        assert_eq!(s.l1_stats(0).invalidations, 0);
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn an_l2_victim_its_l1_holds_is_invalidated_at_the_linked_way() {
        let mut s = small(1);
        // Lines 0, 4, 8 and 12 fill set 0 of the L2, and the L1 hits on 0
        // in between keep it in the 2-way L1 set 0 without re-ranking it
        // in the L2: 0 stays the L2 set's least recently used line.
        for line in [0, 4, 0, 8, 0, 12] {
            s.access(0, LineAddr(line), false);
        }
        let l2_slot = s.l2[0].find(LineAddr(0)).expect("resident");
        let l1_slot = s.l1[0].find(LineAddr(0)).expect("the L1 keeps line 0");
        assert_eq!(s.l2[0].up(l2_slot), Some(l1_slot));
        // 16 evicts 0 from the L2, and the link takes its L1 copy with it.
        s.access(0, LineAddr(16), false);
        assert_eq!(s.private_state(0, LineAddr(0)), None);
        assert_eq!(s.l1_stats(0).invalidations, 1);
        for line in [12, 16] {
            assert!(
                s.l1[0].find(LineAddr(line)).is_some(),
                "the L1 keeps {line}"
            );
        }
        assert_eq!(s.check_invariants(), Ok(()));
    }

    /// The slot of `addr` in the L3 and its link up.
    fn l3_link(s: &SystemCaches, addr: u64) -> (Slot, Option<Slot>) {
        let slot = s.l3.find(LineAddr(addr)).expect("the L3 holds the line");
        (slot, s.l3.up(slot))
    }

    #[test]
    fn an_l3_victim_one_l2_holds_is_invalidated_through_the_link() {
        let mut s = small(1);
        // Lines 0, 16, 32 and 48 fill set 0 of the 16-set, 4-way L3 and of
        // the 4-set L2; the 2-way L1 keeps only 32 and 48.
        for line in [0, 16, 32, 48] {
            s.access(0, LineAddr(line), false);
        }
        assert_eq!(l3_link(&s, 0).1, s.l2[0].find(LineAddr(0)));
        assert_eq!(s.l1[0].find(LineAddr(0)), None);
        // 64 evicts 0 from the L3, which back-invalidates its L2 copy.
        assert_eq!(s.access(0, LineAddr(64), false).level, HitLevel::Memory);
        assert_eq!(s.private_state(0, LineAddr(0)), None);
        assert_eq!(
            (s.l1_stats(0).invalidations, s.l2_stats(0).invalidations),
            (0, 1)
        );
        assert_eq!(l3_link(&s, 64).1, s.l2[0].find(LineAddr(64)));
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn an_l3_victim_one_core_holds_in_both_levels_is_invalidated_through_the_links() {
        let mut s = small(1);
        // As above, but L1 hits on 0 keep it in the L1 and rank it in
        // neither the L2 nor the L3.
        for line in [0, 16, 0, 32, 0, 48, 0] {
            s.access(0, LineAddr(line), false);
        }
        assert_eq!(l3_link(&s, 0).1, s.l2[0].find(LineAddr(0)));
        let l2_slot = s.l2[0].find(LineAddr(0)).expect("resident");
        assert_eq!(s.l2[0].up(l2_slot), s.l1[0].find(LineAddr(0)));
        assert!(s.l2[0].up(l2_slot).is_some(), "the L1 holds line 0");
        s.access(0, LineAddr(64), false);
        assert_eq!(s.private_state(0, LineAddr(0)), None);
        assert_eq!(
            (s.l1_stats(0).invalidations, s.l2_stats(0).invalidations),
            (1, 1)
        );
        // The back-invalidation freed 0's L1 way, so 48 survives 64's fill.
        assert!(s.l1[0].find(LineAddr(48)).is_some());
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn an_l3_victim_two_cores_hold_is_found_by_search() {
        let mut s = small(2);
        s.access(0, LineAddr(0), false);
        assert_eq!(s.access(1, LineAddr(0), false).level, HitLevel::Peer);
        assert_eq!(l3_link(&s, 0).1, None, "two holders: no link");
        for line in [16, 32, 48] {
            s.access(0, LineAddr(line), false);
        }
        s.access(0, LineAddr(64), false);
        for core in 0..2 {
            assert_eq!(s.private_state(core, LineAddr(0)), None, "core {core}");
            assert_eq!(s.l2_stats(core).invalidations, 1, "core {core}");
        }
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn a_read_snoop_clears_the_l3_link() {
        let mut s = small(2);
        s.access(0, LineAddr(5), false);
        assert_eq!(l3_link(&s, 5).1, s.l2[0].find(LineAddr(5)));
        assert_eq!(s.access(1, LineAddr(5), false).level, HitLevel::Peer);
        let (slot, link) = l3_link(&s, 5);
        assert_eq!((s.l3.data(slot), link), (0b11, None));
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn a_write_upgrade_sets_the_l3_link() {
        let mut s = small(2);
        // From the L1: both cores read line 5, then core 1 writes it.
        s.access(0, LineAddr(5), false);
        s.access(1, LineAddr(5), false);
        assert_eq!(s.access(1, LineAddr(5), true).level, HitLevel::L1);
        assert_eq!(l3_link(&s, 5).1, s.l2[1].find(LineAddr(5)));
        assert_eq!(s.private_state(0, LineAddr(5)), None);
        assert_eq!(s.check_invariants(), Ok(()));

        // From the L2: core 0 reads line 5 back, so both share it; core 1's
        // reads of 7 and 9 push 5 out of its 2-way L1 set 1 but not its L2.
        s.access(0, LineAddr(5), false);
        assert_eq!(l3_link(&s, 5).1, None);
        for line in [7, 9] {
            s.access(1, LineAddr(line), false);
        }
        assert_eq!(s.access(1, LineAddr(5), true).level, HitLevel::L2);
        assert_eq!(l3_link(&s, 5).1, s.l2[1].find(LineAddr(5)));
        assert_eq!(s.private_state(0, LineAddr(5)), None);
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn a_probe_of_a_modified_line_one_core_holds_downgrades_it_through_the_link() {
        let mut s = small(2);
        // Held Modified in core 1's L1 and L2.
        s.access(1, LineAddr(7), true);
        assert_eq!(l3_link(&s, 7).1, s.l2[1].find(LineAddr(7)));
        assert_eq!(s.probe_from_mc(LineAddr(7)), Some(4 + 12));
        assert_eq!(s.private_state(1, LineAddr(7)), Some(LineState::Shared));
        // Held Modified in core 1's L2 only: 9 and 11 push 7 out of L1 set 1.
        s.access(1, LineAddr(7), true);
        for line in [9, 11] {
            s.access(1, LineAddr(line), false);
        }
        assert_eq!(s.l1[1].find(LineAddr(7)), None);
        assert_eq!(s.private_state(1, LineAddr(7)), Some(LineState::Modified));
        s.probe_from_mc(LineAddr(7));
        assert_eq!(s.private_state(1, LineAddr(7)), Some(LineState::Shared));
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn a_wrong_core_valid_bit_is_named() {
        let s = exercised();
        // A bit set for a core whose L2 lacks the line.
        let (addr, core) =
            s.l3.lines()
                .find_map(|(_, addr, bits)| {
                    (0..3)
                        .find(|&c| bits & 1 << c == 0)
                        .map(|core| (addr, core))
                })
                .expect("some L3 line is not held by every core");
        let slot = s.l3.find(addr).expect("resident");
        let mut broken = s.clone();
        *broken.l3.data_mut(slot) |= 1 << core;
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            format!("{addr}: core {core}'s core-valid bit is set but its L2 lacks the line")
        );

        // A bit cleared for a core whose L2 holds the line.
        let (_, addr, l3_slot) = s.l2[0].lines().next().expect("core 0's L2 holds lines");
        let mut broken = s;
        *broken.l3.data_mut(l3_slot) &= !1;
        assert_eq!(
            broken.check_invariants().unwrap_err(),
            format!("{addr}: in core 0's L2 without its core-valid bit")
        );
    }

    #[test]
    fn bits_follow_l2_victims() {
        let mut s = small(1);
        // Lines 0, 4, 8, 12 fill one 4-way L2 set; 16 evicts line 0 from
        // the L2 while the 16-set L3 keeps it.
        for i in 0..5 {
            s.access(0, LineAddr(i * 4), false);
        }
        let slot = s.l3.find(LineAddr(0)).expect("the L3 keeps line 0");
        assert_eq!(s.private_state(0, LineAddr(0)), None);
        assert_eq!(s.l3.data(slot), 0, "the L2 victim cleared its bit");
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let mut s = small(1);
        s.access(1, LineAddr(0), false);
    }

    #[test]
    #[should_panic(expected = "at most 32 cores, not 33")]
    fn a_33_core_hierarchy_is_refused() {
        SystemCaches::new(HierarchyConfig::micro50(33));
    }

    #[test]
    #[should_panic(expected = "at most 65,535 L2 slots, not 65536")]
    fn an_l2_of_more_than_65_535_slots_is_refused() {
        let mut cfg = HierarchyConfig::micro50(1);
        cfg.l2.size_bytes = (1 << 16) * LINE_SIZE;
        // Refused before any cache is built, so nothing is allocated.
        SystemCaches::new(cfg);
    }

    #[test]
    fn paper_config_constructs() {
        let s = SystemCaches::new(HierarchyConfig::micro50(10));
        assert_eq!(s.config().cores, 10);
    }
}
