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
}

impl CacheConfig {
    /// The paper's L1: 32 KB, 8-way, 2-cycle round trip.
    pub fn l1_micro50() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            ways: 8,
            latency: 2,
        }
    }

    /// The paper's L2: 256 KB, 8-way, 6-cycle round trip.
    pub fn l2_micro50() -> Self {
        CacheConfig {
            size_bytes: 256 << 10,
            ways: 8,
            latency: 6,
        }
    }

    /// The paper's shared L3: 32 MB, 20-way, 20-cycle round trip.
    pub fn l3_micro50() -> Self {
        CacheConfig {
            size_bytes: 32 << 20,
            ways: 20,
            latency: 20,
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

/// One way: a `u32` tag and LRU stamp, the owner's `T`, the link one level
/// up and the state. With a 4-byte `T` (a [`Slot`] or the L3's core-valid
/// bits) a way takes 16 bytes, the link filling what was padding.
#[derive(Debug, Clone, Copy)]
struct Way<T> {
    tag: u32,
    last_used: u32,
    data: T,
    /// The slot of the line's copy one level toward the cores, plus one;
    /// 0 for none.
    up: u16,
    state: LineState,
}

/// The bytes one way of a `SetAssocCache<T>` takes on the host.
pub(crate) const fn way_bytes<T>() -> usize {
    std::mem::size_of::<Way<T>>()
}

/// Where a resident line sits in its cache: its index in the way arena. A
/// line keeps its slot for as long as it stays resident, because an insert
/// fills a hole or overwrites the way it evicts and an invalidation leaves
/// a hole. The hierarchy links each private way to its line's slot one
/// level down, in a `u32` beside the tag, and a way to its line's copy one
/// level up, in 16 bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot(pub(crate) u32);

impl Slot {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A lookup that missed, for [`SetAssocCache::insert`]: the line's set
/// and, if the set was full, the slot of its least-recently-used way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miss {
    set: usize,
    lru: Option<usize>,
}

/// A line an [`insert`](SetAssocCache::insert) evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim<T> {
    /// The evicted line.
    pub line: LineAddr,
    /// Its state when evicted.
    pub state: LineState,
    /// Its owner's data.
    pub data: T,
    /// Its link one level up: the slot of its copy in the cache above, if
    /// one was recorded.
    pub up: Option<Slot>,
}

/// Outcome of [`SetAssocCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is resident at the slot, in the state.
    Hit(Slot, LineState),
    /// The line is absent.
    Miss(Miss),
}

/// One set-associative cache. Tags only — data lives in `HostMemory`.
///
/// Each way carries a `T` for the cache's owner: the hierarchy's private
/// caches keep the [`Slot`] of the line one level down there, its L3 keeps
/// the line's core-valid bits. Each way also carries a link one level up,
/// the slot of a copy in the cache above, which the owner sets and clears.
///
/// Ways are stored in one flat arena (`num_sets × ways` slots) rather than
/// per-set `Vec`s: a set is the contiguous slice
/// `ways[set × cfg.ways ..][.. cfg.ways]`, whose occupied ways are the set
/// bits of its `u64` valid mask. That keeps lookups on a single allocation
/// and makes the hierarchy's snoop scans cache-friendly on the host.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T = ()> {
    cfg: CacheConfig,
    /// Flat way storage: slot `set * cfg.ways + i` holds way `i` of `set`.
    ways: Vec<Way<T>>,
    /// Bit `i` of `valid[set]` is set when way `i` of `set` holds a line.
    /// A clear bit is a hole: a way never filled or invalidated since.
    valid: Vec<u64>,
    /// The valid mask of a full set: the low `cfg.ways` bits.
    full: u64,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two, so the set
    /// index is a mask rather than a 64-bit `%`.
    set_mask: Option<u64>,
    /// The LRU clock: the stamp of the latest lookup or insert. Before it
    /// would wrap, [`renumber`](Self::renumber) ranks every set's stamps
    /// anew.
    use_counter: u32,
    stats: CacheStats,
}

/// The ways of a set up to its highest occupied one.
fn span(valid: u64) -> usize {
    (u64::BITS - valid.leading_zeros()) as usize
}

/// The slot a way's link up names: the link less one, or `None` for 0.
fn slot_from_link(up: u16) -> Option<Slot> {
    up.checked_sub(1).map(|slot| Slot(slot.into()))
}

/// Refuses a line whose address does not fit a way's `u32` tag. Lookups
/// compare the widened tag, so such a line is simply never found.
#[cold]
#[inline(never)]
fn tag_overflow(addr: LineAddr) -> ! {
    panic!("line {addr} does not fit a 32-bit tag")
}

impl<T: Copy + Default> SetAssocCache<T> {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ways` is zero or exceeds the 64 bits of a set's
    /// valid mask, or if the slots do not fit a `u32`.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            (1..=u64::BITS as usize).contains(&cfg.ways),
            "a set's valid mask is one u64: 1 to 64 ways, not {}",
            cfg.ways
        );
        let num_sets = cfg.num_sets();
        assert!(
            u32::try_from(num_sets * cfg.ways).is_ok(),
            "slots are u32 indices"
        );
        SetAssocCache {
            cfg,
            ways: vec![
                Way {
                    tag: 0,
                    state: LineState::Shared,
                    last_used: 0,
                    data: T::default(),
                    up: 0,
                };
                num_sets * cfg.ways
            ],
            valid: vec![0; num_sets],
            full: u64::MAX >> (u64::BITS as usize - cfg.ways),
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
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
        match self.set_mask {
            Some(mask) => (addr.0 & mask) as usize,
            None => (addr.0 % self.num_sets as u64) as usize,
        }
    }

    /// Advances the LRU clock and returns the new stamp.
    #[inline]
    fn tick(&mut self) -> u32 {
        if self.use_counter == u32::MAX {
            self.renumber();
        }
        self.use_counter += 1;
        self.use_counter
    }

    /// Ranks each set's resident ways `1..=n` by their LRU stamps, oldest
    /// first, and restarts the clock above every rank. Victims are chosen
    /// by comparing stamps within one set, so LRU order is unchanged.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        let mut ranked = Vec::with_capacity(self.cfg.ways);
        for (set, &valid) in self.valid.iter().enumerate() {
            let ways = &mut self.ways[set * self.cfg.ways..][..self.cfg.ways];
            ranked.clear();
            ranked.extend((0..self.cfg.ways).filter(|&i| valid >> i & 1 != 0));
            ranked.sort_unstable_by_key(|&i| ways[i].last_used);
            for (rank, &i) in (1..).zip(&ranked) {
                ways[i].last_used = rank;
            }
        }
        // Ranks run to at most `ways`, so the next stamp is above them all.
        self.use_counter = self.cfg.ways as u32;
    }

    /// Sets the LRU clock, so a test can start it just below the wrap.
    #[cfg(test)]
    fn set_clock(&mut self, stamp: u32) {
        self.use_counter = stamp;
    }

    /// Looks up `addr` in one scan of its set, updating LRU and hit/miss
    /// counters. A miss in a full set records its LRU way, found in the
    /// same pass, for [`insert`](Self::insert).
    // `always`: the L1 and L2 share this copy, and under a plain hint it
    // stays out of line in `SystemCaches::access` (DESIGN.md §9).
    #[inline(always)]
    pub fn lookup(&mut self, addr: LineAddr) -> Lookup {
        let set = self.set_index(addr);
        let counter = self.tick();
        let valid = self.valid[set];
        let base = set * self.cfg.ways;
        let mut lru = (0, u32::MAX);
        for (i, way) in self.ways[base..base + span(valid)].iter_mut().enumerate() {
            if u64::from(way.tag) == addr.0 && valid >> i & 1 != 0 {
                way.last_used = counter;
                self.stats.hits += 1;
                return Lookup::Hit(Slot((base + i) as u32), way.state);
            }
            // Only a full set's LRU way is used, and a full set has no
            // holes to skip.
            if way.last_used < lru.1 {
                lru = (i, way.last_used);
            }
        }
        self.stats.misses += 1;
        Lookup::Miss(Miss {
            set,
            lru: (valid == self.full).then_some(base + lru.0),
        })
    }

    /// Finds `addr` without touching LRU or counters (snoop path).
    #[inline]
    pub fn find(&self, addr: LineAddr) -> Option<Slot> {
        let set = self.set_index(addr);
        let valid = self.valid[set];
        let base = set * self.cfg.ways;
        self.ways[base..base + span(valid)]
            .iter()
            .enumerate()
            .position(|(i, w)| u64::from(w.tag) == addr.0 && valid >> i & 1 != 0)
            .map(|i| Slot((base + i) as u32))
    }

    /// The state of `addr` if resident, without touching LRU or counters.
    #[inline]
    pub fn peek(&self, addr: LineAddr) -> Option<LineState> {
        self.find(addr).map(|slot| self.state(slot))
    }

    /// The state of the line at `slot`.
    pub(crate) fn state(&self, slot: Slot) -> LineState {
        self.ways[slot.index()].state
    }

    /// Sets the state of the line at `slot`.
    pub fn set_state_at(&mut self, slot: Slot, state: LineState) {
        self.ways[slot.index()].state = state;
    }

    /// The owner's data of the line at `slot`.
    pub fn data(&self, slot: Slot) -> T {
        self.ways[slot.index()].data
    }

    /// The owner's data of the line at `slot`, mutably.
    pub fn data_mut(&mut self, slot: Slot) -> &mut T {
        &mut self.ways[slot.index()].data
    }

    /// The link one level up of the line at `slot`: the slot of its copy
    /// in the cache above, or `None` when none is recorded. An insert
    /// starts a way with none.
    #[inline]
    pub(crate) fn up(&self, slot: Slot) -> Option<Slot> {
        slot_from_link(self.ways[slot.index()].up)
    }

    /// Sets the link one level up of the line at `slot`. The linked slot
    /// must be below `u16::MAX`, which the owner guarantees by the size of
    /// the cache above.
    #[inline]
    pub(crate) fn set_up(&mut self, slot: Slot, up: Option<Slot>) {
        debug_assert!(
            up.is_none_or(|s| s.0 < u32::from(u16::MAX)),
            "{up:?} needs 17 bits"
        );
        self.ways[slot.index()].up = up.map_or(0, |s| s.0 as u16 + 1);
    }

    /// The line at `slot`, or `None` when the slot is a hole.
    pub(crate) fn line_at(&self, slot: Slot) -> Option<LineAddr> {
        let (set, way) = (slot.index() / self.cfg.ways, slot.index() % self.cfg.ways);
        (self.valid[set] >> way & 1 != 0).then(|| LineAddr(self.ways[slot.index()].tag.into()))
    }

    /// Installs `addr` with `state` and `data`, and no link up, through the
    /// `miss` of its own lookup, returning the slot it filled. A set with a
    /// hole fills its lowest one; a full set evicts the way that lookup
    /// recorded, and the evicted line comes back with its state, data and
    /// link up.
    ///
    /// Between a lookup and its insert the set may only lose lines, never
    /// gain or re-rank one: a set still full then lost nothing, so the
    /// recorded way is still its LRU way.
    ///
    /// # Panics
    ///
    /// Panics if the set is full but was not full at the lookup, or if
    /// `addr` does not fit the `u32` tag.
    // `always`: as for `lookup`.
    #[inline(always)]
    pub fn insert(
        &mut self,
        miss: Miss,
        addr: LineAddr,
        state: LineState,
        data: T,
    ) -> (Slot, Option<Victim<T>>) {
        debug_assert!(
            self.set_index(addr) == miss.set && self.find(addr).is_none(),
            "insert of {addr} without the miss of its own lookup"
        );
        let Ok(tag) = u32::try_from(addr.0) else {
            tag_overflow(addr)
        };
        let way = Way {
            tag,
            last_used: self.tick(),
            data,
            up: 0,
            state,
        };
        let valid = self.valid[miss.set];
        if valid != self.full {
            let hole = (!valid).trailing_zeros() as usize;
            let slot = miss.set * self.cfg.ways + hole;
            self.ways[slot] = way;
            self.valid[miss.set] = valid | 1 << hole;
            return (Slot(slot as u32), None);
        }
        let lru = miss
            .lru
            .expect("a set full at insert was full at its lookup: only removals happen between");
        let evicted = std::mem::replace(&mut self.ways[lru], way);
        self.stats.evictions += 1;
        if evicted.state.is_dirty() {
            self.stats.writebacks += 1;
        }
        let victim = Victim {
            line: LineAddr(evicted.tag.into()),
            state: evicted.state,
            data: evicted.data,
            up: slot_from_link(evicted.up),
        };
        (Slot(lru as u32), Some(victim))
    }

    /// Invalidates the line at `slot`, returning its state. The way
    /// becomes a hole; every other line keeps its slot.
    pub(crate) fn invalidate_at(&mut self, slot: Slot) -> LineState {
        let (set, way) = (slot.index() / self.cfg.ways, slot.index() % self.cfg.ways);
        debug_assert!(self.valid[set] >> way & 1 != 0, "slot {slot:?} is a hole");
        self.valid[set] &= !(1 << way);
        self.stats.invalidations += 1;
        self.ways[slot.index()].state
    }

    /// The resident lines with their slots and owner's data, in slot order.
    pub fn lines(&self) -> impl Iterator<Item = (Slot, LineAddr, T)> + '_ {
        let ways = self.cfg.ways;
        self.ways
            .chunks(ways)
            .zip(&self.valid)
            .enumerate()
            .flat_map(move |(set, (set_ways, &valid))| {
                set_ways
                    .iter()
                    .enumerate()
                    .filter(move |&(i, _)| valid >> i & 1 != 0)
                    .map(move |(i, w)| {
                        let slot = Slot((set * ways + i) as u32);
                        (slot, LineAddr(w.tag.into()), w.data)
                    })
            })
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
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
        })
    }

    /// Looks `addr` up and installs it on a miss, as the hierarchy does.
    fn fill(c: &mut SetAssocCache, addr: u64, state: LineState) -> Option<(LineAddr, LineState)> {
        match c.lookup(LineAddr(addr)) {
            Lookup::Miss(miss) => c
                .insert(miss, LineAddr(addr), state, ())
                .1
                .map(|victim| (victim.line, victim.state)),
            Lookup::Hit(..) => panic!("line {addr} already resident"),
        }
    }

    /// Invalidates `addr` if it is resident, returning its state.
    fn invalidate<T: Copy + Default>(c: &mut SetAssocCache<T>, addr: u64) -> Option<LineState> {
        c.find(LineAddr(addr)).map(|slot| c.invalidate_at(slot))
    }

    fn state(c: &mut SetAssocCache, addr: u64) -> Option<LineState> {
        match c.lookup(LineAddr(addr)) {
            Lookup::Hit(_, state) => Some(state),
            Lookup::Miss(_) => None,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        fill(&mut c, 0, LineState::Exclusive);
        assert_eq!(state(&mut c, 0), Some(LineState::Exclusive));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds addrs 0, 4, 8... (4 sets).
        fill(&mut c, 0, LineState::Shared);
        fill(&mut c, 4, LineState::Shared);
        state(&mut c, 0); // 0 is now MRU
        let victim = fill(&mut c, 8, LineState::Shared);
        assert_eq!(victim, Some((LineAddr(4), LineState::Shared)));
        assert_eq!(c.peek(LineAddr(0)), Some(LineState::Shared));
        assert_eq!(c.peek(LineAddr(4)), None);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        fill(&mut c, 0, LineState::Modified);
        fill(&mut c, 4, LineState::Shared);
        fill(&mut c, 8, LineState::Shared); // evicts 0 (LRU, dirty)
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn insert_takes_a_way_freed_since_its_lookup() {
        let mut c = tiny();
        fill(&mut c, 0, LineState::Shared);
        fill(&mut c, 4, LineState::Shared);
        let Lookup::Miss(miss) = c.lookup(LineAddr(8)) else {
            panic!("8 is absent");
        };
        invalidate(&mut c, 4);
        // The set is no longer full: nothing is evicted, 0 survives.
        assert_eq!(c.insert(miss, LineAddr(8), LineState::Shared, ()).1, None);
        assert_eq!(c.peek(LineAddr(0)), Some(LineState::Shared));
        assert_eq!(c.peek(LineAddr(8)), Some(LineState::Shared));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn ways_carry_their_data() {
        let mut c: SetAssocCache<u64> = SetAssocCache::new(*tiny().config());
        for (addr, data) in [(0, 7), (4, 9)] {
            let Lookup::Miss(miss) = c.lookup(LineAddr(addr)) else {
                panic!("{addr} is absent");
            };
            c.insert(miss, LineAddr(addr), LineState::Shared, data);
        }
        let slot = c.find(LineAddr(4)).expect("4 is resident");
        *c.data_mut(slot) |= 1 << 5;
        assert_eq!(c.data(slot), 9 | 1 << 5);
        let Lookup::Miss(miss) = c.lookup(LineAddr(8)) else {
            panic!("8 is absent");
        };
        let (filled, victim) = c.insert(miss, LineAddr(8), LineState::Shared, 0);
        assert_eq!(
            victim,
            Some(Victim {
                line: LineAddr(0),
                state: LineState::Shared,
                data: 7,
                up: None
            })
        );
        assert_eq!(c.find(LineAddr(8)), Some(filled));
    }

    #[test]
    fn invalidation_leaves_a_hole_the_next_insert_fills() {
        // 1 set × 4 ways.
        let mut c: SetAssocCache<u64> = SetAssocCache::new(CacheConfig {
            size_bytes: 4 * LINE_SIZE,
            ways: 4,
            latency: 1,
        });
        let mut slots = Vec::new();
        for addr in 0..4 {
            let Lookup::Miss(miss) = c.lookup(LineAddr(addr)) else {
                panic!("{addr} is absent");
            };
            let (slot, victim) = c.insert(miss, LineAddr(addr), LineState::Shared, addr);
            assert_eq!(victim, None);
            slots.push(slot);
        }
        assert_eq!(invalidate(&mut c, 1), Some(LineState::Shared));
        assert_eq!(c.line_at(slots[1]), None);
        for addr in [0, 2, 3] {
            let slot = slots[addr as usize];
            assert_eq!(c.find(LineAddr(addr)), Some(slot), "{addr} moved");
            assert_eq!(
                (c.line_at(slot), c.data(slot)),
                (Some(LineAddr(addr)), addr)
            );
        }
        // The set is no longer full: the next line takes the hole and
        // nothing is evicted.
        let Lookup::Miss(miss) = c.lookup(LineAddr(4)) else {
            panic!("4 is absent");
        };
        assert_eq!(
            c.insert(miss, LineAddr(4), LineState::Shared, 4),
            (slots[1], None)
        );
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_lines(), 4);
        let lines: Vec<_> = c.lines().collect();
        let expected: Vec<_> = slots
            .iter()
            .zip([0, 4, 2, 3])
            .map(|(&slot, addr)| (slot, LineAddr(addr), addr))
            .collect();
        assert_eq!(lines, expected, "lines are listed in slot order");
    }

    #[test]
    #[should_panic(expected = "1 to 64 ways, not 65")]
    fn more_than_64_ways_is_refused() {
        SetAssocCache::<()>::new(CacheConfig {
            size_bytes: 65 * LINE_SIZE,
            ways: 65,
            latency: 1,
        });
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        fill(&mut c, 3, LineState::Modified);
        assert_eq!(invalidate(&mut c, 3), Some(LineState::Modified));
        assert_eq!(invalidate(&mut c, 3), None);
        assert_eq!(c.peek(LineAddr(3)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = tiny();
        fill(&mut c, 0, LineState::Shared);
        let before = *c.stats();
        c.peek(LineAddr(0));
        c.peek(LineAddr(1));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Fill set 0 beyond capacity; set 1 lines must survive.
        fill(&mut c, 1, LineState::Shared);
        for i in 0..4 {
            fill(&mut c, i * 4, LineState::Shared);
        }
        assert_eq!(c.peek(LineAddr(1)), Some(LineState::Shared));
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    fn non_power_of_two_set_counts_index_by_modulo() {
        // 3 sets × 2 ways: lines 1 and 4 share set 1.
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 6 * LINE_SIZE,
            ways: 2,
            latency: 1,
        });
        for addr in [1, 4, 7] {
            fill(&mut c, addr, LineState::Shared);
        }
        assert_eq!(c.peek(LineAddr(1)), None);
        assert_eq!(c.lines().count(), 2);
    }

    /// A seeded stream of lookups, inserts on a miss and invalidations on
    /// a 4-set, 4-way cache whose LRU clock starts at `clock`, as the
    /// victims it evicts in order.
    fn victims_from(clock: u32) -> Vec<LineAddr> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut c = SetAssocCache::<()>::new(CacheConfig {
            size_bytes: 16 * LINE_SIZE,
            ways: 4,
            latency: 1,
        });
        c.set_clock(clock);
        let mut rng = SmallRng::seed_from_u64(0x51A3);
        let mut victims = Vec::new();
        for _ in 0..4_000 {
            let addr = LineAddr(rng.gen_range(0..40));
            if rng.gen_range(0..8) == 0 {
                invalidate(&mut c, addr.0);
            } else if let Lookup::Miss(miss) = c.lookup(addr) {
                victims.extend(
                    c.insert(miss, addr, LineState::Shared, ())
                        .1
                        .map(|v| v.line),
                );
            }
        }
        victims
    }

    #[test]
    fn lru_survives_the_clock_wrapping() {
        let from_zero = victims_from(0);
        assert!(from_zero.len() > 1_000, "too few evictions to compare");
        // 4,000 operations tick the clock past u32::MAX several hundred
        // operations in, so the stream renumbers with full sets.
        assert_eq!(victims_from(u32::MAX - 700), from_zero);
        assert_eq!(victims_from(u32::MAX), from_zero);
    }

    #[test]
    fn a_line_past_32_bits_is_never_found() {
        let mut c = tiny();
        fill(&mut c, 5, LineState::Shared);
        let wide = LineAddr(5 + (1 << 32));
        assert_eq!(c.find(wide), None, "the widened tag differs");
        assert!(matches!(c.lookup(wide), Lookup::Miss(_)));
        assert_eq!(c.peek(LineAddr(5)), Some(LineState::Shared));
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit tag")]
    fn insert_refuses_a_line_past_32_bits() {
        let mut c = tiny();
        let wide = LineAddr(1 << 32);
        let Lookup::Miss(miss) = c.lookup(wide) else {
            panic!("nothing is resident");
        };
        c.insert(miss, wide, LineState::Shared, ());
    }

    #[test]
    fn micro50_geometries() {
        assert_eq!(CacheConfig::l1_micro50().num_sets(), 64);
        assert_eq!(CacheConfig::l2_micro50().num_sets(), 512);
        assert_eq!(CacheConfig::l3_micro50().num_sets(), 26214);
    }
}
