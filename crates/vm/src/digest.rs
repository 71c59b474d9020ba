//! Version-tagged content-digest cache.
//!
//! KSM re-derives a checksum (and, with the shadow scheme on, an ECC hash
//! key) for every candidate page on every pass, but most pages do not
//! change between passes. [`DigestCache`] memoizes any digest that is a
//! pure function of a frame's bytes, keyed by the frame's
//! `(epoch, version)` stamp from [`HostMemory`]: `epoch` changes when the
//! frame slot is reallocated (so a recycled PPN can never alias a stale
//! digest) and `version` is bumped by every in-place guest write (so
//! dirty pages invalidate lazily, without a write-path hook into the
//! cache).
//!
//! The cache is strictly a host-side accelerator. Callers must charge
//! their modeled work (hash ops, bytes, cache-pollution touches)
//! *unconditionally*, exactly as if the digest had been recomputed — a
//! hit skips the host arithmetic, never the simulated cost — so results
//! are byte-identical with the cache on or off (asserted by the
//! `digest_cache_off_*` tests in
//! `crates/bench/tests/fault_and_cache_determinism.rs`).

use pageforge_types::Ppn;

use crate::memory::HostMemory;

/// Hit/miss/invalidation counters, exported by the owner (KSM publishes
/// them as `ksm.digest.{hits,misses,invalidations}` — see
/// OBSERVABILITY.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed and stored a digest (includes the
    /// invalidation refills below).
    pub misses: u64,
    /// Misses that replaced a stale entry — the frame was rewritten
    /// (version bump) or reallocated (epoch change) since it was cached.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct Entry<D> {
    epoch: u64,
    version: u64,
    digest: D,
}

/// A per-frame digest memo tagged with [`HostMemory`] version stamps.
///
/// Generic over the digest type `D`, so one cache can carry whatever
/// tuple of digests a scanner derives per page (KSM stores its jhash
/// checksum plus the optional shadow ECC key).
#[derive(Debug, Clone)]
pub struct DigestCache<D> {
    /// Indexed by `Ppn`, like the frame arena it shadows.
    entries: Vec<Option<Entry<D>>>,
    enabled: bool,
    stats: DigestCacheStats,
}

impl<D: Clone> DigestCache<D> {
    /// Creates an empty cache. A disabled cache computes every digest
    /// fresh and records no statistics — byte-for-byte the pre-cache
    /// behavior, kept as a determinism cross-check.
    pub fn new(enabled: bool) -> Self {
        DigestCache {
            entries: Vec::new(),
            enabled,
            stats: DigestCacheStats::default(),
        }
    }

    /// Whether lookups consult the memo.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DigestCacheStats {
        self.stats
    }

    /// Returns the digest of `ppn`'s current contents, computing it with
    /// `compute` only when no fresh entry exists.
    ///
    /// The caller guarantees `compute` is a pure function of the frame's
    /// bytes; the cache guarantees it returns exactly what `compute`
    /// would return now (entries tagged with an older epoch or version
    /// are invalidated, never served).
    pub fn get_or_compute(&mut self, mem: &HostMemory, ppn: Ppn, compute: impl FnOnce() -> D) -> D {
        if !self.enabled {
            return compute();
        }
        let (Some(epoch), Some(version)) = (mem.frame_epoch(ppn), mem.frame_version(ppn)) else {
            // Unmapped frame: nothing to tag an entry with.
            return compute();
        };
        let idx = ppn.0 as usize;
        if idx >= self.entries.len() {
            self.entries.resize_with(idx + 1, || None);
        }
        let slot = &mut self.entries[idx];
        match slot {
            Some(e) if e.epoch == epoch && e.version == version => {
                self.stats.hits += 1;
                return e.digest.clone();
            }
            Some(_) => self.stats.invalidations += 1,
            None => {}
        }
        self.stats.misses += 1;
        let digest = compute();
        *slot = Some(Entry {
            epoch,
            version,
            digest: digest.clone(),
        });
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pageforge_types::{Gfn, PageData, VmId};

    fn checksum(mem: &HostMemory, ppn: Ppn) -> u64 {
        mem.frame_data(ppn)
            .unwrap()
            .as_bytes()
            .iter()
            .map(|&b| b as u64)
            .sum()
    }

    #[test]
    fn second_lookup_hits() {
        let mut mem = HostMemory::new();
        let ppn = mem.map_new_page(VmId(0), Gfn(0), PageData::from_fn(|i| i as u8));
        let mut cache = DigestCache::new(true);
        let a = cache.get_or_compute(&mem, ppn, || checksum(&mem, ppn));
        let b = cache.get_or_compute(&mem, ppn, || unreachable!("must hit"));
        assert_eq!(a, b);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn in_place_write_invalidates() {
        let mut mem = HostMemory::new();
        let ppn = mem.map_new_page(VmId(0), Gfn(0), PageData::zeroed());
        let mut cache = DigestCache::new(true);
        let before = cache.get_or_compute(&mem, ppn, || checksum(&mem, ppn));
        mem.guest_write(VmId(0), Gfn(0), 10, &[7]);
        let after = cache.get_or_compute(&mem, ppn, || checksum(&mem, ppn));
        assert_ne!(before, after, "stale digest must not be served");
        assert_eq!(after, checksum(&mem, ppn));
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn frame_reallocation_invalidates_by_epoch() {
        let mut mem = HostMemory::new();
        let ppn = mem.map_new_page(VmId(0), Gfn(0), PageData::from_fn(|_| 1));
        let mut cache = DigestCache::new(true);
        cache.get_or_compute(&mem, ppn, || checksum(&mem, ppn));
        // Unmap, then remap: the slot is recycled under a new epoch.
        mem.unmap(VmId(0), Gfn(0));
        let ppn2 = mem.map_new_page(VmId(0), Gfn(1), PageData::from_fn(|_| 2));
        assert_eq!(ppn, ppn2, "free list recycles the frame slot");
        let fresh = cache.get_or_compute(&mem, ppn2, || checksum(&mem, ppn2));
        assert_eq!(fresh, checksum(&mem, ppn2));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn cow_break_gives_copy_its_own_digest() {
        let mut mem = HostMemory::new();
        let a = mem.map_new_page(VmId(0), Gfn(0), PageData::from_fn(|_| 3));
        let b = mem.map_new_page(VmId(1), Gfn(0), PageData::from_fn(|_| 3));
        mem.merge_into(a, b).unwrap();
        let mut cache = DigestCache::new(true);
        cache.get_or_compute(&mem, a, || checksum(&mem, a));
        // VM 1 writes: CoW break allocates a private copy.
        mem.guest_write(VmId(1), Gfn(0), 0, &[9]);
        let copy = mem.translate(VmId(1), Gfn(0)).unwrap();
        assert_ne!(copy, a);
        let d = cache.get_or_compute(&mem, copy, || checksum(&mem, copy));
        assert_eq!(d, checksum(&mem, copy));
        // The shared original is untouched and still hits.
        cache.get_or_compute(&mem, a, || unreachable!("original unchanged"));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let mut mem = HostMemory::new();
        let ppn = mem.map_new_page(VmId(0), Gfn(0), PageData::zeroed());
        let mut cache = DigestCache::new(false);
        let mut calls = 0;
        for _ in 0..3 {
            cache.get_or_compute(&mem, ppn, || {
                calls += 1;
                0u64
            });
        }
        assert_eq!(calls, 3);
        assert_eq!(cache.stats(), DigestCacheStats::default());
    }
}
