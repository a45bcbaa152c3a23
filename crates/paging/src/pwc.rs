//! Page-walk cache (PWC).
//!
//! The PWC caches *non-leaf* PTEs so a walk can skip the upper levels of the
//! tree. Table 2 of the paper defines the TC1–TC4 microbenchmark states in
//! terms of per-level PWC hits; §8.9 sweeps the entry count (8 vs 32).
//!
//! The model is a fully-associative, exact-LRU cache keyed by
//! `(asid, level, va-prefix)` whose payload is the physical base of the
//! next-level table, exactly what a radix PWC stores. It is an
//! [`LruMap`], the store behind the L1 TLB and the PMPTW-Cache in
//! `hpmp-core` too, so all three share one replacement rule.

use hpmp_memsim::{LruEntry, LruMap, PhysAddr, VirtAddr, PAGE_SHIFT};

/// Configuration of a walk cache. A probe costs no cycles: it is checked
/// in parallel with the walk start, and the paper's PTECache is small and
/// fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkCacheConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
}

impl Default for WalkCacheConfig {
    fn default() -> WalkCacheConfig {
        WalkCacheConfig { entries: 8 }
    }
}

/// Counters for a walk cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

impl hpmp_trace::Counters for WalkCacheStats {
    const NAMES: &'static [&'static str] = &["hits", "misses"];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [self.hits, self.misses]
    }
}

/// One cached walk step: `key` is `(asid, level, va-prefix)`, and the PTE
/// at that level for every VA with that prefix points to `table`.
#[derive(Clone, Copy, Debug)]
struct Step {
    key: (u16, u8, u64),
    table: PhysAddr,
}

impl LruEntry for Step {
    type Key = (u16, u8, u64);

    fn key(&self) -> (u16, u8, u64) {
        self.key
    }

    fn mix((asid, level, prefix): (u16, u8, u64)) -> u64 {
        prefix ^ (u64::from(asid) << 48) ^ (u64::from(level) << 44)
    }
}

/// A fully-associative cache of non-leaf walk steps.
///
/// ```
/// use hpmp_memsim::{PhysAddr, VirtAddr};
/// use hpmp_paging::{WalkCache, WalkCacheConfig};
///
/// let mut pwc = WalkCache::new(WalkCacheConfig::default());
/// let va = VirtAddr::new(0x1234_5000);
/// pwc.insert(1, 2, va, PhysAddr::new(0x8000_1000));
/// assert_eq!(pwc.lookup(1, 2, va + 0x123), Some(PhysAddr::new(0x8000_1000)));
/// ```
#[derive(Clone, Debug)]
pub struct WalkCache {
    steps: LruMap<Step>,
    stats: WalkCacheStats,
}

impl WalkCache {
    /// Builds an empty walk cache. A zero-entry configuration is legal and
    /// behaves as "always miss" (used to disable the PWC in experiments).
    ///
    /// # Panics
    ///
    /// Panics if `entries` exceeds [`hpmp_memsim::LRU_MAX_ENTRIES`].
    pub fn new(config: WalkCacheConfig) -> WalkCache {
        WalkCache {
            steps: LruMap::new(config.entries),
            stats: WalkCacheStats::default(),
        }
    }

    /// Looks up the cached next-level table for the walk step that consumes
    /// the PTE at `level` for `va`. `level` is the level of the PTE being
    /// skipped (root = `mode.root_level()`). The translation mode does not
    /// enter the tag: the ASID, `level` and the VA bits above it name the
    /// step. Inlined into the walker, which probes once per level: called
    /// out of line, the probe cost native walks ~8 ns each.
    #[inline]
    pub fn lookup(&mut self, asid: u16, level: usize, va: VirtAddr) -> Option<PhysAddr> {
        match self.steps.find(Self::key(asid, level, va)) {
            Some((i, step)) => {
                self.steps.touch(i);
                self.stats.hits += 1;
                Some(step.table)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records that the PTE at `level` for `va` points to `table`.
    pub fn insert(&mut self, asid: u16, level: usize, va: VirtAddr, table: PhysAddr) {
        self.steps.insert(Step {
            key: Self::key(asid, level, va),
            table,
        });
    }

    /// Drops every cached step (on `sfence.vma` / HPMP reconfiguration).
    #[inline]
    pub fn flush_all(&mut self) {
        self.steps.clear();
    }

    /// Drops cached steps belonging to `asid`.
    pub fn flush_asid(&mut self, asid: u16) {
        self.steps.retain(|s| s.key.0 != asid);
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> WalkCacheStats {
        self.stats
    }

    /// Clears counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = WalkCacheStats::default();
    }

    fn key(asid: u16, level: usize, va: VirtAddr) -> (u16, u8, u64) {
        // The prefix is every VPN field *above and including* `level`.
        let shift = PAGE_SHIFT as usize + 9 * level;
        (asid, level as u8, va.raw() >> shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        let va = VirtAddr::new(0x4000_0000);
        assert_eq!(pwc.lookup(1, 2, va), None);
        pwc.insert(1, 2, va, PhysAddr::new(0x8000_0000));
        assert_eq!(pwc.lookup(1, 2, va), Some(PhysAddr::new(0x8000_0000)));
        assert_eq!(pwc.stats(), WalkCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn same_region_same_entry() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        // Two VAs in the same 1 GiB region share the L2-level entry.
        pwc.insert(1, 2, VirtAddr::new(0x0000_1000), PhysAddr::new(0x8000_0000));
        assert!(pwc.lookup(1, 2, VirtAddr::new(0x3fff_f000)).is_some());
        // A VA in a different 1 GiB region misses.
        assert!(pwc.lookup(1, 2, VirtAddr::new(0x4000_0000)).is_none());
    }

    #[test]
    fn levels_are_distinct() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        let va = VirtAddr::new(0x1000);
        pwc.insert(1, 2, va, PhysAddr::new(0x8000_0000));
        assert!(pwc.lookup(1, 1, va).is_none());
    }

    #[test]
    fn lru_eviction() {
        let mut pwc = WalkCache::new(WalkCacheConfig { entries: 2 });
        pwc.insert(1, 2, VirtAddr::new(0 << 30), PhysAddr::new(0x1000));
        pwc.insert(1, 2, VirtAddr::new(1 << 30), PhysAddr::new(0x2000));
        pwc.lookup(1, 2, VirtAddr::new(0 << 30)); // refresh first
        pwc.insert(1, 2, VirtAddr::new(2 << 30), PhysAddr::new(0x3000)); // evict second
        assert!(pwc.lookup(1, 2, VirtAddr::new(0 << 30)).is_some());
        assert!(pwc.lookup(1, 2, VirtAddr::new(1 << 30)).is_none());
    }

    #[test]
    fn zero_entry_cache_never_hits() {
        let mut pwc = WalkCache::new(WalkCacheConfig { entries: 0 });
        pwc.insert(1, 2, VirtAddr::new(0x1000), PhysAddr::new(0x8000_0000));
        assert!(pwc.lookup(1, 2, VirtAddr::new(0x1000)).is_none());
    }

    #[test]
    fn flush_asid_selective() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        pwc.insert(1, 2, VirtAddr::new(0x1000), PhysAddr::new(0x1000));
        pwc.insert(2, 2, VirtAddr::new(0x1000), PhysAddr::new(0x2000));
        pwc.flush_asid(1);
        assert!(pwc.lookup(1, 2, VirtAddr::new(0x1000)).is_none());
        assert!(pwc.lookup(2, 2, VirtAddr::new(0x1000)).is_some());
        pwc.flush_all();
        assert!(pwc.lookup(2, 2, VirtAddr::new(0x1000)).is_none());
    }
}
