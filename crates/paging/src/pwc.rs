//! Page-walk cache (PWC).
//!
//! The PWC caches *non-leaf* PTEs so a walk can skip the upper levels of the
//! tree. Table 2 of the paper defines the TC1–TC4 microbenchmark states in
//! terms of per-level PWC hits; §8.9 sweeps the entry count (8 vs 32).
//!
//! The model is a fully-associative, LRU array keyed by
//! `(asid, level, va-prefix)` whose payload is the physical base of the
//! next-level table, exactly what a radix PWC stores. The same structure is
//! reused by the PMPTW-Cache in `hpmp-core` (keyed on physical prefixes).

use hpmp_memsim::{PhysAddr, VirtAddr, PAGE_SHIFT};

/// Configuration of a walk cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkCacheConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Hit latency in cycles (checked in parallel with the walk start; the
    /// paper's PTECache is small and fast, so this defaults to 1).
    pub hit_latency: u64,
}

impl Default for WalkCacheConfig {
    fn default() -> WalkCacheConfig {
        WalkCacheConfig {
            entries: 8,
            hit_latency: 1,
        }
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

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    asid: u16,
    level: usize,
    prefix: u64,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    key: Key,
    table: PhysAddr,
    lru: u64,
}

/// A fully-associative cache of non-leaf walk steps.
///
/// ```
/// use hpmp_memsim::{PhysAddr, VirtAddr};
/// use hpmp_paging::{TranslationMode, WalkCache, WalkCacheConfig};
///
/// let mut pwc = WalkCache::new(WalkCacheConfig::default());
/// let va = VirtAddr::new(0x1234_5000);
/// pwc.insert(TranslationMode::Sv39, 1, 2, va, PhysAddr::new(0x8000_1000));
/// assert_eq!(
///     pwc.lookup(TranslationMode::Sv39, 1, 2, va + 0x123),
///     Some(PhysAddr::new(0x8000_1000)),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct WalkCache {
    config: WalkCacheConfig,
    slots: Vec<Slot>,
    clock: u64,
    stats: WalkCacheStats,
}

impl WalkCache {
    /// Builds an empty walk cache. A zero-entry configuration is legal and
    /// behaves as "always miss" (used to disable the PWC in experiments).
    pub fn new(config: WalkCacheConfig) -> WalkCache {
        WalkCache {
            config,
            slots: Vec::with_capacity(config.entries),
            clock: 0,
            stats: WalkCacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &WalkCacheConfig {
        &self.config
    }

    /// Looks up the cached next-level table for the walk step that consumes
    /// the PTE at `level` for `va`. `level` is the level of the PTE being
    /// skipped (root = `mode.root_level()`). The mode does not enter the
    /// tag: the ASID, `level` and the VA bits above it name the step.
    pub fn lookup(
        &mut self,
        _mode: crate::TranslationMode,
        asid: u16,
        level: usize,
        va: VirtAddr,
    ) -> Option<PhysAddr> {
        let key = Self::key(asid, level, va);
        self.clock += 1;
        let clock = self.clock;
        match self.slots.iter_mut().find(|s| s.key == key) {
            Some(slot) => {
                slot.lru = clock;
                self.stats.hits += 1;
                Some(slot.table)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records that the PTE at `level` for `va` points to `table`.
    pub fn insert(
        &mut self,
        _mode: crate::TranslationMode,
        asid: u16,
        level: usize,
        va: VirtAddr,
        table: PhysAddr,
    ) {
        if self.config.entries == 0 {
            return;
        }
        let key = Self::key(asid, level, va);
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) {
            slot.table = table;
            slot.lru = clock;
            return;
        }
        let slot = Slot {
            key,
            table,
            lru: clock,
        };
        if self.slots.len() < self.config.entries {
            self.slots.push(slot);
        } else {
            let victim = self
                .slots
                .iter_mut()
                .min_by_key(|s| s.lru)
                .expect("non-empty when full");
            *victim = slot;
        }
    }

    /// Drops every cached step (on `sfence.vma` / HPMP reconfiguration).
    pub fn flush_all(&mut self) {
        self.slots.clear();
    }

    /// Drops cached steps belonging to `asid`.
    pub fn flush_asid(&mut self, asid: u16) {
        self.slots.retain(|s| s.key.asid != asid);
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> WalkCacheStats {
        self.stats
    }

    /// Clears counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = WalkCacheStats::default();
    }

    fn key(asid: u16, level: usize, va: VirtAddr) -> Key {
        // The prefix is every VPN field *above and including* `level`.
        let shift = PAGE_SHIFT as usize + 9 * level;
        Key {
            asid,
            level,
            prefix: va.raw() >> shift,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TranslationMode;

    const SV39: TranslationMode = TranslationMode::Sv39;

    #[test]
    fn hit_after_insert() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        let va = VirtAddr::new(0x4000_0000);
        assert_eq!(pwc.lookup(SV39, 1, 2, va), None);
        pwc.insert(SV39, 1, 2, va, PhysAddr::new(0x8000_0000));
        assert_eq!(pwc.lookup(SV39, 1, 2, va), Some(PhysAddr::new(0x8000_0000)));
        assert_eq!(pwc.stats(), WalkCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn same_region_same_entry() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        // Two VAs in the same 1 GiB region share the L2-level entry.
        pwc.insert(
            SV39,
            1,
            2,
            VirtAddr::new(0x0000_1000),
            PhysAddr::new(0x8000_0000),
        );
        assert!(pwc.lookup(SV39, 1, 2, VirtAddr::new(0x3fff_f000)).is_some());
        // A VA in a different 1 GiB region misses.
        assert!(pwc.lookup(SV39, 1, 2, VirtAddr::new(0x4000_0000)).is_none());
    }

    #[test]
    fn levels_are_distinct() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        let va = VirtAddr::new(0x1000);
        pwc.insert(SV39, 1, 2, va, PhysAddr::new(0x8000_0000));
        assert!(pwc.lookup(SV39, 1, 1, va).is_none());
    }

    #[test]
    fn lru_eviction() {
        let mut pwc = WalkCache::new(WalkCacheConfig {
            entries: 2,
            hit_latency: 1,
        });
        pwc.insert(SV39, 1, 2, VirtAddr::new(0 << 30), PhysAddr::new(0x1000));
        pwc.insert(SV39, 1, 2, VirtAddr::new(1 << 30), PhysAddr::new(0x2000));
        pwc.lookup(SV39, 1, 2, VirtAddr::new(0 << 30)); // refresh first
        pwc.insert(SV39, 1, 2, VirtAddr::new(2 << 30), PhysAddr::new(0x3000)); // evict second
        assert!(pwc.lookup(SV39, 1, 2, VirtAddr::new(0 << 30)).is_some());
        assert!(pwc.lookup(SV39, 1, 2, VirtAddr::new(1 << 30)).is_none());
    }

    #[test]
    fn zero_entry_cache_never_hits() {
        let mut pwc = WalkCache::new(WalkCacheConfig {
            entries: 0,
            hit_latency: 1,
        });
        pwc.insert(
            SV39,
            1,
            2,
            VirtAddr::new(0x1000),
            PhysAddr::new(0x8000_0000),
        );
        assert!(pwc.lookup(SV39, 1, 2, VirtAddr::new(0x1000)).is_none());
    }

    #[test]
    fn flush_asid_selective() {
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        pwc.insert(SV39, 1, 2, VirtAddr::new(0x1000), PhysAddr::new(0x1000));
        pwc.insert(SV39, 2, 2, VirtAddr::new(0x1000), PhysAddr::new(0x2000));
        pwc.flush_asid(1);
        assert!(pwc.lookup(SV39, 1, 2, VirtAddr::new(0x1000)).is_none());
        assert!(pwc.lookup(SV39, 2, 2, VirtAddr::new(0x1000)).is_some());
        pwc.flush_all();
        assert!(pwc.lookup(SV39, 2, 2, VirtAddr::new(0x1000)).is_none());
    }
}
