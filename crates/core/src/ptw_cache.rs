//! PMPTW-Cache: a dedicated walk cache for PMP Table entries (§8.9).
//!
//! The paper adds an 8-entry, fully-associative cache (same replacement rule
//! as the page-walk cache) in front of the PMP Table walker. We cache both
//! root pmptes (keyed by the 32 MiB slice) and leaf pmptes (keyed by the
//! 64 KiB span), so a hit on the leaf key answers the check with zero memory
//! references and a hit on only the root key costs one.
//!
//! The cache is *disabled by default* (entries = 0), matching the paper's
//! methodology ("We disable PMPTW-Cache by default, and will analyze the
//! benefits of caching in §8.9").
//!
//! Every cached pmpte is stamped with the **isolation epoch** current at
//! insert time. The monitor bumps the epoch as part of committing any
//! permission change, *before* issuing the (droppable) flush, so an entry
//! surviving a suppressed invalidation can never satisfy a lookup: a stale
//! stamp reads as a miss and forces a fresh walk.

use hpmp_memsim::Perms;

use crate::table::{LeafPmpte, RootPmpte};

/// Configuration of the PMPTW-Cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmptwCacheConfig {
    /// Number of entries (fully associative). Zero disables the cache.
    pub entries: usize,
}

impl PmptwCacheConfig {
    /// The disabled configuration (the paper's default).
    pub const DISABLED: PmptwCacheConfig = PmptwCacheConfig { entries: 0 };
    /// The enabled configuration evaluated in §8.9 (8 entries).
    pub const ENABLED_8: PmptwCacheConfig = PmptwCacheConfig { entries: 8 };
}

impl Default for PmptwCacheConfig {
    fn default() -> PmptwCacheConfig {
        PmptwCacheConfig::DISABLED
    }
}

/// Counters for the PMPTW-Cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmptwCacheStats {
    /// Checks answered entirely from a cached leaf pmpte.
    pub leaf_hits: u64,
    /// Checks that skipped the root read via a cached root pmpte.
    pub root_hits: u64,
    /// Checks that found nothing cached.
    pub misses: u64,
    /// Lookups that matched an entry from a previous isolation epoch — a
    /// dropped invalidation caught by the epoch stamp.
    pub stale: u64,
}

impl hpmp_trace::Counters for PmptwCacheStats {
    const NAMES: &'static [&'static str] = &["leaf_hits", "root_hits", "misses", "stale"];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [self.leaf_hits, self.root_hits, self.misses, self.stale]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CachedEntry {
    Root {
        entry_idx: usize,
        slice: u64,
        pmpte: RootPmpte,
    },
    Leaf {
        entry_idx: usize,
        span: u64,
        pmpte: LeafPmpte,
    },
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    entry: CachedEntry,
    lru: u64,
    /// Isolation epoch at insert time; entries from older epochs never hit.
    epoch: u64,
}

/// The PMPTW-Cache.
///
/// Keys are scoped by the HPMP entry index, since two table-mode entries may
/// protect overlapping offset spaces in different regions.
#[derive(Clone, Debug)]
pub struct PmptwCache {
    config: PmptwCacheConfig,
    slots: Vec<Slot>,
    clock: u64,
    epoch: u64,
    stats: PmptwCacheStats,
}

impl PmptwCache {
    /// Builds a cache; `PmptwCacheConfig::DISABLED` yields a no-op cache.
    pub fn new(config: PmptwCacheConfig) -> PmptwCache {
        PmptwCache {
            config,
            slots: Vec::with_capacity(config.entries),
            clock: 0,
            epoch: 0,
            stats: PmptwCacheStats::default(),
        }
    }

    /// Convenience: the disabled cache.
    pub fn disabled() -> PmptwCache {
        PmptwCache::new(PmptwCacheConfig::DISABLED)
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &PmptwCacheConfig {
        &self.config
    }

    /// True if the cache can never hit.
    pub fn is_disabled(&self) -> bool {
        self.config.entries == 0
    }

    /// Looks up the leaf pmpte covering `offset` (region-relative) for HPMP
    /// entry `entry_idx`. Returns the per-page permission on a hit.
    pub fn lookup_leaf(&mut self, entry_idx: usize, offset: u64) -> Option<Perms> {
        let span = offset >> 16;
        let page_index = ((offset >> 12) & 0xf) as usize;
        self.clock += 1;
        let clock = self.clock;
        let epoch = self.epoch;
        let slot = self.slots.iter_mut().find(|s| {
            matches!(s.entry,
                CachedEntry::Leaf { entry_idx: e, span: sp, .. } if e == entry_idx && sp == span)
        })?;
        if slot.epoch != epoch {
            self.stats.stale += 1;
            return None;
        }
        slot.lru = clock;
        let CachedEntry::Leaf { pmpte, .. } = slot.entry else {
            unreachable!()
        };
        self.stats.leaf_hits += 1;
        Some(pmpte.perm(page_index))
    }

    /// Looks up the root pmpte covering `offset` for HPMP entry `entry_idx`.
    pub fn lookup_root(&mut self, entry_idx: usize, offset: u64) -> Option<RootPmpte> {
        let slice = offset >> 25;
        self.clock += 1;
        let clock = self.clock;
        let epoch = self.epoch;
        let slot = self.slots.iter_mut().find(|s| {
            matches!(s.entry,
                CachedEntry::Root { entry_idx: e, slice: sl, .. } if e == entry_idx && sl == slice)
        })?;
        if slot.epoch != epoch {
            self.stats.stale += 1;
            return None;
        }
        slot.lru = clock;
        let CachedEntry::Root { pmpte, .. } = slot.entry else {
            unreachable!()
        };
        self.stats.root_hits += 1;
        Some(pmpte)
    }

    /// Records a full miss (for the hit-rate statistics).
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Caches a root pmpte read from memory.
    pub fn insert_root(&mut self, entry_idx: usize, offset: u64, pmpte: RootPmpte) {
        self.insert(CachedEntry::Root {
            entry_idx,
            slice: offset >> 25,
            pmpte,
        });
    }

    /// Caches a leaf pmpte read from memory.
    pub fn insert_leaf(&mut self, entry_idx: usize, offset: u64, pmpte: LeafPmpte) {
        self.insert(CachedEntry::Leaf {
            entry_idx,
            span: offset >> 16,
            pmpte,
        });
    }

    /// Drops everything (on any PMP-Table or HPMP-register update).
    pub fn flush_all(&mut self) {
        self.slots.clear();
    }

    /// Advances the isolation epoch: every currently cached pmpte becomes
    /// unhittable even if the subsequent flush is dropped by a fault. The
    /// monitor calls this as part of *committing* a permission change, the
    /// flush being only the cleanup half.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The current isolation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> PmptwCacheStats {
        self.stats
    }

    /// Clears counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = PmptwCacheStats::default();
    }

    fn insert(&mut self, entry: CachedEntry) {
        if self.config.entries == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        // Replace an existing slot with the same key if present.
        let same_key = |e: &CachedEntry| match (*e, entry) {
            (
                CachedEntry::Root {
                    entry_idx: a,
                    slice: b,
                    ..
                },
                CachedEntry::Root {
                    entry_idx: c,
                    slice: d,
                    ..
                },
            ) => a == c && b == d,
            (
                CachedEntry::Leaf {
                    entry_idx: a,
                    span: b,
                    ..
                },
                CachedEntry::Leaf {
                    entry_idx: c,
                    span: d,
                    ..
                },
            ) => a == c && b == d,
            _ => false,
        };
        let epoch = self.epoch;
        if let Some(slot) = self.slots.iter_mut().find(|s| same_key(&s.entry)) {
            slot.entry = entry;
            slot.lru = clock;
            slot.epoch = epoch;
            return;
        }
        let slot = Slot {
            entry,
            lru: clock,
            epoch,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = PmptwCache::disabled();
        assert!(c.is_disabled());
        c.insert_leaf(0, 0x1_0000, LeafPmpte::splat(Perms::RW));
        assert_eq!(c.lookup_leaf(0, 0x1_0000), None);
    }

    #[test]
    fn leaf_hit_returns_page_perm() {
        let mut c = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        let pmpte = LeafPmpte::default().with_perm(3, Perms::RX);
        c.insert_leaf(2, 0x5_0000, pmpte);
        // Same 64 KiB span, page 3 => RX, page 4 => NONE.
        assert_eq!(c.lookup_leaf(2, 0x5_3000), Some(Perms::RX));
        assert_eq!(c.lookup_leaf(2, 0x5_4000), Some(Perms::NONE));
        // Different span misses.
        assert_eq!(c.lookup_leaf(2, 0x6_0000), None);
        // Different HPMP entry misses.
        assert_eq!(c.lookup_leaf(3, 0x5_3000), None);
    }

    #[test]
    fn root_hit_scoped_by_slice() {
        let mut c = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        let pmpte = RootPmpte::huge(Perms::RW);
        c.insert_root(1, 0, pmpte);
        assert_eq!(c.lookup_root(1, 0x100_0000), Some(pmpte)); // same 32 MiB slice
        assert_eq!(c.lookup_root(1, 0x200_0000), None); // next slice
    }

    #[test]
    fn lru_eviction() {
        let mut c = PmptwCache::new(PmptwCacheConfig { entries: 2 });
        c.insert_leaf(0, 0 << 16, LeafPmpte::splat(Perms::READ));
        c.insert_leaf(0, 1 << 16, LeafPmpte::splat(Perms::READ));
        c.lookup_leaf(0, 0); // refresh first
        c.insert_leaf(0, 2 << 16, LeafPmpte::splat(Perms::READ)); // evict span 1
        assert!(c.lookup_leaf(0, 0).is_some());
        assert!(c.lookup_leaf(0, 1 << 16).is_none());
        assert!(c.lookup_leaf(0, 2 << 16).is_some());
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        c.insert_leaf(0, 0, LeafPmpte::splat(Perms::RW));
        c.flush_all();
        assert_eq!(c.lookup_leaf(0, 0), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        c.insert_leaf(0, 0, LeafPmpte::splat(Perms::RW));
        c.lookup_leaf(0, 0);
        c.lookup_leaf(0, 1 << 16);
        c.record_miss();
        let s = c.stats();
        assert_eq!(s.leaf_hits, 1);
        assert_eq!(s.misses, 1);
        c.reset_stats();
        assert_eq!(c.stats(), PmptwCacheStats::default());
    }

    #[test]
    fn stale_epoch_entries_never_hit() {
        let mut c = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        c.insert_leaf(0, 0, LeafPmpte::splat(Perms::RW));
        c.insert_root(1, 0, RootPmpte::huge(Perms::RW));
        // Epoch bump with the flush dropped: entries survive physically but
        // must read as misses.
        c.advance_epoch();
        assert_eq!(c.lookup_leaf(0, 0), None);
        assert_eq!(c.lookup_root(1, 0), None);
        assert_eq!(c.stats().stale, 2);
        // Re-inserting under the new epoch hits again.
        c.insert_leaf(0, 0, LeafPmpte::splat(Perms::READ));
        assert_eq!(c.lookup_leaf(0, 0), Some(Perms::READ));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn same_key_insert_updates_in_place() {
        let mut c = PmptwCache::new(PmptwCacheConfig { entries: 1 });
        c.insert_leaf(0, 0, LeafPmpte::splat(Perms::READ));
        c.insert_leaf(0, 0, LeafPmpte::splat(Perms::RW));
        assert_eq!(c.lookup_leaf(0, 0), Some(Perms::RW));
    }
}
