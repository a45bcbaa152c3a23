//! PMPTW-Cache: a dedicated walk cache for PMP Table entries (§8.9).
//!
//! The paper adds an 8-entry, fully-associative cache (same replacement rule
//! as the page-walk cache) in front of the PMP Table walker. Here it is the
//! very store the PWC uses, an exact-LRU [`LruMap`]. We cache both root
//! pmptes (keyed by the 32 MiB slice) and leaf pmptes (keyed by the 64 KiB
//! span), so a hit on the leaf key answers the check with zero memory
//! references and a hit on only the root key costs one. An entry keeps the
//! pmpte's raw bits, decoded again on a hit.
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

use hpmp_memsim::{LruEntry, LruMap, Perms};

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

/// What a cached pmpte covers: a root pmpte's 32 MiB slice or a leaf
/// pmpte's 64 KiB span, each under one HPMP entry index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Key {
    Root(usize, u64),
    Leaf(usize, u64),
}

/// One cached pmpte, with the isolation epoch current at insert time;
/// entries from older epochs never hit.
#[derive(Clone, Copy, Debug)]
struct Cached {
    key: Key,
    bits: u64,
    epoch: u64,
}

impl LruEntry for Cached {
    type Key = Key;

    fn key(&self) -> Key {
        self.key
    }

    fn mix(key: Key) -> u64 {
        let (Key::Root(entry_idx, at) | Key::Leaf(entry_idx, at)) = key;
        at ^ ((entry_idx as u64) << 40)
    }
}

/// The PMPTW-Cache.
///
/// Keys are scoped by the HPMP entry index, since two table-mode entries may
/// protect overlapping offset spaces in different regions.
#[derive(Clone, Debug)]
pub struct PmptwCache {
    config: PmptwCacheConfig,
    slots: LruMap<Cached>,
    epoch: u64,
    stats: PmptwCacheStats,
}

impl PmptwCache {
    /// Builds a cache; `PmptwCacheConfig::DISABLED` yields a no-op cache.
    ///
    /// # Panics
    ///
    /// Panics if `entries` exceeds [`hpmp_memsim::LRU_MAX_ENTRIES`].
    pub fn new(config: PmptwCacheConfig) -> PmptwCache {
        PmptwCache {
            config,
            slots: LruMap::new(config.entries),
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
        let bits = self.lookup(Key::Leaf(entry_idx, offset >> 16))?;
        self.stats.leaf_hits += 1;
        Some(LeafPmpte::from_bits(bits).perm(((offset >> 12) & 0xf) as usize))
    }

    /// Looks up the root pmpte covering `offset` for HPMP entry `entry_idx`.
    pub fn lookup_root(&mut self, entry_idx: usize, offset: u64) -> Option<RootPmpte> {
        let bits = self.lookup(Key::Root(entry_idx, offset >> 25))?;
        self.stats.root_hits += 1;
        Some(RootPmpte::from_bits(bits))
    }

    /// Records a full miss (for the hit-rate statistics).
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Caches a root pmpte read from memory.
    pub fn insert_root(&mut self, entry_idx: usize, offset: u64, pmpte: RootPmpte) {
        self.insert(Key::Root(entry_idx, offset >> 25), pmpte.to_bits());
    }

    /// Caches a leaf pmpte read from memory.
    pub fn insert_leaf(&mut self, entry_idx: usize, offset: u64, pmpte: LeafPmpte) {
        self.insert(Key::Leaf(entry_idx, offset >> 16), pmpte.to_bits());
    }

    /// Drops everything (on any PMP-Table or HPMP-register update).
    #[inline]
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

    /// The bits cached under `key`, touched, if they are from the current
    /// epoch; a stale match counts `stale` and is left untouched.
    fn lookup(&mut self, key: Key) -> Option<u64> {
        let (i, cached) = self.slots.find(key)?;
        if cached.epoch != self.epoch {
            self.stats.stale += 1;
            return None;
        }
        self.slots.touch(i);
        Some(cached.bits)
    }

    /// Caches `bits` under `key` in the current epoch, replacing any entry
    /// with the same key.
    fn insert(&mut self, key: Key, bits: u64) {
        self.slots.insert(Cached {
            key,
            bits,
            epoch: self.epoch,
        });
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
