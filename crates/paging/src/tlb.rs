//! Two-level TLB with permission inlining.
//!
//! The paper's "TLB inlining" optimisation stores the permission fetched from
//! the isolation layer (PMP / PMP Table / HPMP) inside the TLB entry, so a
//! TLB hit requires no permission walk at all — in both the baseline and
//! HPMP configurations. [`TlbEntry::isolation_perms`] is that inlined value.
//!
//! The geometry mirrors Table 1: a 32-entry fully-associative L1 TLB and a
//! 1024-entry direct-mapped L2 TLB.
//!
//! A full flush costs O(1) host time however large the L2 is: every L2 slot
//! carries the flush generation it was filled in, and [`Tlb::flush_all`]
//! moves the generation on instead of rewriting the array. Every monitor
//! operation flushes every hart's D- and I-TLB, so this is the difference
//! between a few counter bumps and thousands of slot writes per operation.
//!
//! The L1 is an [`LruMap`]: it finds, touches, fills and evicts in O(1)
//! host time, and its replacement policy is exact LRU.

use hpmp_memsim::{LruEntry, LruMap, Perms, PhysAddr, VirtAddr, PAGE_SHIFT};

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Address-space identifier.
    pub asid: u16,
    /// Virtual page number.
    pub vpn: u64,
    /// Physical frame base the page maps to.
    pub frame: PhysAddr,
    /// Page permissions from the leaf PTE.
    pub page_perms: Perms,
    /// Inlined physical-isolation permissions (from PMP/PMP Table/HPMP).
    pub isolation_perms: Perms,
    /// Whether the mapping is user-accessible.
    pub user: bool,
    /// Isolation epoch at fill time. [`Tlb::fill`] stamps this with the
    /// TLB's current epoch (callers pass 0); entries from older epochs read
    /// as misses, so a dropped invalidation degrades to a re-walk rather
    /// than a stale grant.
    pub epoch: u64,
}

impl LruEntry for TlbEntry {
    type Key = (u16, u64);

    fn key(&self) -> (u16, u64) {
        (self.asid, self.vpn)
    }

    fn mix((asid, vpn): (u16, u64)) -> u64 {
        vpn ^ (u64::from(asid) << 48)
    }
}

/// Where a TLB lookup hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbHit {
    /// Hit in the L1 (fully associative) TLB.
    L1,
    /// Hit in the L2 TLB (entry promoted to L1).
    L2,
}

/// Counters for one TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that the L2 caught).
    pub l2_hits: u64,
    /// Full misses (page walk required).
    pub misses: u64,
    /// Flush operations performed.
    pub flushes: u64,
    /// Lookups that matched an entry from a previous isolation epoch — a
    /// dropped invalidation caught by the epoch stamp.
    pub stale: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.misses
    }

    /// Overall hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.l1_hits + self.l2_hits) as f64 / lookups as f64
        }
    }
}

impl hpmp_trace::Counters for TlbStats {
    const NAMES: &'static [&'static str] = &["l1_hits", "l2_hits", "misses", "flushes", "stale"];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [
            self.l1_hits,
            self.l2_hits,
            self.misses,
            self.flushes,
            self.stale,
        ]
    }
}

/// Configuration of the two TLB levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Entries in the fully-associative L1.
    pub l1_entries: usize,
    /// Entries in the direct-mapped L2 (must be a power of two).
    pub l2_entries: usize,
    /// Extra cycles for a lookup that is satisfied by the L2 TLB.
    pub l2_hit_latency: u64,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            l1_entries: 32,
            l2_entries: 1024,
            l2_hit_latency: 4,
        }
    }
}

/// One direct-mapped L2 slot. It holds `entry` only while `generation`
/// equals the TLB's flush generation.
#[derive(Clone, Copy, Debug)]
struct L2Slot {
    entry: TlbEntry,
    generation: u64,
}

impl L2Slot {
    /// An empty slot: generation 0, which no TLB generation ever equals.
    const EMPTY: L2Slot = L2Slot {
        entry: TlbEntry {
            asid: 0,
            vpn: 0,
            frame: PhysAddr::new(0),
            page_perms: Perms::NONE,
            isolation_perms: Perms::NONE,
            user: false,
            epoch: 0,
        },
        generation: 0,
    };
}

/// A two-level data TLB.
///
/// ```
/// use hpmp_memsim::{Perms, PhysAddr, VirtAddr};
/// use hpmp_paging::{Tlb, TlbConfig, TlbEntry};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_none());
/// tlb.fill(TlbEntry {
///     asid: 1, vpn: 1, frame: PhysAddr::new(0x8000_0000),
///     page_perms: Perms::RW, isolation_perms: Perms::RWX, user: true,
///     epoch: 0,
/// });
/// assert!(tlb.lookup(1, VirtAddr::new(0x1abc)).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    l1: LruMap<TlbEntry>,
    l2: Vec<L2Slot>,
    /// Flush generation, starting at 1: an L2 slot is live only while it
    /// carries this value.
    generation: u64,
    epoch: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `l2_entries` is not a power of two, either size is zero, or
    /// `l1_entries` exceeds [`hpmp_memsim::LRU_MAX_ENTRIES`].
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.l1_entries > 0, "L1 TLB needs entries");
        assert!(
            config.l2_entries.is_power_of_two(),
            "L2 TLB must be a power of two"
        );
        Tlb {
            config,
            l1: LruMap::new(config.l1_entries),
            l2: vec![L2Slot::EMPTY; config.l2_entries],
            generation: 1,
            epoch: 0,
            stats: TlbStats::default(),
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Looks up `(asid, va)`; on an L2 hit the entry is promoted to L1.
    /// Entries stamped with an older isolation epoch read as misses.
    pub fn lookup(&mut self, asid: u16, va: VirtAddr) -> Option<(TlbEntry, TlbHit)> {
        let vpn = va.page_number();
        let epoch = self.epoch;
        if let Some((i, entry)) = self.l1.find((asid, vpn)) {
            if entry.epoch != epoch {
                self.stats.stale += 1;
                self.stats.misses += 1;
                return None;
            }
            self.l1.touch(i);
            self.stats.l1_hits += 1;
            return Some((entry, TlbHit::L1));
        }
        if let Some(entry) = self.l2_match(asid, vpn) {
            if entry.epoch != epoch {
                self.stats.stale += 1;
                self.stats.misses += 1;
                return None;
            }
            self.stats.l2_hits += 1;
            self.l1.insert(entry);
            return Some((entry, TlbHit::L2));
        }
        self.stats.misses += 1;
        None
    }

    /// Installs a translation in both levels (as a PTW refill does),
    /// stamping it with the current isolation epoch.
    pub fn fill(&mut self, entry: TlbEntry) {
        let entry = TlbEntry {
            epoch: self.epoch,
            ..entry
        };
        let idx = self.l2_index(entry.vpn);
        self.l2[idx] = L2Slot {
            entry,
            generation: self.generation,
        };
        self.l1.insert(entry);
    }

    /// Advances the isolation epoch: every current entry becomes unhittable
    /// even if the subsequent flush is dropped by a fault. The monitor calls
    /// this as part of *committing* a permission change, the flush being
    /// only the cleanup half.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// `sfence.vma` with no arguments / HPMP reconfiguration: drop
    /// everything. O(L1 slots in use), never O(L1 index size): the L1
    /// resets only the buckets its slots hash to, and the flush generation
    /// moves on, which empties every L2 slot at once.
    #[inline]
    pub fn flush_all(&mut self) {
        self.l1.clear();
        self.generation += 1;
        self.stats.flushes += 1;
    }

    /// `sfence.vma` with an ASID: drop entries belonging to `asid`.
    pub fn flush_asid(&mut self, asid: u16) {
        self.l1.retain(|e| e.asid != asid);
        let generation = self.generation;
        for slot in &mut self.l2 {
            if slot.generation == generation && slot.entry.asid == asid {
                *slot = L2Slot::EMPTY;
            }
        }
        self.stats.flushes += 1;
    }

    /// `sfence.vma` with an address: drop the entry covering `va` in `asid`.
    pub fn flush_page(&mut self, asid: u16, va: VirtAddr) {
        let vpn = va.page_number();
        if let Some((i, _)) = self.l1.find((asid, vpn)) {
            self.l1.remove(i);
        }
        if self.l2_match(asid, vpn).is_some() {
            let idx = self.l2_index(vpn);
            self.l2[idx] = L2Slot::EMPTY;
        }
        self.stats.flushes += 1;
    }

    /// Lookup counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Clears counters without touching entries.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// The live L2 entry for `(asid, vpn)`, whatever its epoch.
    fn l2_match(&self, asid: u16, vpn: u64) -> Option<TlbEntry> {
        let slot = self.l2[self.l2_index(vpn)];
        (slot.generation == self.generation && slot.entry.asid == asid && slot.entry.vpn == vpn)
            .then_some(slot.entry)
    }

    /// Direct-mapped, indexed by VPN (the ASID only disambiguates on
    /// compare, as in a physically-small direct-mapped structure).
    fn l2_index(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.config.l2_entries - 1)
    }
}

/// Reconstructs the full physical address for `va` from a TLB entry.
pub fn apply_translation(entry: &TlbEntry, va: VirtAddr) -> PhysAddr {
    PhysAddr::new((entry.frame.page_number() << PAGE_SHIFT) | va.page_offset())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asid: u16, vpn: u64) -> TlbEntry {
        TlbEntry {
            asid,
            vpn,
            frame: PhysAddr::new(vpn << PAGE_SHIFT),
            page_perms: Perms::RW,
            isolation_perms: Perms::RWX,
            user: true,
            epoch: 0,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_none());
        tlb.fill(entry(1, 1));
        let (e, hit) = tlb.lookup(1, VirtAddr::new(0x1fff)).unwrap();
        assert_eq!(hit, TlbHit::L1);
        assert_eq!(
            apply_translation(&e, VirtAddr::new(0x1fff)),
            PhysAddr::new(0x1fff)
        );
    }

    #[test]
    fn asid_disambiguation() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.fill(entry(1, 1));
        assert!(tlb.lookup(2, VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_some());
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let cfg = TlbConfig {
            l1_entries: 2,
            l2_entries: 16,
            l2_hit_latency: 4,
        };
        let mut tlb = Tlb::new(cfg);
        tlb.fill(entry(1, 1));
        tlb.fill(entry(1, 2));
        tlb.fill(entry(1, 3)); // evicts vpn=1 from L1
        let (_, hit) = tlb.lookup(1, VirtAddr::new(0x1000)).unwrap();
        assert_eq!(hit, TlbHit::L2);
        // Promoted back to L1 now.
        let (_, hit) = tlb.lookup(1, VirtAddr::new(0x1000)).unwrap();
        assert_eq!(hit, TlbHit::L1);
    }

    #[test]
    fn l2_direct_mapped_conflict() {
        let cfg = TlbConfig {
            l1_entries: 1,
            l2_entries: 4,
            l2_hit_latency: 4,
        };
        let mut tlb = Tlb::new(cfg);
        tlb.fill(entry(1, 0));
        tlb.fill(entry(1, 4)); // same L2 slot (0 % 4 == 4 % 4), evicts vpn=0 from L2
        tlb.fill(entry(1, 9)); // push vpn=4 out of tiny L1 too
        assert!(tlb.lookup(1, VirtAddr::new(0)).is_none());
    }

    #[test]
    fn flush_variants() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.fill(entry(1, 1));
        tlb.fill(entry(1, 2));
        tlb.fill(entry(2, 3));
        tlb.flush_page(1, VirtAddr::new(0x1000));
        assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(1, VirtAddr::new(0x2000)).is_some());
        tlb.flush_asid(1);
        assert!(tlb.lookup(1, VirtAddr::new(0x2000)).is_none());
        assert!(tlb.lookup(2, VirtAddr::new(0x3000)).is_some());
        tlb.flush_all();
        assert!(tlb.lookup(2, VirtAddr::new(0x3000)).is_none());
        assert_eq!(tlb.stats().flushes, 3);
    }

    #[test]
    fn flush_all_empties_the_l2_until_refilled() {
        // With a one-entry L1, every older fill lives in the L2 only.
        let mut tlb = Tlb::new(TlbConfig {
            l1_entries: 1,
            l2_entries: 16,
            l2_hit_latency: 4,
        });
        tlb.fill(entry(1, 1));
        tlb.fill(entry(1, 2));
        tlb.flush_all();
        tlb.fill(entry(1, 3));
        assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(1, VirtAddr::new(0x2000)).is_none());
        assert_eq!(tlb.stats().stale, 0, "a flushed entry is gone, not stale");
        // A refill of a flushed slot is live again, in the L2 too.
        tlb.fill(entry(1, 1));
        tlb.fill(entry(1, 4));
        let (_, hit) = tlb.lookup(1, VirtAddr::new(0x1000)).unwrap();
        assert_eq!(hit, TlbHit::L2);
    }

    #[test]
    fn epoch_advance_invalidates_without_flush() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.fill(entry(1, 1));
        // Simulate a dropped invalidation: the epoch advances (part of the
        // permission-change commit) but no flush ever runs.
        tlb.advance_epoch();
        assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_none());
        assert_eq!(tlb.stats().stale, 1);
        // A refill under the new epoch hits again.
        tlb.fill(entry(1, 1));
        assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_some());
        assert_eq!(tlb.epoch, 1);
        // The L2 copy of the old entry is equally unhittable: evict the L1
        // copy and check.
        let mut tlb = Tlb::new(TlbConfig {
            l1_entries: 1,
            l2_entries: 16,
            l2_hit_latency: 4,
        });
        tlb.fill(entry(1, 1));
        tlb.advance_epoch();
        tlb.fill(entry(1, 2)); // evicts vpn=1 from the 1-entry L1
        assert!(tlb.lookup(1, VirtAddr::new(0x1000)).is_none());
        assert!(tlb.stats().stale >= 1);
    }

    #[test]
    fn stats_track_levels() {
        let cfg = TlbConfig {
            l1_entries: 1,
            l2_entries: 16,
            l2_hit_latency: 4,
        };
        let mut tlb = Tlb::new(cfg);
        tlb.fill(entry(1, 1));
        tlb.fill(entry(1, 2)); // vpn=1 falls back to L2 only
        tlb.lookup(1, VirtAddr::new(0x1000)); // L2 hit
        tlb.lookup(1, VirtAddr::new(0x5000)); // miss
        let s = tlb.stats();
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.misses, 1);
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);
    }
}
