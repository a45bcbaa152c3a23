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
//! The L1 finds, touches, fills and evicts in O(1) host time: a hashed tag
//! index finds the slot and an intrusive recency list names the victim.
//! Its replacement policy is exact LRU, the victim a scan for the oldest
//! touch would pick.

use hpmp_memsim::{Perms, PhysAddr, VirtAddr, PAGE_SHIFT};

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

/// Link value meaning "no slot".
const NIL: u16 = u16::MAX;
/// Bucket heads in the L1 tag index: twice the shipped 32-entry L1, so a
/// probe meets about one tag. A power of two, and small enough that a
/// bucket number fits the slot's `u8`.
const L1_BUCKETS: usize = 64;
const _: () = assert!(L1_BUCKETS.is_power_of_two() && L1_BUCKETS <= 256);

/// One L1 slot with its links. A slot is on exactly one of two lists: the
/// recency list and its hash bucket's chain while live, the free list
/// (through `next`) once removed.
#[derive(Clone, Copy, Debug)]
struct L1Slot {
    entry: TlbEntry,
    /// Next slot in the same hash bucket.
    chain: u16,
    /// More recently used neighbour.
    prev: u16,
    /// Less recently used neighbour (next free slot while free).
    next: u16,
    /// The hash bucket of `entry`'s tag.
    bucket: u8,
}

/// The fully-associative L1: slots in one `Vec` allocated once, a hashed
/// tag index over them, and an intrusive recency list with the most
/// recently used slot at `head` and the victim at `tail`.
///
/// Every touch moves a slot to the head, so the tail is always the least
/// recently touched slot; removals unlink a slot and leave the order of
/// the rest as it was.
#[derive(Clone, Debug)]
struct L1 {
    capacity: usize,
    slots: Vec<L1Slot>,
    buckets: [u16; L1_BUCKETS],
    head: u16,
    tail: u16,
    free: u16,
}

impl L1 {
    fn new(capacity: usize) -> L1 {
        assert!(capacity < NIL as usize, "L1 TLB slots are u16-linked");
        L1 {
            capacity,
            slots: Vec::with_capacity(capacity),
            buckets: [NIL; L1_BUCKETS],
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Multiplicative (Fibonacci) hash of the tag onto a bucket.
    fn bucket(asid: u16, vpn: u64) -> usize {
        let key = vpn ^ (u64::from(asid) << 48);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - L1_BUCKETS.trailing_zeros())) as usize
    }

    /// The live slot holding `(asid, vpn)`, whatever its epoch; `bucket`
    /// is the tag's [`L1::bucket`].
    fn find(&self, bucket: usize, asid: u16, vpn: u64) -> Option<usize> {
        let mut i = self.buckets[bucket];
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.entry.vpn == vpn && slot.entry.asid == asid {
                return Some(i as usize);
            }
            i = slot.chain;
        }
        None
    }

    /// Makes slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.head as usize != i {
            self.unlink(i);
            self.slots[i].prev = NIL;
            self.slots[i].next = self.head;
            self.link_head(i);
        }
    }

    /// Installs `entry`: in place (and touched) if its tag is present,
    /// otherwise in a fresh slot.
    fn insert(&mut self, entry: TlbEntry) {
        let bucket = Self::bucket(entry.asid, entry.vpn);
        match self.find(bucket, entry.asid, entry.vpn) {
            Some(i) => {
                self.slots[i].entry = entry;
                self.touch(i);
            }
            None => self.push(bucket, entry),
        }
    }

    /// Installs `entry`, whose tag is absent and hashes to `bucket`, as
    /// the most recently used slot: a free slot if there is one, else the
    /// least recently used.
    fn push(&mut self, bucket: usize, entry: TlbEntry) {
        let i = if self.free != NIL {
            let i = self.free as usize;
            self.free = self.slots[i].next;
            i
        } else if self.slots.len() < self.capacity {
            self.slots.len()
        } else {
            let victim = self.tail as usize;
            self.unchain(victim);
            self.unlink(victim);
            victim
        };
        let slot = L1Slot {
            entry,
            chain: self.buckets[bucket],
            prev: NIL,
            next: self.head,
            bucket: bucket as u8,
        };
        if i == self.slots.len() {
            self.slots.push(slot);
        } else {
            self.slots[i] = slot;
        }
        self.buckets[bucket] = i as u16;
        self.link_head(i);
    }

    /// Removes live slot `i` onto the free list, keeping the recency
    /// order of the rest.
    fn remove(&mut self, i: usize) {
        self.unchain(i);
        self.unlink(i);
        self.slots[i].next = self.free;
        self.free = i as u16;
    }

    /// Removes every live slot whose entry fails `keep`, in O(live slots)
    /// and without allocating.
    fn retain(&mut self, keep: impl Fn(&TlbEntry) -> bool) {
        let mut i = self.head;
        while i != NIL {
            let next = self.slots[i as usize].next;
            if !keep(&self.slots[i as usize].entry) {
                self.remove(i as usize);
            }
            i = next;
        }
    }

    /// Empties the L1 in O(slots in use): only the buckets those slots
    /// hashed to are reset, never the whole index. (A free slot's bucket
    /// may be reset too; everything is emptied anyway.)
    fn clear(&mut self) {
        for slot in &self.slots {
            self.buckets[slot.bucket as usize] = NIL;
        }
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Takes live slot `i` out of its bucket's chain.
    fn unchain(&mut self, i: usize) {
        let L1Slot { chain, bucket, .. } = self.slots[i];
        let mut j = self.buckets[bucket as usize];
        if j as usize == i {
            self.buckets[bucket as usize] = chain;
            return;
        }
        while self.slots[j as usize].chain as usize != i {
            j = self.slots[j as usize].chain;
        }
        self.slots[j as usize].chain = chain;
    }

    /// Takes live slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let L1Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Makes slot `i`, whose `prev` (NIL) and `next` (the old head) are
    /// already set, the head of the recency list.
    fn link_head(&mut self, i: usize) {
        match self.head {
            NIL => self.tail = i as u16,
            h => self.slots[h as usize].prev = i as u16,
        }
        self.head = i as u16;
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
    l1: L1,
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
    /// `l1_entries` does not fit the L1's 16-bit links.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.l1_entries > 0, "L1 TLB needs entries");
        assert!(
            config.l2_entries.is_power_of_two(),
            "L2 TLB must be a power of two"
        );
        Tlb {
            config,
            l1: L1::new(config.l1_entries),
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
        let bucket = L1::bucket(asid, vpn);
        if let Some(i) = self.l1.find(bucket, asid, vpn) {
            let entry = self.l1.slots[i].entry;
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
            self.l1.push(bucket, entry);
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

    /// The current isolation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
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
        if let Some(i) = self.l1.find(L1::bucket(asid, vpn), asid, vpn) {
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
        assert_eq!(tlb.epoch(), 1);
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
