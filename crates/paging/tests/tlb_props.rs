//! Randomised tests: the two-level TLB and the page-walk cache against
//! reference models, and walk determinism under arbitrary PWC state. Driven by the in-repo
//! [`SplitMix64`] PRNG with fixed seeds, so every run is deterministic and
//! reproducible.

use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, PhysMem, SplitMix64, VirtAddr, PAGE_SIZE};
use hpmp_paging::{
    walk, AddressSpace, Tlb, TlbConfig, TlbEntry, TlbHit, TlbStats, TranslationMode, WalkCache,
    WalkCacheConfig, WalkCacheStats, GSTAGE_VMID,
};

fn entry(asid: u16, vpn: u64) -> TlbEntry {
    TlbEntry {
        asid,
        vpn,
        frame: PhysAddr::new(vpn << 12),
        page_perms: Perms::RW,
        isolation_perms: Perms::RWX,
        user: true,
        epoch: 0,
    }
}

#[test]
fn flush_scoping() {
    let mut rng = SplitMix64::seed_from_u64(0x71b1);
    for _ in 0..128 {
        let mut tlb = Tlb::new(TlbConfig {
            l1_entries: 64,
            l2_entries: 1024,
            l2_hit_latency: 4,
        });
        let len = rng.gen_range(1..48) as usize;
        let fills: Vec<(u16, u64)> = (0..len)
            .map(|_| (rng.gen_range(0..4) as u16, rng.gen_range(0..64)))
            .collect();
        let flush_asid = rng.gen_range(0..4) as u16;
        for &(asid, vpn) in &fills {
            tlb.fill(entry(asid, vpn));
        }
        tlb.flush_asid(flush_asid);
        for &(asid, vpn) in &fills {
            let hit = tlb.lookup(asid, VirtAddr::new(vpn << 12)).is_some();
            if asid == flush_asid {
                assert!(!hit, "asid {asid} vpn {vpn} must be flushed");
            }
            // Survivors may still have been evicted by capacity, so only
            // the flushed direction is asserted.
        }
    }
}

#[test]
fn fills_are_faithful() {
    let mut rng = SplitMix64::seed_from_u64(0x71b2);
    for _ in 0..128 {
        let mut tlb = Tlb::new(TlbConfig {
            l1_entries: 64,
            l2_entries: 1024,
            l2_hit_latency: 4,
        });
        let len = rng.gen_range(1..32) as usize;
        let fills: Vec<(u16, u64)> = (0..len)
            .map(|_| (rng.gen_range(0..4) as u16, rng.gen_range(0..512)))
            .collect();
        for &(asid, vpn) in &fills {
            tlb.fill(entry(asid, vpn));
        }
        // Direct-mapped L2 conflicts only occur for equal vpn%1024; with
        // vpn < 512 every (asid, vpn) pair with distinct vpn coexists —
        // same-vpn different-asid pairs can conflict, so check only the
        // most recent fill per vpn.
        let mut latest_by_vpn = std::collections::HashMap::new();
        for &(asid, vpn) in &fills {
            latest_by_vpn.insert(vpn, asid);
        }
        for (&vpn, &asid) in &latest_by_vpn {
            let hit = tlb.lookup(asid, VirtAddr::new(vpn << 12));
            assert!(hit.is_some(), "latest fill for vpn {vpn} lost");
            let (e, _) = hit.unwrap();
            assert_eq!(e.frame, PhysAddr::new(vpn << 12));
        }
    }
}

/// The TLB as a plain model: an L1 that scans for its tags and for the
/// oldest timestamp, and an L2 of `Option` slots that every flush rewrites
/// in full. The real TLB indexes its L1 by hash, evicts the tail of a
/// recency list, and empties its L2 by moving a generation on instead; it
/// must be indistinguishable from this, outcome for outcome and counter
/// for counter.
struct RefTlb {
    l1_entries: usize,
    l1: Vec<(TlbEntry, u64)>,
    l2: Vec<Option<TlbEntry>>,
    clock: u64,
    epoch: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn new(config: TlbConfig) -> RefTlb {
        RefTlb {
            l1_entries: config.l1_entries,
            l1: Vec::new(),
            l2: vec![None; config.l2_entries],
            clock: 0,
            epoch: 0,
            stats: TlbStats::default(),
        }
    }

    fn lookup(&mut self, asid: u16, vpn: u64) -> Option<(TlbEntry, TlbHit)> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((e, lru)) = self
            .l1
            .iter_mut()
            .find(|(e, _)| e.asid == asid && e.vpn == vpn)
        {
            if e.epoch != self.epoch {
                self.stats.stale += 1;
                self.stats.misses += 1;
                return None;
            }
            *lru = clock;
            self.stats.l1_hits += 1;
            return Some((*e, TlbHit::L1));
        }
        let idx = vpn as usize % self.l2.len();
        match self.l2[idx] {
            Some(e) if e.asid == asid && e.vpn == vpn => {
                if e.epoch != self.epoch {
                    self.stats.stale += 1;
                    self.stats.misses += 1;
                    return None;
                }
                self.stats.l2_hits += 1;
                self.insert_l1(e);
                Some((e, TlbHit::L2))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn fill(&mut self, entry: TlbEntry) {
        let entry = TlbEntry {
            epoch: self.epoch,
            ..entry
        };
        let idx = entry.vpn as usize % self.l2.len();
        self.l2[idx] = Some(entry);
        self.insert_l1(entry);
    }

    fn insert_l1(&mut self, entry: TlbEntry) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self
            .l1
            .iter_mut()
            .find(|(e, _)| e.asid == entry.asid && e.vpn == entry.vpn)
        {
            *slot = (entry, clock);
        } else if self.l1.len() < self.l1_entries {
            self.l1.push((entry, clock));
        } else {
            let victim = self.l1.iter_mut().min_by_key(|(_, lru)| *lru).unwrap();
            *victim = (entry, clock);
        }
    }

    fn flush_all(&mut self) {
        self.l1.clear();
        self.l2.iter_mut().for_each(|e| *e = None);
        self.stats.flushes += 1;
    }

    fn flush_asid(&mut self, asid: u16) {
        self.l1.retain(|(e, _)| e.asid != asid);
        for slot in &mut self.l2 {
            if matches!(slot, Some(e) if e.asid == asid) {
                *slot = None;
            }
        }
        self.stats.flushes += 1;
    }

    fn flush_page(&mut self, asid: u16, vpn: u64) {
        self.l1.retain(|(e, _)| !(e.asid == asid && e.vpn == vpn));
        let idx = vpn as usize % self.l2.len();
        if matches!(self.l2[idx], Some(e) if e.asid == asid && e.vpn == vpn) {
            self.l2[idx] = None;
        }
        self.stats.flushes += 1;
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup,
    Fill,
    FlushAll,
    FlushAsid,
    FlushPage,
    AdvanceEpoch,
}

/// Applies `op` to the TLB and the model alike and requires the same
/// lookup outcome and the same counters.
fn apply(tlb: &mut Tlb, model: &mut RefTlb, op: Op, asid: u16, vpn: u64, step: usize) {
    match op {
        Op::Lookup => {
            let got = tlb.lookup(asid, VirtAddr::new(vpn << 12));
            assert_eq!(got, model.lookup(asid, vpn), "step {step}: lookup");
        }
        Op::Fill => {
            tlb.fill(entry(asid, vpn));
            model.fill(entry(asid, vpn));
        }
        Op::FlushAll => {
            tlb.flush_all();
            model.flush_all();
        }
        Op::FlushAsid => {
            tlb.flush_asid(asid);
            model.flush_asid(asid);
        }
        Op::FlushPage => {
            tlb.flush_page(asid, VirtAddr::new(vpn << 12));
            model.flush_page(asid, vpn);
        }
        Op::AdvanceEpoch => {
            tlb.advance_epoch();
            model.epoch += 1;
        }
    }
    assert_eq!(tlb.stats(), model.stats, "step {step}: counters");
}

#[test]
fn generation_flush_matches_the_rewriting_model() {
    let mut rng = SplitMix64::seed_from_u64(0x71b4);
    for _ in 0..64 {
        // Small geometry, so L2 conflicts, L1 evictions and refills of
        // flushed slots all happen often.
        let config = TlbConfig {
            l1_entries: 1 + rng.gen_range(0..4) as usize,
            l2_entries: 16,
            l2_hit_latency: 4,
        };
        let mut tlb = Tlb::new(config);
        let mut model = RefTlb::new(config);
        for step in 0..400 {
            let asid = rng.gen_range(0..3) as u16;
            let vpn = rng.gen_range(0..48);
            let op = match rng.gen_range(0..16) {
                0..=5 => Op::Lookup,
                6..=10 => Op::Fill,
                11 => Op::FlushAll,
                12 => Op::FlushAsid,
                13 => Op::FlushPage,
                _ => Op::AdvanceEpoch,
            };
            apply(&mut tlb, &mut model, op, asid, vpn, step);
        }
    }
}

/// VPN high parts: zero, canonical Sv39 and Sv48 upper halves (sign
/// extended to the 52-bit VPN), and two non-canonical patterns. Their low
/// ten bits are zero, so a key's L2 slot comes from its low part alone.
const HIGH_VPNS: [u64; 5] = [
    0,
    0xf_ffff_fc00_0000,
    0xf_fff8_0000_0000,
    0x8_0000_0000_0000,
    0x0_4000_0400_0000,
];

/// ASIDs on both sides of the TLB's users: small process ASIDs, the
/// largest 16-bit one, and the G-stage VMID every nested walk fills under.
const ASIDS: [u16; 4] = [0, 1, u16::MAX - 1, GSTAGE_VMID];

/// The shipped geometry (32/1024) and a 64-entry L1 against the model,
/// over 160 tags with high and non-canonical VPN bits, far more than the
/// L1's hash index has buckets, so many tags share one. Half the draws
/// come from 16 hot tags, half from all 160, so L1 hits, L2 hits, in-place
/// refills and LRU evictions all happen between the flushes.
#[test]
fn shipped_geometry_matches_the_rewriting_model() {
    let mut rng = SplitMix64::seed_from_u64(0x71b5);
    // A distinct low part per tag gives each its own L2 slot, so the L2
    // catches L1 evictions.
    let mut tags: Vec<(u16, u64)> = (0..160u64)
        .map(|t| {
            let high = HIGH_VPNS[t as usize % HIGH_VPNS.len()];
            (ASIDS[t as usize / 40], high | ((t * 97) & 1023))
        })
        .collect();
    for config in [
        TlbConfig::default(),
        TlbConfig {
            l1_entries: 64,
            ..TlbConfig::default()
        },
    ] {
        for _ in 0..8 {
            for i in (1..tags.len()).rev() {
                tags.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
            }
            let mut tlb = Tlb::new(config);
            let mut model = RefTlb::new(config);
            for step in 0..4000 {
                let drawn_from = if rng.gen_range(0..2) == 0 { 16 } else { 160 };
                let (asid, vpn) = tags[rng.gen_range(0..drawn_from) as usize];
                // Rare enough flushes and epoch moves that a 64-entry L1
                // fills up between them.
                let op = match rng.gen_range(0..1024) {
                    0..=511 => Op::Lookup,
                    512..=1011 => Op::Fill,
                    1012 => Op::FlushAll,
                    1013..=1015 => Op::FlushAsid,
                    1016..=1021 => Op::FlushPage,
                    _ => Op::AdvanceEpoch,
                };
                apply(&mut tlb, &mut model, op, asid, vpn, step);
            }
            let s = model.stats;
            assert!(
                s.l1_hits > 0 && s.l2_hits > 0 && s.stale > 0 && s.misses > 0,
                "every lookup outcome must occur: {s:?}"
            );
        }
    }
}

/// Fills the shipped 32-entry L1, re-touches all but two of its keys (by
/// lookup and by in-place refill, in an order of their own), then fills
/// three more keys: the two untouched keys leave first, oldest first, then
/// the least recently re-touched one.
#[test]
fn l1_evicts_the_least_recently_touched_key() {
    let key = |i: u64| {
        let asid = if i.is_multiple_of(2) { 1 } else { GSTAGE_VMID };
        (asid, HIGH_VPNS[i as usize % HIGH_VPNS.len()] | (i * 3))
    };
    let mut tlb = Tlb::new(TlbConfig::default());
    for i in 0..32 {
        let (asid, vpn) = key(i);
        tlb.fill(entry(asid, vpn));
    }
    let retouched: Vec<u64> = (0..32).rev().filter(|&i| i != 17 && i != 20).collect();
    for (n, &i) in retouched.iter().enumerate() {
        let (asid, vpn) = key(i);
        if n % 2 == 0 {
            let (_, hit) = tlb.lookup(asid, VirtAddr::new(vpn << 12)).unwrap();
            assert_eq!(hit, TlbHit::L1, "key {i} is resident");
        } else {
            tlb.fill(entry(asid, vpn));
        }
    }
    let mut resident: Vec<u64> = (0..32).collect();
    for (new, expected) in [(32, 17), (33, 20), (34, retouched[0])] {
        let (asid, vpn) = key(new);
        tlb.fill(entry(asid, vpn));
        // Probe each key on a copy, so the probes do not reorder the L1.
        let left: Vec<u64> = resident
            .iter()
            .copied()
            .filter(|&i| {
                let (asid, vpn) = key(i);
                let probe = tlb.clone().lookup(asid, VirtAddr::new(vpn << 12));
                probe.map(|(_, hit)| hit) != Some(TlbHit::L1)
            })
            .collect();
        assert_eq!(left, [expected], "filling key {new}");
        resident.retain(|&i| i != expected);
        resident.push(new);
    }
}

/// The PWC as it was built before it shared the TLB's LRU store: slots
/// in a `Vec`, a clock stamped on every touch, a linear scan for the tag
/// and another for the oldest stamp.
struct RefWalkCache {
    entries: usize,
    slots: Vec<((u16, usize, u64), PhysAddr, u64)>,
    clock: u64,
    stats: WalkCacheStats,
}

impl RefWalkCache {
    fn key(asid: u16, level: usize, va: VirtAddr) -> (u16, usize, u64) {
        (asid, level, va.raw() >> (12 + 9 * level))
    }

    fn lookup(&mut self, asid: u16, level: usize, va: VirtAddr) -> Option<PhysAddr> {
        let key = Self::key(asid, level, va);
        self.clock += 1;
        let clock = self.clock;
        match self.slots.iter_mut().find(|s| s.0 == key) {
            Some(slot) => {
                slot.2 = clock;
                self.stats.hits += 1;
                Some(slot.1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, asid: u16, level: usize, va: VirtAddr, table: PhysAddr) {
        if self.entries == 0 {
            return;
        }
        let key = Self::key(asid, level, va);
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == key) {
            *slot = (key, table, clock);
        } else if self.slots.len() < self.entries {
            self.slots.push((key, table, clock));
        } else {
            let victim = self.slots.iter_mut().min_by_key(|s| s.2).unwrap();
            *victim = (key, table, clock);
        }
    }
}

/// The PWC at the default 8 entries and Figure 17's 32 against the
/// stamp-and-scan model, over three ASIDs and three levels of VA prefixes
/// (165 steps in all, half the draws from 16 hot VAs), with flushes by
/// ASID and in full between them. Every lookup must return the same table
/// and every step leave the same counters.
#[test]
fn pwc_matches_the_stamp_and_scan_model() {
    let mut rng = SplitMix64::seed_from_u64(0x71b6);
    for entries in [8, 32] {
        for _ in 0..8 {
            let mut pwc = WalkCache::new(WalkCacheConfig { entries });
            let mut model = RefWalkCache {
                entries,
                slots: Vec::new(),
                clock: 0,
                stats: WalkCacheStats::default(),
            };
            for step in 0..4000 {
                let asid = rng.gen_range(0..3) as u16;
                let level = 1 + rng.gen_range(0..3) as usize;
                let drawn_from = if rng.gen_range(0..2) == 0 { 16 } else { 48 };
                let va = VirtAddr::new(rng.gen_range(0..drawn_from) << 27);
                match rng.gen_range(0..256) {
                    0..=127 => assert_eq!(
                        pwc.lookup(asid, level, va),
                        model.lookup(asid, level, va),
                        "step {step}: lookup"
                    ),
                    128..=251 => {
                        let table = PhysAddr::new(rng.gen_range(0..1 << 20) << 12);
                        pwc.insert(asid, level, va, table);
                        model.insert(asid, level, va, table);
                    }
                    252..=254 => {
                        pwc.flush_asid(asid);
                        model.slots.retain(|s| s.0 .0 != asid);
                    }
                    _ => {
                        pwc.flush_all();
                        model.slots.clear();
                    }
                }
                assert_eq!(pwc.stats(), model.stats, "step {step}: counters");
            }
            assert!(model.stats.hits > 0 && model.stats.misses > 0);
        }
    }
}

#[test]
fn walk_invariant_under_pwc_state() {
    let mut rng = SplitMix64::seed_from_u64(0x71b3);
    for _ in 0..48 {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 128 * PAGE_SIZE);
        let mut space = AddressSpace::new(TranslationMode::Sv39, 1, &mut mem, &mut frames).unwrap();
        let n_pages = rng.gen_range(1..16) as usize;
        for i in 0..n_pages {
            let _ = space.map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x40_0000 + rng.gen_range(0..256) * PAGE_SIZE),
                PhysAddr::new(0x9000_0000 + (i as u64) * PAGE_SIZE),
                Perms::RW,
                true,
            );
        }
        let pwc_entries = rng.gen_range(0..9) as usize;
        let mut pwc = WalkCache::new(WalkCacheConfig {
            entries: pwc_entries,
        });
        let n_probes = rng.gen_range(1..16) as usize;
        for _ in 0..n_probes {
            let va = VirtAddr::new(0x40_0000 + rng.gen_range(0..256) * PAGE_SIZE);
            let with_pwc = walk(&mem, &space, &mut pwc, va).translation;
            let mut cold = WalkCache::new(WalkCacheConfig { entries: 0 });
            let without = walk(&mem, &space, &mut cold, va).translation;
            assert_eq!(with_pwc, without, "PWC changed a translation at {va}");
        }
    }
}
