//! Randomised tests: the two-level TLB against a reference model, and walk
//! determinism under arbitrary PWC state. Driven by the in-repo
//! [`SplitMix64`] PRNG with fixed seeds, so every run is deterministic and
//! reproducible.

use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, PhysMem, SplitMix64, VirtAddr, PAGE_SIZE};
use hpmp_paging::{
    walk, AddressSpace, Tlb, TlbConfig, TlbEntry, TlbHit, TlbStats, TranslationMode, WalkCache,
    WalkCacheConfig,
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

/// The TLB as a plain model: an L2 of `Option` slots that every flush
/// rewrites in full. The real TLB empties its L2 by moving a generation
/// on instead, and must be indistinguishable from this, outcome for
/// outcome and counter for counter.
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
            match rng.gen_range(0..16) {
                0..=5 => {
                    let got = tlb.lookup(asid, VirtAddr::new(vpn << 12));
                    assert_eq!(got, model.lookup(asid, vpn), "step {step}: lookup");
                }
                6..=10 => {
                    tlb.fill(entry(asid, vpn));
                    model.fill(entry(asid, vpn));
                }
                11 => {
                    tlb.flush_all();
                    model.flush_all();
                }
                12 => {
                    tlb.flush_asid(asid);
                    model.flush_asid(asid);
                }
                13 => {
                    tlb.flush_page(asid, VirtAddr::new(vpn << 12));
                    model.flush_page(asid, vpn);
                }
                _ => {
                    tlb.advance_epoch();
                    model.epoch += 1;
                }
            }
            assert_eq!(tlb.stats(), model.stats, "step {step}: counters");
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
            hit_latency: 1,
        });
        let n_probes = rng.gen_range(1..16) as usize;
        for _ in 0..n_probes {
            let va = VirtAddr::new(0x40_0000 + rng.gen_range(0..256) * PAGE_SIZE);
            let with_pwc = walk(&mem, &space, &mut pwc, va).translation;
            let mut cold = WalkCache::new(WalkCacheConfig {
                entries: 0,
                hit_latency: 1,
            });
            let without = walk(&mem, &space, &mut cold, va).translation;
            assert_eq!(with_pwc, without, "PWC changed a translation at {va}");
        }
    }
}
