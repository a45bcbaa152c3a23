//! Randomised test: the PMPTW-Cache against the stamp-and-scan cache it
//! was built as before it shared the TLB's LRU store. Driven by the
//! in-repo [`SplitMix64`] PRNG with a fixed seed, so every run is
//! deterministic and reproducible.

use hpmp_core::{LeafPmpte, PmptwCache, PmptwCacheConfig, PmptwCacheStats, RootPmpte};
use hpmp_memsim::{Perms, SplitMix64};

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

impl CachedEntry {
    fn same_key(&self, other: &CachedEntry) -> bool {
        match (*self, *other) {
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
            )
            | (
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
        }
    }
}

/// Slots in a `Vec` with an LRU clock and an epoch stamp each; lookups
/// scan for the key, a full cache scans for the oldest stamp.
struct RefPmptwCache {
    entries: usize,
    slots: Vec<(CachedEntry, u64, u64)>,
    clock: u64,
    epoch: u64,
    stats: PmptwCacheStats,
}

impl RefPmptwCache {
    fn new(entries: usize) -> RefPmptwCache {
        RefPmptwCache {
            entries,
            slots: Vec::new(),
            clock: 0,
            epoch: 0,
            stats: PmptwCacheStats::default(),
        }
    }

    /// The slot matching `probe`'s key, touched, unless its epoch is stale.
    fn lookup(&mut self, probe: CachedEntry) -> Option<CachedEntry> {
        self.clock += 1;
        let clock = self.clock;
        let epoch = self.epoch;
        let slot = self.slots.iter_mut().find(|s| s.0.same_key(&probe))?;
        if slot.2 != epoch {
            self.stats.stale += 1;
            return None;
        }
        slot.1 = clock;
        Some(slot.0)
    }

    fn lookup_leaf(&mut self, entry_idx: usize, offset: u64) -> Option<Perms> {
        let probe = CachedEntry::Leaf {
            entry_idx,
            span: offset >> 16,
            pmpte: LeafPmpte::default(),
        };
        let CachedEntry::Leaf { pmpte, .. } = self.lookup(probe)? else {
            unreachable!()
        };
        self.stats.leaf_hits += 1;
        Some(pmpte.perm(((offset >> 12) & 0xf) as usize))
    }

    fn lookup_root(&mut self, entry_idx: usize, offset: u64) -> Option<RootPmpte> {
        let probe = CachedEntry::Root {
            entry_idx,
            slice: offset >> 25,
            pmpte: RootPmpte::INVALID,
        };
        let CachedEntry::Root { pmpte, .. } = self.lookup(probe)? else {
            unreachable!()
        };
        self.stats.root_hits += 1;
        Some(pmpte)
    }

    fn insert(&mut self, entry: CachedEntry) {
        if self.entries == 0 {
            return;
        }
        self.clock += 1;
        let slot = (entry, self.clock, self.epoch);
        if let Some(old) = self.slots.iter_mut().find(|s| s.0.same_key(&entry)) {
            *old = slot;
        } else if self.slots.len() < self.entries {
            self.slots.push(slot);
        } else {
            *self.slots.iter_mut().min_by_key(|s| s.1).unwrap() = slot;
        }
    }
}

/// The cache at §8.9's 8 entries and at 32 against the model. Three HPMP
/// entries over 64 spans and 8 slices give 216 keys; lookups of both
/// kinds, inserts, recorded misses, full flushes and epoch moves (whose
/// survivors must read as stale until refilled) interleave, and every
/// lookup must answer alike and every step leave the same counters.
#[test]
fn pmptw_cache_matches_the_stamp_and_scan_model() {
    let mut rng = SplitMix64::seed_from_u64(0x9a7c);
    for entries in [8, 32] {
        for _ in 0..8 {
            let mut cache = PmptwCache::new(PmptwCacheConfig { entries });
            let mut model = RefPmptwCache::new(entries);
            for step in 0..4000 {
                let entry_idx = rng.gen_range(0..3) as usize;
                // Bits 22–27 pick one of 64 spans across 8 slices; bits
                // 12–15 pick the page within the span.
                let drawn_from = if rng.gen_range(0..2) == 0 { 12 } else { 64 };
                let offset = (rng.gen_range(0..drawn_from) << 22) | (rng.gen_range(0..16) << 12);
                match rng.gen_range(0..256) {
                    0..=79 => assert_eq!(
                        cache.lookup_leaf(entry_idx, offset),
                        model.lookup_leaf(entry_idx, offset),
                        "step {step}: leaf lookup"
                    ),
                    80..=119 => assert_eq!(
                        cache.lookup_root(entry_idx, offset),
                        model.lookup_root(entry_idx, offset),
                        "step {step}: root lookup"
                    ),
                    120..=179 => {
                        let pmpte = LeafPmpte::from_bits(rng.next_u64());
                        cache.insert_leaf(entry_idx, offset, pmpte);
                        model.insert(CachedEntry::Leaf {
                            entry_idx,
                            span: offset >> 16,
                            pmpte,
                        });
                    }
                    180..=239 => {
                        let pmpte = RootPmpte::from_bits(rng.next_u64());
                        cache.insert_root(entry_idx, offset, pmpte);
                        model.insert(CachedEntry::Root {
                            entry_idx,
                            slice: offset >> 25,
                            pmpte,
                        });
                    }
                    240..=249 => {
                        cache.record_miss();
                        model.stats.misses += 1;
                    }
                    250..=251 => {
                        cache.flush_all();
                        model.slots.clear();
                    }
                    _ => {
                        cache.advance_epoch();
                        model.epoch += 1;
                    }
                }
                assert_eq!(cache.stats(), model.stats, "step {step}: counters");
            }
            let s = model.stats;
            assert!(
                s.leaf_hits > 0 && s.root_hits > 0 && s.stale > 0,
                "every lookup outcome must occur: {s:?}"
            );
        }
    }
}
