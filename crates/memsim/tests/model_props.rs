//! Randomised tests: the cache and DRAM models and the fully-associative
//! LRU store against simple reference implementations, driven by the in-repo [`SplitMix64`] PRNG with fixed
//! seeds (deterministic and reproducible; one historical proptest shrink is
//! kept as an explicit regression case).

use hpmp_memsim::{
    Cache, CacheConfig, CacheStats, Dram, DramConfig, DramStats, HitLevel, LruEntry, LruMap,
    MemAccessOutcome, MemSystem, MemSystemConfig, PhysAddr, SplitMix64, LRU_MAX_ENTRIES,
};
use std::collections::VecDeque;

/// Reference LRU cache: a bounded deque of tags per set, least recent at
/// the front.
struct RefCache {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        let sets = config.sets();
        RefCache {
            sets: (0..sets).map(|_| VecDeque::new()).collect(),
            ways: config.ways,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: sets as u64 - 1,
            stats: CacheStats::default(),
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let set = &mut self.sets[set];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.push_back(tag);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.ways {
                set.pop_front();
            }
            set.push_back(tag);
            self.stats.misses += 1;
            false
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].contains(&tag)
    }

    /// How many more recently used lines `addr`'s set holds than `addr`'s
    /// (0 = most recent), or `None` if it is absent.
    fn recency(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.locate(addr);
        let set = &self.sets[set];
        set.iter().rev().position(|&t| t == tag)
    }

    fn invalidate(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr);
        self.sets[set].retain(|&t| t != tag);
    }

    fn invalidate_all(&mut self) {
        self.sets.iter_mut().for_each(VecDeque::clear);
    }
}

/// An address drawn so that lines pile up on a few sets of `config`:
/// `ways * 3` candidate tags over `hot_sets` sets, so hits, conflict
/// evictions and refills all occur even in a 4 MiB LLC. One draw in eight
/// is uniform over a wider range instead.
fn clustered_addr(rng: &mut SplitMix64, config: CacheConfig, hot_sets: u64) -> u64 {
    if rng.gen_range(0..8) == 0 {
        return rng.gen_range(0..1 << 30);
    }
    let sets = config.sets() as u64;
    let set = rng.gen_range(0..hot_sets) * (sets / hot_sets).max(1);
    let tag = rng.gen_range(0..config.ways as u64 * 3);
    (tag * sets + set) * config.line_size + rng.gen_range(0..config.line_size)
}

/// The cache geometries the randomised cache tests run: small direct-mapped,
/// 2-, 4- and 16-way, fully associative ones, and every Rocket/BOOM level.
fn cache_configs() -> Vec<CacheConfig> {
    let small = |capacity, ways, line_size| CacheConfig {
        capacity,
        ways,
        line_size,
        hit_latency: 1,
    };
    let mut configs = vec![
        small(512, 1, 64),   // direct-mapped, 8 sets
        small(256, 1, 32),   // direct-mapped, 32-byte lines
        small(512, 2, 64),   // 2-way, 4 sets
        small(1024, 4, 64),  // 4-way, 4 sets
        small(4096, 16, 64), // 16-way, 4 sets
        small(256, 4, 64),   // fully associative: one set of 4
        small(512, 8, 64),   // fully associative: one set of 8
        small(64, 1, 64),    // one set, one way
    ];
    configs.extend(
        [MemSystemConfig::rocket(), MemSystemConfig::boom()]
            .iter()
            .flat_map(|m| [m.l1, m.l2, m.llc]),
    );
    configs
}

/// Random interleavings of `access`, `probe`, `invalidate` and
/// `invalidate_all` against the deque reference, on every geometry of
/// [`cache_configs`]. The hit/miss answer, the probe answer and the
/// counters must agree at every step; in particular a miss must fill an
/// invalid way before it evicts a valid one, as the deque only drops its
/// oldest tag when full.
#[test]
fn cache_matches_reference_lru() {
    let mut rng = SplitMix64::seed_from_u64(0xca5e);
    for config in cache_configs() {
        for round in 0..8 {
            let mut cache = Cache::new(config);
            let mut reference = RefCache::new(config);
            let hot_sets = 1 + round % 4;
            for step in 0..3_000 {
                let addr = clustered_addr(&mut rng, config, hot_sets);
                let at = PhysAddr::new(addr);
                match rng.gen_range(0..100) {
                    0..=69 => assert_eq!(
                        cache.access(at),
                        reference.access(addr),
                        "{config:?} step {step}: access {addr:#x}"
                    ),
                    70..=84 => {} // probe only, checked below
                    85..=98 => {
                        cache.invalidate(at);
                        reference.invalidate(addr);
                    }
                    _ => {
                        cache.invalidate_all();
                        reference.invalidate_all();
                    }
                }
                assert_eq!(
                    cache.probe(at),
                    reference.probe(addr),
                    "{config:?} step {step}: probe {addr:#x}"
                );
                assert_eq!(cache.stats(), reference.stats, "{config:?} step {step}");
            }
        }
    }
}

/// A hot set that fits: `ways` lines of one set in random order, so the hits
/// land at every recency position of the set, not only at the front. One
/// access in twenty goes to one of `ways` other lines of the set instead,
/// and one in fifty invalidates a hot line, so the evictions and refills
/// that follow depend on the recency order each hit left behind; both are
/// checked against the deque reference at every step.
#[test]
fn cache_hits_at_every_recency_position() {
    let mut rng = SplitMix64::seed_from_u64(0x4e7);
    for config in cache_configs() {
        let mut cache = Cache::new(config);
        let mut reference = RefCache::new(config);
        let stride = config.sets() as u64 * config.line_size;
        let set = rng.gen_range(0..config.sets() as u64) * config.line_size;
        let ways = config.ways as u64;
        let mut hits_at = vec![0u64; config.ways];
        for step in 0..200 * config.ways {
            let tag = match rng.gen_range(0..20) {
                0 => ways + rng.gen_range(0..ways),
                _ => rng.gen_range(0..ways),
            };
            let addr = set + tag * stride;
            let at = PhysAddr::new(addr);
            if rng.gen_range(0..50) == 0 {
                cache.invalidate(at);
                reference.invalidate(addr);
                continue;
            }
            if let Some(position) = reference.recency(addr) {
                hits_at[position] += 1;
            }
            assert_eq!(
                cache.access(at),
                reference.access(addr),
                "{config:?} step {step}: access {addr:#x}"
            );
            assert_eq!(cache.stats(), reference.stats, "{config:?} step {step}");
        }
        assert!(
            hits_at.iter().all(|&n| n > 0),
            "{config:?}: hits per recency position {hits_at:?}"
        );
    }
}

/// Reference memory system: three chained reference caches in front of a
/// DRAM model, with the latency sums written out per level.
struct RefMemSystem {
    config: MemSystemConfig,
    l1: RefCache,
    l2: RefCache,
    llc: RefCache,
    dram: Dram,
    accesses: u64,
    cycles: u64,
}

impl RefMemSystem {
    fn new(config: MemSystemConfig) -> RefMemSystem {
        RefMemSystem {
            config,
            l1: RefCache::new(config.l1),
            l2: RefCache::new(config.l2),
            llc: RefCache::new(config.llc),
            dram: Dram::new(config.dram),
            accesses: 0,
            cycles: 0,
        }
    }

    /// A data reference starts at L1; a PTW reference (`via_l1 == false`)
    /// starts at L2 and leaves L1 untouched.
    fn access(&mut self, addr: u64, via_l1: bool) -> MemAccessOutcome {
        let c = self.config;
        let l1 = if via_l1 { c.l1.hit_latency } else { 0 };
        let (level, cycles) = if via_l1 && self.l1.access(addr) {
            (HitLevel::L1, l1)
        } else if self.l2.access(addr) {
            (HitLevel::L2, l1 + c.l2.hit_latency)
        } else if self.llc.access(addr) {
            (HitLevel::Llc, l1 + c.l2.hit_latency + c.llc.hit_latency)
        } else {
            let dram = self.dram.access(PhysAddr::new(addr));
            (
                HitLevel::Dram,
                l1 + c.l2.hit_latency + c.llc.hit_latency + dram + u64::from(c.encryption_latency),
            )
        };
        self.accesses += 1;
        self.cycles += cycles;
        MemAccessOutcome { level, cycles }
    }

    fn probe(&self, addr: u64) -> HitLevel {
        if self.l1.probe(addr) {
            HitLevel::L1
        } else if self.l2.probe(addr) {
            HitLevel::L2
        } else if self.llc.probe(addr) {
            HitLevel::Llc
        } else {
            HitLevel::Dram
        }
    }
}

/// `MemSystem::access` and `access_ptw` against the chained reference on
/// both SoCs (Rocket also with the encryption engine): level, cycles,
/// probe and every counter agree after each reference, and PTW references
/// never fill or count at L1.
#[test]
fn mem_system_matches_chained_reference() {
    let configs = [
        MemSystemConfig::rocket(),
        MemSystemConfig::rocket().with_encryption(26),
        MemSystemConfig::boom(),
    ];
    let mut rng = SplitMix64::seed_from_u64(0x4e51);
    for config in configs {
        let mut mem = MemSystem::new(config);
        let mut reference = RefMemSystem::new(config);
        for step in 0..20_000 {
            let addr = clustered_addr(&mut rng, config.llc, 2);
            let at = PhysAddr::new(addr);
            let ptw = rng.gen_range(0..2) == 0;
            let (got, want) = if ptw {
                (mem.access_ptw(at), reference.access(addr, false))
            } else {
                (mem.access(at), reference.access(addr, true))
            };
            assert_eq!(got, want, "step {step}: ptw={ptw} {addr:#x}");
            assert_eq!(mem.probe(at), reference.probe(addr), "step {step}");
            let stats = mem.stats();
            assert_eq!(stats.l1, reference.l1.stats, "step {step}");
            assert_eq!(stats.l2, reference.l2.stats, "step {step}");
            assert_eq!(stats.llc, reference.llc.stats, "step {step}");
            assert_eq!(stats.dram, reference.dram.stats(), "step {step}");
            assert_eq!(stats.accesses, reference.accesses, "step {step}");
            assert_eq!(stats.cycles, reference.cycles, "step {step}");
        }
        let levels = mem.stats();
        assert!(
            levels.l1.hits > 0 && levels.l2.hits > 0 && levels.llc.hits > 0,
            "every level must service references: {levels:?}"
        );
    }
}

fn check_invalidate_is_precise(warm: &[u64], victim: u64) {
    let config = CacheConfig {
        capacity: 4096,
        ways: 4,
        line_size: 64,
        hit_latency: 1,
    };
    let mut cache = Cache::new(config);
    for &a in warm {
        cache.access(PhysAddr::new(a));
    }
    // Snapshot presence before invalidation (capacity eviction may have
    // already removed some warm lines, which is fine).
    let present: Vec<u64> = warm
        .iter()
        .copied()
        .filter(|&a| cache.probe(PhysAddr::new(a)))
        .collect();
    cache.invalidate(PhysAddr::new(victim));
    assert!(!cache.probe(PhysAddr::new(victim)));
    // Only the victim's line may disappear.
    for &a in &present {
        if a >> 6 != victim >> 6 {
            assert!(
                cache.probe(PhysAddr::new(a)),
                "unrelated line {a:#x} evicted by invalidate"
            );
        }
    }
}

#[test]
fn invalidate_is_precise() {
    let mut rng = SplitMix64::seed_from_u64(0x14a1);
    for _ in 0..128 {
        let len = rng.gen_range(1..64) as usize;
        let warm: Vec<u64> = (0..len).map(|_| rng.gen_range(0..0x2000)).collect();
        let victim = rng.gen_range(0..0x2000);
        check_invalidate_is_precise(&warm, victim);
    }
}

/// Regression: historical proptest shrink — invalidating address 0 while
/// lines sharing its set are warm must not evict them.
#[test]
fn invalidate_address_zero_regression() {
    check_invalidate_is_precise(&[7104, 3008, 960, 1984, 6080], 0);
}

#[test]
fn dram_row_behaviour() {
    let mut rng = SplitMix64::seed_from_u64(0xd4a8);
    for _ in 0..64 {
        let config = DramConfig {
            banks: 4,
            row_bytes: 2048,
            row_hit_latency: 10,
            row_miss_latency: 50,
        };
        let mut dram = Dram::new(config);
        let mut total = 0u64;
        let len = rng.gen_range(1..100) as usize;
        let rows: Vec<u64> = (0..len).map(|_| rng.gen_range(0..64)).collect();
        for &row in &rows {
            let lat1 = dram.access(PhysAddr::new(row * 2048));
            let lat2 = dram.access(PhysAddr::new(row * 2048 + 64));
            assert!(lat1 == 10 || lat1 == 50);
            assert_eq!(lat2, 10, "second access in a row must row-hit");
            total += 2;
        }
        let stats = dram.stats();
        assert_eq!(stats.row_hits + stats.row_misses, total);
        assert!(stats.row_hits >= rows.len() as u64);
    }
}

/// Reference DRAM: per-bank open rows, indexed by division.
struct RefDram {
    config: DramConfig,
    open_rows: Vec<Option<u64>>,
    stats: DramStats,
}

impl RefDram {
    fn access(&mut self, addr: u64) -> u64 {
        let row = addr / self.config.row_bytes;
        let bank = (row % self.config.banks as u64) as usize;
        if self.open_rows[bank] == Some(row) {
            self.stats.row_hits += 1;
            self.config.row_hit_latency
        } else {
            self.stats.row_misses += 1;
            self.open_rows[bank] = Some(row);
            self.config.row_miss_latency
        }
    }
}

/// The shift-and-mask DRAM indexing against the division reference, for
/// 1, 4 and 32 banks and 2 KiB and 8 KiB rows: addresses mostly within a
/// few dozen rows (so row hits and bank conflicts both occur), one in eight
/// uniform over all 64 bits, with an occasional `precharge_all`. Every
/// latency and both counters agree after each access.
#[test]
fn dram_matches_division_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xd4a8);
    for banks in [1usize, 4, 32] {
        for row_bytes in [2048u64, 8192] {
            let config = DramConfig {
                banks,
                row_bytes,
                row_hit_latency: 10,
                row_miss_latency: 50,
            };
            let mut dram = Dram::new(config);
            let mut reference = RefDram {
                config,
                open_rows: vec![None; banks],
                stats: DramStats::default(),
            };
            for step in 0..5_000 {
                let addr = match rng.gen_range(0..8) {
                    0 => rng.next_u64(),
                    _ => rng.gen_range(0..48) * row_bytes + rng.gen_range(0..row_bytes),
                };
                if rng.gen_range(0..200) == 0 {
                    dram.precharge_all();
                    reference.open_rows.fill(None);
                }
                assert_eq!(
                    dram.access(PhysAddr::new(addr)),
                    reference.access(addr),
                    "{config:?} step {step}: {addr:#x}"
                );
                assert_eq!(dram.stats(), reference.stats, "{config:?} step {step}");
            }
            assert!(reference.stats.row_hits > 0 && reference.stats.row_misses > 0);
        }
    }
}

/// An [`LruMap`] test entry: `key` names it and `value` tells two inserts
/// of one key apart. Its mix keeps only the key's low bit, so every key
/// lands in one of two index buckets and the hash chains grow long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Item {
    key: u64,
    value: u64,
}

impl LruEntry for Item {
    type Key = u64;

    fn key(&self) -> u64 {
        self.key
    }

    fn mix(key: u64) -> u64 {
        key & 1
    }
}

/// The LRU store as a deque: most recently used at the front, the victim
/// at the back.
struct RefLru {
    capacity: usize,
    items: VecDeque<Item>,
}

impl RefLru {
    fn position(&self, key: u64) -> Option<usize> {
        self.items.iter().position(|item| item.key == key)
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.position(key) {
            let item = self.items.remove(pos).unwrap();
            self.items.push_front(item);
        }
    }

    fn insert(&mut self, item: Item) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.position(item.key) {
            self.items.remove(pos);
        } else if self.items.len() == self.capacity {
            self.items.pop_back();
        }
        self.items.push_front(item);
    }
}

/// Seeded find/touch/insert/remove/retain/clear sequences against the
/// deque, at capacities 0, 1, 2, 8, 32 and 64. After every step the store
/// must hold the same entries in the same recency order, so every victim
/// matches too, and `find` must agree for a random key.
#[test]
fn lru_map_matches_reference_deque() {
    let mut rng = SplitMix64::seed_from_u64(0x1a0);
    for capacity in [0usize, 1, 2, 8, 32, 64] {
        for round in 0..4 {
            let mut map = LruMap::new(capacity);
            let mut reference = RefLru {
                capacity,
                items: VecDeque::new(),
            };
            // Twice the capacity plus a few keys: hits and evictions both
            // happen, and more so in the later rounds' narrower key sets.
            let keys = (2 * capacity as u64 + 3) >> (round % 2);
            for step in 0..2_000 {
                let key = rng.gen_range(0..keys.max(1));
                match rng.gen_range(0..100) {
                    0..=29 => {
                        if let Some((i, _)) = map.find(key) {
                            map.touch(i);
                        }
                        reference.touch(key);
                    }
                    30..=79 => {
                        let item = Item {
                            key,
                            value: rng.next_u64(),
                        };
                        map.insert(item);
                        reference.insert(item);
                    }
                    80..=93 => {
                        if let Some((i, _)) = map.find(key) {
                            map.remove(i);
                        }
                        reference.items.retain(|item| item.key != key);
                    }
                    94..=98 => {
                        let modulus = rng.gen_range(2..5);
                        map.retain(|item| item.key % modulus != 0);
                        reference.items.retain(|item| item.key % modulus != 0);
                    }
                    _ => {
                        map.clear();
                        reference.items.clear();
                    }
                }
                let got: Vec<Item> = map.iter().copied().collect();
                assert!(
                    got.iter().eq(reference.items.iter()),
                    "capacity {capacity} step {step}: {got:?} vs {:?}",
                    reference.items
                );
                let probe = rng.gen_range(0..keys.max(1));
                assert_eq!(
                    map.find(probe).map(|(_, item)| item),
                    reference.position(probe).map(|pos| reference.items[pos]),
                    "capacity {capacity} step {step}: find {probe}"
                );
            }
        }
    }
}

/// An entry whose mix is its whole key, so a full store spreads over
/// every index bucket.
#[derive(Clone, Copy, Debug)]
struct Spread(u64);

impl LruEntry for Spread {
    type Key = u64;

    fn key(&self) -> u64 {
        self.0
    }

    fn mix(key: u64) -> u64 {
        key
    }
}

/// The largest capacity the 16-bit links allow fills up and evicts in
/// order; one more panics in the constructor rather than corrupting a
/// link later.
#[test]
fn lru_map_capacity_bound() {
    let mut map = LruMap::new(LRU_MAX_ENTRIES);
    for key in 0..LRU_MAX_ENTRIES as u64 + 2 {
        map.insert(Spread(key));
    }
    assert!(map.find(0).is_none() && map.find(1).is_none());
    assert_eq!(map.iter().count(), LRU_MAX_ENTRIES);
    assert_eq!(map.iter().last().map(|s| s.0), Some(2), "the next victim");
    let too_big = std::panic::catch_unwind(|| LruMap::<Spread>::new(LRU_MAX_ENTRIES + 1));
    assert!(too_big.is_err());
}
