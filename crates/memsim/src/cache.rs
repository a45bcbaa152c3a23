//! Set-associative cache model.
//!
//! The simulator tracks *presence* of cache lines (tags only, no data — data
//! lives in [`crate::PhysMem`]) with true LRU replacement. This is enough to
//! decide, for every memory reference a walk performs, at which level of the
//! hierarchy it hits, which is what determines the latencies the paper
//! measures.

use std::ops::Range;

use crate::addr::PhysAddr;

/// Configuration of a single cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set). `1` = direct mapped.
    pub ways: usize,
    /// Line size in bytes (a power of two, at least 8).
    pub line_size: u64,
    /// Latency of a hit at this level, in core cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways * line_size`, or the set count is not a power of two).
    pub fn sets(&self) -> usize {
        let sets = self.capacity / (self.ways as u64 * self.line_size);
        assert!(sets > 0, "cache too small for its geometry");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets as usize
    }
}

/// Per-cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`, or 0 if no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

impl hpmp_trace::Counters for CacheStats {
    const NAMES: &'static [&'static str] = &["hits", "misses"];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [self.hits, self.misses]
    }
}

/// Marks an empty way. A tag is a line number shifted right by the set
/// bits, and [`Cache::new`] requires lines of at least 8 bytes, so no real
/// tag reaches `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// A set-associative, true-LRU, tags-only cache.
///
/// The tags live in one flat `sets × ways` array in set-major order. Each
/// set keeps its tags in recency order, most recently used first, with the
/// empty ways (the `EMPTY` marker) at the tail. A hit moves its tag to the front; a
/// miss shifts the whole set down one way, dropping the last (an empty way
/// if there is one, else the least recently used), and puts the new tag at
/// the front.
///
/// ```
/// use hpmp_memsim::{Cache, CacheConfig, PhysAddr};
/// let mut c = Cache::new(CacheConfig {
///     capacity: 4096, ways: 2, line_size: 64, hit_latency: 2,
/// });
/// let a = PhysAddr::new(0x1000);
/// assert!(!c.access(a)); // cold miss, line filled
/// assert!(c.access(a));  // now hits
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Set `s` owns `tags[s * ways..(s + 1) * ways]`, most recent first.
    tags: Vec<u64>,
    set_mask: u64,
    line_shift: u32,
    /// log2 of the set count: the line-number bits the set index uses.
    set_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]),
    /// or if `line_size` is below 8 bytes, where a tag could equal the
    /// empty-way marker.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.line_size >= 8, "line size must be at least 8 bytes");
        assert!(config.ways >= 1, "cache needs at least one way");
        let sets = config.sets();
        Cache {
            config,
            tags: vec![EMPTY; sets * config.ways],
            set_mask: sets as u64 - 1,
            line_shift: config.line_size.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up `addr`, filling the line on a miss (allocate-on-miss).
    /// Returns `true` on a hit.
    ///
    /// A miss fills an empty way if the set has one, otherwise it evicts
    /// the least recently used way.
    #[inline]
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        // One pass from the front, each way taking its predecessor's tag:
        // a hit stops where it overwrites `tag`'s old way, having shifted
        // the more recent ways down one; a miss shifts the last way out.
        let mut carry = tag;
        for way in &mut self.tags[set] {
            let old = std::mem::replace(way, carry);
            if old == tag {
                self.stats.hits += 1;
                return true;
            }
            carry = old;
        }
        self.stats.misses += 1;
        false
    }

    /// Checks whether `addr` is present without touching LRU state or stats.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        self.tags[set].contains(&tag)
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: PhysAddr) {
        let (set, tag) = self.index(addr);
        let ways = &mut self.tags[set];
        if let Some(p) = ways.iter().position(|&t| t == tag) {
            ways.copy_within(p + 1.., p);
            ways[ways.len() - 1] = EMPTY;
        }
    }

    /// Invalidates the entire cache (e.g. on a simulated flush).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Hit/miss counters accumulated since construction (or the last
    /// [`Cache::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the hit/miss counters without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The ways of `addr`'s set, and `addr`'s tag.
    #[inline]
    fn index(&self, addr: PhysAddr) -> (Range<usize>, u64) {
        let line = addr.raw() >> self.line_shift;
        let first = (line & self.set_mask) as usize * self.config.ways;
        (first..first + self.config.ways, line >> self.set_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256B.
        Cache::new(CacheConfig {
            capacity: 256,
            ways: 2,
            line_size: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let a = PhysAddr::new(0x40);
        assert!(!c.access(a));
        assert!(c.access(a));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn same_line_shares_entry() {
        let mut c = tiny();
        assert!(!c.access(PhysAddr::new(0x100)));
        assert!(c.access(PhysAddr::new(0x13f))); // same 64B line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: 0x000, 0x080, 0x100 (stride = sets*line = 128).
        c.access(PhysAddr::new(0x000));
        c.access(PhysAddr::new(0x080));
        c.access(PhysAddr::new(0x000)); // refresh 0x000
        c.access(PhysAddr::new(0x100)); // evicts 0x080
        assert!(c.probe(PhysAddr::new(0x000)));
        assert!(!c.probe(PhysAddr::new(0x080)));
        assert!(c.probe(PhysAddr::new(0x100)));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x000));
        let stats = c.stats();
        assert!(c.probe(PhysAddr::new(0x000)));
        assert!(!c.probe(PhysAddr::new(0x080)));
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn invalidate_single_and_all() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x000));
        c.access(PhysAddr::new(0x040));
        c.invalidate(PhysAddr::new(0x000));
        assert!(!c.probe(PhysAddr::new(0x000)));
        assert!(c.probe(PhysAddr::new(0x040)));
        c.invalidate_all();
        assert!(!c.probe(PhysAddr::new(0x040)));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            capacity: 128,
            ways: 1,
            line_size: 64,
            hit_latency: 1,
        });
        c.access(PhysAddr::new(0x000));
        c.access(PhysAddr::new(0x080)); // maps to same set, evicts
        assert!(!c.probe(PhysAddr::new(0x000)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            capacity: 192,
            ways: 1,
            line_size: 64,
            hit_latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "at least 8 bytes")]
    fn sub_word_lines_panic() {
        Cache::new(CacheConfig {
            capacity: 64,
            ways: 4,
            line_size: 4,
            hit_latency: 1,
        });
    }
}
