//! The cache hierarchy: L1 → L2 → LLC → DRAM.
//!
//! Every memory reference a simulated walk or data access performs is issued
//! through [`MemSystem::access`], which returns the latency in core cycles and
//! records where the reference hit. This is the single source of truth for
//! "how expensive was that reference", so the isolation-scheme comparisons in
//! the paper fall directly out of how many references each scheme issues and
//! how well they cache.

use std::fmt;

use crate::addr::PhysAddr;
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::dram::{Dram, DramConfig, DramStats};

/// Which level of the hierarchy serviced a reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// First-level data cache.
    L1,
    /// Unified second-level cache.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

impl fmt::Display for HitLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HitLevel::L1 => "L1",
            HitLevel::L2 => "L2",
            HitLevel::Llc => "LLC",
            HitLevel::Dram => "DRAM",
        })
    }
}

/// Outcome of a single reference through the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccessOutcome {
    /// Level that serviced the reference.
    pub level: HitLevel,
    /// Total latency in core cycles.
    pub cycles: u64,
}

/// Configuration of the full memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 cache geometry.
    pub l2: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Extra cycles per DRAM-level access for the inline memory-encryption
    /// engine (Penglai defends against physical attacks with encryption;
    /// an AES-XTS pipeline adds a fixed latency at the memory boundary).
    /// Zero disables the engine. The `u16` bounds what every DRAM access
    /// can add, so no run can overflow the 64-bit cycle counters.
    pub encryption_latency: u16,
}

/// Aggregate counters for the memory system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSystemStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Total references issued.
    pub accesses: u64,
    /// Total cycles spent in the memory system.
    pub cycles: u64,
}

/// Flattened as `l1.hits` … `dram.row_misses`, `accesses`, `cycles`.
impl hpmp_trace::Counters for MemSystemStats {
    const NAMES: &'static [&'static str] = &[
        "l1.hits",
        "l1.misses",
        "l2.hits",
        "l2.misses",
        "llc.hits",
        "llc.misses",
        "dram.row_hits",
        "dram.row_misses",
        "accesses",
        "cycles",
    ];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [
            self.l1.hits,
            self.l1.misses,
            self.l2.hits,
            self.l2.misses,
            self.llc.hits,
            self.llc.misses,
            self.dram.row_hits,
            self.dram.row_misses,
            self.accesses,
            self.cycles,
        ]
    }
}

/// A three-level cache hierarchy in front of DRAM.
///
/// ```
/// use hpmp_memsim::{MemSystem, MemSystemConfig, HitLevel, PhysAddr};
/// let mut m = MemSystem::new(MemSystemConfig::rocket());
/// let cold = m.access(PhysAddr::new(0x8000_0000));
/// assert_eq!(cold.level, HitLevel::Dram);
/// let warm = m.access(PhysAddr::new(0x8000_0000));
/// assert_eq!(warm.level, HitLevel::L1);
/// assert!(warm.cycles < cold.cycles);
/// ```
#[derive(Clone, Debug)]
pub struct MemSystem {
    l1: Cache,
    l2: Cache,
    llc: Cache,
    dram: Dram,
    encryption_latency: u64,
    accesses: u64,
    cycles: u64,
}

impl MemSystem {
    /// Builds a memory system from the given configuration.
    pub fn new(config: MemSystemConfig) -> MemSystem {
        MemSystem {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            llc: Cache::new(config.llc),
            dram: Dram::new(config.dram),
            encryption_latency: u64::from(config.encryption_latency),
            accesses: 0,
            cycles: 0,
        }
    }

    /// Issues one reference, filling caches inclusively on the way back.
    #[inline]
    pub fn access(&mut self, addr: PhysAddr) -> MemAccessOutcome {
        let l1_latency = self.l1.config().hit_latency;
        let outcome = if self.l1.access(addr) {
            MemAccessOutcome {
                level: HitLevel::L1,
                cycles: l1_latency,
            }
        } else {
            let below = self.below_l1(addr);
            MemAccessOutcome {
                level: below.level,
                cycles: l1_latency + below.cycles,
            }
        };
        self.record(outcome)
    }

    /// Issues a page-table-walker reference: the PTW port bypasses the L1
    /// data cache (as in Rocket and BOOM, whose walkers refill from L2), so
    /// the lookup starts at L2 and never allocates into L1.
    #[inline]
    pub fn access_ptw(&mut self, addr: PhysAddr) -> MemAccessOutcome {
        let outcome = self.below_l1(addr);
        self.record(outcome)
    }

    /// The L2 → LLC → DRAM part of a reference, with the cycles it spends
    /// below the L1. Does not touch the `accesses`/`cycles` counters.
    #[inline]
    fn below_l1(&mut self, addr: PhysAddr) -> MemAccessOutcome {
        let l2_latency = self.l2.config().hit_latency;
        if self.l2.access(addr) {
            return MemAccessOutcome {
                level: HitLevel::L2,
                cycles: l2_latency,
            };
        }
        let llc_latency = l2_latency + self.llc.config().hit_latency;
        if self.llc.access(addr) {
            return MemAccessOutcome {
                level: HitLevel::Llc,
                cycles: llc_latency,
            };
        }
        MemAccessOutcome {
            level: HitLevel::Dram,
            cycles: llc_latency + self.dram.access(addr) + self.encryption_latency,
        }
    }

    #[inline]
    fn record(&mut self, outcome: MemAccessOutcome) -> MemAccessOutcome {
        self.accesses += 1;
        self.cycles += outcome.cycles;
        outcome
    }

    /// Checks (without side effects) at which level `addr` would hit.
    pub fn probe(&self, addr: PhysAddr) -> HitLevel {
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

    /// Drops the line containing `addr` from every level.
    pub fn invalidate(&mut self, addr: PhysAddr) {
        self.l1.invalidate(addr);
        self.l2.invalidate(addr);
        self.llc.invalidate(addr);
    }

    /// Empties all caches and closes all DRAM rows — the "cold" state used by
    /// the TC1 microbenchmark.
    pub fn flush_all(&mut self) {
        self.l1.invalidate_all();
        self.l2.invalidate_all();
        self.llc.invalidate_all();
        self.dram.precharge_all();
    }

    /// Aggregate counters since construction or the last
    /// [`MemSystem::reset_stats`].
    pub fn stats(&self) -> MemSystemStats {
        MemSystemStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
            dram: self.dram.stats(),
            accesses: self.accesses,
            cycles: self.cycles,
        }
    }

    /// Clears all counters without touching cache or row state.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.dram.reset_stats();
        self.accesses = 0;
        self.cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MemSystem {
        MemSystem::new(MemSystemConfig::rocket())
    }

    #[test]
    fn miss_fills_all_levels() {
        let mut m = system();
        let a = PhysAddr::new(0x8000_0000);
        assert_eq!(m.access(a).level, HitLevel::Dram);
        assert_eq!(m.probe(a), HitLevel::L1);
    }

    #[test]
    fn latency_monotonic_in_level() {
        let mut m = system();
        let a = PhysAddr::new(0x8000_0000);
        let dram = m.access(a).cycles;
        let l1 = m.access(a).cycles;
        m.invalidate(a);
        m.access(a); // refill from DRAM (row may be open, still > L1)
        let l1_again = m.access(a).cycles;
        assert!(l1 < dram);
        assert_eq!(l1, l1_again);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = system();
        let target = PhysAddr::new(0x8000_0000);
        m.access(target);
        // Evict target from L1 by streaming over many conflicting lines.
        let l1_capacity = m.l1.config().capacity;
        for i in 1..=64u64 {
            m.access(PhysAddr::new(0x8000_0000 + i * l1_capacity));
        }
        let lvl = m.probe(target);
        assert!(
            lvl == HitLevel::L2 || lvl == HitLevel::Llc,
            "target should survive below L1"
        );
    }

    #[test]
    fn flush_all_returns_to_cold() {
        let mut m = system();
        let a = PhysAddr::new(0x8000_0000);
        m.access(a);
        m.flush_all();
        assert_eq!(m.probe(a), HitLevel::Dram);
        assert_eq!(m.access(a).level, HitLevel::Dram);
    }

    #[test]
    fn encryption_engine_adds_dram_latency_only() {
        let mut plain = system();
        let mut encrypted = MemSystem::new(MemSystemConfig::rocket().with_encryption(26));
        let a = PhysAddr::new(0x8000_0000);
        let cold_plain = plain.access(a).cycles;
        let cold_enc = encrypted.access(a).cycles;
        assert_eq!(cold_enc, cold_plain + 26, "engine taxes DRAM accesses");
        // Cache hits are unaffected (data is plaintext inside the SoC).
        assert_eq!(plain.access(a).cycles, encrypted.access(a).cycles);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = system();
        m.access(PhysAddr::new(0));
        m.access(PhysAddr::new(0));
        let s = m.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
        assert!(s.cycles > 0);
        m.reset_stats();
        assert_eq!(m.stats().accesses, 0);
    }
}
