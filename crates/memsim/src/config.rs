//! Canned configurations mirroring the paper's Table 1.
//!
//! Two simulated SoCs are provided: a RocketCore-like in-order core at 1 GHz
//! and a BOOM-like out-of-order core at 3.2 GHz, both in front of the same
//! 16 GiB DDR3-flavoured memory system.

use crate::cache::CacheConfig;
use crate::dram::DramConfig;
use crate::hierarchy::MemSystemConfig;

impl MemSystemConfig {
    /// Memory system of the RocketCore SoC (Table 1): 16 KiB L1 D-cache,
    /// 512 KiB 8-way L2, 4 MiB LLC.
    pub fn rocket() -> MemSystemConfig {
        MemSystemConfig {
            l1: CacheConfig {
                capacity: 16 * 1024,
                ways: 4,
                line_size: 64,
                hit_latency: 2,
            },
            l2: CacheConfig {
                capacity: 512 * 1024,
                ways: 8,
                line_size: 64,
                hit_latency: 14,
            },
            llc: CacheConfig {
                capacity: 4 * 1024 * 1024,
                ways: 8,
                line_size: 64,
                hit_latency: 24,
            },
            dram: DramConfig::default(),
            encryption_latency: 0,
        }
    }

    /// Memory system of the BOOM SoC (Table 1): 32 KiB 8-way L1 D-cache,
    /// 512 KiB 8-way L2, 4 MiB 8-way LLC. DRAM wall-clock time is the same
    /// as Rocket's, but the 3.2 GHz core observes more cycles per access
    /// (moderated by FireSim's uncore clock ratio), which is why the paper's
    /// BOOM overheads exceed its Rocket overheads on the same workloads.
    pub fn boom() -> MemSystemConfig {
        MemSystemConfig {
            l1: CacheConfig {
                capacity: 32 * 1024,
                ways: 8,
                line_size: 64,
                hit_latency: 3,
            },
            l2: CacheConfig {
                capacity: 512 * 1024,
                ways: 8,
                line_size: 64,
                hit_latency: 16,
            },
            llc: CacheConfig {
                capacity: 4 * 1024 * 1024,
                ways: 8,
                line_size: 64,
                hit_latency: 28,
            },
            dram: DramConfig {
                row_hit_latency: 72,
                row_miss_latency: 144,
                ..DramConfig::default()
            },
            encryption_latency: 0,
        }
    }
}

impl MemSystemConfig {
    /// Returns a copy with the inline memory-encryption engine enabled at
    /// `latency` extra cycles per DRAM access (Penglai's physical-attack
    /// defence; ~26 cycles is typical for a pipelined AES-XTS at 1 GHz).
    pub fn with_encryption(mut self, latency: u16) -> MemSystemConfig {
        self.encryption_latency = latency;
        self
    }
}

/// Which core microarchitecture is being simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// RocketCore: 5-stage in-order scalar, 1 GHz.
    Rocket,
    /// SonicBOOM: 4-way superscalar out-of-order, 3.2 GHz.
    Boom,
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoreKind::Rocket => "Rocket",
            CoreKind::Boom => "BOOM",
        })
    }
}

/// Timing model of the core pipeline around the memory system.
///
/// The in-order Rocket serialises everything: an `ld` that walks costs the
/// sum of its reference latencies plus a fixed pipeline overhead. The
/// out-of-order BOOM hides part of each *cache-hit* latency under other work
/// but still serialises the pointer chase of a page/permission-table walk, so
/// DRAM latency is exposed in full; stores additionally pay a store-queue
/// drain when they miss, which is why the paper's `sd` overheads (77–175%)
/// exceed its `ld` overheads (39–91%).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreModel {
    /// Which microarchitecture these parameters describe.
    pub kind: CoreKind,
    /// Core clock in MHz (Rocket: 1000, BOOM: 3200).
    pub clock_mhz: u64,
    /// Fixed pipeline cycles added to any memory instruction.
    pub pipeline_overhead: u64,
    /// Fraction of *cache-hit* latency hidden by out-of-order overlap,
    /// in `[0, 1)`. Zero for an in-order core.
    pub hit_overlap: f64,
    /// Extra cycles a store pays when its line misses the L1 (store queue
    /// drain / write-allocate).
    pub store_miss_penalty: u64,
    /// Cycles per simple ALU instruction (IPC-derived).
    pub alu_cycles_per_inst: f64,
}

impl CoreModel {
    /// Parameters for the RocketCore SoC.
    pub fn rocket() -> CoreModel {
        CoreModel {
            kind: CoreKind::Rocket,
            clock_mhz: 1000,
            pipeline_overhead: 4,
            hit_overlap: 0.0,
            store_miss_penalty: 8,
            alu_cycles_per_inst: 1.0,
        }
    }

    /// Parameters for the BOOM SoC.
    pub fn boom() -> CoreModel {
        CoreModel {
            kind: CoreKind::Boom,
            clock_mhz: 3200,
            pipeline_overhead: 6,
            hit_overlap: 0.35,
            store_miss_penalty: 24,
            alu_cycles_per_inst: 0.4,
        }
    }

    /// The canonical model for a [`CoreKind`].
    pub fn for_kind(kind: CoreKind) -> CoreModel {
        match kind {
            CoreKind::Rocket => CoreModel::rocket(),
            CoreKind::Boom => CoreModel::boom(),
        }
    }

    /// Effective cycles the pipeline observes for a reference that was
    /// serviced in `raw_cycles`, where `was_hit` says whether it hit in some
    /// cache (overlappable) rather than DRAM (exposed).
    pub fn observed_ref_cycles(&self, raw_cycles: u64, was_hit: bool) -> u64 {
        if was_hit && self.hit_overlap > 0.0 {
            let hidden = (raw_cycles as f64 * self.hit_overlap) as u64;
            raw_cycles - hidden
        } else {
            raw_cycles
        }
    }

    /// Cycles consumed by `n` straight-line ALU instructions.
    pub fn alu_cycles(&self, n: u64) -> u64 {
        (n as f64 * self.alu_cycles_per_inst).ceil() as u64
    }

    /// Converts cycles to nanoseconds at this core's clock.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1000.0 / self.clock_mhz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::MemSystem;
    use crate::PhysAddr;

    #[test]
    fn canned_configs_are_consistent() {
        // Constructing the systems validates all geometry assertions.
        let _ = MemSystem::new(MemSystemConfig::rocket());
        let _ = MemSystem::new(MemSystemConfig::boom());
    }

    #[test]
    fn boom_l1_is_larger() {
        assert!(MemSystemConfig::boom().l1.capacity > MemSystemConfig::rocket().l1.capacity);
    }

    #[test]
    fn rocket_serialises_hits() {
        let m = CoreModel::rocket();
        assert_eq!(m.observed_ref_cycles(100, true), 100);
        assert_eq!(m.observed_ref_cycles(100, false), 100);
    }

    #[test]
    fn boom_overlaps_hits_only() {
        let m = CoreModel::boom();
        assert!(m.observed_ref_cycles(100, true) < 100);
        assert_eq!(m.observed_ref_cycles(100, false), 100);
    }

    #[test]
    fn alu_throughput() {
        assert_eq!(CoreModel::rocket().alu_cycles(10), 10);
        assert_eq!(CoreModel::boom().alu_cycles(10), 4);
    }

    #[test]
    fn clock_conversion() {
        assert_eq!(CoreModel::rocket().cycles_to_ns(1000), 1000.0);
        assert_eq!(CoreModel::boom().cycles_to_ns(3200), 1000.0);
    }

    #[test]
    fn cold_access_dominates_pipeline_overhead() {
        let mut m = MemSystem::new(MemSystemConfig::rocket());
        let cold = m.access(PhysAddr::new(0x8000_0000)).cycles;
        assert!(cold > CoreModel::rocket().pipeline_overhead);
    }
}
