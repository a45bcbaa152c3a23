//! DRAM timing model.
//!
//! A deliberately small FR-FCFS-flavoured model: per-bank open rows, with a
//! cheaper latency when an access hits the currently open row and a full
//! activate+CAS penalty when it does not. The defaults approximate the
//! DDR3 configuration in the paper's Table 1 (14-14-14 at a 1 GHz memory
//! clock, quad rank, 8 banks per rank).

use crate::addr::PhysAddr;

/// Configuration of the DRAM model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (across all ranks, a power of two).
    pub banks: usize,
    /// Bytes per DRAM row (row-buffer reach).
    pub row_bytes: u64,
    /// Latency of a row-buffer hit, in core cycles.
    pub row_hit_latency: u64,
    /// Latency of a row-buffer miss (precharge + activate + CAS), in core
    /// cycles.
    pub row_miss_latency: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            banks: 32,
            row_bytes: 8192,
            row_hit_latency: 40,
            row_miss_latency: 80,
        }
    }
}

/// Per-DRAM counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that required activating a new row.
    pub row_misses: u64,
}

impl hpmp_trace::Counters for DramStats {
    const NAMES: &'static [&'static str] = &["row_hits", "row_misses"];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [self.row_hits, self.row_misses]
    }
}

/// Open-row DRAM timing model.
///
/// ```
/// use hpmp_memsim::{Dram, DramConfig, PhysAddr};
/// let mut d = Dram::new(DramConfig::default());
/// let first = d.access(PhysAddr::new(0x8000_0000));
/// let second = d.access(PhysAddr::new(0x8000_0040)); // same row
/// assert!(second < first);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    open_rows: Vec<Option<u64>>,
    /// log2 of `row_bytes`: an address's row is `addr >> row_shift`.
    row_shift: u32,
    /// `banks - 1`: a row's bank is `row & bank_mask`.
    bank_mask: u64,
    stats: DramStats,
}

impl Dram {
    /// Builds a DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is not a power of two (so zero
    /// banks panics too).
    pub fn new(config: DramConfig) -> Dram {
        assert!(
            config.banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        assert!(
            config.row_bytes.is_power_of_two(),
            "row size must be a power of two"
        );
        Dram {
            config,
            open_rows: vec![None; config.banks],
            row_shift: config.row_bytes.trailing_zeros(),
            bank_mask: config.banks as u64 - 1,
            stats: DramStats::default(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Services one access, returning its latency in core cycles and
    /// updating the open-row state.
    pub fn access(&mut self, addr: PhysAddr) -> u64 {
        let row = addr.raw() >> self.row_shift;
        // Interleave consecutive rows across banks.
        let bank = (row & self.bank_mask) as usize;
        if self.open_rows[bank] == Some(row) {
            self.stats.row_hits += 1;
            self.config.row_hit_latency
        } else {
            self.stats.row_misses += 1;
            self.open_rows[bank] = Some(row);
            self.config.row_miss_latency
        }
    }

    /// Closes all open rows (e.g. after a long idle period).
    pub fn precharge_all(&mut self) {
        self.open_rows.iter_mut().for_each(|r| *r = None);
    }

    /// Row-hit/row-miss counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Clears the counters without touching row state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_cheaper() {
        let mut d = Dram::new(DramConfig::default());
        let miss = d.access(PhysAddr::new(0));
        let hit = d.access(PhysAddr::new(64));
        assert_eq!(miss, d.config().row_miss_latency);
        assert_eq!(hit, d.config().row_hit_latency);
        assert_eq!(
            d.stats(),
            DramStats {
                row_hits: 1,
                row_misses: 1
            }
        );
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let cfg = DramConfig {
            banks: 2,
            row_bytes: 4096,
            ..DramConfig::default()
        };
        let mut d = Dram::new(cfg);
        d.access(PhysAddr::new(0)); // row 0 -> bank 0
        d.access(PhysAddr::new(2 * 4096)); // row 2 -> bank 0, conflicts
        let third = d.access(PhysAddr::new(0)); // row 0 again -> miss
        assert_eq!(third, cfg.row_miss_latency);
    }

    #[test]
    fn banks_are_independent() {
        let cfg = DramConfig {
            banks: 2,
            row_bytes: 4096,
            ..DramConfig::default()
        };
        let mut d = Dram::new(cfg);
        d.access(PhysAddr::new(0)); // row 0 -> bank 0
        d.access(PhysAddr::new(4096)); // row 1 -> bank 1
        assert_eq!(d.access(PhysAddr::new(8)), cfg.row_hit_latency);
        assert_eq!(d.access(PhysAddr::new(4096 + 8)), cfg.row_hit_latency);
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two")]
    fn non_power_of_two_banks_panics() {
        Dram::new(DramConfig {
            banks: 3,
            ..DramConfig::default()
        });
    }

    #[test]
    fn precharge_closes_rows() {
        let mut d = Dram::new(DramConfig::default());
        d.access(PhysAddr::new(0));
        d.precharge_all();
        assert_eq!(d.access(PhysAddr::new(0)), d.config().row_miss_latency);
    }
}
