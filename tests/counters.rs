//! Every `Counters` impl publishes each field under its own name.
//!
//! A counter struct's `NAMES` list and its `values()` are kept in step by
//! hand. If they drift apart, a snapshot mislabels a counter and nothing
//! else fails, so each impl is checked here against a table written from
//! its field names: every field holds a distinct value, and the export
//! must put each value under the name its field is published as.

use std::collections::BTreeSet;

use hpmp_suite::core::PmptwCacheStats;
use hpmp_suite::machine::{AccessStats, HartCounters, RefBreakdown, VirtRefBreakdown};
use hpmp_suite::memsim::{CacheStats, DramStats, MemSystemStats};
use hpmp_suite::paging::{TlbStats, WalkCacheStats};
use hpmp_suite::penglai::MonitorStats;
use hpmp_suite::trace::{Counters, MetricsRegistry};

/// Checks one impl: `counters` holds distinct values, and `fields` maps
/// each exported name to the value of the field it must come from.
fn check<C: Counters>(counters: &C, fields: &[(&str, u64)]) {
    let names: BTreeSet<&str> = C::NAMES.iter().copied().collect();
    assert_eq!(names.len(), C::NAMES.len(), "duplicate in {:?}", C::NAMES);
    let values: Vec<u64> = counters.values().into_iter().collect();
    assert_eq!(values.len(), C::NAMES.len(), "values() vs {:?}", C::NAMES);
    let distinct: BTreeSet<u64> = values.iter().copied().collect();
    assert_eq!(distinct.len(), values.len(), "fixture values must differ");
    let table: BTreeSet<&str> = fields.iter().map(|&(name, _)| name).collect();
    assert_eq!(table, names, "the table must cover exactly NAMES");

    let mut reg = MetricsRegistry::new();
    counters.export(&mut reg, "p");
    assert_eq!(reg.len(), C::NAMES.len());
    for &(name, value) in fields {
        assert_eq!(reg.value(&format!("p.{name}")), value, "p.{name}");
    }
}

#[test]
fn every_counters_impl_exports_each_field_under_its_own_name() {
    check(
        &CacheStats { hits: 1, misses: 2 },
        &[("hits", 1), ("misses", 2)],
    );
    check(
        &DramStats {
            row_hits: 1,
            row_misses: 2,
        },
        &[("row_hits", 1), ("row_misses", 2)],
    );
    check(
        &MemSystemStats {
            l1: CacheStats { hits: 1, misses: 2 },
            l2: CacheStats { hits: 3, misses: 4 },
            llc: CacheStats { hits: 5, misses: 6 },
            dram: DramStats {
                row_hits: 7,
                row_misses: 8,
            },
            accesses: 9,
            cycles: 10,
        },
        &[
            ("l1.hits", 1),
            ("l1.misses", 2),
            ("l2.hits", 3),
            ("l2.misses", 4),
            ("llc.hits", 5),
            ("llc.misses", 6),
            ("dram.row_hits", 7),
            ("dram.row_misses", 8),
            ("accesses", 9),
            ("cycles", 10),
        ],
    );
    check(
        &TlbStats {
            l1_hits: 1,
            l2_hits: 2,
            misses: 3,
            flushes: 4,
            stale: 5,
        },
        &[
            ("l1_hits", 1),
            ("l2_hits", 2),
            ("misses", 3),
            ("flushes", 4),
            ("stale", 5),
        ],
    );
    check(
        &WalkCacheStats { hits: 1, misses: 2 },
        &[("hits", 1), ("misses", 2)],
    );
    check(
        &PmptwCacheStats {
            leaf_hits: 1,
            root_hits: 2,
            misses: 3,
            stale: 4,
        },
        &[
            ("leaf_hits", 1),
            ("root_hits", 2),
            ("misses", 3),
            ("stale", 4),
        ],
    );
    let native = RefBreakdown {
        pt_reads: 10,
        data_reads: 20,
        pmpte_for_pt: 40,
        pmpte_for_data: 80,
    };
    check(
        &native,
        &[
            ("pt_reads", 10),
            ("data_reads", 20),
            ("pmpte_for_pt", 40),
            ("pmpte_for_data", 80),
        ],
    );
    let virt = VirtRefBreakdown {
        npt_reads: 10,
        gpt_reads: 20,
        data_reads: 40,
        pmpte_for_npt: 80,
        pmpte_for_gpt: 160,
        pmpte_for_data: 320,
    };
    check(
        &virt,
        &[
            ("npt_reads", 10),
            ("gpt_reads", 20),
            ("data_reads", 40),
            ("pmpte_for_npt", 80),
            ("pmpte_for_gpt", 160),
            ("pmpte_for_data", 320),
        ],
    );
    // `refs` is the sum of the breakdown, exported beside the totals.
    let totals = |refs: u64| {
        [
            ("accesses", 1),
            ("cycles", 2),
            ("faults", 3),
            ("walks", 4),
            ("aborted_refs", 5),
            ("refs", refs),
        ]
    };
    check(
        &AccessStats {
            accesses: 1,
            cycles: 2,
            faults: 3,
            walks: 4,
            refs: native,
            aborted_refs: 5,
        },
        &totals(150),
    );
    check(
        &AccessStats {
            accesses: 1,
            cycles: 2,
            faults: 3,
            walks: 4,
            refs: virt,
            aborted_refs: 5,
        },
        &totals(630),
    );
    check(
        &HartCounters {
            ipis_sent: 1,
            ipis_received: 2,
            shootdowns: 3,
            shootdown_cycles: 4,
            fence_stall_cycles: 5,
        },
        &[
            ("ipis_sent", 1),
            ("ipis_received", 2),
            ("shootdowns", 3),
            ("shootdown_cycles", 4),
            ("fence_stall_cycles", 5),
        ],
    );
    check(
        &MonitorStats {
            switches: 1,
            csr_writes: 2,
            table_writes: 3,
            cycles: 4,
            degrade_stage: 5,
            degrade_enter: [6, 7, 8],
            degrade_repromotions: 9,
            degrade_slow_allocs: 10,
            degrade_rejected: 11,
            compact_passes: 12,
            compact_moved_regions: 13,
            compact_moved_pages: 14,
            compact_cycles: 15,
        },
        &[
            ("switches", 1),
            ("csr_writes", 2),
            ("table_writes", 3),
            ("cycles", 4),
            ("degrade.stage", 5),
            ("degrade.enter_stage1", 6),
            ("degrade.enter_stage2", 7),
            ("degrade.enter_stage3", 8),
            ("degrade.repromotions", 9),
            ("degrade.slow_allocs", 10),
            ("degrade.rejected", 11),
            ("compact.passes", 12),
            ("compact.moved_regions", 13),
            ("compact.moved_pages", 14),
            ("compact.cycles", 15),
        ],
    );
}
