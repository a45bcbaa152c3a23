//! The memory-access-latency microbenchmark (§8.1: Table 2, Figure 10; and
//! §8.6: Figure 13 for the virtualized environment).
//!
//! Measures a single `ld`/`sd` under the four microarchitectural states of
//! Table 2 (TC1 cold … TC4 all-warm) for each isolation scheme.

use hpmp_machine::{IsolationScheme, SystemBuilder, VirtMachine, VirtScheme};
use hpmp_memsim::{AccessKind, CoreKind, Perms, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_trace::{Snapshot, TraceSink};

/// The microarchitectural states of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TestCase {
    /// Everything cold: caches, PWC, TLB.
    Tc1,
    /// Caches warm, PWC and TLB cold (post-`sfence.vma`).
    Tc2,
    /// Caches and upper-level PWC warm, leaf PTE and TLB cold
    /// (the "jump to an adjacent page" case).
    Tc3,
    /// Everything warm: TLB hit, cache hit.
    Tc4,
}

/// All four cases in presentation order.
const TEST_CASES: [TestCase; 4] = [TestCase::Tc1, TestCase::Tc2, TestCase::Tc3, TestCase::Tc4];

impl std::fmt::Display for TestCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TestCase::Tc1 => "TC1",
            TestCase::Tc2 => "TC2",
            TestCase::Tc3 => "TC3",
            TestCase::Tc4 => "TC4",
        })
    }
}

/// Measures one memory instruction's latency in cycles for the given core,
/// scheme, operation (`Read` = `ld`, `Write` = `sd`) and test case,
/// recording walk events into `sink`; returns the latency and the
/// machine's metrics snapshot (warm-up accesses included).
pub fn measure<S: TraceSink>(
    core: CoreKind,
    scheme: IsolationScheme,
    op: AccessKind,
    case: TestCase,
    sink: S,
) -> (u64, Snapshot) {
    let mut sys = SystemBuilder::new(core.into(), scheme).sink(sink).build();
    // Map a small working set: the measured page plus an adjacent page used
    // to pre-warm the shared upper PT levels for TC3. The VA is chosen with
    // non-zero VPN fields (9/17/33) so PTE slots land in distinct cache
    // sets, as arbitrary application addresses do — all-zero indices would
    // artificially conflict every hot line into L1 set 0.
    let target = VirtAddr::new((9 << 30) | (17 << 21) | (33 << 12) | 0x2c0);
    let neighbour = target.page_base() + PAGE_SIZE;
    sys.map_range(target, 2, Perms::RW);
    sys.sync_pt_grants();
    let m = &mut sys.machine;
    let s = PrivMode::Supervisor;

    match case {
        TestCase::Tc1 => {
            m.flush_microarch();
        }
        TestCase::Tc2 => {
            // Warm all state, then drop only translations (sfence.vma).
            m.access(&sys.space, target, op, s).expect("warm");
            m.access(&sys.space, target, op, s).expect("warm");
            m.sfence_vma_all();
        }
        TestCase::Tc3 => {
            // Warm the neighbour page: upper PWC levels and caches become
            // hot; the target's leaf PTE and TLB entry stay cold.
            m.flush_microarch();
            m.access(&sys.space, neighbour, op, s)
                .expect("warm neighbour");
        }
        TestCase::Tc4 => {
            m.access(&sys.space, target, op, s).expect("warm");
        }
    }
    let cycles = m
        .access(&sys.space, target, op, s)
        .expect("measured access")
        .cycles;
    m.flush_sink();
    (cycles, m.metrics_snapshot())
}

/// One row of Figure 10: the latencies for (PMPT, HPMP, PMP).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyRow {
    /// The test case.
    pub case: TestCase,
    /// PMP Table latency in cycles.
    pub pmpt: u64,
    /// HPMP latency in cycles.
    pub hpmp: u64,
    /// PMP latency in cycles.
    pub pmp: u64,
}

impl LatencyRow {
    /// Fraction of the PMPT-over-PMP cost that HPMP removes, in `[0, 1]`
    /// (the paper's "mitigates 23.1%–73.1% of costs").
    pub fn mitigation(&self) -> f64 {
        let extra_pmpt = self.pmpt.saturating_sub(self.pmp) as f64;
        let extra_hpmp = self.hpmp.saturating_sub(self.pmp) as f64;
        if extra_pmpt == 0.0 {
            0.0
        } else {
            1.0 - extra_hpmp / extra_pmpt
        }
    }
}

/// Produces the full Figure 10 panel for one core and operation,
/// recording walk events into `sink`; returns the rows and the merged
/// snapshot of every measured machine.
pub fn figure_10_panel<S: TraceSink>(
    core: CoreKind,
    op: AccessKind,
    mut sink: S,
) -> (Vec<LatencyRow>, Snapshot) {
    let mut metrics = Snapshot::new();
    let mut run = |scheme, case| {
        let (cycles, snap) = measure(core, scheme, op, case, &mut sink);
        metrics = metrics.merge(&snap);
        cycles
    };
    let rows = TEST_CASES
        .iter()
        .map(|&case| LatencyRow {
            case,
            pmpt: run(IsolationScheme::PmpTable, case),
            hpmp: run(IsolationScheme::Hpmp, case),
            pmp: run(IsolationScheme::Pmp, case),
        })
        .collect();
    (rows, metrics)
}

/// The microarchitectural states of Figure 13 (virtualized).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VirtCase {
    /// Everything cold.
    Tc1,
    /// After `hfence.vvma` (G-stage state retained).
    AfterHfenceV,
    /// After `hfence.gvma` (G-stage state flushed; caches warm).
    AfterHfenceG,
    /// Adjacent-page access (walk caches warm).
    Tc3,
    /// TLB hit.
    Tc4,
}

/// All five cases in presentation order.
pub const VIRT_CASES: [VirtCase; 5] = [
    VirtCase::Tc1,
    VirtCase::AfterHfenceV,
    VirtCase::AfterHfenceG,
    VirtCase::Tc3,
    VirtCase::Tc4,
];

impl std::fmt::Display for VirtCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VirtCase::Tc1 => "TC1",
            VirtCase::AfterHfenceV => "hfence.v",
            VirtCase::AfterHfenceG => "hfence.g",
            VirtCase::Tc3 => "TC3",
            VirtCase::Tc4 => "TC4",
        })
    }
}

/// Measures one guest access (the paper uses `hlv.d`) for Figure 13,
/// recording walk events into `sink`; returns the latency and the guest
/// machine's metrics snapshot.
pub fn measure_virt_with_sink<S: TraceSink>(
    core: CoreKind,
    scheme: VirtScheme,
    case: VirtCase,
    sink: S,
) -> (u64, Snapshot) {
    let mut m = VirtMachine::with_sink(core.into(), scheme, 8, sink);
    let target = VirtAddr::new(0x20_0000);
    let neighbour = VirtAddr::new(0x20_0000 + PAGE_SIZE);
    match case {
        VirtCase::Tc1 => m.flush_microarch(),
        VirtCase::AfterHfenceV => {
            m.access(target, AccessKind::Read).expect("warm");
            m.hfence_vvma();
        }
        VirtCase::AfterHfenceG => {
            m.access(target, AccessKind::Read).expect("warm");
            m.hfence_gvma();
        }
        VirtCase::Tc3 => {
            m.flush_microarch();
            m.access(neighbour, AccessKind::Read)
                .expect("warm neighbour");
        }
        VirtCase::Tc4 => {
            m.access(target, AccessKind::Read).expect("warm");
        }
    }
    let cycles = m
        .access(target, AccessKind::Read)
        .expect("measured access")
        .cycles;
    m.sink_mut().flush();
    let snapshot = m.metrics_snapshot();
    (cycles, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_trace::NullSink;

    fn lat(core: CoreKind, scheme: IsolationScheme, op: AccessKind, case: TestCase) -> u64 {
        measure(core, scheme, op, case, NullSink).0
    }

    fn measure_virt(core: CoreKind, scheme: VirtScheme, case: VirtCase) -> u64 {
        measure_virt_with_sink(core, scheme, case, NullSink).0
    }

    #[test]
    fn tc1_ordering_per_figure_10() {
        for core in [CoreKind::Rocket, CoreKind::Boom] {
            for op in [AccessKind::Read, AccessKind::Write] {
                let pmp = lat(core, IsolationScheme::Pmp, op, TestCase::Tc1);
                let hpmp = lat(core, IsolationScheme::Hpmp, op, TestCase::Tc1);
                let pmpt = lat(core, IsolationScheme::PmpTable, op, TestCase::Tc1);
                assert!(
                    pmp < hpmp && hpmp < pmpt,
                    "{core} {op}: pmp={pmp} hpmp={hpmp} pmpt={pmpt}"
                );
            }
        }
    }

    #[test]
    fn tc4_equal_across_schemes() {
        for op in [AccessKind::Read, AccessKind::Write] {
            let pmp = lat(CoreKind::Rocket, IsolationScheme::Pmp, op, TestCase::Tc4);
            let hpmp = lat(CoreKind::Rocket, IsolationScheme::Hpmp, op, TestCase::Tc4);
            let pmpt = lat(
                CoreKind::Rocket,
                IsolationScheme::PmpTable,
                op,
                TestCase::Tc4,
            );
            assert_eq!(pmp, hpmp);
            assert_eq!(pmp, pmpt);
        }
    }

    #[test]
    fn cases_get_progressively_warmer() {
        let lats: Vec<u64> = TEST_CASES
            .iter()
            .map(|&c| {
                lat(
                    CoreKind::Rocket,
                    IsolationScheme::PmpTable,
                    AccessKind::Read,
                    c,
                )
            })
            .collect();
        assert!(lats[0] > lats[1], "TC1 > TC2: {lats:?}");
        assert!(lats[1] > lats[2], "TC2 > TC3: {lats:?}");
        assert!(lats[2] > lats[3], "TC3 > TC4: {lats:?}");
    }

    #[test]
    fn mitigation_in_paper_band() {
        // The paper: HPMP mitigates 23.1%–73.1% (BOOM) / 47.7%–72.4%
        // (Rocket) of the extra-dimensional walk cost. Accept a wider
        // sanity band: mitigation must be substantial on every walking case.
        for core in [CoreKind::Rocket, CoreKind::Boom] {
            for op in [AccessKind::Read, AccessKind::Write] {
                for row in figure_10_panel(core, op, NullSink).0 {
                    if row.case == TestCase::Tc4 {
                        continue;
                    }
                    let m = row.mitigation();
                    assert!(
                        m > 0.2 && m <= 1.0,
                        "{core} {op} {}: mitigation {m}",
                        row.case
                    );
                }
            }
        }
    }

    #[test]
    fn sd_pays_more_than_ld_when_walking() {
        let ld = lat(
            CoreKind::Boom,
            IsolationScheme::PmpTable,
            AccessKind::Read,
            TestCase::Tc1,
        );
        let sd = lat(
            CoreKind::Boom,
            IsolationScheme::PmpTable,
            AccessKind::Write,
            TestCase::Tc1,
        );
        assert!(sd > ld);
    }

    #[test]
    fn virt_orderings_match_figure_13() {
        let lats: Vec<u64> = [
            VirtScheme::Pmp,
            VirtScheme::HpmpGpt,
            VirtScheme::Hpmp,
            VirtScheme::PmpTable,
        ]
        .iter()
        .map(|&s| measure_virt(CoreKind::Rocket, s, VirtCase::Tc1))
        .collect();
        assert!(
            lats[0] < lats[1] && lats[1] < lats[2] && lats[2] < lats[3],
            "{lats:?}"
        );
        // hfence.v cheaper than hfence.g for the table scheme.
        let v = measure_virt(
            CoreKind::Rocket,
            VirtScheme::PmpTable,
            VirtCase::AfterHfenceV,
        );
        let g = measure_virt(
            CoreKind::Rocket,
            VirtScheme::PmpTable,
            VirtCase::AfterHfenceG,
        );
        assert!(v < g, "hfence.v {v} < hfence.g {g}");
        // TC4 equal across schemes.
        let tc4: Vec<u64> = [
            VirtScheme::Pmp,
            VirtScheme::PmpTable,
            VirtScheme::Hpmp,
            VirtScheme::HpmpGpt,
        ]
        .iter()
        .map(|&s| measure_virt(CoreKind::Rocket, s, VirtCase::Tc4))
        .collect();
        assert!(tc4.windows(2).all(|w| w[0] == w[1]), "{tc4:?}");
    }
}
