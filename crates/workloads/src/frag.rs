//! Memory-fragmentation microbenchmark (§8.8, Figures 15/16).
//!
//! Four layouts: {contiguous, fragmented} virtual pages × {contiguous,
//! fragmented} physical pages. "Fragmented-VA" steps to the next virtual
//! page with an 8 GiB + 4 KiB offset (defeating PWC/TLB reach exactly as in
//! the paper); fragmented physical pages defeat the cache-line sharing of
//! adjacent PTEs and pmptes. The same walk is then measured with the
//! PMPTW-Cache enabled for Figure 16.

use hpmp_core::PmptwCacheConfig;
use hpmp_machine::{IsolationScheme, MachineConfig, SystemBuilder, VirtMachine, VirtScheme};
use hpmp_memsim::{AccessKind, CoreKind, Perms, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_trace::{Snapshot, TraceSink};

/// Virtual-address layout of the touched pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VaLayout {
    /// Consecutive virtual pages.
    Contiguous,
    /// Next page at an 8 GiB + 4 KiB offset (the paper's Fragmented-VA).
    Fragmented,
}

impl std::fmt::Display for VaLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VaLayout::Contiguous => "Contiguous-VA",
            VaLayout::Fragmented => "Fragmented-VA",
        })
    }
}

/// Physical placement of the touched pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaLayout {
    /// Consecutive physical frames.
    Contiguous,
    /// Frames strided by 2 MiB + one page (buddy-allocator churn).
    Fragmented,
}

impl std::fmt::Display for PaLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PaLayout::Contiguous => "Contiguous-PA",
            PaLayout::Fragmented => "Fragmented-PA",
        })
    }
}

/// Number of pages touched by the microbenchmark.
const FRAG_PAGES: u64 = 24;

/// Measures the total latency of touching 24 fresh pages (one access each,
/// TLB-missing by construction) under the given layouts, recording walk
/// events into `sink`; returns the latency and the machine's metrics
/// snapshot.
pub fn measure<S: TraceSink>(
    core: CoreKind,
    scheme: IsolationScheme,
    va: VaLayout,
    pa: PaLayout,
    pmptw_cache: PmptwCacheConfig,
    sink: S,
) -> (u64, Snapshot) {
    let mut config = MachineConfig::from(core);
    config.pmptw_cache = pmptw_cache;
    let mut sys = SystemBuilder::new(config, scheme).sink(sink).build();

    // Sv39 tops out below 512 GiB; 24 pages at 8 GiB stride fits.
    let va_stride = match va {
        VaLayout::Contiguous => PAGE_SIZE,
        VaLayout::Fragmented => (8u64 << 30) + PAGE_SIZE,
    };
    let pa_stride_pages = match pa {
        PaLayout::Contiguous => 1u64,
        PaLayout::Fragmented => (2u64 << 20) / PAGE_SIZE + 1,
    };

    let va_base = 0x10_0000u64;
    for i in 0..FRAG_PAGES {
        let frame = hpmp_memsim::PhysAddr::new(
            sys.ram.base.raw() + (64 << 20) + i * pa_stride_pages * PAGE_SIZE,
        );
        sys.map_page_at(VirtAddr::new(va_base + i * va_stride), frame, Perms::RW);
    }
    sys.sync_pt_grants();

    sys.machine.flush_microarch();
    let mut total = 0;
    for i in 0..FRAG_PAGES {
        let out = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(va_base + i * va_stride),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .expect("touch");
        total += out.cycles;
    }
    sys.machine.flush_sink();
    (total, sys.machine.metrics_snapshot())
}

/// The virtualized fragmentation cases — §8.8's (3) contiguous and (4)
/// fragmented physical backing under fragmented host virtual pages. The
/// guest touches 24 fresh guest pages; `backing` selects how the
/// hypervisor placed the frames behind them. Records walk events into
/// `sink`; returns the latency and the guest machine's metrics snapshot.
pub fn measure_virt<S: TraceSink>(
    core: CoreKind,
    scheme: VirtScheme,
    backing: PaLayout,
    sink: S,
) -> (u64, Snapshot) {
    let fragmented = backing == PaLayout::Fragmented;
    let mut m = VirtMachine::with_sink_options(core.into(), scheme, FRAG_PAGES, fragmented, sink);
    m.flush_microarch();
    let mut total = 0;
    for i in 0..FRAG_PAGES {
        total += m
            .access(VirtAddr::new(0x20_0000 + i * PAGE_SIZE), AccessKind::Read)
            .expect("guest page")
            .cycles;
    }
    m.flush_sink();
    (total, m.metrics_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_trace::NullSink;

    const DISABLED: PmptwCacheConfig = PmptwCacheConfig::DISABLED;

    fn total(
        scheme: IsolationScheme,
        va: VaLayout,
        pa: PaLayout,
        pmptw_cache: PmptwCacheConfig,
    ) -> u64 {
        measure(CoreKind::Rocket, scheme, va, pa, pmptw_cache, NullSink).0
    }

    fn virt_total(scheme: VirtScheme, backing: PaLayout) -> u64 {
        measure_virt(CoreKind::Rocket, scheme, backing, NullSink).0
    }

    #[test]
    fn fragmentation_hurts() {
        let ideal = total(
            IsolationScheme::PmpTable,
            VaLayout::Contiguous,
            PaLayout::Contiguous,
            DISABLED,
        );
        let worst = total(
            IsolationScheme::PmpTable,
            VaLayout::Fragmented,
            PaLayout::Fragmented,
            DISABLED,
        );
        assert!(
            worst > ideal,
            "fragmented {worst} must exceed ideal {ideal}"
        );
    }

    #[test]
    fn hpmp_beats_pmpt_in_every_layout() {
        for va in [VaLayout::Contiguous, VaLayout::Fragmented] {
            for pa in [PaLayout::Contiguous, PaLayout::Fragmented] {
                let pmpt = total(IsolationScheme::PmpTable, va, pa, DISABLED);
                let hpmp = total(IsolationScheme::Hpmp, va, pa, DISABLED);
                let pmp = total(IsolationScheme::Pmp, va, pa, DISABLED);
                assert!(hpmp < pmpt, "{va}/{pa}: HPMP {hpmp} must beat PMPT {pmpt}");
                assert!(pmp < hpmp, "{va}/{pa}: PMP {pmp} must beat HPMP {hpmp}");
            }
        }
    }

    #[test]
    fn virt_fragmentation_cases() {
        // Case (4) costs more than case (3) for every scheme, and HPMP
        // stays between PMP and PMPT in both.
        for scheme in [VirtScheme::Pmp, VirtScheme::PmpTable, VirtScheme::Hpmp] {
            let contig = virt_total(scheme, PaLayout::Contiguous);
            let frag = virt_total(scheme, PaLayout::Fragmented);
            assert!(
                frag >= contig,
                "{scheme}: fragmented backing must not be cheaper ({frag} vs {contig})"
            );
        }
        let pmp = virt_total(VirtScheme::Pmp, PaLayout::Fragmented);
        let hpmp = virt_total(VirtScheme::Hpmp, PaLayout::Fragmented);
        let pmpt = virt_total(VirtScheme::PmpTable, PaLayout::Fragmented);
        assert!(pmp < hpmp && hpmp < pmpt, "ordering: {pmp} {hpmp} {pmpt}");
    }

    #[test]
    fn pmptw_cache_helps_fragmented_va() {
        // Figure 16: caching reduces PMPT's fragmented-VA latency, and
        // HPMP + cache is the best table-backed configuration.
        let without = total(
            IsolationScheme::PmpTable,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            DISABLED,
        );
        let with = total(
            IsolationScheme::PmpTable,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            PmptwCacheConfig::ENABLED_8,
        );
        assert!(with < without, "PMPTW-Cache must help: {with} vs {without}");
        let hpmp_cache = total(
            IsolationScheme::Hpmp,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            PmptwCacheConfig::ENABLED_8,
        );
        let hpmp_plain = total(
            IsolationScheme::Hpmp,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            DISABLED,
        );
        assert!(hpmp_cache <= hpmp_plain, "HPMP-Cache must not be worse");
        assert!(hpmp_cache < with, "HPMP-Cache beats PMPT-Cache");
    }
}
