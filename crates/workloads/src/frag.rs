//! Memory-fragmentation microbenchmark (§8.8, Figures 15/16).
//!
//! Four layouts: {contiguous, fragmented} virtual pages × {contiguous,
//! fragmented} physical pages. "Fragmented-VA" steps to the next virtual
//! page with an 8 GiB + 4 KiB offset (defeating PWC/TLB reach exactly as in
//! the paper); fragmented physical pages defeat the cache-line sharing of
//! adjacent PTEs and pmptes. The same walk is then measured with the
//! PMPTW-Cache enabled for Figure 16.

use hpmp_core::PmptwCacheConfig;
use hpmp_machine::{IsolationScheme, MachineConfig, SystemBuilder};
use hpmp_memsim::{AccessKind, CoreKind, Perms, PrivMode, VirtAddr, PAGE_SIZE};

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
pub const FRAG_PAGES: u64 = 24;

/// Measures the total latency of touching [`FRAG_PAGES`] fresh pages (one
/// access each, TLB-missing by construction) under the given layouts.
pub fn measure(
    core: CoreKind,
    scheme: IsolationScheme,
    va: VaLayout,
    pa: PaLayout,
    pmptw_cache: PmptwCacheConfig,
) -> u64 {
    let mut config = match core {
        CoreKind::Rocket => MachineConfig::rocket(),
        CoreKind::Boom => MachineConfig::boom(),
    };
    config.pmptw_cache = pmptw_cache;
    let mut sys = SystemBuilder::new(config, scheme).build();

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
    let frames: Vec<_> = (0..FRAG_PAGES)
        .map(|i| {
            let frame = hpmp_memsim::PhysAddr::new(
                sys.ram.base.raw() + (64 << 20) + i * pa_stride_pages * PAGE_SIZE,
            );
            sys.map_page_at(VirtAddr::new(va_base + i * va_stride), frame, Perms::RW);
            frame
        })
        .collect();
    let _ = frames;
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
    total
}

/// The virtualized fragmentation cases — §8.8's (3) contiguous and (4)
/// fragmented physical backing under fragmented host virtual pages. The
/// guest touches [`FRAG_PAGES`] fresh guest pages; `backing` selects how
/// the hypervisor placed the frames behind them.
pub fn measure_virt(core: CoreKind, scheme: hpmp_machine::VirtScheme, backing: PaLayout) -> u64 {
    use hpmp_machine::VirtMachine;
    use hpmp_trace::NullSink;
    let config = match core {
        CoreKind::Rocket => MachineConfig::rocket(),
        CoreKind::Boom => MachineConfig::boom(),
    };
    let fragmented = backing == PaLayout::Fragmented;
    let mut m = VirtMachine::with_sink_options(config, scheme, FRAG_PAGES, fragmented, NullSink);
    m.flush_microarch();
    let mut total = 0;
    for i in 0..FRAG_PAGES {
        total += m
            .access(VirtAddr::new(0x20_0000 + i * PAGE_SIZE), AccessKind::Read)
            .expect("guest page")
            .cycles;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const DISABLED: PmptwCacheConfig = PmptwCacheConfig::DISABLED;

    #[test]
    fn fragmentation_hurts() {
        let ideal = measure(
            CoreKind::Rocket,
            IsolationScheme::PmpTable,
            VaLayout::Contiguous,
            PaLayout::Contiguous,
            DISABLED,
        );
        let worst = measure(
            CoreKind::Rocket,
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
                let pmpt = measure(
                    CoreKind::Rocket,
                    IsolationScheme::PmpTable,
                    va,
                    pa,
                    DISABLED,
                );
                let hpmp = measure(CoreKind::Rocket, IsolationScheme::Hpmp, va, pa, DISABLED);
                let pmp = measure(CoreKind::Rocket, IsolationScheme::Pmp, va, pa, DISABLED);
                assert!(hpmp < pmpt, "{va}/{pa}: HPMP {hpmp} must beat PMPT {pmpt}");
                assert!(pmp < hpmp, "{va}/{pa}: PMP {pmp} must beat HPMP {hpmp}");
            }
        }
    }

    #[test]
    fn virt_fragmentation_cases() {
        use hpmp_machine::VirtScheme;
        // Case (4) costs more than case (3) for every scheme, and HPMP
        // stays between PMP and PMPT in both.
        for scheme in [VirtScheme::Pmp, VirtScheme::PmpTable, VirtScheme::Hpmp] {
            let contig = measure_virt(CoreKind::Rocket, scheme, PaLayout::Contiguous);
            let frag = measure_virt(CoreKind::Rocket, scheme, PaLayout::Fragmented);
            assert!(
                frag >= contig,
                "{scheme}: fragmented backing must not be cheaper ({frag} vs {contig})"
            );
        }
        let pmp = measure_virt(CoreKind::Rocket, VirtScheme::Pmp, PaLayout::Fragmented);
        let hpmp = measure_virt(CoreKind::Rocket, VirtScheme::Hpmp, PaLayout::Fragmented);
        let pmpt = measure_virt(CoreKind::Rocket, VirtScheme::PmpTable, PaLayout::Fragmented);
        assert!(pmp < hpmp && hpmp < pmpt, "ordering: {pmp} {hpmp} {pmpt}");
    }

    #[test]
    fn pmptw_cache_helps_fragmented_va() {
        // Figure 16: caching reduces PMPT's fragmented-VA latency, and
        // HPMP + cache is the best table-backed configuration.
        let without = measure(
            CoreKind::Rocket,
            IsolationScheme::PmpTable,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            DISABLED,
        );
        let with = measure(
            CoreKind::Rocket,
            IsolationScheme::PmpTable,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            PmptwCacheConfig::ENABLED_8,
        );
        assert!(with < without, "PMPTW-Cache must help: {with} vs {without}");
        let hpmp_cache = measure(
            CoreKind::Rocket,
            IsolationScheme::Hpmp,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            PmptwCacheConfig::ENABLED_8,
        );
        let hpmp_plain = measure(
            CoreKind::Rocket,
            IsolationScheme::Hpmp,
            VaLayout::Fragmented,
            PaLayout::Contiguous,
            DISABLED,
        );
        assert!(hpmp_cache <= hpmp_plain, "HPMP-Cache must not be worse");
        assert!(hpmp_cache < with, "HPMP-Cache beats PMPT-Cache");
    }
}
