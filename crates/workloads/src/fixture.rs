//! Shared fixtures: the full TEE stack (monitor + OS + machine) used by the
//! application-level workloads, mirroring the paper's methodology of running
//! each benchmark inside a Penglai enclave under one of the three flavours.

use hpmp_machine::{Machine, MachineConfig};
use hpmp_memsim::PhysAddr;
use hpmp_penglai::{DomainId, GmsLabel, SecureMonitor, SimOs, TeeFlavor};
use hpmp_trace::{NullSink, TraceSink};

/// RAM region used by every fixture (1 GiB at the canonical RISC-V base).
pub const RAM_BASE: u64 = 0x8000_0000;
/// RAM size used by every fixture.
pub const RAM_SIZE: u64 = 1 << 30;

/// The full TEE stack: machine + monitor + one enclave domain running the
/// simulated OS.
#[derive(Debug)]
pub struct TeeBench<S: TraceSink = NullSink> {
    /// The simulated SoC.
    pub machine: Machine<S>,
    /// The secure monitor.
    pub monitor: SecureMonitor,
    /// The OS inside the enclave domain.
    pub os: SimOs,
    /// The enclave domain the OS runs in.
    pub domain: DomainId,
}

impl<S: TraceSink> TeeBench<S> {
    /// Boots the stack on a machine built from `config` (a
    /// [`CoreKind`](hpmp_memsim::CoreKind) picks its Table 1
    /// configuration): monitor of the given flavour, one enclave with a
    /// 16 MiB PT-pool GMS (labelled fast under Penglai-HPMP) and a 256 MiB
    /// data GMS, and the OS with its PT pages in the pool. Every access the
    /// workload performs produces one `WalkEvent` in `sink`, tagged with
    /// the world the monitor last switched into.
    ///
    /// # Panics
    ///
    /// Panics if monitor or OS boot fails — fixture sizing is static.
    pub fn boot_with_sink(
        flavor: TeeFlavor,
        config: impl Into<MachineConfig>,
        sink: S,
    ) -> TeeBench<S> {
        let mut machine = Machine::with_sink(config.into(), sink);
        let ram = hpmp_core::PmpRegion::new(PhysAddr::new(RAM_BASE), RAM_SIZE);
        let mut monitor = SecureMonitor::boot(&mut machine, flavor, ram).expect("monitor boots");

        // One enclave domain with a PT pool and a data region.
        let pool_label = if flavor == TeeFlavor::PenglaiHpmp {
            GmsLabel::Fast
        } else {
            GmsLabel::Slow
        };
        let (domain, _) = monitor
            .create_domain(&mut machine, 16 << 20, pool_label)
            .expect("enclave creation");
        let pool = monitor.regions_of(domain).expect("regions")[0].region;
        let (data, _) = monitor
            .alloc_region(&mut machine, domain, 256 << 20, GmsLabel::Slow)
            .expect("data region");
        monitor.switch_to(&mut machine, domain).expect("switch");

        // All Penglai flavours keep PT pages in one contiguous region (the
        // base system already requires it, §5); what differs is whether the
        // region is segment-backed.
        let os = SimOs::boot_with_layout(
            &mut machine,
            PhysAddr::new(RAM_BASE),
            RAM_SIZE,
            (pool.base, pool.size),
            (data.base, data.size),
        );
        TeeBench {
            machine,
            monitor,
            os,
            domain,
        }
    }
}

/// All three flavours, in the order the figures plot them.
pub const FLAVORS: [TeeFlavor; 3] = [
    TeeFlavor::PenglaiPmp,
    TeeFlavor::PenglaiPmpt,
    TeeFlavor::PenglaiHpmp,
];

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::{AccessKind, CoreKind, VirtAddr};
    use hpmp_penglai::USER_CODE_BASE;

    #[test]
    fn boots_all_flavours_on_both_cores() {
        for flavor in FLAVORS {
            for core in [CoreKind::Rocket, CoreKind::Boom] {
                let mut tee = TeeBench::boot_with_sink(flavor, core, NullSink);
                let (pid, _) = tee.os.spawn(&mut tee.machine, 2).expect("spawn");
                tee.os
                    .user_access(
                        &mut tee.machine,
                        pid,
                        VirtAddr::new(USER_CODE_BASE),
                        AccessKind::Read,
                    )
                    .expect("user access");
            }
        }
    }

    #[test]
    fn hpmp_fixture_has_fast_pool() {
        let tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, NullSink);
        let regions = tee.monitor.regions_of(tee.domain).unwrap();
        assert!(regions
            .iter()
            .any(|g| g.label == hpmp_penglai::GmsLabel::Fast));
        // Entry 1 should be the fast pool segment.
        let seg = tee.machine.regs().entry_region(1).expect("fast segment");
        let (pool_base, pool_size) = tee.os.pt_pool_region();
        assert_eq!(seg.base, pool_base);
        assert_eq!(seg.size, pool_size);
    }

    #[test]
    fn walk_cost_ordering_holds_in_full_stack() {
        let mut cold = Vec::new();
        for flavor in [
            TeeFlavor::PenglaiPmp,
            TeeFlavor::PenglaiHpmp,
            TeeFlavor::PenglaiPmpt,
        ] {
            let mut tee = TeeBench::boot_with_sink(flavor, CoreKind::Rocket, NullSink);
            let (pid, _) = tee.os.spawn(&mut tee.machine, 1).expect("spawn");
            tee.machine.flush_microarch();
            let cycles = tee
                .os
                .user_access(
                    &mut tee.machine,
                    pid,
                    VirtAddr::new(USER_CODE_BASE),
                    AccessKind::Read,
                )
                .expect("access");
            cold.push((flavor, cycles));
        }
        assert!(cold[0].1 < cold[1].1, "PMP < HPMP: {cold:?}");
        assert!(cold[1].1 < cold[2].1, "HPMP < PMPT: {cold:?}");
    }
}
