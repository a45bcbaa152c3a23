//! §9 I/O protection: DMA initiators are checked by an IOPMP in the HPMP
//! style. Devices assigned to a domain can DMA into its memory and nowhere
//! else; the "malicious I/O device" of the paper is stopped at the first
//! page.

use hpmp_suite::core::{DeviceId, PmpRegion};
use hpmp_suite::machine::{Fault, Machine, MachineConfig};
use hpmp_suite::memsim::{AccessKind, PhysAddr};
use hpmp_suite::penglai::{DomainId, GmsLabel, SecureMonitor, TeeFlavor};

const RAM: PmpRegion = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);

fn boot(flavor: TeeFlavor) -> (Machine, SecureMonitor) {
    let mut machine = Machine::new(MachineConfig::rocket());
    let monitor = SecureMonitor::boot(&mut machine, flavor, RAM).expect("monitor boots");
    (machine, monitor)
}

/// Unassigned devices have no access at all (default deny).
#[test]
fn unassigned_device_denied() {
    let (mut machine, monitor) = boot(TeeFlavor::PenglaiHpmp);
    let host_page = PhysAddr::new(
        monitor.regions_of(DomainId::HOST).unwrap()[0]
            .region
            .base
            .raw(),
    );
    let err = machine
        .dma_transfer(
            monitor.iopmp(),
            DeviceId(5),
            host_page,
            4096,
            AccessKind::Write,
        )
        .unwrap_err();
    assert!(matches!(err, Fault::IsolationOnData(_)));
}

/// A device assigned to an enclave can DMA into the enclave's memory but
/// is stopped at host memory — and vice versa.
#[test]
fn device_scoped_to_owner() {
    for flavor in [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ] {
        let (mut machine, mut monitor) = boot(flavor);
        let (enclave, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .expect("create");
        let enclave_page = PhysAddr::new(monitor.regions_of(enclave).unwrap()[0].region.base.raw());
        let host_page = PhysAddr::new(
            monitor.regions_of(DomainId::HOST).unwrap()[0]
                .region
                .base
                .raw()
                + (64 << 20),
        );

        let nic = DeviceId(1);
        monitor
            .assign_device(&mut machine, nic, enclave)
            .expect("assign");
        let cycles = machine
            .dma_transfer(monitor.iopmp(), nic, enclave_page, 4096, AccessKind::Write)
            .unwrap_or_else(|e| panic!("{flavor}: enclave DMA must pass: {e}"));
        assert!(cycles > 0);
        let err = machine
            .dma_transfer(monitor.iopmp(), nic, host_page, 4096, AccessKind::Write)
            .expect_err("host memory must be out of reach");
        assert!(matches!(err, Fault::IsolationOnData(_)), "{flavor}");

        // A host-owned device is the mirror image.
        let disk = DeviceId(2);
        monitor
            .assign_device(&mut machine, disk, DomainId::HOST)
            .expect("assign");
        machine
            .dma_transfer(monitor.iopmp(), disk, host_page, 4096, AccessKind::Read)
            .unwrap_or_else(|e| panic!("{flavor}: host DMA must pass: {e}"));
        assert!(
            machine
                .dma_transfer(monitor.iopmp(), disk, enclave_page, 4096, AccessKind::Read)
                .is_err(),
            "{flavor}: malicious device stopped at enclave memory"
        );
    }
}

/// Revoking a device restores default deny; reassignment moves its reach.
#[test]
fn revoke_and_reassign() {
    let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
    let (a, _) = monitor
        .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
        .expect("a");
    let (b, _) = monitor
        .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
        .expect("b");
    let page_a = PhysAddr::new(monitor.regions_of(a).unwrap()[0].region.base.raw());
    let page_b = PhysAddr::new(monitor.regions_of(b).unwrap()[0].region.base.raw());
    let dev = DeviceId(7);

    monitor
        .assign_device(&mut machine, dev, a)
        .expect("assign a");
    machine
        .dma_transfer(monitor.iopmp(), dev, page_a, 64, AccessKind::Read)
        .expect("a ok");

    monitor
        .assign_device(&mut machine, dev, b)
        .expect("reassign b");
    machine
        .dma_transfer(monitor.iopmp(), dev, page_b, 64, AccessKind::Read)
        .expect("b ok");
    assert!(
        machine
            .dma_transfer(monitor.iopmp(), dev, page_a, 64, AccessKind::Read)
            .is_err(),
        "old owner's memory now out of reach"
    );

    monitor.revoke_device(&mut machine, dev);
    assert!(
        machine
            .dma_transfer(monitor.iopmp(), dev, page_b, 64, AccessKind::Read)
            .is_err(),
        "revoked device denied everywhere"
    );
}

/// Device reach tracks region allocation: memory granted to the owning
/// domain after assignment is immediately DMA-reachable.
#[test]
fn device_reach_tracks_regions() {
    let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
    let (enclave, _) = monitor
        .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
        .expect("create");
    let dev = DeviceId(3);
    monitor
        .assign_device(&mut machine, dev, enclave)
        .expect("assign");
    let (new_region, _) = monitor
        .alloc_region(&mut machine, enclave, 1 << 20, GmsLabel::Slow)
        .expect("grow");
    machine
        .dma_transfer(
            monitor.iopmp(),
            dev,
            new_region.base,
            4096,
            AccessKind::Write,
        )
        .expect("newly granted region is DMA-reachable");
}

/// Destroying a domain severs its devices.
#[test]
fn destroy_severs_devices() {
    let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiPmpt);
    let (enclave, _) = monitor
        .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
        .expect("create");
    let page = PhysAddr::new(monitor.regions_of(enclave).unwrap()[0].region.base.raw());
    let dev = DeviceId(4);
    monitor
        .assign_device(&mut machine, dev, enclave)
        .expect("assign");
    machine
        .dma_transfer(monitor.iopmp(), dev, page, 64, AccessKind::Read)
        .expect("ok");
    monitor
        .destroy_domain(&mut machine, enclave)
        .expect("destroy");
    assert!(
        machine
            .dma_transfer(monitor.iopmp(), dev, page, 64, AccessKind::Read)
            .is_err(),
        "device loses access when its domain dies"
    );
}

/// A corrupt pmpte behind an IOPMP table entry fails closed as the same
/// fault the CPU path raises, not as a policy denial; restoring the word
/// restores the DMA.
#[test]
fn corrupt_iopmp_pmpte_is_reported_as_corruption() {
    let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
    let (enclave, _) = monitor
        .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
        .expect("create");
    let page = PhysAddr::new(monitor.regions_of(enclave).unwrap()[0].region.base.raw());
    let nic = DeviceId(3);
    monitor
        .assign_device(&mut machine, nic, enclave)
        .expect("assign");
    let check = monitor
        .iopmp()
        .check(machine.phys(), nic, page, AccessKind::Write);
    assert!(check.allowed && !check.malformed);
    let leaf = *check.refs.last().expect("a table-mode entry walks");
    assert!(!leaf.is_root, "the enclave's page has its own leaf pmpte");

    machine
        .phys_mut()
        .write_u64(leaf.addr, leaf.bits ^ (1 << 9));
    let err = machine
        .dma_transfer(monitor.iopmp(), nic, page, 4096, AccessKind::Write)
        .expect_err("a corrupt pmpte must never grant");
    assert_eq!(err, Fault::CorruptPmpte(page));

    machine.phys_mut().write_u64(leaf.addr, leaf.bits);
    machine
        .dma_transfer(monitor.iopmp(), nic, page, 4096, AccessKind::Write)
        .expect("the restored pmpte grants again");
}
