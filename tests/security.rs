//! Security-property integration tests: the isolation guarantees the secure
//! monitor must enforce, checked end-to-end through the machine (not just
//! through data-structure state).

use hpmp_suite::core::PmpRegion;
use hpmp_suite::machine::{
    Fault, IsolationScheme, Machine, MachineConfig, System, SystemBuilder, VirtMachine, VirtScheme,
};
use hpmp_suite::memsim::{AccessKind, Perms, PhysAddr, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_suite::penglai::{DomainId, GmsLabel, SecureMonitor, TeeFlavor};
use hpmp_suite::trace::{RingSink, StepKind};

const RAM: PmpRegion = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);

fn boot(flavor: TeeFlavor) -> (Machine, SecureMonitor) {
    let mut machine = Machine::new(MachineConfig::rocket());
    let monitor = SecureMonitor::boot(&mut machine, flavor, RAM).expect("monitor boots");
    (machine, monitor)
}

/// The monitor's own memory is inaccessible to S/U mode in every flavour,
/// while M-mode retains access.
#[test]
fn monitor_memory_protected() {
    for flavor in [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ] {
        let (machine, monitor) = boot(flavor);
        let inside = PhysAddr::new(monitor.monitor_region().base.raw() + 0x1000);
        let mut cache = hpmp_suite::core::PmptwCache::disabled();
        let s_check = machine.regs().check(
            machine.phys(),
            &mut cache,
            inside,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(
            !s_check.allowed,
            "{flavor}: S-mode must not read monitor memory"
        );
        let m_check = machine.regs().check(
            machine.phys(),
            &mut cache,
            inside,
            AccessKind::Read,
            PrivMode::Machine,
        );
        assert!(m_check.allowed, "{flavor}: M-mode keeps access");
    }
}

/// An enclave's private memory is invisible to the host domain, and the
/// enclave cannot see host memory it was never granted.
#[test]
fn domains_are_mutually_isolated() {
    for flavor in [TeeFlavor::PenglaiPmpt, TeeFlavor::PenglaiHpmp] {
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
        let mut cache = hpmp_suite::core::PmptwCache::disabled();

        // Host running: enclave page denied, host page allowed.
        monitor
            .switch_to(&mut machine, DomainId::HOST)
            .expect("switch host");
        let deny = machine.regs().check(
            machine.phys(),
            &mut cache,
            enclave_page,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(!deny.allowed, "{flavor}: host must not read enclave memory");
        let allow = machine.regs().check(
            machine.phys(),
            &mut cache,
            host_page,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(allow.allowed, "{flavor}: host reads its own memory");

        // Enclave running: its page allowed, the host page denied.
        monitor
            .switch_to(&mut machine, enclave)
            .expect("switch enclave");
        let allow = machine.regs().check(
            machine.phys(),
            &mut cache,
            enclave_page,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(allow.allowed, "{flavor}: enclave reads its own memory");
        let deny = machine.regs().check(
            machine.phys(),
            &mut cache,
            host_page,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(!deny.allowed, "{flavor}: enclave must not read host memory");
    }
}

/// Destroying an enclave returns its memory to the host — and only then.
#[test]
fn destroy_returns_memory() {
    let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
    let (enclave, _) = monitor
        .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
        .expect("create");
    let page = PhysAddr::new(monitor.regions_of(enclave).unwrap()[0].region.base.raw());
    let mut cache = hpmp_suite::core::PmptwCache::disabled();

    monitor
        .switch_to(&mut machine, DomainId::HOST)
        .expect("switch");
    assert!(
        !machine
            .regs()
            .check(
                machine.phys(),
                &mut cache,
                page,
                AccessKind::Read,
                PrivMode::Supervisor
            )
            .allowed
    );
    monitor
        .destroy_domain(&mut machine, enclave)
        .expect("destroy");
    monitor
        .switch_to(&mut machine, DomainId::HOST)
        .expect("switch");
    assert!(
        machine
            .regs()
            .check(
                machine.phys(),
                &mut cache,
                page,
                AccessKind::Read,
                PrivMode::Supervisor
            )
            .allowed
    );
}

/// Revoking a page in the permission table takes effect after the required
/// TLB flush — and, crucially, *not* before it, because permissions are
/// inlined in TLB entries (the paper's TLB-flush requirement, §5).
#[test]
fn revocation_requires_tlb_flush() {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::PmpTable).build();
    let va = VirtAddr::new(0x10_0000);
    let frame = sys.data_frames.alloc().expect("frame");
    sys.map_page_at(va, frame, Perms::RW);
    sys.sync_pt_grants();
    sys.machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .expect("initial access");

    // Revoke in the table, but do not flush: the stale TLB entry still
    // allows the access (this is why the monitor must fence).
    let table = sys.pmp_table.as_mut().expect("table scheme");
    table
        .set_page_perm(
            sys.machine.phys_mut(),
            &mut sys.table_frames,
            frame,
            Perms::NONE,
        )
        .expect("revoke");
    assert!(
        sys.machine
            .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
            .is_ok(),
        "stale TLB entry still grants until the fence"
    );

    // After the fence the revocation is enforced.
    sys.machine.sfence_vma_all();
    let err = sys
        .machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .unwrap_err();
    assert!(matches!(err, Fault::IsolationOnData(_)));
}

/// A walk through a PT page the domain does not own faults on the PT-page
/// check, before any data is touched.
#[test]
fn pt_page_checks_guard_the_walk() {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::PmpTable).build();
    let va = VirtAddr::new(0x10_0000);
    sys.map_range(va, 1, Perms::RW);
    // Deliberately do NOT grant the PT pages (skip sync_pt_grants for the
    // newly created intermediate tables).
    let pt_pages: Vec<PhysAddr> = sys.space.pt_pages().to_vec();
    let table = sys.pmp_table.as_mut().expect("table scheme");
    for page in &pt_pages[1..] {
        table
            .set_page_perm(
                sys.machine.phys_mut(),
                &mut sys.table_frames,
                *page,
                Perms::NONE,
            )
            .expect("revoke PT page");
    }
    sys.machine.sfence_vma_all();
    let err = sys
        .machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .unwrap_err();
    assert!(matches!(err, Fault::IsolationOnPtPage(_)));
}

/// An access denied at a PT reference still walks to the end, uncharged,
/// so it leaves the page-walk cache as a completed walk leaves it: once the
/// PT pages are granted again, without a fence, the repeat hits the PWC at
/// level 1 and reads only the leaf PTE.
#[test]
fn denied_walk_leaves_the_pwc_warm() {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::PmpTable).build();
    let va = VirtAddr::new(0x10_0000);
    sys.map_range(va, 1, Perms::RW);
    let pt_pages: Vec<PhysAddr> = sys.space.pt_pages().to_vec();
    let set_pt_perms = |sys: &mut System, perms| {
        let table = sys.pmp_table.as_mut().expect("table scheme");
        for page in &pt_pages[1..] {
            table
                .set_page_perm(sys.machine.phys_mut(), &mut sys.table_frames, *page, perms)
                .expect("set PT page permission");
        }
    };
    set_pt_perms(&mut sys, Perms::NONE);
    sys.machine.sfence_vma_all();
    let err = sys
        .machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .unwrap_err();
    assert_eq!(err, Fault::IsolationOnPtPage(pt_pages[1]));

    set_pt_perms(&mut sys, Perms::RW);
    let out = sys
        .machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .expect("re-granted PT pages allow the walk");
    assert_eq!(out.tlb_hit, None, "the denied access filled no TLB entry");
    assert_eq!(out.refs.pt_reads, 1, "PWC hit at level 1: leaf PTE only");
    let pwc = sys.machine.metrics_snapshot();
    assert_eq!(pwc.value("machine.pwc.hits"), 1);
    assert_eq!(pwc.value("machine.pwc.misses"), 2);
}

/// The guest form of `denied_walk_leaves_the_pwc_warm`: a guest access
/// denied at its first NPT or guest-PT reference still fills the G-stage
/// TLB and the guest PWC, so once the page is granted again the repeat
/// reads one guest PTE and no nested PTE, as after a completed walk.
#[test]
fn denied_guest_walk_leaves_the_gtlb_and_guest_pwc_warm() {
    let gva = VirtAddr::new(0x20_0000);
    for denied in [StepKind::NestedPt, StepKind::GuestPt] {
        let mut m = VirtMachine::with_sink(
            MachineConfig::rocket(),
            VirtScheme::Pmp,
            16,
            RingSink::new(4),
        );
        m.flush_microarch();
        m.access(gva, AccessKind::Read).expect("cold guest walk");
        let event = m.sink().events().last().cloned().expect("one event");
        let step = event
            .steps
            .iter()
            .find(|s| s.kind == denied)
            .expect("the walk reads this kind");
        let addr = PhysAddr::new(step.addr);
        let page = PmpRegion::new(addr.page_base(), PAGE_SIZE);

        m.flush_microarch();
        let regs = m.regs_mut();
        regs.configure_segment(0, page, Perms::NONE).expect("deny");
        regs.configure_segment(1, RAM, Perms::RWX).expect("RAM");
        let err = m.access(gva, AccessKind::Read).unwrap_err();
        assert_eq!(err, Fault::IsolationOnPtPage(addr), "{denied:?}");

        m.regs_mut()
            .configure_segment(0, page, Perms::RWX)
            .expect("re-grant");
        let out = m.access(gva, AccessKind::Read).expect("re-granted walk");
        assert!(
            !out.tlb_hit,
            "{denied:?}: the denied access filled no TLB entry"
        );
        assert_eq!(
            out.refs.gpt_reads, 1,
            "{denied:?}: guest PWC hit at level 1"
        );
        assert_eq!(
            out.refs.npt_reads, 0,
            "{denied:?}: every sub-walk hit the G-TLB"
        );
    }
}

/// PTE permissions and isolation permissions compose: either one alone
/// denies the access.
#[test]
fn pte_and_isolation_compose() {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    let ro_va = VirtAddr::new(0x20_0000);
    sys.map_range(ro_va, 1, Perms::READ);
    sys.sync_pt_grants();
    // PTE denies the write even though the table grants RWX.
    let err = sys
        .machine
        .access(&sys.space, ro_va, AccessKind::Write, PrivMode::Supervisor)
        .unwrap_err();
    assert!(matches!(err, Fault::PtePermission(_)));
    // Read passes both layers.
    sys.machine
        .access(&sys.space, ro_va, AccessKind::Read, PrivMode::Supervisor)
        .expect("read allowed");
}

/// The PMP flavour's scalability wall is a *failure*, not silent
/// misbehaviour: creation reports OutOfPmpEntries and existing domains
/// remain intact.
#[test]
fn pmp_wall_fails_safely() {
    let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiPmp);
    let mut created = Vec::new();
    loop {
        match monitor.create_domain(&mut machine, 1 << 20, GmsLabel::Slow) {
            Ok((id, _)) => created.push(id),
            Err(hpmp_suite::penglai::MonitorError::OutOfPmpEntries) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(created.len() < 32);
    }
    // All previously created enclaves still switch fine.
    for id in created {
        monitor
            .switch_to(&mut machine, id)
            .expect("switch to surviving enclave");
    }
}
