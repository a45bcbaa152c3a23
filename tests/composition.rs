//! Cross-feature composition: the extensions (hints, DMA, a peer enclave,
//! relabelling) interact with the base system on one live stack, in
//! sequence — the "does it all still hold together" test a downstream
//! adopter runs first.

use hpmp_suite::core::DeviceId;
use hpmp_suite::memsim::{AccessKind, CoreKind, VirtAddr, PAGE_SIZE};
use hpmp_suite::penglai::{GmsLabel, TeeFlavor, USER_HEAP_BASE};
use hpmp_suite::workloads::TeeBench;

#[test]
fn full_feature_walkthrough() {
    let mut tee = TeeBench::boot(TeeFlavor::PenglaiHpmp, CoreKind::Rocket);
    let domain = tee.domain;

    // 1. Run a process with demand-paged heap.
    let (pid, _) = tee.os.spawn(&mut tee.machine, 4).expect("spawn");
    let heap = tee.os.mmap_lazy(pid, 16).expect("lazy mmap");
    for i in 0..16u64 {
        tee.os
            .user_access_faulting(
                &mut tee.machine,
                pid,
                VirtAddr::new(heap.raw() + i * PAGE_SIZE),
                AccessKind::Write,
            )
            .expect("demand fault");
    }

    // 2. Mark the hot half with a hint; verify the fast path engages.
    let (hint, _) = tee
        .os
        .ioctl_hint_create(&mut tee.machine, &mut tee.monitor, domain, pid, heap, 8)
        .expect("hint");
    tee.machine.flush_microarch();
    tee.machine.reset_stats();
    tee.os
        .user_access_faulting(&mut tee.machine, pid, heap, AccessKind::Read)
        .expect("hot access");
    assert_eq!(
        tee.machine.stats().refs.pmpte_for_data,
        0,
        "hinted page is segment-backed"
    );

    // 3. Assign a device and DMA into the domain's data region.
    let nic = DeviceId(1);
    tee.monitor
        .assign_device(&mut tee.machine, nic, domain)
        .expect("assign");
    let data_gms = tee.monitor.regions_of(domain).expect("regions")[1].region;
    tee.machine
        .dma_transfer(
            tee.monitor.iopmp(),
            nic,
            data_gms.base,
            4096,
            AccessKind::Write,
        )
        .expect("DMA into own domain");

    // 4. Create a second enclave; the first keeps its memory private.
    let (peer, _) = tee
        .monitor
        .create_domain(&mut tee.machine, 1 << 20, GmsLabel::Slow)
        .expect("peer enclave");
    // The DMA device does not follow into the peer.
    let peer_page = tee.monitor.regions_of(peer).expect("regions")[0]
        .region
        .base;
    assert!(
        tee.machine
            .dma_transfer(tee.monitor.iopmp(), nic, peer_page, 64, AccessKind::Read)
            .is_err(),
        "device must not reach the peer enclave"
    );

    // 5. Tear down: drop the hint, the device and the process. Ordinary
    //    work still runs afterwards.
    tee.os
        .ioctl_hint_delete(&mut tee.machine, &mut tee.monitor, domain, hint)
        .expect("hint delete");
    tee.monitor.revoke_device(&mut tee.machine, nic);
    tee.os
        .munmap(&mut tee.machine, pid, heap, 16)
        .expect("munmap");
    tee.os.exit(&mut tee.machine, pid).expect("exit");

    let (pid2, _) = tee.os.spawn(&mut tee.machine, 2).expect("respawn");
    tee.os.mmap(&mut tee.machine, pid2, 2).expect("mmap");
    tee.os
        .user_access(
            &mut tee.machine,
            pid2,
            VirtAddr::new(USER_HEAP_BASE),
            AccessKind::Write,
        )
        .expect("fresh process works after teardown");
}

/// The same walkthrough degrades gracefully on the non-HPMP flavours: the
/// hint is rejected, everything else works.
#[test]
fn walkthrough_on_baseline_flavours() {
    for flavor in [TeeFlavor::PenglaiPmp, TeeFlavor::PenglaiPmpt] {
        let mut tee = TeeBench::boot(flavor, CoreKind::Rocket);
        let domain = tee.domain;
        let (pid, _) = tee.os.spawn(&mut tee.machine, 2).expect("spawn");
        let heap = tee.os.mmap_lazy(pid, 4).expect("lazy");
        tee.os
            .user_access_faulting(&mut tee.machine, pid, heap, AccessKind::Write)
            .expect("demand fault");
        assert!(
            tee.os
                .ioctl_hint_create(&mut tee.machine, &mut tee.monitor, domain, pid, heap, 4)
                .is_err(),
            "{flavor}: hints are HPMP-only"
        );
        let nic = DeviceId(2);
        tee.monitor
            .assign_device(&mut tee.machine, nic, domain)
            .expect("assign");
        let gms = tee.monitor.regions_of(domain).expect("regions")[1].region;
        tee.machine
            .dma_transfer(tee.monitor.iopmp(), nic, gms.base, 128, AccessKind::Read)
            .unwrap_or_else(|e| panic!("{flavor}: DMA failed: {e}"));
    }
}
