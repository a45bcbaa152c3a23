//! §9 "efficient isolation through new abstractions": the three hint
//! ioctls (create / delete / query) that let an application mark hot data
//! regions, which Penglai-HPMP then backs with segment entries — removing
//! the *data-page* permission references on top of the already-removed
//! PT-page references.

use hpmp_suite::memsim::{AccessKind, CoreKind, VirtAddr, PAGE_SIZE};
use hpmp_suite::penglai::{OsError, TeeFlavor, USER_HEAP_BASE};
use hpmp_suite::trace::NullSink;
use hpmp_suite::workloads::TeeBench;

fn boot_with_heap(flavor: TeeFlavor) -> (TeeBench, hpmp_suite::penglai::Pid) {
    let mut tee = TeeBench::boot_with_sink(flavor, CoreKind::Rocket, NullSink);
    let (pid, _) = tee.os.spawn(&mut tee.machine, 2).expect("spawn");
    tee.os.mmap(&mut tee.machine, pid, 16).expect("mmap");
    (tee, pid)
}

/// A hinted hot page is checked by segment: a cold HPMP walk drops from 6
/// references (3 PT + 2 pmpte-for-data + 1 data) to 4 — PMP-class cost at
/// page granularity.
#[test]
fn hint_removes_data_pmpte_refs() {
    let (mut tee, pid) = boot_with_heap(TeeFlavor::PenglaiHpmp);
    let heap = VirtAddr::new(USER_HEAP_BASE);
    let domain = tee.domain;

    // Before the hint: cold access pays the data permission walk (1 ref
    // here — the host grant used a huge root pmpte — 2 with per-page fill).
    tee.machine.flush_microarch();
    tee.machine.reset_stats();
    let before = tee
        .os
        .user_access(&mut tee.machine, pid, heap, AccessKind::Read)
        .expect("access");
    let pmpte_before = tee.machine.stats().refs.pmpte_for_data;
    assert!(
        pmpte_before >= 1,
        "table path must be active before the hint"
    );

    let (hint, _) = tee
        .os
        .ioctl_hint_create(&mut tee.machine, &mut tee.monitor, domain, pid, heap, 8)
        .expect("hint create");

    tee.machine.flush_microarch();
    tee.machine.reset_stats();
    let after = tee
        .os
        .user_access(&mut tee.machine, pid, heap, AccessKind::Read)
        .expect("access");
    let stats = tee.machine.stats();
    assert_eq!(
        stats.refs.pmpte_for_data, 0,
        "hot region must be segment-checked"
    );
    assert_eq!(stats.refs.total(), 4, "PMP-class walk for hinted data");
    let _ = pmpte_before;
    assert!(
        after < before,
        "hinted access must be cheaper: {after} vs {before}"
    );

    // Delete restores table checking.
    tee.os
        .ioctl_hint_delete(&mut tee.machine, &mut tee.monitor, domain, hint)
        .expect("hint delete");
    tee.machine.flush_microarch();
    tee.machine.reset_stats();
    tee.os
        .user_access(&mut tee.machine, pid, heap, AccessKind::Read)
        .expect("access");
    assert_eq!(
        tee.machine.stats().refs.pmpte_for_data,
        pmpte_before,
        "delete restores the table path"
    );
}

/// Query lists installed hints; delete removes exactly one.
#[test]
fn hint_query_and_delete() {
    let (mut tee, pid) = boot_with_heap(TeeFlavor::PenglaiHpmp);
    let domain = tee.domain;
    let (a, _) = tee
        .os
        .ioctl_hint_create(
            &mut tee.machine,
            &mut tee.monitor,
            domain,
            pid,
            VirtAddr::new(USER_HEAP_BASE),
            4,
        )
        .expect("hint a");
    let (b, _) = tee
        .os
        .ioctl_hint_create(
            &mut tee.machine,
            &mut tee.monitor,
            domain,
            pid,
            VirtAddr::new(USER_HEAP_BASE + 8 * PAGE_SIZE),
            4,
        )
        .expect("hint b");
    assert_eq!(tee.os.ioctl_hint_query().len(), 2);
    tee.os
        .ioctl_hint_delete(&mut tee.machine, &mut tee.monitor, domain, a)
        .expect("del");
    let remaining = tee.os.ioctl_hint_query();
    assert_eq!(remaining.len(), 1);
    assert_eq!(remaining[0].id, b);
    // Double delete fails cleanly.
    assert!(matches!(
        tee.os
            .ioctl_hint_delete(&mut tee.machine, &mut tee.monitor, domain, a),
        Err(OsError::NoSuchHint(_))
    ));
}

/// Hints demand a mapped, physically contiguous range.
#[test]
fn hint_validates_range() {
    let (mut tee, pid) = boot_with_heap(TeeFlavor::PenglaiHpmp);
    let domain = tee.domain;
    // Unmapped range.
    let err = tee
        .os
        .ioctl_hint_create(
            &mut tee.machine,
            &mut tee.monitor,
            domain,
            pid,
            VirtAddr::new(0x7000_0000),
            4,
        )
        .unwrap_err();
    assert!(matches!(err, OsError::BadHintRange(_)));
}

/// The hint path is HPMP-only: the other flavours have no fast segments
/// for data, so the ioctl reports a monitor rejection.
#[test]
fn hints_require_hpmp_flavor() {
    for flavor in [TeeFlavor::PenglaiPmp, TeeFlavor::PenglaiPmpt] {
        let (mut tee, pid) = boot_with_heap(flavor);
        let domain = tee.domain;
        let err = tee
            .os
            .ioctl_hint_create(
                &mut tee.machine,
                &mut tee.monitor,
                domain,
                pid,
                VirtAddr::new(USER_HEAP_BASE),
                4,
            )
            .unwrap_err();
        assert!(matches!(err, OsError::Monitor(_)), "{flavor}");
    }
}

/// Hot-region hints compose with the PT-pool segment: a workload touching
/// only hinted pages sees zero permission-table references at all.
#[test]
fn hints_eliminate_all_table_traffic() {
    let (mut tee, pid) = boot_with_heap(TeeFlavor::PenglaiHpmp);
    let domain = tee.domain;
    tee.os
        .ioctl_hint_create(
            &mut tee.machine,
            &mut tee.monitor,
            domain,
            pid,
            VirtAddr::new(USER_HEAP_BASE),
            16,
        )
        .expect("hint");
    tee.machine.flush_microarch();
    tee.machine.reset_stats();
    for i in 0..16u64 {
        tee.os
            .user_access(
                &mut tee.machine,
                pid,
                VirtAddr::new(USER_HEAP_BASE + i * PAGE_SIZE),
                AccessKind::Write,
            )
            .expect("access");
    }
    let refs = tee.machine.stats().refs;
    assert_eq!(
        refs.pmpte_for_pt + refs.pmpte_for_data,
        0,
        "no permission-table traffic for hinted working sets"
    );
}
