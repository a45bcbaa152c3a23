//! End-to-end sanity: boot the full stack (monitor → OS → processes) under
//! every flavour on both cores and verify the paper's qualitative results
//! hold through the complete path, not just in unit fixtures.

use hpmp_suite::memsim::{AccessKind, CoreKind, VirtAddr, PAGE_SIZE};
use hpmp_suite::penglai::{TeeFlavor, USER_HEAP_BASE};
use hpmp_suite::trace::NullSink;
use hpmp_suite::workloads::arena::{replay, Patterns, UserArena};
use hpmp_suite::workloads::TeeBench;

/// The complete stack boots and runs user code for every (flavour, core).
#[test]
fn full_stack_matrix() {
    for flavor in [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ] {
        for core in [CoreKind::Rocket, CoreKind::Boom] {
            let mut tee = TeeBench::boot_with_sink(flavor, core, NullSink);
            let arena = UserArena::create(&mut tee.os, &mut tee.machine, 16).expect("arena");
            let trace = Patterns::new(1).sequential(128, 64, 0.3, 2);
            let cycles = replay(&mut tee.os, &mut tee.machine, &arena, trace).expect("replay");
            assert!(cycles > 0, "{flavor}/{core}");
        }
    }
}

/// Process lifecycle churn (the serverless pattern) neither leaks frames
/// nor corrupts later processes: 40 spawn/work/exit rounds stay functional.
#[test]
fn process_churn_is_stable() {
    let mut tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, NullSink);
    for round in 0..40 {
        let (pid, _) = tee.os.spawn(&mut tee.machine, 8).expect("spawn");
        tee.os.mmap(&mut tee.machine, pid, 16).expect("mmap");
        for i in 0..16u64 {
            tee.os
                .user_access(
                    &mut tee.machine,
                    pid,
                    VirtAddr::new(USER_HEAP_BASE + i * PAGE_SIZE),
                    AccessKind::Write,
                )
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        tee.os.exit(&mut tee.machine, pid).expect("exit");
    }
    assert_eq!(tee.os.process_count(), 0);
}

/// Fork + COW works through the full stack: the child shares pages
/// read-only; parent data remains readable by both.
#[test]
fn fork_cow_through_full_stack() {
    let mut tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiPmpt, CoreKind::Rocket, NullSink);
    let (parent, _) = tee.os.spawn(&mut tee.machine, 4).expect("spawn");
    tee.os.mmap(&mut tee.machine, parent, 4).expect("mmap");
    let heap = VirtAddr::new(USER_HEAP_BASE);
    tee.os
        .user_access(&mut tee.machine, parent, heap, AccessKind::Write)
        .expect("parent w");

    let (child, _) = tee.os.fork(&mut tee.machine, parent).expect("fork");
    tee.os
        .user_access(&mut tee.machine, child, heap, AccessKind::Read)
        .expect("child r");
    assert!(
        tee.os
            .user_access(&mut tee.machine, child, heap, AccessKind::Write)
            .is_err(),
        "child writes must COW-fault"
    );
    tee.os
        .user_access(&mut tee.machine, parent, heap, AccessKind::Read)
        .expect("parent r");
    tee.os.exit(&mut tee.machine, child).expect("child exit");
    tee.os
        .user_access(&mut tee.machine, parent, heap, AccessKind::Read)
        .expect("parent survives child exit");
}

/// The headline end-to-end claim: over a realistic mixed workload, total
/// cycles order PMP < HPMP < PMPT, and HPMP recovers the majority of the
/// permission-table overhead.
#[test]
fn hpmp_recovers_most_of_the_table_cost() {
    let mut totals = Vec::new();
    for flavor in [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiHpmp,
        TeeFlavor::PenglaiPmpt,
    ] {
        let mut tee = TeeBench::boot_with_sink(flavor, CoreKind::Rocket, NullSink);
        let arena = UserArena::create(&mut tee.os, &mut tee.machine, 2048).expect("arena");
        let mut patterns = Patterns::new(99);
        // Mixed phases: cold touches, random probes, sequential streams.
        let mut cycles = 0;
        let cold: Vec<_> = (0..256u64)
            .map(|i| hpmp_suite::workloads::arena::TraceStep {
                offset: i * PAGE_SIZE,
                kind: AccessKind::Write,
                compute: 2,
            })
            .collect();
        cycles += replay(&mut tee.os, &mut tee.machine, &arena, cold).expect("cold");
        let random = patterns.random(1500, 2048 * PAGE_SIZE, 0.3, 4);
        cycles += replay(&mut tee.os, &mut tee.machine, &arena, random).expect("random");
        let seq = patterns.sequential(1500, 96, 0.3, 4);
        cycles += replay(&mut tee.os, &mut tee.machine, &arena, seq).expect("seq");
        totals.push((flavor, cycles));
    }
    let pmp = totals[0].1 as f64;
    let hpmp = totals[1].1 as f64;
    let pmpt = totals[2].1 as f64;
    assert!(pmp < hpmp && hpmp < pmpt, "ordering violated: {totals:?}");
    let recovered = (pmpt - hpmp) / (pmpt - pmp);
    assert!(
        recovered > 0.5,
        "HPMP should recover >50% of the table cost: {recovered}"
    );
}

/// Monitor operations interleave safely with OS work: relabelling the PT
/// pool mid-run flips performance without breaking correctness.
#[test]
fn relabel_mid_run() {
    use hpmp_suite::penglai::GmsLabel;
    let mut tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, NullSink);
    let (pid, _) = tee.os.spawn(&mut tee.machine, 4).expect("spawn");
    let code = VirtAddr::new(hpmp_suite::penglai::USER_CODE_BASE);
    tee.os
        .user_access(&mut tee.machine, pid, code, AccessKind::Read)
        .expect("before");

    // Demote the PT pool to slow: still correct, just slower on walks.
    let (pool_base, _) = tee.os.pt_pool_region();
    let domain = tee.domain;
    tee.monitor
        .relabel(&mut tee.machine, domain, pool_base, GmsLabel::Slow)
        .expect("relabel slow");
    tee.machine.flush_microarch();
    let slow = tee
        .os
        .user_access(&mut tee.machine, pid, code, AccessKind::Read)
        .expect("slow access");

    // Promote back to fast: the same cold access gets cheaper.
    tee.monitor
        .relabel(&mut tee.machine, domain, pool_base, GmsLabel::Fast)
        .expect("relabel fast");
    tee.machine.flush_microarch();
    let fast = tee
        .os
        .user_access(&mut tee.machine, pid, code, AccessKind::Read)
        .expect("fast access");
    assert!(
        fast < slow,
        "fast GMS must make the cold walk cheaper: {fast} vs {slow}"
    );
}
