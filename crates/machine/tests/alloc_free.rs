//! Steady-state accesses perform no heap allocation.
//!
//! The access pipeline builds no walk list: each PT, nested-PT, guest-PT
//! and pmpte reference is checked and charged from a visitor on the stack
//! as the walk reads it. This binary installs a counting global allocator
//! and asserts that, once the model caches are warm, thousands of
//! `NullSink` accesses allocate exactly nothing: native and guest, TLB
//! hits and walks, with and without the PMPTW-Cache, on the fault paths,
//! and between the fences that drop TLB entries.
//!
//! The count is thread-local, so tests running on parallel threads do not
//! see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use hpmp_core::{PmptwCache, PmptwCacheConfig};
use hpmp_machine::{
    Fault, IsolationScheme, MachineConfig, System, SystemBuilder, VirtMachine, VirtScheme,
};
use hpmp_memsim::{AccessKind, Perms, PhysAddr, PrivMode, SplitMix64, VirtAddr, PAGE_SIZE};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: defers every request to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` with no destructor, so bumping it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Accesses run before counting: fills the TLBs, walk caches, cache model
/// and PhysMem directory, and lets the check plan be decoded.
const WARMUP: u64 = 20_000;
/// Accesses counted.
const MEASURED: u64 = 10_000;
/// Mapped pages: 4× the 1,024-entry L2 TLB, so most accesses walk.
const PAGES: u64 = 4_096;
const NATIVE_VA: u64 = 0x1000_0000;
const GUEST_VA: u64 = 0x20_0000;

/// Heap allocations this thread performs while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Asserts that `MEASURED` calls of `access` after `WARMUP` warm-up calls
/// allocate nothing. `walks` reads the machine's walk counter, to show the
/// measured accesses really walked.
fn assert_alloc_free<M>(
    what: &str,
    machine: &mut M,
    mut access: impl FnMut(&mut M, u64),
    walks: impl Fn(&M) -> u64,
) {
    for i in 0..WARMUP {
        access(machine, i);
    }
    let walks_before = walks(machine);
    let allocations = allocations_during(|| {
        for i in WARMUP..WARMUP + MEASURED {
            access(machine, i);
        }
    });
    let walked = walks(machine) - walks_before;
    assert!(
        walked >= MEASURED / 2,
        "{what}: only {walked} of {MEASURED} accesses walked"
    );
    assert_eq!(
        allocations,
        0,
        "{what}: {allocations} heap allocations over {MEASURED} accesses ({:.2} per access)",
        allocations as f64 / MEASURED as f64
    );
}

fn native(scheme: IsolationScheme, pmptw_cache: PmptwCacheConfig) -> System {
    let mut config = MachineConfig::rocket();
    config.pmptw_cache = pmptw_cache;
    let mut sys = SystemBuilder::new(config, scheme).build();
    sys.map_range(VirtAddr::new(NATIVE_VA), PAGES, Perms::RW);
    sys.sync_pt_grants();
    sys
}

/// Uniform random reads and writes over the mapped pages; every fourth
/// access is a write.
fn native_sweep(what: &str, sys: &mut System) {
    let mut rng = SplitMix64::seed_from_u64(7);
    assert_alloc_free(
        what,
        sys,
        |sys, i| {
            let va = VirtAddr::new(NATIVE_VA + rng.gen_range(0..PAGES) * PAGE_SIZE);
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            sys.machine
                .access(&sys.space, va, kind, PrivMode::Supervisor)
                .expect("mapped pages are accessible");
        },
        |sys| sys.machine.stats().walks,
    );
}

#[test]
fn native_hpmp_with_pmptw_cache_is_allocation_free() {
    let mut sys = native(IsolationScheme::Hpmp, PmptwCacheConfig::ENABLED_8);
    native_sweep("native HPMP, PMPTW-Cache on", &mut sys);
    let stats = sys.machine.pmptw_cache().stats();
    assert!(
        stats.leaf_hits > 0 && stats.root_hits > 0 && stats.misses > 0,
        "the sweep must take every PMPTW-Cache path: {stats:?}"
    );
}

#[test]
fn native_hpmp_without_pmptw_cache_is_allocation_free() {
    let mut sys = native(IsolationScheme::Hpmp, PmptwCacheConfig::DISABLED);
    native_sweep("native HPMP, PMPTW-Cache off", &mut sys);
}

#[test]
fn native_pmp_table_is_allocation_free() {
    let mut sys = native(IsolationScheme::PmpTable, PmptwCacheConfig::DISABLED);
    native_sweep("native PMP Table", &mut sys);
}

/// Accesses interleaved with every fence that drops TLB entries: a page
/// fence on the page just touched, an ASID fence, and the monitor's
/// `invalidate_isolation` (epoch bump plus full flush). Removing entries
/// from a live TLB and refilling it afterwards must not allocate.
#[test]
fn native_fences_are_allocation_free() {
    let mut sys = native(IsolationScheme::Hpmp, PmptwCacheConfig::ENABLED_8);
    let asid = sys.space.asid();
    let mut rng = SplitMix64::seed_from_u64(13);
    assert_alloc_free(
        "native HPMP with fences",
        &mut sys,
        |sys, i| {
            // Every walk refills the L1 TLB, so each fence finds it full.
            let va = VirtAddr::new(NATIVE_VA + rng.gen_range(0..PAGES) * PAGE_SIZE);
            sys.machine
                .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
                .expect("mapped pages are accessible");
            match i % 64 {
                7 | 23 | 39 | 55 => sys.machine.sfence_vma_page(asid, va),
                31 => sys.machine.sfence_vma_asid(asid),
                63 => sys.machine.invalidate_isolation(),
                _ => {}
            }
        },
        |sys| sys.machine.stats().walks,
    );
}

fn guest_sweep(scheme: VirtScheme) {
    let mut m = VirtMachine::new(MachineConfig::rocket(), scheme, PAGES);
    let mut rng = SplitMix64::seed_from_u64(11);
    assert_alloc_free(
        &format!("guest {scheme}"),
        &mut m,
        |m, _| {
            let gva = VirtAddr::new(GUEST_VA + rng.gen_range(0..PAGES) * PAGE_SIZE);
            m.access(gva, AccessKind::Read)
                .expect("mapped guest pages are accessible");
        },
        |m| m.stats().walks,
    );
}

#[test]
fn guest_hpmp_is_allocation_free() {
    guest_sweep(VirtScheme::Hpmp);
}

#[test]
fn guest_hpmp_gpt_is_allocation_free() {
    guest_sweep(VirtScheme::HpmpGpt);
}

/// The pmpte covering `paddr`'s data page, found through a cache-free
/// check of the register file.
fn leaf_pmpte(
    regs: &hpmp_core::HpmpRegFile,
    phys: &hpmp_memsim::PhysMem,
    paddr: PhysAddr,
) -> PhysAddr {
    regs.check(
        phys,
        &mut PmptwCache::disabled(),
        paddr,
        AccessKind::Read,
        PrivMode::Supervisor,
    )
    .refs
    .last()
    .expect("a table-mode check reads pmptes")
    .addr
}

/// Page faults (unmapped VAs) and isolation denials (a revoked 64 KiB
/// pmpte span) take the abort path without allocating.
#[test]
fn native_faults_are_allocation_free() {
    let mut sys = native(IsolationScheme::Hpmp, PmptwCacheConfig::DISABLED);
    let denied_va = VirtAddr::new(NATIVE_VA);
    let paddr = sys
        .machine
        .access(
            &sys.space,
            denied_va,
            AccessKind::Read,
            PrivMode::Supervisor,
        )
        .expect("granted before the revocation")
        .paddr;
    let leaf = leaf_pmpte(sys.machine.regs(), sys.machine.phys(), paddr);
    sys.machine.phys_mut().write_u64(leaf, 0);
    sys.machine.sfence_vma_all();
    assert_alloc_free(
        "native faults",
        &mut sys,
        |sys, i| {
            let va = if i % 2 == 0 {
                VirtAddr::new(0x4000_0000 + (i % 512) * PAGE_SIZE)
            } else {
                denied_va
            };
            let err = sys
                .machine
                .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
                .expect_err("unmapped or revoked");
            assert!(
                matches!(err, Fault::PageFault(_) | Fault::IsolationOnData(_)),
                "{err:?}"
            );
        },
        |sys| sys.machine.stats().walks,
    );
}

/// The guest twin of [`native_faults_are_allocation_free`].
#[test]
fn guest_faults_are_allocation_free() {
    let mut m = VirtMachine::new(MachineConfig::rocket(), VirtScheme::Hpmp, 64);
    let denied_gva = VirtAddr::new(GUEST_VA);
    let paddr = m
        .access(denied_gva, AccessKind::Read)
        .expect("granted before the revocation")
        .paddr;
    let leaf = leaf_pmpte(m.regs(), m.phys(), paddr);
    m.phys_mut().write_u64(leaf, 0);
    m.hfence_gvma();
    assert_alloc_free(
        "guest faults",
        &mut m,
        |m, i| {
            let gva = if i % 2 == 0 {
                VirtAddr::new(0x5000_0000 + (i % 512) * PAGE_SIZE)
            } else {
                denied_gva
            };
            let err = m
                .access(gva, AccessKind::Read)
                .expect_err("unmapped or revoked");
            assert!(
                matches!(err, Fault::PageFault(_) | Fault::IsolationOnData(_)),
                "{err:?}"
            );
        },
        |m| m.stats().walks,
    );
}
