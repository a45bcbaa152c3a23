//! Microbenches for the simulator's per-access hot path: flat page-directory
//! reads/writes, TLB/PWC/PMPTW-cache lookups, the HPMP permission check,
//! the cache/DRAM model below the L1 and its set-up, the per-hart invalidation every
//! monitor operation pays, metrics snapshots, and the table construction
//! every fresh machine pays before its first access — plus end-to-end
//! native and guest page-walk sweeps whose declared walk counts turn the
//! timing into the suite's walks-per-second headline (printed to stderr
//! after the run).
//!
//! These are the operations every simulated memory reference pays, so their
//! per-op cost bounds full-experiment wall clock. Run with
//! `cargo bench -p hpmp-bench --bench hotpath`; committed, noise-banded
//! host-speed numbers come from `hpmpbench` instead (BENCHMARK.json), and
//! each `repro` experiment's wall time from `repro --host-profile-out`.

use hpmp_bench::Timer;
use hpmp_core::{FillPolicy, LeafPmpte, PmpRegion, PmpTable, PmptwCache, PmptwCacheConfig};
use hpmp_machine::{IsolationScheme, MachineConfig, SystemBuilder, VirtMachine, VirtScheme};
use hpmp_memsim::{
    AccessKind, FrameAllocator, MemSystem, MemSystemConfig, Perms, PhysAddr, PhysMem, PrivMode,
    SplitMix64, VirtAddr, PAGE_SIZE,
};
use hpmp_paging::{Tlb, TlbConfig, TlbEntry, WalkCache, WalkCacheConfig};
use hpmp_trace::{walks_in_snapshot, MetricsRegistry};
use std::hint::black_box;

/// Operations per timed iteration, so per-op noise amortises.
const OPS: u64 = 1024;

const RAM_BASE: u64 = 0x8000_0000;

fn physmem(timer: &mut Timer) {
    let mut group = timer.group("physmem", 200);

    // Pages spread over several directory chunks, as a walk's pointer
    // chases are.
    let stride = 37 * PAGE_SIZE;
    let mut mem = PhysMem::new();
    for i in 0..OPS {
        mem.write_u64(PhysAddr::new(RAM_BASE + i * stride), i);
    }
    group.row("read_u64", || {
        let mut sum = 0u64;
        for i in 0..OPS {
            sum = sum.wrapping_add(mem.read_u64(black_box(PhysAddr::new(RAM_BASE + i * stride))));
        }
        sum
    });
    group.row("write_u64", || {
        for i in 0..OPS {
            mem.write_u64(black_box(PhysAddr::new(RAM_BASE + i * stride + 8)), i);
        }
    });
}

/// A resident RAM page's translation for ASID 1.
fn tlb_entry(vpn: u64) -> TlbEntry {
    TlbEntry {
        asid: 1,
        vpn,
        frame: PhysAddr::new(RAM_BASE + vpn * PAGE_SIZE),
        page_perms: Perms::RW,
        isolation_perms: Perms::RWX,
        user: false,
        epoch: 0,
    }
}

fn lookups(timer: &mut Timer) {
    let mut group = timer.group("lookup", 200);

    let mut tlb = Tlb::new(TlbConfig::default());
    for vpn in 0..32u64 {
        tlb.fill(tlb_entry(vpn));
    }
    group.row("tlb_hit", || {
        let mut hits = 0u64;
        for i in 0..OPS {
            let va = VirtAddr::new((i % 32) * PAGE_SIZE);
            hits += tlb.lookup(1, black_box(va)).is_some() as u64;
        }
        hits
    });

    // native-walk's shape: uniform pages over 64 times the L2, so nearly
    // every lookup misses both levels and the refill evicts the L1's LRU.
    let mut tlb = Tlb::new(TlbConfig::default());
    let mut rng = SplitMix64::seed_from_u64(19);
    group.row("tlb_miss_fill", || {
        let mut misses = 0u64;
        for _ in 0..OPS {
            let vpn = rng.gen_range(0..65_536);
            if tlb
                .lookup(1, black_box(VirtAddr::new(vpn * PAGE_SIZE)))
                .is_none()
            {
                tlb.fill(tlb_entry(vpn));
                misses += 1;
            }
        }
        misses
    });

    let mut pwc = WalkCache::new(WalkCacheConfig::default());
    for i in 0..8u64 {
        let va = VirtAddr::new(i << 30);
        pwc.insert(1, 2, va, PhysAddr::new(RAM_BASE + i * PAGE_SIZE));
    }
    group.row("pwc_hit", || {
        let mut hits = 0u64;
        for i in 0..OPS {
            let va = VirtAddr::new((i % 8) << 30);
            hits += pwc.lookup(1, 2, black_box(va)).is_some() as u64;
        }
        hits
    });

    // native-walk's PWC shape: uniform pages over 256 MiB, probed deepest
    // level first as the walker does. The level-1 probe (one entry per
    // 2 MiB) mostly misses, the level-2 probe (1 GiB) hits, and refilling
    // level 1 evicts the least recently used entry.
    let mut pwc = WalkCache::new(WalkCacheConfig::default());
    let mut rng = SplitMix64::seed_from_u64(20);
    group.row("pwc_miss_fill", || {
        let mut fills = 0u64;
        for _ in 0..OPS {
            let va = black_box(VirtAddr::new(rng.gen_range(0..65_536) * PAGE_SIZE));
            let hit = (1..=2)
                .find(|&level| pwc.lookup(1, level, va).is_some())
                .unwrap_or(3);
            for level in 1..hit {
                pwc.insert(1, level, va, PhysAddr::new(RAM_BASE));
                fills += 1;
            }
        }
        fills
    });

    let mut pmptw = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
    for i in 0..8u64 {
        pmptw.insert_leaf(0, i << 16, LeafPmpte::splat(Perms::RW));
    }
    group.row("pmptw_cache_hit", || {
        let mut hits = 0u64;
        for i in 0..OPS {
            hits += pmptw.lookup_leaf(0, black_box((i % 8) << 16)).is_some() as u64;
        }
        hits
    });
}

/// The HPMP permission check every walk reference pays, in the visitor
/// form the access pipeline runs, on a warmed Rocket HPMP machine:
/// `plan_segment` checks addresses in the PT-pool segment (no pmpte read),
/// `plan_table` addresses of mapped data pages behind the PMP Table with
/// the PMPTW-Cache off, so each check walks the root and the leaf pmpte.
/// Each iteration counts the pmptes its visitor received against the
/// count it expects.
fn checks(timer: &mut Timer) {
    let mut group = timer.group("check", 200);

    let base = 0x10_0000u64;
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    sys.map_range(VirtAddr::new(base), OPS, Perms::RW);
    sys.sync_pt_grants();
    let mut data = Vec::new();
    for i in 0..OPS {
        let va = VirtAddr::new(base + i * PAGE_SIZE);
        let done = sys
            .machine
            .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
            .expect("warm-up stays fault-free");
        data.push(done.paddr);
    }
    let plan = sys.machine.regs().plan();
    let phys = sys.machine.phys();
    let mut cache = PmptwCache::disabled();
    let mut run = |addrs: &[PhysAddr]| {
        let mut pmptes = 0u64;
        for &addr in addrs {
            let verdict = plan.check_with(
                phys,
                &mut cache,
                black_box(addr),
                AccessKind::Read,
                PrivMode::Supervisor,
                |_| pmptes += 1,
            );
            assert!(verdict.allowed, "every checked page is granted");
        }
        pmptes
    };

    // The PT pool is the segment at the base of RAM.
    let segment: Vec<PhysAddr> = (0..OPS)
        .map(|i| PhysAddr::new(RAM_BASE + (i % 64) * PAGE_SIZE))
        .collect();
    group.row("plan_segment", || {
        assert_eq!(run(&segment), 0, "a segment check reads no pmpte")
    });
    group.row("plan_table", || {
        assert_eq!(run(&data), 2 * OPS, "a table check reads two pmptes")
    });
}

/// The cache/DRAM model every walk reference pays. `ptw_miss_sweep` issues
/// PTW references (L1 bypassed) over a region four times the LLC, with a
/// page-plus-a-line stride that visits every line of it, so each reference
/// runs the L2 and LLC tag lookups and the DRAM model. `ptw_hit_sweep`
/// warms a region exactly the size of the L2, then issues PTW references to
/// random lines of it: every set holds all eight of its lines, so each
/// reference hits the L2, at whatever recency position the random order
/// left its line. `memsystem_new` is the set-up every machine and hart pays
/// for its hierarchy.
fn memsim(timer: &mut Timer) {
    let mut group = timer.group("memsim", 200);

    let config = MemSystemConfig::rocket();
    let span = 4 * config.llc.capacity;
    let mut mem = MemSystem::new(config);
    let mut offset = 0u64;
    group.row("ptw_miss_sweep", || {
        let mut cycles = 0u64;
        for _ in 0..OPS {
            let addr = PhysAddr::new(RAM_BASE + offset);
            cycles += mem.access_ptw(black_box(addr)).cycles;
            offset = (offset + PAGE_SIZE + 64) % span;
        }
        cycles
    });
    assert_eq!(mem.stats().llc.hits, 0, "the sweep must miss the LLC");

    let line_size = config.l2.line_size;
    let lines = config.l2.capacity / line_size;
    let mut mem = MemSystem::new(config);
    for line in 0..lines {
        mem.access_ptw(PhysAddr::new(RAM_BASE + line * line_size));
    }
    let mut rng = SplitMix64::seed_from_u64(21);
    group.row("ptw_hit_sweep", || {
        let mut cycles = 0u64;
        for _ in 0..OPS {
            let line = rng.gen_range(0..lines);
            let addr = PhysAddr::new(RAM_BASE + line * line_size);
            cycles += mem.access_ptw(black_box(addr)).cycles;
        }
        cycles
    });
    let l2 = mem.stats().l2;
    assert!(l2.hits > 0, "the sweep must hit the L2");
    assert_eq!(l2.misses, lines, "only the warm-up may miss the L2");

    group.row("memsystem_new", || MemSystem::new(black_box(config)));
}

/// What each monitor operation costs every hart it reaches: the TLB flush
/// alone, and the whole `invalidate_isolation` (epoch bumps plus D-/I-TLB,
/// PWC and PMPTW-Cache flushes). Both are O(1) in the TLB size: the L2 is
/// emptied by moving its flush generation on, not by rewriting its slots,
/// and the L1 resets only the index buckets its entries use.
/// `tlb_flush_all` fills two entries between flushes, about what an
/// smp-churn hart accesses between monitor operations, so a flush whose
/// cost grows with the TLB's size rather than its contents shows here.
fn flushes(timer: &mut Timer) {
    let mut group = timer.group("flush", 200);

    let mut tlb = Tlb::new(TlbConfig::default());
    group.row("tlb_flush_all", || {
        for i in 0..OPS {
            tlb.fill(tlb_entry(2 * i));
            tlb.fill(tlb_entry(2 * i + 1));
            black_box(&mut tlb).flush_all();
        }
        tlb.stats().flushes
    });

    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    group.row("invalidate_isolation", || {
        for _ in 0..OPS {
            black_box(&mut sys.machine).invalidate_isolation();
        }
        sys.machine.tlb_stats().flushes
    });
}

/// The string-keyed registry update, and the one place counter names are
/// formatted: a full `metrics_snapshot` of a warmed Rocket HPMP machine
/// (every TLB, cache and latency-histogram counter exported).
fn registry(timer: &mut Timer) {
    let mut group = timer.group("registry", 200);

    let mut reg = MetricsRegistry::new();
    group.row("add_by_name", || {
        for i in 0..OPS {
            reg.add(black_box("machine.refs.pt_reads"), i & 1);
        }
        reg.value("machine.refs.pt_reads")
    });

    let base = 0x10_0000u64;
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    sys.map_range(VirtAddr::new(base), OPS, Perms::RW);
    sys.sync_pt_grants();
    for i in 0..OPS {
        let kind = if i % 2 == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let va = VirtAddr::new(base + i * PAGE_SIZE);
        sys.machine
            .access(&sys.space, va, kind, PrivMode::Supervisor)
            .expect("warm-up stays fault-free");
    }
    group.row("machine_snapshot", || {
        black_box(&mut sys.machine).metrics_snapshot().len()
    });
}

/// The guest of the virtualized rows: guest-3d's size, mapped from
/// `GUEST_VA` up.
const GUEST_PAGES: u64 = 8 * 1024;
const GUEST_VA: u64 = 0x20_0000;

/// Table construction, which every fresh machine pays before its first
/// access: a fresh 512 MiB PMP Table filled per page (the virtualized
/// fixture's fill), `System::map_range` over 65,536 pages on a fresh HPMP
/// system (native-walk's set-up, `build` included), and a whole HPMP
/// guest of 8,192 pages (guest-3d's set-up: nested table, guest table
/// through `GuestView`, PMP Table). Each iteration checks the count it
/// expects: one `writes` per page, and every page mapped.
fn tables(timer: &mut Timer) {
    let mut group = timer.group("tables", 20);

    const FILL: u64 = 512 << 20;
    let region = PmpRegion::new(PhysAddr::new(RAM_BASE), 2 * FILL);
    group.row("pmp_range_fill", || {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(region.end(), 64 * PAGE_SIZE);
        let mut table = PmpTable::new(region, &mut mem, &mut frames).expect("table root");
        let writes = table
            .set_range_perm(
                &mut mem,
                &mut frames,
                region.base,
                black_box(FILL),
                Perms::RWX,
                FillPolicy::PerPage,
            )
            .expect("fill stays in the region");
        assert_eq!(writes, FILL / PAGE_SIZE, "one write per page");
        writes
    });

    const PAGES: u64 = 65_536;
    group.row("map_run", || {
        let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
        sys.map_range(VirtAddr::new(0x10_0000), black_box(PAGES), Perms::RW);
        sys.sync_pt_grants();
        assert_eq!(sys.space.mapped_pages(), PAGES, "every page mapped");
        sys.space.mapped_pages()
    });

    group.row("virt_machine_new", || {
        let pages = black_box(GUEST_PAGES);
        let mut vm = VirtMachine::new(MachineConfig::rocket(), VirtScheme::Hpmp, pages);
        let last = VirtAddr::new(GUEST_VA + (pages - 1) * PAGE_SIZE);
        assert!(
            vm.access(last, AccessKind::Read).is_ok(),
            "every page mapped"
        );
        pages
    });
}

/// End-to-end accesses through a full HPMP machine: uniform random reads
/// over 8,192 mapped pages, 8× the 1,024-slot L2 TLB, so most accesses
/// walk the page table and the permission table; then the 3-D walk,
/// uniform random reads over a prefaulted HPMP guest whose 8,192 pages are
/// 8× its TLB, so most accesses walk guest PT × nested PT × permission
/// table. Both draw a fresh random stream every iteration: replaying one
/// fixed list of 1,024 pages would leave them resident in the L2 TLB. Each
/// row declares the walk count of one calibration sweep, so these rows
/// carry the suite's walks-per-second headline.
fn walks(timer: &mut Timer) {
    let mut group = timer.group("walk", 50);

    const NATIVE_PAGES: u64 = 8 * 1024;
    let base = 0x10_0000u64;
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    sys.map_range(VirtAddr::new(base), NATIVE_PAGES, Perms::RW);
    sys.sync_pt_grants();

    let mut rng = SplitMix64::seed_from_u64(0x4850_4d50);
    let mut sweep = |sys: &mut hpmp_machine::System| {
        let mut hits = 0u64;
        for _ in 0..OPS {
            let va = VirtAddr::new(base + rng.gen_range(0..NATIVE_PAGES) * PAGE_SIZE);
            hits += sys
                .machine
                .access(
                    &sys.space,
                    black_box(va),
                    AccessKind::Read,
                    PrivMode::Supervisor,
                )
                .is_ok() as u64;
        }
        hits
    };

    // Calibrate the declared walk count against the machine's own walk
    // counter (`machine.walks`) rather than assuming one walk per access.
    // Every page is touched once first, so the calibration sweep sees the
    // steady state the timed iterations do.
    for page in 0..NATIVE_PAGES {
        let va = VirtAddr::new(base + page * PAGE_SIZE);
        sys.machine
            .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
            .expect("prefault the native space");
    }
    let before = sys.machine.stats().walks;
    assert_eq!(sweep(&mut sys), OPS, "sweep must stay fault-free");
    let walks = sys.machine.stats().walks - before;
    assert!(walks > 0, "the sweep must page-walk");
    group.walks(walks);

    group.row("hpmp_read_sweep", || sweep(&mut sys));

    let mut vm = VirtMachine::new(MachineConfig::rocket(), VirtScheme::Hpmp, GUEST_PAGES);
    for page in 0..GUEST_PAGES {
        vm.access(VirtAddr::new(GUEST_VA + page * PAGE_SIZE), AccessKind::Read)
            .expect("prefault the guest");
    }
    let mut rng = SplitMix64::seed_from_u64(0x4850_4d50);
    let mut guest_sweep = |vm: &mut VirtMachine| {
        let mut hits = 0u64;
        for _ in 0..OPS {
            let gva = VirtAddr::new(GUEST_VA + rng.gen_range(0..GUEST_PAGES) * PAGE_SIZE);
            hits += vm.access(black_box(gva), AccessKind::Read).is_ok() as u64;
        }
        hits
    };
    // Calibrate off the guest's own walk counter (`virt.walks`); the
    // stream is stationary, so one sweep's walk count stands for each.
    let before = vm.stats().walks;
    assert_eq!(
        guest_sweep(&mut vm),
        OPS,
        "guest sweep must stay fault-free"
    );
    let guest_walks = vm.stats().walks - before;
    assert!(guest_walks > 0, "the guest sweep must walk");
    group.walks(guest_walks);

    group.row("guest_hpmp_sweep", || guest_sweep(&mut vm));
}

/// End-to-end SMP walk throughput per execution backend: the fixed-seed
/// tenancy shape at 4 harts, once on the deterministic interleaver and
/// once on the threaded backend. Both runs are observably identical (the
/// conformance battery byte-compares their snapshots), so one calibration
/// run fixes the walk count both rows declare, and the
/// walks/sec ratio between the two console rows is exactly the threaded
/// backend's speedup. Wall-clock ratio depends on host core count: on a
/// single-core host the hart threads timeslice and the ratio is ~1x or
/// below (thread overhead); the speedup shows from ~4 cores up.
fn smp_backends(timer: &mut Timer) {
    use hpmp_machine::ExecBackend;
    use hpmp_memsim::CoreKind;
    use hpmp_penglai::TeeFlavor;
    use hpmp_workloads::smp::{run_smp_backend, spec_for};

    /// The `hpmpsim` SMP seed, so the bench measures the same run the
    /// conformance battery verifies.
    const SMP_SEED: u64 = 0x4850_4d50;
    const HARTS: usize = 4;

    let mut group = timer.group("smp", 20);
    let spec = spec_for("tenancy").expect("tenancy has an SMP shape");
    let run = |backend| {
        run_smp_backend(
            TeeFlavor::PenglaiHpmp,
            CoreKind::Rocket,
            HARTS,
            SMP_SEED,
            spec,
            backend,
        )
        .expect("tenancy runs clean")
    };

    let (_, snap) = run(ExecBackend::Deterministic);
    let walks = walks_in_snapshot(&snap);
    assert!(walks > 0, "the SMP sweep must page-walk");
    group.walks(walks);

    group.row("tenancy_x4_deterministic", || {
        black_box(run(ExecBackend::Deterministic)).0.accesses
    });
    group.row("tenancy_x4_threaded", || {
        black_box(run(ExecBackend::Threaded)).0.accesses
    });
}

fn main() {
    let mut timer = Timer::default();
    physmem(&mut timer);
    lookups(&mut timer);
    checks(&mut timer);
    memsim(&mut timer);
    flushes(&mut timer);
    registry(&mut timer);
    tables(&mut timer);
    walks(&mut timer);
    smp_backends(&mut timer);
    timer.print_walks_headline();
}
