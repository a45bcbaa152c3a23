//! Microbenches for the simulator's per-access hot path: flat page-directory
//! reads/writes, TLB/PWC/PMPTW-cache lookups, the cache/DRAM model below the
//! L1 and its set-up, the per-hart invalidation every
//! monitor operation pays, and interned-counter bumps — plus an end-to-end
//! page-walk sweep whose throughput declaration turns the timing into the
//! suite's walks-per-second headline (printed to stderr after the run).
//!
//! These are the operations every simulated memory reference pays, so their
//! per-op cost bounds full-experiment wall clock. Run with
//! `cargo bench -p hpmp-bench --bench hotpath`; committed, noise-banded
//! host-speed numbers come from `hpmpbench` instead (BENCHMARK.json).

use hpmp_bench::{criterion_group, criterion_main, Criterion, Throughput};
use hpmp_core::{LeafPmpte, PmptwCache, PmptwCacheConfig};
use hpmp_machine::{IsolationScheme, MachineConfig, SystemBuilder};
use hpmp_memsim::{
    AccessKind, MemSystem, MemSystemConfig, Perms, PhysAddr, PhysMem, PrivMode, VirtAddr, PAGE_SIZE,
};
use hpmp_paging::{Tlb, TlbConfig, TlbEntry, TranslationMode, WalkCache, WalkCacheConfig};
use hpmp_trace::{walks_in_snapshot, MetricsRegistry};
use std::hint::black_box;

/// Operations per timed iteration, so per-op noise amortises.
const OPS: u64 = 1024;

const RAM_BASE: u64 = 0x8000_0000;

fn physmem(c: &mut Criterion) {
    let mut group = c.benchmark_group("physmem");
    group.sample_size(200);

    // Pages spread over several directory chunks, as a walk's pointer
    // chases are.
    let stride = 37 * PAGE_SIZE;
    let mut mem = PhysMem::new();
    for i in 0..OPS {
        mem.write_u64(PhysAddr::new(RAM_BASE + i * stride), i);
    }
    group.bench_function("read_u64", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..OPS {
                sum =
                    sum.wrapping_add(mem.read_u64(black_box(PhysAddr::new(RAM_BASE + i * stride))));
            }
            sum
        })
    });
    group.bench_function("write_u64", |b| {
        b.iter(|| {
            for i in 0..OPS {
                mem.write_u64(black_box(PhysAddr::new(RAM_BASE + i * stride + 8)), i);
            }
        })
    });
    group.finish();
}

fn lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");
    group.sample_size(200);

    let mut tlb = Tlb::new(TlbConfig::default());
    for vpn in 0..32u64 {
        tlb.fill(TlbEntry {
            asid: 1,
            vpn,
            frame: PhysAddr::new(RAM_BASE + vpn * PAGE_SIZE),
            page_perms: Perms::RW,
            isolation_perms: Perms::RWX,
            user: false,
            epoch: 0,
        });
    }
    group.bench_function("tlb_hit", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                let va = VirtAddr::new((i % 32) * PAGE_SIZE);
                hits += tlb.lookup(1, black_box(va)).is_some() as u64;
            }
            hits
        })
    });

    let mut pwc = WalkCache::new(WalkCacheConfig::default());
    for i in 0..8u64 {
        let va = VirtAddr::new(i << 30);
        pwc.insert(
            TranslationMode::Sv39,
            1,
            2,
            va,
            PhysAddr::new(RAM_BASE + i * PAGE_SIZE),
        );
    }
    group.bench_function("pwc_hit", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                let va = VirtAddr::new((i % 8) << 30);
                hits += pwc
                    .lookup(TranslationMode::Sv39, 1, 2, black_box(va))
                    .is_some() as u64;
            }
            hits
        })
    });

    let mut pmptw = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
    for i in 0..8u64 {
        pmptw.insert_leaf(0, i << 16, LeafPmpte::splat(Perms::RW));
    }
    group.bench_function("pmptw_cache_hit", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                hits += pmptw.lookup_leaf(0, black_box((i % 8) << 16)).is_some() as u64;
            }
            hits
        })
    });
    group.finish();
}

/// The cache/DRAM model every walk reference pays. `ptw_miss_sweep` issues
/// PTW references (L1 bypassed) over a region four times the LLC, with a
/// page-plus-a-line stride that visits every line of it, so each reference
/// runs the L2 and LLC tag lookups and the DRAM model. `memsystem_new` is
/// the set-up every machine and hart pays for its hierarchy.
fn memsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim");
    group.sample_size(200);

    let config = MemSystemConfig::rocket();
    let span = 4 * config.llc.capacity;
    let mut mem = MemSystem::new(config);
    let mut offset = 0u64;
    group.bench_function("ptw_miss_sweep", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for _ in 0..OPS {
                let addr = PhysAddr::new(RAM_BASE + offset);
                cycles += mem.access_ptw(black_box(addr)).cycles;
                offset = (offset + PAGE_SIZE + 64) % span;
            }
            cycles
        })
    });
    assert_eq!(mem.stats().llc.hits, 0, "the sweep must miss the LLC");

    group.bench_function("memsystem_new", |b| {
        b.iter(|| MemSystem::new(black_box(config)))
    });
    group.finish();
}

/// What each monitor operation costs every hart it reaches: the TLB flush
/// alone, and the whole `invalidate_isolation` (epoch bumps plus D-/I-TLB,
/// PWC and PMPTW-Cache flushes). Both are O(1) in the TLB size: the L2 is
/// emptied by moving its flush generation on, not by rewriting its slots.
fn flushes(c: &mut Criterion) {
    let mut group = c.benchmark_group("flush");
    group.sample_size(200);

    let mut tlb = Tlb::new(TlbConfig::default());
    group.bench_function("tlb_flush_all", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                black_box(&mut tlb).flush_all();
            }
            tlb.stats().flushes
        })
    });

    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    group.bench_function("invalidate_isolation", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                black_box(&mut sys.machine).invalidate_isolation();
            }
            sys.machine.tlb_stats().flushes
        })
    });
    group.finish();
}

fn registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry");
    group.sample_size(200);

    let mut reg = MetricsRegistry::new();
    let id = reg.counter("machine.refs.pt_reads");
    group.bench_function("bump_interned", |b| {
        b.iter(|| {
            for i in 0..OPS {
                reg.bump(black_box(id), i & 1);
            }
            reg.get(id)
        })
    });
    group.bench_function("add_by_name", |b| {
        b.iter(|| {
            for i in 0..OPS {
                reg.add(black_box("machine.refs.pt_reads"), i & 1);
            }
            reg.get(id)
        })
    });
    group.finish();
}

/// End-to-end page walks through a full HPMP machine: a cyclic read sweep
/// over 1024 mapped pages — 32× the TLB — so every access misses and pays
/// the whole walker + isolation-check pipeline. The group declares its
/// measured walk count as throughput, so this benchmark carries the
/// suite's walks-per-second headline.
fn walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk");
    group.sample_size(50);

    let base = 0x10_0000u64;
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    sys.map_range(VirtAddr::new(base), OPS, Perms::RW);
    sys.sync_pt_grants();

    let sweep = |sys: &mut hpmp_machine::System| {
        let mut hits = 0u64;
        for i in 0..OPS {
            let va = VirtAddr::new(base + i * PAGE_SIZE);
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

    // Calibrate the throughput declaration against the machine's own walk
    // counter rather than assuming one walk per access.
    let before = walks_in_snapshot(&sys.machine.metrics_snapshot());
    assert_eq!(sweep(&mut sys), OPS, "sweep must stay fault-free");
    let walks = walks_in_snapshot(&sys.machine.metrics_snapshot()) - before;
    assert!(walks > 0, "the sweep must page-walk");
    group.throughput(Throughput::Elements(walks));

    group.bench_function("hpmp_read_sweep", |b| b.iter(|| sweep(&mut sys)));
    group.finish();
}

/// End-to-end SMP walk throughput per execution backend: the fixed-seed
/// tenancy shape at 4 harts, once on the deterministic interleaver and
/// once on the threaded backend. Both runs are observably identical (the
/// conformance battery byte-compares their snapshots), so one calibration
/// run fixes the walk count for both throughput declarations, and the
/// walks/sec ratio between the two console rows is exactly the threaded
/// backend's speedup. Wall-clock ratio depends on host core count: on a
/// single-core host the hart threads timeslice and the ratio is ~1x or
/// below (thread overhead); the speedup shows from ~4 cores up.
fn smp_backends(c: &mut Criterion) {
    use hpmp_machine::ExecBackend;
    use hpmp_memsim::CoreKind;
    use hpmp_penglai::TeeFlavor;
    use hpmp_workloads::smp::{run_smp_backend, spec_for};

    /// The `hpmpsim` SMP seed, so the bench measures the same run the
    /// conformance battery verifies.
    const SMP_SEED: u64 = 0x4850_4d50;
    const HARTS: usize = 4;

    let mut group = c.benchmark_group("smp");
    group.sample_size(20);
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
    group.throughput(Throughput::Elements(walks));

    group.bench_function("tenancy_x4_deterministic", |b| {
        b.iter(|| black_box(run(ExecBackend::Deterministic)).0.accesses)
    });
    group.bench_function("tenancy_x4_threaded", |b| {
        b.iter(|| black_box(run(ExecBackend::Threaded)).0.accesses)
    });
    group.finish();
}

criterion_group!(
    benches,
    physmem,
    lookups,
    memsim,
    flushes,
    registry,
    walks,
    smp_backends
);
criterion_main!(benches);
