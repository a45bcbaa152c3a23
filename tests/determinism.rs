//! Determinism: the simulator has no hidden global state — identical
//! configurations and seeds produce identical cycle counts, which is what
//! makes the reproduction's figures exactly re-derivable (and `repro`'s
//! parallel fan-out sound).

use hpmp_suite::machine::{IsolationScheme, VirtScheme};
use hpmp_suite::memsim::{AccessKind, CoreKind};
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::trace::NullSink;
use hpmp_suite::workloads::latency::{measure, measure_virt_with_sink, TestCase, VirtCase};
use hpmp_suite::workloads::smp::{run_smp, spec_for};
use hpmp_suite::workloads::{gap, lmbench, multi_tenant, redis, serverless, TeeBench};

/// Each run's cycles and metrics snapshot match a second run's.
#[test]
fn microbenchmarks_are_deterministic() {
    for case in [TestCase::Tc1, TestCase::Tc2, TestCase::Tc3, TestCase::Tc4] {
        let run = || {
            let read = AccessKind::Read;
            measure(
                CoreKind::Rocket,
                IsolationScheme::Hpmp,
                read,
                case,
                NullSink,
            )
        };
        assert_eq!(run(), run(), "{case}");
    }
    let run = || {
        measure_virt_with_sink(
            CoreKind::Boom,
            VirtScheme::PmpTable,
            VirtCase::Tc1,
            NullSink,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn workloads_are_deterministic() {
    let graph = gap::KronGraph::generate(10, 4, 77);
    let run = || {
        let pr = gap::GapKernel::Pr;
        gap::run_gap_with_sink(
            TeeFlavor::PenglaiPmpt,
            CoreKind::Rocket,
            pr,
            &graph,
            1_000,
            NullSink,
        )
        .unwrap()
    };
    assert_eq!(run(), run(), "GAP");

    let run = || {
        let mut tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, NullSink);
        let cycles = serverless::measure_function_on(&mut tee, serverless::Function::Matmul, 2);
        (cycles.unwrap(), tee.machine.metrics_snapshot())
    };
    assert_eq!(run(), run(), "serverless");

    let run = || {
        let stat = lmbench::Syscall::Stat;
        lmbench::measure_syscall(TeeFlavor::PenglaiPmp, CoreKind::Boom, stat, 5, NullSink).unwrap()
    };
    assert_eq!(run(), run(), "lmbench");

    let start = || {
        redis::RedisServer::start_with_sink(TeeFlavor::PenglaiPmpt, CoreKind::Rocket, 512, NullSink)
            .unwrap()
    };
    let (mut s1, mut s2) = (start(), start());
    for _ in 0..50 {
        assert_eq!(
            s1.serve(redis::RedisCommand::Get).unwrap(),
            s2.serve(redis::RedisCommand::Get).unwrap(),
            "redis"
        );
    }

    let run = || {
        let hpmp = TeeFlavor::PenglaiHpmp;
        multi_tenant::run_tenancy_with_sink(hpmp, CoreKind::Rocket, 8, 2, NullSink).unwrap()
    };
    assert_eq!(run(), run(), "tenancy");
}

/// The SMP runner is single-threaded behind a seeded interleaver, so its
/// outcome, metrics snapshot and per-hart counters must be byte-stable for
/// a fixed (seed, harts) pair — at every hart count, across all flavours.
/// This is the invariant that makes `hpmpsim --harts N` artifacts
/// identical whatever `--jobs` is.
#[test]
fn smp_runs_are_deterministic_at_every_hart_count() {
    let spec = spec_for("tenancy").expect("tenancy has an SMP shape");
    for flavor in [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ] {
        for harts in [1usize, 2, 4] {
            let (a, snap_a) = run_smp(flavor, CoreKind::Rocket, harts, 0xd5, spec).unwrap();
            let (b, snap_b) = run_smp(flavor, CoreKind::Rocket, harts, 0xd5, spec).unwrap();
            assert_eq!(a, b, "{flavor} outcome at {harts} harts");
            assert_eq!(
                snap_a.to_json(),
                snap_b.to_json(),
                "{flavor} snapshot at {harts} harts"
            );
        }
    }
    // Different seeds and hart counts must actually change the run.
    let (one, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 0xd5, spec).unwrap();
    let (other_seed, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 0xd6, spec).unwrap();
    assert_ne!(one.total_cycles, other_seed.total_cycles);
    let (more_harts, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 4, 0xd5, spec).unwrap();
    assert_ne!(one.total_cycles, more_harts.total_cycles);
}

#[test]
fn graph_generation_is_seed_stable() {
    let a = gap::KronGraph::generate(11, 6, 0xfeed);
    let b = gap::KronGraph::generate(11, 6, 0xfeed);
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.offsets, b.offsets);
    let c = gap::KronGraph::generate(11, 6, 0xfeee);
    assert_ne!(a.edges, c.edges);
}
