//! Checks of the hpmpbench benchmark (`examples/hpmpbench/`): its workload
//! runners simulate exactly what the library's own runners do, its replay
//! fidelity check passes on recorded streams and fails on a planted
//! divergence, its reps reproduce each other exactly, and `BENCHMARK.json`
//! names exactly the metrics it reports. Sizes are tiny so debug builds
//! stay fast.

#[allow(dead_code)]
#[path = "../../examples/hpmpbench/e2e.rs"]
mod e2e;
#[allow(dead_code)]
#[path = "../../examples/hpmpbench/replay.rs"]
mod replay;
#[allow(dead_code)]
#[path = "../../examples/hpmpbench/report.rs"]
mod report;
#[allow(dead_code)]
#[path = "../../examples/hpmpbench/stats.rs"]
mod stats;
#[allow(dead_code)]
#[path = "../../examples/hpmpbench/workloads.rs"]
mod workloads;

use std::time::Duration;

use hpmp_suite::machine::{MachineConfig, VirtScheme};
use hpmp_suite::memsim::CoreKind;
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::trace::json::{parse_json, JsonValue};
use hpmp_suite::trace::NullSink;
use hpmp_suite::workloads::smp::{run_smp, SmpOutcome};
use hpmp_suite::workloads::virt_app::{run_guest_kv_with_sink, VirtAppOutcome};
use replay::Recorder;
use workloads::{Guest, Native, Plan, Runner, Smp, Workload};

fn plan(pages: u64, idle_enclaves: u32, warmup: u64, measured: u64) -> Plan {
    Plan {
        pages,
        idle_enclaves,
        warmup,
        measured,
    }
}

#[test]
fn smp_churn_runner_reproduces_run_smp() {
    let seed = 0x4850_4d50;
    let spec = workloads::tenancy_spec();
    let (mut runner, _) = Smp::setup(&plan(0, 0, 0, 0), seed, || NullSink).unwrap();
    let tally = runner.run(u64::from(spec.rounds));
    let snapshot = runner.snapshot();
    let outcome = SmpOutcome {
        harts: workloads::SMP_HARTS as u32,
        total_cycles: tally.cycles,
        accesses: tally.accesses,
        ipis_delivered: snapshot.value("smp.ipis_delivered"),
    };
    let (want, want_snapshot) = run_smp(
        TeeFlavor::PenglaiHpmp,
        CoreKind::Rocket,
        workloads::SMP_HARTS,
        seed,
        spec,
    )
    .unwrap();
    assert_eq!(tally.failed, 0);
    assert_eq!(outcome, want);
    assert_eq!(snapshot.to_json(), want_snapshot.to_json());
}

#[test]
fn guest_3d_runner_reproduces_run_guest_kv() {
    let (pages, requests) = (1_536, 500);
    let (mut runner, _) = Guest::setup(&plan(pages, 0, 0, requests), 0x6e57, NullSink).unwrap();
    let tally = runner.run(requests);
    let snapshot = runner.snapshot();
    let (want, want_snapshot) = run_guest_kv_with_sink(
        CoreKind::Rocket,
        VirtScheme::Hpmp,
        pages,
        requests,
        NullSink,
    );
    assert_eq!(tally.failed, 0);
    let outcome = VirtAppOutcome {
        requests,
        cycles: tally.cycles,
    };
    assert_eq!(outcome, want);
    assert_eq!(snapshot.to_json(), want_snapshot.to_json());
}

/// A recorded native run over 64 MiB: 32 leaf tables, more than the
/// default 8-entry PWC holds, so the PWC's size shapes the walks.
fn recorded_native(hot: bool) -> (Native<Recorder>, usize) {
    let plan = plan(16_384, 0, 500, 3_000);
    let (mut native, _) = Native::setup(&plan, hot, 7, Recorder::default());
    native.run(plan.warmup);
    let steady_from = native.sys.machine.sink().events.len();
    native.mark_steady();
    native.run(plan.measured);
    (native, steady_from)
}

#[test]
fn native_replays_reproduce_every_recorded_event() {
    for hot in [false, true] {
        let (native, steady_from) = recorded_native(hot);
        let r = replay::replay_native(&native, steady_from, &MachineConfig::rocket(), 0.0)
            .unwrap_or_else(|e| panic!("hot={hot}: {e}"));
        assert_eq!(r.accesses, 3_000);
        if hot {
            assert_eq!(r.walks, 0, "the hot set stays TLB-resident");
        } else {
            assert!(r.walks > 2_500, "uniform pages walk: {}", r.walks);
        }
    }
}

#[test]
fn planted_pwc_divergence_is_a_replay_mismatch() {
    let (native, steady_from) = recorded_native(false);
    let mut planted = MachineConfig::rocket();
    planted.pwc.entries *= 4;
    let err = replay::replay_native(&native, steady_from, &planted, 0.0).unwrap_err();
    assert!(err.starts_with("replay mismatch in paging.walker"), "{err}");
}

#[test]
fn preflight_reference_counts_match_the_paper() {
    workloads::preflight().unwrap();
}

#[test]
fn reps_reproduce_each_other_on_every_workload() {
    for workload in Workload::ALL {
        let tiny = match workload {
            Workload::NativeWalk | Workload::NativeTlbHit => plan(4_096, 0, 200, 1_000),
            Workload::Guest3d => plan(256, 0, 50, 300),
            Workload::SmpChurn => plan(0, 4, 40, 200),
        };
        let report = e2e::run(workload, &tiny, 11, Duration::ZERO, 2)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(report.failed, 0, "{}", workload.name());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = report::END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            report.metrics
        );
    }
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    let doc = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).map(str::to_string);
                (field("name").unwrap(), field("unit"))
            })
            .collect()
    };
    let declared = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);
    assert_eq!(names("end_to_end"), declared(&report::END_TO_END));
    assert_eq!(names("per_layer"), declared(&report::PER_LAYER));
}
