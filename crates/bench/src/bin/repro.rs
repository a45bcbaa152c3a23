//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage: `repro [--jobs N] [--serial] [--backend deterministic|threaded]
//! [--trace-out <walks.jsonl>] [--metrics-out <m.json>]
//! [--bench-out <BENCH_name.json>] [--snapshot-interval <cycles>]
//! [--timeline-out <timeline.jsonl>] [--spans-out <spans.jsonl>]
//! [--host-profile-out <host.json>] [experiment...]` where experiment is
//! one of `table1 fig2 fig10 table3 fig11 fig12ac fig12de fig13 fig14
//! fig15 fig16 fig17 table4 fig3 svsweep virtapp tenancy encryption
//! multihart all` (default: `all`). Unknown flags and experiment names, and
//! a flag whose value is missing or malformed, are rejected (exit 2) — see
//! `--help`. The nine artifact flags are parsed, checked and written by
//! [`hpmp_bench::artifacts`], shared with `hpmpsim`; an artifact that
//! cannot be written exits 1, and so does an experiment that fails
//! (`repro: <experiment>: <error>` on stderr).
//!
//! The experiments themselves live in [`hpmp_bench::experiments`]: each
//! returns its tables, its metrics snapshot and its typed values, and this
//! binary renders the tables. Experiments build independent machines, so
//! they run on an in-process worker pool (`--jobs N`, default: the
//! machine's available parallelism; `--serial` is shorthand for
//! `--jobs 1`). Each experiment gets its own trace sink; report text,
//! metrics snapshots, [`hpmp_trace::BenchReport`] records and trace bytes
//! are merged in the fixed presentation order afterwards, so every output
//! is **byte-identical whatever the thread count**.
//!
//! `--trace-out` streams one JSONL [`hpmp_trace::WalkEvent`] per memory
//! access of every experiment that drives a machine (`multihart`'s harts
//! excepted); `--metrics-out` writes the merged metrics snapshot of every
//! experiment as versioned JSON. `--bench-out` writes a perf-trajectory
//! [`hpmp_trace::BenchReport`] with one record per experiment (cycles,
//! walks, walk-reference counters, latency percentiles), the form CI pins
//! byte-for-byte and `hpmp-analyze diff` compares.
//!
//! `--host-profile-out` writes a [`hpmp_trace::HostProfile`]: *wall-clock*
//! phase timers and per-experiment host time, with the walks-per-second
//! headline printed to stderr. Host-clock data is nondeterministic, so it
//! never touches stdout or the simulated artifacts above — those stay
//! byte-identical whether or not profiling is on (see DESIGN.md §10, the
//! dual-clock quarantine).
//!
//! `--snapshot-interval`/`--timeline-out`/`--spans-out` record
//! time-resolved telemetry on `multihart`'s 4-hart HPMP run, the one run on
//! the SMP global clock. They need `multihart` in the worklist (`all`
//! includes it) and the deterministic backend; otherwise repro exits 2.

use std::time::{Duration, Instant};

use hpmp_bench::artifacts::{ArtifactFlags, TraceBytes};
use hpmp_bench::experiments::{Experiment, Outcome};
use hpmp_bench::run_ordered;
use hpmp_trace::{
    walks_in_snapshot, BenchReport, ExperimentRecord, HostProfiler, JsonlSink, NullSink, Snapshot,
};

/// Prints the full flag/experiment reference and exits. Every flag the
/// parser accepts must appear here — pinned by the help-coverage test.
fn usage() -> ! {
    let names: Vec<&str> = Experiment::ALL.iter().map(|e| e.name()).collect();
    eprintln!(
        "usage: repro [--jobs N | --serial] [--backend deterministic|threaded]\n\
         \x20            [--trace-out walks.jsonl] [--metrics-out metrics.json]\n\
         \x20            [--bench-out BENCH_name.json]\n\
         \x20            [--snapshot-interval CYCLES] [--timeline-out timeline.jsonl]\n\
         \x20            [--spans-out spans.jsonl]\n\
         \x20            [--host-profile-out host.json]\n\
         \x20            [experiment...]\n\
         experiments (default: all): {}",
        names.join(" ")
    );
    std::process::exit(2);
}

/// Prints `message` and the usage text, exiting 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("repro: {message}");
    usage()
}

fn main() {
    let mut artifacts = ArtifactFlags::default();
    let mut names: Vec<String> = Vec::new();
    let mut wanted: Vec<Experiment> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match artifacts.accept(&arg, &mut raw) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => usage_error(e),
        }
        match arg.as_str() {
            "--serial" => artifacts.jobs = Some(1),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage_error(format!("unknown flag {other}")),
            "all" => wanted.extend(Experiment::ALL),
            name => wanted.push(
                Experiment::parse(name)
                    .unwrap_or_else(|| usage_error(format!("unknown experiment {name}"))),
            ),
        }
        names.push(arg);
    }
    let run_options = artifacts.run_options().unwrap_or_else(|e| usage_error(e));
    if names.is_empty() {
        names.push("all".into());
        wanted.extend(Experiment::ALL);
    }
    let worklist: Vec<Experiment> = Experiment::ALL
        .into_iter()
        .filter(|e| wanted.contains(e))
        .collect();
    if artifacts.telemetry_requested() && !worklist.contains(&Experiment::Multihart) {
        // Only multihart runs on the SMP global clock that timelines and
        // spans live on; any other worklist would silently drop them.
        usage_error("--snapshot-interval/--timeline-out/--spans-out need the multihart experiment")
    }

    // Run the selected experiments on the worker pool. Each experiment gets
    // its own sink; its tables print as soon as all earlier experiments are
    // done, so output order never depends on `jobs`. The profiler is
    // host-clock only: its measurements go to `--host-profile-out` and
    // stderr, never into stdout or the simulated artifacts.
    let mut profiler = HostProfiler::new("repro");
    let tracing = artifacts.trace_out.is_some();
    profiler.begin_phase("run");
    let outputs = run_ordered(
        worklist.len(),
        artifacts.jobs(),
        |i| {
            let started = Instant::now();
            let (outcome, trace) = if tracing {
                let mut sink = JsonlSink::new_headerless(Vec::new());
                let outcome = worklist[i].run(&mut sink, run_options);
                (outcome, TraceBytes::from_sinks([sink]))
            } else {
                let outcome = worklist[i].run(&mut NullSink, run_options);
                (outcome, TraceBytes::default())
            };
            (worklist[i], outcome, trace, started.elapsed())
        },
        |(experiment, outcome, ..)| match outcome {
            Ok(outcome) => outcome
                .reports
                .iter()
                .for_each(|report| println!("{}", report.render())),
            Err(e) => {
                eprintln!("repro: {}: {e}", experiment.name());
                std::process::exit(1);
            }
        },
    );
    profiler.begin_phase("write");

    // Every experiment succeeded, or the run exited above. Merge metrics
    // and bench records in presentation order.
    let outcomes: Vec<Done> = outputs
        .into_iter()
        .filter_map(|(e, outcome, trace, wall)| Some((e, outcome.ok()?, trace, wall)))
        .collect();
    let mut metrics = Snapshot::new();
    let mut report = BenchReport::new("repro");
    report.set_config("suite", "hpmp-repro");
    report.set_config("experiments", names.join(","));
    for (experiment, outcome, ..) in &outcomes {
        // The cycle total is whatever the experiment's machines accumulated:
        // `machine.cycles` for native, `virt.cycles` for virtualized runs,
        // `smp.cycles` for multi-hart runs, whose per-hart counters live
        // under `hart.<i>.machine.*` instead.
        let snap = &outcome.snapshot;
        let cycles =
            snap.value("machine.cycles") + snap.value("virt.cycles") + snap.value("smp.cycles");
        metrics = metrics.merge(snap);
        report.push(ExperimentRecord::from_snapshot(
            experiment.name(),
            cycles,
            snap.clone(),
        ));
    }
    if let Some(line) = artifacts.write_trace(outcomes.iter().map(|(_, _, trace, _)| trace)) {
        eprintln!("repro: trace: {line}");
    }
    if let Some(line) = artifacts.write_metrics(&metrics) {
        eprintln!("repro: metrics: {line}");
    }
    if let Some(line) = artifacts.write_bench(&report) {
        eprintln!("repro: bench report: {line}");
    }
    for (_, outcome, ..) in &outcomes {
        for (label, line) in artifacts.write_telemetry(&outcome.telemetry) {
            eprintln!("repro: {label} (4-hart HPMP multihart run): {line}");
        }
    }

    // Host-clock epilogue: stderr and the dedicated profile artifact only,
    // so the simulated outputs above are byte-identical whether or not
    // profiling is on.
    for (experiment, outcome, _, wall) in &outcomes {
        let walks = walks_in_snapshot(&outcome.snapshot);
        profiler.record_experiment(experiment.name(), *wall, walks);
    }
    artifacts.write_host_profile(&profiler.finish());
}

/// One finished experiment: its outcome, its headerless walk-event bytes
/// (empty unless tracing) and the host wall-clock time it took, which feeds
/// only the host profile.
type Done = (Experiment, Outcome, TraceBytes, Duration);
