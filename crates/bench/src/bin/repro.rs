//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage: `repro [--jobs N] [--serial] [--backend deterministic|threaded]
//! [--trace-out <walks.jsonl>] [--metrics-out <m.json>]
//! [--bench-out <BENCH_name.json>] [--snapshot-interval <cycles>]
//! [--timeline-out <timeline.jsonl>] [--spans-out <spans.jsonl>]
//! [--host-profile-out <host.json>] [experiment...]` where experiment is
//! one of `table1 fig2 fig3 fig10 table3 fig11 fig12ac fig12de fig13 fig14
//! fig15 fig16 fig17 table4 svsweep virtapp tenancy encryption multihart
//! all` (default: `all`). Unknown flags and experiment names, and a flag
//! whose value is missing or malformed, are rejected (exit 2) — see
//! `--help`. The nine artifact flags are parsed, checked and written by
//! [`hpmp_bench::artifacts`], shared with `hpmpsim`; an artifact that
//! cannot be written exits 1.
//!
//! Experiments build independent machines, so they run on an in-process
//! worker pool (`--jobs N`, default: the machine's available parallelism;
//! `--serial` is shorthand for `--jobs 1`). Each experiment gets its own
//! trace sink and metrics registry; report text, metrics snapshots,
//! [`hpmp_trace::BenchReport`] records and trace bytes are merged in the
//! fixed presentation order afterwards, so every output is **byte-identical
//! whatever the thread count**.
//!
//! `--trace-out` streams one JSONL [`hpmp_trace::WalkEvent`] per memory access
//! for the experiments that drive the instrumented machine directly (fig2,
//! fig11, fig12de, fig13, fig14, fig17, svsweep, virtapp, tenancy,
//! encryption); `--metrics-out` writes their merged metrics registry snapshot
//! as versioned JSON. `--bench-out` writes a perf-trajectory
//! [`hpmp_trace::BenchReport`] with one record per traced experiment (cycles,
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
//!
//! Absolute cycle counts come from the simulated SoC, not the authors'
//! FPGA; the *shapes* (who wins, by what factor, where crossovers are) are
//! the reproduction targets — see EXPERIMENTS.md.

use hpmp_bench::artifacts::{ArtifactFlags, TraceBytes};
use hpmp_bench::{capture_reports, pct, pct_f, run_ordered, Report};
use hpmp_core::{estimate_resources, HardwareParams, PmptwCacheConfig};
use hpmp_machine::{IsolationScheme, MachineConfig, VirtScheme};
use hpmp_memsim::{AccessKind, CoreKind, PhysAddr};
use hpmp_penglai::{cost, DomainId, GmsLabel, MonitorError, SecureMonitor, TeeFlavor};
use hpmp_trace::{
    walks_in_snapshot, BenchReport, ExperimentRecord, HostProfiler, JsonlSink, NullSink, Snapshot,
    TraceSink,
};
use hpmp_workloads::fixture::config_for;
use hpmp_workloads::latency::{
    figure_10_panel, measure_virt_with_sink, TestCase, VirtCase, VIRT_CASES,
};
use hpmp_workloads::smp::{RunOptions, SmpTelemetry};
use hpmp_workloads::{frag, gap, lmbench, redis, rv8, serverless};

const SCHEMES: [IsolationScheme; 3] = [
    IsolationScheme::PmpTable,
    IsolationScheme::Hpmp,
    IsolationScheme::Pmp,
];

/// Every experiment, in presentation order.
const EXPERIMENTS: [&str; 19] = [
    "table1",
    "fig2",
    "fig10",
    "table3",
    "fig11",
    "fig12ac",
    "fig12de",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table4",
    "fig3",
    "svsweep",
    "virtapp",
    "tenancy",
    "encryption",
    "multihart",
];

/// Prints the full flag/experiment reference and exits. Every flag the
/// parser accepts must appear here — pinned by the help-coverage test.
fn usage() -> ! {
    eprintln!(
        "usage: repro [--jobs N | --serial] [--backend deterministic|threaded]\n\
         \x20            [--trace-out walks.jsonl] [--metrics-out metrics.json]\n\
         \x20            [--bench-out BENCH_name.json]\n\
         \x20            [--snapshot-interval CYCLES] [--timeline-out timeline.jsonl]\n\
         \x20            [--spans-out spans.jsonl]\n\
         \x20            [--host-profile-out host.json]\n\
         \x20            [experiment...]\n\
         experiments (default: all): {}",
        EXPERIMENTS.join(" ")
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
    let mut args: Vec<String> = Vec::new();
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
            _ => args.push(arg),
        }
    }
    for name in &args {
        if name != "all" && !EXPERIMENTS.contains(&name.as_str()) {
            usage_error(format!("unknown experiment {name}"))
        }
    }
    let run_options = artifacts.run_options().unwrap_or_else(|e| usage_error(e));
    let wanted: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let all = wanted.contains(&"all");
    let worklist: Vec<&'static str> = EXPERIMENTS
        .iter()
        .copied()
        .filter(|name| all || wanted.contains(name))
        .collect();
    if artifacts.telemetry_requested() && !worklist.contains(&"multihart") {
        // Only multihart runs on the SMP global clock that timelines and
        // spans live on; any other worklist would silently drop them.
        usage_error("--snapshot-interval/--timeline-out/--spans-out need the multihart experiment")
    }

    // Run the selected experiments on the worker pool. Each experiment gets
    // its own sink and registry; stdout buffers stream out as soon as all
    // earlier experiments are done, so output order never depends on `jobs`.
    // The profiler is host-clock only: its measurements go to
    // `--host-profile-out` and stderr, never into stdout or the simulated
    // artifacts.
    let mut profiler = HostProfiler::new("repro");
    let tracing = artifacts.trace_out.is_some();
    profiler.begin_phase("run");
    let outputs = run_ordered(
        worklist.len(),
        artifacts.jobs(),
        |i| {
            let started = std::time::Instant::now();
            let mut out = run_one(worklist[i], tracing, run_options);
            out.wall = started.elapsed();
            out
        },
        |out| print!("{}", out.stdout),
    );
    profiler.begin_phase("write");

    // Merge metrics and bench records in presentation order.
    let mut metrics = Snapshot::new();
    let mut report = BenchReport::new("repro");
    report.set_config("suite", "hpmp-repro");
    report.set_config("experiments", wanted.join(","));
    for (name, out) in worklist.iter().zip(&outputs) {
        if let Some(snap) = &out.snap {
            record(&mut report, &mut metrics, name, snap.clone());
        }
    }
    if let Some(line) = artifacts.write_trace(outputs.iter().map(|out| &out.trace)) {
        eprintln!("repro: trace: {line}");
    }
    if let Some(line) = artifacts.write_metrics(&metrics) {
        eprintln!("repro: metrics: {line}");
    }
    if let Some(line) = artifacts.write_bench(&report) {
        eprintln!("repro: bench report: {line}");
    }
    for out in &outputs {
        for (label, line) in artifacts.write_telemetry(&out.telemetry) {
            eprintln!("repro: {label} (4-hart HPMP multihart run): {line}");
        }
    }

    // Host-clock epilogue: stderr and the dedicated profile artifact only,
    // so the simulated outputs above are byte-identical whether or not
    // profiling is on.
    for (name, out) in worklist.iter().zip(&outputs) {
        let walks = out.snap.as_ref().map(walks_in_snapshot).unwrap_or(0);
        profiler.record_experiment(*name, out.wall, walks);
    }
    artifacts.write_host_profile(&profiler.finish());
}

/// Everything one experiment produced, buffered so the main thread can
/// merge outputs in presentation order.
struct ExperimentOutput {
    /// The experiment's rendered report tables.
    stdout: String,
    /// Its metrics snapshot, for the traced experiments.
    snap: Option<Snapshot>,
    /// Headerless walk-event bytes (empty unless tracing).
    trace: TraceBytes,
    /// Time-resolved artifacts (recorded by `multihart` only).
    telemetry: SmpTelemetry,
    /// Host wall-clock time the experiment took; feeds only the host
    /// profile, never a simulated artifact.
    wall: std::time::Duration,
}

/// Runs one experiment with a private sink and registry, capturing its
/// report output instead of printing it.
fn run_one(name: &str, tracing: bool, run_options: RunOptions) -> ExperimentOutput {
    let mut trace = TraceBytes::default();
    let ((snap, telemetry), stdout) = if tracing {
        let mut sink = JsonlSink::new_headerless(Vec::new());
        let result = capture_reports(|| dispatch(name, &mut sink, run_options));
        trace = TraceBytes::from_sinks([sink]);
        result
    } else {
        capture_reports(|| dispatch(name, &mut NullSink, run_options))
    };
    ExperimentOutput {
        stdout,
        snap,
        trace,
        telemetry,
        wall: std::time::Duration::ZERO,
    }
}

/// Runs the named experiment, lending `sink` to the ones that drive the
/// instrumented machine directly and returning their metrics snapshot,
/// plus the telemetry `multihart` records.
fn dispatch<S: TraceSink>(
    name: &str,
    sink: &mut S,
    run_options: RunOptions,
) -> (Option<Snapshot>, SmpTelemetry) {
    let snap = match name {
        "table1" => return none_after(table1),
        "fig2" => fig2(sink),
        "fig10" => return none_after(fig10),
        "table3" => return none_after(table3),
        "fig11" => fig11(sink),
        "fig12ac" => return none_after(fig12ac),
        "fig12de" => fig12de(sink),
        "fig13" => fig13(sink),
        "fig14" => fig14(sink),
        "fig15" => return none_after(fig15),
        "fig16" => return none_after(fig16),
        "fig17" => fig17(sink),
        "table4" => return none_after(table4),
        "fig3" => return none_after(fig3),
        "svsweep" => svsweep(sink),
        "virtapp" => virtapp(sink),
        "tenancy" => tenancy(sink),
        "encryption" => encryption(sink),
        "multihart" => {
            let (snap, telemetry) = multihart(run_options);
            return (Some(snap), telemetry);
        }
        _ => unreachable!("worklist is filtered against EXPERIMENTS"),
    };
    sink.flush();
    (Some(snap), SmpTelemetry::default())
}

fn none_after(experiment: fn()) -> (Option<Snapshot>, SmpTelemetry) {
    experiment();
    (None, SmpTelemetry::default())
}

/// Folds one traced experiment's snapshot into both the merged metrics and
/// the perf-trajectory report. The experiment's cycle total is whatever its
/// machines accumulated (`machine.cycles` for native, `virt.cycles` for
/// virtualized runs, `smp.cycles` for multi-hart runs whose per-hart
/// counters live under `hart.<i>.machine.*` instead).
fn record(report: &mut BenchReport, metrics: &mut Snapshot, name: &str, snap: Snapshot) {
    let cycles =
        snap.value("machine.cycles") + snap.value("virt.cycles") + snap.value("smp.cycles");
    *metrics = metrics.merge(&snap);
    report.push(ExperimentRecord::from_snapshot(name, cycles, snap));
}

/// Table 1: simulation configurations.
fn table1() {
    let mut r = Report::new(
        "Table 1: simulation configurations",
        &["Parameter", "Value"],
    );
    for (name, cfg) in [
        ("Rocket", MachineConfig::rocket()),
        ("BOOM", MachineConfig::boom()),
    ] {
        r.row(&[
            format!("{name} core"),
            format!("{} @ {} MHz", cfg.core.kind, cfg.core.clock_mhz),
        ]);
        r.row(&[
            format!("{name} L1 D-cache"),
            format!(
                "{} KiB, {}-way, {}-cycle hit",
                cfg.mem.l1.capacity / 1024,
                cfg.mem.l1.ways,
                cfg.mem.l1.hit_latency
            ),
        ]);
        r.row(&[
            format!("{name} L2"),
            format!(
                "{} KiB, {}-way, {}-cycle hit",
                cfg.mem.l2.capacity / 1024,
                cfg.mem.l2.ways,
                cfg.mem.l2.hit_latency
            ),
        ]);
        r.row(&[
            format!("{name} LLC"),
            format!(
                "{} MiB, {}-way, {}-cycle hit",
                cfg.mem.llc.capacity >> 20,
                cfg.mem.llc.ways,
                cfg.mem.llc.hit_latency
            ),
        ]);
        r.row(&[
            format!("{name} TLB"),
            format!(
                "L1 {} entries FA, L2 {} direct-mapped",
                cfg.tlb.l1_entries, cfg.tlb.l2_entries
            ),
        ]);
        r.row(&[
            format!("{name} PTECache (PWC)"),
            format!("{} entries", cfg.pwc.entries),
        ]);
    }
    let dram = MachineConfig::rocket().mem.dram;
    r.row(&[
        "DRAM".into(),
        format!(
            "{} banks, {} B rows, {}/{} cycle hit/miss",
            dram.banks, dram.row_bytes, dram.row_hit_latency, dram.row_miss_latency
        ),
    ]);
    r.print();
}

/// Figures 2 & 4: memory-reference counts per TLB-miss access.
fn fig2<S: TraceSink>(sink: &mut S) -> Snapshot {
    use hpmp_machine::SystemBuilder;
    use hpmp_memsim::{Perms, PrivMode, VirtAddr};
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Figures 2/4: memory references per access (Sv39, TLB miss, cold)",
        &[
            "Scheme",
            "PT reads",
            "pmpte (PT)",
            "pmpte (data)",
            "data",
            "total",
        ],
    );
    for scheme in [
        IsolationScheme::Pmp,
        IsolationScheme::PmpTable,
        IsolationScheme::Hpmp,
    ] {
        let mut sys = SystemBuilder::new(MachineConfig::rocket(), scheme)
            .sink(&mut *sink)
            .build();
        sys.map_range(VirtAddr::new(0x10_0000), 1, Perms::RW);
        sys.sync_pt_grants();
        sys.machine.flush_microarch();
        let out = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x10_0000),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .expect("access");
        r.row(&[
            scheme.to_string(),
            out.refs.pt_reads.to_string(),
            out.refs.pmpte_for_pt.to_string(),
            out.refs.pmpte_for_data.to_string(),
            out.refs.data_reads.to_string(),
            out.refs.total().to_string(),
        ]);
        metrics = metrics.merge(&sys.machine.metrics_snapshot());
    }
    r.note("paper: PMP=4, PMP Table=12, HPMP=6");
    r.print();
    metrics
}

/// Figure 10: ld/sd latency for TC1–TC4 on both cores.
fn fig10() {
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        for op in [AccessKind::Read, AccessKind::Write] {
            let op_name = if op == AccessKind::Read { "ld" } else { "sd" };
            let mut r = Report::new(
                format!("Figure 10: {op_name} latency ({core}), cycles"),
                &["Case", "PMPTable", "HPMP", "PMP", "HPMP mitigation"],
            );
            for row in figure_10_panel(core, op) {
                r.row(&[
                    row.case.to_string(),
                    row.pmpt.to_string(),
                    row.hpmp.to_string(),
                    row.pmp.to_string(),
                    if row.case == TestCase::Tc4 {
                        "-".into()
                    } else {
                        pct_f(row.mitigation())
                    },
                ]);
            }
            r.note("paper: HPMP mitigates 23.1%-73.1% (BOOM), 47.7%-72.4% (Rocket)");
            r.print();
        }
    }
}

/// Table 3: LMBench syscall costs (BOOM).
fn table3() {
    let mut r = Report::new(
        "Table 3: OS operation costs (BOOM), cycles per call",
        &["Syscall", "PMP", "PMPT", "HPMP", "PMPT/HPMP"],
    );
    let iters = 12;
    let mut ratios = Vec::new();
    for syscall in lmbench::SYSCALLS {
        let pmp = lmbench::measure_syscall(TeeFlavor::PenglaiPmp, CoreKind::Boom, syscall, iters)
            .expect("pmp");
        let pmpt = lmbench::measure_syscall(TeeFlavor::PenglaiPmpt, CoreKind::Boom, syscall, iters)
            .expect("pmpt");
        let hpmp = lmbench::measure_syscall(TeeFlavor::PenglaiHpmp, CoreKind::Boom, syscall, iters)
            .expect("hpmp");
        let ratio = pmpt as f64 / hpmp as f64;
        ratios.push(ratio);
        r.row(&[
            syscall.to_string(),
            pmp.to_string(),
            pmpt.to_string(),
            hpmp.to_string(),
            pct_f(ratio),
        ]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    r.row(&[
        "Avg".into(),
        String::new(),
        String::new(),
        String::new(),
        pct_f(avg),
    ]);
    r.note("paper: PMPT/HPMP avg = 128.43%");
    r.print();
}

/// Figure 11: RV8 (Rocket) and GAP (Rocket + BOOM).
fn fig11<S: TraceSink>(sink: &mut S) -> Snapshot {
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Figure 11-a: RV8 (Rocket), latency normalised to Penglai-PMP",
        &["Kernel", "PL-PMP", "PL-PMPT", "PL-HPMP"],
    );
    for kernel in rv8::RV8_KERNELS {
        let mut run = |flavor| {
            let (cycles, snap) =
                rv8::run_rv8_with_sink(flavor, config_for(CoreKind::Rocket), kernel, &mut *sink)
                    .expect("rv8");
            metrics = metrics.merge(&snap);
            cycles
        };
        let pmp = run(TeeFlavor::PenglaiPmp);
        let pmpt = run(TeeFlavor::PenglaiPmpt);
        let hpmp = run(TeeFlavor::PenglaiHpmp);
        r.row(&[
            kernel.to_string(),
            "100.0%".into(),
            pct(pmpt, pmp),
            pct(hpmp, pmp),
        ]);
    }
    r.note("paper: PMPT 0.0%-1.7% over PMP; HPMP 0.0%-0.5%");
    r.print();

    let graph = gap::default_graph();
    let budget = 20_000;
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        let mut r = Report::new(
            format!("Figure 11-b/c: GAP ({core}), latency normalised to Penglai-PMP"),
            &["Kernel", "PL-PMP", "PL-PMPT", "PL-HPMP"],
        );
        for kernel in gap::GAP_KERNELS {
            let mut run = |flavor| {
                let (cycles, snap) = gap::run_gap_with_sink(
                    flavor,
                    config_for(core),
                    kernel,
                    &graph,
                    budget,
                    &mut *sink,
                )
                .expect("gap");
                metrics = metrics.merge(&snap);
                cycles
            };
            let pmp = run(TeeFlavor::PenglaiPmp);
            let pmpt = run(TeeFlavor::PenglaiPmpt);
            let hpmp = run(TeeFlavor::PenglaiHpmp);
            r.row(&[
                kernel.to_string(),
                "100.0%".into(),
                pct(pmpt, pmp),
                pct(hpmp, pmp),
            ]);
        }
        r.note("paper: PMPT 1.2%-6.7% (Rocket) / 1.8%-9.6% (BOOM); HPMP <= 2.4%");
        r.print();
    }
    metrics
}

/// Figure 12-a/b/c: FunctionBench and the image-processing chain.
fn fig12ac() {
    let n = 3;
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        let mut r = Report::new(
            format!("Figure 12-a/b: FunctionBench ({core}), latency normalised to PL-PMP"),
            &["Function", "PL-PMP", "PL-PMPT", "PL-HPMP"],
        );
        for function in serverless::FUNCTIONS {
            let pmp = serverless::measure_function(TeeFlavor::PenglaiPmp, core, function, n)
                .expect("pmp");
            let pmpt = serverless::measure_function(TeeFlavor::PenglaiPmpt, core, function, n)
                .expect("pmpt");
            let hpmp = serverless::measure_function(TeeFlavor::PenglaiHpmp, core, function, n)
                .expect("hpmp");
            r.row(&[
                function.to_string(),
                "100.0%".into(),
                pct(pmpt, pmp),
                pct(hpmp, pmp),
            ]);
        }
        r.note("paper: PMPT avg 5.1% (Rocket) / 14.1% (BOOM); HPMP avg 2.0% / 3.5%");
        r.print();
    }

    let mut r = Report::new(
        "Figure 12-c: serverless image processing chain (Rocket), normalised to PL-PMP",
        &["Image size", "PL-PMP", "PL-PMPT", "PL-HPMP"],
    );
    for size in [32u64, 64, 128, 256] {
        let pmp =
            serverless::image_chain(TeeFlavor::PenglaiPmp, CoreKind::Rocket, size).expect("pmp");
        let pmpt =
            serverless::image_chain(TeeFlavor::PenglaiPmpt, CoreKind::Rocket, size).expect("pmpt");
        let hpmp =
            serverless::image_chain(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, size).expect("hpmp");
        r.row(&[
            format!("{size}x{size}"),
            "100.0%".into(),
            pct(pmpt, pmp),
            pct(hpmp, pmp),
        ]);
    }
    r.note("paper: PMPT 29.7% -> 1.6% as size grows; HPMP 0.3%-6.7%");
    r.print();
}

/// Figure 12-d/e: Redis RPS.
fn fig12de<S: TraceSink>(sink: &mut S) -> Snapshot {
    let mut metrics = Snapshot::new();
    let requests = 250;
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        let mut r = Report::new(
            format!("Figure 12-d/e: Redis ({core}), RPS normalised to Penglai-PMP"),
            &["Command", "PL-PMP", "PL-PMPT", "PL-HPMP"],
        );
        let mut pmp_srv = redis::RedisServer::start_with_sink(
            TeeFlavor::PenglaiPmp,
            config_for(core),
            redis::DEFAULT_DATASET_PAGES,
            &mut *sink,
        )
        .expect("pmp server");
        let mut pmpt_srv =
            redis::RedisServer::start(TeeFlavor::PenglaiPmpt, core, redis::DEFAULT_DATASET_PAGES)
                .expect("pmpt server");
        let mut hpmp_srv =
            redis::RedisServer::start(TeeFlavor::PenglaiHpmp, core, redis::DEFAULT_DATASET_PAGES)
                .expect("hpmp server");
        for cmd in redis::REDIS_COMMANDS {
            let pmp = pmp_srv.rps(cmd, requests).expect("pmp");
            let pmpt = pmpt_srv.rps(cmd, requests).expect("pmpt");
            let hpmp = hpmp_srv.rps(cmd, requests).expect("hpmp");
            r.row(&[
                cmd.to_string(),
                "100.0%".into(),
                pct_f(pmpt / pmp),
                pct_f(hpmp / pmp),
            ]);
        }
        metrics = metrics.merge(&pmp_srv.tee_mut().machine.metrics_snapshot());
        metrics = metrics.merge(&pmpt_srv.tee_mut().machine.metrics_snapshot());
        metrics = metrics.merge(&hpmp_srv.tee_mut().machine.metrics_snapshot());
        pmp_srv.tee_mut().machine.flush_sink();
        r.note("paper: PMPT loses 5.9%-18.0% (Rocket) / 10.8%-31.8% (BOOM); HPMP ~3-5%");
        r.print();
    }
    metrics
}

/// Figure 13: virtualized memory access latency (Rocket).
fn fig13<S: TraceSink>(sink: &mut S) -> Snapshot {
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Figure 13: virtualized access latency (Rocket), cycles",
        &["Case", "PMPT", "HPMP", "HPMP-GPT", "PMP"],
    );
    for case in VIRT_CASES {
        let cells: Vec<String> = [
            VirtScheme::PmpTable,
            VirtScheme::Hpmp,
            VirtScheme::HpmpGpt,
            VirtScheme::Pmp,
        ]
        .iter()
        .map(|&s| {
            let (cycles, snap) = measure_virt_with_sink(CoreKind::Rocket, s, case, &mut *sink);
            metrics = metrics.merge(&snap);
            cycles.to_string()
        })
        .collect();
        let mut row = vec![case.to_string()];
        row.extend(cells);
        r.row(&row);
    }
    r.note("paper: HPMP cuts PMPT's extra cost to 29.7%-75.6%; HPMP-GPT to 16.3%-26.8%");
    let _ = VirtCase::Tc1;
    r.print();
    metrics
}

/// Figure 14: TEE operation costs.
fn fig14<S: TraceSink>(sink: &mut S) -> Snapshot {
    let mut metrics = Snapshot::new();
    // (a) Domain switch cost at 2 / 12 / 101 domains.
    let mut r = Report::new(
        "Figure 14-a: domain switch latency (cycles)",
        &["Domains", "Penglai-PMP", "Penglai-HPMP"],
    );
    for &count in &[2u32, 12, 101] {
        let mut cells = vec![format!("{count}-domains")];
        for flavor in [TeeFlavor::PenglaiPmp, TeeFlavor::PenglaiHpmp] {
            cells.push(match switch_cost(flavor, count, &mut *sink) {
                Ok(cycles) => cycles.to_string(),
                Err(MonitorError::OutOfPmpEntries) => "no available PMP".into(),
                Err(e) => format!("error: {e}"),
            });
        }
        r.row(&cells);
    }
    r.note("paper: HPMP within 1% of PMP; stable with instance count; PMP fails at 101");
    r.print();

    // (b)/(c) Region allocation and release, 64 KiB x 100.
    let mut r = Report::new(
        "Figure 14-b/c: 64 KiB region allocation/release latency (cycles)",
        &[
            "Regions",
            "PMP alloc",
            "PMP free",
            "HPMP alloc",
            "HPMP free",
        ],
    );
    let samples = [1usize, 10, 25, 50, 75, 100];
    let pmp = region_cycle_series(TeeFlavor::PenglaiPmp, 100, &mut *sink);
    let hpmp = region_cycle_series(TeeFlavor::PenglaiHpmp, 100, &mut *sink);
    for &i in &samples {
        let get = |series: &(Vec<u64>, Vec<u64>), idx: usize, alloc: bool| -> String {
            let v = if alloc { &series.0 } else { &series.1 };
            v.get(idx - 1)
                .map(|c| c.to_string())
                .unwrap_or_else(|| "no PMP".into())
        };
        r.row(&[
            i.to_string(),
            get(&pmp, i, true),
            get(&pmp, i, false),
            get(&hpmp, i, true),
            get(&hpmp, i, false),
        ]);
    }
    r.note("paper: PMP stops at ~13 regions; HPMP supports >100 at slightly higher cost");
    r.print();

    // (d) Allocation with different sizes (HPMP).
    let mut r = Report::new(
        "Figure 14-d: Penglai-HPMP allocation latency by region size (cycles)",
        &["Size (MiB)", "Latency"],
    );
    for &mib in &[1u64, 2, 4, 8, 16, 32, 64] {
        let mut machine = hpmp_machine::Machine::with_sink(MachineConfig::rocket(), &mut *sink);
        let ram = hpmp_core::PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
        let mut monitor =
            SecureMonitor::boot(&mut machine, TeeFlavor::PenglaiHpmp, ram).expect("monitor boots");
        let (_, cycles) = monitor
            .alloc_region(&mut machine, DomainId::HOST, mib << 20, GmsLabel::Slow)
            .expect("alloc");
        r.row(&[mib.to_string(), cycles.to_string()]);
        metrics = metrics.merge(&machine.metrics_snapshot());
    }
    r.note("paper: grows with size; 32 MiB-aligned regions collapse to one huge pmpte");
    r.print();
    metrics
}

fn switch_cost<S: TraceSink>(
    flavor: TeeFlavor,
    domains: u32,
    sink: &mut S,
) -> Result<u64, MonitorError> {
    let mut machine = hpmp_machine::Machine::with_sink(MachineConfig::rocket(), sink);
    let ram = hpmp_core::PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
    let mut monitor = SecureMonitor::boot(&mut machine, flavor, ram).expect("monitor boots");
    let mut first = None;
    for _ in 0..domains.saturating_sub(1) {
        let (id, _) = monitor.create_domain(&mut machine, 1 << 20, GmsLabel::Slow)?;
        first.get_or_insert(id);
    }
    let target = first.expect("at least two domains");
    monitor.switch_to(&mut machine, target)?;
    monitor.switch_to(&mut machine, DomainId::HOST)?;
    monitor.switch_to(&mut machine, target)
}

fn region_cycle_series<S: TraceSink>(
    flavor: TeeFlavor,
    count: usize,
    sink: &mut S,
) -> (Vec<u64>, Vec<u64>) {
    let mut machine = hpmp_machine::Machine::with_sink(MachineConfig::rocket(), sink);
    let ram = hpmp_core::PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
    let mut monitor = SecureMonitor::boot(&mut machine, flavor, ram).expect("monitor boots");
    let mut allocs = Vec::new();
    let mut bases = Vec::new();
    for _ in 0..count {
        match monitor.alloc_region(&mut machine, DomainId::HOST, 64 * 1024, GmsLabel::Slow) {
            Ok((region, cycles)) => {
                allocs.push(cycles);
                bases.push(region.base);
            }
            Err(MonitorError::OutOfPmpEntries) => break,
            Err(e) => panic!("unexpected monitor error: {e}"),
        }
    }
    let mut frees = Vec::new();
    for base in bases {
        frees.push(
            monitor
                .free_region(&mut machine, DomainId::HOST, base)
                .expect("free"),
        );
    }
    (allocs, frees)
}

/// Figure 15: fragmentation.
fn fig15() {
    let mut r = Report::new(
        "Figure 15: fragmentation, total latency of 24 fresh-page touches (Rocket, cycles)",
        &["PA / VA", "PMP", "PMPT", "HPMP"],
    );
    for pa in [frag::PaLayout::Contiguous, frag::PaLayout::Fragmented] {
        for va in [frag::VaLayout::Contiguous, frag::VaLayout::Fragmented] {
            let mut row = vec![format!("{pa} / {va}")];
            for scheme in [
                IsolationScheme::Pmp,
                IsolationScheme::PmpTable,
                IsolationScheme::Hpmp,
            ] {
                row.push(
                    frag::measure(CoreKind::Rocket, scheme, va, pa, PmptwCacheConfig::DISABLED)
                        .to_string(),
                );
            }
            r.row(&row);
        }
    }
    r.note("paper: fragmented worst; HPMP < PMPT in every case");
    r.print();

    // §8.8's virtualized cases (3)/(4): fragmented host virtual pages
    // backing the guest, with contiguous vs fragmented physical frames.
    let mut r = Report::new(
        "Figure 15 (virt cases 3/4): 24 fresh guest-page touches (Rocket, cycles)",
        &["Backing", "PMP", "PMPT", "HPMP", "HPMP-GPT"],
    );
    for backing in [frag::PaLayout::Contiguous, frag::PaLayout::Fragmented] {
        let mut row = vec![backing.to_string()];
        for scheme in [
            VirtScheme::Pmp,
            VirtScheme::PmpTable,
            VirtScheme::Hpmp,
            VirtScheme::HpmpGpt,
        ] {
            row.push(frag::measure_virt(CoreKind::Rocket, scheme, backing).to_string());
        }
        r.row(&row);
    }
    r.note("paper cases (3)/(4): fragmented PTEs in the virtualized environment");
    r.print();
}

/// Figure 16: PMPTW-Cache.
fn fig16() {
    let mut r = Report::new(
        "Figure 16: permission-table caching (Rocket, cycles; fragmented-PA case)",
        &[
            "VA layout",
            "PMPT",
            "PMPT-Cache",
            "HPMP",
            "HPMP-Cache",
            "PMP",
        ],
    );
    for va in [frag::VaLayout::Contiguous, frag::VaLayout::Fragmented] {
        let pa = frag::PaLayout::Contiguous;
        let m = |scheme, cache| frag::measure(CoreKind::Rocket, scheme, va, pa, cache);
        r.row(&[
            va.to_string(),
            m(IsolationScheme::PmpTable, PmptwCacheConfig::DISABLED).to_string(),
            m(IsolationScheme::PmpTable, PmptwCacheConfig::ENABLED_8).to_string(),
            m(IsolationScheme::Hpmp, PmptwCacheConfig::DISABLED).to_string(),
            m(IsolationScheme::Hpmp, PmptwCacheConfig::ENABLED_8).to_string(),
            m(IsolationScheme::Pmp, PmptwCacheConfig::DISABLED).to_string(),
        ]);
    }
    r.note("paper: cache helps PMPT most on fragmented VA; HPMP-Cache is best overall");
    r.print();
}

/// Figure 17: FunctionBench with 8 vs 32 PWC entries (Rocket).
fn fig17<S: TraceSink>(sink: &mut S) -> Snapshot {
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Figure 17: FunctionBench with PWC sizes (Rocket), normalised to PMP(8)",
        &[
            "Function", "PMP(8)", "PMP(32)", "PMPT(8)", "PMPT(32)", "HPMP(8)", "HPMP(32)",
        ],
    );
    let n = 2;
    let flavors = [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ];
    for function in serverless::FUNCTIONS {
        let mut values = Vec::new();
        for flavor in flavors {
            for entries in [8usize, 32] {
                let mut config = MachineConfig::rocket();
                config.pwc.entries = entries;
                let mut tee = hpmp_workloads::TeeBench::boot_with_sink(flavor, config, &mut *sink);
                values.push(serverless::measure_function_on(&mut tee, function, n).expect("run"));
                metrics = metrics.merge(&tee.machine.metrics_snapshot());
            }
        }
        let base = values[0];
        let mut row = vec![function.to_string()];
        row.extend(values.iter().map(|&v| pct(v, base)));
        r.row(&row);
    }
    r.note("paper: larger PWC helps only marginally; HPMP(8) still beats PMPT(32)");
    r.print();
    metrics
}

/// Table 4: hardware resource costs (analytic substitute).
fn table4() {
    let mut r = Report::new(
        "Table 4: FPGA resource costs (ANALYTIC MODEL - see DESIGN.md substitution)",
        &[
            "Resource", "Baseline", "HPMP", "Cost", "Base+H", "HPMP+H", "Cost",
        ],
    );
    let plain = estimate_resources(&HardwareParams::prototype());
    let hyp = estimate_resources(&HardwareParams::prototype_hypervisor());
    r.row(&[
        "LUT".into(),
        plain.baseline_lut.to_string(),
        plain.hpmp_lut.to_string(),
        format!("{:.2}%", plain.lut_cost_percent()),
        hyp.baseline_lut.to_string(),
        hyp.hpmp_lut.to_string(),
        format!("{:.2}%", hyp.lut_cost_percent()),
    ]);
    r.row(&[
        "FF".into(),
        plain.baseline_ff.to_string(),
        plain.hpmp_ff.to_string(),
        format!("{:.2}%", plain.ff_cost_percent()),
        hyp.baseline_ff.to_string(),
        hyp.hpmp_ff.to_string(),
        format!("{:.2}%", hyp.ff_cost_percent()),
    ]);
    r.row(&[
        "BRAM/DSP delta".into(),
        "-".into(),
        plain.bram_delta.to_string(),
        "0.00%".into(),
        "-".into(),
        hyp.dsp_delta.to_string(),
        "0.00%".into(),
    ]);
    r.note("paper: 0.94%/1.18% LUT, 0.16%/0.78% FF, zero BRAM/DSP");
    r.print();

    // Also exercise the monitor cost constants so they appear in output.
    let _ = cost::TRAP_ROUND_TRIP;
}

/// Extension experiment: the §2.2 depth claim ("even more serious for
/// 4-level or 5-level page table architectures") swept across Sv39/48/57.
fn svsweep<S: TraceSink>(sink: &mut S) -> Snapshot {
    use hpmp_machine::SystemBuilder;
    use hpmp_memsim::{Perms, PrivMode, VirtAddr};
    use hpmp_paging::TranslationMode;
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Depth sweep: cold TLB-miss references and cycles by translation mode (Rocket)",
        &[
            "Mode",
            "PMP refs",
            "PMPT refs",
            "HPMP refs",
            "PMP cyc",
            "PMPT cyc",
            "HPMP cyc",
        ],
    );
    for mode in [
        TranslationMode::Sv39,
        TranslationMode::Sv48,
        TranslationMode::Sv57,
    ] {
        let mut refs = Vec::new();
        let mut cycles = Vec::new();
        for scheme in SCHEMES_ORDERED {
            let mut sys = SystemBuilder::new(MachineConfig::rocket(), scheme)
                .translation_mode(mode)
                .sink(&mut *sink)
                .build();
            sys.map_range(VirtAddr::new(0x10_0000), 1, Perms::RW);
            sys.sync_pt_grants();
            sys.machine.flush_microarch();
            let out = sys
                .machine
                .access(
                    &sys.space,
                    VirtAddr::new(0x10_0000),
                    AccessKind::Read,
                    PrivMode::Supervisor,
                )
                .expect("mapped");
            refs.push(out.refs.total());
            cycles.push(out.cycles);
            metrics = metrics.merge(&sys.machine.metrics_snapshot());
        }
        r.row(&[
            mode.to_string(),
            refs[0].to_string(),
            refs[1].to_string(),
            refs[2].to_string(),
            cycles[0].to_string(),
            cycles[1].to_string(),
            cycles[2].to_string(),
        ]);
    }
    r.note("paper §2.2: the extra dimension worsens with depth; HPMP saving grows with it");
    r.print();
    metrics
}

/// Extension experiment: application-level throughput in a guest VM
/// (sustained key-value probes over the 3-D walk).
fn virtapp<S: TraceSink>(sink: &mut S) -> Snapshot {
    use hpmp_workloads::virt_app::{run_guest_kv, run_guest_kv_with_sink, GUEST_DATASET_PAGES};
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Guest key-value workload (Rocket): cycles per request over the 3-D walk",
        &["Scheme", "cycles/req", "vs PMP"],
    );
    let requests = 600;
    let base = run_guest_kv(
        CoreKind::Rocket,
        VirtScheme::Pmp,
        GUEST_DATASET_PAGES,
        requests,
    )
    .cycles_per_request();
    for scheme in [
        VirtScheme::Pmp,
        VirtScheme::PmpTable,
        VirtScheme::Hpmp,
        VirtScheme::HpmpGpt,
    ] {
        let (out, snap) = run_guest_kv_with_sink(
            CoreKind::Rocket,
            scheme,
            GUEST_DATASET_PAGES,
            requests,
            &mut *sink,
        );
        metrics = metrics.merge(&snap);
        let cpr = out.cycles_per_request();
        r.row(&[scheme.to_string(), format!("{cpr:.0}"), pct_f(cpr / base)]);
    }
    r.note("extension of §8.6: the Figure-13 ordering holds under sustained guest load");
    r.print();
    metrics
}

/// Extension experiment: interaction with Penglai's memory-encryption
/// engine. The engine taxes every DRAM access, and the permission table's
/// extra references are exactly the kind of cold pointer-chase traffic that
/// reaches DRAM — so encryption *amplifies* the table's overhead, and
/// HPMP's savings grow in absolute terms.
fn encryption<S: TraceSink>(sink: &mut S) -> Snapshot {
    use hpmp_machine::SystemBuilder;
    use hpmp_memsim::{Perms, PrivMode, VirtAddr};
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Memory-encryption interaction (Rocket): cold TLB-miss ld, cycles",
        &["Engine", "PMP", "PMPT", "HPMP", "PMPT-PMP gap"],
    );
    for (name, latency) in [("off", 0u64), ("AES-XTS 26c", 26), ("AES-XTS 40c", 40)] {
        let mut cycles = Vec::new();
        for scheme in SCHEMES_ORDERED {
            let mut config = MachineConfig::rocket();
            config.mem = config.mem.with_encryption(latency);
            let mut sys = SystemBuilder::new(config, scheme).sink(&mut *sink).build();
            sys.map_range(VirtAddr::new(0x10_0000), 1, Perms::RW);
            sys.sync_pt_grants();
            sys.machine.flush_microarch();
            cycles.push(
                sys.machine
                    .access(
                        &sys.space,
                        VirtAddr::new(0x10_0000),
                        AccessKind::Read,
                        PrivMode::Supervisor,
                    )
                    .expect("mapped")
                    .cycles,
            );
            metrics = metrics.merge(&sys.machine.metrics_snapshot());
        }
        r.row(&[
            name.to_string(),
            cycles[0].to_string(),
            cycles[1].to_string(),
            cycles[2].to_string(),
            (cycles[1] - cycles[0]).to_string(),
        ]);
    }
    r.note("encryption widens the table-vs-segment gap: every extra reference pays the engine");
    r.print();
    metrics
}

/// Extension experiment: the intro's 100-instance scalability claim.
fn tenancy<S: TraceSink>(sink: &mut S) -> Snapshot {
    use hpmp_workloads::multi_tenant::run_tenancy_with_sink;
    let mut metrics = Snapshot::new();
    let mut r = Report::new(
        "Multi-tenant packing (Rocket): 100 requested tenants",
        &["Flavour", "tenants", "entry wall", "cycles/request"],
    );
    for flavor in [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ] {
        let (out, snap) =
            run_tenancy_with_sink(flavor, config_for(CoreKind::Rocket), 100, 2, &mut *sink)
                .expect("tenancy");
        metrics = metrics.merge(&snap);
        r.row(&[
            flavor.to_string(),
            out.tenants.to_string(),
            if out.hit_entry_wall {
                "yes".into()
            } else {
                "no".into()
            },
            format!("{:.0}", out.cycles_per_request()),
        ]);
    }
    r.note("intro claim: >100 instances per node; PMP walls below 16 domains");
    r.print();
    metrics
}

/// Extension experiment X9: multi-hart scaling. One tenant enclave per
/// hart over a shared monitor, the churny `tenancy` SMP shape, swept over
/// 1/2/4/8 harts — every GMS change on one hart shoots down all the
/// others, so the interesting number is how much of the total the remote
/// fence/reprogram stalls eat as the hart count grows. Untraced: the run
/// is seeded, so it is deterministic regardless.
///
/// Every run uses `run_options`' backend; the threaded backend's snapshots
/// are byte-identical to the deterministic ones (enforced by the
/// conformance battery), so the table does not change — only wall-clock
/// does. The 4-hart HPMP run also records the telemetry `run_options`
/// asks for (timeline slices, monitor-operation spans), returned for the
/// caller to write.
fn multihart(run_options: RunOptions) -> (Snapshot, SmpTelemetry) {
    use hpmp_workloads::smp::{run_smp_with, spec_for};
    let spec = spec_for("tenancy").expect("tenancy has an SMP shape");
    let seed = 0xA11CE;
    let run = |flavor, harts, options| {
        let machines = (0..harts)
            .map(|_| hpmp_machine::Machine::new(MachineConfig::rocket()))
            .collect();
        run_smp_with(machines, flavor, seed, spec, options).expect("multihart run")
    };
    let counters_only = RunOptions::from(run_options.backend());
    let mut metrics = Snapshot::new();
    let mut telemetry = SmpTelemetry::default();
    let mut r = Report::new(
        "SMP scaling (Rocket): tenancy shape, cross-hart shootdown overhead",
        &[
            "Harts",
            "PMPT cycles",
            "HPMP cycles",
            "HPMP IPIs",
            "HPMP stall cyc",
            "stall share",
        ],
    );
    for harts in [1usize, 2, 4, 8] {
        let (pmpt, ..) = run(TeeFlavor::PenglaiPmpt, harts, counters_only);
        let options = if harts == 4 {
            run_options
        } else {
            counters_only
        };
        let (hpmp, snap, _, recorded) = run(TeeFlavor::PenglaiHpmp, harts, options);
        if harts == 4 {
            telemetry = recorded;
        }
        let stall: u64 = (0..harts)
            .map(|h| snap.value(&format!("hart.{h}.fence_stall_cycles")))
            .sum();
        metrics = metrics.merge(&snap);
        r.row(&[
            harts.to_string(),
            pmpt.total_cycles.to_string(),
            hpmp.total_cycles.to_string(),
            hpmp.ipis_delivered.to_string(),
            stall.to_string(),
            pct_f(stall as f64 / hpmp.total_cycles as f64),
        ]);
    }
    r.note("IPIs grow ~quadratically with harts, but cheap segment reprograms cap the stall share");
    r.print();
    (metrics, telemetry)
}

const SCHEMES_ORDERED: [IsolationScheme; 3] = [
    IsolationScheme::Pmp,
    IsolationScheme::PmpTable,
    IsolationScheme::Hpmp,
];

/// Figure 3: the preview chart (normalised Segment vs Table, avg/worst).
fn fig3() {
    let mut r = Report::new(
        "Figure 3: preview (BOOM), Table normalised to Segment",
        &["Experiment", "Avg", "Worst"],
    );
    // (a) single ld latency across TC1-TC3 (walking cases).
    let rows = figure_10_panel(CoreKind::Boom, AccessKind::Read);
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|row| row.case != TestCase::Tc4)
        .map(|row| row.pmpt as f64 / row.pmp as f64)
        .collect();
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let worst = ratios.iter().cloned().fold(f64::MIN, f64::max);
    r.row(&["ld latency".into(), pct_f(avg), pct_f(worst)]);

    // (b) GAP.
    let graph = gap::default_graph();
    let mut ratios = Vec::new();
    for kernel in gap::GAP_KERNELS {
        let pmp = gap::run_gap(TeeFlavor::PenglaiPmp, CoreKind::Boom, kernel, &graph, 8_000)
            .expect("pmp");
        let pmpt = gap::run_gap(
            TeeFlavor::PenglaiPmpt,
            CoreKind::Boom,
            kernel,
            &graph,
            8_000,
        )
        .expect("pmpt");
        ratios.push(pmpt as f64 / pmp as f64);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let worst = ratios.iter().cloned().fold(f64::MIN, f64::max);
    r.row(&["GAP".into(), pct_f(avg), pct_f(worst)]);

    // (c) serverless.
    let mut ratios = Vec::new();
    for function in serverless::FUNCTIONS {
        let pmp = serverless::measure_function(TeeFlavor::PenglaiPmp, CoreKind::Boom, function, 2)
            .expect("pmp");
        let pmpt =
            serverless::measure_function(TeeFlavor::PenglaiPmpt, CoreKind::Boom, function, 2)
                .expect("pmpt");
        ratios.push(pmpt as f64 / pmp as f64);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let worst = ratios.iter().cloned().fold(f64::MIN, f64::max);
    r.row(&["Serverless".into(), pct_f(avg), pct_f(worst)]);

    // (d) Redis RPS (lower is the table's loss).
    let mut ratios = Vec::new();
    for cmd in [
        redis::RedisCommand::Get,
        redis::RedisCommand::Set,
        redis::RedisCommand::Lrange100,
        redis::RedisCommand::Mset,
    ] {
        let mut pmp_srv = redis::RedisServer::start(
            TeeFlavor::PenglaiPmp,
            CoreKind::Boom,
            redis::DEFAULT_DATASET_PAGES,
        )
        .expect("pmp");
        let mut pmpt_srv = redis::RedisServer::start(
            TeeFlavor::PenglaiPmpt,
            CoreKind::Boom,
            redis::DEFAULT_DATASET_PAGES,
        )
        .expect("pmpt");
        let pmp = pmp_srv.rps(cmd, 150).expect("pmp");
        let pmpt = pmpt_srv.rps(cmd, 150).expect("pmpt");
        ratios.push(pmpt / pmp);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let worst = ratios.iter().cloned().fold(f64::MAX, f64::min);
    r.row(&["Redis RPS".into(), pct_f(avg), pct_f(worst)]);
    r.note("paper: ld +63.4% avg/+91.1% worst; GAP +5.2%/+9.6%; RPS lower is worse");
    r.print();

    let _ = SCHEMES;
}
