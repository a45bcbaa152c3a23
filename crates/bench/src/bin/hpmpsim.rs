//! `hpmpsim` — run one workload under a chosen configuration and print the
//! machine-level statistics.
//!
//! ```text
//! hpmpsim [--flavor pmp|pmpt|hpmp] [--core rocket|boom]
//!         [--workload redis|serverless|gap|rv8|lmbench|tenancy|virtapp]
//!         [--scenario aging] [--churn-ops N]
//!         [--harts N] [--backend deterministic|threaded]
//!         [--jobs N] [--pwc N] [--pmptw-cache N]
//!         [--no-tlb-inlining] [--encryption CYCLES] [--epmp]
//!         [--trace-out walks.jsonl] [--metrics-out metrics.json]
//!         [--bench-out BENCH_name.json]
//!         [--snapshot-interval CYCLES] [--timeline-out timeline.jsonl]
//!         [--spans-out spans.jsonl]
//!         [--fault-campaign SPEC] [--fault-seed N] [--campaign-out FILE]
//!         [--host-profile-out FILE]
//! ```
//!
//! `--workload` accepts a comma-separated list; the workloads run on an
//! in-process pool of `--jobs N` worker threads (default: available
//! parallelism), each with its own trace sink and metrics registry.
//! Outputs are merged in the listed workload order, so they are
//! byte-identical whatever the thread count.
//!
//! `--harts N` (N > 1) runs each workload's SMP shape instead: one tenant
//! enclave per hart over a shared [`hpmp_penglai::SmpSystem`], with
//! cross-hart TLB/PMP shootdowns on every GMS change and domain switch.
//! The hart interleaving is seeded and the run is single-threaded
//! internally, so artifacts stay byte-identical at any `--jobs`; trace
//! events carry a `hart` field and the metrics snapshot gains per-hart
//! `hart.<i>.*` shootdown/fence counters plus `smp.*` totals.
//!
//! `--backend threaded` (with `--harts` >= 2) runs the same SMP shape on
//! the threaded execution backend: one OS thread per hart between monitor
//! operations, sharded physical memory, per-hart metric arenas, and
//! mailbox shootdown delivery. Outcomes and metric snapshots are
//! byte-identical to the default `deterministic` backend (the conformance
//! battery enforces this) — only wall-clock changes. Time-resolved
//! telemetry (`--snapshot-interval`/`--timeline-out`/`--spans-out`)
//! requires the deterministic backend.
//!
//! SMP runs can also record *time-resolved* telemetry (both require
//! `--harts` ≥ 2 and a single workload): `--snapshot-interval N` cuts a
//! timeline slice — a delta of the unified metrics snapshot — every N
//! global simulated cycles and streams them to `--timeline-out` (default
//! `timeline.jsonl`); re-summing the slices reproduces `--metrics-out`
//! byte-for-byte. `--spans-out` records monitor-operation spans: every
//! `*_on` op opens a span, and every shootdown it triggers emits per-
//! receiver IPI-send/trap/reprogram/fence child spans causally linked to
//! the op. Both artifacts live on the simulated clock, so they are
//! byte-identical at any `--jobs`. Feed them to `hpmp-analyze timeline`.
//!
//! `--scenario aging` switches to the fleet-churn aging campaign instead of
//! a workload run: `--churn-ops N` enclave lifecycles (default 1200) over a
//! deliberately small 128 MiB arena, pushing the monitor down its staged
//! degradation ladder (normal → compacting → table-only → admission
//! control). The run honours `--flavor`, `--core`, `--harts` and
//! `--backend`, uses the fixed SMP seed, and is byte-identical at any
//! `--jobs` and on either backend. `--metrics-out`/`--bench-out` work as
//! usual. Exit status: 0 normally, 1 if a robustness invariant broke
//! (canary loss or a fast-path/oracle disagreement), and **3** if the run
//! *ended* inside stage-3 admission control — a distinct, non-panicking
//! signal that the modelled fleet saturated its arena.
//!
//! `--fault-campaign` switches to fault-injection mode instead of running a
//! workload: the campaign's shards (part of the spec, not derived from
//! `--jobs`) fan out over the same worker pool, each injecting seeded
//! faults and checking every probed access against the monitor's lockstep
//! permission oracle. The exit status is non-zero if any fast-path grant
//! contradicted the oracle (`silent > 0`) or a recovery path failed.
//! `--campaign-out` writes one JSON record per trial plus a final summary
//! object; for a fixed `--fault-seed` the file and stdout are
//! byte-identical at any `--jobs` level.
//!
//! `--trace-out` streams one JSON object per page walk (see
//! `hpmp_trace::WalkEvent::to_json`); `--metrics-out` writes the unified
//! metrics snapshot as versioned JSON after the run; `--bench-out` writes a
//! perf-trajectory [`hpmp_trace::BenchReport`] (one record for the workload:
//! cycles, walks, counters, latency percentiles) consumable by
//! `hpmp-analyze gate`.
//!
//! `--host-profile-out` writes a [`hpmp_trace::HostProfile`]: *wall-clock*
//! phase timers, per-workload host time, and the walks-per-second
//! headline (also printed to stderr). Host-clock data is nondeterministic,
//! so it lives in its own artifact and never touches stdout or the
//! simulated artifacts above — those stay byte-identical whether or not
//! profiling is on (see DESIGN.md §10, the dual-clock quarantine).
//!
//! Unlike `repro` (which regenerates the paper's tables), this is the
//! kick-the-tires tool: pick a stack, run a workload, read the counters.

use std::fmt::Write as _;
use std::io::Write as _;

use hpmp_bench::run_ordered;
use hpmp_core::PmptwCacheConfig;
use hpmp_faults::{run_shard, CampaignReport, CampaignSpec};
use hpmp_machine::{ExecBackend, MachineConfig};
use hpmp_memsim::CoreKind;
use hpmp_penglai::TeeFlavor;
use hpmp_trace::{
    walks_in_snapshot, BenchReport, ExperimentRecord, HostProfiler, JsonlSink, NullSink, Snapshot,
    TraceSink,
};
use hpmp_workloads::TeeBench;

#[derive(Debug)]
struct Options {
    flavor: TeeFlavor,
    core: CoreKind,
    workload: String,
    scenario: Option<String>,
    churn_ops: Option<u32>,
    harts: usize,
    backend: ExecBackend,
    jobs: Option<usize>,
    pwc: Option<usize>,
    pmptw_cache: Option<usize>,
    tlb_inlining: bool,
    encryption: u64,
    epmp: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    bench_out: Option<String>,
    snapshot_interval: Option<u64>,
    timeline_out: Option<String>,
    spans_out: Option<String>,
    fault_campaign: Option<String>,
    fault_seed: u64,
    campaign_out: Option<String>,
    host_profile_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hpmpsim [--flavor pmp|pmpt|hpmp] [--core rocket|boom]\n\
         \x20              [--workload redis|serverless|gap|rv8|lmbench|tenancy|virtapp]\n\
         \x20              [--scenario aging] [--churn-ops N]\n\
         \x20              [--harts N] [--backend deterministic|threaded]\n\
         \x20              [--jobs N] [--pwc N] [--pmptw-cache N]\n\
         \x20              [--no-tlb-inlining] [--encryption CYCLES] [--epmp]\n\
         \x20              [--trace-out walks.jsonl] [--metrics-out metrics.json]\n\
         \x20              [--bench-out BENCH_name.json]\n\
         \x20              [--snapshot-interval CYCLES] [--timeline-out timeline.jsonl]\n\
         \x20              [--spans-out spans.jsonl]\n\
         \x20              [--fault-campaign SPEC] [--fault-seed N] [--campaign-out FILE]\n\
         \x20              [--host-profile-out FILE]\n\
         SPEC: comma-separated key=value pairs, e.g.\n\
         \x20    faults=1000,classes=pmpte+regs+stale+interpose,flavor=hpmp,domains=2,shards=8\n\
         exit codes: 0 ok, 1 failed invariant, 2 usage,\n\
         \x20           3 aging scenario ended in stage-3 admission control"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        flavor: TeeFlavor::PenglaiHpmp,
        core: CoreKind::Rocket,
        workload: "serverless".to_string(),
        scenario: None,
        churn_ops: None,
        harts: 1,
        backend: ExecBackend::Deterministic,
        jobs: None,
        pwc: None,
        pmptw_cache: None,
        tlb_inlining: true,
        encryption: 0,
        epmp: false,
        trace_out: None,
        metrics_out: None,
        bench_out: None,
        snapshot_interval: None,
        timeline_out: None,
        spans_out: None,
        fault_campaign: None,
        fault_seed: 0,
        campaign_out: None,
        host_profile_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--flavor" => {
                options.flavor = match value("--flavor").as_str() {
                    "pmp" => TeeFlavor::PenglaiPmp,
                    "pmpt" => TeeFlavor::PenglaiPmpt,
                    "hpmp" => TeeFlavor::PenglaiHpmp,
                    other => {
                        eprintln!("unknown flavor {other}");
                        usage()
                    }
                }
            }
            "--core" => {
                options.core = match value("--core").as_str() {
                    "rocket" => CoreKind::Rocket,
                    "boom" => CoreKind::Boom,
                    other => {
                        eprintln!("unknown core {other}");
                        usage()
                    }
                }
            }
            "--workload" => options.workload = value("--workload"),
            "--scenario" => match value("--scenario").as_str() {
                "aging" => options.scenario = Some("aging".to_string()),
                other => {
                    eprintln!("unknown scenario {other}");
                    usage()
                }
            },
            "--churn-ops" => match value("--churn-ops").parse() {
                Ok(n) if n >= 1 => options.churn_ops = Some(n),
                _ => {
                    eprintln!("--churn-ops needs a positive integer");
                    usage()
                }
            },
            "--harts" => match value("--harts").parse() {
                Ok(n) if n >= 1 => options.harts = n,
                _ => {
                    eprintln!("--harts needs a positive integer");
                    usage()
                }
            },
            "--backend" => match value("--backend").parse() {
                Ok(backend) => options.backend = backend,
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            },
            "--jobs" => match value("--jobs").parse() {
                Ok(n) => options.jobs = Some(n),
                Err(_) => {
                    eprintln!("--jobs needs a positive integer");
                    usage()
                }
            },
            "--pwc" => options.pwc = value("--pwc").parse().ok(),
            "--pmptw-cache" => options.pmptw_cache = value("--pmptw-cache").parse().ok(),
            "--no-tlb-inlining" => options.tlb_inlining = false,
            "--encryption" => options.encryption = value("--encryption").parse().unwrap_or(0),
            "--epmp" => options.epmp = true,
            "--trace-out" => options.trace_out = Some(value("--trace-out")),
            "--metrics-out" => options.metrics_out = Some(value("--metrics-out")),
            "--bench-out" => options.bench_out = Some(value("--bench-out")),
            "--snapshot-interval" => match value("--snapshot-interval").parse() {
                Ok(n) if n >= 1 => options.snapshot_interval = Some(n),
                _ => {
                    eprintln!("--snapshot-interval needs a positive cycle count");
                    usage()
                }
            },
            "--timeline-out" => options.timeline_out = Some(value("--timeline-out")),
            "--spans-out" => options.spans_out = Some(value("--spans-out")),
            "--fault-campaign" => options.fault_campaign = Some(value("--fault-campaign")),
            "--fault-seed" => match value("--fault-seed").parse() {
                Ok(n) => options.fault_seed = n,
                Err(_) => {
                    eprintln!("--fault-seed needs an unsigned integer");
                    usage()
                }
            },
            "--campaign-out" => options.campaign_out = Some(value("--campaign-out")),
            "--host-profile-out" => options.host_profile_out = Some(value("--host-profile-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    if options.churn_ops.is_some() && options.scenario.is_none() {
        eprintln!("--churn-ops needs --scenario aging");
        usage()
    }
    options
}

fn machine_config(options: &Options) -> MachineConfig {
    let mut config = match options.core {
        CoreKind::Rocket => MachineConfig::rocket(),
        CoreKind::Boom => MachineConfig::boom(),
    };
    if let Some(entries) = options.pwc {
        config.pwc.entries = entries;
    }
    if let Some(entries) = options.pmptw_cache {
        config.pmptw_cache = PmptwCacheConfig { entries };
    }
    config.tlb_inlining = options.tlb_inlining;
    config.mem = config.mem.with_encryption(options.encryption);
    if options.epmp {
        config.hpmp_entries = hpmp_core::EPMP_ENTRIES;
    }
    config
}

/// Workloads `--workload` understands, validated before the pool starts.
const WORKLOADS: [&str; 7] = [
    "serverless",
    "redis",
    "gap",
    "rv8",
    "lmbench",
    "virtapp",
    "tenancy",
];

fn main() {
    let options = parse_args();
    if options.fault_campaign.is_some() {
        run_fault_campaign(&options);
    }
    if options.scenario.is_some() {
        run_aging_scenario(&options);
    }
    println!(
        "hpmpsim: {} on {} running '{}' (pwc={:?}, pmptw-cache={:?}, inlining={}, \
         encryption={}c, entries={})",
        options.flavor,
        options.core,
        options.workload,
        options.pwc,
        options.pmptw_cache,
        options.tlb_inlining,
        options.encryption,
        if options.epmp { 64 } else { 16 },
    );
    // Only printed for SMP runs so single-hart output stays byte-identical
    // with pre-SMP builds.
    if options.harts > 1 {
        println!(
            "  harts        : {} (seed {SMP_SEED}, cross-hart shootdowns on)",
            options.harts
        );
        if options.backend == ExecBackend::Threaded {
            println!("  backend      : threaded (per-hart OS threads between monitor ops)");
        }
    }

    let workloads: Vec<&str> = options
        .workload
        .split(',')
        .filter(|w| !w.is_empty())
        .collect();
    for workload in &workloads {
        if !WORKLOADS.contains(workload) {
            eprintln!("unknown workload {workload}");
            usage()
        }
    }
    if workloads.is_empty() {
        eprintln!("no workload given");
        usage()
    }
    if options.backend == ExecBackend::Threaded && options.harts < 2 {
        eprintln!("--backend threaded needs --harts >= 2");
        usage()
    }
    let telemetry_requested = options.snapshot_interval.is_some()
        || options.timeline_out.is_some()
        || options.spans_out.is_some();
    if telemetry_requested {
        if options.backend == ExecBackend::Threaded {
            // Timeline slices and spans live on the global simulated
            // clock, which only advances serially.
            eprintln!("time-resolved telemetry requires --backend deterministic");
            usage()
        }
        // The timeline/span clock is the SMP global simulated clock, so
        // time-resolved telemetry only exists for multi-hart runs; one
        // artifact file covers one run, so one workload.
        if options.harts < 2 {
            eprintln!("--snapshot-interval/--timeline-out/--spans-out need --harts >= 2");
            usage()
        }
        if workloads.len() != 1 {
            eprintln!("telemetry outputs cover one run; pass a single --workload");
            usage()
        }
        if options.timeline_out.is_some() && options.snapshot_interval.is_none() {
            eprintln!("--timeline-out needs --snapshot-interval");
            usage()
        }
    }
    let jobs = options
        .jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1);

    // Run the workloads on the worker pool, each with its own sink and
    // registry; buffered outputs stream in the listed order. The profiler
    // is host-clock only: its measurements go to `--host-profile-out` and
    // stderr, never into stdout or the simulated artifacts.
    let mut profiler = HostProfiler::new("hpmpsim");
    let tracing = options.trace_out.is_some();
    profiler.begin_phase("run");
    let outputs = run_ordered(
        workloads.len(),
        jobs,
        |i| {
            let started = std::time::Instant::now();
            let mut out = run_one(&options, workloads[i], tracing);
            out.wall = started.elapsed();
            out
        },
        |out| print!("{}", out.stdout),
    );
    profiler.begin_phase("write");

    let mut cycles = 0;
    let mut snapshot = Snapshot::new();
    for out in &outputs {
        cycles += out.cycles;
        snapshot = snapshot.merge(&out.snap);
    }

    if let Some(path) = &options.trace_out {
        // One schema header, then each workload's trace bytes in listed
        // order — identical to a serial shared-sink stream.
        let sink = JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        let mut file = sink.into_inner();
        let write_err = outputs
            .iter()
            .try_for_each(|out| file.write_all(&out.trace))
            .and_then(|()| file.flush());
        if let Err(e) = write_err {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        let events: u64 = outputs.iter().map(|o| o.trace_events).sum();
        println!("  trace        : {events} events -> {path}");
        let io_errors: u64 = outputs.iter().map(|o| o.trace_io_errors).sum();
        if io_errors > 0 {
            eprintln!("  warning: {io_errors} events lost to I/O errors");
        }
    }
    if let Some(path) = &options.metrics_out {
        if let Err(e) = std::fs::write(path, snapshot.to_json_versioned()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("  metrics      : {} counters -> {}", snapshot.len(), path);
    }
    if let Some(interval) = options.snapshot_interval {
        let path = options.timeline_out.as_deref().unwrap_or("timeline.jsonl");
        let telemetry = &outputs[0].telemetry;
        if let Err(e) = std::fs::write(path, &telemetry.timeline) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "  timeline     : {} slice(s) every {interval} cycles -> {path}",
            telemetry.slices
        );
        if telemetry.dropped_boundaries > 0 {
            eprintln!(
                "  warning: {} slice boundaries folded into the tail (max slices reached)",
                telemetry.dropped_boundaries
            );
        }
    }
    if let Some(path) = &options.spans_out {
        let telemetry = &outputs[0].telemetry;
        if let Err(e) = std::fs::write(path, &telemetry.spans) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "  spans        : {} span(s) ({} dropped) -> {path}",
            telemetry.spans_emitted, telemetry.spans_dropped
        );
    }
    if let Some(path) = &options.bench_out {
        let mut report = BenchReport::new("hpmpsim");
        report.set_config("flavor", options.flavor.to_string());
        report.set_config("core", options.core.to_string());
        report.set_config("workload", options.workload.clone());
        if options.harts > 1 {
            report.set_config("harts", options.harts.to_string());
        }
        for (workload, out) in workloads.iter().zip(&outputs) {
            report.push(ExperimentRecord::from_snapshot(
                workload.to_string(),
                out.cycles,
                out.snap.clone(),
            ));
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "  bench report : {} experiment(s) -> {path}",
            report.experiments.len()
        );
    }

    let core = hpmp_memsim::CoreModel::for_kind(options.core);
    println!("  total cycles : {cycles}");
    println!(
        "  wall time    : {:.3} ms (at {} MHz)",
        core.cycles_to_ns(cycles) / 1e6,
        core.clock_mhz
    );

    // Host-clock epilogue: everything below writes to stderr or the
    // dedicated profile artifact, so the simulated outputs above are
    // byte-identical whether or not profiling is on.
    for (workload, out) in workloads.iter().zip(&outputs) {
        profiler.record_experiment(*workload, out.wall, walks_in_snapshot(&out.snap));
    }
    let profile = profiler.finish();
    if let Some(path) = &options.host_profile_out {
        if let Err(e) = std::fs::write(path, profile.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("  host profile : -> {path}");
    }
    eprintln!("{}", profile.headline());
}

/// Drives a fault-injection campaign over the worker pool and exits.
///
/// The shard count comes from the spec, not `--jobs`, and every shard is
/// an independent seeded world, so the merged report (stdout and
/// `--campaign-out` bytes) is identical at any parallelism.
fn run_fault_campaign(options: &Options) -> ! {
    let spec_text = options.fault_campaign.as_deref().unwrap_or_default();
    let mut spec = CampaignSpec::parse(spec_text).unwrap_or_else(|e| {
        eprintln!("bad --fault-campaign: {e}");
        usage()
    });
    // `--flavor` applies unless the spec itself picked one.
    if !spec_text.contains("flavor=") {
        spec.flavor = options.flavor;
    }
    let jobs = options
        .jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1);
    println!(
        "hpmpsim: fault campaign {} seed {} ({} shards over {} jobs)",
        spec.canonical(),
        options.fault_seed,
        spec.shards,
        jobs
    );

    let seed = options.fault_seed;
    let shard_results = run_ordered(
        spec.shards as usize,
        jobs,
        |i| run_shard(&spec, seed, i as u64),
        |_| {},
    );
    let mut shards = Vec::new();
    for result in shard_results {
        match result {
            Ok(report) => shards.push(report),
            Err(e) => {
                eprintln!("shard setup failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let report = CampaignReport::merge(&spec, seed, &shards);

    if let Some(path) = &options.campaign_out {
        let mut bytes = report.records.clone().into_bytes();
        bytes.extend_from_slice(report.summary_json().as_bytes());
        bytes.push(b'\n');
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("  records      : {} trials -> {path}", report.trials);
    }
    if let Some(path) = &options.metrics_out {
        let mut registry = hpmp_trace::MetricsRegistry::new();
        report.export(&mut registry);
        if let Err(e) = std::fs::write(path, registry.snapshot().to_json_versioned()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("  metrics      : -> {path}");
    }
    println!(
        "  injected     : {} faults over {} trials",
        report.total_injected(),
        report.trials
    );
    println!(
        "  detected     : {} (degraded accesses: {}, stale TLB rejects: {})",
        report.detected.iter().sum::<u64>(),
        report.degraded,
        report.stale_rejects
    );
    println!(
        "  silent       : {} (recovery failures: {})",
        report.silent, report.recovery_failures
    );
    println!("  summary      : {}", report.summary_json());
    println!(
        "  verdict      : {}",
        if report.passed() { "PASS" } else { "FAIL" }
    );
    std::process::exit(if report.passed() { 0 } else { 1 });
}

/// Drives the fleet-churn aging scenario and exits.
///
/// The run is single-threaded internally (`--jobs` only sizes the unused
/// worker pool), so stdout and every artifact are byte-identical at any
/// parallelism and on either backend. Exit codes: 0 for a clean run, 1 if
/// a canary or the permission oracle was violated, 3 if the run *ended*
/// inside stage-3 admission control.
fn run_aging_scenario(options: &Options) -> ! {
    if options.backend == ExecBackend::Threaded && options.harts < 2 {
        eprintln!("--backend threaded needs --harts >= 2");
        usage()
    }
    if options.trace_out.is_some()
        || options.snapshot_interval.is_some()
        || options.timeline_out.is_some()
    {
        eprintln!("--scenario aging supports --metrics-out/--bench-out/--spans-out, not trace/timeline flags");
        usage()
    }
    if options.spans_out.is_some() && options.backend == ExecBackend::Threaded {
        // Spans live on the serial simulated clock.
        eprintln!("--spans-out with --scenario aging requires --backend deterministic");
        usage()
    }
    let churn_ops = options
        .churn_ops
        .unwrap_or(hpmp_workloads::aging::DEFAULT_CHURN_OPS);
    let spec = hpmp_workloads::aging::AgingSpec::with_ops(churn_ops);
    println!(
        "hpmpsim: aging scenario on {} / {} ({} hart(s), {} churn ops, seed {SMP_SEED}, \
         backend {})",
        options.flavor,
        options.core,
        options.harts,
        churn_ops,
        options.backend.name(),
    );
    let boot_failed = |e: hpmp_penglai::MonitorError| -> ! {
        eprintln!("aging scenario failed to boot: {e}");
        std::process::exit(1);
    };
    let mut span_artifact: Option<(Vec<u8>, u64, u64)> = None;
    let (outcome, snap) = if options.spans_out.is_some() {
        let machines = (0..options.harts)
            .map(|_| hpmp_machine::Machine::new(machine_config(options)))
            .collect();
        let (outcome, snap, spans, _) = hpmp_workloads::aging::run_aging_spans(
            machines,
            options.flavor,
            SMP_SEED,
            spec,
            hpmp_workloads::smp::SmpTelemetrySpec::DEFAULT_SPAN_CAPACITY,
        )
        .unwrap_or_else(|e| boot_failed(e));
        let mut bytes = Vec::new();
        spans
            .write_jsonl(&mut bytes)
            .expect("Vec writes cannot fail");
        span_artifact = Some((bytes, spans.len() as u64, spans.dropped()));
        (outcome, snap)
    } else {
        hpmp_workloads::aging::run_aging(
            options.flavor,
            options.core,
            options.harts,
            SMP_SEED,
            spec,
            options.backend,
        )
        .unwrap_or_else(|e| boot_failed(e))
    };

    // The path starts with the boot-time (op 0, stage 0) entry.
    let stages = outcome
        .stage_path
        .iter()
        .map(|(op, stage)| format!("{stage}@op{op}"))
        .collect::<Vec<_>>()
        .join(" -> ");
    println!(
        "  stages       : {stages} (max {}, final {})",
        outcome.max_stage, outcome.final_stage
    );
    println!(
        "  churn        : {} creates, {} destroys, {} reliefs, {} live at end",
        outcome.creates, outcome.destroys, outcome.reliefs, outcome.live_at_end
    );
    println!(
        "  backpressure : {} rejected (stage 3), {} entry-wall hits",
        outcome.rejected, outcome.entry_wall_hits
    );
    println!(
        "  compaction   : {} passes, {} regions / {} pages moved, {} slow allocs, \
         {} repromotions",
        snap.value("monitor.compact.passes"),
        snap.value("monitor.compact.moved_regions"),
        snap.value("monitor.compact.moved_pages"),
        snap.value("monitor.degrade.slow_allocs"),
        snap.value("monitor.degrade.repromotions"),
    );
    println!(
        "  integrity    : {} canary failures, {} oracle violations",
        outcome.canary_failures, outcome.oracle_violations
    );
    println!(
        "  smp          : {} accesses on {} harts, {} IPIs delivered",
        outcome.accesses, outcome.harts, outcome.ipis_delivered
    );
    if let Some(path) = &options.metrics_out {
        if let Err(e) = std::fs::write(path, snap.to_json_versioned()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("  metrics      : {} counters -> {}", snap.len(), path);
    }
    if let Some(path) = &options.spans_out {
        let (bytes, retained, dropped) = span_artifact.expect("spans collected when requested");
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("  spans        : {retained} span(s) ({dropped} dropped) -> {path}");
    }
    if let Some(path) = &options.bench_out {
        let mut report = BenchReport::new("hpmpsim-aging");
        report.set_config("flavor", options.flavor.to_string());
        report.set_config("core", options.core.to_string());
        report.set_config("scenario", "aging".to_string());
        report.set_config("harts", options.harts.to_string());
        report.set_config("churn_ops", churn_ops.to_string());
        report.push(ExperimentRecord::from_snapshot(
            "aging".to_string(),
            outcome.total_cycles,
            snap.clone(),
        ));
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "  bench report : {} experiment(s) -> {path}",
            report.experiments.len()
        );
    }
    println!("  total cycles : {}", outcome.total_cycles);
    if outcome.canary_failures > 0 || outcome.oracle_violations > 0 {
        println!("  verdict      : FAIL (enclave bytes or oracle integrity lost)");
        std::process::exit(1);
    }
    if outcome.final_stage == 3 {
        println!("  verdict      : SATURATED (run ended in stage-3 admission control)");
        std::process::exit(3);
    }
    println!("  verdict      : PASS");
    std::process::exit(0);
}

/// Everything one workload produced, buffered for in-order merging.
struct WorkloadOutput {
    /// Per-workload console lines (counters, rates).
    stdout: String,
    /// Total simulated cycles.
    cycles: u64,
    /// The workload machine's metrics snapshot.
    snap: Snapshot,
    /// Headerless JSONL walk-event bytes (empty unless tracing).
    trace: Vec<u8>,
    /// Number of trace events in `trace`.
    trace_events: u64,
    /// Events lost to I/O errors while tracing.
    trace_io_errors: u64,
    /// Buffered time-resolved artifacts (empty unless requested).
    telemetry: TelemetryOutput,
    /// Host wall-clock time the workload took; feeds only the host
    /// profile, never a simulated artifact.
    wall: std::time::Duration,
}

/// Serialized timeline/span artifacts of one SMP run, buffered so the
/// `--jobs` pool stays byte-deterministic.
#[derive(Default)]
struct TelemetryOutput {
    /// `hpmp-timeline` JSONL bytes (header, slices, footer).
    timeline: Vec<u8>,
    /// Slices cut.
    slices: u64,
    /// Boundaries folded into the tail slice by the retention bound.
    dropped_boundaries: u64,
    /// `hpmp-span-events` JSONL bytes.
    spans: Vec<u8>,
    /// Spans retained.
    spans_emitted: u64,
    /// Spans dropped by the collector's capacity bound.
    spans_dropped: u64,
}

impl TelemetryOutput {
    /// Buffers the artifacts `run_smp_telemetry` produced.
    fn from_run(telemetry: &hpmp_workloads::smp::SmpTelemetry) -> TelemetryOutput {
        let mut out = TelemetryOutput::default();
        if let Some(timeline) = &telemetry.timeline {
            timeline
                .write_jsonl(&mut out.timeline)
                .expect("Vec writes cannot fail");
            out.slices = timeline.slices().len() as u64;
            out.dropped_boundaries = timeline.dropped_boundaries();
        }
        if let Some(spans) = &telemetry.spans {
            spans
                .write_jsonl(&mut out.spans)
                .expect("Vec writes cannot fail");
            out.spans_emitted = spans.len() as u64;
            out.spans_dropped = spans.dropped();
        }
        out
    }
}

/// Seed for the SMP interleaver and per-hart access streams. Fixed so
/// `--harts N` runs are reproducible without another knob; the streams are
/// already decorrelated per hart.
const SMP_SEED: u64 = 0x4850_4d50;

/// Runs one workload with a private sink and registry, buffering its output.
fn run_one(options: &Options, workload: &str, tracing: bool) -> WorkloadOutput {
    if options.harts > 1 {
        return run_one_smp(options, workload, tracing);
    }
    let config = machine_config(options);
    let mut stdout = String::new();
    if tracing {
        let mut sink = JsonlSink::new_headerless(Vec::new());
        let (cycles, snap) = run_workload(options, workload, config, &mut sink, &mut stdout);
        sink.flush();
        WorkloadOutput {
            stdout,
            cycles,
            snap,
            trace_events: sink.written(),
            trace_io_errors: sink.io_errors(),
            trace: sink.into_inner(),
            telemetry: TelemetryOutput::default(),
            wall: std::time::Duration::ZERO,
        }
    } else {
        let (cycles, snap) = run_workload(options, workload, config, NullSink, &mut stdout);
        WorkloadOutput {
            stdout,
            cycles,
            snap,
            trace: Vec::new(),
            trace_events: 0,
            trace_io_errors: 0,
            telemetry: TelemetryOutput::default(),
            wall: std::time::Duration::ZERO,
        }
    }
}

/// Runs one workload's SMP shape on `--harts` harts: per-hart machines
/// (each with its own headerless sink when tracing) over one shared
/// monitor and physical memory. Per-hart trace bytes are spliced in hart
/// order — events carry their hart id, so analysis does not depend on the
/// global interleaving order.
/// Runs one SMP workload on the selected backend. The threaded backend
/// takes no telemetry spec — telemetry flags were rejected at parse time.
fn run_smp_dispatch<S: TraceSink + Send>(
    options: &Options,
    machines: Vec<hpmp_machine::Machine<S>>,
    spec: hpmp_workloads::smp::SmpWorkloadSpec,
    telemetry_spec: hpmp_workloads::smp::SmpTelemetrySpec,
) -> (
    hpmp_workloads::smp::SmpOutcome,
    Snapshot,
    Vec<S>,
    hpmp_workloads::smp::SmpTelemetry,
) {
    match options.backend {
        ExecBackend::Deterministic => hpmp_workloads::smp::run_smp_telemetry(
            machines,
            options.flavor,
            SMP_SEED,
            spec,
            telemetry_spec,
        )
        .expect("SMP workload"),
        ExecBackend::Threaded => {
            let (outcome, snap, sinks) =
                hpmp_workloads::smp::run_smp_threaded(machines, options.flavor, SMP_SEED, spec)
                    .expect("SMP workload");
            (
                outcome,
                snap,
                sinks,
                hpmp_workloads::smp::SmpTelemetry::default(),
            )
        }
    }
}

fn run_one_smp(options: &Options, workload: &str, tracing: bool) -> WorkloadOutput {
    let config = machine_config(options);
    let spec =
        hpmp_workloads::smp::spec_for(workload).expect("every hpmpsim workload has an SMP shape");
    let telemetry_spec = hpmp_workloads::smp::SmpTelemetrySpec {
        snapshot_interval: options.snapshot_interval,
        span_capacity: options
            .spans_out
            .as_ref()
            .map(|_| hpmp_workloads::smp::SmpTelemetrySpec::DEFAULT_SPAN_CAPACITY),
    };
    let mut stdout = String::new();
    if tracing {
        let machines = (0..options.harts)
            .map(|_| {
                hpmp_machine::Machine::with_sink(config, JsonlSink::new_headerless(Vec::new()))
            })
            .collect();
        let (outcome, snap, sinks, telemetry) =
            run_smp_dispatch(options, machines, spec, telemetry_spec);
        report_smp(&outcome, &snap, &mut stdout);
        let mut trace = Vec::new();
        let mut trace_events = 0;
        let mut trace_io_errors = 0;
        for sink in sinks {
            trace_events += sink.written();
            trace_io_errors += sink.io_errors();
            trace.extend_from_slice(&sink.into_inner());
        }
        WorkloadOutput {
            stdout,
            cycles: outcome.total_cycles,
            snap,
            trace,
            trace_events,
            trace_io_errors,
            telemetry: TelemetryOutput::from_run(&telemetry),
            wall: std::time::Duration::ZERO,
        }
    } else {
        let machines = (0..options.harts)
            .map(|_| hpmp_machine::Machine::new(config))
            .collect();
        let (outcome, snap, _, telemetry) =
            run_smp_dispatch(options, machines, spec, telemetry_spec);
        report_smp(&outcome, &snap, &mut stdout);
        WorkloadOutput {
            stdout,
            cycles: outcome.total_cycles,
            snap,
            trace: Vec::new(),
            trace_events: 0,
            trace_io_errors: 0,
            telemetry: TelemetryOutput::from_run(&telemetry),
            wall: std::time::Duration::ZERO,
        }
    }
}

/// Per-hart console lines for an SMP run: who got shot down, who stalled.
fn report_smp(outcome: &hpmp_workloads::smp::SmpOutcome, snap: &Snapshot, out: &mut String) {
    let _ = writeln!(
        out,
        "  smp          : {} accesses on {} harts; {} IPIs sent, {} delivered, {} merged",
        outcome.accesses,
        outcome.harts,
        snap.value("smp.ipis_sent"),
        snap.value("smp.ipis_delivered"),
        snap.value("smp.ipis_merged"),
    );
    for hart in 0..outcome.harts {
        let _ = writeln!(
            out,
            "  hart {hart}       : {} cycles, {} shootdowns ({} cyc), {} fence-stall cyc",
            snap.value(&format!("hart.{hart}.machine.cycles")),
            snap.value(&format!("hart.{hart}.shootdowns")),
            snap.value(&format!("hart.{hart}.shootdown_cycles")),
            snap.value(&format!("hart.{hart}.fence_stall_cycles")),
        );
    }
}

/// Runs the selected workload with `sink` attached, returning total cycles
/// and the unified metrics snapshot of the machine that ran it (merged
/// across machines for workloads that boot one per kernel). Console output
/// goes to `out` so the pool can order it deterministically.
fn run_workload<S: TraceSink>(
    options: &Options,
    workload: &str,
    config: MachineConfig,
    mut sink: S,
    out: &mut String,
) -> (u64, Snapshot) {
    match workload {
        "serverless" => {
            let mut tee = TeeBench::boot_with_sink(options.flavor, config, sink);
            let mut total = 0;
            for (i, function) in hpmp_workloads::serverless::FUNCTIONS.iter().enumerate() {
                total += hpmp_workloads::serverless::invoke(&mut tee, *function, i as u64)
                    .expect("invocation");
            }
            report_machine(&tee, out);
            tee.machine.flush_sink();
            (total, tee.machine.metrics_snapshot())
        }
        "redis" => {
            let mut server = hpmp_workloads::redis::RedisServer::start_with_sink(
                options.flavor,
                options.core,
                hpmp_workloads::redis::DEFAULT_DATASET_PAGES,
                sink,
            )
            .expect("server");
            let mut total = 0;
            for cmd in hpmp_workloads::redis::REDIS_COMMANDS {
                for _ in 0..50 {
                    total += server.serve(cmd).expect("request");
                }
            }
            server.tee_mut().machine.flush_sink();
            (total, server.tee_mut().machine.metrics_snapshot())
        }
        "gap" => {
            let graph = hpmp_workloads::gap::default_graph();
            let mut total = 0;
            let mut merged = Snapshot::new();
            for kernel in hpmp_workloads::gap::GAP_KERNELS {
                let (cycles, snap) = hpmp_workloads::gap::run_gap_with_sink(
                    options.flavor,
                    options.core,
                    kernel,
                    &graph,
                    5_000,
                    &mut sink,
                )
                .expect("kernel");
                total += cycles;
                merged = merged.merge(&snap);
            }
            (total, merged)
        }
        "rv8" => {
            let mut total = 0;
            let mut merged = Snapshot::new();
            for kernel in hpmp_workloads::rv8::RV8_KERNELS {
                let (cycles, snap) = hpmp_workloads::rv8::run_rv8_with_sink(
                    options.flavor,
                    options.core,
                    kernel,
                    &mut sink,
                )
                .expect("kernel");
                total += cycles;
                merged = merged.merge(&snap);
            }
            (total, merged)
        }
        "lmbench" => {
            let mut ctx = hpmp_workloads::lmbench::LmbenchContext::new_with_sink(
                options.flavor,
                options.core,
                sink,
            )
            .expect("boot");
            let mut total = 0;
            for syscall in hpmp_workloads::lmbench::SYSCALLS {
                for _ in 0..10 {
                    total += ctx.run(syscall).expect("syscall");
                }
            }
            ctx.tee_mut().machine.flush_sink();
            (total, ctx.tee_mut().machine.metrics_snapshot())
        }
        "virtapp" => {
            let scheme = match options.flavor {
                TeeFlavor::PenglaiPmp => hpmp_machine::VirtScheme::Pmp,
                TeeFlavor::PenglaiPmpt => hpmp_machine::VirtScheme::PmpTable,
                TeeFlavor::PenglaiHpmp => hpmp_machine::VirtScheme::Hpmp,
            };
            let (result, snap) = hpmp_workloads::virt_app::run_guest_kv_with_config(
                config,
                scheme,
                hpmp_workloads::virt_app::GUEST_DATASET_PAGES,
                500,
                sink,
            );
            let _ = writeln!(out, "  cycles/request: {:.0}", result.cycles_per_request());
            (result.cycles, snap)
        }
        "tenancy" => {
            let (result, snap) = hpmp_workloads::multi_tenant::run_tenancy_with_sink(
                options.flavor,
                options.core,
                100,
                2,
                sink,
            )
            .expect("tenancy");
            let _ = writeln!(
                out,
                "  tenants: {} (entry wall: {})",
                result.tenants, result.hit_entry_wall
            );
            (result.total_cycles, snap)
        }
        _ => unreachable!("workloads are validated against WORKLOADS"),
    }
}

fn report_machine<S: TraceSink>(tee: &TeeBench<S>, out: &mut String) {
    let stats = tee.machine.stats();
    let tlb = tee.machine.tlb_stats();
    let mem = tee.machine.mem_stats();
    let _ = writeln!(
        out,
        "  accesses     : {} ({} walks, {:.1}% TLB hit)",
        stats.accesses,
        stats.walks,
        tlb.hit_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "  references   : {} PT, {} data, {} pmpte(PT), {} pmpte(data)",
        stats.refs.pt_reads,
        stats.refs.data_reads,
        stats.refs.pmpte_for_pt,
        stats.refs.pmpte_for_data,
    );
    let _ = writeln!(
        out,
        "  hierarchy    : L1 {:.1}% | L2 {:.1}% | LLC {:.1}% hit; {} DRAM row hits / {} misses",
        mem.l1.hit_rate() * 100.0,
        mem.l2.hit_rate() * 100.0,
        mem.llc.hit_rate() * 100.0,
        mem.dram.row_hits,
        mem.dram.row_misses,
    );
}
