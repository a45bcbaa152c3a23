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
//! The nine artifact flags (`--jobs`, `--backend`, `--trace-out`,
//! `--metrics-out`, `--bench-out`, `--snapshot-interval`, `--timeline-out`,
//! `--spans-out`, `--host-profile-out`) are parsed, checked and written by
//! [`hpmp_bench::artifacts`], shared with `repro`. A missing or malformed
//! flag value exits 2 naming the flag.
//!
//! `--workload` accepts a comma-separated list; the workloads run on an
//! in-process pool of `--jobs N` worker threads (default: available
//! parallelism), each with its own trace sink and metrics registry.
//! Outputs are merged in the listed workload order, so they are
//! byte-identical whatever the thread count.
//!
//! `--harts N` (N > 1) runs each workload's SMP shape instead: one tenant
//! enclave per hart over a shared [`hpmp_penglai::SmpSystem`], with
//! cross-hart TLB/PMP shootdowns on every GMS change and domain switch,
//! through [`hpmp_workloads::smp::run_smp_with`]. The hart interleaving is
//! seeded, so artifacts stay byte-identical at any `--jobs`; trace events
//! carry a `hart` field and the metrics snapshot gains per-hart
//! `hart.<i>.*` shootdown/fence counters plus `smp.*` totals. A monitor
//! error (e.g. the PMP flavour's entry wall) exits 1 with its message.
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
//! `--jobs` and on either backend. `--metrics-out`/`--bench-out`/
//! `--spans-out` work as usual. Exit status: 0 normally, 1 if a robustness
//! invariant broke (canary loss or a fast-path/oracle disagreement), and
//! **3** if the run *ended* inside stage-3 admission control — a distinct,
//! non-panicking signal that the modelled fleet saturated its arena.
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
//! cycles, walks, counters, latency percentiles) readable by
//! `hpmp-analyze diff`.
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
use std::num::{NonZeroU32, NonZeroUsize};

use hpmp_bench::artifacts::{flag_value, write_or_exit, ArtifactFlags, TraceBytes};
use hpmp_bench::run_ordered;
use hpmp_core::PmptwCacheConfig;
use hpmp_faults::{run_shard, CampaignReport, CampaignSpec};
use hpmp_machine::{ExecBackend, Machine, MachineConfig};
use hpmp_memsim::{CoreKind, LRU_MAX_ENTRIES};
use hpmp_penglai::TeeFlavor;
use hpmp_trace::{
    walks_in_snapshot, BenchReport, ExperimentRecord, HostProfiler, JsonlSink, NullSink, Snapshot,
    TraceSink,
};
use hpmp_workloads::smp::{run_smp_with, spec_for, RunOptions, SmpTelemetry, SMP_WORKLOADS};
use hpmp_workloads::TeeBench;

#[derive(Debug)]
struct Options {
    flavor: TeeFlavor,
    core: CoreKind,
    workload: String,
    aging: bool,
    churn_ops: Option<u32>,
    harts: usize,
    pwc: Option<usize>,
    pmptw_cache: Option<usize>,
    tlb_inlining: bool,
    encryption: u16,
    epmp: bool,
    fault_campaign: Option<String>,
    fault_seed: u64,
    campaign_out: Option<String>,
    artifacts: ArtifactFlags,
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
         CYCLES for --encryption: added to every DRAM access, at most {MAX_ENCRYPTION_CYCLES}\n\
         SPEC: comma-separated key=value pairs, e.g.\n\
         \x20    faults=1000,classes=pmpte+regs+stale+interpose,flavor=hpmp,domains=2,shards=8\n\
         exit codes: 0 ok, 1 failed invariant, 2 usage,\n\
         \x20           3 aging scenario ended in stage-3 admission control"
    );
    std::process::exit(2);
}

/// Prints `message` and the usage text, exiting 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    usage()
}

fn parse_args() -> Options {
    let mut options = Options {
        flavor: TeeFlavor::PenglaiHpmp,
        core: CoreKind::Rocket,
        workload: "serverless".to_string(),
        aging: false,
        churn_ops: None,
        harts: 1,
        pwc: None,
        pmptw_cache: None,
        tlb_inlining: true,
        encryption: 0,
        epmp: false,
        fault_campaign: None,
        fault_seed: 0,
        campaign_out: None,
        artifacts: ArtifactFlags::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Err(e) = parse_flag(&mut options, &arg, &mut args) {
            usage_error(e)
        }
    }
    if options.churn_ops.is_some() && !options.aging {
        usage_error("--churn-ops needs --scenario aging")
    }
    options
}

/// Applies one command-line flag to `options`, taking its value from `rest`.
fn parse_flag(
    options: &mut Options,
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Result<(), String> {
    if options.artifacts.accept(arg, rest)? {
        return Ok(());
    }
    match arg {
        "--flavor" => {
            options.flavor = match flag_value::<String>(arg, rest)?.as_str() {
                "pmp" => TeeFlavor::PenglaiPmp,
                "pmpt" => TeeFlavor::PenglaiPmpt,
                "hpmp" => TeeFlavor::PenglaiHpmp,
                other => return Err(format!("unknown flavor {other}")),
            }
        }
        "--core" => {
            options.core = match flag_value::<String>(arg, rest)?.as_str() {
                "rocket" => CoreKind::Rocket,
                "boom" => CoreKind::Boom,
                other => return Err(format!("unknown core {other}")),
            }
        }
        "--workload" => options.workload = flag_value(arg, rest)?,
        "--scenario" => match flag_value::<String>(arg, rest)?.as_str() {
            "aging" => options.aging = true,
            other => return Err(format!("unknown scenario {other}")),
        },
        "--churn-ops" => options.churn_ops = Some(flag_value::<NonZeroU32>(arg, rest)?.get()),
        "--harts" => options.harts = flag_value::<NonZeroUsize>(arg, rest)?.get(),
        "--pwc" => options.pwc = Some(at_most(arg, rest, LRU_MAX_ENTRIES, "entries")?),
        "--pmptw-cache" => {
            options.pmptw_cache = Some(at_most(arg, rest, LRU_MAX_ENTRIES, "entries")?)
        }
        "--no-tlb-inlining" => options.tlb_inlining = false,
        "--encryption" => options.encryption = at_most(arg, rest, MAX_ENCRYPTION_CYCLES, "cycles")?,
        "--epmp" => options.epmp = true,
        "--fault-campaign" => options.fault_campaign = Some(flag_value(arg, rest)?),
        "--fault-seed" => options.fault_seed = flag_value(arg, rest)?,
        "--campaign-out" => options.campaign_out = Some(flag_value(arg, rest)?),
        "--help" | "-h" => usage(),
        other => return Err(format!("unknown argument {other}")),
    }
    Ok(())
}

/// The largest `--encryption` latency accepted, well inside the `u16`
/// [`hpmp_memsim::MemSystemConfig::with_encryption`] takes.
const MAX_ENCRYPTION_CYCLES: u16 = 10_000;

/// Reads the value of `flag`, refusing one above `max` (counted in `unit`).
/// Bounds the cache sizes by what their LRU store can hold and the
/// encryption latency by [`MAX_ENCRYPTION_CYCLES`].
fn at_most<T>(
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
    max: T,
    unit: &str,
) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    let value = flag_value(flag, rest)?;
    if value > max {
        return Err(format!(
            "bad value for {flag} '{value}': at most {max} {unit}"
        ));
    }
    Ok(value)
}

fn machine_config(options: &Options) -> MachineConfig {
    let mut config = MachineConfig::from(options.core);
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

fn main() {
    let options = parse_args();
    if options.fault_campaign.is_some() {
        run_fault_campaign(&options);
    }
    if options.aging {
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
    let artifacts = &options.artifacts;
    // Only printed for SMP runs so single-hart output stays byte-identical
    // with pre-SMP builds.
    if options.harts > 1 {
        println!(
            "  harts        : {} (seed {SMP_SEED}, cross-hart shootdowns on)",
            options.harts
        );
        if artifacts.backend == ExecBackend::Threaded {
            println!("  backend      : threaded (per-hart OS threads between monitor ops)");
        }
    }

    let workloads: Vec<&str> = options
        .workload
        .split(',')
        .filter(|w| !w.is_empty())
        .collect();
    for workload in &workloads {
        if !SMP_WORKLOADS.contains(workload) {
            usage_error(format!("unknown workload {workload}"))
        }
    }
    if workloads.is_empty() {
        usage_error("no workload given")
    }
    if artifacts.backend == ExecBackend::Threaded && options.harts < 2 {
        usage_error("--backend threaded needs --harts >= 2")
    }
    let run_options = artifacts.run_options().unwrap_or_else(|e| usage_error(e));
    if artifacts.telemetry_requested() {
        // The timeline/span clock is the SMP global simulated clock, so
        // time-resolved telemetry only exists for multi-hart runs; one
        // artifact file covers one run, so one workload.
        if options.harts < 2 {
            usage_error("--snapshot-interval/--timeline-out/--spans-out need --harts >= 2")
        }
        if workloads.len() != 1 {
            usage_error("telemetry outputs cover one run; pass a single --workload")
        }
    }

    // Run the workloads on the worker pool, each with its own sink and
    // registry; buffered outputs stream in the listed order. The profiler
    // is host-clock only: its measurements go to `--host-profile-out` and
    // stderr, never into stdout or the simulated artifacts.
    let mut profiler = HostProfiler::new("hpmpsim");
    profiler.begin_phase("run");
    let outputs = run_ordered(
        workloads.len(),
        artifacts.jobs(),
        |i| {
            let started = std::time::Instant::now();
            let mut out = run_one(&options, run_options, workloads[i]);
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
    if let Some(line) = artifacts.write_trace(outputs.iter().map(|out| &out.trace)) {
        println!("  trace        : {line}");
    }
    if let Some(line) = artifacts.write_metrics(&snapshot) {
        println!("  metrics      : {line}");
    }
    for out in &outputs {
        for (label, line) in artifacts.write_telemetry(&out.telemetry) {
            println!("  {label:<13}: {line}");
        }
    }
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
    if let Some(line) = artifacts.write_bench(&report) {
        println!("  bench report : {line}");
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
    artifacts.write_host_profile(&profiler.finish());
}

/// Drives a fault-injection campaign over the worker pool and exits.
///
/// The shard count comes from the spec, not `--jobs`, and every shard is
/// an independent seeded world, so the merged report (stdout and
/// `--campaign-out` bytes) is identical at any parallelism.
fn run_fault_campaign(options: &Options) -> ! {
    let spec_text = options.fault_campaign.as_deref().unwrap_or_default();
    let mut spec = CampaignSpec::parse(spec_text)
        .unwrap_or_else(|e| usage_error(format!("bad --fault-campaign: {e}")));
    // `--flavor` applies unless the spec itself picked one.
    if !spec_text.contains("flavor=") {
        spec.flavor = options.flavor;
    }
    let jobs = options.artifacts.jobs();
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
        write_or_exit(path, bytes);
        println!("  records      : {} trials -> {path}", report.trials);
    }
    if let Some(path) = &options.artifacts.metrics_out {
        let mut registry = hpmp_trace::MetricsRegistry::new();
        report.export(&mut registry);
        write_or_exit(path, registry.snapshot().to_json_versioned());
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
/// Every lifecycle op is serial and all churn decisions come from one
/// seeded stream, so stdout and every artifact are byte-identical at any
/// `--jobs` and on either backend. Exit codes: 0 for a clean run, 1 if a
/// canary or the permission oracle was violated, 3 if the run *ended*
/// inside stage-3 admission control.
fn run_aging_scenario(options: &Options) -> ! {
    let artifacts = &options.artifacts;
    if artifacts.backend == ExecBackend::Threaded && options.harts < 2 {
        usage_error("--backend threaded needs --harts >= 2")
    }
    if artifacts.trace_out.is_some()
        || artifacts.snapshot_interval.is_some()
        || artifacts.timeline_out.is_some()
    {
        usage_error(
            "--scenario aging supports --metrics-out/--bench-out/--spans-out, \
             not trace/timeline flags",
        )
    }
    let run_options = artifacts.run_options().unwrap_or_else(|e| usage_error(e));
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
        artifacts.backend.name(),
    );
    let machines = (0..options.harts)
        .map(|_| Machine::new(machine_config(options)))
        .collect();
    let (outcome, snap, _, telemetry) = hpmp_workloads::aging::run_aging_with(
        machines,
        options.flavor,
        SMP_SEED,
        spec,
        run_options,
    )
    .unwrap_or_else(|e| {
        eprintln!("aging scenario failed to boot: {e}");
        std::process::exit(1);
    });

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
    if let Some(line) = artifacts.write_metrics(&snap) {
        eprintln!("  metrics      : {line}");
    }
    for (label, line) in artifacts.write_telemetry(&telemetry) {
        eprintln!("  {label:<13}: {line}");
    }
    let mut report = BenchReport::new("hpmpsim-aging");
    report.set_config("flavor", options.flavor.to_string());
    report.set_config("core", options.core.to_string());
    report.set_config("scenario", "aging".to_string());
    report.set_config("harts", options.harts.to_string());
    report.set_config("churn_ops", churn_ops.to_string());
    report.push(ExperimentRecord::from_snapshot(
        "aging".to_string(),
        outcome.total_cycles,
        snap,
    ));
    if let Some(line) = artifacts.write_bench(&report) {
        eprintln!("  bench report : {line}");
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
    /// Headerless walk-event bytes (empty unless tracing).
    trace: TraceBytes,
    /// Time-resolved artifacts (empty unless requested).
    telemetry: SmpTelemetry,
    /// Host wall-clock time the workload took; feeds only the host
    /// profile, never a simulated artifact.
    wall: std::time::Duration,
}

/// Seed for the SMP interleaver and per-hart access streams. Fixed so
/// `--harts N` runs are reproducible without another knob; the streams are
/// already decorrelated per hart.
const SMP_SEED: u64 = 0x4850_4d50;

/// Runs one workload with a private sink and registry, buffering its output.
fn run_one(options: &Options, run_options: RunOptions, workload: &str) -> WorkloadOutput {
    if options.artifacts.trace_out.is_none() {
        return run_with_sinks(options, run_options, workload, || NullSink).0;
    }
    let (mut out, sinks) = run_with_sinks(options, run_options, workload, || {
        JsonlSink::new_headerless(Vec::new())
    });
    out.trace = TraceBytes::from_sinks(sinks);
    out
}

/// Runs one workload with one `sink()` per machine, returning its buffered
/// output and the sinks. With `--harts` > 1 that is the workload's SMP
/// shape: per-hart machines over one shared monitor and physical memory,
/// the sinks in hart order — events carry their hart id, so analysis does
/// not depend on the global interleaving order.
fn run_with_sinks<S: TraceSink + Send>(
    options: &Options,
    run_options: RunOptions,
    workload: &str,
    sink: impl Fn() -> S,
) -> (WorkloadOutput, Vec<S>) {
    let config = machine_config(options);
    let mut stdout = String::new();
    let (cycles, snap, sinks, telemetry) = if options.harts > 1 {
        let spec = spec_for(workload).expect("every hpmpsim workload has an SMP shape");
        let machines = (0..options.harts)
            .map(|_| Machine::with_sink(config, sink()))
            .collect();
        let (outcome, snap, sinks, telemetry) =
            run_smp_with(machines, options.flavor, SMP_SEED, spec, run_options).unwrap_or_else(
                |e| {
                    eprintln!("SMP workload {workload} failed: {e}");
                    std::process::exit(1);
                },
            );
        report_smp(&outcome, &snap, &mut stdout);
        (outcome.total_cycles, snap, sinks, telemetry)
    } else {
        let mut sink = sink();
        let (cycles, snap) = run_workload(options, workload, config, &mut sink, &mut stdout);
        sink.flush();
        (cycles, snap, vec![sink], SmpTelemetry::default())
    };
    let out = WorkloadOutput {
        stdout,
        cycles,
        snap,
        trace: TraceBytes::default(),
        telemetry,
        wall: std::time::Duration::ZERO,
    };
    (out, sinks)
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
                config,
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
                    config,
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
                    config,
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
                config,
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
            let (result, snap) = hpmp_workloads::virt_app::run_guest_kv_with_sink(
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
                config,
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
        other => {
            // `main` admits only SMP_WORKLOADS names; one without an arm
            // here is refused, not run as another workload.
            eprintln!("hpmpsim: workload {other} has no single-hart run");
            std::process::exit(2);
        }
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
