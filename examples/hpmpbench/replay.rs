//! The traced run: per-layer host time and simulated ratios for one
//! workload, measured from outside the layers by timing calls into their
//! public functions.
//!
//! Calls that take microseconds (monitor ops, set-up steps,
//! `metrics_snapshot`) are timed one by one. Sub-microsecond calls never
//! are: the workload runs once with an in-memory recording sink, and the
//! recorded stream is replayed in timed batches through fresh instances of
//! each component built from the same `MachineConfig`. A replay counts only
//! if it first reproduces every recorded outcome, so its time describes the
//! work the pipeline actually did; any difference fails the run.

use std::fmt::Debug;
use std::hint::black_box;
use std::io;
use std::time::Instant;

use hpmp_suite::core::PmptwCache;
use hpmp_suite::machine::{ExecBackend, MachineConfig};
use hpmp_suite::memsim::{
    AccessKind, CoreKind, CoreModel, HitLevel, MemSystem, Perms, PhysAddr, PrivMode, VirtAddr,
};
use hpmp_suite::paging::{walk, Tlb, TlbEntry, TlbHit, WalkCache, WalkResult};
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::trace::{
    AccessOp, JsonlSink, NullSink, PrivLevel, Snapshot, StepKind, TlbOutcome, TraceSink, WalkEvent,
};
use hpmp_suite::workloads::smp::{run_smp_backend, SmpWorkloadSpec};

use crate::report::{Report, PER_LAYER};
use crate::stats::{self, ratio};
use crate::workloads::{
    self, Guest, Native, OpClock, Plan, Rep, Runner, Smp, Tally, Window, Workload, SMP_HARTS,
};

/// Events the recorder keeps per hart.
pub const TRACE_CAP: usize = 262_144;
/// Untraced reps that re-measure the whole pipeline in-process.
const REMEASURE_REPS: usize = 5;
/// `metrics_snapshot` calls timed.
const SNAPSHOT_CALLS: usize = 64;
/// Events `JsonlSink::record` is timed over: JSON rendering costs
/// microseconds per event, so a sample suffices.
const RECORD_EVENTS: usize = 32_768;
/// The threaded-backend comparison: the smp-churn shape on 2 harts.
const THREADED_HARTS: usize = 2;
const THREADED_ROUNDS: u32 = 40_000;
const THREADED_REPS: usize = 3;

/// The benchmark's recording sink: keeps every event in memory, up to
/// [`TRACE_CAP`] per machine, and counts any beyond.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Recorded events, oldest first.
    pub events: Vec<WalkEvent>,
    dropped: u64,
}

impl TraceSink for Recorder {
    fn record(&mut self, event: &WalkEvent) {
        if self.events.len() < TRACE_CAP {
            self.events.push(event.clone());
        } else {
            self.dropped += 1;
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

fn complete(recorder: &Recorder) -> Result<(), String> {
    match recorder.dropped {
        0 => Ok(()),
        n => Err(format!(
            "the recorder dropped {n} events past its {TRACE_CAP}-event cap; replays need the whole stream"
        )),
    }
}

/// The traced run of `workload` over `plan`, reporting every
/// [`PER_LAYER`] metric (0 for layers the workload does not exercise).
pub fn run(workload: Workload, plan: &Plan, seed: u64) -> Result<Report, String> {
    let timer_ns = stats::calibrate_timer_ns();
    let mut values = vec![("timer_ns", timer_ns)];
    let mut done = Tally::default();

    // The untraced pipeline, re-measured in-process: the base the layer
    // times are compared against.
    let mut per_access = Vec::new();
    let mut builds = Vec::new();
    let mut populates = Vec::new();
    let mut last = None;
    for _ in 0..REMEASURE_REPS {
        let (rep, runner) = workloads::rep(workload, plan, seed, || NullSink)?;
        per_access.push(best_ns_per_access(&rep));
        builds.push(rep.setup.build.as_nanos() as f64);
        populates.push(rep.setup.populate.as_nanos() as f64);
        done.add(rep.warmup);
        done.add(rep.tally);
        last = Some((rep, runner));
    }
    let (rep, mut runner) = last.expect("at least one re-measure rep");
    let pipeline_ns = stats::min(&per_access);
    values.extend([
        ("setup.build_ns", stats::median(&mut builds)),
        ("setup.populate_ns", stats::median(&mut populates)),
        (
            "sim.cycles_per_access",
            rep.tally.cycles as f64 / rep.tally.accesses as f64,
        ),
        ("trace.snapshot_ns", snapshot_ns(runner.as_mut(), timer_ns)),
    ]);
    values.extend(ratios(workload, &rep.steady));
    drop(runner);

    // What `--trace-out` costs: the same rep streaming JSONL to a writer
    // that discards it.
    let (jsonl, _) = workloads::rep(workload, plan, seed, || JsonlSink::new(io::sink()))?;
    done.add(jsonl.warmup);
    done.add(jsonl.tally);
    values.push((
        "trace.overhead",
        best_ns_per_access(&jsonl) / pipeline_ns - 1.0,
    ));

    let config = MachineConfig::rocket();
    let layers = match workload {
        Workload::NativeWalk | Workload::NativeTlbHit => native_layers(
            workload,
            plan,
            seed,
            &config,
            pipeline_ns,
            timer_ns,
            &mut done,
        )?,
        Workload::Guest3d => guest_layers(plan, seed, &config, pipeline_ns, timer_ns, &mut done)?,
        Workload::SmpChurn => smp_layers(plan, seed, timer_ns, &mut done)?,
    };
    values.extend(layers);

    let mut report = Report::from_values(&PER_LAYER, &values);
    report.attempted = done.ops;
    report.failed = done.failed;
    Ok(report)
}

/// Host ns per access of the rep's fastest measured window.
fn best_ns_per_access(rep: &Rep) -> f64 {
    let ns: Vec<f64> = rep.windows.iter().map(Window::ns_per_access).collect();
    stats::min(&ns)
}

/// Median host time of one `metrics_snapshot` call on `runner`.
fn snapshot_ns(runner: &mut dyn Runner, timer_ns: f64) -> f64 {
    let mut samples: Vec<f64> = (0..SNAPSHOT_CALLS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(runner.snapshot());
            t0.elapsed().as_nanos() as f64 - timer_ns
        })
        .collect();
    stats::median(&mut samples)
}

/// The simulated per-layer ratios of a steady-state snapshot. These are
/// counts, not times: a change that only speeds the simulator up must
/// leave every one of them unchanged.
fn ratios(workload: Workload, snap: &Snapshot) -> Vec<(&'static str, f64)> {
    // Counter `name` under the workload's machine prefix, summed over harts.
    let c = |name: &str| -> f64 {
        let total: u64 = match workload {
            Workload::SmpChurn => (0..SMP_HARTS)
                .map(|h| snap.value(&format!("hart.{h}.machine.{name}")))
                .sum(),
            Workload::Guest3d => snap.value(&format!("virt.{name}")),
            Workload::NativeWalk | Workload::NativeTlbHit => snap.value(&format!("machine.{name}")),
        };
        total as f64
    };
    let hit_ratio = |prefix: &str, hit: &str, miss: &str| {
        let hits = c(&format!("{prefix}.{hit}"));
        ratio(hits, hits + c(&format!("{prefix}.{miss}")))
    };
    let lookups = |tlb: &str| {
        c(&format!("{tlb}.l1_hits")) + c(&format!("{tlb}.l2_hits")) + c(&format!("{tlb}.misses"))
    };
    let guest = workload == Workload::Guest3d;
    let (tlb, pwc) = if guest {
        ("tlb", "gpwc")
    } else {
        ("dtlb", "pwc")
    };
    let walks = c("walks");
    let (pt_refs, pmpte_refs) = if guest {
        let walk_pmpte = c("refs.pmpte_for_npt") + c("refs.pmpte_for_gpt");
        (c("refs.gpt_reads"), walk_pmpte + c("refs.pmpte_for_data"))
    } else {
        let pmpte = c("refs.pmpte_for_pt") + c("refs.pmpte_for_data");
        (c("refs.pt_reads"), pmpte)
    };
    let mut out = vec![
        (
            "paging.tlb.miss_ratio",
            ratio(c(&format!("{tlb}.misses")), lookups(tlb)),
        ),
        (
            "paging.walker.walks_per_access",
            ratio(walks, c("accesses")),
        ),
        ("paging.walker.pt_refs_per_walk", ratio(pt_refs, walks)),
        ("paging.pwc.hit_ratio", hit_ratio(pwc, "hits", "misses")),
        ("core.hpmp.pmpte_refs_per_walk", ratio(pmpte_refs, walks)),
        (
            "memsim.hierarchy.refs_per_access",
            ratio(c("mem.accesses"), c("accesses")),
        ),
        ("memsim.l1.hit_ratio", hit_ratio("mem.l1", "hits", "misses")),
        (
            "memsim.llc.hit_ratio",
            hit_ratio("mem.llc", "hits", "misses"),
        ),
        (
            "memsim.dram.row_hit_ratio",
            hit_ratio("mem.dram", "row_hits", "row_misses"),
        ),
    ];
    if guest {
        let gtlb_hits = c("gtlb.l1_hits") + c("gtlb.l2_hits");
        out.extend([
            (
                "machine.virt.refs_per_walk",
                ratio(c("refs.npt_reads") + c("refs.gpt_reads"), walks),
            ),
            (
                "machine.virt.pmpte_refs_per_walk",
                ratio(c("refs.pmpte_for_npt") + c("refs.pmpte_for_gpt"), walks),
            ),
            (
                "machine.virt.gtlb_hit_ratio",
                ratio(gtlb_hits, lookups("gtlb")),
            ),
        ]);
    }
    out
}

/// Host time of `JsonlSink::record` per event, over the first
/// [`RECORD_EVENTS`] of `events`.
fn record_ns(events: &[&WalkEvent], timer_ns: f64) -> f64 {
    let events = &events[..events.len().min(RECORD_EVENTS)];
    let ns = stats::best_batches(|| {
        let mut sink = JsonlSink::new(io::sink());
        stats::time_batches(events, 0, timer_ns, |e| sink.record(e))
    });
    ratio(ns, events.len() as f64)
}

#[allow(clippy::too_many_arguments)]
fn native_layers(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    config: &MachineConfig,
    pipeline_ns: f64,
    timer_ns: f64,
    done: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let hot = workload == Workload::NativeTlbHit;
    let (mut native, _) = Native::setup(plan, hot, seed, Recorder::default());
    let warmup = native.run(plan.warmup);
    let steady_from = native.sys.machine.sink().events.len();
    native.mark_steady();
    let measured = native.run(plan.measured);
    done.add(warmup);
    done.add(measured);
    native.verify_accounting()?;
    complete(native.sys.machine.sink())?;

    let r = replay_native(&native, steady_from, config, timer_ns)?;
    let per_access = |ns: f64| ns / r.accesses as f64;
    let covered = per_access(r.tlb_ns + r.walk_ns + r.check_ns + r.ref_ns);
    let steady: Vec<&WalkEvent> = native.sys.machine.sink().events[steady_from..]
        .iter()
        .collect();
    Ok(vec![
        ("paging.tlb.ns_per_access", per_access(r.tlb_ns)),
        ("paging.walker.walk_ns", ratio(r.walk_ns, r.walks as f64)),
        ("core.hpmp.check_ns", ratio(r.check_ns, r.checks as f64)),
        ("memsim.hierarchy.ref_ns", ratio(r.ref_ns, r.refs as f64)),
        ("memsim.physmem.read_ns", ratio(r.read_ns, r.reads as f64)),
        ("machine.access.ns", pipeline_ns),
        ("machine.access.residual_ns", pipeline_ns - covered),
        ("machine.access.coverage", covered / pipeline_ns),
        ("trace.record_ns", record_ns(&steady, timer_ns)),
    ])
}

fn guest_layers(
    plan: &Plan,
    seed: u64,
    config: &MachineConfig,
    pipeline_ns: f64,
    timer_ns: f64,
    done: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (mut guest, _) = Guest::setup(plan, seed, Recorder::default())?;
    let warmup = guest.run(plan.warmup);
    let steady_from = guest.machine.sink().events.len();
    guest.mark_steady();
    let measured = guest.run(plan.measured);
    done.add(warmup);
    done.add(measured);
    guest.verify_accounting()?;
    complete(guest.machine.sink())?;

    let events = &guest.machine.sink().events;
    let streams = Streams::extract(events, steady_from);
    // The guest's ASID is private to the machine; any fixed ASID replays
    // the same hits and misses.
    let tlb_ns = streams.replay_tlb(0, config, timer_ns)?;
    let ref_ns = streams.replay_hierarchy(config, timer_ns)?;
    let accesses = (events.len() - steady_from) as f64;
    let refs = (streams.mem.len() - streams.steady.mem) as f64;
    let hierarchy_ns = ref_ns / accesses;
    let steady: Vec<&WalkEvent> = events[steady_from..].iter().collect();
    Ok(vec![
        ("paging.tlb.ns_per_access", tlb_ns / accesses),
        ("memsim.hierarchy.ref_ns", ratio(ref_ns, refs)),
        ("machine.virt.ns", pipeline_ns),
        ("machine.virt.hierarchy_ns", hierarchy_ns),
        (
            "machine.virt.residual_ns",
            pipeline_ns - hierarchy_ns - tlb_ns / accesses,
        ),
        ("trace.record_ns", record_ns(&steady, timer_ns)),
    ])
}

fn smp_layers(
    plan: &Plan,
    seed: u64,
    timer_ns: f64,
    done: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    // Monitor ops, one by one, in an untraced rep.
    let (mut smp, _) = Smp::setup(plan, seed, || NullSink)?;
    let warmup = smp.run(plan.warmup);
    smp.mark_steady();
    smp.clock = Some(OpClock::default());
    let t0 = Instant::now();
    let measured = smp.run(plan.measured);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    done.add(warmup);
    done.add(measured);
    smp.verify_accounting()?;
    let ipis = smp.steady_snapshot().value("smp.ipis_delivered") as f64;
    let mut clock = smp.clock.take().expect("clock set above");
    let ops = (measured.ops - measured.accesses) as f64;
    let accesses = measured.accesses as f64;
    let op_ns: f64 = [&clock.alloc_ns, &clock.free_ns, &clock.switch_ns]
        .iter()
        .flat_map(|v| v.iter())
        .sum();
    let pct = |samples: &mut Vec<f64>, p: f64| stats::quantile(samples, p) - timer_ns;
    let mut values = vec![
        (
            "penglai.monitor.alloc_ns_p50",
            pct(&mut clock.alloc_ns, 0.50),
        ),
        (
            "penglai.monitor.alloc_ns_p99",
            pct(&mut clock.alloc_ns, 0.99),
        ),
        ("penglai.monitor.free_ns_p50", pct(&mut clock.free_ns, 0.50)),
        ("penglai.monitor.free_ns_p99", pct(&mut clock.free_ns, 0.99)),
        (
            "penglai.monitor.switch_ns_p50",
            pct(&mut clock.switch_ns, 0.50),
        ),
        (
            "penglai.monitor.switch_ns_p99",
            pct(&mut clock.switch_ns, 0.99),
        ),
        ("penglai.monitor.time_share", op_ns / wall_ns),
        ("penglai.monitor.ops_per_kaccess", 1000.0 * ops / accesses),
        (
            "penglai.smp.access_ns",
            (clock.batch_ns - timer_ns * clock.batches as f64) / accesses,
        ),
        ("penglai.smp.ipis_per_op", ratio(ipis, ops)),
    ];
    drop(smp);

    // The recorded stream, for the cost of JSONL tracing per event.
    let (mut rec, _) = Smp::setup(plan, seed, Recorder::default)?;
    let warmup = rec.run(plan.warmup);
    let marks: Vec<usize> = (0..SMP_HARTS as u16)
        .map(|h| rec.smp.machines().peek(h).sink().events.len())
        .collect();
    rec.mark_steady();
    let measured = rec.run(plan.measured);
    done.add(warmup);
    done.add(measured);
    rec.verify_accounting()?;
    let mut steady = Vec::new();
    for (h, &mark) in marks.iter().enumerate() {
        let recorder = rec.smp.machines().peek(h as u16).sink();
        complete(recorder)?;
        steady.extend(recorder.events[mark..].iter());
    }
    values.push(("trace.record_ns", record_ns(&steady, timer_ns)));
    values.push(("machine.threaded.speedup", threaded_speedup(seed)?));
    Ok(values)
}

/// Deterministic ÷ threaded wall time for the smp-churn round shape on
/// [`THREADED_HARTS`] harts through `run_smp_backend`, best of
/// [`THREADED_REPS`] each, alternating. Both backends must agree exactly.
fn threaded_speedup(seed: u64) -> Result<f64, String> {
    let spec = SmpWorkloadSpec {
        rounds: THREADED_ROUNDS,
        ..workloads::tenancy_spec()
    };
    let mut walls = [Vec::new(), Vec::new()];
    let mut first = None;
    for _ in 0..THREADED_REPS {
        for (i, backend) in [ExecBackend::Deterministic, ExecBackend::Threaded]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            let (outcome, snapshot) = run_smp_backend(
                TeeFlavor::PenglaiHpmp,
                CoreKind::Rocket,
                THREADED_HARTS,
                seed,
                spec,
                backend,
            )
            .map_err(|e| format!("run_smp_backend({backend:?}): {e}"))?;
            walls[i].push(t0.elapsed().as_secs_f64());
            let result = (outcome, snapshot);
            match &first {
                None => first = Some(result),
                Some(want) if *want != result => {
                    return Err(format!(
                        "the {backend:?} backend diverged from the deterministic one"
                    ))
                }
                Some(_) => {}
            }
        }
    }
    Ok(stats::min(&walls[0]) / stats::min(&walls[1]))
}

/// Host time each native layer spent on the measured phase's calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeReplay {
    /// Accesses in the measured phase.
    pub accesses: u64,
    /// `Tlb::lookup` (plus `fill` on a miss), ns in total.
    pub tlb_ns: f64,
    /// Walks replayed.
    pub walks: u64,
    /// `walk`, ns in total.
    pub walk_ns: f64,
    /// Permission checks replayed: one per PT reference and data page.
    pub checks: u64,
    /// `EntryPlan::check`, ns in total.
    pub check_ns: f64,
    /// Memory references replayed.
    pub refs: u64,
    /// `MemSystem::access_ptw`/`access`, ns in total.
    pub ref_ns: f64,
    /// PTE and pmpte reads replayed.
    pub reads: u64,
    /// `PhysMem::read_u64`, ns in total.
    pub read_ns: f64,
}

/// Replays a native run's recorded stream through fresh components built
/// from `config`, using the run's own physical memory, address space and
/// register file. Events before `steady_from` bring the components to the
/// measured phase's state untimed.
///
/// # Errors
///
/// `replay mismatch ...` at the first call whose outcome differs from the
/// recorded one: TLB outcome, PWC level, PT or pmpte address, or per-step
/// cycle count.
pub fn replay_native(
    native: &Native<Recorder>,
    steady_from: usize,
    config: &MachineConfig,
    timer_ns: f64,
) -> Result<NativeReplay, String> {
    let machine = &native.sys.machine;
    let space = &native.sys.space;
    let phys = machine.phys();
    let events = &machine.sink().events;
    let s = Streams::extract(events, steady_from);

    let tlb_ns = s.replay_tlb(space.asid(), config, timer_ns)?;
    let walk_ns = replay(
        "paging.walker",
        s.stream(&s.walk, &s.walk_want, s.steady.walk),
        timer_ns,
        || WalkCache::new(config.pwc),
        |pwc, &va| walk(phys, space, pwc, va),
        |r| WalkOut::of(&r),
    )?;
    let plan = machine.regs().plan();
    let check_ns = replay(
        "core.hpmp",
        s.stream(&s.check, &s.check_want, s.steady.check),
        timer_ns,
        || PmptwCache::new(config.pmptw_cache),
        |cache, &(addr, kind, mode)| plan.check(phys, cache, addr, kind, mode),
        |c| CheckOut {
            allowed: c.allowed,
            pmptes: c.refs.iter().map(|r| (r.addr.raw(), r.is_root)).collect(),
        },
    )?;
    let ref_ns = s.replay_hierarchy(config, timer_ns)?;
    let read_ns = stats::best_batches(|| {
        stats::time_batches(&s.reads, s.steady.reads, timer_ns, |&addr| {
            black_box(phys.read_u64(addr));
        })
    });
    let steady = |len: usize, from: usize| (len - from) as u64;
    Ok(NativeReplay {
        accesses: steady(events.len(), steady_from),
        tlb_ns,
        walks: steady(s.walk.len(), s.steady.walk),
        walk_ns,
        checks: steady(s.check.len(), s.steady.check),
        check_ns,
        refs: steady(s.mem.len(), s.steady.mem),
        ref_ns,
        reads: steady(s.reads.len(), s.steady.reads),
        read_ns,
    })
}

/// A TLB lookup to replay: the page, and the frame to fill on a miss
/// (`None` when the recorded access faulted and never filled).
struct TlbIn {
    va: VirtAddr,
    fill: Option<PhysAddr>,
}

/// A walk's recorded outcome: PWC hit level, PT references (level,
/// address) in order, and the translated address.
#[derive(Debug, PartialEq, Eq)]
struct WalkOut {
    pwc_level: Option<u8>,
    pt: Vec<(Option<u8>, u64)>,
    paddr: Option<u64>,
}

impl WalkOut {
    fn of(r: &WalkResult) -> WalkOut {
        WalkOut {
            pwc_level: r.pwc_hit_level.map(|l| l as u8),
            pt: r
                .pt_refs
                .iter()
                .map(|p| (Some(p.level as u8), p.addr.raw()))
                .collect(),
            paddr: r.translation.map(|t| t.paddr.raw()),
        }
    }
}

/// A permission check's outcome: granted, and the pmpte references
/// (address, root level) it read.
#[derive(Debug, PartialEq, Eq)]
struct CheckOut {
    allowed: bool,
    pmptes: Vec<(u64, bool)>,
}

/// A memory reference to replay: a walker-port reference (PT or pmpte),
/// or the data reference with whether it stores.
#[derive(Clone, Copy)]
enum MemIn {
    Walk(PhysAddr),
    Data(PhysAddr, bool),
}

/// Where each input list's measured phase starts.
#[derive(Clone, Copy, Debug, Default)]
struct Marks {
    tlb: usize,
    walk: usize,
    check: usize,
    mem: usize,
    reads: usize,
}

/// Component inputs and their recorded outcomes, extracted from an event
/// stream in program order.
#[derive(Default)]
struct Streams {
    tlb: Vec<TlbIn>,
    tlb_want: Vec<TlbOutcome>,
    walk: Vec<VirtAddr>,
    walk_want: Vec<WalkOut>,
    check: Vec<(PhysAddr, AccessKind, PrivMode)>,
    check_want: Vec<CheckOut>,
    mem: Vec<MemIn>,
    mem_want: Vec<u64>,
    reads: Vec<PhysAddr>,
    steady: Marks,
}

/// One component's replay: inputs, recorded outcomes, and where the
/// measured phase starts.
struct Stream<'a, I, O> {
    inputs: &'a [I],
    recorded: &'a [O],
    steady_from: usize,
}

impl Streams {
    fn extract(events: &[WalkEvent], steady_from: usize) -> Streams {
        let mut s = Streams::default();
        for (i, e) in events.iter().enumerate() {
            if i == steady_from {
                s.steady = s.marks();
            }
            let kind = match e.op {
                AccessOp::Read => AccessKind::Read,
                AccessOp::Write => AccessKind::Write,
                AccessOp::Fetch => AccessKind::Fetch,
            };
            let mode = match e.privilege {
                PrivLevel::User => PrivMode::User,
                PrivLevel::Supervisor => PrivMode::Supervisor,
                PrivLevel::Machine => PrivMode::Machine,
            };
            let miss = e.tlb == TlbOutcome::Miss;
            s.tlb.push(TlbIn {
                va: VirtAddr::new(e.va),
                fill: e
                    .paddr
                    .filter(|_| miss && e.fault.is_none())
                    .map(PhysAddr::new),
            });
            s.tlb_want.push(e.tlb);
            if miss {
                s.walk.push(VirtAddr::new(e.va));
                s.walk_want.push(WalkOut {
                    pwc_level: e.pwc_level,
                    pt: e
                        .steps
                        .iter()
                        .filter(|step| step.kind == StepKind::Pt)
                        .map(|step| (step.level, step.addr))
                        .collect(),
                    paddr: e.paddr,
                });
            }
            // pmpte references precede the reference they check.
            let mut pmptes = Vec::new();
            for step in &e.steps {
                let addr = PhysAddr::new(step.addr);
                match step.kind {
                    // A probe latency, not a memory reference.
                    StepKind::TlbL2 => continue,
                    StepKind::PmptRoot | StepKind::PmptLeaf => {
                        pmptes.push((step.addr, step.kind == StepKind::PmptRoot));
                        s.reads.push(addr);
                        s.mem.push(MemIn::Walk(addr));
                    }
                    StepKind::Pt => {
                        s.check.push((addr, AccessKind::Read, mode));
                        s.check_want.push(CheckOut {
                            allowed: true,
                            pmptes: std::mem::take(&mut pmptes),
                        });
                        s.reads.push(addr);
                        s.mem.push(MemIn::Walk(addr));
                    }
                    StepKind::GuestPt | StepKind::NestedPt => s.mem.push(MemIn::Walk(addr)),
                    StepKind::Data => {
                        // With TLB inlining only a walk checks the data page.
                        if miss {
                            s.check.push((addr, kind, mode));
                            s.check_want.push(CheckOut {
                                allowed: true,
                                pmptes: std::mem::take(&mut pmptes),
                            });
                        }
                        s.mem.push(MemIn::Data(addr, kind == AccessKind::Write));
                    }
                }
                s.mem_want.push(step.cycles);
            }
        }
        if steady_from >= events.len() {
            s.steady = s.marks();
        }
        s
    }

    fn marks(&self) -> Marks {
        Marks {
            tlb: self.tlb.len(),
            walk: self.walk.len(),
            check: self.check.len(),
            mem: self.mem.len(),
            reads: self.reads.len(),
        }
    }

    fn stream<'a, I, O>(
        &self,
        inputs: &'a [I],
        recorded: &'a [O],
        steady_from: usize,
    ) -> Stream<'a, I, O> {
        Stream {
            inputs,
            recorded,
            steady_from,
        }
    }

    fn replay_tlb(&self, asid: u16, config: &MachineConfig, timer_ns: f64) -> Result<f64, String> {
        replay(
            "paging.tlb",
            self.stream(&self.tlb, &self.tlb_want, self.steady.tlb),
            timer_ns,
            || Tlb::new(config.tlb),
            |tlb, x| match tlb.lookup(asid, x.va) {
                Some((_, TlbHit::L1)) => TlbOutcome::L1Hit,
                Some((_, TlbHit::L2)) => TlbOutcome::L2Hit,
                None => {
                    if let Some(paddr) = x.fill {
                        tlb.fill(TlbEntry {
                            asid,
                            vpn: x.va.page_number(),
                            frame: paddr.page_base(),
                            page_perms: Perms::RW,
                            isolation_perms: Perms::RWX,
                            user: false,
                            epoch: 0,
                        });
                    }
                    TlbOutcome::Miss
                }
            },
            |outcome| outcome,
        )
    }

    fn replay_hierarchy(&self, config: &MachineConfig, timer_ns: f64) -> Result<f64, String> {
        let core = config.core;
        replay(
            "memsim.hierarchy",
            self.stream(&self.mem, &self.mem_want, self.steady.mem),
            timer_ns,
            || MemSystem::new(config.mem),
            |mem, &x| reference(mem, &core, x),
            |cycles| cycles,
        )
    }
}

/// Sends one reference the way the machines do and returns the cycles it
/// adds to the access: walker-port references cost their raw latency, the
/// data reference what the core observes plus any store-miss penalty.
fn reference(mem: &mut MemSystem, core: &CoreModel, x: MemIn) -> u64 {
    match x {
        MemIn::Walk(addr) => mem.access_ptw(addr).cycles,
        MemIn::Data(addr, store) => {
            let out = mem.access(addr);
            let mut cycles = core.observed_ref_cycles(out.cycles, out.level != HitLevel::Dram);
            if store && out.level != HitLevel::L1 {
                cycles += core.store_miss_penalty;
            }
            cycles
        }
    }
}

/// Replays `stream` through fresh components: once comparing every call's
/// outcome with the recorded one, then [`stats::PASSES`] times timed in
/// batches. Returns the measured phase's ns, each batch at its fastest.
fn replay<C, I, R, O: PartialEq + Debug>(
    layer: &str,
    stream: Stream<'_, I, O>,
    timer_ns: f64,
    fresh: impl Fn() -> C,
    call: impl Fn(&mut C, &I) -> R,
    outcome: impl Fn(R) -> O,
) -> Result<f64, String> {
    let mut component = fresh();
    for (k, (input, recorded)) in stream.inputs.iter().zip(stream.recorded).enumerate() {
        let replayed = outcome(call(&mut component, input));
        if replayed != *recorded {
            return Err(format!(
                "replay mismatch in {layer} at call {k}: replayed {replayed:?}, recorded {recorded:?}"
            ));
        }
    }
    Ok(stats::best_batches(|| {
        let mut component = fresh();
        stats::time_batches(stream.inputs, stream.steady_from, timer_ns, |input| {
            black_box(call(&mut component, input));
        })
    }))
}
