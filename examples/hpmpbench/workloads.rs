//! The four workloads: frozen sizes, seeded access streams, and the
//! closed-loop runners that feed those streams to the simulator's public
//! entry points (`Machine::access`, `VirtMachine::access`, the
//! `SmpSystem::*_on` monitor ops). One thread sends every operation and
//! waits for it to finish before sending the next.

use std::time::{Duration, Instant};

use hpmp_suite::core::PmpRegion;
use hpmp_suite::machine::{
    HartScheduler, IsolationScheme, Machine, MachineConfig, System, SystemBuilder, VirtMachine,
    VirtScheme,
};
use hpmp_suite::memsim::{AccessKind, Perms, PhysAddr, PrivMode, SplitMix64, VirtAddr, PAGE_SIZE};
use hpmp_suite::penglai::{DomainId, GmsLabel, SmpSystem, TeeFlavor};
use hpmp_suite::trace::{Snapshot, TraceSink};
use hpmp_suite::workloads::smp::{setup_tenants, spec_for, SmpTenant, SmpWorkloadSpec};
use hpmp_suite::workloads::{RAM_BASE, RAM_SIZE};

/// Seed used when none is given ("HPMP" in ASCII).
pub const DEFAULT_SEED: u64 = 0x4850_4d50;

/// Pages the native workloads map: 64× the 1024-entry L2 TLB, so almost
/// every uniform access walks.
pub const NATIVE_PAGES: u64 = 65_536;
/// native-tlb-hit's hot set: fewer pages than the 32-entry L1 TLB, so the
/// walker and checker stay idle once it is warm.
pub const HOT_PAGES: usize = 24;
/// Guest pages guest-3d maps and prefaults: 8× the combined TLB's reach.
pub const GUEST_PAGES: u64 = 8_192;
/// Harts smp-churn simulates.
pub const SMP_HARTS: usize = 4;
/// Idle resident 1 MiB enclaves smp-churn boots beside its tenants, so
/// monitor ops work over a populated region pool.
pub const IDLE_ENCLAVES: u32 = 60;

const IDLE_ENCLAVE_BYTES: u64 = 1 << 20;
/// First virtual page of the native workloads' mapped range.
const NATIVE_VA: u64 = 0x1000_0000;
/// First guest-virtual page of the guest fixture's dataset.
const GUEST_VA: u64 = 0x20_0000;
/// Parse/dispatch compute charged per guest request.
const REQUEST_COMPUTE: u64 = 120;
/// Region each smp-churn tenant allocates and frees when it churns.
const CHURN_BYTES: u64 = 64 * 1024;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform random pages over the native mapping: nearly every access
    /// walks (walker, PWC, HPMP check, PMP-table reads, cache/DRAM model).
    NativeWalk,
    /// The same set-up, accesses confined to a TLB-resident hot set.
    NativeTlbHit,
    /// Key-value requests in a guest: the extra-dimensional walk.
    Guest3d,
    /// Four tenants on four harts with monitor churn and shootdowns.
    SmpChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::NativeWalk,
        Workload::NativeTlbHit,
        Workload::Guest3d,
        Workload::SmpChurn,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NativeWalk => "native-walk",
            Workload::NativeTlbHit => "native-tlb-hit",
            Workload::Guest3d => "guest-3d",
            Workload::SmpChurn => "smp-churn",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The frozen work of one end-to-end rep, sized so its measured phase
    /// takes about 1.2 s on a 2-core x86-64 VM.
    pub fn plan(self) -> Plan {
        match self {
            Workload::NativeWalk => Plan::native(500_000, 4_000_000),
            Workload::NativeTlbHit => Plan::native(500_000, 16_000_000),
            Workload::Guest3d => Plan::guest(50_000, 666_666),
            Workload::SmpChurn => Plan::smp(IDLE_ENCLAVES, 16_000, 160_000),
        }
    }

    /// The work of the traced run: the same set-up with a shorter stream,
    /// so that every event of every hart fits the recorder.
    pub fn traced_plan(self) -> Plan {
        match self {
            Workload::NativeWalk => Plan::native(50_000, 200_000),
            Workload::NativeTlbHit => Plan::native(10_000, 250_000),
            // 8,192 prefault events + 3 per request.
            Workload::Guest3d => Plan::guest(6_000, 78_000),
            Workload::SmpChurn => Plan::smp(IDLE_ENCLAVES, 4_000, 40_000),
        }
    }
}

/// The fixed work of one rep. `warmup` and `measured` count the workload's
/// unit: accesses (native), requests of 3 accesses (guest-3d), or scheduler
/// rounds of 6 accesses plus any monitor ops (smp-churn).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Pages mapped (native) or prefaulted (guest-3d); unused by smp-churn,
    /// whose tenants map the `tenancy` footprint.
    pub pages: u64,
    /// Idle resident enclaves (smp-churn only).
    pub idle_enclaves: u32,
    /// Operations run untimed before counters restart.
    pub warmup: u64,
    /// Operations in the timed measured phase.
    pub measured: u64,
}

impl Plan {
    fn native(warmup: u64, measured: u64) -> Plan {
        Plan {
            pages: NATIVE_PAGES,
            idle_enclaves: 0,
            warmup,
            measured,
        }
    }

    fn guest(warmup: u64, measured: u64) -> Plan {
        Plan {
            pages: GUEST_PAGES,
            idle_enclaves: 0,
            warmup,
            measured,
        }
    }

    fn smp(idle_enclaves: u32, warmup: u64, measured: u64) -> Plan {
        Plan {
            pages: 0,
            idle_enclaves,
            warmup,
            measured,
        }
    }
}

/// What a stretch of a run did, in simulated terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Simulated cycles: access latencies plus compute and monitor-op
    /// cycles, as the library's workload runners sum them.
    pub cycles: u64,
    /// Accesses made.
    pub accesses: u64,
    /// Operations attempted: accesses plus monitor ops.
    pub ops: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
}

impl Tally {
    /// Adds `other`'s counts to this tally.
    pub fn add(&mut self, other: Tally) {
        self.cycles += other.cycles;
        self.accesses += other.accesses;
        self.ops += other.ops;
        self.failed += other.failed;
    }

    fn access<E>(&mut self, result: Result<u64, E>) {
        self.accesses += 1;
        self.op(result);
    }

    fn op<E>(&mut self, result: Result<u64, E>) {
        self.ops += 1;
        match result {
            Ok(cycles) => self.cycles += cycles,
            Err(_) => self.failed += 1,
        }
    }
}

/// Host time of a set-up, split at the layer boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Construction: `SystemBuilder::build`, `VirtMachine` construction,
    /// or machine construction plus monitor boot.
    pub build: Duration,
    /// Population: `map_range`, the guest prefault, or tenants and idle
    /// enclaves.
    pub populate: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.build + self.populate
    }
}

/// A set-up workload that can run its stream.
pub trait Runner {
    /// Runs the next `n` operations of the workload's stream.
    fn run(&mut self, n: u64) -> Tally;
    /// Starts the steady state: counters restart (native, guest) or are
    /// baselined (smp-churn, whose monitor counters cannot restart).
    fn mark_steady(&mut self);
    /// The full metrics snapshot, as `metrics_snapshot` returns it.
    fn snapshot(&mut self) -> Snapshot;
    /// Counters accumulated since [`Runner::mark_steady`].
    fn steady_snapshot(&mut self) -> Snapshot;
    /// The library's own cross-layer accounting check.
    fn verify_accounting(&mut self) -> Result<(), String>;
}

/// Sets up `workload` with one sink per machine from `sink`.
pub fn build<S: TraceSink + 'static>(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    mut sink: impl FnMut() -> S,
) -> Result<(Box<dyn Runner>, SetupTimes), String> {
    Ok(match workload {
        Workload::NativeWalk | Workload::NativeTlbHit => {
            let hot = workload == Workload::NativeTlbHit;
            let (runner, times) = Native::setup(plan, hot, seed, sink());
            (Box::new(runner), times)
        }
        Workload::Guest3d => {
            let (runner, times) = Guest::setup(plan, seed, sink())?;
            (Box::new(runner), times)
        }
        Workload::SmpChurn => {
            let (runner, times) = Smp::setup(plan, seed, sink)?;
            (Box::new(runner), times)
        }
    })
}

/// Timed windows a measured phase is split into. A shared host's
/// contention comes in phases that slow everything by up to 1.75×, with
/// quiet stretches of a fraction of a second between them; windows of
/// ~20 ms let the best ones fall in a quiet stretch.
pub const WINDOWS: u64 = 64;

/// One timed window of a measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Host time of the window.
    pub time: Duration,
    /// Accesses it made.
    pub accesses: u64,
}

impl Window {
    /// Host ns per access.
    pub fn ns_per_access(&self) -> f64 {
        self.time.as_nanos() as f64 / self.accesses as f64
    }
}

/// One rep's results.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Set-up host time.
    pub setup: SetupTimes,
    /// The measured phase's [`WINDOWS`] windows, in order.
    pub windows: Vec<Window>,
    /// The warm-up's tally.
    pub warmup: Tally,
    /// The measured phase's tally.
    pub tally: Tally,
    /// Counters of the measured phase.
    pub steady: Snapshot,
}

/// One rep: fresh set-up, untimed warm-up, counters restarted, a measured
/// phase timed in [`WINDOWS`] windows, then the library's accounting check.
/// Returns the runner too, for callers that time more calls on it.
pub fn rep<S: TraceSink + 'static>(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    sink: impl FnMut() -> S,
) -> Result<(Rep, Box<dyn Runner>), String> {
    let (mut runner, setup) = build(workload, plan, seed, sink)?;
    let warmup = runner.run(plan.warmup);
    runner.mark_steady();
    let mut windows = Vec::new();
    let mut tally = Tally::default();
    for w in 0..WINDOWS {
        // Window w runs ops [measured·w/W, measured·(w+1)/W).
        let ops = plan.measured * (w + 1) / WINDOWS - plan.measured * w / WINDOWS;
        let t0 = Instant::now();
        let part = runner.run(ops);
        let time = t0.elapsed();
        windows.push(Window {
            time,
            accesses: part.accesses,
        });
        tally.add(part);
    }
    runner
        .verify_accounting()
        .map_err(|e| format!("{}: accounting check failed: {e}", workload.name()))?;
    let steady = runner.steady_snapshot();
    let rep = Rep {
        setup,
        windows,
        warmup,
        tally,
        steady,
    };
    Ok((rep, runner))
}

/// native-walk and native-tlb-hit: an HPMP-protected Sv39 system from
/// [`SystemBuilder`], S-mode accesses at random 8-byte offsets, 3 reads to
/// 1 write.
#[derive(Debug)]
pub struct Native<S: TraceSink> {
    /// The system under test.
    pub sys: System<S>,
    rng: SplitMix64,
    pages: u64,
    /// Pages the stream draws from; empty means all mapped pages.
    hot: Vec<u64>,
    made: u64,
}

impl<S: TraceSink> Native<S> {
    /// Builds the system and maps `plan.pages` pages; with `hot`, draws the
    /// [`HOT_PAGES`]-page hot set from the seed.
    pub fn setup(plan: &Plan, hot: bool, seed: u64, sink: S) -> (Native<S>, SetupTimes) {
        let t0 = Instant::now();
        let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp)
            .sink(sink)
            .build();
        let build = t0.elapsed();
        let t1 = Instant::now();
        sys.map_range(VirtAddr::new(NATIVE_VA), plan.pages, Perms::RW);
        sys.sync_pt_grants();
        let populate = t1.elapsed();

        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut hot_pages = Vec::new();
        while hot && (hot_pages.len() as u64) < plan.pages.min(HOT_PAGES as u64) {
            let page = rng.gen_range(0..plan.pages);
            if !hot_pages.contains(&page) {
                hot_pages.push(page);
            }
        }
        let native = Native {
            sys,
            rng,
            pages: plan.pages,
            hot: hot_pages,
            made: 0,
        };
        (native, SetupTimes { build, populate })
    }

    fn next_access(&mut self) -> (VirtAddr, AccessKind) {
        let page = if self.hot.is_empty() {
            self.rng.gen_range(0..self.pages)
        } else {
            self.hot[self.rng.gen_range(0..self.hot.len() as u64) as usize]
        };
        let offset = self.rng.gen_range(0..PAGE_SIZE) & !7;
        let kind = if self.made % 4 == 3 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.made += 1;
        (VirtAddr::new(NATIVE_VA + page * PAGE_SIZE + offset), kind)
    }
}

impl<S: TraceSink> Runner for Native<S> {
    fn run(&mut self, n: u64) -> Tally {
        let mut tally = Tally::default();
        for _ in 0..n {
            let (va, kind) = self.next_access();
            let out = self
                .sys
                .machine
                .access(&self.sys.space, va, kind, PrivMode::Supervisor);
            tally.access(out.map(|o| o.cycles));
        }
        tally
    }

    fn mark_steady(&mut self) {
        self.sys.machine.reset_stats();
    }

    fn snapshot(&mut self) -> Snapshot {
        self.sys.machine.metrics_snapshot()
    }

    fn steady_snapshot(&mut self) -> Snapshot {
        self.snapshot()
    }

    fn verify_accounting(&mut self) -> Result<(), String> {
        self.sys.machine.verify_accounting()
    }
}

/// guest-3d: the `run_guest_kv` request shape (compute, two random reads,
/// one write) over a prefaulted guest under `VirtScheme::Hpmp`.
#[derive(Debug)]
pub struct Guest<S: TraceSink> {
    /// The virtualized machine under test.
    pub machine: VirtMachine<S>,
    rng: SplitMix64,
    bytes: u64,
}

impl<S: TraceSink> Guest<S> {
    /// Builds the guest with `plan.pages` pages and writes each once, as a
    /// long-running guest would have.
    pub fn setup(plan: &Plan, seed: u64, sink: S) -> Result<(Guest<S>, SetupTimes), String> {
        let t0 = Instant::now();
        let mut machine =
            VirtMachine::with_sink(MachineConfig::rocket(), VirtScheme::Hpmp, plan.pages, sink);
        let build = t0.elapsed();
        let t1 = Instant::now();
        for page in 0..plan.pages {
            machine
                .access(
                    VirtAddr::new(GUEST_VA + page * PAGE_SIZE),
                    AccessKind::Write,
                )
                .map_err(|f| format!("guest-3d prefault: {f}"))?;
        }
        let populate = t1.elapsed();
        let guest = Guest {
            machine,
            rng: SplitMix64::seed_from_u64(seed),
            bytes: plan.pages * PAGE_SIZE,
        };
        Ok((guest, SetupTimes { build, populate }))
    }
}

impl<S: TraceSink> Runner for Guest<S> {
    fn run(&mut self, requests: u64) -> Tally {
        let mut tally = Tally::default();
        for _ in 0..requests {
            tally.cycles += REQUEST_COMPUTE;
            for kind in [AccessKind::Read, AccessKind::Read, AccessKind::Write] {
                let offset = self.rng.gen_range(0..self.bytes) & !7;
                let out = self.machine.access(VirtAddr::new(GUEST_VA + offset), kind);
                tally.access(out.map(|o| o.cycles));
            }
        }
        tally
    }

    fn mark_steady(&mut self) {
        self.machine.reset_stats();
    }

    fn snapshot(&mut self) -> Snapshot {
        self.machine.metrics_snapshot()
    }

    fn steady_snapshot(&mut self) -> Snapshot {
        self.snapshot()
    }

    fn verify_accounting(&mut self) -> Result<(), String> {
        self.machine.verify_accounting()
    }
}

/// Host time of each monitor op and access batch, recorded only when a
/// traced run asks for it.
#[derive(Clone, Debug, Default)]
pub struct OpClock {
    /// `alloc_on` calls, ns each.
    pub alloc_ns: Vec<f64>,
    /// `free_on` calls, ns each.
    pub free_ns: Vec<f64>,
    /// `switch_on` calls, ns each.
    pub switch_ns: Vec<f64>,
    /// Total ns of the per-round access batches (accesses plus compute).
    pub batch_ns: f64,
    /// Batches timed.
    pub batches: u64,
}

/// smp-churn's shape: the library's `tenancy` SMP workload.
pub fn tenancy_spec() -> SmpWorkloadSpec {
    spec_for("tenancy").expect("tenancy has an SMP shape")
}

/// smp-churn: the `tenancy` round shape on four harts under Penglai-HPMP,
/// the same loop as `hpmp_workloads::smp::run_smp`, run for any number of
/// rounds and optionally beside idle resident enclaves.
#[derive(Debug)]
pub struct Smp<S: TraceSink> {
    /// The system under test.
    pub smp: SmpSystem<S>,
    tenants: Vec<SmpTenant>,
    rngs: Vec<SplitMix64>,
    steps_of: Vec<u32>,
    scheduler: HartScheduler,
    spec: SmpWorkloadSpec,
    baseline: Snapshot,
    /// Per-op host timings; `None` (the default) records nothing.
    pub clock: Option<OpClock>,
}

impl<S: TraceSink> Smp<S> {
    /// Boots the monitor over [`SMP_HARTS`] machines (one sink each from
    /// `sink`), sets up one tenant per hart, then creates
    /// `plan.idle_enclaves` idle enclaves from hart 0.
    pub fn setup(
        plan: &Plan,
        seed: u64,
        mut sink: impl FnMut() -> S,
    ) -> Result<(Smp<S>, SetupTimes), String> {
        let spec = tenancy_spec();
        let t0 = Instant::now();
        let machines = (0..SMP_HARTS)
            .map(|_| Machine::with_sink(MachineConfig::rocket(), sink()))
            .collect();
        let ram = PmpRegion::new(PhysAddr::new(RAM_BASE), RAM_SIZE);
        let mut smp = SmpSystem::boot_machines(machines, TeeFlavor::PenglaiHpmp, ram)
            .map_err(|e| format!("smp-churn boot: {e}"))?;
        let build = t0.elapsed();
        let t1 = Instant::now();
        let tenants = setup_tenants(&mut smp, spec.footprint_pages)
            .map_err(|e| format!("smp-churn tenants: {e}"))?;
        for _ in 0..plan.idle_enclaves {
            smp.create_domain_on(0, IDLE_ENCLAVE_BYTES, GmsLabel::Slow)
                .map_err(|e| format!("smp-churn idle enclave: {e}"))?;
        }
        let populate = t1.elapsed();
        // The per-hart stream seeds of `run_smp`.
        let rngs = (0..SMP_HARTS as u64)
            .map(|h| SplitMix64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(h + 1)))
            .collect();
        let runner = Smp {
            smp,
            tenants,
            rngs,
            steps_of: vec![0; SMP_HARTS],
            scheduler: HartScheduler::fair(seed, SMP_HARTS),
            spec,
            baseline: Snapshot::new(),
            clock: None,
        };
        Ok((runner, SetupTimes { build, populate }))
    }
}

/// Runs `op`, recording its host time in `samples` of `clock` when the
/// clock is on.
fn timed<R>(
    clock: &mut Option<OpClock>,
    samples: fn(&mut OpClock) -> &mut Vec<f64>,
    op: impl FnOnce() -> R,
) -> R {
    let Some(clock) = clock else {
        return op();
    };
    let t0 = Instant::now();
    let result = op();
    samples(clock).push(t0.elapsed().as_nanos() as f64);
    result
}

impl<S: TraceSink> Runner for Smp<S> {
    fn run(&mut self, rounds: u64) -> Tally {
        let mut tally = Tally::default();
        let spec = self.spec;
        for _ in 0..rounds {
            let hart = self.scheduler.next_hart();
            let h = usize::from(hart);
            self.steps_of[h] += 1;
            let tenant = &self.tenants[h];

            let began = self.clock.is_some().then(Instant::now);
            let machine = self.smp.machine(hart);
            for i in 0..spec.batch {
                let page = self.rngs[h].gen_range(0..tenant.pages);
                let va = VirtAddr::new(tenant.va_base.raw() + page * PAGE_SIZE);
                let kind = if i % 4 == 3 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let out = machine.access(&tenant.space, va, kind, PrivMode::User);
                tally.access(out.map(|o| o.cycles));
            }
            tally.cycles += machine.run_compute(spec.compute);
            if let (Some(clock), Some(t0)) = (self.clock.as_mut(), began) {
                clock.batch_ns += t0.elapsed().as_nanos() as f64;
                clock.batches += 1;
            }

            let domain = tenant.domain;
            let smp = &mut self.smp;
            if spec.churn_every != 0 && self.steps_of[h].is_multiple_of(spec.churn_every) {
                // Grow-then-shrink: a GMS grant and revoke, each a shootdown.
                let alloc = timed(
                    &mut self.clock,
                    |c| &mut c.alloc_ns,
                    || smp.alloc_on(hart, domain, CHURN_BYTES, GmsLabel::Slow),
                );
                tally.op(alloc.as_ref().map(|&(_, cycles)| cycles));
                if let Ok((region, _)) = alloc {
                    let free = timed(
                        &mut self.clock,
                        |c| &mut c.free_ns,
                        || smp.free_on(hart, domain, region.base),
                    );
                    tally.op(free);
                }
            }
            if spec.switch_every != 0 && self.steps_of[h].is_multiple_of(spec.switch_every) {
                // Host round-trip: an ecall-style exit and re-entry.
                for target in [DomainId::HOST, domain] {
                    let switch = timed(
                        &mut self.clock,
                        |c| &mut c.switch_ns,
                        || smp.switch_on(hart, target),
                    );
                    tally.op(switch);
                }
            }
        }
        tally
    }

    fn mark_steady(&mut self) {
        self.baseline = self.smp.metrics_snapshot();
    }

    fn snapshot(&mut self) -> Snapshot {
        self.smp.metrics_snapshot()
    }

    fn steady_snapshot(&mut self) -> Snapshot {
        self.smp.metrics_snapshot().delta(&self.baseline)
    }

    fn verify_accounting(&mut self) -> Result<(), String> {
        self.smp.verify_accounting()
    }
}

/// Correctness preflight, run before any timing: cold-walk reference
/// counts must match the paper. Native PMP / PMP Table / HPMP walks make
/// 4 / 12 / 6 references (Figures 2 and 4); virtualized PMP / PMP Table /
/// HPMP / HPMP-GPT walks make 16 / 48 / 24 / 18 (Figure 8).
pub fn preflight() -> Result<(), String> {
    let va = VirtAddr::new(NATIVE_VA);
    let native = [
        (IsolationScheme::Pmp, 4),
        (IsolationScheme::PmpTable, 12),
        (IsolationScheme::Hpmp, 6),
    ];
    for (scheme, want) in native {
        let mut sys = SystemBuilder::new(MachineConfig::rocket(), scheme).build();
        sys.map_range(va, 1, Perms::RW);
        sys.sync_pt_grants();
        sys.machine.flush_microarch();
        let refs = sys
            .machine
            .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
            .map_err(|f| format!("preflight: native {scheme} cold walk faulted: {f}"))?
            .refs
            .total();
        if refs != want {
            return Err(format!(
                "preflight: native {scheme} cold walk made {refs} references, the paper's {want}"
            ));
        }
    }
    let virt = [
        (VirtScheme::Pmp, 16),
        (VirtScheme::PmpTable, 48),
        (VirtScheme::Hpmp, 24),
        (VirtScheme::HpmpGpt, 18),
    ];
    for (scheme, want) in virt {
        let mut machine = VirtMachine::new(MachineConfig::rocket(), scheme, 1);
        machine.flush_microarch();
        let refs = machine
            .access(VirtAddr::new(GUEST_VA), AccessKind::Read)
            .map_err(|f| format!("preflight: virtualized {scheme} cold walk faulted: {f}"))?
            .refs
            .total();
        if refs != want {
            return Err(format!(
                "preflight: virtualized {scheme} cold walk made {refs} references, the paper's {want}"
            ));
        }
    }
    Ok(())
}
