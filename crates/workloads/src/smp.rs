//! Multi-hart (SMP) workload harness: one tenant enclave per hart over a
//! shared [`SmpSystem`], driven by a seeded deterministic interleaver.
//!
//! Each of the paper's workload names maps to an [`SmpWorkloadSpec`] —
//! batch size, footprint, compute share, and how often the tenant churns
//! memory (alloc + free, which triggers a cross-hart shootdown) or
//! round-trips through the host (domain switches, which broadcast
//! fences). The *access* path goes through each hart's real machine
//! ([`hpmp_machine::Machine::access`]) so private TLBs, PWCs and
//! PMPTW-Caches are exercised — the state the shootdown protocol exists to
//! keep coherent.
//!
//! One entry runs every shape: [`run_smp_with`] takes pre-built machines,
//! flavour, seed, spec and a [`RunOptions`] value carrying the execution
//! backend and the telemetry request. [`run_smp`] and [`run_smp_backend`]
//! are thin wrappers over fresh, untraced machines. The aging campaign
//! ([`crate::aging`]) boots, batches and finishes through the same
//! harness.
//!
//! Determinism: the hart interleaving comes from
//! [`HartScheduler`] and each hart's access pattern from
//! its own `SplitMix64` stream, both derived from the run seed. Neither
//! depends on `--jobs` or on the backend, so the artifacts are
//! byte-identical at any parallelism.

use hpmp_machine::{ExecBackend, HartScheduler, Machine};
use hpmp_memsim::{
    AccessKind, CoreKind, FrameAllocator, PhysAddr, PrivMode, SplitMix64, VirtAddr, PAGE_SIZE,
};
use hpmp_paging::{AddressSpace, TranslationMode};
use hpmp_penglai::{DomainId, GmsLabel, MonitorError, SmpSystem, TeeFlavor};
use hpmp_trace::{Snapshot, SpanCollector, TimelineSink, TraceSink};

use crate::fixture::{config_for, RAM_BASE, RAM_SIZE};

/// Base virtual address of every tenant's data window.
const TENANT_VA_BASE: u64 = 0x10_0000;
/// Per-tenant PT-pool GMS size (NAPOT).
const POOL_SIZE: u64 = 256 * 1024;

/// Shape of one SMP workload: how each hart's tenant behaves between
/// scheduler steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmpWorkloadSpec {
    /// Workload name (one of the `hpmpsim` workload names).
    pub name: &'static str,
    /// Total scheduler steps (across all harts).
    pub rounds: u32,
    /// Data accesses per step.
    pub batch: u32,
    /// Mapped pages per tenant.
    pub footprint_pages: u64,
    /// Compute instructions per step.
    pub compute: u64,
    /// Every N steps of a hart, its tenant allocates and frees a region —
    /// a GMS permission change that must shoot down every other hart.
    /// 0 = never.
    pub churn_every: u32,
    /// Every N steps of a hart, it round-trips through the host — two
    /// domain switches, each broadcasting fences. 0 = never.
    pub switch_every: u32,
}

/// The spec for an `hpmpsim` workload name, if it has an SMP shape.
pub fn spec_for(name: &str) -> Option<SmpWorkloadSpec> {
    let spec = |rounds, batch, footprint_pages, compute, churn_every, switch_every, name| {
        SmpWorkloadSpec {
            name,
            rounds,
            batch,
            footprint_pages,
            compute,
            churn_every,
            switch_every,
        }
    };
    Some(match name {
        // Cold-start heavy: small footprints, frequent host round-trips.
        "serverless" => spec(96, 8, 64, 200, 0, 6, "serverless"),
        // Key-value serving: bigger working set, periodic host round-trips.
        "redis" => spec(128, 16, 128, 100, 0, 16, "redis"),
        // Graph analytics: large irregular footprint, no monitor traffic.
        "gap" => spec(96, 24, 256, 60, 0, 0, "gap"),
        // CPU-bound suite: compute dominates, little monitor traffic.
        "rv8" => spec(96, 8, 96, 500, 0, 0, "rv8"),
        // Syscall microbenchmarks: tiny touches, frequent switches.
        "lmbench" => spec(128, 4, 32, 40, 0, 8, "lmbench"),
        // Virtualized app stand-in: medium footprint and switch rate.
        "virtapp" => spec(64, 12, 128, 150, 0, 12, "virtapp"),
        // Multi-tenant churn: the shootdown stress case — allocs, frees
        // and switches continually.
        "tenancy" => spec(96, 6, 48, 80, 8, 4, "tenancy"),
        _ => return None,
    })
}

/// One hart's tenant: its enclave domain and user address space.
#[derive(Debug)]
pub struct SmpTenant {
    /// The enclave domain scheduled on this hart.
    pub domain: DomainId,
    /// The tenant's user address space (PT pages in its pool GMS).
    pub space: AddressSpace,
    /// Mapped pages starting at [`SmpTenant::va_base`].
    pub pages: u64,
    /// First mapped virtual address.
    pub va_base: VirtAddr,
}

/// Boots one enclave tenant per hart on `smp`: a PT-pool GMS (fast under
/// HPMP, so it becomes a segment), a data GMS sized to `footprint_pages`,
/// an address space with `footprint_pages` user pages mapped over the data
/// region, and a domain switch scheduling the tenant on its hart.
///
/// # Errors
///
/// Propagates monitor errors (undersized RAM, entry walls).
pub fn setup_tenants<S: TraceSink>(
    smp: &mut SmpSystem<S>,
    footprint_pages: u64,
) -> Result<Vec<SmpTenant>, MonitorError> {
    let pool_label = if smp.monitor().flavor() == TeeFlavor::PenglaiHpmp {
        GmsLabel::Fast
    } else {
        GmsLabel::Slow
    };
    let harts = smp.harts() as u16;
    let mut tenants = Vec::new();
    for hart in 0..harts {
        let (domain, _) = smp.create_domain_on(hart, POOL_SIZE, pool_label)?;
        let pool = smp.monitor().regions_of(domain)?[0].region;
        let data_size = (footprint_pages * PAGE_SIZE).max(PAGE_SIZE);
        let (data, _) = smp.alloc_on(hart, domain, data_size, GmsLabel::Slow)?;
        smp.switch_on(hart, domain)?;

        let mut frames = FrameAllocator::new(pool.base, pool.size);
        let machine = smp.machine(hart);
        let mut space = AddressSpace::new(
            TranslationMode::Sv39,
            hart + 1,
            machine.phys_mut(),
            &mut frames,
        )
        .expect("PT pool sized for the footprint");
        let va_base = VirtAddr::new(TENANT_VA_BASE);
        for page in 0..footprint_pages {
            space
                .map_page(
                    machine.phys_mut(),
                    &mut frames,
                    VirtAddr::new(va_base.raw() + page * PAGE_SIZE),
                    PhysAddr::new(data.base.raw() + page * PAGE_SIZE),
                    hpmp_memsim::Perms::RW,
                    true,
                )
                .expect("data GMS sized for the footprint");
        }
        tenants.push(SmpTenant {
            domain,
            space,
            pages: footprint_pages,
            va_base,
        });
    }
    Ok(tenants)
}

/// Result of one SMP workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmpOutcome {
    /// Harts simulated.
    pub harts: u32,
    /// Total modelled cycles: accesses + compute + monitor ops + shootdown
    /// stalls, across all harts.
    pub total_cycles: u64,
    /// Data accesses performed.
    pub accesses: u64,
    /// Shootdown IPIs delivered.
    pub ipis_delivered: u64,
}

/// What an SMP run should record beyond counters. The default records
/// nothing and is exactly the untraced path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmpTelemetrySpec {
    /// Cut a timeline slice every N global simulated cycles.
    pub snapshot_interval: Option<u64>,
    /// Collect monitor-operation/shootdown spans, retaining at most this
    /// many (overflow is counted in `trace.dropped.spans`).
    pub span_capacity: Option<usize>,
}

impl SmpTelemetrySpec {
    /// Default bound on retained spans when only an output path was given.
    pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;
}

/// The time-resolved artifacts of one SMP run.
#[derive(Clone, Debug, Default)]
pub struct SmpTelemetry {
    /// Periodic snapshot slices (present iff an interval was requested).
    /// Already finished: its slices re-sum to the returned snapshot.
    pub timeline: Option<TimelineSink>,
    /// Collected spans (present iff a capacity was requested).
    pub spans: Option<SpanCollector>,
}

/// How an SMP run executes and what it records beyond counters.
///
/// Timeline slices and spans live on the global simulated clock, which
/// only advances serially, so a threaded run records counters only: no
/// value of this type asks for both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOptions {
    /// The seeded single-threaded interleaver, recording the requested
    /// telemetry.
    Deterministic(SmpTelemetrySpec),
    /// One OS thread per hart between monitor operations, sharded
    /// physical memory, per-hart metric arenas. Outcomes and snapshots are
    /// byte-identical to the deterministic backend's.
    Threaded,
}

/// [`RunOptions::new`]'s refusal: telemetry was requested on the threaded
/// backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadedTelemetry;

impl std::fmt::Display for ThreadedTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("time-resolved telemetry requires --backend deterministic")
    }
}

impl std::error::Error for ThreadedTelemetry {}

impl RunOptions {
    /// Options for `backend` recording `telemetry`.
    ///
    /// # Errors
    ///
    /// [`ThreadedTelemetry`] if `backend` is threaded and `telemetry`
    /// requests anything.
    pub fn new(
        backend: ExecBackend,
        telemetry: SmpTelemetrySpec,
    ) -> Result<RunOptions, ThreadedTelemetry> {
        match backend {
            ExecBackend::Deterministic => Ok(RunOptions::Deterministic(telemetry)),
            ExecBackend::Threaded if telemetry == SmpTelemetrySpec::default() => {
                Ok(RunOptions::Threaded)
            }
            ExecBackend::Threaded => Err(ThreadedTelemetry),
        }
    }

    /// The execution backend.
    pub fn backend(self) -> ExecBackend {
        match self {
            RunOptions::Deterministic(_) => ExecBackend::Deterministic,
            RunOptions::Threaded => ExecBackend::Threaded,
        }
    }

    fn telemetry(self) -> SmpTelemetrySpec {
        match self {
            RunOptions::Deterministic(telemetry) => telemetry,
            RunOptions::Threaded => SmpTelemetrySpec::default(),
        }
    }
}

impl From<ExecBackend> for RunOptions {
    /// Counters-only options for `backend`.
    fn from(backend: ExecBackend) -> RunOptions {
        match backend {
            ExecBackend::Deterministic => RunOptions::Deterministic(SmpTelemetrySpec::default()),
            ExecBackend::Threaded => RunOptions::Threaded,
        }
    }
}

/// Runs `spec` on `harts` fresh machines under `flavor`, untraced.
///
/// # Errors
///
/// Propagates monitor errors.
pub fn run_smp(
    flavor: TeeFlavor,
    core: CoreKind,
    harts: usize,
    seed: u64,
    spec: SmpWorkloadSpec,
) -> Result<(SmpOutcome, Snapshot), MonitorError> {
    run_smp_backend(flavor, core, harts, seed, spec, ExecBackend::Deterministic)
}

/// As [`run_smp`], selecting the SMP execution backend. The two backends
/// produce identical outcomes and metric snapshots by construction (the
/// cross-backend conformance battery byte-compares them); only wall-clock
/// differs.
///
/// # Errors
///
/// Propagates monitor errors.
pub fn run_smp_backend(
    flavor: TeeFlavor,
    core: CoreKind,
    harts: usize,
    seed: u64,
    spec: SmpWorkloadSpec,
    backend: ExecBackend,
) -> Result<(SmpOutcome, Snapshot), MonitorError> {
    let machines = (0..harts).map(|_| Machine::new(config_for(core))).collect();
    let (outcome, snapshot, _, _) = run_smp_with(machines, flavor, seed, spec, backend.into())?;
    Ok((outcome, snapshot))
}

/// Runs `spec` over pre-built machines (one per hart, e.g. each with its
/// own trace sink). Returns the outcome, the merged metrics snapshot
/// (`hart.<i>.*`, `smp.*`, `monitor.*`, `trace.*`), the per-hart sinks in
/// hart order, and the telemetry `options` asked for.
///
/// The seeded interleaving is precomputed as a round plan and executed in
/// *epochs*, each closed by one round's monitor ops (churn, then switch).
/// The deterministic backend runs one round per epoch, so timeline
/// boundaries are sampled every round. The threaded backend runs every
/// round up to and including the next one with monitor ops as one
/// parallel epoch: a round's accesses precede its monitor ops, each
/// hart's access stream depends only on its own RNG and round count, and
/// counters are order-independent sums, so the result is byte-identical.
///
/// Telemetry is pure observation: apart from the `trace.*` accounting
/// counters, outcome and snapshot equal the untraced run's, and both
/// artifacts are byte-identical at any `--jobs`.
///
/// # Errors
///
/// Propagates monitor errors.
pub fn run_smp_with<S: TraceSink + Send>(
    machines: Vec<Machine<S>>,
    flavor: TeeFlavor,
    seed: u64,
    spec: SmpWorkloadSpec,
    options: RunOptions,
) -> Result<(SmpOutcome, Snapshot, Vec<S>, SmpTelemetry), MonitorError> {
    let ram = hpmp_core::PmpRegion::new(PhysAddr::new(RAM_BASE), RAM_SIZE);
    let mut run = Harness::boot(machines, flavor, ram, spec.footprint_pages, seed, options)?;
    run.start();
    let plan = round_plan(seed, run.works.len(), spec);

    let mut total_cycles = 0u64;
    let mut accesses = 0u64;
    let mut start = 0usize;
    while start < plan.len() {
        let stop = match options {
            RunOptions::Deterministic(_) => start + 1,
            RunOptions::Threaded => plan[start..]
                .iter()
                .position(|round| round.churn || round.switch)
                .map_or(plan.len(), |i| start + i + 1),
        };
        for work in &mut run.works {
            work.rounds = 0;
        }
        for round in &plan[start..stop] {
            run.works[usize::from(round.hart)].rounds += 1;
        }
        let (cycles, count) = run.epoch(spec.batch, spec.compute);
        total_cycles += cycles;
        accesses += count;

        let last = plan[stop - 1];
        let domain = run.works[usize::from(last.hart)].tenant.domain;
        let smp = &mut run.smp;
        if last.churn {
            // Grow-then-shrink: a GMS grant and revoke, each a shootdown.
            let (region, cycles) = smp.alloc_on(last.hart, domain, 64 * 1024, GmsLabel::Slow)?;
            total_cycles += cycles + smp.free_on(last.hart, domain, region.base)?;
        }
        if last.switch {
            // Host round-trip: an ecall-style exit and re-entry.
            total_cycles += smp.switch_on(last.hart, DomainId::HOST)?;
            total_cycles += smp.switch_on(last.hart, domain)?;
        }
        run.sample();
        start = stop;
    }

    let harts = run.works.len() as u32;
    let (snapshot, sinks, telemetry) = run.finish();
    let outcome = SmpOutcome {
        harts,
        total_cycles,
        accesses,
        ipis_delivered: snapshot.value("smp.ipis_delivered"),
    };
    Ok((outcome, snapshot, sinks, telemetry))
}

/// One scheduler round of the seeded interleaving: which hart runs, and
/// whether its tenant churns memory or round-trips through the host
/// afterwards.
#[derive(Clone, Copy, Debug)]
struct RoundPlan {
    hart: u16,
    churn: bool,
    switch: bool,
}

/// The interleaving [`HartScheduler`] draws for `spec`, round by round.
fn round_plan(seed: u64, harts: usize, spec: SmpWorkloadSpec) -> Vec<RoundPlan> {
    let mut scheduler = HartScheduler::fair(seed, harts);
    let mut steps_of = vec![0u32; harts];
    (0..spec.rounds)
        .map(|_| {
            let hart = scheduler.next_hart();
            let steps = &mut steps_of[usize::from(hart)];
            *steps += 1;
            let every = |n: u32| n != 0 && steps.is_multiple_of(n);
            RoundPlan {
                hart,
                churn: every(spec.churn_every),
                switch: every(spec.switch_every),
            }
        })
        .collect()
}

/// One hart's tenant and private access stream, plus the rounds it runs in
/// the current epoch — everything the epoch body needs, moved onto the
/// hart's thread under the threaded backend.
#[derive(Debug)]
pub(crate) struct HartWork {
    pub(crate) tenant: SmpTenant,
    rng: SplitMix64,
    pub(crate) rounds: u32,
}

impl HartWork {
    /// The tenant batch loop: `rounds` times, `batch` accesses to random
    /// mapped pages (every fourth a write), then `compute` instructions.
    /// Returns `(cycles, accesses)`.
    fn run<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        batch: u32,
        compute: u64,
    ) -> (u64, u64) {
        let mut cycles = 0u64;
        for _ in 0..self.rounds {
            for i in 0..batch {
                let page = self.rng.gen_range(0..self.tenant.pages);
                let va = VirtAddr::new(self.tenant.va_base.raw() + page * PAGE_SIZE);
                let kind = if i % 4 == 3 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                cycles += machine
                    .access(&self.tenant.space, va, kind, PrivMode::User)
                    .expect("tenant reaches its own memory")
                    .cycles;
            }
            cycles += machine.run_compute(compute);
        }
        (cycles, u64::from(self.rounds) * u64::from(batch))
    }
}

/// A booted SMP run: the system, one [`HartWork`] per hart, and the
/// telemetry being recorded. Shared by [`run_smp_with`] and the aging
/// campaign.
pub(crate) struct Harness<S: TraceSink> {
    pub(crate) smp: SmpSystem<S>,
    pub(crate) works: Vec<HartWork>,
    options: RunOptions,
    timeline: Option<TimelineSink>,
}

impl<S: TraceSink + Send> Harness<S> {
    /// Boots `machines` over `ram` and sets up one tenant of `pages` pages
    /// per hart with its seeded access stream.
    pub(crate) fn boot(
        machines: Vec<Machine<S>>,
        flavor: TeeFlavor,
        ram: hpmp_core::PmpRegion,
        pages: u64,
        seed: u64,
        options: RunOptions,
    ) -> Result<Harness<S>, MonitorError> {
        let mut smp = SmpSystem::boot_machines(machines, flavor, ram)?;
        let telemetry = options.telemetry();
        if let Some(capacity) = telemetry.span_capacity {
            // Enabled before tenant setup so the boot-phase ops are spanned
            // too — the paper's boot → churn → steady-state story needs them.
            smp.enable_spans(capacity);
        }
        let works = setup_tenants(&mut smp, pages)?
            .into_iter()
            .enumerate()
            .map(|(h, tenant)| HartWork {
                tenant,
                // Decorrelated from the interleaver and from each other.
                rng: SplitMix64::seed_from_u64(
                    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(h as u64 + 1)),
                ),
                rounds: 0,
            })
            .collect();
        Ok(Harness {
            smp,
            works,
            options,
            timeline: telemetry.snapshot_interval.map(TimelineSink::new),
        })
    }

    /// Unshares physical memory and goes parallel if the run is threaded.
    /// Call once setup is done.
    pub(crate) fn start(&mut self) {
        if self.options == RunOptions::Threaded {
            self.smp.enable_threaded();
        }
    }

    /// Runs every hart's assigned rounds — on the hart threads under the
    /// threaded backend, hart by hart otherwise. Returns `(cycles,
    /// accesses)`.
    pub(crate) fn epoch(&mut self, batch: u32, compute: u64) -> (u64, u64) {
        let per_hart: Vec<(u64, u64)> = if self.options == RunOptions::Threaded {
            self.smp
                .parallel_epoch(&mut self.works, |_, machine, work| {
                    work.run(machine, batch, compute)
                })
        } else {
            let smp = &mut self.smp;
            self.works
                .iter_mut()
                .enumerate()
                .filter(|(_, work)| work.rounds > 0)
                .map(|(h, work)| work.run(smp.machine(h as u16), batch, compute))
                .collect()
        };
        per_hart
            .into_iter()
            .fold((0, 0), |(c, a), (cycles, accesses)| {
                (c + cycles, a + accesses)
            })
    }

    /// Cuts a timeline slice if one is due. Boundaries are checked on the
    /// deterministic simulated clock, so slices are ≥ the interval wide
    /// and byte-identical at any `--jobs`.
    pub(crate) fn sample(&mut self) {
        if let Some(timeline) = self.timeline.as_mut() {
            let now = self.smp.global_cycles();
            if timeline.due(now) {
                timeline.record(now, &self.smp.metrics_snapshot());
            }
        }
    }

    /// Drains pending shootdowns and sinks, then snapshots. The tail slice
    /// closes against that exact snapshot, so re-summing every slice
    /// reproduces it byte-for-byte.
    pub(crate) fn finish(mut self) -> (Snapshot, Vec<S>, SmpTelemetry) {
        self.smp.quiesce();
        self.smp.flush_sinks();
        let snapshot = self.smp.metrics_snapshot();
        if let Some(timeline) = self.timeline.as_mut() {
            timeline.finish(self.smp.global_cycles(), &snapshot);
        }
        let spans = self
            .options
            .telemetry()
            .span_capacity
            .map(|_| self.smp.take_spans());
        let telemetry = SmpTelemetry {
            timeline: self.timeline,
            spans,
        };
        (snapshot, self.smp.into_sinks(), telemetry)
    }
}

/// The `hpmpsim` workload names that have SMP shapes, in report order.
pub const SMP_WORKLOADS: [&str; 7] = [
    "serverless",
    "redis",
    "gap",
    "rv8",
    "lmbench",
    "virtapp",
    "tenancy",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_name_has_a_spec() {
        for name in SMP_WORKLOADS {
            assert!(spec_for(name).is_some(), "{name} has no SMP spec");
        }
        assert!(spec_for("nonesuch").is_none());
    }

    #[test]
    fn runs_deterministically() {
        let spec = spec_for("tenancy").unwrap();
        let (a, snap_a) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 42, spec).unwrap();
        let (b, snap_b) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 42, spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(snap_a.to_json(), snap_b.to_json());
        let (c, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 43, spec).unwrap();
        assert_ne!(a.total_cycles, c.total_cycles, "seed must matter");
    }

    #[test]
    fn churny_workload_shoots_down_remote_harts() {
        let spec = spec_for("tenancy").unwrap();
        let (out, snap) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 4, 7, spec).unwrap();
        assert!(out.ipis_delivered > 0, "churn must trigger shootdowns");
        for hart in 0..4 {
            assert!(
                snap.value(&format!("hart.{hart}.ipis_received")) > 0,
                "hart {hart} never received an IPI"
            );
        }
        // Every hart did real memory work.
        for hart in 0..4 {
            assert!(snap.value(&format!("hart.{hart}.machine.accesses")) > 0);
        }
    }

    #[test]
    fn telemetry_slices_resum_to_the_final_snapshot() {
        use hpmp_machine::MachineConfig;

        let spec = spec_for("tenancy").unwrap();
        let telemetry = SmpTelemetrySpec {
            snapshot_interval: Some(20_000),
            span_capacity: Some(1 << 16),
        };
        let machines = (0..2)
            .map(|_| Machine::new(MachineConfig::rocket()))
            .collect();
        let (_, snapshot, _, out) = run_smp_with(
            machines,
            TeeFlavor::PenglaiHpmp,
            42,
            spec,
            RunOptions::Deterministic(telemetry),
        )
        .unwrap();
        let timeline = out.timeline.expect("requested");
        assert!(timeline.slices().len() > 1, "run spans several slices");
        assert_eq!(
            timeline.resum().to_json_versioned(),
            snapshot.to_json_versioned(),
            "slice deltas must re-sum to the final snapshot byte-for-byte"
        );
        let spans = out.spans.expect("requested");
        assert!(!spans.is_empty(), "tenancy churns: ops must be spanned");
        assert_eq!(spans.dropped(), 0);
    }

    #[test]
    fn telemetry_is_pure_observation_and_deterministic() {
        use hpmp_machine::MachineConfig;

        let spec = spec_for("tenancy").unwrap();
        let run = |telemetry| {
            let machines = (0..2)
                .map(|_| Machine::new(MachineConfig::rocket()))
                .collect();
            run_smp_with(
                machines,
                TeeFlavor::PenglaiHpmp,
                42,
                spec,
                RunOptions::Deterministic(telemetry),
            )
            .unwrap()
        };
        let telemetry = SmpTelemetrySpec {
            snapshot_interval: Some(25_000),
            span_capacity: Some(1 << 16),
        };
        let (out_plain, _, _, _) = run(SmpTelemetrySpec::default());
        let (out_a, _, _, tel_a) = run(telemetry);
        let (out_b, _, _, tel_b) = run(telemetry);
        assert_eq!(out_plain, out_a, "telemetry must not perturb the run");

        let render = |tel: &SmpTelemetry| {
            let mut bytes = Vec::new();
            tel.timeline
                .as_ref()
                .unwrap()
                .write_jsonl(&mut bytes)
                .unwrap();
            tel.spans.as_ref().unwrap().write_jsonl(&mut bytes).unwrap();
            bytes
        };
        assert_eq!(out_a, out_b);
        assert_eq!(
            render(&tel_a),
            render(&tel_b),
            "telemetry artifacts must be byte-identical across runs"
        );
    }

    #[test]
    fn threaded_backend_matches_deterministic_exactly() {
        let spec = spec_for("tenancy").unwrap();
        let (det, det_snap) =
            run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 42, spec).unwrap();
        let (thr, thr_snap) = run_smp_backend(
            TeeFlavor::PenglaiHpmp,
            CoreKind::Rocket,
            2,
            42,
            spec,
            ExecBackend::Threaded,
        )
        .unwrap();
        assert_eq!(det, thr, "outcomes must agree across backends");
        assert_eq!(
            det_snap.to_json_versioned(),
            thr_snap.to_json_versioned(),
            "merged counter snapshots must be byte-identical across backends"
        );
    }

    #[test]
    fn threaded_runs_refuse_telemetry_with_a_typed_error() {
        let telemetry = SmpTelemetrySpec {
            snapshot_interval: Some(25_000),
            span_capacity: None,
        };
        assert_eq!(
            RunOptions::new(ExecBackend::Threaded, telemetry),
            Err(ThreadedTelemetry)
        );
        assert_eq!(
            RunOptions::new(ExecBackend::Threaded, SmpTelemetrySpec::default()),
            Ok(RunOptions::Threaded)
        );
        assert_eq!(
            RunOptions::new(ExecBackend::Deterministic, telemetry),
            Ok(RunOptions::Deterministic(telemetry))
        );
    }

    #[test]
    fn churn_rate_orders_shootdown_traffic() {
        // gap performs no monitor ops after setup, so its IPI count is the
        // fixed setup cost; tenancy churns continually and must exceed it.
        let gap = spec_for("gap").unwrap();
        let tenancy = spec_for("tenancy").unwrap();
        let (quiet, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 7, gap).unwrap();
        let (churny, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 7, tenancy).unwrap();
        assert!(
            churny.ipis_delivered > quiet.ipis_delivered,
            "churn must add shootdowns: {} vs {}",
            churny.ipis_delivered,
            quiet.ipis_delivered
        );
    }
}
