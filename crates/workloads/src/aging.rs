//! Fleet-churn aging campaign: thousands of enclave lifecycles over a
//! deliberately small physical arena, long enough to exhaust it and drive
//! the monitor's staged degradation ladder (normal → compacting →
//! table-only → admission control).
//!
//! The fleet is CoVE-style: a few **pinned residents** (one per hart,
//! with live guest page tables — the domains a cloud host cannot relocate)
//! plus a churning population of short-lived enclaves. A seeded fraction
//! of churn enclaves is *immortal* — never destroyed — so fragmentation
//! and base load ratchet upward until fast NAPOT placement fails, then
//! compaction runs out of holes, then even page-granular table mode runs
//! dry and the monitor pushes `ResourceExhausted` backpressure at the
//! host, which relieves it by evicting the oldest mortal enclave.
//!
//! Every churn enclave carries a **canary**: a seeded `u64` written at its
//! region base at create time and asserted at destroy time *from the
//! region's current base* — if compaction relocated the enclave, the
//! canary proves its bytes moved with it. A host-side **probe** after
//! every lifecycle compares the hardware fast path against the monitor's
//! cache-free oracle at the affected base, so a fast-path grant the oracle
//! denies (the fail-open bug class) is counted, not silently survived.
//!
//! The campaign runs on the SMP harness of [`crate::smp`]:
//! [`run_aging_with`] takes pre-built machines and a
//! [`RunOptions`](crate::smp::RunOptions) value (backend plus telemetry),
//! and [`run_aging`] wraps it over fresh machines. Residents touch their
//! working sets through the same tenant batch loop as the SMP workloads.
//!
//! Determinism: all churn decisions come from one `SplitMix64` stream and
//! every monitor operation is serial under both backends, so outcomes and
//! metric snapshots are byte-identical across `--jobs` and across the
//! deterministic/threaded backends (the access phases between lifecycles
//! are the only parallel work, and those are per-hart-RNG pure).

use hpmp_core::PmptwCache;
use hpmp_machine::{ExecBackend, Machine};
use hpmp_memsim::{AccessKind, CoreKind, PhysAddr, PrivMode, SplitMix64};
use hpmp_penglai::{DegradeStage, DomainId, GmsLabel, MonitorError, SmpSystem, TeeFlavor};
use hpmp_trace::{Snapshot, TraceSink};

use crate::fixture::{config_for, RAM_BASE};
use crate::smp::{Harness, RunOptions, SmpTelemetry};

/// NAPOT RAM for the aging fleet: the monitor's 128 MiB floor, leaving a
/// ~64 MiB region arena — small enough that a thousand-lifecycle churn
/// run exhausts it and walks the whole degradation ladder.
pub const AGING_RAM_SIZE: u64 = 128 << 20;

/// Default lifecycle count for the `aging` scenario.
pub const DEFAULT_CHURN_OPS: u32 = 1200;

/// Shape of one aging campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AgingSpec {
    /// Enclave lifecycle operations (creates/destroys, reliefs included).
    pub churn_ops: u32,
    /// Mapped pages per pinned resident.
    pub resident_pages: u64,
    /// Resident data accesses per hart between lifecycles.
    pub batch: u32,
}

impl AgingSpec {
    /// The spec the `hpmpsim --scenario aging` run uses, with `churn_ops`
    /// lifecycles.
    pub fn with_ops(churn_ops: u32) -> AgingSpec {
        AgingSpec {
            churn_ops,
            resident_pages: 16,
            batch: 4,
        }
    }
}

/// One live churn enclave.
#[derive(Clone, Copy, Debug)]
struct ChurnEnclave {
    domain: DomainId,
    canary: u64,
    immortal: bool,
}

/// Everything one aging run observed. `Eq` so the cross-backend
/// conformance battery can compare runs outright.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AgingOutcome {
    /// Harts simulated.
    pub harts: u32,
    /// Lifecycle operations performed.
    pub ops: u32,
    /// Enclaves created (reliefs' retries included).
    pub creates: u64,
    /// Enclaves destroyed (reliefs included).
    pub destroys: u64,
    /// Creates refused with [`MonitorError::ResourceExhausted`].
    pub rejected: u64,
    /// Creates refused at the PMP flavour's entry wall.
    pub entry_wall_hits: u64,
    /// Evictions forced by backpressure (oldest mortal destroyed).
    pub reliefs: u64,
    /// Highest degradation stage reached (level, 0–3).
    pub max_stage: u8,
    /// Stage at the end of the run (level, 0–3).
    pub final_stage: u8,
    /// `(op index, stage level)` at every stage change, in order.
    pub stage_path: Vec<(u32, u8)>,
    /// Canaries that did not survive to destroy time. Must be zero: a
    /// non-zero count means compaction lost enclave bytes.
    pub canary_failures: u64,
    /// Fast-path/oracle disagreements observed by the host-side probe.
    /// Must be zero.
    pub oracle_violations: u64,
    /// Enclaves still live when the run ended (residents excluded).
    pub live_at_end: u32,
    /// Resident data accesses performed.
    pub accesses: u64,
    /// Total modelled cycles (accesses + monitor ops + stalls).
    pub total_cycles: u64,
    /// Shootdown IPIs delivered.
    pub ipis_delivered: u64,
}

/// Draws the next churn enclave size: 64 KiB to 4 MiB, geometric.
fn draw_size(rng: &mut SplitMix64) -> u64 {
    let mut size = 64 * 1024;
    while size < (4 << 20) && rng.gen_range(0..2) == 1 {
        size *= 2;
    }
    size
}

/// Runs the aging campaign on fresh, untraced machines.
///
/// # Errors
///
/// Propagates monitor errors other than the backpressure/entry-wall
/// refusals the campaign is designed to absorb.
pub fn run_aging(
    flavor: TeeFlavor,
    core: CoreKind,
    harts: usize,
    seed: u64,
    spec: AgingSpec,
    backend: ExecBackend,
) -> Result<(AgingOutcome, Snapshot), MonitorError> {
    let machines = (0..harts).map(|_| Machine::new(config_for(core))).collect();
    let (outcome, snapshot, _, _) = run_aging_with(machines, flavor, seed, spec, backend.into())?;
    Ok((outcome, snapshot))
}

/// Runs the aging campaign over pre-built machines (one per hart),
/// returning the outcome, the merged snapshot, the per-hart sinks and the
/// telemetry `options` asked for. With spans on, every monitor op opens a
/// span and each compaction pass emits a `compact` child span, so
/// `hpmp-analyze profile --spans` can attribute degradation cycles; a
/// timeline is sampled after every lifecycle op.
///
/// # Errors
///
/// As [`run_aging`].
pub fn run_aging_with<S: TraceSink + Send>(
    machines: Vec<Machine<S>>,
    flavor: TeeFlavor,
    seed: u64,
    spec: AgingSpec,
    options: RunOptions,
) -> Result<(AgingOutcome, Snapshot, Vec<S>, SmpTelemetry), MonitorError> {
    let harts = machines.len();
    let ram = hpmp_core::PmpRegion::new(PhysAddr::new(RAM_BASE), AGING_RAM_SIZE);
    let mut run = Harness::boot(machines, flavor, ram, spec.resident_pages, seed, options)?;
    // Pinned residents: live guest page tables make them immovable.
    for work in &mut run.works {
        run.smp.pin_domain(work.tenant.domain)?;
        work.rounds = 1;
    }
    run.start();

    // All lifecycle decisions come from this one stream.
    let mut churn_rng = SplitMix64::seed_from_u64(seed ^ 0xA61C_E5EB_D5C3_A6E5);
    let mut live: Vec<ChurnEnclave> = Vec::new();
    let mut out = AgingOutcome {
        harts: harts as u32,
        ops: spec.churn_ops,
        ..AgingOutcome::default()
    };
    let mut stage = DegradeStage::Normal;
    out.stage_path.push((0, stage.level()));

    for op in 0..spec.churn_ops {
        // Parallel phase: residents touch their working sets.
        let (cycles, accesses) = run.epoch(spec.batch, 0);
        out.total_cycles += cycles;
        out.accesses += accesses;

        // Serial phase: one lifecycle op, driven from a rotating hart that
        // ecalls out to the host for the management call.
        let hart = (op as usize % harts) as u16;
        let resident = run.works[usize::from(hart)].tenant.domain;
        let smp = &mut run.smp;
        out.total_cycles += smp.switch_on(hart, DomainId::HOST)?;

        let mortals = live.iter().filter(|e| !e.immortal).count();
        let create = mortals == 0 || churn_rng.gen_range(0..10) < 6;
        if create {
            let size = draw_size(&mut churn_rng);
            let immortal = churn_rng.gen_range(0..8) == 0;
            let canary = churn_rng.next_u64();
            match create_churn_enclave(smp, hart, size, canary, immortal, &mut live) {
                Ok(cycles) => {
                    out.creates += 1;
                    out.total_cycles += cycles;
                }
                Err(refusal) if is_refusal(&refusal) => {
                    match live.iter().position(|e| !e.immortal) {
                        // Backpressure relief: evict the oldest mortal,
                        // then retry the same admission once.
                        Some(oldest) => {
                            out.reliefs += 1;
                            out.total_cycles +=
                                destroy_churn_enclave(smp, hart, oldest, &mut live, &mut out)?;
                            out.destroys += 1;
                            match create_churn_enclave(smp, hart, size, canary, immortal, &mut live)
                            {
                                Ok(cycles) => {
                                    out.creates += 1;
                                    out.total_cycles += cycles;
                                }
                                Err(e) => count_refusal(e, &mut out)?,
                            }
                        }
                        None => count_refusal(refusal, &mut out)?,
                    }
                }
                Err(e) => return Err(e),
            }
        } else {
            let idx = churn_rng.gen_range(0..mortals as u64) as usize;
            let victim = live
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.immortal)
                .nth(idx)
                .map(|(i, _)| i)
                .expect("mortal index in range");
            out.total_cycles += destroy_churn_enclave(smp, hart, victim, &mut live, &mut out)?;
            out.destroys += 1;
        }

        out.total_cycles += smp.switch_on(hart, resident)?;

        let now = smp.monitor().degrade_stage();
        if now != stage {
            stage = now;
            out.stage_path.push((op + 1, stage.level()));
        }
        out.max_stage = out.max_stage.max(stage.level());
        run.sample();
    }

    out.final_stage = run.smp.monitor().degrade_stage().level();
    out.live_at_end = live.len() as u32;
    let (snapshot, sinks, telemetry) = run.finish();
    out.ipis_delivered = snapshot.value("smp.ipis_delivered");
    Ok((out, snapshot, sinks, telemetry))
}

/// Whether `err` is one of the refusals the campaign absorbs rather than
/// propagates.
fn is_refusal(err: &MonitorError) -> bool {
    matches!(
        err,
        MonitorError::ResourceExhausted { .. }
            | MonitorError::OutOfPmpEntries
            | MonitorError::OutOfMemory
    )
}

fn count_refusal(err: MonitorError, out: &mut AgingOutcome) -> Result<(), MonitorError> {
    match err {
        MonitorError::ResourceExhausted { .. } | MonitorError::OutOfMemory => {
            out.rejected += 1;
            Ok(())
        }
        MonitorError::OutOfPmpEntries => {
            out.entry_wall_hits += 1;
            Ok(())
        }
        other => Err(other),
    }
}

/// Creates one churn enclave, stamps its canary, and probes the host's
/// fast path against the oracle at the new base.
fn create_churn_enclave<S: TraceSink>(
    smp: &mut SmpSystem<S>,
    hart: u16,
    size: u64,
    canary: u64,
    immortal: bool,
    live: &mut Vec<ChurnEnclave>,
) -> Result<u64, MonitorError> {
    let (domain, cycles) = smp.create_domain_on(hart, size, GmsLabel::Slow)?;
    let base = smp.monitor().regions_of(domain)?[0].region.base;
    smp.machine(hart).phys_mut().write_u64(base, canary);
    live.push(ChurnEnclave {
        domain,
        canary,
        immortal,
    });
    Ok(cycles)
}

/// Destroys the churn enclave at `idx`, first asserting its canary from
/// the region's *current* (possibly relocated) base and probing the
/// fast-path/oracle agreement at it.
fn destroy_churn_enclave<S: TraceSink>(
    smp: &mut SmpSystem<S>,
    hart: u16,
    idx: usize,
    live: &mut Vec<ChurnEnclave>,
    out: &mut AgingOutcome,
) -> Result<u64, MonitorError> {
    let enclave = live.remove(idx);
    let base = smp.monitor().regions_of(enclave.domain)?[0].region.base;
    if smp.machine(hart).phys().read_u64(base) != enclave.canary {
        out.canary_failures += 1;
    }
    // Probe before teardown: the host (scheduled on `hart` during the
    // management call) must be *denied* at a live enclave base, by both
    // the fast path and the oracle; any disagreement is a violation.
    out.oracle_violations += u64::from(probe_disagrees(smp, hart, base));
    let cycles = smp.destroy_domain_on(hart, enclave.domain)?;
    // And after: the freed range is back under the host's backdrop.
    out.oracle_violations += u64::from(probe_disagrees(smp, hart, base));
    Ok(cycles)
}

/// Whether the fast path and the cache-free oracle disagree about `hart`'s
/// scheduled domain reading `addr`.
fn probe_disagrees<S: TraceSink>(smp: &mut SmpSystem<S>, hart: u16, addr: PhysAddr) -> bool {
    let oracle = smp.oracle_check_on(hart, addr, AccessKind::Read);
    let machine = smp.machine(hart);
    let fast = machine
        .regs()
        .check(
            machine.phys(),
            &mut PmptwCache::disabled(),
            addr,
            AccessKind::Read,
            PrivMode::Supervisor,
        )
        .allowed;
    fast != oracle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpTelemetrySpec;

    const SEED: u64 = 0x4850_4d50;

    #[test]
    fn aging_walks_the_whole_degradation_ladder() {
        let spec = AgingSpec::with_ops(DEFAULT_CHURN_OPS);
        let (out, snap) = run_aging(
            TeeFlavor::PenglaiHpmp,
            CoreKind::Rocket,
            2,
            SEED,
            spec,
            ExecBackend::Deterministic,
        )
        .unwrap();
        assert_eq!(out.max_stage, 3, "stage path: {:?}", out.stage_path);
        let levels: Vec<u8> = out.stage_path.iter().map(|&(_, s)| s).collect();
        for want in [1, 2, 3] {
            assert!(levels.contains(&want), "never saw stage {want}: {levels:?}");
        }
        assert_eq!(out.canary_failures, 0, "compaction lost enclave bytes");
        assert_eq!(out.oracle_violations, 0, "fast path disagreed with oracle");
        assert!(out.rejected + out.reliefs > 0, "no backpressure observed");
        assert!(
            snap.value("monitor.compact.moved_pages") > 0,
            "no compaction happened"
        );
        assert!(snap.value("monitor.degrade.slow_allocs") > 0);
    }

    #[test]
    fn aging_is_byte_identical_across_backends() {
        let spec = AgingSpec::with_ops(400);
        let run = |backend| {
            run_aging(
                TeeFlavor::PenglaiHpmp,
                CoreKind::Rocket,
                2,
                SEED,
                spec,
                backend,
            )
            .unwrap()
        };
        let (det, det_snap) = run(ExecBackend::Deterministic);
        let (thr, thr_snap) = run(ExecBackend::Threaded);
        assert_eq!(det, thr, "outcomes must agree across backends");
        assert_eq!(
            det_snap.to_json_versioned(),
            thr_snap.to_json_versioned(),
            "snapshots must be byte-identical across backends"
        );
    }

    #[test]
    fn aging_seed_matters_and_reruns_reproduce() {
        let spec = AgingSpec::with_ops(200);
        let run = |seed| {
            run_aging(
                TeeFlavor::PenglaiHpmp,
                CoreKind::Rocket,
                2,
                seed,
                spec,
                ExecBackend::Deterministic,
            )
            .unwrap()
        };
        let (a, snap_a) = run(SEED);
        let (b, snap_b) = run(SEED);
        assert_eq!(a, b);
        assert_eq!(snap_a.to_json(), snap_b.to_json());
        let (c, _) = run(SEED + 1);
        assert_ne!(a.total_cycles, c.total_cycles, "seed must matter");
    }

    #[test]
    fn aging_spans_attribute_compaction_and_leave_the_outcome_alone() {
        let spec = AgingSpec::with_ops(DEFAULT_CHURN_OPS);
        let machines = (0..2)
            .map(|_| Machine::new(config_for(CoreKind::Rocket)))
            .collect();
        let telemetry = SmpTelemetrySpec {
            snapshot_interval: None,
            span_capacity: Some(1 << 16),
        };
        let (out, _, _, telemetry) = run_aging_with(
            machines,
            TeeFlavor::PenglaiHpmp,
            SEED,
            spec,
            RunOptions::Deterministic(telemetry),
        )
        .unwrap();
        let spans = telemetry.spans.expect("requested");
        let compact_cycles: u64 = spans
            .spans()
            .iter()
            .filter(|s| s.kind == hpmp_trace::SpanKind::Compact)
            .map(hpmp_trace::SpanEvent::cycles)
            .sum();
        assert!(compact_cycles > 0, "no compact spans recorded");
        // Compact spans are children of the op that triggered the pass.
        assert!(spans
            .spans()
            .iter()
            .filter(|s| s.kind == hpmp_trace::SpanKind::Compact)
            .all(|s| s.parent.is_some()));
        // Collecting spans must not perturb the simulated run itself.
        let (plain, _) = run_aging(
            TeeFlavor::PenglaiHpmp,
            CoreKind::Rocket,
            2,
            SEED,
            spec,
            ExecBackend::Deterministic,
        )
        .unwrap();
        assert_eq!(out, plain, "span collection changed the run");
    }

    #[test]
    fn pmp_flavour_ages_into_the_entry_wall_not_the_table_stage() {
        let spec = AgingSpec::with_ops(400);
        let (out, snap) = run_aging(
            TeeFlavor::PenglaiPmp,
            CoreKind::Rocket,
            2,
            SEED,
            spec,
            ExecBackend::Deterministic,
        )
        .unwrap();
        assert!(out.entry_wall_hits > 0, "PMP never hit its entry wall");
        assert_eq!(
            snap.value("monitor.degrade.enter_stage2"),
            0,
            "PMP has no table to fall back on"
        );
        assert_eq!(out.canary_failures, 0);
        assert_eq!(out.oracle_violations, 0);
    }
}
