//! Cross-hart shootdown conformance: under randomized multi-hart
//! schedules of domain switches, GMS grants/revokes and teardowns, every
//! hart's fast-path permission answer must stay consistent with the
//! monitor's cache-free lockstep oracle — a stale grant on *any* hart is a
//! silent isolation failure.
//!
//! 1. The seeded battery: random schedules (default 1000, `HPMP_SCHEDULES`
//!    overrides) across 2–4 harts and all three flavours, in the one
//!    monitor-op vocabulary, with the one fail-closed check after every
//!    op. With delivery suppressed it must fail, printing a schedule that
//!    replays to the same violation.
//! 2. A meta-test proving the property is *observable*: with shootdown
//!    delivery suppressed, a remote hart's inlined-TLB grant survives the
//!    revoke and contradicts the oracle; with delivery on, the same
//!    schedule revokes it.
//! 3. A regression for the hole the SMP layer actually closes: destroying
//!    a domain scheduled on another hart must park that hart in the host,
//!    not leave it running a corpse's image.
//! 4. Pinned counterexample schedules harvested from `hpmp-verify bmc
//!    --plant suppress-shootdown`, replayed in both directions.

use hpmp_suite::core::PmpRegion;
use hpmp_suite::memsim::PrivMode;
use hpmp_suite::memsim::{AccessKind, FrameAllocator, PhysAddr, SplitMix64, VirtAddr, PAGE_SIZE};
use hpmp_suite::modelcheck::{
    boot_system, slot_of, Boot, CheckedRun, MonitorOp, Plant, Schedule, ScheduledOp, StepError,
};
use hpmp_suite::paging::{AddressSpace, TranslationMode};
use hpmp_suite::penglai::{DomainId, GmsLabel, SmpSystem, TeeFlavor, Violation};
use hpmp_suite::trace::NullSink;

const FLAVORS: [TeeFlavor; 3] = [
    TeeFlavor::PenglaiPmp,
    TeeFlavor::PenglaiPmpt,
    TeeFlavor::PenglaiHpmp,
];

fn boot(flavor: TeeFlavor, harts: usize) -> SmpSystem {
    let boot = Boot {
        flavor,
        harts,
        ram_mib: 1024,
        ..Boot::default()
    };
    boot_system(&boot).expect("SMP system boots")
}

/// Number of random schedules the property test runs. `HPMP_SCHEDULES`
/// overrides the default of 1000 — lower for quick local iteration,
/// higher for a soak run; the seed is fixed either way, so any count's
/// prefix is reproducible.
fn schedule_count() -> u32 {
    match std::env::var("HPMP_SCHEDULES") {
        Err(_) => 1000,
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("HPMP_SCHEDULES must be a count, got `{v}`")),
    }
}

/// One random op from `hart`, drawn from `rng` in the battery's fixed
/// order and resolved against the live state; `None` when the draw names
/// nothing to act on. `grants` lists the regions the schedule allocated,
/// the free and relabel candidates.
fn random_op(
    rng: &mut SplitMix64,
    smp: &SmpSystem,
    grants: &mut Vec<(DomainId, PhysAddr)>,
) -> Option<MonitorOp> {
    let live = smp.monitor().domain_ids();
    let draw = |rng: &mut SplitMix64, len: usize| rng.gen_range(0..len as u64) as usize;
    Some(match rng.gen_range(0..6) {
        0 => MonitorOp::Create { size: 256 << 10 },
        1 => {
            let enclaves = &live[1..];
            if enclaves.is_empty() {
                return None;
            }
            MonitorOp::Destroy(enclaves[draw(rng, enclaves.len())].0)
        }
        2 => {
            let target = live[draw(rng, live.len())];
            let size = 64 * 1024 * rng.gen_range(1..5);
            let label = GmsLabel::Slow;
            MonitorOp::Alloc {
                domain: target.0,
                label,
                size,
            }
        }
        3 => {
            if grants.is_empty() {
                return None;
            }
            let (domain, base) = grants.swap_remove(draw(rng, grants.len()));
            let slot = slot_of(smp, domain.0, base).expect("granted region in place");
            MonitorOp::Free {
                domain: domain.0,
                slot,
            }
        }
        4 => MonitorOp::Switch(live[draw(rng, live.len())].0),
        _ => {
            if grants.is_empty() {
                return None;
            }
            let (domain, base) = grants[draw(rng, grants.len())];
            let label = if rng.gen_range(0..2) == 0 {
                GmsLabel::Fast
            } else {
                GmsLabel::Slow
            };
            let slot = slot_of(smp, domain.0, base).expect("granted region in place");
            MonitorOp::Relabel {
                domain: domain.0,
                slot,
                label,
            }
        }
    })
}

/// The seeded battery: `cases` random schedules of 3–8 ops across 2–4
/// harts and all three flavours, every op a checked step, each schedule
/// ending with the cross-layer accounting check. Returns the first
/// failing run, which prints as its replayable boot and schedule.
fn random_schedules(plant: Plant, cases: u32) -> Option<(CheckedRun, StepError)> {
    let mut rng = SplitMix64::seed_from_u64(0x5100_7d01);
    for case in 0..cases {
        let flavor = FLAVORS[rng.gen_range(0..3) as usize];
        let harts = 2 + rng.gen_range(0..3) as usize; // 2..=4
        let boot = Boot {
            flavor,
            harts,
            ram_mib: 1024,
            plant,
        };
        let mut run = CheckedRun::boot(boot).expect("SMP system boots");
        let mut grants: Vec<(DomainId, PhysAddr)> = Vec::new();
        let n_ops = 3 + rng.gen_range(0..6) as usize;
        for _ in 0..n_ops {
            let hart = rng.gen_range(0..harts as u64) as u16;
            let Some(op) = random_op(&mut rng, &run.smp, &mut grants) else {
                continue;
            };
            let outcome = match run.step(ScheduledOp { hart, op }) {
                Ok(outcome) => outcome,
                Err(e) => return Some((run, e)),
            };
            match (op, outcome) {
                (MonitorOp::Alloc { domain, .. }, Ok(Some(region))) => {
                    grants.push((DomainId(domain), region.base));
                }
                (MonitorOp::Destroy(victim), _) => grants.retain(|&(d, _)| d.0 != victim),
                _ => {}
            }
        }
        // Cycle and IPI accounting must also have stayed coherent across
        // the schedule — a shootdown delivered but not charged (or vice
        // versa) is an observability failure even when permissions agree.
        run.smp
            .verify_accounting()
            .unwrap_or_else(|e| panic!("case {case} ({}): {e}", run.schedule));
    }
    None
}

#[test]
fn randomized_schedules_never_diverge_from_the_oracle() {
    if let Some((run, e)) = random_schedules(Plant::None, schedule_count()) {
        panic!("{run} {e}");
    }
}

/// The battery observes the bug class it guards against: with shootdown
/// delivery suppressed it reports a violation, and the schedule it prints
/// replays through `boot_system` + `Schedule::run` to the same one.
#[test]
fn suppressed_delivery_fails_the_battery_with_a_replayable_schedule() {
    let (run, e) = random_schedules(Plant::SuppressShootdowns, schedule_count())
        .expect("suppressed delivery must be caught");
    let StepError::Violation(violation) = e else {
        panic!("expected a violation: {run} {e}");
    };
    let replayed = Schedule::parse(&run.schedule.to_string()).expect("schedule parses");
    let mut smp = boot_system(&run.boot).expect("boots");
    replayed.run(&mut smp).expect("replays");
    assert_eq!(smp.fail_closed_violation(), Some(violation), "{run}");
}

/// Boots a 2-hart system with one enclave scheduled on hart 1, its data
/// region mapped at `va` in an address space hart 1 can walk. Returns the
/// system, the enclave id, the data region, and the space.
fn enclave_on_hart1(
    flavor: TeeFlavor,
) -> (
    SmpSystem<NullSink>,
    DomainId,
    PmpRegion,
    AddressSpace,
    VirtAddr,
) {
    let mut smp = boot(flavor, 2);
    let (id, _) = smp
        .create_domain_on(0, 256 * 1024, GmsLabel::Slow)
        .expect("create");
    let pool = smp.monitor().regions_of(id).expect("live")[0].region;
    let (data, _) = smp
        .alloc_on(0, id, 16 * PAGE_SIZE, GmsLabel::Slow)
        .expect("alloc");
    smp.switch_on(1, id).expect("schedule on hart 1");

    let mut frames = FrameAllocator::new(pool.base, pool.size);
    let machine = smp.machine(1);
    let mut space = AddressSpace::new(TranslationMode::Sv39, 1, machine.phys_mut(), &mut frames)
        .expect("space");
    let va = VirtAddr::new(0x10_0000);
    space
        .map_page(
            machine.phys_mut(),
            &mut frames,
            va,
            data.base,
            hpmp_suite::memsim::Perms::RW,
            true,
        )
        .expect("map");
    (smp, id, data, space, va)
}

/// The meta-test: the divergence the property test guards against is real
/// and observable. Permissions are inlined in TLB entries, so a hart that
/// never receives the shootdown keeps *granting* — the register image and
/// the TLB both go stale, and only the IPI closes them.
#[test]
fn suppressed_shootdown_leaves_a_stale_grant_on_the_remote_hart() {
    let (mut smp, id, data, space, va) = enclave_on_hart1(TeeFlavor::PenglaiHpmp);

    // Warm hart 1's TLB with the enclave mapping: permission now inlined.
    smp.machine(1)
        .access(&space, va, AccessKind::Read, PrivMode::User)
        .expect("enclave reaches its own data");

    // Revoke the data region from hart 0 with delivery suppressed.
    smp.set_shootdown_suppression(true);
    smp.free_on(0, id, data.base).expect("revoke");

    // The oracle says no; the remote hart still says yes. This is exactly
    // the divergence the fail-closed check exists to catch.
    assert!(
        !smp.oracle_check_on(1, data.base, AccessKind::Read),
        "oracle must deny the freed region"
    );
    let stale = smp
        .machine(1)
        .access(&space, va, AccessKind::Read, PrivMode::User);
    assert!(
        stale.is_ok(),
        "suppressed shootdown must leave the stale TLB grant observable"
    );
}

/// The same schedule with delivery on: the remote fence kills the inlined
/// grant and the next access faults on the re-walk.
#[test]
fn delivered_shootdown_revokes_the_remote_grant() {
    let (mut smp, id, data, space, va) = enclave_on_hart1(TeeFlavor::PenglaiHpmp);
    smp.machine(1)
        .access(&space, va, AccessKind::Read, PrivMode::User)
        .expect("enclave reaches its own data");

    smp.free_on(0, id, data.base).expect("revoke");

    assert!(
        smp.machine(1)
            .access(&space, va, AccessKind::Read, PrivMode::User)
            .is_err(),
        "the shootdown fence must kill the inlined grant"
    );
    // And the fast path agrees with the oracle again — on every hart, at
    // the freed base too, which is no longer a region base the check
    // probes — with every cycle of the shootdown charged consistently
    // across harts and monitor.
    assert_eq!(smp.fail_closed_violation(), None, "post-shootdown");
    for hart in 0..smp.harts() as u16 {
        let stale = smp.stale_grant_on(hart, data.base);
        assert!(!stale, "hart {hart} still grants the freed {}", data.base);
    }
    smp.verify_accounting().expect("accounting stays coherent");
}

/// Counterexample schedules harvested from `hpmp-verify bmc --flavor pmp
/// --plant suppress-shootdown --seed-out`, pinned as regressions. Each is
/// replayed in both directions against the same 128 MiB 2-hart boot the
/// checker used: with delivery on, the monitor must close the window (no
/// divergence anywhere); with delivery suppressed, the schedule must
/// reproduce a grant-where-oracle-denies — proving the pinned text still
/// drives the hole the checker reported, not a vacuous replay.
///
/// PMP flavour, because that is where the register *image* itself goes
/// stale; the table flavours share permission tables in physical memory,
/// so suppression there only leaves cached (non-architectural) staleness.
const PINNED_BMC_COUNTEREXAMPLES: [&str; 3] = [
    // The minimal (depth-1) counterexample: creating an enclave carves a
    // deny out of the host's image; unshot, hart 1 keeps the stale grant.
    "h0:create",
    // Widening the carve: a second region allocated to the enclave adds
    // a second deny hart 1 never receives.
    "h0:create h0:alloc(1,fast)",
    // Revoke staleness under pressure placement: a compaction-sized
    // allocation then its free, with the revoke never delivered.
    "h0:create h0:alloc(1,slow,big) h0:free(1,1)",
];

#[test]
fn pinned_bmc_counterexamples_stay_closed() {
    let boot = Boot {
        flavor: TeeFlavor::PenglaiPmp,
        ..Boot::default()
    };
    for text in PINNED_BMC_COUNTEREXAMPLES {
        let sched = Schedule::parse(text).expect("pinned schedule parses");

        // Delivery on: the check holds after every op.
        let mut run = CheckedRun::boot(boot).expect("boots");
        if let Err(e) = run.run(&sched) {
            panic!("{run} {e}");
        }

        // Suppressed: the divergence the checker reported must reproduce.
        let mut smp = boot_system(&Boot {
            plant: Plant::SuppressShootdowns,
            ..boot
        })
        .expect("boots");
        sched.run(&mut smp).expect("pinned schedule replays");
        match smp.fail_closed_violation() {
            Some(Violation::StaleGrant(hart, _)) => assert!(
                hart > 0,
                "`{text}`: the issuing hart shot itself down locally"
            ),
            other => panic!("`{text}` must reproduce its stale grant, got {other:?}"),
        }
    }
}

/// Regression: destroying a domain that is scheduled on a different hart.
/// The reprogram IPI's handler finds its domain gone and must park that
/// hart in the host — the original implementation hole was resolving the
/// dead domain's regions during reprogramming.
#[test]
fn destroy_under_a_running_hart_parks_it_in_the_host() {
    for flavor in FLAVORS {
        let mut smp = boot(flavor, 3);
        let (id, _) = smp
            .create_domain_on(0, 256 * 1024, GmsLabel::Slow)
            .expect("create");
        smp.switch_on(2, id).expect("schedule on hart 2");
        smp.destroy_domain_on(0, id).expect("destroy from hart 0");
        assert_eq!(smp.scheduled(2), DomainId::HOST, "{flavor}");
        // The parked hart answers as the host, with no divergence.
        assert_eq!(smp.fail_closed_violation(), None, "{flavor} post-destroy");
        smp.verify_accounting()
            .unwrap_or_else(|e| panic!("{flavor}: {e}"));
    }
}
