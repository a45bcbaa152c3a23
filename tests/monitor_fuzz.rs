//! Randomised operation sequences against the secure monitor, in the one
//! monitor-op vocabulary (`hpmp_suite::modelcheck::MonitorOp`). Every op
//! goes through a `CheckedRun`: its refusal is held to the one
//! tolerated-error rule, and the one fail-closed check runs after it — no
//! overlapping enclave regions, no fast-path grant the oracle denies on
//! any hart, every scheduled enclave reaches its own memory, no enclave
//! on two harts, no table-only stage on PMP, every live register image
//! valid (DESIGN.md §13).
//!
//! Three batteries, each drawing from its fixed-seed [`SplitMix64`]
//! exactly as it always has, resolving its selectors to domain ids and
//! region slots at issue time:
//!
//! 1. single-hart lifecycle ops plus the fault ops (register corruption
//!    repaired by the shadow-copy scrub, pmpte flips on the running
//!    domain's walk quarantined and rebuilt, dropped fences around region
//!    churn absorbed by the isolation epoch);
//! 2. the lifecycle ops issued from random harts of 2–4-hart systems;
//! 3. the degradation ladder (DESIGN.md §12): a 128 MiB boot and 16 MiB
//!    allocations drive the monitor through Compacting, TableOnly and
//!    Admission, where compaction relocates regions and allocations
//!    degrade to table-only exact fits.
//!
//! A failure panics with its boot and schedule text, which
//! `boot_system` + `Schedule::run` replay.

use hpmp_suite::core::PmpRegion;
use hpmp_suite::memsim::{PhysAddr, SplitMix64};
use hpmp_suite::modelcheck::{
    pmpte_path, slot_of, Boot, CheckedRun, MonitorOp, Schedule, ScheduledOp,
};
use hpmp_suite::penglai::{DomainId, GmsLabel, SmpSystem, TeeFlavor};
use hpmp_suite::trace::Snapshot;

const FLAVORS: [TeeFlavor; 3] = [
    TeeFlavor::PenglaiPmp,
    TeeFlavor::PenglaiPmpt,
    TeeFlavor::PenglaiHpmp,
];

const KIB: u64 = 1024;

fn boot(flavor: TeeFlavor, harts: usize, ram_mib: u64) -> CheckedRun {
    let boot = Boot {
        flavor,
        harts,
        ram_mib,
        ..Boot::default()
    };
    CheckedRun::boot(boot).expect("system boots")
}

/// Issues `op` from `hart`, panicking with the replayable failure;
/// returns the region an `alloc` placed.
fn step(run: &mut CheckedRun, hart: u16, op: MonitorOp) -> Option<PmpRegion> {
    let outcome = run.step(ScheduledOp { hart, op });
    outcome.unwrap_or_else(|e| panic!("{run} {e}")).ok()?
}

/// Runs a fixed schedule on every flavour, checked after every op, and
/// returns each flavour's final monitor counters.
fn run_everywhere(harts: usize, ram_mib: u64, text: &str) -> Vec<(TeeFlavor, Snapshot)> {
    let schedule = Schedule::parse(text).expect("schedule parses");
    let run = |flavor| {
        let mut run = boot(flavor, harts, ram_mib);
        if let Err(e) = run.run(&schedule) {
            panic!("{run} {e}");
        }
        (flavor, run.smp.monitor().metrics_snapshot())
    };
    FLAVORS.into_iter().map(run).collect()
}

/// Every live domain id, host first, in creation order.
fn live(smp: &SmpSystem) -> Vec<u32> {
    smp.monitor().domain_ids().iter().map(|d| d.0).collect()
}

/// `from[sel % len]`, or `None` when `from` is empty.
fn pick(from: &[u32], sel: u64) -> Option<u32> {
    from.get(sel as usize % from.len().max(1)).copied()
}

/// One single-hart op: the lifecycle ops, or a fault.
fn random_op(rng: &mut SplitMix64, smp: &SmpSystem, flavor: TeeFlavor) -> Option<MonitorOp> {
    let live = live(smp);
    let enclaves = &live[1..];
    match rng.gen_range(0..7) {
        0 => Some(MonitorOp::Create { size: 1 << 20 }),
        1 => pick(enclaves, rng.gen_range(0..8)).map(MonitorOp::Destroy),
        2 => {
            let domain = pick(&live, rng.gen_range(0..8)).expect("host is live");
            let size = rng.gen_range(1..8) * 64 * KIB;
            let label = GmsLabel::Slow;
            Some(MonitorOp::Alloc {
                domain,
                label,
                size,
            })
        }
        3 => pick(&live, rng.gen_range(0..8)).map(MonitorOp::Switch),
        4 => {
            let entry = rng.gen_range(0..16) as usize % smp.machines().peek(0).regs().len();
            let bit = rng.gen_range(0..64) as u8;
            let cfg = bit % 2 == 1;
            let bit = if cfg { bit % 8 } else { bit };
            Some(MonitorOp::CorruptReg { entry, cfg, bit })
        }
        5 => {
            let (sel, bit) = (rng.gen_range(0..4) as usize, rng.gen_range(0..64) as u8);
            // Only a running enclave's walk under a table flavour.
            let enclave = smp.scheduled(0) != DomainId::HOST;
            let path = pmpte_path(smp, 0);
            let step = sel % path.len().max(1);
            (flavor != TeeFlavor::PenglaiPmp && enclave && !path.is_empty())
                .then_some(MonitorOp::FlipPmpte { step, bit })
        }
        _ => pick(enclaves, rng.gen_range(0..8)).map(MonitorOp::DropFence),
    }
}

#[test]
fn monitor_invariants_hold_under_random_ops() {
    let mut rng = SplitMix64::seed_from_u64(0xf022);
    for _case in 0..24 {
        let flavor = FLAVORS[rng.gen_range(0..3) as usize];
        let n_ops = rng.gen_range(1..40) as usize;
        let mut run = boot(flavor, 1, 1024);
        for _ in 0..n_ops {
            if let Some(op) = random_op(&mut rng, &run.smp, flavor) {
                step(&mut run, 0, op);
            }
        }
    }
}

/// Regression: the historical proptest shrink — destroying the only
/// enclave right after creating it must restore the host's exclusive view.
#[test]
fn create_then_destroy_is_clean() {
    run_everywhere(1, 1024, "h0:create h0:destroy(1)");
}

/// One multi-hart op, issued from a random hart.
fn random_smp_op(rng: &mut SplitMix64, smp: &SmpSystem) -> (u16, Option<MonitorOp>) {
    let hart = (rng.gen_range(0..4) % smp.harts() as u64) as u16;
    let live = live(smp);
    let op = match rng.gen_range(0..4) {
        0 => Some(MonitorOp::Create { size: 256 * KIB }),
        1 => pick(&live[1..], rng.gen_range(0..8)).map(MonitorOp::Destroy),
        2 => {
            let domain = pick(&live, rng.gen_range(0..8)).expect("host is live");
            let size = rng.gen_range(1..6) * 64 * KIB;
            let label = GmsLabel::Slow;
            Some(MonitorOp::Alloc {
                domain,
                label,
                size,
            })
        }
        _ => pick(&live, rng.gen_range(0..8)).map(MonitorOp::Switch),
    };
    (hart, op)
}

#[test]
fn smp_monitor_invariants_hold_under_random_ops() {
    let mut rng = SplitMix64::seed_from_u64(0x50c7_f022);
    for _case in 0..24 {
        let flavor = FLAVORS[rng.gen_range(0..3) as usize];
        let harts = 2 + rng.gen_range(0..3) as usize;
        let n_ops = rng.gen_range(1..30) as usize;
        let mut run = boot(flavor, harts, 1024);
        for _ in 0..n_ops {
            if let (hart, Some(op)) = random_smp_op(&mut rng, &run.smp) {
                step(&mut run, hart, op);
            }
        }
    }
}

/// Regression for the hole the scheduling discipline closes: issuing
/// monitor ops from hart A while hart B runs an enclave. Without banking
/// `current` per hart, hart A's alloc would be attributed to (and
/// reprogram) hart B's domain image; and without the one-hart rule the
/// second switch would schedule the same enclave twice.
#[test]
fn ops_on_one_hart_while_another_runs_an_enclave() {
    let text = "h0:create(256K) h1:switch(1) h0:switch(1) h0:alloc(1,slow,128K) h0:destroy(1)";
    run_everywhere(2, 1024, text);
}

/// One ladder op: lifecycle ops under memory pressure, with region churn
/// (alloc + free) so recovery is reachable, not just escalation. `held`
/// lists the regions the battery allocated, the free candidates.
fn random_pressure_op(
    rng: &mut SplitMix64,
    smp: &SmpSystem,
    held: &mut Vec<(u32, PhysAddr)>,
) -> Option<MonitorOp> {
    let live = live(smp);
    let alloc = |domain, label, size| MonitorOp::Alloc {
        domain,
        label,
        size,
    };
    match rng.gen_range(0..8) {
        0 => Some(MonitorOp::Create { size: 1 << 20 }),
        1 => pick(&live[1..], rng.gen_range(0..8)).map(MonitorOp::Destroy),
        2 | 3 => pick(&live, rng.gen_range(0..8)).map(|d| alloc(d, GmsLabel::Slow, 16 << 20)),
        4 => {
            let domain = pick(&live, rng.gen_range(0..8)).expect("host is live");
            Some(alloc(
                domain,
                GmsLabel::Fast,
                rng.gen_range(1..8) * 64 * KIB,
            ))
        }
        5 | 6 => {
            let sel = rng.gen_range(0..16) as usize;
            if held.is_empty() {
                return None;
            }
            let (domain, base) = held.swap_remove(sel % held.len());
            Some(MonitorOp::Free {
                domain,
                slot: slot_of(smp, domain, base).expect("held region in place"),
            })
        }
        _ => pick(&live, rng.gen_range(0..8)).map(MonitorOp::Switch),
    }
}

/// The randomized ladder battery. Besides holding the check through every
/// sequence, the battery as a whole must actually *visit* stages 1–3 on
/// the table flavours (else the coverage claim is vacuous) and must never
/// count a table-only entry on PMP.
#[test]
fn degradation_ladder_keeps_the_oracle_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0xd16a_de01);
    let mut entered = [0u64; 3];
    for _case in 0..18 {
        let flavor = FLAVORS[rng.gen_range(0..3) as usize];
        let n_ops = 6 + rng.gen_range(0..24) as usize;
        let mut run = boot(flavor, 1, 128);
        let mut held = Vec::new();
        for _ in 0..n_ops {
            let Some(op) = random_pressure_op(&mut rng, &run.smp, &mut held) else {
                continue;
            };
            match (op, step(&mut run, 0, op)) {
                (MonitorOp::Alloc { domain, .. }, Some(region)) => held.push((domain, region.base)),
                (MonitorOp::Destroy(victim), _) => held.retain(|&(d, _)| d != victim),
                _ => {}
            }
        }
        let snap: Snapshot = run.smp.monitor().metrics_snapshot();
        if flavor == TeeFlavor::PenglaiPmp {
            assert_eq!(
                snap.get("monitor.degrade.enter_stage2"),
                Some(0),
                "PMP counted a table-only entry"
            );
        } else {
            for (i, slot) in entered.iter_mut().enumerate() {
                *slot += snap
                    .get(&format!("monitor.degrade.enter_stage{}", i + 1))
                    .unwrap_or(0);
            }
        }
    }
    assert!(
        entered.iter().all(|&n| n > 0),
        "battery never reached some ladder stage (entries: {entered:?}) — vacuous coverage"
    );
}

/// Directed regression: the canonical exhaustion walk. Four 16 MiB host
/// requests exhaust the 64 MiB arena; the check must hold at every stage,
/// on every flavour, and the PMP ladder must skip table-only. The free
/// names slot 1, the first 16 MiB region (slot 0 is the host's arena).
#[test]
fn directed_exhaustion_holds_invariants_through_admission() {
    let big = "h0:alloc(0,slow,big)";
    let text = format!(
        "h0:create {big} {big} {big} {big} h0:alloc(1,fast,128K) h0:switch(1) h0:free(0,1) {big}"
    );
    for (flavor, snap) in run_everywhere(1, 128, &text) {
        assert!(
            snap.get("monitor.degrade.enter_stage3").unwrap_or(0) > 0,
            "{flavor}: admission control never reached"
        );
        let stage2 = snap.get("monitor.degrade.enter_stage2").unwrap_or(0);
        if flavor == TeeFlavor::PenglaiPmp {
            assert_eq!(stage2, 0, "PMP entered table-only");
        } else {
            assert!(stage2 > 0, "{flavor}: table-only never reached");
        }
    }
}
