//! Golden-sequence regression tests: the exact ordered memory-reference
//! sequence of Figure 2-c (and Figure 4), pinned address by address for a
//! known configuration, and the traced step sequence of Figure 8's
//! extra-dimensional walk together with its hit and fault paths. Any change
//! to walker, checker, builder layout or access pipeline that silently
//! alters the hardware behaviour trips these.

use hpmp_suite::core::PmptwCache;
use hpmp_suite::machine::{IsolationScheme, MachineConfig, SystemBuilder, VirtMachine, VirtScheme};
use hpmp_suite::memsim::{AccessKind, Perms, PhysAddr, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_suite::paging::{walk, WalkCache, WalkCacheConfig};
use hpmp_suite::trace::{
    AccessOp, FaultCause, PmptwOutcome, PrivLevel, RingSink, StepKind, TlbOutcome, WalkEvent, World,
};

/// Kind tags for the golden sequence.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Ref {
    RootPmpte,
    LeafPmpte,
    Pte(usize),
    Data,
}

/// Reconstructs the ordered reference sequence for one cold TLB-missing
/// load, the way the Figure 2/4 diagrams number their squares and circles.
fn sequence(scheme: IsolationScheme) -> Vec<(Ref, u64)> {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), scheme).build();
    let va = VirtAddr::new(0x10_0000);
    sys.map_range(va, 1, Perms::RW);
    sys.sync_pt_grants();

    let mut out = Vec::new();
    let mut pwc = WalkCache::new(WalkCacheConfig { entries: 0 });
    let result = walk(sys.machine.phys(), &sys.space, &mut pwc, va);
    let mut cache = PmptwCache::disabled();
    for pt_ref in &result.pt_refs {
        let check = sys.machine.regs().check(
            sys.machine.phys(),
            &mut cache,
            pt_ref.addr,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        for r in &check.refs {
            out.push((
                if r.is_root {
                    Ref::RootPmpte
                } else {
                    Ref::LeafPmpte
                },
                r.addr.raw(),
            ));
        }
        out.push((Ref::Pte(pt_ref.level), pt_ref.addr.raw()));
    }
    let t = result.translation.expect("mapped");
    let check = sys.machine.regs().check(
        sys.machine.phys(),
        &mut cache,
        t.paddr,
        AccessKind::Read,
        PrivMode::Supervisor,
    );
    for r in &check.refs {
        out.push((
            if r.is_root {
                Ref::RootPmpte
            } else {
                Ref::LeafPmpte
            },
            r.addr.raw(),
        ));
    }
    out.push((Ref::Data, t.paddr.raw()));
    out
}

/// Figure 2-c: the 12-reference sequence, with the paper's interleaving —
/// (PL1, PL0) before each page-table level, then the leaf data pair.
#[test]
fn pmpt_sequence_matches_figure_2c() {
    let seq = sequence(IsolationScheme::PmpTable);
    assert_eq!(seq.len(), 12);
    let kinds: Vec<Ref> = seq.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        kinds,
        vec![
            Ref::RootPmpte,
            Ref::LeafPmpte,
            Ref::Pte(2), // 1,2,3
            Ref::RootPmpte,
            Ref::LeafPmpte,
            Ref::Pte(1), // 4,5,6
            Ref::RootPmpte,
            Ref::LeafPmpte,
            Ref::Pte(0), // 7,8,9
            Ref::RootPmpte,
            Ref::LeafPmpte,
            Ref::Data, // 10,11,12
        ],
    );
    // Exact addresses for the fixed builder layout (regression pin):
    // PT pages are the first pool frames; pmptes live in the table area.
    assert_eq!(seq[2].1, 0x8000_0000, "root PT page (pool base)");
    assert_eq!(seq[5].1, 0x8000_1000, "L1 PT page");
    assert_eq!(
        seq[8].1,
        0x8000_2000 + (0x100 * 8),
        "L0 PTE slot for vpn0=0x100"
    );
    assert_eq!(seq[11].1, 0x8200_0000, "first data frame");
    // All three PT-page permission checks hit the same root pmpte (same
    // 32 MiB slice) but distinct walks still re-read it.
    assert_eq!(seq[0].1, seq[3].1);
    assert_eq!(seq[0].1, seq[6].1);
}

/// Figure 4: HPMP's 6-reference sequence — the PT-page checks vanish.
#[test]
fn hpmp_sequence_matches_figure_4() {
    let seq = sequence(IsolationScheme::Hpmp);
    let kinds: Vec<Ref> = seq.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        kinds,
        vec![
            Ref::Pte(2),
            Ref::Pte(1),
            Ref::Pte(0), // 1,2,3
            Ref::RootPmpte,
            Ref::LeafPmpte,
            Ref::Data, // 4,5,6
        ],
    );
}

/// Figure 2-b: PMP's 4-reference sequence.
#[test]
fn pmp_sequence_matches_figure_2b() {
    let seq = sequence(IsolationScheme::Pmp);
    let kinds: Vec<Ref> = seq.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        kinds,
        vec![Ref::Pte(2), Ref::Pte(1), Ref::Pte(0), Ref::Data]
    );
}

/// The guest's first data page and the host frame backing it.
const GVA: u64 = 0x20_0000;
const DATA_HPA: u64 = 0x8280_0000;

/// A traced guest with 64 data pages mapped from [`GVA`].
fn traced_guest(scheme: VirtScheme) -> VirtMachine<RingSink> {
    VirtMachine::with_sink(MachineConfig::rocket(), scheme, 64, RingSink::new(64))
}

fn last_event(m: &VirtMachine<RingSink>) -> WalkEvent {
    m.sink().events().last().cloned().expect("an event")
}

fn step_kinds(event: &WalkEvent) -> Vec<(StepKind, Option<u8>)> {
    event.steps.iter().map(|s| (s.kind, s.level)).collect()
}

/// One G-stage sub-walk: the three Sv39x4 nested-PT levels (`nL2..nL0`).
fn nested_subwalk() -> [(StepKind, Option<u8>); 3] {
    [2, 1, 0].map(|l| (StepKind::NestedPt, Some(l)))
}

/// Figure 8's 16 references: a G-stage sub-walk before each guest-PT level
/// and before the data page.
fn figure_8_base() -> Vec<(StepKind, Option<u8>)> {
    let mut seq = Vec::new();
    for level in [2, 1, 0] {
        seq.extend(nested_subwalk());
        seq.push((StepKind::GuestPt, Some(level)));
    }
    seq.extend(nested_subwalk());
    seq.push((StepKind::Data, None));
    seq
}

/// `base` with a (root, leaf) pmpte pair in front of every reference whose
/// kind the permission table guards.
fn with_pmptes(
    base: &[(StepKind, Option<u8>)],
    guarded: &[StepKind],
) -> Vec<(StepKind, Option<u8>)> {
    let mut seq = Vec::new();
    for &step in base {
        if guarded.contains(&step.0) {
            seq.push((StepKind::PmptRoot, None));
            seq.push((StepKind::PmptLeaf, None));
        }
        seq.push(step);
    }
    seq
}

/// The event fields every guest access carries: world, hart, privilege and
/// a pipeline charge that includes the two-stage TLB tax.
fn assert_guest_stamps(event: &WalkEvent, op: AccessOp) {
    assert_eq!(event.world, World::Guest);
    assert_eq!(event.hart, 0);
    assert_eq!(event.privilege, PrivLevel::Supervisor);
    assert_eq!(event.op, op);
    assert_eq!(event.pwc_level, None, "guest walks report no PWC level");
    assert_eq!(
        event.pipeline_cycles,
        MachineConfig::rocket().core.pipeline_overhead + 2
    );
    assert!(event.is_balanced(), "steps + pipeline == cycles");
}

/// Figure 8, cold: PMP Table guards all 16 references (48 total), HPMP
/// drops the 12 NPT guards (24), HPMP-GPT also the 3 guest-PT guards (18),
/// PMP guards none (16).
#[test]
fn cold_guest_walks_match_figure_8() {
    use StepKind::{Data, GuestPt, NestedPt};
    let base = figure_8_base();
    for (scheme, guarded, cycles, pmptw) in [
        (VirtScheme::Pmp, &[][..], 984, None),
        (
            VirtScheme::PmpTable,
            &[NestedPt, GuestPt, Data][..],
            1808,
            Some(PmptwOutcome::Bypass),
        ),
        (
            VirtScheme::Hpmp,
            &[GuestPt, Data][..],
            1408,
            Some(PmptwOutcome::Bypass),
        ),
        (
            VirtScheme::HpmpGpt,
            &[Data][..],
            1220,
            Some(PmptwOutcome::Bypass),
        ),
    ] {
        let mut m = traced_guest(scheme);
        m.flush_microarch();
        let out = m
            .access(VirtAddr::new(GVA), AccessKind::Read)
            .expect("mapped");
        let event = last_event(&m);
        assert_eq!(step_kinds(&event), with_pmptes(&base, guarded), "{scheme}");
        assert_guest_stamps(&event, AccessOp::Read);
        assert_eq!(event.tlb, TlbOutcome::Miss, "{scheme}");
        assert_eq!(event.pmptw, pmptw, "{scheme}");
        assert_eq!(event.fault, None, "{scheme}");
        assert_eq!(event.paddr, Some(DATA_HPA), "{scheme}");
        assert_eq!(event.cycles, cycles, "{scheme}");
        assert_eq!(out.cycles, cycles, "{scheme}");
    }
}

/// Combined-TLB hits are one data reference. An L2 hit is modelled without
/// the L2 probe latency on the guest side: no `TlbL2` step, and the event
/// balances on the data step alone.
#[test]
fn guest_tlb_hits_are_one_data_step() {
    let mut m = traced_guest(VirtScheme::PmpTable);
    // 33 distinct pages overflow the 32-entry L1: page 0 falls to L2.
    for i in 0..33 {
        m.access(VirtAddr::new(GVA + i * PAGE_SIZE), AccessKind::Read)
            .expect("warm");
    }
    let out = m
        .access(VirtAddr::new(GVA + 32 * PAGE_SIZE), AccessKind::Read)
        .expect("L1 hit");
    let l1 = last_event(&m);
    assert!(out.tlb_hit);
    assert_eq!(out.refs.total(), 1);
    assert_eq!(step_kinds(&l1), vec![(StepKind::Data, None)]);
    assert_guest_stamps(&l1, AccessOp::Read);
    assert_eq!(l1.tlb, TlbOutcome::L1Hit);
    assert_eq!(l1.pmptw, None);
    assert_eq!(l1.paddr, Some(DATA_HPA + 32 * PAGE_SIZE));
    assert_eq!(l1.cycles, 8);

    let out = m
        .access(VirtAddr::new(GVA), AccessKind::Read)
        .expect("L2 hit");
    let l2 = last_event(&m);
    assert!(out.tlb_hit);
    assert_eq!(out.refs.total(), 1);
    assert_eq!(step_kinds(&l2), vec![(StepKind::Data, None)]);
    assert_guest_stamps(&l2, AccessOp::Read);
    assert_eq!(l2.tlb, TlbOutcome::L2Hit);
    assert_eq!(l2.paddr, Some(DATA_HPA));
    assert_eq!(l2.cycles, l2.pipeline_cycles + l2.steps[0].cycles);
    assert_eq!(l2.cycles, 22);
}

/// An unmapped guest VA faults at the first invalid guest PTE, after the
/// root's G-stage sub-walk and the guest root read, each table-checked.
#[test]
fn guest_page_fault_sequence() {
    let mut m = traced_guest(VirtScheme::PmpTable);
    m.flush_microarch();
    let err = m
        .access(VirtAddr::new(0x5000_0000), AccessKind::Read)
        .expect_err("unmapped");
    assert!(matches!(
        err,
        hpmp_suite::machine::Fault::PageFault(va) if va.raw() == 0x5000_0000
    ));
    let event = last_event(&m);
    let mut base: Vec<_> = nested_subwalk().to_vec();
    base.push((StepKind::GuestPt, Some(2)));
    assert_eq!(
        step_kinds(&event),
        with_pmptes(&base, &[StepKind::NestedPt, StepKind::GuestPt])
    );
    assert_guest_stamps(&event, AccessOp::Read);
    assert_eq!(event.tlb, TlbOutcome::Miss);
    assert_eq!(event.fault, Some(FaultCause::PageFault));
    assert_eq!(event.paddr, None);
    assert_eq!(event.pmptw, Some(PmptwOutcome::Bypass));
    assert_eq!(event.cycles, 822);
    m.verify_accounting().expect("aborted refs booked");
}

/// Guest data pages are RW: a fetch is a PTE-permission fault, both on a
/// combined-TLB hit (no references at all, and the hit knows the frame)
/// and on a miss (the walk completes, its leaf denies X, no data step).
#[test]
fn guest_fetch_pte_permission_faults() {
    let mut m = traced_guest(VirtScheme::PmpTable);
    m.access(VirtAddr::new(GVA), AccessKind::Read)
        .expect("warm the combined TLB");
    let err = m
        .access(VirtAddr::new(GVA), AccessKind::Fetch)
        .expect_err("RW page is not executable");
    assert!(matches!(err, hpmp_suite::machine::Fault::PtePermission(_)));
    let hit = last_event(&m);
    assert!(hit.steps.is_empty());
    assert_guest_stamps(&hit, AccessOp::Fetch);
    assert_eq!(hit.tlb, TlbOutcome::L1Hit);
    assert_eq!(hit.fault, Some(FaultCause::PtePermission));
    assert_eq!(hit.paddr, Some(DATA_HPA));
    assert_eq!(hit.cycles, 6);

    // Page 8 shares the warm guest PWC entry for the leaf table: only the
    // leaf guest PTE and the data page's G-stage sub-walk remain.
    let err = m
        .access(VirtAddr::new(GVA + 8 * PAGE_SIZE), AccessKind::Fetch)
        .expect_err("RW page is not executable");
    assert!(matches!(err, hpmp_suite::machine::Fault::PtePermission(_)));
    let miss = last_event(&m);
    let mut base = vec![(StepKind::GuestPt, Some(0))];
    base.extend(nested_subwalk());
    assert_eq!(
        step_kinds(&miss),
        with_pmptes(&base, &[StepKind::NestedPt, StepKind::GuestPt])
    );
    assert_guest_stamps(&miss, AccessOp::Fetch);
    assert_eq!(miss.tlb, TlbOutcome::Miss);
    assert_eq!(miss.fault, Some(FaultCause::PtePermission));
    assert_eq!(miss.paddr, None);
    assert_eq!(miss.cycles, 342);
    m.verify_accounting().expect("aborted refs booked");
}

/// The native twin of the TLB-hit PTE-permission case. Both machines run
/// one access pipeline, so a TLB-hit permission fault reports the frame
/// the hit already knows on the native side too (it used to report
/// `paddr: None` there while the guest side reported the frame).
#[test]
fn native_tlb_hit_pte_permission_reports_the_frame() {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp)
        .sink(RingSink::new(8))
        .build();
    let va = VirtAddr::new(0x10_0000);
    sys.map_range(va, 1, Perms::RX);
    sys.sync_pt_grants();
    let read = sys
        .machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .expect("readable");
    let err = sys
        .machine
        .access(&sys.space, va, AccessKind::Write, PrivMode::Supervisor)
        .expect_err("read-only page");
    assert!(matches!(err, hpmp_suite::machine::Fault::PtePermission(_)));
    let event = sys.machine.sink().latest().cloned().expect("event");
    assert_eq!(event.tlb, TlbOutcome::L1Hit);
    assert_eq!(event.fault, Some(FaultCause::PtePermission));
    assert!(event.steps.is_empty());
    assert_eq!(event.world, World::Host);
    assert_eq!(event.paddr, Some(read.paddr.raw()));
    assert_eq!(read.paddr, PhysAddr::new(0x8200_0000));
}
