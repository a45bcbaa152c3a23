//! Cross-crate invariant tests: the memory-reference arithmetic the paper
//! states in §2–§6 must hold *exactly*, for every translation mode —
//! these counts follow from the RISC-V ISA specification, not from any
//! microarchitectural model.

use hpmp_suite::core::{HpmpRegFile, PmpRegion, HPMP_ENTRIES};
use hpmp_suite::machine::{
    IsolationScheme, Machine, MachineConfig, SystemBuilder, VirtMachine, VirtScheme,
};
use hpmp_suite::memsim::{AccessKind, Perms, PhysAddr, PrivMode, VirtAddr};
use hpmp_suite::paging::TranslationMode;
use hpmp_suite::penglai::{DomainId, GmsLabel, SecureMonitor, SmpSystem, TeeFlavor};

/// The cold Sv39/48/57 miss references of `scheme` on both cores, which
/// must agree: the counts are ISA-level, so the core model cannot move them.
fn cold_refs(scheme: IsolationScheme, mode: TranslationMode) -> (u64, u64, u64, u64) {
    let [rocket, boom] = [MachineConfig::rocket(), MachineConfig::boom()].map(|config| {
        let mut sys = SystemBuilder::new(config, scheme)
            .translation_mode(mode)
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
        (
            out.refs.pt_reads,
            out.refs.pmpte_for_pt,
            out.refs.pmpte_for_data,
            out.refs.total(),
        )
    });
    assert_eq!(rocket, boom, "{scheme} {mode}: Rocket and BOOM disagree");
    rocket
}

/// §2.2: PMP adds zero references — L+1 total for an L-level table.
#[test]
fn pmp_reference_formula_all_modes() {
    for (mode, levels) in [
        (TranslationMode::Sv39, 3),
        (TranslationMode::Sv48, 4),
        (TranslationMode::Sv57, 5),
    ] {
        let (pt, for_pt, for_data, total) = cold_refs(IsolationScheme::Pmp, mode);
        assert_eq!(pt, levels, "{mode}");
        assert_eq!(for_pt, 0, "{mode}");
        assert_eq!(for_data, 0, "{mode}");
        assert_eq!(total, levels + 1, "{mode}");
    }
}

/// §2.2: a 2-level permission table triples the count — 3(L+1) total.
/// "a 2-level permission table leads to eight more memory references
/// (total: 12) for RISC-V Sv39".
#[test]
fn pmpt_reference_formula_all_modes() {
    for (mode, levels) in [
        (TranslationMode::Sv39, 3u64),
        (TranslationMode::Sv48, 4),
        (TranslationMode::Sv57, 5),
    ] {
        let (pt, for_pt, for_data, total) = cold_refs(IsolationScheme::PmpTable, mode);
        assert_eq!(pt, levels, "{mode}");
        assert_eq!(for_pt, 2 * levels, "{mode}");
        assert_eq!(for_data, 2, "{mode}");
        assert_eq!(total, 3 * (levels + 1), "{mode}");
    }
}

/// §3: HPMP leaves only the two data-page references — L+3 total
/// ("reduce the memory references from 12 to 6 for RISC-V Sv39").
#[test]
fn hpmp_reference_formula_all_modes() {
    for (mode, levels) in [
        (TranslationMode::Sv39, 3u64),
        (TranslationMode::Sv48, 4),
        (TranslationMode::Sv57, 5),
    ] {
        let (pt, for_pt, for_data, total) = cold_refs(IsolationScheme::Hpmp, mode);
        assert_eq!(pt, levels, "{mode}");
        assert_eq!(for_pt, 0, "{mode}: PT pages are segment-checked");
        assert_eq!(for_data, 2, "{mode}");
        assert_eq!(total, levels + 3, "{mode}");
    }
}

/// §6: the virtualized walk — 16 base references; the permission table adds
/// 32 (24 for NPT pages, 6 for guest-PT pages, 2 for data); HPMP removes
/// the 24; HPMP-GPT also removes the 6.
#[test]
fn virtualized_reference_arithmetic() {
    for (scheme, npt, gpt, data, total) in [
        (VirtScheme::Pmp, 0, 0, 0, 16),
        (VirtScheme::PmpTable, 24, 6, 2, 48),
        (VirtScheme::Hpmp, 0, 6, 2, 24),
        (VirtScheme::HpmpGpt, 0, 0, 2, 18),
    ] {
        let mut machine = VirtMachine::new(MachineConfig::rocket(), scheme, 4);
        machine.flush_microarch();
        let out = machine
            .access(VirtAddr::new(0x20_0000), AccessKind::Read)
            .expect("guest page mapped");
        assert_eq!(out.refs.pmpte_for_npt, npt, "{scheme}: NPT pmpte refs");
        assert_eq!(out.refs.pmpte_for_gpt, gpt, "{scheme}: GPT pmpte refs");
        assert_eq!(out.refs.pmpte_for_data, data, "{scheme}: data pmpte refs");
        assert_eq!(out.refs.total(), total, "{scheme}: total");
    }
}

/// Footnote 1: the counts are ISA-level — microarchitectural help (PWC)
/// reduces them. With a warm PWC, the Sv39 PMPT walk needs only the leaf
/// PTE: 1 PT read + 2 pmpte + data + 2 pmpte = 6.
#[test]
fn pwc_reduces_below_isa_counts() {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::PmpTable).build();
    sys.map_range(VirtAddr::new(0x10_0000), 2, Perms::RW);
    sys.sync_pt_grants();
    sys.machine.flush_microarch();
    sys.machine
        .access(
            &sys.space,
            VirtAddr::new(0x10_0000),
            AccessKind::Read,
            PrivMode::Supervisor,
        )
        .expect("warm");
    let out = sys
        .machine
        .access(
            &sys.space,
            VirtAddr::new(0x10_1000),
            AccessKind::Read,
            PrivMode::Supervisor,
        )
        .expect("neighbour");
    assert_eq!(out.refs.pt_reads, 1);
    assert_eq!(out.refs.total(), 6);
}

/// TLB inlining (Implication-2): a TLB hit needs exactly one reference in
/// every scheme; with inlining disabled, table schemes pay the permission
/// walk on every access.
#[test]
fn tlb_inlining_ablation() {
    // Enabled (default): warm access = 1 ref.
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::PmpTable).build();
    sys.map_range(VirtAddr::new(0x10_0000), 1, Perms::RW);
    sys.sync_pt_grants();
    let va = VirtAddr::new(0x10_0000);
    sys.machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .unwrap();
    let warm = sys
        .machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .unwrap();
    assert_eq!(warm.refs.total(), 1);

    // Disabled: the same TLB hit pays two pmpte references.
    let mut config = MachineConfig::rocket();
    config.tlb_inlining = false;
    let mut sys = SystemBuilder::new(config, IsolationScheme::PmpTable).build();
    sys.map_range(VirtAddr::new(0x10_0000), 1, Perms::RW);
    sys.sync_pt_grants();
    sys.machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .unwrap();
    let warm = sys
        .machine
        .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
        .unwrap();
    assert_eq!(warm.refs.pmpte_for_data, 2);
    assert_eq!(warm.refs.total(), 3);

    // The guest honours the same switch: a warm combined-TLB hit under
    // the permission table pays the data page's two pmpte references.
    let gva = VirtAddr::new(0x20_0000);
    let mut guest = VirtMachine::new(config, VirtScheme::PmpTable, 4);
    guest.access(gva, AccessKind::Read).unwrap();
    let warm = guest.access(gva, AccessKind::Read).unwrap();
    assert!(warm.tlb_hit);
    assert_eq!(warm.refs.pmpte_for_data, 2);
    assert_eq!(warm.refs.total(), 3);
}

/// The §2–§3 arithmetic must survive SMP: on a 2-hart system with one
/// tenant enclave per hart, each hart's *own* cold miss walk still costs
/// exactly the paper's counts — 4 (PMP), 12 (PMPT), 6 (HPMP) — because a
/// walk runs entirely on the hart that issues it. If per-hart accounting
/// double-counted shared steps (or a remote hart's caches bled in), these
/// exact equalities would break.
#[test]
fn reference_formulas_hold_per_hart_under_smp() {
    use hpmp_suite::core::PmpRegion;
    use hpmp_suite::memsim::PhysAddr;
    use hpmp_suite::workloads::smp::setup_tenants;

    let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
    for (flavor, expected_total, expected_for_pt) in [
        (TeeFlavor::PenglaiPmp, 4u64, 0u64),
        (TeeFlavor::PenglaiPmpt, 12, 6),
        (TeeFlavor::PenglaiHpmp, 6, 0),
    ] {
        let mut smp =
            SmpSystem::boot(MachineConfig::rocket(), flavor, ram, 2).expect("SMP system boots");
        let tenants = setup_tenants(&mut smp, 4).expect("tenants boot");
        for hart in 0..2u16 {
            let tenant = &tenants[usize::from(hart)];
            let machine = smp.machine(hart);
            machine.flush_microarch();
            let out = machine
                .access(
                    &tenant.space,
                    tenant.va_base,
                    AccessKind::Read,
                    PrivMode::User,
                )
                .expect("tenant reaches its own page");
            assert_eq!(out.refs.pt_reads, 3, "{flavor} hart {hart}: Sv39 PT reads");
            assert_eq!(
                out.refs.pmpte_for_pt, expected_for_pt,
                "{flavor} hart {hart}: pmpte refs guarding PT pages"
            );
            assert_eq!(
                out.refs.total(),
                expected_total,
                "{flavor} hart {hart}: total walk references"
            );
        }
        // The per-hart counters saw exactly the per-hart work: both harts
        // walked, neither inherited the other's references.
        let snap = smp.metrics_snapshot();
        for hart in 0..2 {
            assert!(
                snap.value(&format!("hart.{hart}.machine.accesses")) >= 1,
                "{flavor} hart {hart} accesses"
            );
        }
    }
}

/// Every entry's raw `(addr, cfg)` register pair.
fn image(regs: &HpmpRegFile) -> Vec<(u64, u8)> {
    (0..regs.len())
        .map(|i| (regs.addr_reg(i), regs.cfg_reg(i).to_bits()))
        .collect()
}

/// `prefix`, then every remaining entry zero.
fn padded(prefix: &[(u64, u8)]) -> Vec<(u64, u8)> {
    let mut entries = prefix.to_vec();
    entries.resize(HPMP_ENTRIES, (0, 0));
    entries
}

// Raw encodings in the pinned images below: `0x27ff_ffff` is the 1 GiB
// RAM at 0x8000_0000 in NAPOT form; cfg `0x1f` is an RWX segment, `0x1b`
// an RW segment, `0x18` a segment with no S/U permission, `0x38` a table
// entry, and an entry after a table entry holds the root's PPN
// (two-level `Mode` bits are zero).

/// The three schemes are one register file: flipping the T bit (plus the
/// pointer register) converts a segment entry into a table entry with no
/// other hardware change (§4.2). Every scheme's image, native and guest,
/// is pinned entry by entry with its CSR-write count.
#[test]
fn schemes_share_one_register_file() {
    let native = [
        (IsolationScheme::Pmp, padded(&[(0x27ff_ffff, 0x1f)]), 2),
        (
            IsolationScheme::PmpTable,
            padded(&[(0x27ff_ffff, 0x38), (0x8_1000, 0)]),
            4,
        ),
        (
            IsolationScheme::Hpmp,
            padded(&[(0x201f_ffff, 0x1b), (0x27ff_ffff, 0x38), (0x8_1000, 0)]),
            6,
        ),
    ];
    for (scheme, want, writes) in native {
        let sys = SystemBuilder::new(MachineConfig::rocket(), scheme).build();
        let regs = sys.machine.regs();
        assert_eq!(image(regs), want, "{scheme}");
        assert_eq!(regs.csr_writes(), writes, "{scheme}");
    }
    let guest = [
        (VirtScheme::Pmp, padded(&[(0x27ff_ffff, 0x1f)]), 2),
        (
            VirtScheme::PmpTable,
            padded(&[(0x27ff_ffff, 0x38), (0x8_0800, 0)]),
            4,
        ),
        (
            VirtScheme::Hpmp,
            padded(&[(0x200f_ffff, 0x1b), (0x27ff_ffff, 0x38), (0x8_0800, 0)]),
            6,
        ),
        (
            VirtScheme::HpmpGpt,
            padded(&[
                (0x200f_ffff, 0x1b),
                (0x208f_ffff, 0x1b),
                (0x27ff_ffff, 0x38),
                (0x8_0800, 0),
            ]),
            8,
        ),
    ];
    for (scheme, want, writes) in guest {
        let vm = VirtMachine::new(MachineConfig::rocket(), scheme, 64);
        assert_eq!(image(vm.regs()), want, "{scheme}");
        assert_eq!(vm.regs().csr_writes(), writes, "{scheme}");
    }
}

/// The monitor's images for every flavour, entry by entry with the running
/// CSR-write count: after boot, after creating an enclave with a fast
/// 16 MiB pool and switching to it, and after switching back to the host.
/// A disabled entry keeps its old address register.
#[test]
fn monitor_images_are_pinned() {
    let monitor = (0x2007_ffff, 0x18);
    let pool = 0x215f_ffff;
    let cases = [
        (
            TeeFlavor::PenglaiPmp,
            [
                (padded(&[monitor, (0x27ff_ffff, 0x1f)]), 19),
                (padded(&[monitor, (pool, 0x1f), (0x27ff_ffff, 0)]), 55),
                (padded(&[monitor, (pool, 0x18), (0x27ff_ffff, 0x1f)]), 74),
            ],
        ),
        (
            TeeFlavor::PenglaiPmpt,
            [
                (padded(&[monitor, (0x27ff_ffff, 0x38), (0x8_0400, 0)]), 21),
                (padded(&[monitor, (0x27ff_ffff, 0x38), (0x8_0401, 0)]), 41),
                (padded(&[monitor, (0x27ff_ffff, 0x38), (0x8_0400, 0)]), 61),
            ],
        ),
        (
            TeeFlavor::PenglaiHpmp,
            [
                (padded(&[monitor, (0x27ff_ffff, 0x38), (0x8_0400, 0)]), 21),
                (
                    padded(&[monitor, (pool, 0x1f), (0x27ff_ffff, 0x38), (0x8_0401, 0)]),
                    43,
                ),
                (padded(&[monitor, (0x27ff_ffff, 0x38), (0x8_0400, 0)]), 63),
            ],
        ),
    ];
    for (flavor, [boot, enclave, host]) in cases {
        let mut machine = Machine::new(MachineConfig::rocket());
        let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
        let mut monitor = SecureMonitor::boot(&mut machine, flavor, ram).expect("boot");
        let check = |machine: &Machine, (want, writes): &(Vec<(u64, u8)>, u64), when: &str| {
            assert_eq!(image(machine.regs()), *want, "{flavor} {when}");
            assert_eq!(machine.regs().csr_writes(), *writes, "{flavor} {when}");
        };
        check(&machine, &boot, "boot");
        let (enclave_id, _) = monitor
            .create_domain(&mut machine, 16 << 20, GmsLabel::Fast)
            .expect("enclave");
        monitor.switch_to(&mut machine, enclave_id).expect("switch");
        check(&machine, &enclave, "enclave");
        monitor
            .switch_to(&mut machine, DomainId::HOST)
            .expect("switch back");
        check(&machine, &host, "host");
    }
}
