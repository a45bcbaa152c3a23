//! §4.3 sizing arithmetic with the ePMP extension: "16 HPMP entries can
//! support 8 PMP Table and therefore support 128GB of memory. Moreover,
//! future RISC-V processors will support 64 PMP entries with the ePMP
//! extension. With 64 entries, a CPU can use 2-level tables to manage 512GB
//! of memory."

use hpmp_suite::core::{
    HpmpRegFile, PmpRegion, PmpTable, PmptwCache, EPMP_ENTRIES, HPMP_ENTRIES, ROOT_TABLE_SPAN,
};
use hpmp_suite::memsim::{
    AccessKind, FrameAllocator, Perms, PhysAddr, PhysMem, PrivMode, PAGE_SIZE,
};

/// Programs as many 16 GiB table-mode entries as the file fits and returns
/// the protected bytes.
fn fill_with_tables(entries: usize) -> (PhysMem, HpmpRegFile, u64) {
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(PhysAddr::new(0x80_0000_0000), 4096 * PAGE_SIZE);
    let mut regs = HpmpRegFile::with_entries(entries);
    let mut covered = 0u64;
    let mut idx = 0;
    // Each table-mode entry consumes two registers (entry + pointer).
    while idx + 1 < entries {
        let base = PhysAddr::new(0x100_0000_0000 + covered);
        let region = PmpRegion::new(base, ROOT_TABLE_SPAN);
        let mut table = PmpTable::new(region, &mut mem, &mut frames).expect("table");
        table
            .set_page_perm(&mut mem, &mut frames, base, Perms::RW)
            .expect("grant first page");
        regs.configure_table(idx, region, table.root())
            .expect("entry");
        covered += ROOT_TABLE_SPAN;
        idx += 2;
    }
    (mem, regs, covered)
}

#[test]
fn sixteen_entries_reach_128_gib() {
    let (_, regs, covered) = fill_with_tables(HPMP_ENTRIES);
    assert_eq!(regs.len(), 16);
    assert_eq!(covered, 128u64 << 30, "16 entries = 8 tables = 128 GiB");
}

#[test]
fn epmp_entries_reach_512_gib() {
    let (_, regs, covered) = fill_with_tables(EPMP_ENTRIES);
    assert_eq!(regs.len(), 64);
    // 64 entries = 32 table pairs = 512 GiB, matching §4.3 exactly.
    assert_eq!(covered, 512u64 << 30, "64 entries = 32 tables = 512 GiB");
}

#[test]
fn all_epmp_tables_are_live() {
    let (mem, regs, covered) = fill_with_tables(EPMP_ENTRIES);
    let mut cache = PmptwCache::disabled();
    // The first page of every protected 16 GiB region was granted; spot
    // check the first, a middle, and the last region.
    for region_idx in [0u64, 15, covered / ROOT_TABLE_SPAN - 1] {
        let addr = PhysAddr::new(0x100_0000_0000 + region_idx * ROOT_TABLE_SPAN);
        let out = regs.check(
            &mem,
            &mut cache,
            addr,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(
            out.allowed,
            "region {region_idx} must be table-checked and granted"
        );
        assert_eq!(out.refs.len(), 2, "2-level walk");
        // An ungranted page in the same region is denied, not unmatched.
        let deny = regs.check(
            &mem,
            &mut cache,
            addr + PAGE_SIZE,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(!deny.allowed);
        assert!(deny.matched_entry.is_some());
    }
}

#[test]
fn epmp_monitor_scales_pmp_flavor() {
    use hpmp_suite::machine::{Machine, MachineConfig};
    use hpmp_suite::penglai::{GmsLabel, MonitorError, SecureMonitor, TeeFlavor};

    // With 64 entries even the segment-per-region flavour supports far more
    // enclaves before hitting the wall.
    let mut config = MachineConfig::rocket();
    config.hpmp_entries = EPMP_ENTRIES;
    let mut machine = Machine::new(config);
    let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
    let mut monitor =
        SecureMonitor::boot(&mut machine, TeeFlavor::PenglaiPmp, ram).expect("monitor boots");
    let mut created = 0;
    loop {
        match monitor.create_domain(&mut machine, 1 << 20, GmsLabel::Slow) {
            Ok(_) => created += 1,
            Err(MonitorError::OutOfPmpEntries) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
        assert!(created < 128);
    }
    assert!(
        created > 30,
        "ePMP should lift the wall well past 16: {created}"
    );
    assert!(created < 64, "but the wall still exists");
}
