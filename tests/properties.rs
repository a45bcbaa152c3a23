//! Randomised property tests over the core data structures and their
//! invariants: register encodings round-trip, permission tables agree with a
//! reference model, address spaces translate consistently with the hardware
//! walker, and the HPMP checker is deterministic and priority-correct.
//!
//! Cases are driven by the in-repo [`SplitMix64`] generator with fixed
//! seeds, so every run explores the same (large) case set deterministically
//! and failures are directly reproducible.

use hpmp_suite::core::{
    napot_decode, napot_encode, table_pointer_decode, table_pointer_encode, AddressMode, LeafPmpte,
    PmpConfig, PmpRegion, PmpTable, RootPmpte, TableOffset,
};
use hpmp_suite::memsim::{
    AccessKind, FrameAllocator, Perms, PhysAddr, PhysMem, SplitMix64, VirtAddr, PAGE_SIZE,
};
use hpmp_suite::paging::{walk, AddressSpace, Pte, TranslationMode, WalkCache, WalkCacheConfig};
use std::collections::HashMap;

fn perms(rng: &mut SplitMix64) -> Perms {
    Perms::from_bits_truncate(rng.gen_range(0..8) as u8)
}

#[test]
fn napot_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0x9a01);
    for _ in 0..256 {
        let size_log = rng.gen_range(3..36) as u32;
        let base_sel = rng.gen_range(0..1024);
        let size = 1u64 << size_log;
        let base = PhysAddr::new((base_sel << size_log) & ((1 << 48) - 1));
        let encoded = napot_encode(base, size);
        let (b, s) = napot_decode(encoded);
        assert_eq!(b, base);
        assert_eq!(s, size);
    }
}

#[test]
fn pmp_config_round_trip() {
    for bits in 0..=u8::MAX {
        let cfg = PmpConfig::from_bits(bits);
        assert_eq!(PmpConfig::from_bits(cfg.to_bits()), cfg);
        assert_eq!(cfg.to_bits() & (1 << 6), 0, "reserved bit reads zero");
    }
}

#[test]
fn pmp_config_fields() {
    let mut rng = SplitMix64::seed_from_u64(0x9a02);
    for _ in 0..256 {
        let p = perms(&mut rng);
        let mode = AddressMode::from_bits(rng.gen_range(0..4) as u8);
        let table = rng.gen_bool(0.5);
        let locked = rng.gen_bool(0.5);
        let mut cfg = PmpConfig::new(p, mode).with_table_mode(table);
        if locked {
            cfg = cfg.with_locked();
        }
        assert_eq!(cfg.perms(), p);
        assert_eq!(cfg.address_mode(), mode);
        assert_eq!(cfg.table_mode(), table);
        assert_eq!(cfg.locked(), locked);
    }
}

#[test]
fn pte_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0x9a03);
    for _ in 0..256 {
        let ppn = rng.gen_range(0..1 << 30);
        let p = Perms::from_bits_truncate(rng.gen_range(1..8) as u8);
        let user = rng.gen_bool(0.5);
        let frame = PhysAddr::new(ppn << 12);
        let pte = Pte::leaf(frame, p, user);
        assert!(pte.is_leaf());
        assert_eq!(pte.target(), frame);
        assert_eq!(pte.perms(), p);
        assert_eq!(pte.is_user(), user);
        assert_eq!(Pte::from_bits(pte.to_bits()), pte);
    }
}

#[test]
fn leaf_pmpte_nibble_independence() {
    let mut rng = SplitMix64::seed_from_u64(0x9a04);
    for _ in 0..256 {
        let initial = rng.next_u64();
        let index = rng.gen_range(0..16) as usize;
        let p = perms(&mut rng);
        let before = LeafPmpte::from_bits(initial & 0x7777_7777_7777_7777);
        let after = before.with_perm(index, p);
        assert_eq!(after.perm(index), p);
        for other in 0..16 {
            if other != index {
                assert_eq!(after.perm(other), before.perm(other));
            }
        }
    }
}

#[test]
fn table_offset_split_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0x9a05);
    for _ in 0..512 {
        let offset = rng.gen_range(0..16u64 << 30);
        let split = TableOffset::split(offset);
        assert!(split.off1 < 512);
        assert!(split.off0 < 512);
        assert!(split.page_index < 16);
        let rebuilt = (split.off1 << 25)
            | (split.off0 << 16)
            | ((split.page_index as u64) << 12)
            | (offset & 0xfff);
        assert_eq!(rebuilt, offset & ((1 << 34) - 1));
    }
}

#[test]
fn root_pmpte_encodings() {
    let mut rng = SplitMix64::seed_from_u64(0x9a06);
    for _ in 0..256 {
        let ppn = rng.gen_range(0..1 << 30);
        let perm_bits = rng.gen_range(1..8) as u8;
        let pointer = RootPmpte::pointer(PhysAddr::new(ppn << 12));
        assert!(pointer.is_pointer() && !pointer.is_huge());
        assert_eq!(pointer.leaf_table(), PhysAddr::new(ppn << 12));
        let huge = RootPmpte::huge(Perms::from_bits_truncate(perm_bits));
        assert!(huge.is_huge() && !huge.is_pointer());
        assert_eq!(RootPmpte::from_bits(pointer.to_bits()), pointer);
    }
}

#[test]
fn table_pointer_register_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0x9a07);
    for _ in 0..256 {
        let ppn = rng.gen_range(0..1u64 << 44);
        let reserved = rng.gen_range(1..4);
        let root = PhysAddr::new(ppn << 12);
        let reg = table_pointer_encode(root);
        assert_eq!(table_pointer_decode(reg), Some(root), "Mode = 0");
        assert_eq!(table_pointer_decode(reg | (reserved << 62)), None);
    }
}

#[test]
fn pmp_table_matches_reference_model() {
    let mut rng = SplitMix64::seed_from_u64(0x9a08);
    for _ in 0..64 {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x1_0000_0000), 512 * PAGE_SIZE);
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 27);
        let mut table = PmpTable::new(region, &mut mem, &mut frames).expect("table");
        let mut model: HashMap<u64, Perms> = HashMap::new();

        let n_ops = rng.gen_range(1..60) as usize;
        let ops: Vec<(u64, Perms)> = (0..n_ops)
            .map(|_| (rng.gen_range(0..512), perms(&mut rng)))
            .collect();
        for (page, p) in &ops {
            let addr = PhysAddr::new(region.base.raw() + page * PAGE_SIZE);
            table
                .set_page_perm(&mut mem, &mut frames, addr, *p)
                .expect("set");
            model.insert(*page, *p);
        }
        for (page, _) in &ops {
            let addr = PhysAddr::new(region.base.raw() + page * PAGE_SIZE + 0x123);
            let expected = model.get(page).copied().filter(|p| !p.is_empty());
            assert_eq!(table.lookup(&mem, addr), expected);
        }
    }
}

#[test]
fn walker_agrees_with_translate() {
    let mut rng = SplitMix64::seed_from_u64(0x9a09);
    for _ in 0..64 {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 512 * PAGE_SIZE);
        let mut space =
            AddressSpace::new(TranslationMode::Sv39, 1, &mut mem, &mut frames).expect("space");
        let n_pages = rng.gen_range(1..24) as usize;
        for i in 0..n_pages {
            let va = VirtAddr::new(0x100_0000 + rng.gen_range(0..4096) * PAGE_SIZE);
            let pa = PhysAddr::new(0x4000_0000 + (i as u64) * PAGE_SIZE);
            // Duplicate pages in the input are legal; only the first maps.
            let _ = space.map_page(&mut mem, &mut frames, va, pa, Perms::RW, true);
        }
        let probe = rng.gen_range(0..8192);
        let va = VirtAddr::new(0x100_0000 + probe * PAGE_SIZE + 0x7f8);
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        let hw = walk(&mem, &space, &mut pwc, va).translation;
        let sw = space.translate(&mem, va);
        assert_eq!(hw, sw);
        // And a second, PWC-assisted walk returns the same translation.
        let hw2 = walk(&mem, &space, &mut pwc, va).translation;
        assert_eq!(hw2, sw);
    }
}

#[test]
fn checker_priority_is_static() {
    use hpmp_suite::core::{HpmpRegFile, PmptwCache};
    let mut rng = SplitMix64::seed_from_u64(0x9a0a);
    for _ in 0..128 {
        let hi_perms = perms(&mut rng);
        let lo_perms = perms(&mut rng);
        let offset = rng.gen_range(0..0x1000);
        let mut regs = HpmpRegFile::new();
        let region = PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000);
        let wider = PmpRegion::new(PhysAddr::new(0x8000_0000), 0x10_0000);
        regs.configure_segment(0, region, hi_perms)
            .expect("entry 0");
        regs.configure_segment(1, wider, lo_perms).expect("entry 1");
        let mem = PhysMem::new();
        let mut cache = PmptwCache::disabled();
        let addr = PhysAddr::new(0x8000_0000 + (offset & !7));
        let out = regs.check(
            &mem,
            &mut cache,
            addr,
            AccessKind::Read,
            hpmp_suite::memsim::PrivMode::Supervisor,
        );
        assert_eq!(out.matched_entry, Some(0));
        assert_eq!(out.allowed, hi_perms.can_read());
        // Determinism: same inputs, same answer.
        let again = regs.check(
            &mem,
            &mut cache,
            addr,
            AccessKind::Read,
            hpmp_suite::memsim::PrivMode::Supervisor,
        );
        assert_eq!(out.allowed, again.allowed);
    }
}

#[test]
fn nested_walk_is_composition() {
    use hpmp_suite::paging::{
        nested_walk, GuestView, Tlb, TlbConfig, WalkCache as Wc, WalkCacheConfig as WcCfg,
    };
    for probe_page in 0..32u64 {
        let mut mem = PhysMem::new();
        let mut host_frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 512 * PAGE_SIZE);
        let mut npt =
            AddressSpace::new(TranslationMode::Sv39x4, 0, &mut mem, &mut host_frames).expect("npt");
        // Guest-physical pool at 0x100_0000, identity+offset host backing.
        for i in 0..64u64 {
            let gpa = VirtAddr::new(0x100_0000 + i * PAGE_SIZE);
            let hpa = PhysAddr::new(0x4000_0000 + i * PAGE_SIZE);
            npt.map_page(&mut mem, &mut host_frames, gpa, hpa, Perms::RWX, true)
                .expect("npt map");
        }
        let mut guest_pt = FrameAllocator::new(PhysAddr::new(0x100_0000), 16 * PAGE_SIZE);
        let mut view = GuestView::new(&mut mem, &npt);
        let mut guest =
            AddressSpace::new(TranslationMode::Sv39, 3, &mut view, &mut guest_pt).expect("guest");
        // Map every even page of a 32-page window.
        for i in (0..32u64).step_by(2) {
            let gva = VirtAddr::new(0x40_0000 + i * PAGE_SIZE);
            let gpa = PhysAddr::new(0x100_0000 + (32 + i / 2) * PAGE_SIZE);
            guest
                .map_page(&mut view, &mut guest_pt, gva, gpa, Perms::RW, true)
                .expect("guest map");
        }
        let gva = VirtAddr::new(0x40_0000 + probe_page * PAGE_SIZE + 0x18);
        let mut gtlb = Tlb::new(TlbConfig::default());
        let mut gpwc = Wc::new(WcCfg::default());
        let walked = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, gva, |_, _, _| {})
            .map(|t| t.paddr);
        let composed = {
            let view = GuestView::new(&mut mem, &npt);
            guest
                .translate(&view, gva)
                .and_then(|t| npt.translate(&mem, VirtAddr::new(t.paddr.raw())))
                .map(|t| t.paddr)
        };
        assert_eq!(walked, composed);
    }
}

#[test]
fn iopmp_priority_stable() {
    use hpmp_suite::core::{DeviceId, IoPmp, IoPmpEntry, IoPmpMode};
    let mut rng = SplitMix64::seed_from_u64(0x9a0b);
    for _ in 0..128 {
        let perms_a = perms(&mut rng);
        let perms_b = perms(&mut rng);
        let device = rng.gen_range(0..8) as u8;
        let offset = rng.gen_range(0..0x1000);
        let mem = PhysMem::new();
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 0x1000);
        let mut iopmp = IoPmp::new();
        iopmp.push(IoPmpEntry {
            source_mask: !0,
            region,
            mode: IoPmpMode::Segment(perms_a),
        });
        let addr = PhysAddr::new(0x9000_0000 + (offset & !7));
        let before = iopmp
            .check(&mem, DeviceId(device), addr, AccessKind::Read)
            .allowed;
        iopmp.push(IoPmpEntry {
            source_mask: !0,
            region,
            mode: IoPmpMode::Segment(perms_b),
        });
        let after = iopmp
            .check(&mem, DeviceId(device), addr, AccessKind::Read)
            .allowed;
        assert_eq!(
            before, after,
            "a later entry must not override an earlier one"
        );
        assert_eq!(before, perms_a.can_read());
    }
}

#[test]
fn perms_algebra() {
    for a_bits in 0..8u8 {
        for b_bits in 0..8u8 {
            let a = Perms::from_bits_truncate(a_bits);
            let b = Perms::from_bits_truncate(b_bits);
            let union = a | b;
            for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Fetch] {
                assert_eq!(union.allows(kind), a.allows(kind) || b.allows(kind));
                assert_eq!((a & b).allows(kind), a.allows(kind) && b.allows(kind));
            }
            assert!(union.contains(a) && union.contains(b));
        }
    }
}
