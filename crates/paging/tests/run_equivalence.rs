//! Randomised test: the run writer `AddressSpace::map_run`, which descends
//! once per leaf page table, against the per-page `map_page` loop it
//! replaced — for a native space, for the Sv39x4 nested page table, and
//! for a guest page table built through `GuestView`. Both sides replay the
//! same seeded history and must end with the same PT words, the same PT
//! pages in the same order, the same `mapped_pages`, the same frames left,
//! the same resident host pages, the same host pages in the write log and,
//! when a run fails part-way, the same error. Driven by the in-repo
//! [`SplitMix64`] PRNG with fixed seeds, so every run is deterministic and
//! reproducible.

use hpmp_memsim::{
    FrameAllocator, Perms, PhysAddr, PhysMem, SplitMix64, VirtAddr, WordStore, PAGE_SIZE,
};
use hpmp_paging::{AddressSpace, GuestView, MapError, TranslationMode};

const PT_BASE: u64 = 0x8000_0000;
const DATA_BASE: u64 = 0x9000_0000;
/// Pages per leaf page table: a run descends again at multiples of this.
const LEAF_PAGES: u64 = 512;

/// Every word of every page in `pages`, read through `mem`.
fn words(mem: &dyn WordStore, pages: &[PhysAddr]) -> Vec<(PhysAddr, Vec<u64>)> {
    pages
        .iter()
        .map(|&page| {
            let words = (0..PAGE_SIZE / 8)
                .map(|i| mem.read_u64(page + i * 8))
                .collect();
            (page, words)
        })
        .collect()
}

fn random_perms(rng: &mut SplitMix64) -> Perms {
    [Perms::READ, Perms::RW, Perms::RX, Perms::RWX][rng.gen_range(0..4) as usize]
}

/// A PT frame pool: usually roomy, sometimes so tight it runs dry
/// part-way through a run.
fn frame_budget(rng: &mut SplitMix64, tight: std::ops::Range<u64>) -> u64 {
    if rng.gen_bool(0.25) {
        rng.gen_range(tight)
    } else {
        64
    }
}

/// A start page and a page count: near a leaf-table boundary, so most runs
/// cross one, or anywhere in the first eight leaf tables.
fn random_range(rng: &mut SplitMix64) -> (u64, u64) {
    if rng.gen_bool(0.5) {
        let boundary = LEAF_PAGES * rng.gen_range(1..8);
        (boundary - rng.gen_range(1..40), rng.gen_range(1..1200))
    } else {
        (rng.gen_range(0..8 * LEAF_PAGES), rng.gen_range(1..80))
    }
}

/// A native space with random earlier mappings: single pages (a later run
/// meets `AlreadyMapped`) and 2 MiB huge pages (`HugePageConflict`).
fn native_side(
    rng: &mut SplitMix64,
    mode: TranslationMode,
) -> (PhysMem, FrameAllocator, AddressSpace) {
    let mut mem = PhysMem::new();
    let budget = frame_budget(rng, 1..6);
    let mut frames = FrameAllocator::new(PhysAddr::new(PT_BASE), budget * PAGE_SIZE);
    let mut space = AddressSpace::new(mode, 1, &mut mem, &mut frames).unwrap();
    for _ in 0..rng.gen_range(0..4) {
        let page = rng.gen_range(0..8 * LEAF_PAGES);
        let pa = PhysAddr::new(DATA_BASE);
        let _ = if rng.gen_bool(0.3) {
            let huge = VirtAddr::new(page / LEAF_PAGES * LEAF_PAGES * PAGE_SIZE);
            space.map_huge_page(&mut mem, &mut frames, huge, pa, Perms::RW, false, 1)
        } else {
            let va = VirtAddr::new(page * PAGE_SIZE);
            space.map_page(&mut mem, &mut frames, va, pa, Perms::RW, true)
        };
    }
    (mem, frames, space)
}

/// An empty Sv39x4 nested page table.
fn new_npt(mem: &mut PhysMem, frames: &mut FrameAllocator) -> AddressSpace {
    AddressSpace::new(TranslationMode::Sv39x4, 0, mem, frames).unwrap()
}

/// A nested page table with random earlier mappings.
fn nested_side(rng: &mut SplitMix64) -> (PhysMem, FrameAllocator, AddressSpace) {
    let mut mem = PhysMem::new();
    let budget = frame_budget(rng, 4..9);
    let mut frames = FrameAllocator::new(PhysAddr::new(PT_BASE), budget * PAGE_SIZE);
    let mut npt = new_npt(&mut mem, &mut frames);
    for _ in 0..rng.gen_range(0..4) {
        let gpa = VirtAddr::new(rng.gen_range(0..8 * LEAF_PAGES) * PAGE_SIZE);
        let hpa = PhysAddr::new(DATA_BASE);
        let _ = npt.map_page(&mut mem, &mut frames, gpa, hpa, Perms::RWX, true);
    }
    (mem, frames, npt)
}

/// Host memory, a nested page table backing a guest-physical PT pool, and
/// a guest space in that pool with random earlier mappings.
fn guest_side(rng: &mut SplitMix64) -> (PhysMem, AddressSpace, FrameAllocator, AddressSpace) {
    const GPA_PT_POOL: u64 = 0x1000_0000;
    const GPA_PT_POOL_PAGES: u64 = 64;
    let mut mem = PhysMem::new();
    let mut npt_frames = FrameAllocator::new(PhysAddr::new(PT_BASE), 64 * PAGE_SIZE);
    let mut npt = new_npt(&mut mem, &mut npt_frames);
    let pool = PhysAddr::new(GPA_PT_POOL);
    npt.map_run(
        &mut mem,
        &mut npt_frames,
        VirtAddr::new(GPA_PT_POOL),
        PhysAddr::new(0xa000_0000),
        GPA_PT_POOL_PAGES,
        Perms::RWX,
        true,
    )
    .unwrap();
    let budget = frame_budget(rng, 1..6);
    let mut frames = FrameAllocator::new(pool, budget * PAGE_SIZE);
    let mut view = GuestView::new(&mut mem, &npt);
    let mut guest = AddressSpace::new(TranslationMode::Sv39, 5, &mut view, &mut frames).unwrap();
    for _ in 0..rng.gen_range(0..4) {
        let gva = VirtAddr::new(rng.gen_range(0..8 * LEAF_PAGES) * PAGE_SIZE);
        let gpa = PhysAddr::new(DATA_BASE);
        let _ = guest.map_page(&mut view, &mut frames, gva, gpa, Perms::RW, true);
    }
    (mem, npt, frames, guest)
}

#[test]
fn native_runs_match_the_per_page_loop() {
    let mut rng = SplitMix64::seed_from_u64(0x3a9_0b5);
    for case in 0..300 {
        let mode = if rng.gen_bool(0.7) {
            TranslationMode::Sv39
        } else {
            TranslationMode::Sv48
        };
        let history = rng.next_u64();
        let (mut mem, mut frames, mut space) =
            native_side(&mut SplitMix64::seed_from_u64(history), mode);
        let (mut ref_mem, mut ref_frames, mut reference) =
            native_side(&mut SplitMix64::seed_from_u64(history), mode);
        let (start, pages) = random_range(&mut rng);
        // Some runs climb past the top of the Sv39 space into
        // non-canonical addresses.
        let va = if mode == TranslationMode::Sv39 && rng.gen_bool(0.1) {
            VirtAddr::new((1 << 39) - rng.gen_range(1..30) * PAGE_SIZE)
        } else {
            VirtAddr::new(start * PAGE_SIZE)
        };
        let pa = PhysAddr::new(DATA_BASE + rng.gen_range(0..1024) * PAGE_SIZE);
        let (perms, user) = (random_perms(&mut rng), rng.gen_bool(0.5));

        mem.set_write_log(true);
        ref_mem.set_write_log(true);
        let before = space.mapped_pages();
        let got = space.map_run(&mut mem, &mut frames, va, pa, pages, perms, user);
        let want = (0..pages).try_for_each(|i| {
            let (va, pa) = (va + i * PAGE_SIZE, pa + i * PAGE_SIZE);
            reference.map_page(&mut ref_mem, &mut ref_frames, va, pa, perms, user)
        });
        let label = format!("case {case}: {mode:?} {va} + {pages} pages");
        assert_eq!(
            mem.take_dirty_pfns(),
            ref_mem.take_dirty_pfns(),
            "{label}: pages written"
        );
        assert_eq!(got, want, "{label}: result");
        // Independent of both writers: the software walk finds every page
        // the run counts as mapped, as asked, and all of them on success.
        let added = space.mapped_pages() - before;
        assert!(got.is_err() || added == pages, "{label}: pages mapped");
        for i in 0..added {
            let t = space.translate(&mem, va + i * PAGE_SIZE).unwrap();
            let want = (pa + i * PAGE_SIZE, perms, user, 0);
            assert_eq!(
                (t.paddr, t.perms, t.user, t.level),
                want,
                "{label}: page {i}"
            );
        }
        assert_eq!(space.pt_pages(), reference.pt_pages(), "{label}: PT pages");
        assert_eq!(
            space.mapped_pages(),
            reference.mapped_pages(),
            "{label}: mapped pages"
        );
        assert_eq!(
            words(&mem, space.pt_pages()),
            words(&ref_mem, reference.pt_pages()),
            "{label}: PT words"
        );
        assert_eq!(
            frames.remaining(),
            ref_frames.remaining(),
            "{label}: frames"
        );
        assert_eq!(
            mem.resident_pages(),
            ref_mem.resident_pages(),
            "{label}: resident pages"
        );
    }
}

#[test]
fn nested_runs_match_the_per_page_loop() {
    let mut rng = SplitMix64::seed_from_u64(0x9e5_7ed);
    for case in 0..300 {
        let history = rng.next_u64();
        let (mut mem, mut frames, mut npt) = nested_side(&mut SplitMix64::seed_from_u64(history));
        let (mut ref_mem, mut ref_frames, mut reference) =
            nested_side(&mut SplitMix64::seed_from_u64(history));
        let (start, pages) = random_range(&mut rng);
        // Some runs climb past the 41-bit Sv39x4 input space.
        let gpa = if rng.gen_bool(0.1) {
            VirtAddr::new((1 << 41) - rng.gen_range(1..30) * PAGE_SIZE)
        } else {
            VirtAddr::new(start * PAGE_SIZE)
        };
        let hpa = PhysAddr::new(DATA_BASE + rng.gen_range(0..1024) * PAGE_SIZE);
        let perms = if rng.gen_bool(0.5) {
            Perms::RWX
        } else {
            Perms::RX
        };

        mem.set_write_log(true);
        ref_mem.set_write_log(true);
        let before = npt.mapped_pages();
        let got = npt.map_run(&mut mem, &mut frames, gpa, hpa, pages, perms, true);
        let want = (0..pages).try_for_each(|i| {
            let (gpa, hpa) = (gpa + i * PAGE_SIZE, hpa + i * PAGE_SIZE);
            reference.map_page(&mut ref_mem, &mut ref_frames, gpa, hpa, perms, true)
        });
        let label = format!("case {case}: {gpa} + {pages} pages");
        assert_eq!(
            mem.take_dirty_pfns(),
            ref_mem.take_dirty_pfns(),
            "{label}: pages written"
        );
        assert_eq!(got, want, "{label}: result");
        let added = npt.mapped_pages() - before;
        assert!(got.is_err() || added == pages, "{label}: pages mapped");
        for i in 0..added {
            let host = npt.translate(&mem, gpa + i * PAGE_SIZE).map(|t| t.paddr);
            assert_eq!(host, Some(hpa + i * PAGE_SIZE), "{label}: page {i}");
        }
        assert_eq!(npt.pt_pages(), reference.pt_pages(), "{label}: PT pages");
        assert_eq!(
            npt.mapped_pages(),
            reference.mapped_pages(),
            "{label}: mapped pages"
        );
        assert_eq!(
            words(&mem, npt.pt_pages()),
            words(&ref_mem, reference.pt_pages()),
            "{label}: PT words"
        );
        assert_eq!(
            frames.remaining(),
            ref_frames.remaining(),
            "{label}: frames"
        );
        assert_eq!(
            mem.resident_pages(),
            ref_mem.resident_pages(),
            "{label}: resident pages"
        );
    }
}

/// The guest page table of the virtualized fixture: guest-physical PT
/// pages backed through the nested page table, every word read and written
/// through `GuestView`.
#[test]
fn guest_runs_through_the_nested_view_match_the_per_page_loop() {
    let mut rng = SplitMix64::seed_from_u64(0x6e5_7a7);
    for case in 0..100 {
        let history = rng.next_u64();
        let (mut mem, npt, mut frames, mut guest) =
            guest_side(&mut SplitMix64::seed_from_u64(history));
        let (mut ref_mem, ref_npt, mut ref_frames, mut reference) =
            guest_side(&mut SplitMix64::seed_from_u64(history));
        let (start, pages) = random_range(&mut rng);
        let (gva, gpa) = (VirtAddr::new(start * PAGE_SIZE), PhysAddr::new(DATA_BASE));

        mem.set_write_log(true);
        ref_mem.set_write_log(true);
        let mut view = GuestView::new(&mut mem, &npt);
        let before = guest.mapped_pages();
        let got = guest.map_run(&mut view, &mut frames, gva, gpa, pages, Perms::RW, true);
        let mut ref_view = GuestView::new(&mut ref_mem, &ref_npt);
        let want = (0..pages).try_for_each(|i| {
            let (gva, gpa) = (gva + i * PAGE_SIZE, gpa + i * PAGE_SIZE);
            reference.map_page(&mut ref_view, &mut ref_frames, gva, gpa, Perms::RW, true)
        });
        let label = format!("case {case}: {gva} + {pages} pages");
        assert_eq!(got, want, "{label}: result");
        let added = guest.mapped_pages() - before;
        assert!(got.is_err() || added == pages, "{label}: pages mapped");
        for i in 0..added {
            let t = guest.translate(&view, gva + i * PAGE_SIZE).unwrap();
            assert_eq!(t.paddr, gpa + i * PAGE_SIZE, "{label}: page {i}");
        }
        assert_eq!(guest.pt_pages(), reference.pt_pages(), "{label}: PT pages");
        assert_eq!(
            guest.mapped_pages(),
            reference.mapped_pages(),
            "{label}: mapped pages"
        );
        assert_eq!(
            words(&view, guest.pt_pages()),
            words(&ref_view, reference.pt_pages()),
            "{label}: PT words"
        );
        assert_eq!(
            frames.remaining(),
            ref_frames.remaining(),
            "{label}: frames"
        );
        assert_eq!(
            mem.take_dirty_pfns(),
            ref_mem.take_dirty_pfns(),
            "{label}: host pages written"
        );
        assert_eq!(
            mem.resident_pages(),
            ref_mem.resident_pages(),
            "{label}: resident pages"
        );
    }
}

/// One of each partial-failure mode, pinned directly: the error, the pages
/// mapped before it and the PT pages created.
#[test]
fn partial_runs_stop_where_the_per_page_loop_does() {
    let run = |budget: u64, premapped: Option<u64>, va: u64, pages: u64| {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(PT_BASE), budget * PAGE_SIZE);
        let mut space = AddressSpace::new(TranslationMode::Sv39, 1, &mut mem, &mut frames).unwrap();
        let pa = PhysAddr::new(DATA_BASE);
        if let Some(page) = premapped {
            let va = VirtAddr::new(page * PAGE_SIZE);
            space
                .map_page(&mut mem, &mut frames, va, pa, Perms::RW, true)
                .unwrap();
        }
        let va = VirtAddr::new(va);
        let result = space.map_run(&mut mem, &mut frames, va, pa, pages, Perms::RW, true);
        (result, space.mapped_pages(), space.pt_pages().len())
    };
    // An already-mapped page in the second leaf table: the three pages
    // before it stay mapped.
    let va = (LEAF_PAGES - 2) * PAGE_SIZE;
    let taken = VirtAddr::new((LEAF_PAGES + 1) * PAGE_SIZE);
    assert_eq!(
        run(64, Some(LEAF_PAGES + 1), va, 8),
        (Err(MapError::AlreadyMapped(taken)), 1 + 3, 4)
    );
    // PT frames run dry at the second leaf table: root, L1 and one L0 fit.
    assert_eq!(run(3, None, va, 8), (Err(MapError::OutOfPtFrames), 2, 3));
    // The top of the Sv39 space: the canonical pages map, then the error.
    let top = (1u64 << 39) - 2 * PAGE_SIZE;
    assert_eq!(
        run(64, None, top, 4),
        (Err(MapError::NonCanonical(VirtAddr::new(1 << 39))), 2, 3)
    );
}

/// A run stopped by an `AlreadyMapped` at slot 0 of a leaf table writes
/// nothing there: the table page is neither written nor logged, natively
/// or through `GuestView`, and the pages before it in the previous leaf
/// table stay mapped.
#[test]
fn a_run_stopped_at_a_leaf_tables_first_slot_writes_nothing_there() {
    let taken = VirtAddr::new(LEAF_PAGES * PAGE_SIZE);
    let pa = PhysAddr::new(DATA_BASE);

    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(PhysAddr::new(PT_BASE), 64 * PAGE_SIZE);
    let mut space = AddressSpace::new(TranslationMode::Sv39, 1, &mut mem, &mut frames).unwrap();
    space
        .map_page(&mut mem, &mut frames, taken, pa, Perms::RW, true)
        .unwrap();
    let resident = mem.resident_pages();
    mem.set_write_log(true);
    let got = space.map_run(&mut mem, &mut frames, taken, pa, 8, Perms::RW, true);
    assert_eq!(got, Err(MapError::AlreadyMapped(taken)));
    assert_eq!(mem.take_dirty_pfns(), Vec::<u64>::new(), "native: logged");
    assert_eq!(mem.resident_pages(), resident, "native: resident pages");
    assert_eq!(space.mapped_pages(), 1);

    // From two pages before the taken slot: the L1 table (a new pointer)
    // and the new leaf table below it are logged; the leaf table whose
    // first slot is taken is not.
    let va = taken - 2 * PAGE_SIZE;
    let got = space.map_run(&mut mem, &mut frames, va, pa, 8, Perms::RW, true);
    assert_eq!(got, Err(MapError::AlreadyMapped(taken)));
    let l1 = space.pt_pages()[1].page_number();
    let first_leaf = space.pt_pages()[3].page_number();
    assert_eq!(mem.take_dirty_pfns(), vec![l1, first_leaf]);
    assert_eq!(space.mapped_pages(), 3);

    let (mut mem, npt, mut frames, mut guest) = guest_side(&mut SplitMix64::seed_from_u64(1));
    let mut view = GuestView::new(&mut mem, &npt);
    guest
        .map_page(&mut view, &mut frames, taken, pa, Perms::RW, true)
        .unwrap();
    let resident = mem.resident_pages();
    mem.set_write_log(true);
    let mut view = GuestView::new(&mut mem, &npt);
    let got = guest.map_run(&mut view, &mut frames, taken, pa, 8, Perms::RW, true);
    assert_eq!(got, Err(MapError::AlreadyMapped(taken)));
    assert_eq!(mem.take_dirty_pfns(), Vec::<u64>::new(), "guest: logged");
    assert_eq!(mem.resident_pages(), resident, "guest: resident pages");
}
