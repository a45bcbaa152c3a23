//! Randomised test: `PmpTable::set_range_perm`, which descends once per
//! leaf table and updates its leaf pmptes in the borrowed table page,
//! against the per-page loop it replaced. Both sides start from identical
//! tables and must end with the same table words, the same table pages in
//! the same order, the same frames left, the same resident pages, the same
//! pages in the write log, the same `writes` and, when a range fails
//! part-way, the same error. Driven by the in-repo [`SplitMix64`] PRNG
//! with fixed seeds, so every run is deterministic and reproducible.

use hpmp_core::{FillPolicy, PmpRegion, PmpTable, TableError, LEAF_PMPTE_SPAN, LEAF_TABLE_SPAN};
use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, PhysMem, SplitMix64, PAGE_SIZE};

const FRAMES_BASE: u64 = 0x1_0000_0000;

/// One side of a comparison: memory, the table's frame pool and the table.
#[derive(Clone)]
struct Side {
    mem: PhysMem,
    frames: FrameAllocator,
    table: PmpTable,
}

impl Side {
    fn new(region: PmpRegion, frame_budget: u64) -> Side {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(FRAMES_BASE), frame_budget * PAGE_SIZE);
        let table = PmpTable::new(region, &mut mem, &mut frames).unwrap();
        Side { mem, frames, table }
    }

    fn run(
        &mut self,
        base: PhysAddr,
        len: u64,
        perms: Perms,
        policy: FillPolicy,
    ) -> Result<u64, TableError> {
        self.mem.set_write_log(true);
        self.table
            .set_range_perm(&mut self.mem, &mut self.frames, base, len, perms, policy)
    }

    /// The per-page loop: one `set_page_perm` per page, and one root pmpte
    /// (huge, or invalid for no permission) for every aligned 32 MiB span
    /// under `HugeWhenAligned`.
    fn per_page(
        &mut self,
        base: PhysAddr,
        len: u64,
        perms: Perms,
        policy: FillPolicy,
    ) -> Result<u64, TableError> {
        self.mem.set_write_log(true);
        if !base.is_aligned(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(TableError::Misaligned(base));
        }
        let region = self.table.region();
        let end = base + len;
        let mut cursor = base;
        let mut writes = 0;
        while cursor < end {
            let offset = cursor.raw() - region.base.raw();
            if policy == FillPolicy::HugeWhenAligned
                && offset.is_multiple_of(LEAF_TABLE_SPAN)
                && end.raw() - cursor.raw() >= LEAF_TABLE_SPAN
            {
                self.table.set_huge_perm(&mut self.mem, cursor, perms)?;
                cursor += LEAF_TABLE_SPAN;
            } else {
                self.table
                    .set_page_perm(&mut self.mem, &mut self.frames, cursor, perms)?;
                cursor += PAGE_SIZE;
            }
            writes += 1;
        }
        Ok(writes)
    }

    /// Every word of every table page, in `table_pages()` order.
    fn words(&self) -> Vec<(PhysAddr, Vec<u64>)> {
        self.table
            .table_pages()
            .iter()
            .map(|&page| {
                let words = (0..PAGE_SIZE / 8)
                    .map(|i| self.mem.read_u64(page + i * 8))
                    .collect();
                (page, words)
            })
            .collect()
    }

    /// Compares everything both writers leave behind; the write logs
    /// cover each side's last `run` or `per_page`.
    fn assert_same(&mut self, other: &mut Side, case: &str) {
        assert_eq!(self.words(), other.words(), "{case}: table pages or words");
        assert_eq!(
            self.frames.clone().alloc(),
            other.frames.clone().alloc(),
            "{case}: table frames left"
        );
        assert_eq!(
            self.mem.resident_pages(),
            other.mem.resident_pages(),
            "{case}: resident pages"
        );
        assert_eq!(
            self.mem.take_dirty_pfns(),
            other.mem.take_dirty_pfns(),
            "{case}: pages written"
        );
    }
}

fn random_perms(rng: &mut SplitMix64) -> Perms {
    [Perms::NONE, Perms::READ, Perms::RW, Perms::RX, Perms::RWX][rng.gen_range(0..5) as usize]
}

/// A page-aligned address `pages` pages into the region, which need not
/// itself start on a leaf-pmpte boundary.
fn page_in(region: PmpRegion, pages: u64) -> PhysAddr {
    region.base + pages * PAGE_SIZE
}

/// Runs one random case: random earlier grants (which materialise leaf
/// tables and huge root pmptes), an optional planted corrupt pmpte, then
/// the same range through both writers.
fn one_case(rng: &mut SplitMix64, case: usize) {
    // One case in eight protects a small region, ending inside its first
    // leaf table.
    let small = rng.gen_range(0..8) == 0;
    // Region bases on and off a 64 KiB leaf-pmpte boundary, and sizes that
    // end part-way through a leaf pmpte and a leaf table.
    let base = 0x9000_0000 + rng.gen_range(0..3) * 0x3000;
    let size = if small {
        LEAF_TABLE_SPAN - rng.gen_range(0..40) * PAGE_SIZE
    } else {
        3 * LEAF_TABLE_SPAN + rng.gen_range(0..600) * PAGE_SIZE
    };
    let region = PmpRegion::new(PhysAddr::new(base), size);
    let region_pages = size / PAGE_SIZE;
    // A tight frame pool runs dry part-way through some ranges.
    let budget = if rng.gen_bool(0.25) {
        rng.gen_range(1..5)
    } else {
        64
    };
    let mut side = Side::new(region, budget);

    for _ in 0..rng.gen_range(0..6) {
        let page = rng.gen_range(0..region_pages);
        let perms = random_perms(rng);
        if !small && rng.gen_bool(0.3) {
            let slice = region.base + (page * PAGE_SIZE / LEAF_TABLE_SPAN) * LEAF_TABLE_SPAN;
            let _ = side.table.set_huge_perm(&mut side.mem, slice, perms);
        } else {
            let _ = side.table.set_page_perm(
                &mut side.mem,
                &mut side.frames,
                page_in(region, page),
                perms,
            );
        }
    }

    let (start, pages) = match rng.gen_range(0..5) {
        // Short ranges at any page: unaligned starts, leaf-pmpte crossings.
        0 | 1 => (rng.gen_range(0..region_pages), rng.gen_range(1..70)),
        // Across a leaf-table boundary.
        2 => {
            let boundary = LEAF_TABLE_SPAN / PAGE_SIZE * rng.gen_range(1..3);
            (boundary - rng.gen_range(1..40), rng.gen_range(1..120))
        }
        // Whole aligned 32 MiB spans and more, for HugeWhenAligned.
        3 => (
            rng.gen_range(0..2) * LEAF_TABLE_SPAN / PAGE_SIZE,
            LEAF_TABLE_SPAN / PAGE_SIZE * rng.gen_range(1..3) + rng.gen_range(0..40),
        ),
        // Running past the region end.
        _ => (region_pages - rng.gen_range(1..40), rng.gen_range(20..100)),
    };
    let start = start.min(region_pages - 1);
    let range_base = page_in(region, start);
    let len = pages * PAGE_SIZE;

    if rng.gen_bool(0.2) {
        // Plant a corrupt leaf pmpte (or root pmpte) under the range, if the
        // walk for some page of it reaches one.
        let victim = range_base + rng.gen_range(0..pages.min(region_pages - start)) * PAGE_SIZE;
        let walk = side.table.walk(&side.mem, victim);
        if let Some(r) = walk.refs.last() {
            side.mem.write_u64(
                r.addr,
                side.mem.read_u64(r.addr) ^ (1 << rng.gen_range(0..63)),
            );
        }
    }

    let perms = random_perms(rng);
    let policy = if rng.gen_bool(0.5) {
        FillPolicy::PerPage
    } else {
        FillPolicy::HugeWhenAligned
    };
    let mut reference = side.clone();
    let label = format!(
        "case {case}: region {region:?}, range {range_base} + {pages} pages, \
         {perms:?} {policy:?}"
    );
    let got = side.run(range_base, len, perms, policy);
    let want = reference.per_page(range_base, len, perms, policy);
    assert_eq!(got, want, "{label}: result");
    side.assert_same(&mut reference, &label);
    // Independent of both writers: a range that succeeds reads back
    // through the table walker, and `writes` counts its pages.
    if let Ok(writes) = got {
        if policy == FillPolicy::PerPage {
            assert_eq!(writes, pages, "{label}: writes");
        }
        let granted = (!perms.is_empty()).then_some(perms);
        for i in 0..pages {
            let page = range_base + i * PAGE_SIZE;
            assert_eq!(
                side.table.lookup(&side.mem, page),
                granted,
                "{label}: page {i}"
            );
        }
    }
}

#[test]
fn range_writes_match_the_per_page_loop() {
    let mut rng = SplitMix64::seed_from_u64(0x5e7_a11);
    for case in 0..400 {
        one_case(&mut rng, case);
    }
}

/// The failure modes each appear at least once in the seeded cases above;
/// these pin one of each directly.
#[test]
fn partial_runs_stop_where_the_per_page_loop_does() {
    let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 2 * LEAF_TABLE_SPAN);
    let fresh = Side::new(region, 64);

    // Past the region end: the pages inside are written, then the error.
    let base = region.end() - 3 * PAGE_SIZE;
    let (mut run, mut reference) = (fresh.clone(), fresh.clone());
    let err = Err(TableError::OutsideRegion(region.end()));
    assert_eq!(
        run.run(base, 8 * PAGE_SIZE, Perms::RW, FillPolicy::PerPage),
        err
    );
    assert_eq!(
        reference.per_page(base, 8 * PAGE_SIZE, Perms::RW, FillPolicy::PerPage),
        err
    );
    run.assert_same(&mut reference, "past the end");
    assert_eq!(
        run.table.lookup(&run.mem, base + 2 * PAGE_SIZE),
        Some(Perms::RW)
    );

    // A corrupt leaf pmpte in the second of two pmptes.
    let (mut run, mut reference) = (fresh.clone(), fresh);
    for side in [&mut run, &mut reference] {
        side.run(
            region.base,
            2 * LEAF_PMPTE_SPAN,
            Perms::READ,
            FillPolicy::PerPage,
        )
        .unwrap();
        let slot = side
            .table
            .walk(&side.mem, region.base + LEAF_PMPTE_SPAN)
            .refs[1]
            .addr;
        side.mem.write_u64(slot, side.mem.read_u64(slot) ^ 1);
    }
    let base = region.base + LEAF_PMPTE_SPAN - 2 * PAGE_SIZE;
    let got = run.run(base, 4 * PAGE_SIZE, Perms::RWX, FillPolicy::PerPage);
    let want = reference.per_page(base, 4 * PAGE_SIZE, Perms::RWX, FillPolicy::PerPage);
    assert!(matches!(got, Err(TableError::CorruptEntry(_))), "{got:?}");
    assert_eq!(got, want);
    run.assert_same(&mut reference, "corrupt leaf");

    // Frames run dry at the second leaf table.
    let mut run = Side::new(region, 2);
    let mut reference = run.clone();
    let base = region.base + LEAF_TABLE_SPAN - 4 * PAGE_SIZE;
    let got = run.run(base, 8 * PAGE_SIZE, Perms::RW, FillPolicy::PerPage);
    let want = reference.per_page(base, 8 * PAGE_SIZE, Perms::RW, FillPolicy::PerPage);
    assert_eq!(got, Err(TableError::OutOfTableFrames));
    assert_eq!(got, want);
    run.assert_same(&mut reference, "frames run dry");
}

/// The cases a leaf-table-at-a-time writer could get wrong, pinned one by
/// one against the per-page loop.
#[test]
fn leaf_table_fills_match_the_per_page_loop() {
    let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 2 * LEAF_TABLE_SPAN);
    let fresh = Side::new(region, 64);
    let same = |mut run: Side, mut reference: Side, base, pages, perms, case: &str| {
        let len = pages * PAGE_SIZE;
        let got = run.run(base, len, perms, FillPolicy::PerPage);
        let want = reference.per_page(base, len, perms, FillPolicy::PerPage);
        assert_eq!(got, want, "{case}: result");
        run.assert_same(&mut reference, case);
        (got, run)
    };

    // A corrupt leaf pmpte in the middle of a leaf table: the 256 pmptes
    // before it take the new permission, the ones after it keep the old.
    let mut table_full = fresh.clone();
    table_full
        .run(
            region.base,
            LEAF_TABLE_SPAN,
            Perms::READ,
            FillPolicy::PerPage,
        )
        .unwrap();
    let middle = region.base + 256 * LEAF_PMPTE_SPAN;
    let slot = table_full.table.walk(&table_full.mem, middle).refs[1].addr;
    let bits = table_full.mem.read_u64(slot);
    table_full.mem.write_u64(slot, bits ^ (1 << 5));
    // A fill stopped at its first pmpte writes nothing, so the table page
    // is not logged.
    let mut stopped = table_full.clone();
    let got = stopped.run(middle, 4 * PAGE_SIZE, Perms::RW, FillPolicy::PerPage);
    assert_eq!(got, Err(TableError::CorruptEntry(slot)));
    assert_eq!(stopped.mem.take_dirty_pfns(), Vec::<u64>::new());
    let (got, run) = same(
        table_full.clone(),
        table_full,
        region.base,
        LEAF_TABLE_SPAN / PAGE_SIZE,
        Perms::RW,
        "corrupt middle pmpte",
    );
    assert_eq!(got, Err(TableError::CorruptEntry(slot)));
    assert_eq!(
        run.table.lookup(&run.mem, middle - PAGE_SIZE),
        Some(Perms::RW)
    );
    assert_eq!(
        run.table.lookup(&run.mem, middle + LEAF_PMPTE_SPAN),
        Some(Perms::READ)
    );

    // Across the 32 MiB boundary between the two leaf tables.
    let base = region.base + LEAF_TABLE_SPAN - 5 * PAGE_SIZE;
    let (got, run) = same(fresh.clone(), fresh, base, 10, Perms::RX, "across");
    assert_eq!(got, Ok(10));
    assert_eq!(run.table.table_pages().len(), 3, "root and two leaf tables");

    // A region that ends part-way through a page, in the middle of its
    // second leaf table: the fill stops after the page that starts inside.
    let size = LEAF_TABLE_SPAN + 100 * PAGE_SIZE + PAGE_SIZE / 2;
    let region = PmpRegion::new(PhysAddr::new(0x9000_0000), size);
    let fresh = Side::new(region, 64);
    let base = region.base + LEAF_TABLE_SPAN + 98 * PAGE_SIZE;
    let (got, run) = same(fresh.clone(), fresh, base, 8, Perms::RWX, "cut");
    let cut = region.base + LEAF_TABLE_SPAN + 101 * PAGE_SIZE;
    assert_eq!(got, Err(TableError::OutsideRegion(cut)));
    assert_eq!(
        run.table.lookup(&run.mem, cut - PAGE_SIZE),
        Some(Perms::RWX)
    );
}

/// `writes` still counts pages, not pmpte words: the monitor's modelled
/// reconfiguration cost does not depend on how the writes are batched.
#[test]
fn writes_count_pages_not_words() {
    let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 4 * LEAF_TABLE_SPAN);
    let mut side = Side::new(region, 64);
    let len = LEAF_TABLE_SPAN + 5 * PAGE_SIZE;
    assert_eq!(
        side.run(region.base + PAGE_SIZE, len, Perms::RW, FillPolicy::PerPage),
        Ok(len / PAGE_SIZE)
    );
    // One huge root pmpte, then five pages.
    assert_eq!(
        side.run(
            region.base + 2 * LEAF_TABLE_SPAN,
            len,
            Perms::RW,
            FillPolicy::HugeWhenAligned
        ),
        Ok(6)
    );
}
