//! Randomised test: `PmpTable::set_range_perm`, which writes each leaf
//! pmpte once per run of up to 16 pages, against the per-page loop it
//! replaced. Both sides start from identical tables and must end with the
//! same table words, the same table pages in the same order, the same
//! frames left, the same `writes` and, when a range fails part-way, the
//! same error. Driven by the in-repo [`SplitMix64`] PRNG with fixed seeds,
//! so every run is deterministic and reproducible.

use hpmp_core::{
    FillPolicy, PmpRegion, PmpTable, TableError, TableLevels, LEAF_PMPTE_SPAN, LEAF_TABLE_SPAN,
};
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
    fn new(region: PmpRegion, levels: TableLevels, frame_budget: u64) -> Side {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(FRAMES_BASE), frame_budget * PAGE_SIZE);
        let table = PmpTable::with_levels(region, levels, &mut mem, &mut frames).unwrap();
        Side { mem, frames, table }
    }

    fn run(
        &mut self,
        base: PhysAddr,
        len: u64,
        perms: Perms,
        policy: FillPolicy,
    ) -> Result<u64, TableError> {
        self.table
            .set_range_perm(&mut self.mem, &mut self.frames, base, len, perms, policy)
    }

    /// The per-page loop: one `set_page_perm` per page, and the huge
    /// root pmpte for every aligned 32 MiB span under `HugeWhenAligned`.
    fn per_page(
        &mut self,
        base: PhysAddr,
        len: u64,
        perms: Perms,
        policy: FillPolicy,
    ) -> Result<u64, TableError> {
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
                && self.table.levels() != TableLevels::One
                && offset.is_multiple_of(LEAF_TABLE_SPAN)
                && end.raw() - cursor.raw() >= LEAF_TABLE_SPAN
                && !perms.is_empty()
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

    fn assert_same(&self, other: &Side, case: &str) {
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
    let levels = match rng.gen_range(0..8) {
        0 => TableLevels::One,
        1 => TableLevels::Three,
        _ => TableLevels::Two,
    };
    // Region bases on and off a 64 KiB leaf-pmpte boundary, and sizes that
    // end part-way through a leaf pmpte and a leaf table.
    let base = 0x9000_0000 + rng.gen_range(0..3) * 0x3000;
    let size = match levels {
        TableLevels::One => LEAF_TABLE_SPAN - rng.gen_range(0..40) * PAGE_SIZE,
        _ => 3 * LEAF_TABLE_SPAN + rng.gen_range(0..600) * PAGE_SIZE,
    };
    let region = PmpRegion::new(PhysAddr::new(base), size);
    let region_pages = size / PAGE_SIZE;
    // A tight frame pool runs dry part-way through some ranges.
    let budget = if rng.gen_bool(0.25) {
        rng.gen_range(1..5)
    } else {
        64
    };
    let mut side = Side::new(region, levels, budget);

    for _ in 0..rng.gen_range(0..6) {
        let page = rng.gen_range(0..region_pages);
        let perms = random_perms(rng);
        if levels != TableLevels::One && rng.gen_bool(0.3) {
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
        "case {case}: {levels:?} region {region:?}, range {range_base} + {pages} pages, \
         {perms:?} {policy:?}"
    );
    let got = side.run(range_base, len, perms, policy);
    let want = reference.per_page(range_base, len, perms, policy);
    assert_eq!(got, want, "{label}: result");
    side.assert_same(&reference, &label);
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
    let fresh = Side::new(region, TableLevels::Two, 64);

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
    run.assert_same(&reference, "past the end");
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
    run.assert_same(&reference, "corrupt leaf");

    // Frames run dry at the second leaf table.
    let mut run = Side::new(region, TableLevels::Two, 2);
    let mut reference = run.clone();
    let base = region.base + LEAF_TABLE_SPAN - 4 * PAGE_SIZE;
    let got = run.run(base, 8 * PAGE_SIZE, Perms::RW, FillPolicy::PerPage);
    let want = reference.per_page(base, 8 * PAGE_SIZE, Perms::RW, FillPolicy::PerPage);
    assert_eq!(got, Err(TableError::OutOfTableFrames));
    assert_eq!(got, want);
    run.assert_same(&reference, "frames run dry");
}

/// `writes` still counts pages, not pmpte words: the monitor's modelled
/// reconfiguration cost does not depend on how the writes are batched.
#[test]
fn writes_count_pages_not_words() {
    let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 4 * LEAF_TABLE_SPAN);
    let mut side = Side::new(region, TableLevels::Two, 64);
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
