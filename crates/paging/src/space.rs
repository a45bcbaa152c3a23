//! Address spaces: building and editing page-table trees in simulated
//! physical memory.
//!
//! The placement of the *page-table pages themselves* is the central knob of
//! the whole reproduction — Penglai-HPMP's benefit comes from the OS placing
//! all PT pages in one contiguous "fast" GMS. That placement is injected via
//! the [`PtFrameSource`] trait, so the OS layer can choose between a
//! scattered allocator (the baseline) and a contiguous pool (HPMP).
//!
//! One [`AddressSpace`] type serves every radix table: a native or guest
//! table (Sv39/Sv48/Sv57) and the hypervisor's nested page table (Sv39x4),
//! which differs only in its four-page root.

use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, VirtAddr, WordStore, PAGE_SIZE};

use crate::mode::TranslationMode;
use crate::pte::Pte;

/// Source of physical frames used for page-table pages.
///
/// Implementors decide *where* PT pages live; the address space only cares
/// that it gets a zeroed 4 KiB frame.
pub trait PtFrameSource: std::fmt::Debug {
    /// Allocates one frame for a page-table page.
    ///
    /// Returning `None` models out-of-memory and aborts the mapping
    /// operation with [`MapError::OutOfPtFrames`].
    fn alloc_pt_frame(&mut self) -> Option<PhysAddr>;
}

impl PtFrameSource for FrameAllocator {
    fn alloc_pt_frame(&mut self) -> Option<PhysAddr> {
        self.alloc()
    }
}

/// Error produced by mapping operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The virtual address is not canonical for the translation mode.
    NonCanonical(VirtAddr),
    /// The frame source ran out of page-table frames.
    OutOfPtFrames,
    /// The virtual page is already mapped.
    AlreadyMapped(VirtAddr),
    /// A huge-page leaf sits where a table pointer is needed.
    HugePageConflict(VirtAddr),
    /// Address not aligned to the requested page size.
    Misaligned(VirtAddr),
    /// The frame source returned root frames that are not consecutive, for
    /// a mode whose root spans several pages (Sv39x4).
    RootNotContiguous,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::NonCanonical(va) => write!(f, "non-canonical virtual address {va}"),
            MapError::OutOfPtFrames => f.write_str("out of page-table frames"),
            MapError::AlreadyMapped(va) => write!(f, "virtual page {va} already mapped"),
            MapError::HugePageConflict(va) => {
                write!(f, "huge page conflicts with table at {va}")
            }
            MapError::Misaligned(va) => write!(f, "address {va} not aligned to page size"),
            MapError::RootNotContiguous => f.write_str("root page-table frames not consecutive"),
        }
    }
}

impl std::error::Error for MapError {}

/// A translation produced by a software walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Physical address corresponding to the queried virtual address.
    pub paddr: PhysAddr,
    /// Permissions of the leaf mapping.
    pub perms: Perms,
    /// Level at which the leaf was found (0 = 4 KiB page, 1 = 2 MiB, ...).
    pub level: usize,
    /// Whether the leaf is user-accessible.
    pub user: bool,
}

/// A page-table tree rooted in simulated physical memory: a native or
/// guest table, or the nested page table in [`TranslationMode::Sv39x4`].
///
/// ```
/// use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, PhysMem, VirtAddr, PAGE_SIZE};
/// use hpmp_paging::{AddressSpace, TranslationMode};
///
/// let mut mem = PhysMem::new();
/// let mut pt_frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
/// let mut space = AddressSpace::new(TranslationMode::Sv39, 1, &mut mem, &mut pt_frames)
///     .expect("root frame");
/// space
///     .map_page(&mut mem, &mut pt_frames, VirtAddr::new(0x1000), PhysAddr::new(0x9000_0000),
///               Perms::RW, true)
///     .expect("map");
/// let t = space.translate(&mem, VirtAddr::new(0x1234)).expect("translate");
/// assert_eq!(t.paddr, PhysAddr::new(0x9000_0234));
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    mode: TranslationMode,
    asid: u16,
    root: PhysAddr,
    /// Every PT page in this tree, in allocation order (root pages first).
    pt_pages: Vec<PhysAddr>,
    mapped_pages: u64,
}

impl AddressSpace {
    /// Creates an empty address space, allocating the root PT pages (one,
    /// or four consecutive ones for Sv39x4).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfPtFrames`] if the frame source is exhausted,
    /// and [`MapError::RootNotContiguous`] if it returns a multi-page root
    /// in frames that are not consecutive.
    pub fn new(
        mode: TranslationMode,
        asid: u16,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
    ) -> Result<AddressSpace, MapError> {
        let mut pt_pages = Vec::with_capacity(mode.root_pages() as usize);
        for page in 0..mode.root_pages() {
            let frame = frames.alloc_pt_frame().ok_or(MapError::OutOfPtFrames)?;
            if pt_pages
                .first()
                .is_some_and(|&root| frame != root + page * PAGE_SIZE)
            {
                return Err(MapError::RootNotContiguous);
            }
            mem.zero_page(frame);
            pt_pages.push(frame);
        }
        Ok(AddressSpace {
            mode,
            asid,
            root: pt_pages[0],
            pt_pages,
            mapped_pages: 0,
        })
    }

    /// The translation mode of this space.
    pub fn mode(&self) -> TranslationMode {
        self.mode
    }

    /// The address-space identifier (ASID) used to tag TLB entries.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// Physical address of the root page-table page (the `satp` or `hgatp`
    /// PPN); an Sv39x4 root is the first of four consecutive pages.
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// All page-table pages in this tree, root pages first.
    pub fn pt_pages(&self) -> &[PhysAddr] {
        &self.pt_pages
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Maps one 4 KiB page: the one-page case of [`AddressSpace::map_run`].
    ///
    /// # Errors
    ///
    /// Fails if the VA is non-canonical or already mapped, if an intermediate
    /// level is occupied by a huge-page leaf, or if PT frames run out.
    pub fn map_page(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
        va: VirtAddr,
        pa: PhysAddr,
        perms: Perms,
        user: bool,
    ) -> Result<(), MapError> {
        self.map_run(mem, frames, va, pa, 1, perms, user)
    }

    /// Maps `pages` consecutive 4 KiB pages: `va + i * 4 KiB` to
    /// `pa + i * 4 KiB` for every `i < pages`. The tree is descended once
    /// per leaf page table, whose page is then borrowed once: the run's
    /// slots in it are checked, then filled in one loop.
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::map_page`], for the first page that fails; the
    /// pages before it stay mapped.
    #[allow(clippy::too_many_arguments)]
    pub fn map_run(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
        va: VirtAddr,
        pa: PhysAddr,
        pages: u64,
        perms: Perms,
        user: bool,
    ) -> Result<(), MapError> {
        let mut done = 0;
        while done < pages {
            let first = va + done * PAGE_SIZE;
            let table = self.descend(mem, frames, first, 0)?;
            let index = self.mode.index(first, 0);
            let slots = index as usize..(index + (512 - index).min(pages - done)) as usize;
            let mut page = mem.borrow_page(table);
            // Stop at the first valid slot with the slots before it written;
            // a run stopped at its first slot writes (backs, logs) nothing.
            let taken = page.words()[slots.clone()]
                .iter()
                .position(|&bits| Pte::from_bits(bits).is_valid());
            let free = slots.start..taken.map_or(slots.end, |t| slots.start + t);
            if !free.is_empty() {
                for (i, word) in (done..).zip(&mut page.words_mut()[free.clone()]) {
                    *word = Pte::leaf(pa + i * PAGE_SIZE, perms, user).to_bits();
                }
            }
            self.mapped_pages += free.len() as u64;
            done += free.len() as u64;
            if taken.is_some() {
                return Err(MapError::AlreadyMapped(va + done * PAGE_SIZE));
            }
        }
        Ok(())
    }

    /// Maps a huge page at `level` (1 = 2 MiB, 2 = 1 GiB, ...).
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::map_page`], plus [`MapError::Misaligned`] if `va`
    /// or `pa` is not aligned to the huge-page size.
    #[allow(clippy::too_many_arguments)]
    pub fn map_huge_page(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
        va: VirtAddr,
        pa: PhysAddr,
        perms: Perms,
        user: bool,
        level: usize,
    ) -> Result<(), MapError> {
        let span = self.mode.level_span(level);
        if !va.is_aligned(span) || !pa.is_aligned(span) {
            return Err(MapError::Misaligned(va));
        }
        let table = self.descend(mem, frames, va, level)?;
        let slot = self.pte_addr(table, va, level);
        if Pte::from_bits(mem.read_u64(slot)).is_valid() {
            return Err(MapError::AlreadyMapped(va));
        }
        mem.write_u64(slot, Pte::leaf(pa, perms, user).to_bits());
        self.mapped_pages += 1;
        Ok(())
    }

    /// Descends from the root to the table at `target_level` covering `va`,
    /// creating missing tables on the way.
    fn descend(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
        va: VirtAddr,
        target_level: usize,
    ) -> Result<PhysAddr, MapError> {
        if !self.mode.is_canonical(va) {
            return Err(MapError::NonCanonical(va));
        }
        let mut table = self.root;
        let mut level = self.mode.root_level();
        while level > target_level {
            let slot = self.pte_addr(table, va, level);
            let pte = Pte::from_bits(mem.read_u64(slot));
            if pte.is_leaf() {
                return Err(MapError::HugePageConflict(va));
            }
            table = if pte.is_table() {
                pte.target()
            } else {
                let frame = frames.alloc_pt_frame().ok_or(MapError::OutOfPtFrames)?;
                mem.zero_page(frame);
                mem.write_u64(slot, Pte::table(frame).to_bits());
                self.pt_pages.push(frame);
                frame
            };
            level -= 1;
        }
        Ok(table)
    }

    /// Changes the permissions of the leaf mapping covering `va`
    /// (`mprotect`). Returns the old translation, or `None` if unmapped.
    /// The frame and user bit are preserved.
    pub fn protect_page(
        &mut self,
        mem: &mut dyn WordStore,
        va: VirtAddr,
        perms: Perms,
    ) -> Option<Translation> {
        let (slot, old) = self.locate(mem, va)?;
        let new = Pte::leaf(
            PhysAddr::new(old.paddr.raw() - (va.raw() & (self.mode.level_span(old.level) - 1))),
            perms,
            old.user,
        );
        mem.write_u64(slot, new.to_bits());
        Some(old)
    }

    /// Replaces the frame and permissions of the leaf mapping covering `va`
    /// (the copy-on-write resolution path). Returns the old translation.
    pub fn remap_page(
        &mut self,
        mem: &mut dyn WordStore,
        va: VirtAddr,
        frame: PhysAddr,
        perms: Perms,
    ) -> Option<Translation> {
        let (slot, old) = self.locate(mem, va)?;
        mem.write_u64(slot, Pte::leaf(frame, perms, old.user).to_bits());
        Some(old)
    }

    /// Removes the leaf mapping covering `va`. Returns the old translation,
    /// or `None` if the page was not mapped. Intermediate tables are not
    /// reclaimed (as in most kernels' fast path).
    pub fn unmap_page(&mut self, mem: &mut dyn WordStore, va: VirtAddr) -> Option<Translation> {
        let (slot, translation) = self.locate(mem, va)?;
        mem.write_u64(slot, Pte::INVALID.to_bits());
        self.mapped_pages = self.mapped_pages.saturating_sub(1);
        Some(translation)
    }

    /// Software walk: translates `va` without modelling timing.
    pub fn translate<M: WordStore + ?Sized>(&self, mem: &M, va: VirtAddr) -> Option<Translation> {
        self.locate(mem, va).map(|(_, t)| t)
    }

    /// The leaf PTE slot covering `va` and its translation: the software
    /// reference walk, written apart from the hardware walker's
    /// `radix_walk` so that the walker tests have something to disagree
    /// with.
    fn locate<M: WordStore + ?Sized>(
        &self,
        mem: &M,
        va: VirtAddr,
    ) -> Option<(PhysAddr, Translation)> {
        if !self.mode.is_canonical(va) {
            return None;
        }
        let mut table = self.root;
        let mut level = self.mode.root_level();
        loop {
            let slot = self.pte_addr(table, va, level);
            let pte = Pte::from_bits(mem.read_u64(slot));
            if pte.is_leaf() {
                let span = self.mode.level_span(level);
                let offset = va.raw() & (span - 1);
                let translation = Translation {
                    paddr: PhysAddr::new(pte.target().raw() + offset),
                    perms: pte.perms(),
                    level,
                    user: pte.is_user(),
                };
                return Some((slot, translation));
            }
            if !pte.is_table() || level == 0 {
                return None;
            }
            table = pte.target();
            level -= 1;
        }
    }

    /// Physical address of the PTE slot for `va` at `level` inside `table`.
    /// Inlined: [`AddressSpace::locate`] is generic, so it runs in the
    /// caller's crate, where an out-of-line call per level cost it ~1.5×
    /// against the hardware walker.
    #[inline]
    fn pte_addr(&self, table: PhysAddr, va: VirtAddr, level: usize) -> PhysAddr {
        debug_assert!(table.is_aligned(PAGE_SIZE));
        table + self.mode.index(va, level) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::PhysMem;

    fn setup() -> (PhysMem, FrameAllocator, AddressSpace) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 256 * PAGE_SIZE);
        let space = AddressSpace::new(TranslationMode::Sv39, 7, &mut mem, &mut frames).unwrap();
        (mem, frames, space)
    }

    #[test]
    fn map_and_translate() {
        let (mut mem, mut frames, mut space) = setup();
        space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x4000),
                PhysAddr::new(0x9000_1000),
                Perms::RW,
                true,
            )
            .unwrap();
        let t = space.translate(&mem, VirtAddr::new(0x4abc)).unwrap();
        assert_eq!(t.paddr, PhysAddr::new(0x9000_1abc));
        assert_eq!(t.perms, Perms::RW);
        assert_eq!(t.level, 0);
        assert!(t.user);
        // Sv39: root + level1 + level0 = 3 PT pages for one mapping.
        assert_eq!(space.pt_pages().len(), 3);
        assert_eq!(space.mapped_pages(), 1);
    }

    #[test]
    fn unmapped_va_is_none() {
        let (mem, _frames, space) = setup();
        assert!(space.translate(&mem, VirtAddr::new(0x4000)).is_none());
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut frames, mut space) = setup();
        let va = VirtAddr::new(0x4000);
        space
            .map_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x9000_0000),
                Perms::READ,
                false,
            )
            .unwrap();
        let err = space
            .map_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x9000_1000),
                Perms::READ,
                false,
            )
            .unwrap_err();
        assert_eq!(err, MapError::AlreadyMapped(va));
    }

    #[test]
    fn neighbouring_pages_share_tables() {
        let (mut mem, mut frames, mut space) = setup();
        for i in 0..8u64 {
            space
                .map_page(
                    &mut mem,
                    &mut frames,
                    VirtAddr::new(0x4000 + i * PAGE_SIZE),
                    PhysAddr::new(0x9000_0000 + i * PAGE_SIZE),
                    Perms::RW,
                    true,
                )
                .unwrap();
        }
        assert_eq!(space.pt_pages().len(), 3);
    }

    #[test]
    fn distant_pages_grow_tree() {
        let (mut mem, mut frames, mut space) = setup();
        space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x4000),
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                true,
            )
            .unwrap();
        // Different 1 GiB region => new L1 and L0 tables.
        space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(2 << 30),
                PhysAddr::new(0x9100_0000),
                Perms::RW,
                true,
            )
            .unwrap();
        assert_eq!(space.pt_pages().len(), 5);
    }

    #[test]
    fn unmap_removes_translation() {
        let (mut mem, mut frames, mut space) = setup();
        let va = VirtAddr::new(0x4000);
        space
            .map_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                true,
            )
            .unwrap();
        let old = space.unmap_page(&mut mem, va).unwrap();
        assert_eq!(old.paddr, PhysAddr::new(0x9000_0000));
        assert!(space.translate(&mem, va).is_none());
        assert!(space.unmap_page(&mut mem, va).is_none());
    }

    #[test]
    fn protect_page_changes_perms_in_place() {
        let (mut mem, mut frames, mut space) = setup();
        let va = VirtAddr::new(0x4000);
        space
            .map_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                true,
            )
            .unwrap();
        let old = space.protect_page(&mut mem, va, Perms::READ).unwrap();
        assert_eq!(old.perms, Perms::RW);
        let t = space.translate(&mem, va + 0x10).unwrap();
        assert_eq!(t.perms, Perms::READ);
        assert_eq!(t.paddr, PhysAddr::new(0x9000_0010), "frame preserved");
        assert!(t.user, "user bit preserved");
        assert!(space
            .protect_page(&mut mem, VirtAddr::new(0x9_9000), Perms::READ)
            .is_none());
    }

    #[test]
    fn remap_page_swaps_frame() {
        let (mut mem, mut frames, mut space) = setup();
        let va = VirtAddr::new(0x4000);
        space
            .map_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x9000_0000),
                Perms::READ,
                true,
            )
            .unwrap();
        let old = space
            .remap_page(&mut mem, va, PhysAddr::new(0x9100_0000), Perms::RW)
            .unwrap();
        assert_eq!(old.paddr, PhysAddr::new(0x9000_0000));
        let t = space.translate(&mem, va).unwrap();
        assert_eq!(t.paddr, PhysAddr::new(0x9100_0000));
        assert_eq!(t.perms, Perms::RW);
    }

    #[test]
    fn huge_page_mapping() {
        let (mut mem, mut frames, mut space) = setup();
        let va = VirtAddr::new(2 << 20); // 2 MiB aligned
        space
            .map_huge_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x4000_0000),
                Perms::RX,
                false,
                1,
            )
            .unwrap();
        let t = space
            .translate(&mem, VirtAddr::new((2 << 20) + 0x12345))
            .unwrap();
        assert_eq!(t.level, 1);
        assert_eq!(t.paddr, PhysAddr::new(0x4000_0000 + 0x12345));
        // Only root + one L1 table.
        assert_eq!(space.pt_pages().len(), 2);
    }

    #[test]
    fn huge_page_alignment_enforced() {
        let (mut mem, mut frames, mut space) = setup();
        let err = space
            .map_huge_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x1000),
                PhysAddr::new(0x4000_0000),
                Perms::RX,
                false,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, MapError::Misaligned(_)));
    }

    #[test]
    fn huge_page_blocks_small_mapping() {
        let (mut mem, mut frames, mut space) = setup();
        space
            .map_huge_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0),
                PhysAddr::new(0x4000_0000),
                Perms::RW,
                false,
                1,
            )
            .unwrap();
        let err = space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x1000),
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                false,
            )
            .unwrap_err();
        assert!(matches!(err, MapError::HugePageConflict(_)));
    }

    #[test]
    fn non_canonical_rejected() {
        let (mut mem, mut frames, mut space) = setup();
        let va = VirtAddr::new(1 << 40);
        let err = space
            .map_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                false,
            )
            .unwrap_err();
        assert_eq!(err, MapError::NonCanonical(va));
        assert!(space.translate(&mem, va).is_none());
    }

    #[test]
    fn out_of_frames_reported() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), PAGE_SIZE);
        let mut space = AddressSpace::new(TranslationMode::Sv39, 0, &mut mem, &mut frames).unwrap();
        let err = space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x1000),
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                false,
            )
            .unwrap_err();
        assert_eq!(err, MapError::OutOfPtFrames);
    }

    /// A frame source that skips every other frame.
    #[derive(Debug)]
    struct Strided(PhysAddr);

    impl PtFrameSource for Strided {
        fn alloc_pt_frame(&mut self) -> Option<PhysAddr> {
            let frame = self.0;
            self.0 += 2 * PAGE_SIZE;
            Some(frame)
        }
    }

    /// An Sv39x4 root is four consecutive frames, taken first; a frame
    /// source that cannot supply them gets a typed error.
    #[test]
    fn sv39x4_root_needs_four_consecutive_frames() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let npt = AddressSpace::new(TranslationMode::Sv39x4, 0, &mut mem, &mut frames).unwrap();
        let pages: Vec<PhysAddr> = (0..4).map(|i| npt.root() + i * PAGE_SIZE).collect();
        assert_eq!(npt.pt_pages(), pages);
        assert_eq!(frames.remaining(), 60);

        let mut strided = Strided(PhysAddr::new(0x8000_0000));
        let err = AddressSpace::new(TranslationMode::Sv39x4, 0, &mut mem, &mut strided);
        assert_eq!(err.unwrap_err(), MapError::RootNotContiguous);
        // A one-page root takes any frame.
        assert!(AddressSpace::new(TranslationMode::Sv39, 0, &mut mem, &mut strided).is_ok());
    }

    #[test]
    fn sv48_uses_four_levels() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut space = AddressSpace::new(TranslationMode::Sv48, 0, &mut mem, &mut frames).unwrap();
        space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x1000),
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                false,
            )
            .unwrap();
        assert_eq!(space.pt_pages().len(), 4);
    }
}
