//! The page-table walker (PTW): one radix walk for every page table.
//!
//! On a TLB miss the PTW performs the radix walk, consulting the page-walk
//! cache first to skip upper levels. The walk reports each PT-page memory
//! reference — the squares in the paper's Figure 2 — to a visitor at the
//! moment it reads it, and the machine layer checks and charges each one
//! from inside that visitor. Splitting "which references happen" (here)
//! from "what each reference costs" (machine layer) is what lets one
//! walker serve the PMP, PMP-Table and HPMP configurations.
//!
//! The native walk, the guest stage of a nested walk and the G-stage walk
//! of the nested page table are all [`radix_walk`]. What differs comes in
//! through its arguments: the table's geometry and step kind, whether a
//! walk cache shortens it, and the slot hook every table slot and the
//! final address pass through — the identity natively and in the G-stage,
//! a G-stage translation for a guest (Figure 8).

use hpmp_memsim::{InlineVec, PhysAddr, VirtAddr, WordStore, PAGE_SHIFT};
use hpmp_trace::StepKind;

use crate::pwc::WalkCache;
use crate::space::{AddressSpace, Translation};
use crate::{Pte, TranslationMode};

/// One PT-page reference performed by a walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PtRef {
    /// Page-table level of the PTE that was read (root = `levels - 1`).
    pub level: usize,
    /// Physical address of the PTE.
    pub addr: PhysAddr,
}

/// The PT references of one walk, stored inline: at most one per level of
/// the deepest mode.
pub type PtRefs = InlineVec<PtRef, { TranslationMode::MAX_LEVELS }>;

/// The outcome of one hardware page-table walk, as [`walk`] collects it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkResult {
    /// PT-page references actually performed, in order.
    pub pt_refs: PtRefs,
    /// The translation, or `None` on a page fault.
    pub translation: Option<Translation>,
    /// Deepest PWC level that hit, if any (1 = skipped everything above the
    /// leaf lookup).
    pub pwc_hit_level: Option<usize>,
}

/// A radix page table as the walker sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Radix {
    /// Base of the root table.
    root: PhysAddr,
    /// Level of the root (leaf = 0).
    root_level: usize,
    /// Width of the input address. The root index takes every input bit
    /// above the next level's, so Sv39x4's 16 KiB root has an 11-bit index.
    va_bits: u32,
    /// ASID of the walk-cache entries.
    asid: u16,
    /// What each reference reads, as reported to the visitor.
    step: StepKind,
}

impl Radix {
    /// The walk over `space`'s table, reporting references of kind `step`.
    pub(crate) fn of(space: &AddressSpace, step: StepKind) -> Radix {
        Radix {
            root: space.root(),
            root_level: space.mode().root_level(),
            va_bits: space.mode().va_bits(),
            asid: space.asid(),
            step,
        }
    }

    /// The PTE slot for input address `va` at `level` of the table at
    /// `table`: nine index bits per level below the root.
    #[inline]
    fn slot(&self, table: PhysAddr, va: u64, level: usize) -> PhysAddr {
        let index = va >> (PAGE_SHIFT as usize + 9 * level);
        let index = if level == self.root_level {
            index
        } else {
            index & 0x1ff
        };
        PhysAddr::new(table.raw() + index * 8)
    }
}

/// The one radix walk: translates `va` through `table`, reporting each PTE
/// read to `visit` as `(address, table.step, level)` when it reads it.
///
/// With a walk cache, the walk first probes it from the deepest skippable
/// level upward — an entry at level `L` holds the table walked at `L - 1`
/// — starts from the table and level it leaves, and refills it with every
/// non-leaf step. Each table slot, and the address the leaf PTE yields,
/// passes through `slot_hook` before use; the hook may report references
/// of its own to `visit`, and `None` from it faults the walk.
///
/// Returns the translation (`None` on a fault in the table or the hook)
/// and the walk-cache level that shortened the walk.
#[inline]
pub(crate) fn radix_walk<M, V>(
    mem: &M,
    table: Radix,
    mut pwc: Option<&mut WalkCache>,
    va: VirtAddr,
    mut slot_hook: impl FnMut(PhysAddr, &mut V) -> Option<PhysAddr>,
    visit: &mut V,
) -> (Option<Translation>, Option<usize>)
where
    M: WordStore + ?Sized,
    V: FnMut(PhysAddr, StepKind, usize),
{
    if va.raw() >> table.va_bits != 0 {
        return (None, None);
    }
    let (mut base, mut level, mut pwc_level) = (table.root, table.root_level, None);
    if let Some(pwc) = pwc.as_deref_mut() {
        for probe in 1..=table.root_level {
            if let Some(cached) = pwc.lookup(table.asid, probe, va) {
                (base, level, pwc_level) = (cached, probe - 1, Some(probe));
                break;
            }
        }
    }
    loop {
        let Some(slot) = slot_hook(table.slot(base, va.raw(), level), visit) else {
            return (None, pwc_level);
        };
        visit(slot, table.step, level);
        let pte = Pte::from_bits(mem.read_u64(slot));
        if pte.is_leaf() {
            let offset = va.raw() & ((1 << (PAGE_SHIFT as usize + 9 * level)) - 1);
            let translation = slot_hook(pte.target() + offset, visit).map(|paddr| Translation {
                paddr,
                perms: pte.perms(),
                level,
                user: pte.is_user(),
            });
            return (translation, pwc_level);
        }
        if !pte.is_table() || level == 0 {
            // Page fault: invalid PTE or a pointer where a leaf must be.
            return (None, pwc_level);
        }
        if let Some(pwc) = pwc.as_deref_mut() {
            pwc.insert(table.asid, level, va, pte.target());
        }
        base = pte.target();
        level -= 1;
    }
}

/// Performs one native page-table walk for `va` in `space`, using (and
/// refilling) `pwc`, and reports each PT reference to `visit` as it reads
/// it. Returns the translation (`None` on a page fault) and the deepest
/// PWC level that hit.
#[inline]
pub fn walk_with<M: WordStore + ?Sized>(
    mem: &M,
    space: &AddressSpace,
    pwc: &mut WalkCache,
    va: VirtAddr,
    mut visit: impl FnMut(PhysAddr, StepKind, usize),
) -> (Option<Translation>, Option<usize>) {
    let table = Radix::of(space, StepKind::Pt);
    radix_walk(mem, table, Some(pwc), va, |slot, _| Some(slot), &mut visit)
}

/// Performs one page-table walk for `va` in `space`, using (and refilling)
/// `pwc`: [`walk_with`], collecting its references.
///
/// The PWC is probed from the deepest skippable level upward, so a hit at
/// level `L` means the walk starts by reading the PTE at level `L - 1`
/// — e.g. Table 2's TC3 state (PWC hits for L2 and L1) reads only the L0
/// PTE.
///
/// ```
/// use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, PhysMem, VirtAddr, PAGE_SIZE};
/// use hpmp_paging::{walk, AddressSpace, TranslationMode, WalkCache, WalkCacheConfig};
///
/// let mut mem = PhysMem::new();
/// let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
/// let mut space = AddressSpace::new(TranslationMode::Sv39, 1, &mut mem, &mut frames).unwrap();
/// space.map_page(&mut mem, &mut frames, VirtAddr::new(0x1000), PhysAddr::new(0x9000_0000),
///                Perms::RW, true).unwrap();
/// let mut pwc = WalkCache::new(WalkCacheConfig::default());
///
/// let cold = walk(&mem, &space, &mut pwc, VirtAddr::new(0x1000));
/// assert_eq!(cold.pt_refs.len(), 3); // Sv39: L2, L1, L0
/// let warm = walk(&mem, &space, &mut pwc, VirtAddr::new(0x1000));
/// assert_eq!(warm.pt_refs.len(), 1); // PWC skips to the leaf PTE
/// ```
pub fn walk<M: WordStore + ?Sized>(
    mem: &M,
    space: &AddressSpace,
    pwc: &mut WalkCache,
    va: VirtAddr,
) -> WalkResult {
    let mut pt_refs = PtRefs::new();
    let (translation, pwc_hit_level) = walk_with(mem, space, pwc, va, |addr, _, level| {
        pt_refs.push(PtRef { level, addr })
    });
    WalkResult {
        pt_refs,
        translation,
        pwc_hit_level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pwc::WalkCacheConfig;
    use crate::TranslationMode;
    use hpmp_memsim::{FrameAllocator, Perms, PhysMem, PAGE_SIZE};

    fn fixture() -> (PhysMem, FrameAllocator, AddressSpace, WalkCache) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 256 * PAGE_SIZE);
        let space = AddressSpace::new(TranslationMode::Sv39, 3, &mut mem, &mut frames).unwrap();
        let pwc = WalkCache::new(WalkCacheConfig::default());
        (mem, frames, space, pwc)
    }

    #[test]
    fn cold_walk_reads_every_level() {
        let (mut mem, mut frames, mut space, mut pwc) = fixture();
        space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x1000),
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                true,
            )
            .unwrap();
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(0x1234));
        assert_eq!(result.pt_refs.len(), 3);
        assert_eq!(result.pt_refs[0].level, 2);
        assert_eq!(result.pt_refs[1].level, 1);
        assert_eq!(result.pt_refs[2].level, 0);
        assert_eq!(result.pwc_hit_level, None);
        let t = result.translation.unwrap();
        assert_eq!(t.paddr, PhysAddr::new(0x9000_0234));
    }

    #[test]
    fn warm_pwc_skips_to_leaf() {
        let (mut mem, mut frames, mut space, mut pwc) = fixture();
        for i in 0..2u64 {
            space
                .map_page(
                    &mut mem,
                    &mut frames,
                    VirtAddr::new(0x1000 + i * PAGE_SIZE),
                    PhysAddr::new(0x9000_0000 + i * PAGE_SIZE),
                    Perms::RW,
                    true,
                )
                .unwrap();
        }
        walk(&mem, &space, &mut pwc, VirtAddr::new(0x1000));
        // Adjacent page: both upper PTEs cached.
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(0x2000));
        assert_eq!(result.pt_refs.len(), 1);
        assert_eq!(result.pt_refs[0].level, 0);
        assert_eq!(result.pwc_hit_level, Some(1));
    }

    #[test]
    fn partial_pwc_hit() {
        let (mut mem, mut frames, mut space, mut pwc) = fixture();
        // Two pages in the same 1 GiB region but different 2 MiB regions.
        space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x0000_1000),
                PhysAddr::new(0x9000_0000),
                Perms::RW,
                true,
            )
            .unwrap();
        space
            .map_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x0020_0000),
                PhysAddr::new(0x9010_0000),
                Perms::RW,
                true,
            )
            .unwrap();
        walk(&mem, &space, &mut pwc, VirtAddr::new(0x0000_1000));
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(0x0020_0000));
        // L2 step cached (same 1 GiB), L1 differs => read L1 + L0.
        assert_eq!(result.pt_refs.len(), 2);
        assert_eq!(result.pwc_hit_level, Some(2));
    }

    #[test]
    fn fault_on_unmapped() {
        let (mem, _frames, space, mut pwc) = fixture();
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(0x1000));
        assert!(result.translation.is_none());
        assert_eq!(result.pt_refs.len(), 1); // read the invalid root PTE
    }

    #[test]
    fn huge_page_walk_is_shorter() {
        let (mut mem, mut frames, mut space, mut pwc) = fixture();
        space
            .map_huge_page(
                &mut mem,
                &mut frames,
                VirtAddr::new(0x4000_0000),
                PhysAddr::new(0x4000_0000),
                Perms::RX,
                false,
                2,
            )
            .unwrap();
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(0x4012_3456));
        assert_eq!(result.pt_refs.len(), 1); // 1 GiB leaf at the root level
        let t = result.translation.unwrap();
        assert_eq!(t.level, 2);
        assert_eq!(t.paddr, PhysAddr::new(0x4012_3456));
    }

    /// A cold Sv57 walk, the deepest mode, fills the inline buffer exactly.
    #[test]
    fn cold_sv57_walk_fills_its_buffer() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut space = AddressSpace::new(TranslationMode::Sv57, 1, &mut mem, &mut frames).unwrap();
        let va = VirtAddr::new(0x1000);
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
        let mut pwc = WalkCache::new(WalkCacheConfig::default());
        let result = walk(&mem, &space, &mut pwc, va);
        assert!(result.translation.is_some());
        assert_eq!(result.pt_refs.len(), PtRefs::CAPACITY);
        let levels: Vec<usize> = result.pt_refs.iter().map(|r| r.level).collect();
        assert_eq!(levels, [4, 3, 2, 1, 0]);
    }

    #[test]
    fn non_canonical_faults_without_refs() {
        let (mem, _frames, space, mut pwc) = fixture();
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(1 << 40));
        assert!(result.translation.is_none());
        assert_eq!(result.pt_refs.len(), 0);
    }

    #[test]
    fn walk_agrees_with_software_translate() {
        let (mut mem, mut frames, mut space, mut pwc) = fixture();
        let va = VirtAddr::new(0x7fff_f000);
        space
            .map_page(
                &mut mem,
                &mut frames,
                va,
                PhysAddr::new(0x9abc_d000),
                Perms::RWX,
                true,
            )
            .unwrap();
        let hw = walk(&mem, &space, &mut pwc, va).translation.unwrap();
        let sw = space.translate(&mem, va).unwrap();
        assert_eq!(hw, sw);
    }
}
