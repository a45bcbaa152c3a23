//! The page-table walker (PTW).
//!
//! On a TLB miss the PTW performs the radix walk, consulting the page-walk
//! cache first to skip upper levels. The walker's product is the *exact
//! ordered list of PT-page memory references* it performed — the squares in
//! the paper's Figure 2 — which the machine layer then pushes through the
//! isolation checker and the cache hierarchy. Splitting "which references
//! happen" (here) from "what each reference costs" (machine layer) is what
//! lets one walker serve the PMP, PMP-Table and HPMP configurations.

use hpmp_memsim::{InlineVec, PhysAddr, PhysMem, VirtAddr};

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
    /// The PTE value that was read.
    pub pte: Pte,
}

/// The PT references of one walk, stored inline: at most one per level of
/// the deepest mode.
pub type PtRefs = InlineVec<PtRef, { TranslationMode::MAX_LEVELS }>;

/// The outcome of one hardware page-table walk.
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

impl WalkResult {
    /// Number of PT-page memory references the walk performed.
    pub fn ref_count(&self) -> usize {
        self.pt_refs.len()
    }
}

/// Performs one page-table walk for `va` in `space`, using (and refilling)
/// `pwc`.
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
/// assert_eq!(cold.ref_count(), 3); // Sv39: L2, L1, L0
/// let warm = walk(&mem, &space, &mut pwc, VirtAddr::new(0x1000));
/// assert_eq!(warm.ref_count(), 1); // PWC skips to the leaf PTE
/// ```
pub fn walk(mem: &PhysMem, space: &AddressSpace, pwc: &mut WalkCache, va: VirtAddr) -> WalkResult {
    let mode = space.mode();
    let asid = space.asid();
    if !mode.is_canonical(va) {
        return WalkResult {
            pt_refs: PtRefs::new(),
            translation: None,
            pwc_hit_level: None,
        };
    }

    // Probe the PWC from the deepest (most useful) level upward. An entry at
    // `level` caches the table produced by consuming the PTE *at* `level`,
    // i.e. the table walked at `level - 1`.
    let mut table = space.root();
    let mut level = mode.root_level();
    let mut pwc_hit_level = None;
    for probe in 1..=mode.root_level() {
        if let Some(cached) = pwc.lookup(asid, probe, va) {
            table = cached;
            level = probe - 1;
            pwc_hit_level = Some(probe);
            break;
        }
    }

    let mut pt_refs = PtRefs::new();
    loop {
        let slot = AddressSpace::pte_addr(table, va, level);
        let pte = Pte::from_bits(mem.read_u64(slot));
        pt_refs.push(PtRef {
            level,
            addr: slot,
            pte,
        });
        if pte.is_leaf() {
            let span = mode.level_span(level);
            let offset = va.raw() & (span - 1);
            let translation = Translation {
                paddr: PhysAddr::new(pte.target().raw() + offset),
                perms: pte.perms(),
                level,
                user: pte.is_user(),
            };
            return WalkResult {
                pt_refs,
                translation: Some(translation),
                pwc_hit_level,
            };
        }
        if !pte.is_table() || level == 0 {
            // Page fault: invalid PTE or a pointer where a leaf must be.
            return WalkResult {
                pt_refs,
                translation: None,
                pwc_hit_level,
            };
        }
        // Refill the PWC with this non-leaf step.
        pwc.insert(asid, level, va, pte.target());
        table = pte.target();
        level -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pwc::WalkCacheConfig;
    use crate::TranslationMode;
    use hpmp_memsim::{FrameAllocator, Perms, PAGE_SIZE};

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
        assert_eq!(result.ref_count(), 3);
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
        assert_eq!(result.ref_count(), 1);
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
        assert_eq!(result.ref_count(), 2);
        assert_eq!(result.pwc_hit_level, Some(2));
    }

    #[test]
    fn fault_on_unmapped() {
        let (mem, _frames, space, mut pwc) = fixture();
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(0x1000));
        assert!(result.translation.is_none());
        assert_eq!(result.ref_count(), 1); // read the invalid root PTE
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
        assert_eq!(result.ref_count(), 1); // 1 GiB leaf at the root level
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
        assert_eq!(result.ref_count(), PtRefs::CAPACITY);
        let levels: Vec<usize> = result.pt_refs.iter().map(|r| r.level).collect();
        assert_eq!(levels, [4, 3, 2, 1, 0]);
    }

    #[test]
    fn non_canonical_faults_without_refs() {
        let (mem, _frames, space, mut pwc) = fixture();
        let result = walk(&mem, &space, &mut pwc, VirtAddr::new(1 << 40));
        assert!(result.translation.is_none());
        assert_eq!(result.ref_count(), 0);
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
