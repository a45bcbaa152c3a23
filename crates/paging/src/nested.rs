//! Nested (two-stage) translation for the virtualized environment (§6).
//!
//! With the hypervisor extension a guest access goes through a 3-D walk:
//! guest page table (vsatp, Sv39) × nested page table (hgatp, Sv39x4) ×
//! permission table. Figure 8 of the paper enumerates the resulting 16
//! memory references; [`nested_walk`] reproduces that exact sequence, with a
//! G-stage TLB and a guest-stage walk cache shortening it for the warm cases
//! of Figure 13.

use hpmp_memsim::{InlineVec, PhysAddr, PhysMem, VirtAddr, WordStore, PAGE_SHIFT, PAGE_SIZE};

use crate::pwc::WalkCache;
use crate::space::{AddressSpace, MapError, PtFrameSource, Translation};
use crate::tlb::{Tlb, TlbEntry};
use crate::{Pte, TranslationMode};

/// A guest-physical address (the output of the guest page table, the input
/// of the nested page table).
pub type GuestPhysAddr = PhysAddr;

/// The nested-PT reads of one G-stage walk, root to leaf: `(level, hPA)`,
/// at most one per NPT level.
pub type NptRefs = InlineVec<(usize, PhysAddr), { NestedPageTable::LEVELS }>;

/// The nested page table (hgatp, Sv39x4): maps guest-physical to
/// host-physical addresses.
///
/// Sv39x4 widens the root index by two bits, making the root table four
/// contiguous pages (16 KiB); lower levels are ordinary Sv39 tables.
#[derive(Debug)]
pub struct NestedPageTable {
    root: PhysAddr,
    pt_pages: Vec<PhysAddr>,
    mapped_pages: u64,
}

impl NestedPageTable {
    /// Number of levels in the nested table.
    pub const LEVELS: usize = 3;

    /// Creates an empty nested page table; allocates the 4-page root.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfPtFrames`] if the frame source cannot supply
    /// four contiguous-equivalent root frames.
    pub fn new(
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
    ) -> Result<NestedPageTable, MapError> {
        let mut pages = Vec::with_capacity(4);
        for _ in 0..4 {
            let frame = frames.alloc_pt_frame().ok_or(MapError::OutOfPtFrames)?;
            mem.zero_page(frame);
            pages.push(frame);
        }
        // Sv39x4 requires the root to be 16 KiB-aligned and contiguous; the
        // monitor's PT pools hand out consecutive frames, which we verify.
        for w in pages.windows(2) {
            assert_eq!(
                w[1].raw(),
                w[0].raw() + PAGE_SIZE,
                "Sv39x4 root requires 4 contiguous frames"
            );
        }
        Ok(NestedPageTable {
            root: pages[0],
            pt_pages: pages,
            mapped_pages: 0,
        })
    }

    /// Host-physical base of the (16 KiB) root.
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// All nested-PT pages, root pages first.
    pub fn pt_pages(&self) -> &[PhysAddr] {
        &self.pt_pages
    }

    /// Number of guest pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Maps one 4 KiB guest-physical page to a host frame: the one-page
    /// case of [`NestedPageTable::map_run`].
    ///
    /// # Errors
    ///
    /// Fails on re-mapping, exhausted frames, or a guest-physical address
    /// beyond the 41-bit Sv39x4 input space.
    pub fn map_page(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
        gpa: GuestPhysAddr,
        hpa: PhysAddr,
        writable: bool,
    ) -> Result<(), MapError> {
        self.map_run(mem, frames, gpa, hpa, 1, writable)
    }

    /// Maps `pages` consecutive guest-physical pages, `gpa + i * 4 KiB` to
    /// `hpa + i * 4 KiB` for every `i < pages`. The table is descended once
    /// per leaf page table, then the run fills consecutive PTE slots.
    ///
    /// # Errors
    ///
    /// As [`NestedPageTable::map_page`], for the first page that fails; the
    /// pages before it stay mapped.
    pub fn map_run(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
        gpa: GuestPhysAddr,
        hpa: PhysAddr,
        pages: u64,
        writable: bool,
    ) -> Result<(), MapError> {
        let perms = if writable {
            hpmp_memsim::Perms::RWX
        } else {
            hpmp_memsim::Perms::RX
        };
        let mut done = 0;
        while done < pages {
            let first = gpa + done * PAGE_SIZE;
            let table = self.leaf_table(mem, frames, first)?;
            let slots = (512 - ((first.raw() >> PAGE_SHIFT) & 0x1ff)).min(pages - done);
            for slot in 0..slots {
                let slot_gpa = first + slot * PAGE_SIZE;
                let pte_slot = Self::pte_addr(table, slot_gpa, 0);
                if Pte::from_bits(mem.read_u64(pte_slot)).is_valid() {
                    return Err(MapError::AlreadyMapped(VirtAddr::new(slot_gpa.raw())));
                }
                let frame = hpa + (done + slot) * PAGE_SIZE;
                mem.write_u64(pte_slot, Pte::leaf(frame, perms, true).to_bits());
                self.mapped_pages += 1;
            }
            done += slots;
        }
        Ok(())
    }

    /// Descends to the leaf table covering `gpa`, creating missing tables
    /// on the way.
    fn leaf_table(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut dyn PtFrameSource,
        gpa: GuestPhysAddr,
    ) -> Result<PhysAddr, MapError> {
        if gpa.raw() >> 41 != 0 {
            return Err(MapError::NonCanonical(VirtAddr::new(gpa.raw())));
        }
        let mut table = self.slot_table_for_root(gpa);
        let mut level = Self::LEVELS - 1;
        while level > 0 {
            let slot = Self::pte_addr(table, gpa, level);
            let pte = Pte::from_bits(mem.read_u64(slot));
            if pte.is_leaf() {
                return Err(MapError::HugePageConflict(VirtAddr::new(gpa.raw())));
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

    /// Software G-stage walk: translates `gpa` without timing.
    pub fn translate(&self, mem: &dyn WordStore, gpa: GuestPhysAddr) -> Option<PhysAddr> {
        self.walk_refs(mem, gpa).1
    }

    /// Performs the G-stage walk, returning the host-physical addresses of
    /// every nested PTE read (root → leaf) and the final translation.
    pub fn walk_refs<M: WordStore + ?Sized>(
        &self,
        mem: &M,
        gpa: GuestPhysAddr,
    ) -> (NptRefs, Option<PhysAddr>) {
        let mut refs = NptRefs::new();
        if gpa.raw() >> 41 != 0 {
            return (refs, None);
        }
        let mut table = self.slot_table_for_root(gpa);
        let mut level = Self::LEVELS - 1;
        loop {
            let slot = Self::pte_addr(table, gpa, level);
            refs.push((level, slot));
            let pte = Pte::from_bits(mem.read_u64(slot));
            if pte.is_leaf() {
                let span = 1u64 << (PAGE_SHIFT as usize + 9 * level);
                let offset = gpa.raw() & (span - 1);
                return (refs, Some(PhysAddr::new(pte.target().raw() + offset)));
            }
            if !pte.is_table() || level == 0 {
                return (refs, None);
            }
            table = pte.target();
            level -= 1;
        }
    }

    /// Sv39x4: the two extra root-index bits select one of the four root
    /// pages; the in-page index is the usual 9-bit VPN\[2\].
    fn slot_table_for_root(&self, gpa: GuestPhysAddr) -> PhysAddr {
        let wide = (gpa.raw() >> 39) & 0b11;
        PhysAddr::new(self.root.raw() + wide * PAGE_SIZE)
    }

    fn pte_addr(table: PhysAddr, gpa: GuestPhysAddr, level: usize) -> PhysAddr {
        let idx = (gpa.raw() >> (PAGE_SHIFT as usize + 9 * level)) & 0x1ff;
        PhysAddr::new(table.raw() + idx * 8)
    }
}

/// A view of guest-physical memory: reads and writes are translated through
/// the nested page table before touching host memory. Used to *construct*
/// guest page tables whose slots are guest-physical addresses.
#[derive(Debug)]
pub struct GuestView<'a> {
    mem: &'a mut PhysMem,
    npt: &'a NestedPageTable,
}

impl<'a> GuestView<'a> {
    /// Wraps host memory with G-stage translation.
    pub fn new(mem: &'a mut PhysMem, npt: &'a NestedPageTable) -> GuestView<'a> {
        GuestView { mem, npt }
    }

    fn host(&self, gpa: GuestPhysAddr) -> PhysAddr {
        self.npt
            .translate(self.mem, gpa)
            .unwrap_or_else(|| panic!("guest-physical address {gpa} not mapped in NPT"))
    }
}

impl WordStore for GuestView<'_> {
    fn read_u64(&self, addr: PhysAddr) -> u64 {
        let hpa = self.host(addr);
        self.mem.read_u64(hpa)
    }

    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        let hpa = self.host(addr);
        self.mem.write_u64(hpa, value)
    }

    fn zero_page(&mut self, base: PhysAddr) {
        let hpa = self.host(base);
        self.mem.zero_page(hpa)
    }
}

/// Kind of memory reference performed during a nested walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NestedRefKind {
    /// A nested-page-table PTE read (the `nL*` squares of Figure 8).
    NestedPt {
        /// NPT level of the PTE.
        level: usize,
    },
    /// A guest-page-table PTE read (the `gL*` circles of Figure 8).
    GuestPt {
        /// Guest PT level of the PTE.
        level: usize,
    },
}

/// Fills the unused slots of a [`NestedRefs`] buffer; never reported.
impl Default for NestedRefKind {
    fn default() -> NestedRefKind {
        NestedRefKind::NestedPt { level: 0 }
    }
}

/// One host-physical reference performed during a nested walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NestedRef {
    /// What the reference was for.
    pub kind: NestedRefKind,
    /// Host-physical address that was read.
    pub addr: PhysAddr,
}

/// The most references one nested walk performs: a cold walk of the
/// deepest guest mode reads, per guest level, the G-stage sub-walk of the
/// guest PTE's address plus the guest PTE itself, then the data page's
/// G-stage sub-walk.
pub const MAX_NESTED_REFS: usize =
    TranslationMode::MAX_LEVELS * (NestedPageTable::LEVELS + 1) + NestedPageTable::LEVELS;

/// The references of one nested walk, stored inline.
pub type NestedRefs = InlineVec<NestedRef, MAX_NESTED_REFS>;

/// Outcome of a nested (two-stage) walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestedWalkResult {
    /// Ordered host-physical references performed (excluding the final data
    /// reference, which the machine layer issues).
    pub refs: NestedRefs,
    /// Final translation (gVA → hPA) or `None` on a fault in either stage.
    pub translation: Option<Translation>,
}

impl NestedWalkResult {
    /// Number of references that read nested-PT pages.
    pub fn nested_refs(&self) -> usize {
        self.refs
            .iter()
            .filter(|r| matches!(r.kind, NestedRefKind::NestedPt { .. }))
            .count()
    }

    /// Number of references that read guest-PT pages.
    pub fn guest_refs(&self) -> usize {
        self.refs
            .iter()
            .filter(|r| matches!(r.kind, NestedRefKind::GuestPt { .. }))
            .count()
    }
}

/// Virtual-machine identifier used to tag G-stage TLB entries.
pub const GSTAGE_VMID: u16 = 0xfff;

/// Performs the full two-stage walk of Figure 8 for `gva`.
///
/// * `gtlb` caches G-stage translations (gPA page → hPA page); a hit removes
///   the three `nL*` references of that sub-walk. It survives `hfence.vvma`
///   but not `hfence.gvma`.
/// * `gpwc` is the guest-stage walk cache over guest VAs (skips upper guest
///   levels *and* their G-stage sub-walks in the TC3 case).
///
/// The final data reference is **not** included in `refs`; the caller issues
/// it (and its own G-stage sub-walk *is* included, as references 13–15).
pub fn nested_walk(
    mem: &PhysMem,
    guest: &AddressSpace,
    npt: &NestedPageTable,
    gtlb: &mut Tlb,
    gpwc: &mut WalkCache,
    gva: VirtAddr,
) -> NestedWalkResult {
    let mode = guest.mode();
    let asid = guest.asid();
    let mut refs = NestedRefs::new();
    if !mode.is_canonical(gva) {
        return NestedWalkResult {
            refs,
            translation: None,
        };
    }

    // G-stage helper: translate a gPA, appending nL* refs on a G-TLB miss.
    let mut g_translate = |gpa: GuestPhysAddr, refs: &mut NestedRefs| -> Option<PhysAddr> {
        let page_va = VirtAddr::new(gpa.page_base().raw());
        if let Some((entry, _)) = gtlb.lookup(GSTAGE_VMID, page_va) {
            return Some(PhysAddr::new(
                entry.frame.page_base().raw() | gpa.page_offset(),
            ));
        }
        let (nrefs, hpa) = npt.walk_refs(mem, gpa);
        for &(level, addr) in &nrefs {
            refs.push(NestedRef {
                kind: NestedRefKind::NestedPt { level },
                addr,
            });
        }
        let hpa = hpa?;
        gtlb.fill(TlbEntry {
            asid: GSTAGE_VMID,
            vpn: page_va.page_number(),
            frame: hpa.page_base(),
            page_perms: hpmp_memsim::Perms::RWX,
            isolation_perms: hpmp_memsim::Perms::RWX,
            user: true,
            epoch: 0,
        });
        Some(hpa)
    };

    // Guest-stage walk, possibly shortened by the guest PWC.
    let mut table_gpa = GuestPhysAddr::new(guest.root().raw());
    let mut level = mode.root_level();
    for probe in 1..=mode.root_level() {
        if let Some(cached) = gpwc.lookup(asid, probe, gva) {
            table_gpa = GuestPhysAddr::new(cached.raw());
            level = probe - 1;
            break;
        }
    }

    loop {
        let slot_gpa = GuestPhysAddr::new(table_gpa.raw() + gva.vpn(level) * 8);
        let Some(slot_hpa) = g_translate(slot_gpa, &mut refs) else {
            return NestedWalkResult {
                refs,
                translation: None,
            };
        };
        refs.push(NestedRef {
            kind: NestedRefKind::GuestPt { level },
            addr: slot_hpa,
        });
        let pte = Pte::from_bits(mem.read_u64(slot_hpa));
        if pte.is_leaf() {
            let span = mode.level_span(level);
            let offset = gva.raw() & (span - 1);
            let data_gpa = GuestPhysAddr::new(pte.target().raw() + offset);
            let Some(data_hpa) = g_translate(data_gpa, &mut refs) else {
                return NestedWalkResult {
                    refs,
                    translation: None,
                };
            };
            let translation = Translation {
                paddr: data_hpa,
                perms: pte.perms(),
                level,
                user: pte.is_user(),
            };
            return NestedWalkResult {
                refs,
                translation: Some(translation),
            };
        }
        if !pte.is_table() || level == 0 {
            return NestedWalkResult {
                refs,
                translation: None,
            };
        }
        gpwc.insert(asid, level, gva, pte.target());
        table_gpa = GuestPhysAddr::new(pte.target().raw());
        level -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pwc::WalkCacheConfig;
    use crate::tlb::TlbConfig;
    use crate::TranslationMode;
    use hpmp_memsim::{FrameAllocator, Perms};

    /// Builds a guest with one data page mapped at `GVA`, with NPT identity
    /// offset: gPA x maps to hPA x + 0x4000_0000.
    const GVA: VirtAddr = VirtAddr::new(0x20_1000);
    const HOST_OFF: u64 = 0x4000_0000;

    fn fixture() -> (PhysMem, NestedPageTable, AddressSpace) {
        fixture_in(TranslationMode::Sv39)
    }

    /// As [`fixture`], with a guest page table of `mode`.
    fn fixture_in(mode: TranslationMode) -> (PhysMem, NestedPageTable, AddressSpace) {
        let mut mem = PhysMem::new();
        let mut host_frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 512 * PAGE_SIZE);
        let mut npt = NestedPageTable::new(&mut mem, &mut host_frames).unwrap();

        // Guest-physical pool: gPAs 0x1000_0000.. ; back each gPA on demand.
        let gpa_pool_base = 0x1000_0000u64;
        for i in 0..64u64 {
            let gpa = GuestPhysAddr::new(gpa_pool_base + i * PAGE_SIZE);
            let hpa = PhysAddr::new(gpa.raw() + HOST_OFF);
            npt.map_page(&mut mem, &mut host_frames, gpa, hpa, true)
                .unwrap();
        }

        // Guest PT frames come from the guest-physical pool.
        let mut guest_pt_frames = FrameAllocator::new(PhysAddr::new(gpa_pool_base), 32 * PAGE_SIZE);
        let mut view = GuestView::new(&mut mem, &npt);
        let mut guest = AddressSpace::new(mode, 9, &mut view, &mut guest_pt_frames).unwrap();
        let data_gpa = GuestPhysAddr::new(gpa_pool_base + 40 * PAGE_SIZE);
        guest
            .map_page(
                &mut view,
                &mut guest_pt_frames,
                GVA,
                data_gpa,
                Perms::RW,
                true,
            )
            .unwrap();
        (mem, npt, guest)
    }

    fn caches() -> (Tlb, WalkCache) {
        (
            Tlb::new(TlbConfig::default()),
            WalkCache::new(WalkCacheConfig::default()),
        )
    }

    #[test]
    fn cold_walk_matches_figure_8() {
        let (mem, npt, guest) = fixture();
        let (mut gtlb, mut gpwc) = caches();
        let result = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        // Figure 8: 12 nested-PT refs + 3 guest-PT refs (data ref issued by
        // the caller as the 16th).
        assert_eq!(result.nested_refs(), 12);
        assert_eq!(result.guest_refs(), 3);
        assert_eq!(result.refs.len(), 15);
        assert!(result.translation.is_some());
        // Order check: walk starts with the nL2 for the guest root.
        assert!(matches!(
            result.refs[0].kind,
            NestedRefKind::NestedPt { level: 2 }
        ));
        assert!(matches!(
            result.refs[3].kind,
            NestedRefKind::GuestPt { level: 2 }
        ));
    }

    /// A cold walk under the deepest guest mode (Sv57) fills the inline
    /// buffer exactly: per guest level a 3-read G-stage sub-walk plus the
    /// guest PTE, then the data page's sub-walk.
    #[test]
    fn cold_sv57_walk_fills_its_buffer() {
        let (mem, npt, guest) = fixture_in(TranslationMode::Sv57);
        let (mut gtlb, mut gpwc) = caches();
        let result = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        assert!(result.translation.is_some());
        assert_eq!(result.guest_refs(), TranslationMode::MAX_LEVELS);
        assert_eq!(result.nested_refs(), 6 * NestedPageTable::LEVELS);
        assert_eq!(result.refs.len(), NestedRefs::CAPACITY);
    }

    /// A G-stage walk reads one nested PTE per NPT level.
    #[test]
    fn gstage_walk_fills_its_buffer() {
        let (mem, npt, guest) = fixture();
        let (refs, hpa) = npt.walk_refs(&mem, guest.root());
        assert_eq!(hpa, Some(PhysAddr::new(guest.root().raw() + HOST_OFF)));
        assert_eq!(refs.len(), NptRefs::CAPACITY);
        let levels: Vec<usize> = refs.iter().map(|&(level, _)| level).collect();
        assert_eq!(levels, [2, 1, 0]);
    }

    #[test]
    fn translation_is_correct() {
        let (mem, npt, guest) = fixture();
        let (mut gtlb, mut gpwc) = caches();
        let result = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA + 0x123);
        let t = result.translation.unwrap();
        // gPA of data page = pool base + 40 pages; hPA = gPA + HOST_OFF.
        assert_eq!(
            t.paddr,
            PhysAddr::new(0x1000_0000 + 40 * PAGE_SIZE + HOST_OFF + 0x123)
        );
    }

    #[test]
    fn gstage_tlb_removes_nested_refs() {
        let (mem, npt, guest) = fixture();
        let (mut gtlb, mut gpwc) = caches();
        nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        // Second walk of the same VA: guest PWC skips to the leaf guest PTE;
        // its sub-walk and the data sub-walk hit the G-stage TLB.
        let result = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        assert_eq!(result.nested_refs(), 0);
        assert_eq!(result.guest_refs(), 1);
    }

    #[test]
    fn hfence_vvma_keeps_gstage() {
        let (mem, npt, guest) = fixture();
        let (mut gtlb, mut gpwc) = caches();
        nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        // hfence.vvma: guest-stage state flushed, G-stage retained.
        gpwc.flush_all();
        let result = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        assert_eq!(result.guest_refs(), 3); // full guest walk again
        assert_eq!(result.nested_refs(), 0); // all G-stage sub-walks hit
    }

    #[test]
    fn hfence_gvma_flushes_everything() {
        let (mem, npt, guest) = fixture();
        let (mut gtlb, mut gpwc) = caches();
        nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        gpwc.flush_all();
        gtlb.flush_all();
        let result = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, GVA);
        assert_eq!(result.refs.len(), 15);
    }

    #[test]
    fn unmapped_gva_faults() {
        let (mem, npt, guest) = fixture();
        let (mut gtlb, mut gpwc) = caches();
        let result = nested_walk(
            &mem,
            &guest,
            &npt,
            &mut gtlb,
            &mut gpwc,
            VirtAddr::new(0x5000_0000),
        );
        assert!(result.translation.is_none());
    }

    #[test]
    fn npt_rejects_double_map() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut npt = NestedPageTable::new(&mut mem, &mut frames).unwrap();
        let gpa = GuestPhysAddr::new(0x1000);
        npt.map_page(&mut mem, &mut frames, gpa, PhysAddr::new(0x9000_0000), true)
            .unwrap();
        assert!(matches!(
            npt.map_page(&mut mem, &mut frames, gpa, PhysAddr::new(0x9000_1000), true),
            Err(MapError::AlreadyMapped(_))
        ));
    }

    #[test]
    fn npt_wide_root_indexing() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut npt = NestedPageTable::new(&mut mem, &mut frames).unwrap();
        // A gPA beyond 2^39 uses the extra root-index bits.
        let gpa = GuestPhysAddr::new(1 << 40);
        npt.map_page(
            &mut mem,
            &mut frames,
            gpa,
            PhysAddr::new(0x9000_0000),
            false,
        )
        .unwrap();
        assert_eq!(npt.translate(&mem, gpa), Some(PhysAddr::new(0x9000_0000)));
        // Beyond 41 bits is rejected.
        assert!(matches!(
            npt.map_page(
                &mut mem,
                &mut frames,
                GuestPhysAddr::new(1 << 41),
                PhysAddr::new(0x9000_1000),
                false
            ),
            Err(MapError::NonCanonical(_))
        ));
    }
}
