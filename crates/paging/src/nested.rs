//! Nested (two-stage) translation for the virtualized environment (§6).
//!
//! With the hypervisor extension a guest access goes through a 3-D walk:
//! guest page table (vsatp, Sv39) × nested page table (hgatp, Sv39x4) ×
//! permission table. Figure 8 of the paper enumerates the resulting 16
//! memory references; [`nested_walk`] reports that exact sequence to its
//! visitor as it reads it, with a G-stage TLB and a guest-stage walk cache
//! shortening it for the warm cases of Figure 13. Both stages are the one
//! radix walk of the walker module: the guest stage with a G-stage
//! translation as its slot hook, the G-stage with the identity.

use hpmp_memsim::{PhysAddr, PhysMem, VirtAddr, WordStore, PAGE_SHIFT, PAGE_SIZE};
use hpmp_trace::StepKind;

use crate::pwc::WalkCache;
use crate::space::{AddressSpace, MapError, PtFrameSource, Translation};
use crate::tlb::{Tlb, TlbEntry};
use crate::walker::{radix_walk, Radix};
use crate::Pte;

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
        gpa: PhysAddr,
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
        gpa: PhysAddr,
        hpa: PhysAddr,
        pages: u64,
        writable: bool,
    ) -> Result<(), MapError> {
        let perms = if writable {
            hpmp_memsim::Perms::RWX
        } else {
            hpmp_memsim::Perms::RX
        };
        let radix = self.radix();
        let mut done = 0;
        while done < pages {
            let first = gpa + done * PAGE_SIZE;
            let table = self.leaf_table(mem, frames, first)?;
            let slots = (512 - ((first.raw() >> PAGE_SHIFT) & 0x1ff)).min(pages - done);
            for slot in 0..slots {
                let slot_gpa = first + slot * PAGE_SIZE;
                let pte_slot = radix.slot(table, slot_gpa.raw(), 0);
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
        gpa: PhysAddr,
    ) -> Result<PhysAddr, MapError> {
        let radix = self.radix();
        if gpa.raw() >> radix.va_bits != 0 {
            return Err(MapError::NonCanonical(VirtAddr::new(gpa.raw())));
        }
        let mut table = self.root;
        let mut level = radix.root_level;
        while level > 0 {
            let slot = radix.slot(table, gpa.raw(), level);
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
    pub fn translate(&self, mem: &dyn WordStore, gpa: PhysAddr) -> Option<PhysAddr> {
        self.walk(mem, gpa, &mut |_, _, _| {})
    }

    /// The G-stage walk of `gpa`, reporting each nested PTE read to
    /// `visit`: the radix walk with the identity slot hook and no walk
    /// cache.
    fn walk<M, V>(&self, mem: &M, gpa: PhysAddr, visit: &mut V) -> Option<PhysAddr>
    where
        M: WordStore + ?Sized,
        V: FnMut(PhysAddr, StepKind, usize),
    {
        let gpa = VirtAddr::new(gpa.raw());
        let (translation, _) = radix_walk(mem, self.radix(), None, gpa, |s, _| Some(s), visit);
        translation.map(|t| t.paddr)
    }

    /// The table as the walker sees it: Sv39x4 takes a 41-bit guest-physical
    /// address, so the root index has 11 bits and spans the four root
    /// pages.
    fn radix(&self) -> Radix {
        Radix {
            root: self.root,
            root_level: Self::LEVELS - 1,
            va_bits: 41,
            asid: 0,
            step: StepKind::NestedPt,
        }
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

    fn host(&self, gpa: PhysAddr) -> PhysAddr {
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

/// Virtual-machine identifier used to tag G-stage TLB entries.
pub const GSTAGE_VMID: u16 = 0xfff;

/// Performs the full two-stage walk of Figure 8 for `gva`, reporting each
/// host-physical reference to `visit` as `(address, step kind, level)`
/// when it is read: `NestedPt` for the `nL*` squares, `GuestPt` for the
/// `gL*` circles.
///
/// * `gtlb` caches G-stage translations (gPA page → hPA page); a hit removes
///   the three `nL*` references of that sub-walk. It survives `hfence.vvma`
///   but not `hfence.gvma`.
/// * `gpwc` is the guest-stage walk cache over guest VAs (skips upper guest
///   levels *and* their G-stage sub-walks in the TC3 case).
///
/// The final data reference is **not** reported; the caller issues it
/// (and its own G-stage sub-walk *is* reported, as references 13–15).
/// Returns the translation (gVA → hPA), or `None` on a fault in either
/// stage.
pub fn nested_walk<M, V>(
    mem: &M,
    guest: &AddressSpace,
    npt: &NestedPageTable,
    gtlb: &mut Tlb,
    gpwc: &mut WalkCache,
    gva: VirtAddr,
    mut visit: V,
) -> Option<Translation>
where
    M: WordStore + ?Sized,
    V: FnMut(PhysAddr, StepKind, usize),
{
    // The slot hook: a G-TLB hit, or the G-stage sub-walk and a G-TLB fill.
    let g_translate = |gpa: PhysAddr, visit: &mut V| -> Option<PhysAddr> {
        let page_va = VirtAddr::new(gpa.page_base().raw());
        if let Some((entry, _)) = gtlb.lookup(GSTAGE_VMID, page_va) {
            return Some(PhysAddr::new(
                entry.frame.page_base().raw() | gpa.page_offset(),
            ));
        }
        let hpa = npt.walk(mem, gpa, visit)?;
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
    let table = Radix::of(guest, StepKind::GuestPt);
    radix_walk(mem, table, Some(gpwc), gva, g_translate, &mut visit).0
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
            let gpa = PhysAddr::new(gpa_pool_base + i * PAGE_SIZE);
            let hpa = PhysAddr::new(gpa.raw() + HOST_OFF);
            npt.map_page(&mut mem, &mut host_frames, gpa, hpa, true)
                .unwrap();
        }

        // Guest PT frames come from the guest-physical pool.
        let mut guest_pt_frames = FrameAllocator::new(PhysAddr::new(gpa_pool_base), 32 * PAGE_SIZE);
        let mut view = GuestView::new(&mut mem, &npt);
        let mut guest = AddressSpace::new(mode, 9, &mut view, &mut guest_pt_frames).unwrap();
        let data_gpa = PhysAddr::new(gpa_pool_base + 40 * PAGE_SIZE);
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

    /// One nested walk's references, `(kind, level)` in issue order, and
    /// its translation.
    struct Walked {
        refs: Vec<(StepKind, usize)>,
        translation: Option<Translation>,
    }

    impl Walked {
        fn count(&self, kind: StepKind) -> usize {
            self.refs.iter().filter(|&&(k, _)| k == kind).count()
        }
    }

    fn walk(
        mem: &PhysMem,
        guest: &AddressSpace,
        npt: &NestedPageTable,
        (gtlb, gpwc): &mut (Tlb, WalkCache),
        gva: VirtAddr,
    ) -> Walked {
        let mut refs = Vec::new();
        let translation = nested_walk(mem, guest, npt, gtlb, gpwc, gva, |_, kind, level| {
            refs.push((kind, level))
        });
        Walked { refs, translation }
    }

    #[test]
    fn cold_walk_matches_figure_8() {
        let (mem, npt, guest) = fixture();
        let result = walk(&mem, &guest, &npt, &mut caches(), GVA);
        // Figure 8: 12 nested-PT refs + 3 guest-PT refs (data ref issued by
        // the caller as the 16th).
        assert_eq!(result.count(StepKind::NestedPt), 12);
        assert_eq!(result.count(StepKind::GuestPt), 3);
        assert_eq!(result.refs.len(), 15);
        assert!(result.translation.is_some());
        // Order check: walk starts with the nL2 for the guest root.
        assert_eq!(result.refs[0], (StepKind::NestedPt, 2));
        assert_eq!(result.refs[3], (StepKind::GuestPt, 2));
    }

    /// A cold walk under the deepest guest mode (Sv57): per guest level a
    /// 3-read G-stage sub-walk plus the guest PTE, then the data page's
    /// sub-walk.
    #[test]
    fn cold_sv57_walk_reads_every_level() {
        let (mem, npt, guest) = fixture_in(TranslationMode::Sv57);
        let result = walk(&mem, &guest, &npt, &mut caches(), GVA);
        assert!(result.translation.is_some());
        let guest_levels = TranslationMode::MAX_LEVELS;
        assert_eq!(result.count(StepKind::GuestPt), guest_levels);
        let nested = (guest_levels + 1) * NestedPageTable::LEVELS;
        assert_eq!(result.count(StepKind::NestedPt), nested);
        assert_eq!(result.refs.len(), guest_levels + nested);
    }

    /// A G-stage walk reads one nested PTE per NPT level.
    #[test]
    fn gstage_walk_reads_one_pte_per_level() {
        let (mem, npt, guest) = fixture();
        let mut refs = Vec::new();
        let hpa = npt.walk(&mem, guest.root(), &mut |_, kind, level| {
            refs.push((kind, level))
        });
        assert_eq!(hpa, Some(PhysAddr::new(guest.root().raw() + HOST_OFF)));
        let nested = |level| (StepKind::NestedPt, level);
        assert_eq!(refs, [nested(2), nested(1), nested(0)]);
    }

    #[test]
    fn translation_is_correct() {
        let (mem, npt, guest) = fixture();
        let result = walk(&mem, &guest, &npt, &mut caches(), GVA + 0x123);
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
        let mut caches = caches();
        walk(&mem, &guest, &npt, &mut caches, GVA);
        // Second walk of the same VA: guest PWC skips to the leaf guest PTE;
        // its sub-walk and the data sub-walk hit the G-stage TLB.
        let result = walk(&mem, &guest, &npt, &mut caches, GVA);
        assert_eq!(result.count(StepKind::NestedPt), 0);
        assert_eq!(result.count(StepKind::GuestPt), 1);
    }

    #[test]
    fn hfence_vvma_keeps_gstage() {
        let (mem, npt, guest) = fixture();
        let mut caches = caches();
        walk(&mem, &guest, &npt, &mut caches, GVA);
        // hfence.vvma: guest-stage state flushed, G-stage retained.
        caches.1.flush_all();
        let result = walk(&mem, &guest, &npt, &mut caches, GVA);
        assert_eq!(result.count(StepKind::GuestPt), 3); // full guest walk again
        assert_eq!(result.count(StepKind::NestedPt), 0); // all G-stage sub-walks hit
    }

    #[test]
    fn hfence_gvma_flushes_everything() {
        let (mem, npt, guest) = fixture();
        let mut caches = caches();
        walk(&mem, &guest, &npt, &mut caches, GVA);
        caches.1.flush_all();
        caches.0.flush_all();
        let result = walk(&mem, &guest, &npt, &mut caches, GVA);
        assert_eq!(result.refs.len(), 15);
    }

    #[test]
    fn unmapped_gva_faults() {
        let (mem, npt, guest) = fixture();
        let gva = VirtAddr::new(0x5000_0000);
        let result = walk(&mem, &guest, &npt, &mut caches(), gva);
        assert!(result.translation.is_none());
    }

    #[test]
    fn npt_rejects_double_map() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut npt = NestedPageTable::new(&mut mem, &mut frames).unwrap();
        let gpa = PhysAddr::new(0x1000);
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
        let gpa = PhysAddr::new(1 << 40);
        npt.map_page(
            &mut mem,
            &mut frames,
            gpa,
            PhysAddr::new(0x9000_0000),
            false,
        )
        .unwrap();
        assert_eq!(npt.translate(&mem, gpa), Some(PhysAddr::new(0x9000_0000)));
        // The 11-bit root index selects root page 2 (gPA bits 40:39) at
        // in-page index 0 (bits 38:30).
        let root_slot = npt.root + 2 * PAGE_SIZE;
        assert!(Pte::from_bits(mem.read_u64(root_slot)).is_table());
        // Beyond 41 bits is rejected.
        assert!(matches!(
            npt.map_page(
                &mut mem,
                &mut frames,
                PhysAddr::new(1 << 41),
                PhysAddr::new(0x9000_1000),
                false
            ),
            Err(MapError::NonCanonical(_))
        ));
    }
}
