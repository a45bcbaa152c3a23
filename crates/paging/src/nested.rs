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
//!
//! The nested page table is an [`AddressSpace`] in
//! [`TranslationMode::Sv39x4`], built by `map_run` and read in software by
//! `translate` like any other table; only its root is wider. [`GuestView`]
//! and [`nested_walk`] read it with the G-stage walk.

use hpmp_memsim::{PageWords, PhysAddr, PhysMem, VirtAddr, WordStore};
use hpmp_trace::StepKind;

use crate::pwc::WalkCache;
use crate::space::{AddressSpace, Translation};
use crate::tlb::{Tlb, TlbEntry};
use crate::walker::{radix_walk, Radix};
use crate::TranslationMode;

/// The G-stage walk of `gpa` through the nested page table `npt`,
/// reporting each nested PTE read to `visit`: the radix walk with the
/// identity slot hook and no walk cache. Sv39x4 is the one G-stage mode
/// modelled, so a table in any other mode faults.
fn gstage_walk<M, V>(mem: &M, npt: &AddressSpace, gpa: PhysAddr, visit: &mut V) -> Option<PhysAddr>
where
    M: WordStore + ?Sized,
    V: FnMut(PhysAddr, StepKind, usize),
{
    // Past this test the compiler knows the mode, so the walk's geometry
    // is folded to constants.
    if npt.mode() != TranslationMode::Sv39x4 {
        return None;
    }
    let table = Radix::of(npt, StepKind::NestedPt);
    let gpa = VirtAddr::new(gpa.raw());
    let (translation, _) = radix_walk(mem, table, None, gpa, |s, _| Some(s), visit);
    translation.map(|t| t.paddr)
}

/// A view of guest-physical memory: reads and writes are translated through
/// the nested page table before touching host memory. Used to *construct*
/// guest page tables whose slots are guest-physical addresses; a borrowed
/// page is translated once for all its words.
#[derive(Debug)]
pub struct GuestView<'a> {
    mem: &'a mut PhysMem,
    npt: &'a AddressSpace,
}

impl<'a> GuestView<'a> {
    /// Wraps host memory with G-stage translation through the Sv39x4 table
    /// `npt`.
    pub fn new(mem: &'a mut PhysMem, npt: &'a AddressSpace) -> GuestView<'a> {
        GuestView { mem, npt }
    }

    fn host(&self, gpa: PhysAddr) -> PhysAddr {
        gstage_walk(&*self.mem, self.npt, gpa, &mut |_, _, _| {})
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

    fn borrow_page(&mut self, base: PhysAddr) -> PageWords<'_> {
        let hpa = self.host(base);
        self.mem.borrow_page(hpa)
    }
}

/// Virtual-machine identifier used to tag G-stage TLB entries.
pub const GSTAGE_VMID: u16 = 0xfff;

/// Performs the full two-stage walk of Figure 8 for `gva`, reporting each
/// host-physical reference to `visit` as `(address, step kind, level)`
/// when it is read: `NestedPt` for the `nL*` squares, `GuestPt` for the
/// `gL*` circles.
///
/// `npt` is the Sv39x4 nested page table.
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
    npt: &AddressSpace,
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
        let hpa = gstage_walk(mem, npt, gpa, visit)?;
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
    use crate::space::MapError;
    use crate::tlb::TlbConfig;
    use crate::Pte;
    use hpmp_memsim::{FrameAllocator, Perms, PAGE_SIZE};

    /// Builds a guest with one data page mapped at `GVA`, with NPT identity
    /// offset: gPA x maps to hPA x + 0x4000_0000.
    const GVA: VirtAddr = VirtAddr::new(0x20_1000);
    const HOST_OFF: u64 = 0x4000_0000;

    /// An empty Sv39x4 nested page table.
    fn npt_in(mem: &mut PhysMem, frames: &mut FrameAllocator) -> AddressSpace {
        AddressSpace::new(TranslationMode::Sv39x4, 0, mem, frames).unwrap()
    }

    /// Maps `pages` guest-physical pages from `gpa` to host frames from
    /// `hpa`, as the hypervisor does.
    fn npt_map(
        npt: &mut AddressSpace,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        gpa: u64,
        hpa: u64,
        pages: u64,
    ) -> Result<(), MapError> {
        let (gpa, hpa) = (VirtAddr::new(gpa), PhysAddr::new(hpa));
        npt.map_run(mem, frames, gpa, hpa, pages, Perms::RWX, true)
    }

    fn fixture() -> (PhysMem, AddressSpace, AddressSpace) {
        fixture_in(TranslationMode::Sv39)
    }

    /// As [`fixture`], with a guest page table of `mode`.
    fn fixture_in(mode: TranslationMode) -> (PhysMem, AddressSpace, AddressSpace) {
        let mut mem = PhysMem::new();
        let mut host_frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 512 * PAGE_SIZE);
        let mut npt = npt_in(&mut mem, &mut host_frames);

        // Guest-physical pool: gPAs 0x1000_0000.. ; back each gPA on demand.
        let gpa_pool_base = 0x1000_0000u64;
        for i in 0..64u64 {
            let gpa = gpa_pool_base + i * PAGE_SIZE;
            npt_map(&mut npt, &mut mem, &mut host_frames, gpa, gpa + HOST_OFF, 1).unwrap();
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
        npt: &AddressSpace,
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
        let nested = (guest_levels + 1) * TranslationMode::Sv39x4.levels();
        assert_eq!(result.count(StepKind::NestedPt), nested);
        assert_eq!(result.refs.len(), guest_levels + nested);
    }

    /// A G-stage walk reads one nested PTE per NPT level.
    #[test]
    fn gstage_walk_reads_one_pte_per_level() {
        let (mem, npt, guest) = fixture();
        let mut refs = Vec::new();
        let hpa = gstage_walk(&mem, &npt, guest.root(), &mut |_, kind, level| {
            refs.push((kind, level))
        });
        assert_eq!(hpa, Some(PhysAddr::new(guest.root().raw() + HOST_OFF)));
        let nested = |level| (StepKind::NestedPt, level);
        assert_eq!(refs, [nested(2), nested(1), nested(0)]);
    }

    /// The G-stage walk reads only an Sv39x4 table: the same mapping in an
    /// Sv39 table faults.
    #[test]
    fn gstage_walk_needs_an_sv39x4_table() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut sv39 = AddressSpace::new(TranslationMode::Sv39, 0, &mut mem, &mut frames).unwrap();
        npt_map(&mut sv39, &mut mem, &mut frames, 0x1000, 0x9000_0000, 1).unwrap();
        let gpa = PhysAddr::new(0x1000);
        assert!(sv39.translate(&mem, VirtAddr::new(gpa.raw())).is_some());
        assert_eq!(gstage_walk(&mem, &sv39, gpa, &mut |_, _, _| {}), None);
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
        let mut npt = npt_in(&mut mem, &mut frames);
        npt_map(&mut npt, &mut mem, &mut frames, 0x1000, 0x9000_0000, 1).unwrap();
        assert!(matches!(
            npt_map(&mut npt, &mut mem, &mut frames, 0x1000, 0x9000_1000, 1),
            Err(MapError::AlreadyMapped(_))
        ));
    }

    /// Sv39x4's 11-bit root index: gPAs with bits 39–40 set land in root
    /// pages 1–3, and the software translation and the G-stage walk agree
    /// on them.
    #[test]
    fn npt_wide_root_indexing() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut npt = npt_in(&mut mem, &mut frames);
        // (gPA, root page its root slot sits in): bit 40 alone, then bits
        // 39 and 40 together.
        for (gpa, root_page) in [(1u64 << 40, 2), ((3 << 39) + 0x5000, 3)] {
            let hpa = 0x9000_0000 + root_page * 0x10_0000;
            npt_map(&mut npt, &mut mem, &mut frames, gpa, hpa, 4).unwrap();
            for i in 0..4 {
                let (gpa, hpa) = (gpa + i * PAGE_SIZE, PhysAddr::new(hpa + i * PAGE_SIZE));
                let translated = npt.translate(&mem, VirtAddr::new(gpa)).unwrap();
                assert_eq!(translated.paddr, hpa);
                let mut refs = Vec::new();
                let walked = gstage_walk(&mem, &npt, PhysAddr::new(gpa), &mut |addr, _, level| {
                    refs.push((addr, level))
                });
                assert_eq!(walked, Some(hpa));
                // The root slot: in-page index 0 (bits 38:30) of the root
                // page that bits 40:39 select.
                let root_slot = npt.root() + root_page * PAGE_SIZE;
                assert_eq!(refs[0], (root_slot, 2));
                assert!(Pte::from_bits(mem.read_u64(root_slot)).is_table());
            }
        }
        // Beyond 41 bits is rejected.
        assert!(matches!(
            npt_map(&mut npt, &mut mem, &mut frames, 1 << 41, 0x9000_1000, 1),
            Err(MapError::NonCanonical(_))
        ));
    }
}
