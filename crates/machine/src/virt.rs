//! The virtualized machine: 3-D page walks under HPMP (§6, Figures 8/13).
//!
//! A guest access walks guest PT × nested PT, and *every* host-physical
//! reference of that walk is validated by the isolation layer. The schemes
//! compared in Figure 13:
//!
//! * **PMP** — segments everywhere: 16 references, none for permissions.
//! * **PMP Table** — every reference pays a table walk: up to 48.
//! * **HPMP** — NPT pages in a contiguous "fast" GMS behind a segment:
//!   the 24 permission references for NPT pages vanish.
//! * **HPMP-GPT** — the guest also keeps its PT pages contiguous and the
//!   hypervisor backs them with a segment: only the 2 data-page permission
//!   references remain.
//!
//! [`VirtMachine`] is the same [`AccessPipeline`] as
//! [`Machine`](crate::machine::Machine), run over the nested translation
//! stage, [`NestedStage`]: a combined gVA → hPA TLB, the G-stage TLB, the
//! guest-stage walk cache and the nested walk. Checks, accounting, faults
//! and trace events are the pipeline's (see [`crate::pipeline`]); a
//! recording sink gets one [`WalkEvent`](hpmp_trace::WalkEvent) per guest
//! access whose nested/guest PT steps reproduce Figure 8's square/circle
//! sequence. This module adds the scheme, the fixture that builds the
//! guest, Figure 8's reference categories and the `hfence.*` operations.

use hpmp_core::{FillPolicy, HpmpRegFile, PmpRegion, PmpTable};
use hpmp_memsim::{AccessKind, Perms, PhysAddr, PhysMem, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_paging::{
    nested_walk, AddressSpace, GuestView, Tlb, Translation, TranslationMode, WalkCache,
};
use hpmp_trace::{Counters, MetricsRegistry, NullSink, StepKind, TraceSink, World};

use crate::machine::{Fault, MachineConfig};
use crate::pipeline::{AccessPipeline, AccessStats, RefLedger, TranslationStage};

/// The isolation scheme for the virtualized experiments, which adds the
/// HPMP-GPT refinement to the three base schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VirtScheme {
    /// Segment-based isolation for everything.
    Pmp,
    /// Table-based isolation for everything.
    PmpTable,
    /// NPT pages behind a segment; everything else behind the table.
    Hpmp,
    /// NPT *and* guest-PT pages behind segments.
    HpmpGpt,
}

impl std::fmt::Display for VirtScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VirtScheme::Pmp => "PMP",
            VirtScheme::PmpTable => "PMPT",
            VirtScheme::Hpmp => "HPMP",
            VirtScheme::HpmpGpt => "HPMP-GPT",
        })
    }
}

/// Reference breakdown of one guest access, split by Figure 8's categories.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtRefBreakdown {
    /// Nested-PT page reads (`nL*`).
    pub npt_reads: u64,
    /// Guest-PT page reads (`gL*`).
    pub gpt_reads: u64,
    /// The data reference.
    pub data_reads: u64,
    /// pmpte reads for checking NPT pages.
    pub pmpte_for_npt: u64,
    /// pmpte reads for checking guest-PT pages.
    pub pmpte_for_gpt: u64,
    /// pmpte reads for checking the data page.
    pub pmpte_for_data: u64,
}

impl VirtRefBreakdown {
    /// Total memory references.
    pub fn total(&self) -> u64 {
        self.npt_reads
            + self.gpt_reads
            + self.data_reads
            + self.pmpte_for_npt
            + self.pmpte_for_gpt
            + self.pmpte_for_data
    }
}

impl Counters for VirtRefBreakdown {
    const NAMES: &'static [&'static str] = &[
        "npt_reads",
        "gpt_reads",
        "data_reads",
        "pmpte_for_npt",
        "pmpte_for_gpt",
        "pmpte_for_data",
    ];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [
            self.npt_reads,
            self.gpt_reads,
            self.data_reads,
            self.pmpte_for_npt,
            self.pmpte_for_gpt,
            self.pmpte_for_data,
        ]
    }
}

impl std::ops::AddAssign for VirtRefBreakdown {
    fn add_assign(&mut self, other: VirtRefBreakdown) {
        self.npt_reads += other.npt_reads;
        self.gpt_reads += other.gpt_reads;
        self.data_reads += other.data_reads;
        self.pmpte_for_npt += other.pmpte_for_npt;
        self.pmpte_for_gpt += other.pmpte_for_gpt;
        self.pmpte_for_data += other.pmpte_for_data;
    }
}

impl RefLedger for VirtRefBreakdown {
    fn reads(&mut self, step: StepKind) -> &mut u64 {
        match step {
            StepKind::NestedPt => &mut self.npt_reads,
            StepKind::GuestPt => &mut self.gpt_reads,
            _ => &mut self.data_reads,
        }
    }

    fn pmptes(&mut self, guarded: StepKind) -> &mut u64 {
        match guarded {
            StepKind::NestedPt => &mut self.pmpte_for_npt,
            StepKind::GuestPt => &mut self.pmpte_for_gpt,
            _ => &mut self.pmpte_for_data,
        }
    }
}

/// Outcome of one guest access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VirtAccessOutcome {
    /// End-to-end latency in core cycles.
    pub cycles: u64,
    /// Reference breakdown.
    pub refs: VirtRefBreakdown,
    /// Whether the combined (gVA → hPA) TLB hit.
    pub tlb_hit: bool,
    /// Host-physical address accessed.
    pub paddr: PhysAddr,
}

/// Aggregate counters for a virtualized machine.
pub type VirtMachineStats = AccessStats<VirtRefBreakdown>;

/// The nested translation stage: the NPT and one guest, walked two-stage.
#[derive(Debug)]
pub struct NestedStage {
    /// The nested page table (Sv39x4).
    npt: AddressSpace,
    guest: AddressSpace,
    /// Combined TLB: gVA page → hPA page.
    tlb: Tlb,
    /// G-stage TLB: gPA page → hPA page (survives `hfence.vvma`).
    gtlb: Tlb,
    /// Guest-stage walk cache.
    gpwc: WalkCache,
    scheme: VirtScheme,
}

impl TranslationStage for NestedStage {
    type Space = ();
    type Refs = VirtRefBreakdown;
    const PREFIX: &'static str = "virt";
    const TLB_TAX: u64 = 2;
    /// The combined TLB's L2 hits are modelled without the L2 probe
    /// latency (DESIGN.md §14).
    const CHARGES_L2_HIT: bool = false;

    fn tlb(&mut self, _: AccessKind) -> &mut Tlb {
        &mut self.tlb
    }

    fn asid(&self, _: &()) -> u16 {
        self.guest.asid()
    }

    /// Guest walks report no PWC level.
    fn walk(
        &mut self,
        phys: &PhysMem,
        _: &(),
        gva: VirtAddr,
        visit: impl FnMut(PhysAddr, StepKind, usize),
    ) -> (Option<Translation>, Option<usize>) {
        let (guest, npt) = (&self.guest, &self.npt);
        let t = nested_walk(phys, guest, npt, &mut self.gtlb, &mut self.gpwc, gva, visit);
        (t, None)
    }

    /// The virtualized stack is only driven single-hart.
    fn stamps(&self) -> (u16, World) {
        (0, World::Guest)
    }

    fn flush_all(&mut self) {
        self.tlb.flush_all();
        self.gpwc.flush_all();
        self.gtlb.flush_all();
    }

    /// The virt snapshot carries no `trace.dropped` counter.
    fn export(&self, reg: &mut MetricsRegistry, _: u64) {
        self.tlb.stats().export(reg, "virt.tlb");
        self.gtlb.stats().export(reg, "virt.gtlb");
        self.gpwc.stats().export(reg, "virt.gpwc");
    }

    fn reset_stats(&mut self) {
        self.tlb.reset_stats();
        self.gtlb.reset_stats();
        self.gpwc.reset_stats();
    }

    fn side_refs(&self) -> u64 {
        0
    }
}

/// A virtualized system: host memory, NPT, one guest, and the isolation
/// layer programmed per [`VirtScheme`].
pub type VirtMachine<S = NullSink> = AccessPipeline<NestedStage, S>;

/// Host RAM layout constants for the virtualized fixture.
const RAM_BASE: u64 = 0x8000_0000;
const RAM: PmpRegion = PmpRegion::new(PhysAddr::new(RAM_BASE), 1 << 30);
const NPT_POOL: u64 = RAM_BASE; // 8 MiB for NPT pages (contiguous)
const NPT_POOL_SIZE: u64 = 8 << 20;
const TABLE_POOL: u64 = RAM_BASE + NPT_POOL_SIZE; // PMP-table pages
const TABLE_POOL_SIZE: u64 = 24 << 20;
const GPT_HOST_POOL: u64 = TABLE_POOL + TABLE_POOL_SIZE; // host frames backing guest PT pages
const GPT_HOST_POOL_SIZE: u64 = 8 << 20;
const DATA_HOST_POOL: u64 = GPT_HOST_POOL + GPT_HOST_POOL_SIZE;
/// The fast GMSs behind segments: the NPT pool (HPMP, HPMP-GPT) and the
/// host frames backing guest PT pages (HPMP-GPT).
const FAST_POOLS: [(PmpRegion, Perms); 2] = [
    (
        PmpRegion::new(PhysAddr::new(NPT_POOL), NPT_POOL_SIZE),
        Perms::RW,
    ),
    (
        PmpRegion::new(PhysAddr::new(GPT_HOST_POOL), GPT_HOST_POOL_SIZE),
        Perms::RW,
    ),
];

/// Guest-physical layout: PT pool first, then data.
const GPA_PT_POOL: u64 = 0x1000_0000;
const GPA_PT_POOL_SIZE: u64 = 8 << 20;
const GPA_DATA: u64 = GPA_PT_POOL + GPA_PT_POOL_SIZE;

/// The guest fixture's isolation layer: a register file of `entries`
/// entries holding the scheme's fast GMSs as segments, then (every scheme
/// but PMP) a table over all of RAM, built in `phys`. It does not depend
/// on the trace sink, so it stays out of the sink-generic constructor.
fn isolation_layer(scheme: VirtScheme, entries: usize, phys: &mut PhysMem) -> HpmpRegFile {
    let segments: &[(PmpRegion, Perms)] = match scheme {
        VirtScheme::Pmp => &[(RAM, Perms::RWX)],
        VirtScheme::PmpTable => &[],
        VirtScheme::Hpmp => &FAST_POOLS[..1],
        VirtScheme::HpmpGpt => &FAST_POOLS,
    };
    let mut regs = HpmpRegFile::with_entries(entries);
    let mut table_frames =
        hpmp_memsim::FrameAllocator::new(PhysAddr::new(TABLE_POOL), TABLE_POOL_SIZE);
    let table = (scheme != VirtScheme::Pmp).then(|| {
        let mut table = PmpTable::new(RAM, phys, &mut table_frames).expect("table");
        table
            .set_range_perm(
                phys,
                &mut table_frames,
                RAM.base,
                RAM.size / 2,
                Perms::RWX,
                FillPolicy::PerPage,
            )
            .expect("table fill");
        (RAM, table.root())
    });
    regs.program(0, segments.iter().copied(), table)
        .expect("isolation layout");
    regs
}

impl VirtMachine {
    /// Builds the virtualized fixture: a guest with `guest_pages` data pages
    /// mapped starting at guest VA 0x20_0000, NPT pages contiguous in the
    /// NPT pool, guest-PT pages contiguous in guest-physical space (and in
    /// the host frames backing them).
    ///
    /// # Panics
    ///
    /// Panics if the fixed pools are exhausted — enlarge the constants
    /// rather than handling it at runtime; this is a fixture.
    pub fn new(config: MachineConfig, scheme: VirtScheme, guest_pages: u64) -> VirtMachine {
        Self::with_sink_options(config, scheme, guest_pages, false, NullSink)
    }
}

impl<S: TraceSink> VirtMachine<S> {
    /// As [`VirtMachine::new`], recording one
    /// [`WalkEvent`](hpmp_trace::WalkEvent) per guest access into `sink`.
    ///
    /// # Panics
    ///
    /// As [`VirtMachine::new`].
    pub fn with_sink(
        config: MachineConfig,
        scheme: VirtScheme,
        guest_pages: u64,
        sink: S,
    ) -> VirtMachine<S> {
        Self::with_sink_options(config, scheme, guest_pages, false, sink)
    }

    /// The fully general constructor: scheme, backing layout, and sink.
    /// `fragmented_backing` strides the host frames behind the guest's data
    /// pages (2 MiB + one page apart), reproducing the paper's §8.8 cases
    /// (3)/(4) where "fragmented host virtual pages" back the guest.
    ///
    /// # Panics
    ///
    /// As [`VirtMachine::new`].
    pub fn with_sink_options(
        config: MachineConfig,
        scheme: VirtScheme,
        guest_pages: u64,
        fragmented_backing: bool,
        sink: S,
    ) -> VirtMachine<S> {
        let mut phys = PhysMem::new();
        let mut npt_frames =
            hpmp_memsim::FrameAllocator::new(PhysAddr::new(NPT_POOL), NPT_POOL_SIZE);
        let mut npt = AddressSpace::new(TranslationMode::Sv39x4, 0, &mut phys, &mut npt_frames)
            .expect("NPT root");

        // Back the guest-physical PT pool and data pool with host frames:
        // contiguous backing is one run per pool, while fragmented backing
        // strides the data frames 2 MiB + one page apart, a run each.
        npt.map_run(
            &mut phys,
            &mut npt_frames,
            VirtAddr::new(GPA_PT_POOL),
            PhysAddr::new(GPT_HOST_POOL),
            GPA_PT_POOL_SIZE / PAGE_SIZE,
            Perms::RWX,
            true,
        )
        .expect("NPT map");
        let data_pages_backed = guest_pages.max(64) * 2;
        let (run, stride) = if fragmented_backing {
            (1, (2u64 << 20) / PAGE_SIZE + 1)
        } else {
            (data_pages_backed, 1)
        };
        for first in (0..data_pages_backed).step_by(run as usize) {
            let gpa = VirtAddr::new(GPA_DATA + first * PAGE_SIZE);
            let hpa = PhysAddr::new(DATA_HOST_POOL + first * stride * PAGE_SIZE);
            npt.map_run(&mut phys, &mut npt_frames, gpa, hpa, run, Perms::RWX, true)
                .expect("NPT map");
        }

        // Build the guest page table in guest-physical memory.
        let mut guest_pt_frames =
            hpmp_memsim::FrameAllocator::new(PhysAddr::new(GPA_PT_POOL), GPA_PT_POOL_SIZE);
        let mut view = GuestView::new(&mut phys, &npt);
        let mut guest =
            AddressSpace::new(TranslationMode::Sv39, 5, &mut view, &mut guest_pt_frames)
                .expect("guest root");
        guest
            .map_run(
                &mut view,
                &mut guest_pt_frames,
                VirtAddr::new(0x20_0000),
                PhysAddr::new(GPA_DATA),
                guest_pages,
                Perms::RW,
                true,
            )
            .expect("guest map");

        let regs = isolation_layer(scheme, config.hpmp_entries, &mut phys);

        let stage = NestedStage {
            npt,
            guest,
            tlb: Tlb::new(config.tlb),
            gtlb: Tlb::new(config.tlb),
            gpwc: WalkCache::new(config.pwc),
            scheme,
        };
        AccessPipeline::assemble(&config, phys, regs, stage, sink)
    }

    /// The scheme this machine was built for.
    pub fn scheme(&self) -> VirtScheme {
        self.stage.scheme
    }

    /// Aggregate counters.
    pub fn stats(&self) -> VirtMachineStats {
        self.stats
    }

    /// `hfence.vvma`: flush guest-stage translations, keep the G-stage TLB.
    pub fn hfence_vvma(&mut self) {
        self.stage.tlb.flush_all();
        self.stage.gpwc.flush_all();
    }

    /// `hfence.gvma`: flush everything derived from the NPT as well.
    pub fn hfence_gvma(&mut self) {
        self.stage.flush_all();
    }

    /// Performs one guest load/store (the paper uses `hlv.d` from the host
    /// to avoid guest-software noise; the reference sequence is identical).
    /// VS-mode accesses are checked like S-mode ones.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] on translation failure in either stage or an
    /// isolation denial.
    pub fn access(&mut self, gva: VirtAddr, kind: AccessKind) -> Result<VirtAccessOutcome, Fault> {
        let done = self.run(&(), gva, kind, PrivMode::Supervisor)?;
        Ok(VirtAccessOutcome {
            cycles: done.cycles,
            refs: done.refs,
            tlb_hit: done.tlb_hit.is_some(),
            paddr: done.paddr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_trace::RingSink;

    const GVA: VirtAddr = VirtAddr::new(0x20_0000);

    fn machine(scheme: VirtScheme) -> VirtMachine {
        VirtMachine::new(MachineConfig::rocket(), scheme, 16)
    }

    /// Figure 8: PMP = 16 refs, PMPT = 48, HPMP = 24, HPMP-GPT = 18.
    #[test]
    fn cold_reference_counts_match_section_6() {
        let expect = [
            (VirtScheme::Pmp, 16, 0, 0, 0),
            (VirtScheme::PmpTable, 16, 24, 6, 2),
            (VirtScheme::Hpmp, 16, 0, 6, 2),
            (VirtScheme::HpmpGpt, 16, 0, 0, 2),
        ];
        for (scheme, base, npt_pmpte, gpt_pmpte, data_pmpte) in expect {
            let mut m = machine(scheme);
            m.flush_microarch();
            let out = m.access(GVA, AccessKind::Read).unwrap();
            let walk_refs = out.refs.npt_reads + out.refs.gpt_reads + out.refs.data_reads;
            assert_eq!(walk_refs, base, "{scheme}: base walk refs");
            assert_eq!(
                out.refs.pmpte_for_npt, npt_pmpte,
                "{scheme}: NPT pmpte refs"
            );
            assert_eq!(
                out.refs.pmpte_for_gpt, gpt_pmpte,
                "{scheme}: GPT pmpte refs"
            );
            assert_eq!(
                out.refs.pmpte_for_data, data_pmpte,
                "{scheme}: data pmpte refs"
            );
            assert_eq!(
                out.refs.total(),
                base + npt_pmpte + gpt_pmpte + data_pmpte,
                "{scheme}: total"
            );
        }
    }

    #[test]
    fn tlb_hit_single_reference() {
        let mut m = machine(VirtScheme::PmpTable);
        m.access(GVA, AccessKind::Read).unwrap();
        let out = m.access(GVA, AccessKind::Read).unwrap();
        assert!(out.tlb_hit);
        assert_eq!(out.refs.total(), 1);
    }

    #[test]
    fn hfence_vvma_cheaper_than_gvma() {
        let mut cost = std::collections::HashMap::new();
        for (name, gvma) in [("v", false), ("g", true)] {
            let mut m = machine(VirtScheme::PmpTable);
            m.access(GVA, AccessKind::Read).unwrap();
            if gvma {
                m.hfence_gvma();
            } else {
                m.hfence_vvma();
            }
            let out = m.access(GVA, AccessKind::Read).unwrap();
            cost.insert(name, out.refs.total());
        }
        assert!(
            cost["v"] < cost["g"],
            "hfence.vvma {} < hfence.gvma {}",
            cost["v"],
            cost["g"]
        );
    }

    #[test]
    fn latency_ordering_matches_figure_13() {
        let mut lat = Vec::new();
        for scheme in [
            VirtScheme::Pmp,
            VirtScheme::HpmpGpt,
            VirtScheme::Hpmp,
            VirtScheme::PmpTable,
        ] {
            let mut m = machine(scheme);
            m.flush_microarch();
            lat.push(m.access(GVA, AccessKind::Read).unwrap().cycles);
        }
        assert!(lat[0] < lat[1], "PMP < HPMP-GPT");
        assert!(lat[1] < lat[2], "HPMP-GPT < HPMP");
        assert!(lat[2] < lat[3], "HPMP < PMPT");
    }

    #[test]
    fn unmapped_gva_faults() {
        let mut m = machine(VirtScheme::Pmp);
        assert!(matches!(
            m.access(VirtAddr::new(0x5000_0000), AccessKind::Read),
            Err(Fault::PageFault(_))
        ));
    }

    #[test]
    fn translation_lands_in_host_data_pool() {
        let mut m = machine(VirtScheme::Pmp);
        let out = m.access(GVA + 0x123, AccessKind::Read).unwrap();
        assert_eq!(out.paddr, PhysAddr::new(DATA_HOST_POOL + 0x123));
    }

    #[test]
    fn traced_guest_walk_reproduces_figure_8_steps() {
        let mut m = VirtMachine::with_sink(
            MachineConfig::rocket(),
            VirtScheme::PmpTable,
            16,
            RingSink::new(8),
        );
        m.flush_microarch();
        let out = m.access(GVA, AccessKind::Read).unwrap();
        let event = m.sink().events().next().cloned().expect("one event");
        assert_eq!(event.world, World::Guest);
        assert!(event.is_balanced(), "guest event balances");
        assert_eq!(event.cycles, out.cycles);
        assert_eq!(
            event.count_of(StepKind::NestedPt) as u64,
            out.refs.npt_reads
        );
        assert_eq!(event.count_of(StepKind::GuestPt) as u64, out.refs.gpt_reads);
        assert_eq!(
            event.count_of(StepKind::PmptRoot) + event.count_of(StepKind::PmptLeaf),
            (out.refs.pmpte_for_npt + out.refs.pmpte_for_gpt + out.refs.pmpte_for_data) as usize
        );
    }

    #[test]
    fn virt_accounting_and_snapshot_agree() {
        let mut m = machine(VirtScheme::Hpmp);
        m.access(GVA, AccessKind::Read).unwrap();
        m.access(GVA, AccessKind::Read).unwrap();
        m.access(VirtAddr::new(0x5000_0000), AccessKind::Read)
            .unwrap_err();
        m.verify_accounting().expect("refs all accounted for");
        let snap = m.metrics_snapshot();
        assert_eq!(snap.value("virt.accesses"), m.stats().accesses);
        assert_eq!(snap.value("virt.refs"), m.stats().refs.total());
        assert_eq!(snap.value("virt.mem.accesses"), m.stats().issued_refs());
    }

    /// Mirrors `corrupt_leaf_pmpte_faults_and_recovers` for the native
    /// machine: a corrupt pmpte met by a guest access fails closed as
    /// `CorruptPmpte`, not as a policy denial, and service resumes once
    /// the bit is restored.
    #[test]
    fn corrupt_leaf_pmpte_in_guest_access_faults_and_recovers() {
        let mut m = machine(VirtScheme::PmpTable);
        m.access(GVA, AccessKind::Read)
            .expect("intact table allows the read");
        let data_hpa = PhysAddr::new(DATA_HOST_POOL);
        let leaf_addr = m
            .regs
            .check(
                &m.phys,
                &mut hpmp_core::PmptwCache::disabled(),
                data_hpa,
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .refs
            .last()
            .expect("table walk has refs")
            .addr;
        let raw = m.phys.read_u64(leaf_addr);
        m.phys.write_u64(leaf_addr, raw ^ 1);
        m.flush_microarch();
        let err = m
            .access(GVA, AccessKind::Read)
            .expect_err("corrupt pmpte must deny");
        assert_eq!(err, Fault::CorruptPmpte(data_hpa));
        m.phys.write_u64(leaf_addr, raw);
        m.flush_microarch();
        m.access(GVA, AccessKind::Read)
            .expect("restored table allows the read again");
        m.verify_accounting().expect("aborted refs booked");
    }

    /// The guest's register file has as many entries as the config asks
    /// for: 64 under ePMP.
    #[test]
    fn epmp_config_gives_the_guest_64_entries() {
        assert_eq!(
            machine(VirtScheme::Hpmp).regs.len(),
            hpmp_core::HPMP_ENTRIES
        );
        let mut config = MachineConfig::rocket();
        config.hpmp_entries = hpmp_core::EPMP_ENTRIES;
        let m = VirtMachine::new(config, VirtScheme::Hpmp, 4);
        assert_eq!(m.regs.len(), hpmp_core::EPMP_ENTRIES);
    }
}
