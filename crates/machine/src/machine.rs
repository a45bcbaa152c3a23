//! The native machine: TLB → PTW → HPMP checker → cache hierarchy
//! (Figures 2/4).
//!
//! [`Machine`] is the shared [`AccessPipeline`] run over the native
//! translation stage, [`NativeStage`]: split D-/I-TLBs, the page-walk
//! cache and the Sv39/48/57 radix walker over an [`AddressSpace`]. The
//! pipeline supplies the access sequence, the checks, the accounting and
//! the trace events (see [`crate::pipeline`]); this module adds what is
//! native-only: the reference categories of Figures 2/4, the hart and
//! world stamps, `sfence.vma`, fence-robust isolation invalidation and
//! IOPMP-checked DMA.

use hpmp_core::{HpmpRegFile, PmptwCacheConfig};
use hpmp_memsim::{AccessKind, CoreModel, MemSystemConfig, PhysAddr, PhysMem, PrivMode, VirtAddr};
use hpmp_paging::{
    walk_with, AddressSpace, Tlb, TlbConfig, TlbHit, Translation, WalkCache, WalkCacheConfig,
};
use hpmp_trace::{Counters, MetricsRegistry, NullSink, StepKind, TraceSink, World};

pub use crate::pipeline::Fault;
use crate::pipeline::{AccessPipeline, RefLedger, TranslationStage};

/// Per-access breakdown of memory references, mirroring the squares and
/// circles of Figures 2 and 4.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefBreakdown {
    /// Page-table-page reads.
    pub pt_reads: u64,
    /// Data (or instruction) reads/writes.
    pub data_reads: u64,
    /// pmpte reads caused by checking PT pages.
    pub pmpte_for_pt: u64,
    /// pmpte reads caused by checking the data page.
    pub pmpte_for_data: u64,
}

impl RefBreakdown {
    /// Total memory references for the access.
    pub fn total(&self) -> u64 {
        self.pt_reads + self.data_reads + self.pmpte_for_pt + self.pmpte_for_data
    }
}

impl Counters for RefBreakdown {
    const NAMES: &'static [&'static str] =
        &["pt_reads", "data_reads", "pmpte_for_pt", "pmpte_for_data"];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [
            self.pt_reads,
            self.data_reads,
            self.pmpte_for_pt,
            self.pmpte_for_data,
        ]
    }
}

impl std::ops::AddAssign for RefBreakdown {
    fn add_assign(&mut self, other: RefBreakdown) {
        self.pt_reads += other.pt_reads;
        self.data_reads += other.data_reads;
        self.pmpte_for_pt += other.pmpte_for_pt;
        self.pmpte_for_data += other.pmpte_for_data;
    }
}

impl RefLedger for RefBreakdown {
    fn reads(&mut self, step: StepKind) -> &mut u64 {
        if step == StepKind::Data {
            &mut self.data_reads
        } else {
            &mut self.pt_reads
        }
    }

    fn pmptes(&mut self, guarded: StepKind) -> &mut u64 {
        if guarded == StepKind::Data {
            &mut self.pmpte_for_data
        } else {
            &mut self.pmpte_for_pt
        }
    }
}

/// The result of one successful memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// End-to-end latency in core cycles (pipeline overhead included).
    pub cycles: u64,
    /// Reference breakdown.
    pub refs: RefBreakdown,
    /// TLB hit level, or `None` when the access walked.
    pub tlb_hit: Option<TlbHit>,
    /// Physical address that was accessed.
    pub paddr: PhysAddr,
}

/// Aggregate counters for a machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Successful accesses performed.
    pub accesses: u64,
    /// Total cycles across those accesses.
    pub cycles: u64,
    /// Sum of all reference breakdowns (successful accesses only).
    pub refs: RefBreakdown,
    /// Faults taken.
    pub faults: u64,
    /// TLB-miss walks performed.
    pub walks: u64,
    /// Memory references already issued by accesses that then faulted
    /// (their breakdown is not folded into `refs`).
    pub aborted_refs: u64,
    /// Memory references issued by DMA transfers.
    pub dma_refs: u64,
}

impl MachineStats {
    /// Total references the machine has pushed into the memory system:
    /// completed-access references plus aborted-walk and DMA references.
    /// Equals the memory system's own access counter — see
    /// [`Machine::verify_accounting`].
    pub fn issued_refs(&self) -> u64 {
        self.refs.total() + self.aborted_refs + self.dma_refs
    }
}

/// Configuration of a [`Machine`] (and of a [`VirtMachine`](crate::VirtMachine)).
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Core timing parameters.
    pub core: CoreModel,
    /// Cache/DRAM geometry.
    pub mem: MemSystemConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Page-walk-cache geometry.
    pub pwc: WalkCacheConfig,
    /// PMPTW-Cache geometry (disabled by default, per §7).
    pub pmptw_cache: PmptwCacheConfig,
    /// TLB permission inlining (§7): when enabled (the default, used by both
    /// the baseline and HPMP), a TLB hit needs no permission walk; when
    /// disabled, even TLB hits consult the isolation layer — the paper's
    /// Implication-2 ablation.
    pub tlb_inlining: bool,
    /// HPMP register-file entries (16 for the prototype, 64 with ePMP).
    pub hpmp_entries: usize,
}

impl MachineConfig {
    /// RocketCore SoC per Table 1.
    pub fn rocket() -> MachineConfig {
        MachineConfig {
            core: CoreModel::rocket(),
            mem: MemSystemConfig::rocket(),
            tlb: TlbConfig::default(),
            pwc: WalkCacheConfig::default(),
            pmptw_cache: PmptwCacheConfig::DISABLED,
            tlb_inlining: true,
            hpmp_entries: hpmp_core::HPMP_ENTRIES,
        }
    }

    /// BOOM SoC per Table 1.
    pub fn boom() -> MachineConfig {
        MachineConfig {
            core: CoreModel::boom(),
            mem: MemSystemConfig::boom(),
            tlb: TlbConfig::default(),
            pwc: WalkCacheConfig::default(),
            pmptw_cache: PmptwCacheConfig::DISABLED,
            tlb_inlining: true,
            hpmp_entries: hpmp_core::HPMP_ENTRIES,
        }
    }
}

/// The native translation stage: split D-/I-TLBs (Table 1's "L1 I/D TLB
/// 32 entries each"), the page-walk cache and the radix walker.
#[derive(Clone, Debug)]
pub struct NativeStage {
    tlb: Tlb,
    itlb: Tlb,
    pwc: WalkCache,
    suppress_fences: bool,
    world: World,
    hart_id: u16,
    /// Memory references issued by DMA transfers.
    dma_refs: u64,
}

impl TranslationStage for NativeStage {
    type Space = AddressSpace;
    type Refs = RefBreakdown;
    const PREFIX: &'static str = "machine";
    const TLB_TAX: u64 = 0;
    const CHARGES_L2_HIT: bool = true;

    /// Fetches use the I-TLB; loads and stores the D-TLB. Both share the
    /// walker, the checker and the cache hierarchy.
    fn tlb(&mut self, kind: AccessKind) -> &mut Tlb {
        if kind == AccessKind::Fetch {
            &mut self.itlb
        } else {
            &mut self.tlb
        }
    }

    fn asid(&self, space: &AddressSpace) -> u16 {
        space.asid()
    }

    fn walk(
        &mut self,
        phys: &PhysMem,
        space: &AddressSpace,
        va: VirtAddr,
        visit: impl FnMut(PhysAddr, StepKind, usize),
    ) -> (Option<Translation>, Option<usize>) {
        walk_with(phys, space, &mut self.pwc, va, visit)
    }

    fn stamps(&self) -> (u16, World) {
        (self.hart_id, self.world)
    }

    fn flush_all(&mut self) {
        self.tlb.flush_all();
        self.itlb.flush_all();
        self.pwc.flush_all();
    }

    fn export(&self, reg: &mut MetricsRegistry, trace_dropped: u64) {
        reg.set("machine.trace.dropped", trace_dropped);
        reg.set("machine.dma_refs", self.dma_refs);
        self.tlb.stats().export(reg, "machine.dtlb");
        self.itlb.stats().export(reg, "machine.itlb");
        self.pwc.stats().export(reg, "machine.pwc");
    }

    fn reset_stats(&mut self) {
        self.dma_refs = 0;
        self.tlb.reset_stats();
        self.itlb.reset_stats();
        self.pwc.reset_stats();
    }

    fn side_refs(&self) -> u64 {
        self.dma_refs
    }
}

/// A simulated core + MMU + HPMP + memory system.
///
/// The isolation *scheme* is not a field: it is whatever the HPMP register
/// file has been programmed to — all-segment (PMP), all-table (PMP Table) or
/// hybrid (HPMP) — which is precisely the paper's point that one hardware
/// structure expresses all three.
///
/// The `S` parameter selects the trace sink. The default [`NullSink`]
/// machine ([`Machine::new`]) records nothing and pays nothing; a machine
/// built with [`Machine::with_sink`] emits one
/// [`WalkEvent`](hpmp_trace::WalkEvent) per access.
pub type Machine<S = NullSink> = AccessPipeline<NativeStage, S>;

impl Machine {
    /// Builds a machine with empty physical memory, all HPMP entries off,
    /// and the zero-cost [`NullSink`].
    pub fn new(config: MachineConfig) -> Machine {
        Machine::with_sink(config, NullSink)
    }
}

impl<S: TraceSink> Machine<S> {
    /// Builds a machine that records a [`WalkEvent`](hpmp_trace::WalkEvent)
    /// per access into `sink`.
    pub fn with_sink(config: MachineConfig, sink: S) -> Machine<S> {
        let stage = NativeStage {
            tlb: Tlb::new(config.tlb),
            itlb: Tlb::new(config.tlb),
            pwc: WalkCache::new(config.pwc),
            suppress_fences: false,
            world: World::Host,
            hart_id: 0,
            dma_refs: 0,
        };
        let regs = HpmpRegFile::with_entries(config.hpmp_entries);
        AccessPipeline::assemble(&config, PhysMem::new(), regs, stage, sink)
    }

    /// Sets the hart id stamped on emitted events. The multi-hart driver
    /// calls this once per hart at construction.
    pub fn set_hart_id(&mut self, hart: u16) {
        self.stage.hart_id = hart;
    }

    /// The world tag stamped on emitted events.
    pub fn world(&self) -> World {
        self.stage.world
    }

    /// Sets the world tag; the secure monitor calls this on domain switch
    /// so events carry host/enclave attribution.
    pub fn set_world(&mut self, world: World) {
        self.stage.world = world;
    }

    /// Flushes all TLB, PWC and PMPTW-Cache state (`sfence.vma` +
    /// HPMP-reconfiguration flush).
    pub fn sfence_vma_all(&mut self) {
        self.stage.flush_all();
        self.pmptw_cache.flush_all();
    }

    /// Invalidates all cached isolation decisions after an HPMP
    /// reconfiguration (remap, relabel, domain teardown).
    ///
    /// Two halves make this robust against dropped fences. The *commit*
    /// half advances the isolation epoch on both TLBs and the PMPTW-Cache —
    /// modelling a hardware generation tag bumped by the register-file
    /// write itself — so any entry filled before the reconfiguration can
    /// never hit again, only force a re-walk (counted in the caches'
    /// `stale` stats). The *flush* half is the ordinary software fence,
    /// which fault campaigns may suppress via
    /// [`Machine::set_fence_suppression`]; dropping it degrades to extra
    /// walks, never to a stale grant.
    pub fn invalidate_isolation(&mut self) {
        self.stage.tlb.advance_epoch();
        self.stage.itlb.advance_epoch();
        self.pmptw_cache.advance_epoch();
        if !self.stage.suppress_fences {
            self.sfence_vma_all();
        }
    }

    /// Suppresses (or restores) the flush half of
    /// [`Machine::invalidate_isolation`] — the fault injector's model of a
    /// monitor whose invalidation path was interposed. The epoch half
    /// cannot be suppressed; it is what keeps suppression graceful.
    pub fn set_fence_suppression(&mut self, suppress: bool) {
        self.stage.suppress_fences = suppress;
    }

    /// Flushes translation state for one ASID (`sfence.vma` with ASID).
    pub fn sfence_vma_asid(&mut self, asid: u16) {
        self.stage.tlb.flush_asid(asid);
        self.stage.itlb.flush_asid(asid);
        self.stage.pwc.flush_asid(asid);
    }

    /// Flushes one page's translation (`sfence.vma` with address + ASID).
    /// The PWC is flushed per-ASID: its entries cache non-leaf steps that a
    /// single-page unmap may invalidate at the leaf level only, but a
    /// conservative implementation (like ours) drops the ASID's entries.
    pub fn sfence_vma_page(&mut self, asid: u16, va: VirtAddr) {
        self.stage.tlb.flush_page(asid, va);
        self.stage.itlb.flush_page(asid, va);
        self.stage.pwc.flush_asid(asid);
    }

    /// Aggregate counters.
    pub fn stats(&self) -> MachineStats {
        let t = self.stats;
        MachineStats {
            accesses: t.accesses,
            cycles: t.cycles,
            refs: t.refs,
            faults: t.faults,
            walks: t.walks,
            aborted_refs: t.aborted_refs,
            dma_refs: self.stage.dma_refs,
        }
    }

    /// D-TLB counters.
    pub fn tlb_stats(&self) -> hpmp_paging::TlbStats {
        self.stage.tlb.stats()
    }

    /// I-TLB counters.
    pub fn itlb_stats(&self) -> hpmp_paging::TlbStats {
        self.stage.itlb.stats()
    }

    /// Performs one data access at `va` in `space`.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] on translation failure, a PTE permission
    /// violation, or an isolation denial (on a PT page or on the data page).
    pub fn access(
        &mut self,
        space: &AddressSpace,
        va: VirtAddr,
        kind: AccessKind,
        mode: PrivMode,
    ) -> Result<AccessOutcome, Fault> {
        let done = self.run(space, va, kind, mode)?;
        Ok(AccessOutcome {
            cycles: done.cycles,
            refs: done.refs,
            tlb_hit: done.tlb_hit,
            paddr: done.paddr,
        })
    }

    /// Performs one instruction fetch at `va` in `space` — HPMP "applies to
    /// all memory accesses … including instruction fetches". Fetches use a
    /// separate I-TLB but share the walker, the checker and the cache
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// As [`Machine::access`], with the X permission required at both
    /// layers.
    pub fn fetch(
        &mut self,
        space: &AddressSpace,
        va: VirtAddr,
        mode: PrivMode,
    ) -> Result<AccessOutcome, Fault> {
        self.access(space, va, AccessKind::Fetch, mode)
    }

    /// Performs a DMA transfer of `len` bytes at `base` from `device`,
    /// checked line-by-page against `iopmp` (§9's I/O protection). DMA
    /// bypasses the L1 like the walker port. Returns the cycle cost.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::IsolationOnData`] at the first denied page, or
    /// [`Fault::CorruptPmpte`] if the IOPMP's table walk read a corrupt
    /// pmpte (the check fails closed, as on the CPU path).
    pub fn dma_transfer(
        &mut self,
        iopmp: &hpmp_core::IoPmp,
        device: hpmp_core::DeviceId,
        base: PhysAddr,
        len: u64,
        kind: AccessKind,
    ) -> Result<u64, Fault> {
        let mut cycles = 0;
        let mut offset = 0;
        let mut checked_page = None;
        while offset < len {
            let addr = base + offset;
            // One permission check per page crossed.
            if checked_page != Some(addr.page_number()) {
                let outcome = iopmp.check(&self.phys, device, addr, kind);
                for r in &outcome.refs {
                    cycles += self.mem_sys.access_ptw(r.addr).cycles;
                }
                self.stage.dma_refs += outcome.refs.len() as u64;
                if !outcome.allowed {
                    self.stats.faults += 1;
                    return Err(if outcome.malformed {
                        Fault::CorruptPmpte(addr)
                    } else {
                        Fault::IsolationOnData(addr)
                    });
                }
                checked_page = Some(addr.page_number());
            }
            cycles += self.mem_sys.access_ptw(addr).cycles;
            self.stage.dma_refs += 1;
            offset += hpmp_memsim::LINE_SIZE;
        }
        self.charge_cycles(cycles);
        Ok(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_core::{PmpRegion, PmpTable, PmptwCache};
    use hpmp_memsim::{FrameAllocator, Perms, PAGE_SIZE};
    use hpmp_paging::TranslationMode;
    use hpmp_trace::{AccessClass, RingSink, TlbOutcome};

    fn flat_machine() -> (Machine, AddressSpace) {
        flat_machine_with_sink(NullSink)
    }

    fn flat_machine_with_sink<S: TraceSink>(sink: S) -> (Machine<S>, AddressSpace) {
        let mut machine = Machine::with_sink(MachineConfig::rocket(), sink);
        machine
            .regs_mut()
            .configure_segment(
                0,
                PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30),
                Perms::RWX,
            )
            .expect("segment");
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let mut space =
            AddressSpace::new(TranslationMode::Sv39, 1, machine.phys_mut(), &mut frames)
                .expect("space");
        space
            .map_page(
                machine.phys_mut(),
                &mut frames,
                VirtAddr::new(0x1000),
                PhysAddr::new(0x8010_0000),
                Perms::RX,
                true,
            )
            .expect("code page");
        space
            .map_page(
                machine.phys_mut(),
                &mut frames,
                VirtAddr::new(0x2000),
                PhysAddr::new(0x8010_1000),
                Perms::RW,
                true,
            )
            .expect("data page");
        (machine, space)
    }

    #[test]
    fn fetch_requires_execute_permission() {
        let (mut machine, space) = flat_machine();
        machine
            .fetch(&space, VirtAddr::new(0x1000), PrivMode::User)
            .expect("RX page is fetchable");
        let err = machine
            .fetch(&space, VirtAddr::new(0x2000), PrivMode::User)
            .expect_err("RW page is not fetchable");
        assert!(matches!(err, Fault::PtePermission(_)));
    }

    #[test]
    fn itlb_and_dtlb_are_separate() {
        let (mut machine, space) = flat_machine();
        let code = VirtAddr::new(0x1000);
        // A data read warms the D-TLB only.
        machine
            .access(&space, code, AccessKind::Read, PrivMode::User)
            .expect("read");
        let fetch = machine.fetch(&space, code, PrivMode::User).expect("fetch");
        assert!(
            fetch.tlb_hit.is_none(),
            "first fetch must walk despite warm D-TLB"
        );
        let refetch = machine
            .fetch(&space, code, PrivMode::User)
            .expect("refetch");
        assert!(refetch.tlb_hit.is_some(), "second fetch hits the I-TLB");
    }

    #[test]
    fn fetch_checked_by_isolation_layer() {
        let (mut machine, space) = flat_machine();
        // Shrink the allow segment so the code page falls outside it.
        machine.regs_mut().disable(0).expect("disable");
        machine
            .regs_mut()
            .configure_segment(
                0,
                PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 20),
                Perms::RWX,
            )
            .expect("narrow segment");
        machine.sfence_vma_all();
        let err = machine
            .fetch(&space, VirtAddr::new(0x1000), PrivMode::User)
            .expect_err("fetch outside the segment must fault");
        assert!(matches!(
            err,
            Fault::IsolationOnPtPage(_) | Fault::IsolationOnData(_)
        ));
    }

    #[test]
    fn traced_events_balance_and_match_cycles() {
        let (mut machine, space) = flat_machine_with_sink(RingSink::new(16));
        let walk = machine
            .access(
                &space,
                VirtAddr::new(0x2000),
                AccessKind::Read,
                PrivMode::User,
            )
            .expect("walk access");
        let hit = machine
            .access(
                &space,
                VirtAddr::new(0x2000),
                AccessKind::Read,
                PrivMode::User,
            )
            .expect("hit access");
        let events: Vec<_> = machine.sink().events().cloned().collect();
        assert_eq!(events.len(), 2);
        assert!(events[0].is_balanced(), "walk event balances");
        assert!(events[1].is_balanced(), "hit event balances");
        assert_eq!(events[0].cycles, walk.cycles);
        assert_eq!(events[1].cycles, hit.cycles);
        assert_eq!(events[0].tlb, TlbOutcome::Miss);
        assert_eq!(events[0].count_of(StepKind::Pt) as u64, walk.refs.pt_reads);
        assert!(events[1].tlb.is_hit());
        assert_eq!(events[1].count_of(StepKind::Data), 1);
    }

    #[test]
    fn tracing_does_not_change_cycle_results() {
        let (mut plain, space_a) = flat_machine();
        let (mut traced, space_b) = flat_machine_with_sink(RingSink::new(64));
        for va in [0x1000u64, 0x2000, 0x1000, 0x2000] {
            let a = plain
                .access(
                    &space_a,
                    VirtAddr::new(va),
                    AccessKind::Read,
                    PrivMode::User,
                )
                .expect("plain");
            let b = traced
                .access(
                    &space_b,
                    VirtAddr::new(va),
                    AccessKind::Read,
                    PrivMode::User,
                )
                .expect("traced");
            assert_eq!(a.cycles, b.cycles, "cycles diverge at va {va:#x}");
            assert_eq!(a.refs, b.refs, "refs diverge at va {va:#x}");
        }
    }

    #[test]
    fn delivered_fence_empties_both_tlbs_without_stale_counts() {
        let (mut machine, space) = flat_machine();
        let (code, data) = (VirtAddr::new(0x1000), VirtAddr::new(0x2000));
        machine
            .access(&space, data, AccessKind::Read, PrivMode::User)
            .expect("warm read");
        machine
            .fetch(&space, code, PrivMode::User)
            .expect("warm fetch");
        machine.invalidate_isolation();
        let read = machine
            .access(&space, data, AccessKind::Read, PrivMode::User)
            .expect("re-read");
        let fetch = machine
            .fetch(&space, code, PrivMode::User)
            .expect("re-fetch");
        assert!(read.tlb_hit.is_none(), "the D-TLB was flushed");
        assert!(fetch.tlb_hit.is_none(), "the I-TLB was flushed");
        // A flushed entry is gone, so the epoch never has to reject it:
        // only a suppressed fence leaves entries for `stale` to count.
        for stats in [machine.tlb_stats(), machine.itlb_stats()] {
            assert_eq!(stats.stale, 0);
            assert_eq!(stats.flushes, 1);
        }
    }

    #[test]
    fn suppressed_fence_cannot_grant_stale_isolation() {
        let (mut machine, space) = flat_machine();
        let va = VirtAddr::new(0x2000);
        machine
            .access(&space, va, AccessKind::Read, PrivMode::User)
            .expect("warm access fills the TLB");
        // The TLB entry now carries the old RWX isolation permission.
        // Reconfigure the HPMP so the data page is no longer covered, with
        // the software fence suppressed: only the epoch stops the stale
        // entry from granting.
        machine.set_fence_suppression(true);
        machine.regs_mut().disable(0).expect("disable");
        machine
            .regs_mut()
            .configure_segment(
                0,
                PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 20),
                Perms::RWX,
            )
            .expect("narrow segment");
        machine.invalidate_isolation();
        let err = machine
            .access(&space, va, AccessKind::Read, PrivMode::User)
            .expect_err("stale TLB entry must not grant");
        assert!(matches!(
            err,
            Fault::IsolationOnPtPage(_) | Fault::IsolationOnData(_)
        ));
        assert!(
            machine.tlb_stats().stale > 0,
            "the stale entry must be epoch-rejected, not hit"
        );
    }

    #[test]
    fn corrupt_leaf_pmpte_faults_and_recovers() {
        let mut machine = Machine::new(MachineConfig::rocket());
        let region = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 28);
        // PMP table pages live outside the protected region; PT and data
        // pages inside it.
        let mut table_frames = FrameAllocator::new(PhysAddr::new(0x9800_0000), 64 * PAGE_SIZE);
        let mut table =
            PmpTable::new(region, machine.phys_mut(), &mut table_frames).expect("table");
        let mut space_frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        for i in 0..64u64 {
            table
                .set_page_perm(
                    machine.phys_mut(),
                    &mut table_frames,
                    PhysAddr::new(0x8000_0000 + i * PAGE_SIZE),
                    Perms::RWX,
                )
                .expect("PT page perm");
        }
        let data_pa = PhysAddr::new(0x8010_0000);
        table
            .set_page_perm(machine.phys_mut(), &mut table_frames, data_pa, Perms::RW)
            .expect("data page perm");
        machine
            .regs_mut()
            .configure_table(0, region, table.root())
            .expect("table mode");
        let mut space = AddressSpace::new(
            TranslationMode::Sv39,
            1,
            machine.phys_mut(),
            &mut space_frames,
        )
        .expect("space");
        let va = VirtAddr::new(0x2000);
        space
            .map_page(
                machine.phys_mut(),
                &mut space_frames,
                va,
                data_pa,
                Perms::RW,
                true,
            )
            .expect("map");
        machine
            .access(&space, va, AccessKind::Read, PrivMode::User)
            .expect("intact table allows the read");
        // Locate the leaf pmpte the check reads, then flip one bit of it.
        let leaf_addr = {
            let check = machine.regs().check(
                machine.phys(),
                &mut PmptwCache::disabled(),
                data_pa,
                AccessKind::Read,
                PrivMode::User,
            );
            check.refs.last().expect("table walk has refs").addr
        };
        let raw = machine.phys().read_u64(leaf_addr);
        machine.phys_mut().write_u64(leaf_addr, raw ^ 1);
        machine.sfence_vma_all();
        let err = machine
            .access(&space, va, AccessKind::Read, PrivMode::User)
            .expect_err("corrupt pmpte must deny");
        assert!(matches!(err, Fault::CorruptPmpte(_)), "got {err:?}");
        // Restoring the bit restores service — fail-closed, not wedged.
        machine.phys_mut().write_u64(leaf_addr, raw);
        machine.sfence_vma_all();
        machine
            .access(&space, va, AccessKind::Read, PrivMode::User)
            .expect("restored table allows the read again");
    }

    #[test]
    fn accounting_covers_faulted_walks() {
        let (mut machine, space) = flat_machine();
        machine
            .access(
                &space,
                VirtAddr::new(0x2000),
                AccessKind::Read,
                PrivMode::User,
            )
            .expect("good access");
        // A page fault mid-walk still issues PT reads.
        machine
            .access(
                &space,
                VirtAddr::new(0x7000),
                AccessKind::Read,
                PrivMode::User,
            )
            .expect_err("unmapped");
        let stats = machine.stats();
        assert!(
            stats.aborted_refs > 0,
            "faulted walk must book its references"
        );
        machine
            .verify_accounting()
            .expect("all references accounted for");
    }

    #[test]
    fn metrics_snapshot_mirrors_legacy_stats() {
        let (mut machine, space) = flat_machine();
        machine
            .access(
                &space,
                VirtAddr::new(0x2000),
                AccessKind::Read,
                PrivMode::User,
            )
            .expect("access");
        let snap = machine.metrics_snapshot();
        let stats = machine.stats();
        assert_eq!(snap.value("machine.accesses"), stats.accesses);
        assert_eq!(snap.value("machine.refs"), stats.refs.total());
        assert_eq!(
            snap.value("machine.mem.accesses"),
            machine.mem_stats().accesses
        );
        assert_eq!(
            snap.value("machine.dtlb.misses"),
            machine.tlb_stats().misses
        );
        assert_eq!(
            snap.value("machine.latency.read_walk.count"),
            machine.histograms().class(AccessClass::ReadWalk).count()
        );
    }

    #[test]
    fn reset_stats_clears_every_counter() {
        let (mut machine, space) = flat_machine();
        machine
            .access(
                &space,
                VirtAddr::new(0x2000),
                AccessKind::Read,
                PrivMode::User,
            )
            .expect("access");
        machine
            .fetch(&space, VirtAddr::new(0x1000), PrivMode::User)
            .expect("fetch");
        machine.reset_stats();
        assert_eq!(machine.stats(), MachineStats::default());
        assert_eq!(machine.mem_stats().accesses, 0);
        assert_eq!(machine.tlb_stats().lookups(), 0);
        assert_eq!(
            machine.itlb_stats().lookups(),
            0,
            "the I-TLB must reset too"
        );
        assert_eq!(machine.histograms().total_count(), 0);
        machine.verify_accounting().expect("balanced after reset");
    }
}
