//! One access pipeline for native and virtualized machines.
//!
//! The paper's native 2-D walk (Figures 2/4) and its extra-dimensional 3-D
//! walk (Figure 8) are one sequence: a TLB lookup, then on a miss the
//! translation walk with an isolation check before every page-table
//! reference, then the data page's check, the TLB refill and the data
//! reference. [`AccessPipeline`] runs that sequence once for both machines.
//! Only the translation stage differs, and everything that differs comes
//! from the [`TranslationStage`] the pipeline is generic over (static
//! dispatch, no `dyn`):
//!
//! * `NativeStage`, behind [`Machine`](crate::Machine) — D-/I-TLB, PWC
//!   and the radix walker over an [`AddressSpace`](hpmp_paging::AddressSpace);
//! * `NestedStage`, behind [`VirtMachine`](crate::VirtMachine) — combined
//!   TLB, G-TLB, guest PWC and the nested walk over guest PT × NPT.
//!
//! The pipeline owns everything else: the core model, the memory system,
//! physical memory, the HPMP register file and its pre-decoded plan, the
//! PMPTW-Cache, the counters, the latency histograms and the trace sink.
//! Fault booking, event emission and success accounting each happen in
//! exactly one place, and no shared code asks which machine it serves.
//!
//! Every reference is pushed through the shared [`MemSystem`], so warm/cold
//! behaviour (TC1–TC3), pmpte cache-line sharing, and DRAM row locality all
//! emerge rather than being hard-coded.
//!
//! The pipeline is generic over a [`TraceSink`]: with the default
//! [`NullSink`] every emission site compiles away (the `S::ENABLED`
//! constant is false, so the event-building branches are dead code), and
//! with a recording sink each access produces one [`WalkEvent`] whose
//! per-step cycles sum exactly to the access's cycle count. Tracing never
//! changes a cycle result.

use hpmp_core::{EntryPlan, HpmpRegFile, PmptwCache};
use hpmp_memsim::{
    AccessKind, CoreModel, HitLevel, MemSystem, Perms, PhysAddr, PhysMem, PrivMode, VirtAddr,
};
use hpmp_paging::{apply_translation, Tlb, TlbEntry, TlbHit, Translation};
use hpmp_trace::{
    AccessClass, AccessOp, Counters, FaultCause, LatencyHistograms, MetricsRegistry, NullSink,
    PmptwOutcome, PrivLevel, Snapshot, StepKind, TlbOutcome, TraceSink, WalkEvent, WalkStep, World,
};

use crate::machine::MachineConfig;

/// Why an access failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No valid translation for the virtual address.
    PageFault(VirtAddr),
    /// The page-table permission did not allow the access.
    PtePermission(VirtAddr),
    /// The isolation layer denied a PT-page reference during the walk.
    IsolationOnPtPage(PhysAddr),
    /// The isolation layer denied the data reference.
    IsolationOnData(PhysAddr),
    /// A pmpte read during the permission walk failed its integrity check
    /// (reserved bits set or parity mismatch). The checker fails closed:
    /// the access is denied and the corruption is surfaced as its own
    /// fault cause so the monitor can quarantine and rebuild rather than
    /// treat it as a policy denial.
    CorruptPmpte(PhysAddr),
}

impl Fault {
    /// The structured trace cause for this fault.
    pub fn cause(&self) -> FaultCause {
        match self {
            Fault::PageFault(_) => FaultCause::PageFault,
            Fault::PtePermission(_) => FaultCause::PtePermission,
            Fault::IsolationOnPtPage(_) => FaultCause::IsolationOnPtPage,
            Fault::IsolationOnData(_) => FaultCause::IsolationOnData,
            Fault::CorruptPmpte(_) => FaultCause::CorruptPmpte,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::PageFault(va) => write!(f, "page fault at {va}"),
            Fault::PtePermission(va) => write!(f, "PTE permission fault at {va}"),
            Fault::IsolationOnPtPage(pa) => {
                write!(f, "isolation fault on PT page at {pa}")
            }
            Fault::IsolationOnData(pa) => write!(f, "isolation fault on data at {pa}"),
            Fault::CorruptPmpte(pa) => {
                write!(f, "corrupt pmpte encountered checking {pa}")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// The trace operation for a memsim access kind.
fn op_of(kind: AccessKind) -> AccessOp {
    match kind {
        AccessKind::Read => AccessOp::Read,
        AccessKind::Write => AccessOp::Write,
        AccessKind::Fetch => AccessOp::Fetch,
    }
}

/// The trace privilege level for a memsim privilege mode.
fn priv_of(mode: PrivMode) -> PrivLevel {
    match mode {
        PrivMode::User => PrivLevel::User,
        PrivMode::Supervisor => PrivLevel::Supervisor,
        PrivMode::Machine => PrivLevel::Machine,
    }
}

/// A per-access reference breakdown, split into the categories of its
/// figure: `RefBreakdown` for Figures 2/4, `VirtRefBreakdown` for Figure 8.
/// Its [`Counters`] names are exported below `<prefix>.refs.`.
pub trait RefLedger: Counters + Copy + Default + std::fmt::Debug + std::ops::AddAssign {
    /// The count of references of kind `step`.
    fn reads(&mut self, step: StepKind) -> &mut u64;
    /// The count of pmpte reads guarding references of kind `guarded`.
    fn pmptes(&mut self, guarded: StepKind) -> &mut u64;
    /// All references.
    fn sum(&self) -> u64 {
        self.values().into_iter().sum()
    }
}

/// The translation stage of an [`AccessPipeline`]: everything that differs
/// between a native and a virtualized access.
pub trait TranslationStage {
    /// What an access names besides its VA: the native address space, or
    /// `()` for a guest whose address space the stage owns.
    type Space: ?Sized;
    /// The reference categories of one access.
    type Refs: RefLedger;
    /// Counter-name prefix (`machine` or `virt`).
    const PREFIX: &'static str;
    /// Pipeline cycles on top of the core's overhead (the two-stage TLB
    /// tax of a guest access).
    const TLB_TAX: u64;
    /// Whether an L2 TLB hit pays `l2_hit_latency` and a `TlbL2` step.
    const CHARGES_L2_HIT: bool;

    /// The TLB an access of `kind` looks up and refills.
    fn tlb(&mut self, kind: AccessKind) -> &mut Tlb;
    /// The ASID the TLB entries of `space` carry.
    fn asid(&self, space: &Self::Space) -> u16;
    /// Walks the translation of `va` after a TLB miss, reporting each
    /// page-table reference to `visit` as `(address, step kind, level)`
    /// when the walk reads it. Returns the translation (`None` when the
    /// walk faulted) and the page-walk-cache level that shortened the
    /// walk, if the stage reports it.
    fn walk(
        &mut self,
        phys: &PhysMem,
        space: &Self::Space,
        va: VirtAddr,
        visit: impl FnMut(PhysAddr, StepKind, usize),
    ) -> (Option<Translation>, Option<usize>);
    /// The hart and world stamped on emitted events.
    fn stamps(&self) -> (u16, World);
    /// Flushes every TLB and walk cache of the stage.
    fn flush_all(&mut self);
    /// Publishes the stage's stats (and the sink's drop count, where the
    /// stage reports it) at snapshot time.
    fn export(&self, reg: &mut MetricsRegistry, trace_dropped: u64);
    /// Clears the stage's stats and its own counters.
    fn reset_stats(&mut self);
    /// References issued outside the access pipeline (DMA).
    fn side_refs(&self) -> u64;
}

/// Aggregate counters of an access pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats<R> {
    /// Successful accesses.
    pub accesses: u64,
    /// Total cycles across those accesses.
    pub cycles: u64,
    /// Faults taken.
    pub faults: u64,
    /// TLB-miss walks performed.
    pub walks: u64,
    /// Sum of all reference breakdowns (successful accesses only).
    pub refs: R,
    /// References already issued by accesses that then faulted.
    pub aborted_refs: u64,
}

impl<R: RefLedger> AccessStats<R> {
    /// Total references accesses pushed into the memory system.
    pub fn issued_refs(&self) -> u64 {
        self.refs.sum() + self.aborted_refs
    }
}

/// The pipeline's own counters; the reference breakdown is exported
/// separately below `<prefix>.refs.`, and `refs` here is its sum.
impl<R: RefLedger> Counters for AccessStats<R> {
    const NAMES: &'static [&'static str] = &[
        "accesses",
        "cycles",
        "faults",
        "walks",
        "aborted_refs",
        "refs",
    ];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [
            self.accesses,
            self.cycles,
            self.faults,
            self.walks,
            self.aborted_refs,
            self.refs.sum(),
        ]
    }
}

/// A core + MMU + HPMP + memory system, generic over its translation stage
/// `T` and its trace sink `S`. [`Machine`](crate::Machine) and
/// [`VirtMachine`](crate::VirtMachine) are its two instantiations.
#[derive(Clone, Debug)]
pub struct AccessPipeline<T: TranslationStage, S: TraceSink = NullSink> {
    core: CoreModel,
    pub(crate) mem_sys: MemSystem,
    pub(crate) phys: PhysMem,
    pub(crate) regs: HpmpRegFile,
    /// Pre-decoded permission-check plan over `regs`, rebuilt lazily
    /// whenever the register file's generation stamp moves. All hot-path
    /// isolation checks go through this plan so a whole walk's per-step
    /// checks are one pass over pre-decoded matching entries instead of
    /// re-decoding every register each time.
    check_plan: EntryPlan,
    pub(crate) pmptw_cache: PmptwCache,
    /// TLB permission inlining (§7); see `MachineConfig::tlb_inlining`.
    tlb_inlining: bool,
    pub(crate) stats: AccessStats<T::Refs>,
    hists: LatencyHistograms,
    sink: S,
    seq: u64,
    pub(crate) stage: T,
}

/// One access in flight: everything its booking and trace event need.
struct InFlight<R> {
    va: VirtAddr,
    kind: AccessKind,
    mode: PrivMode,
    tlb: TlbOutcome,
    pwc_level: Option<u8>,
    pmptw: Option<PmptwOutcome>,
    cycles: u64,
    refs: R,
    /// Step records for the trace event. With a disabled sink nothing is
    /// ever pushed (and `Vec::new` does not allocate), so this is free.
    steps: Vec<WalkStep>,
}

/// What an isolation check reads and charges, borrowed apart from the
/// translation stage so that a walk's visitor can check each reference
/// while the stage walks.
struct Checker<'p> {
    plan: &'p mut EntryPlan,
    regs: &'p HpmpRegFile,
    pmptw_cache: &'p mut PmptwCache,
    mem_sys: &'p mut MemSystem,
    phys: &'p PhysMem,
}

/// A completed access, before each machine shapes its outcome type.
pub(crate) struct Done<R> {
    pub(crate) cycles: u64,
    pub(crate) refs: R,
    pub(crate) tlb_hit: Option<TlbHit>,
    pub(crate) paddr: PhysAddr,
}

impl<T: TranslationStage, S: TraceSink> AccessPipeline<T, S> {
    /// Assembles a pipeline around `stage` over already-built physical
    /// memory and register file.
    pub(crate) fn assemble(
        config: &MachineConfig,
        phys: PhysMem,
        regs: HpmpRegFile,
        stage: T,
        sink: S,
    ) -> AccessPipeline<T, S> {
        AccessPipeline {
            core: config.core,
            mem_sys: MemSystem::new(config.mem),
            phys,
            regs,
            check_plan: EntryPlan::default(),
            pmptw_cache: PmptwCache::new(config.pmptw_cache),
            tlb_inlining: config.tlb_inlining,
            stats: AccessStats::default(),
            hists: LatencyHistograms::new(),
            sink,
            seq: 0,
            stage,
        }
    }

    /// The core timing model.
    pub fn core(&self) -> &CoreModel {
        &self.core
    }

    /// Simulated physical memory (for building page tables and PMP tables).
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Mutable access to simulated physical memory.
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// The HPMP register file (M-mode software's view).
    pub fn regs(&self) -> &HpmpRegFile {
        &self.regs
    }

    /// Mutable access to the HPMP register file. The caller (the secure
    /// monitor) must flush the TLBs afterwards, as the paper requires —
    /// [`Machine::sfence_vma_all`](crate::Machine::sfence_vma_all) or
    /// [`AccessPipeline::flush_microarch`] —
    /// because permissions are inlined in TLB entries.
    pub fn regs_mut(&mut self) -> &mut HpmpRegFile {
        &mut self.regs
    }

    /// The PMPTW-Cache (for stats inspection).
    pub fn pmptw_cache(&self) -> &PmptwCache {
        &self.pmptw_cache
    }

    /// The trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the trace sink (e.g. to drain a ring buffer).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the machine, returning the sink (e.g. to finish a JSONL
    /// file and inspect the writer).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Flushes the trace sink (no-op for non-buffering sinks).
    pub fn flush_sink(&mut self) {
        self.sink.flush();
    }

    /// Memory-system counters.
    pub fn mem_stats(&self) -> hpmp_memsim::MemSystemStats {
        self.mem_sys.stats()
    }

    /// Per-access-class latency histograms (always recorded; reset by
    /// [`AccessPipeline::reset_stats`]).
    pub fn histograms(&self) -> &LatencyHistograms {
        &self.hists
    }

    /// Charges cycles that were spent outside the walk path — IPI traps,
    /// remote reprogramming, fence stalls — into this machine's cycle
    /// counter so per-hart totals include synchronization overhead.
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Adds pure-compute cycles to the running total (used by workload
    /// models for their non-memory instructions).
    pub fn run_compute(&mut self, instructions: u64) -> u64 {
        let cycles = self.core.alu_cycles(instructions);
        self.charge_cycles(cycles);
        cycles
    }

    /// Empties all caches, TLBs and DRAM row buffers — the cold TC1 state.
    pub fn flush_microarch(&mut self) {
        self.mem_sys.flush_all();
        self.stage.flush_all();
        self.pmptw_cache.flush_all();
    }

    /// One snapshot unifying every counter the machine keeps: its totals,
    /// the stage's TLBs and walk caches, the PMPTW-Cache, the memory
    /// hierarchy, and the per-class latency summaries, under dotted
    /// `machine.*` or `virt.*` names.
    pub fn metrics_snapshot(&mut self) -> Snapshot {
        let prefix = T::PREFIX;
        let mut reg = MetricsRegistry::new();
        self.stats.export(&mut reg, prefix);
        self.stats.refs.export(&mut reg, &format!("{prefix}.refs"));
        // Lossy sinks (ring eviction, I/O failure) surface here instead of
        // dropping events silently.
        self.stage.export(&mut reg, self.sink.dropped());
        let (pmptw_cache, mem) = (self.pmptw_cache.stats(), self.mem_sys.stats());
        pmptw_cache.export(&mut reg, &format!("{prefix}.pmptw_cache"));
        mem.export(&mut reg, &format!("{prefix}.mem"));
        self.hists.export(&mut reg, &format!("{prefix}.latency"));
        reg.into_snapshot()
    }

    /// Checks that every reference the machine claims to have issued is
    /// visible in the memory system: completed-access references plus
    /// aborted-access and DMA references equal `mem.accesses`. Holds
    /// whenever all traffic goes through the machine's access and DMA
    /// entry points since the last [`AccessPipeline::reset_stats`].
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when the counters disagree.
    pub fn verify_accounting(&self) -> Result<(), String> {
        let refs = self.stats.refs.sum();
        let side = self.stage.side_refs();
        let claimed = self.stats.issued_refs() + side;
        let observed = self.mem_sys.stats().accesses;
        if claimed == observed {
            Ok(())
        } else {
            Err(format!(
                "{} claims {claimed} references (refs {refs} + aborted {} + dma {side}) but \
                 the memory system observed {observed}",
                T::PREFIX,
                self.stats.aborted_refs
            ))
        }
    }

    /// Clears all counters and histograms (cache contents are untouched;
    /// the event sequence number keeps running).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
        self.stage.reset_stats();
        self.mem_sys.reset_stats();
        self.pmptw_cache.reset_stats();
        self.hists.reset();
    }

    /// The pipeline cycles every access pays before its first reference.
    fn pipeline_cycles(&self) -> u64 {
        self.core.pipeline_overhead + T::TLB_TAX
    }

    /// Performs one access at `va` in `space`: the whole sequence of
    /// Figures 2, 4 and 8.
    ///
    /// * TLB hit (with permission inlining): one data reference, no
    ///   permission walk — identical latency for every isolation scheme
    ///   (TC4). Without inlining (the Implication-2 ablation) the data
    ///   page is re-checked on every hit.
    /// * TLB miss: for each page-table reference of the walk, a permission
    ///   check (0 refs in segment mode, up to `depth` pmpte reads in table
    ///   mode), then the PTE read; finally the permission check for the
    ///   data page, the TLB refill and the data reference itself.
    ///
    /// Inlined into its two callers, `Machine::access` and
    /// `VirtMachine::access`, so each builds its outcome straight from the
    /// booked values instead of repacking a returned [`Done`].
    #[inline(always)]
    pub(crate) fn run(
        &mut self,
        space: &T::Space,
        va: VirtAddr,
        kind: AccessKind,
        mode: PrivMode,
    ) -> Result<Done<T::Refs>, Fault> {
        let mut a = InFlight {
            va,
            kind,
            mode,
            tlb: TlbOutcome::Miss,
            pwc_level: None,
            pmptw: None,
            cycles: self.pipeline_cycles(),
            refs: T::Refs::default(),
            steps: Vec::new(),
        };
        let asid = self.stage.asid(space);
        let mut checker = Checker {
            plan: &mut self.check_plan,
            regs: &self.regs,
            pmptw_cache: &mut self.pmptw_cache,
            mem_sys: &mut self.mem_sys,
            phys: &self.phys,
        };

        // 1. TLB lookup. The hit already knows the frame.
        if let Some((entry, hit)) = self.stage.tlb(kind).lookup(asid, va) {
            a.tlb = if hit == TlbHit::L2 {
                TlbOutcome::L2Hit
            } else {
                TlbOutcome::L1Hit
            };
            let paddr = apply_translation(&entry, va);
            if !entry.page_perms.allows(kind) {
                return Err(self.abort(a, Fault::PtePermission(va), Some(paddr)));
            }
            if !self.tlb_inlining {
                if let Err(fault) = Self::guard(&mut checker, &mut a, paddr, kind, StepKind::Data) {
                    return Err(self.abort(a, fault, Some(paddr)));
                }
            } else if !entry.isolation_perms.allows(kind) {
                return Err(self.abort(a, Fault::IsolationOnData(paddr), Some(paddr)));
            }
            if hit == TlbHit::L2 && T::CHARGES_L2_HIT {
                let l2 = self.stage.tlb(kind).config().l2_hit_latency;
                Self::step(&mut a, StepKind::TlbL2, None, PhysAddr::new(0), l2);
            }
            return Ok(self.complete(a, paddr, Some(hit)));
        }

        // 2. TLB miss: the walk. Each page-table reference is validated by
        //    the isolation layer, then charged, as the walk reads it. The
        //    walk runs to its end whatever the checks say: after the first
        //    denial its remaining references (and their walk-cache and
        //    G-TLB refills) go uncharged, and the access aborts once the
        //    walk returns.
        self.stats.walks += 1;
        let mut denied = None;
        let (translation, pwc_level) =
            self.stage.walk(&self.phys, space, va, |addr, step, level| {
                if denied.is_some() {
                    return;
                }
                match Self::guard(&mut checker, &mut a, addr, AccessKind::Read, step) {
                    Ok(_) => {
                        let cycles = checker.mem_sys.access_ptw(addr).cycles;
                        Self::step(&mut a, step, Some(level as u8), addr, cycles);
                        *a.refs.reads(step) += 1;
                    }
                    Err(fault) => denied = Some(fault),
                }
            });
        a.pwc_level = pwc_level.map(|l| l as u8);
        if let Some(fault) = denied {
            return Err(self.abort(a, fault, None));
        }
        let Some(t) = translation else {
            return Err(self.abort(a, Fault::PageFault(va), None));
        };
        if !t.perms.allows(kind) {
            return Err(self.abort(a, Fault::PtePermission(va), None));
        }

        // 3. Isolation check for the data page, then the TLB refill with
        //    the inlined isolation permission and the data reference.
        let data_check = Self::guard(&mut checker, &mut a, t.paddr, kind, StepKind::Data);
        let isolation_perms = match data_check {
            Ok(perms) => perms,
            Err(fault) => return Err(self.abort(a, fault, Some(t.paddr))),
        };
        self.stage.tlb(kind).fill(TlbEntry {
            asid,
            vpn: va.page_number(),
            frame: t.paddr.page_base(),
            page_perms: t.perms,
            isolation_perms,
            user: t.user,
            epoch: 0,
        });
        Ok(self.complete(a, t.paddr, None))
    }

    /// One isolation check of `addr` for a reference of kind `guarded`,
    /// through the cached plan (rebuilt iff the register file mutated
    /// since it was decoded; CSR writes are orders of magnitude rarer than
    /// checks). Each pmpte the check's table walk reads is charged to the
    /// memory hierarchy from the walk's visitor as it is read. Returns the
    /// granted permission, or the fault: a malformed pmpte fails closed as
    /// [`Fault::CorruptPmpte`].
    #[inline]
    fn guard(
        checker: &mut Checker<'_>,
        a: &mut InFlight<T::Refs>,
        addr: PhysAddr,
        kind: AccessKind,
        guarded: StepKind,
    ) -> Result<Perms, Fault> {
        let Checker {
            plan,
            regs,
            pmptw_cache,
            mem_sys,
            phys,
        } = checker;
        if plan.generation() != regs.generation() {
            plan.rebuild(regs);
        }
        let check = plan.check_with(*phys, pmptw_cache, addr, kind, a.mode, |r| {
            // Walk references are a dependent pointer chase: the
            // out-of-order window cannot overlap them, so they cost
            // their raw latency.
            let cycles = mem_sys.access_ptw(r.addr).cycles;
            let step = if r.is_root {
                StepKind::PmptRoot
            } else {
                StepKind::PmptLeaf
            };
            Self::step(a, step, None, r.addr, cycles);
            *a.refs.pmptes(guarded) += 1;
        });
        a.pmptw = check.pmptw.or(a.pmptw);
        if check.allowed {
            Ok(check.perms)
        } else if check.malformed {
            Err(Fault::CorruptPmpte(addr))
        } else if guarded == StepKind::Data {
            Err(Fault::IsolationOnData(addr))
        } else {
            Err(Fault::IsolationOnPtPage(addr))
        }
    }

    /// Charges one reference's cycles and records its trace step.
    #[inline]
    fn step(
        a: &mut InFlight<T::Refs>,
        kind: StepKind,
        level: Option<u8>,
        addr: PhysAddr,
        cycles: u64,
    ) {
        a.cycles += cycles;
        if S::ENABLED {
            a.steps.push(WalkStep {
                kind,
                level,
                addr: addr.raw(),
                cycles,
            });
        }
    }

    /// Issues the data reference (with the store-miss penalty) and books
    /// the successful access. Inlined into [`AccessPipeline::run`] so the
    /// access in flight is booked where it lives rather than copied into a
    /// callee's frame.
    #[inline(always)]
    fn complete(
        &mut self,
        mut a: InFlight<T::Refs>,
        paddr: PhysAddr,
        tlb_hit: Option<TlbHit>,
    ) -> Done<T::Refs> {
        let outcome = self.mem_sys.access(paddr);
        let hit = outcome.level != HitLevel::Dram;
        let mut cycles = self.core.observed_ref_cycles(outcome.cycles, hit);
        if a.kind == AccessKind::Write && outcome.level != HitLevel::L1 {
            cycles += self.core.store_miss_penalty;
        }
        Self::step(&mut a, StepKind::Data, None, paddr, cycles);
        *a.refs.reads(StepKind::Data) += 1;
        self.stats.accesses += 1;
        self.stats.cycles += a.cycles;
        self.stats.refs += a.refs;
        self.hists.record(
            AccessClass::classify(op_of(a.kind), tlb_hit.is_some()),
            a.cycles,
        );
        let done = Done {
            cycles: a.cycles,
            refs: a.refs,
            tlb_hit,
            paddr,
        };
        self.emit(a, Some(paddr), None);
        done
    }

    /// Books a faulting access: counts the fault, rolls its partial
    /// references into `aborted_refs`, emits the trace event, and hands the
    /// fault back for the caller to return.
    fn abort(&mut self, a: InFlight<T::Refs>, fault: Fault, paddr: Option<PhysAddr>) -> Fault {
        self.stats.faults += 1;
        self.stats.aborted_refs += a.refs.sum();
        self.emit(a, paddr, Some(fault.cause()));
        fault
    }

    /// Emits one trace event. Compiles to nothing when the sink is
    /// disabled.
    fn emit(&mut self, a: InFlight<T::Refs>, paddr: Option<PhysAddr>, fault: Option<FaultCause>) {
        if !S::ENABLED {
            return;
        }
        let (hart, world) = self.stage.stamps();
        let event = WalkEvent {
            seq: self.seq,
            hart,
            world,
            op: op_of(a.kind),
            privilege: priv_of(a.mode),
            va: a.va.raw(),
            paddr: paddr.map(PhysAddr::raw),
            tlb: a.tlb,
            pwc_level: a.pwc_level,
            pmptw: a.pmptw,
            pipeline_cycles: self.pipeline_cycles(),
            cycles: a.cycles,
            fault,
            steps: a.steps,
        };
        self.seq += 1;
        self.sink.record(&event);
    }
}
