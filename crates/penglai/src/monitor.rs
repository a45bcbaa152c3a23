//! The secure monitor (Penglai-HPMP's software TCB, §5).
//!
//! The monitor runs in M-mode, owns the HPMP register file, and isolates
//! domains: a **host** domain (the default OS) and any number of **enclave**
//! domains. Three flavours reproduce the paper's comparison systems:
//!
//! * **Penglai-PMP** — segment-per-region. The host's permitted memory is
//!   RAM minus every enclave region, which fragments as enclaves are carved
//!   out; once the fragments (plus the monitor's own entry) exceed 16 PMP
//!   entries, creation fails — the paper's "<16 domains" scalability wall.
//! * **Penglai-PMPT** — one permission table per domain; switching domains
//!   re-points one HPMP table entry at the target's table root.
//! * **Penglai-HPMP** — like PMPT, plus fast GMSs backed by segment entries
//!   (the cache-like management of §5): lower-numbered entries hold the fast
//!   GMSs, the table entry backs everything.
//!
//! Every operation's cycle cost is derived from the CSR writes, table-entry
//! writes and fence operations it performs — the quantities Figure 14
//! measures.

use hpmp_core::{
    CopyCost, DeviceId, FillPolicy, HpmpError, HpmpRegFile, IoPmp, IoPmpEntry, IoPmpMode,
    PmpRegion, PmpTable, PmptwCache,
};
use hpmp_machine::Machine;
use hpmp_memsim::{AccessKind, FrameAllocator, Perms, PhysAddr, PhysMem, PrivMode, PAGE_SIZE};
use hpmp_trace::{Counters, MetricsRegistry, Snapshot, TraceSink, World};

use crate::degrade::{DegradationPolicy, DegradeStage, DegradeState};
use crate::gms::{Gms, GmsLabel};
use crate::pool::RegionPool;

/// Identifier of a domain. The host is always [`DomainId::HOST`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The host (default) domain.
    pub const HOST: DomainId = DomainId(0);
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == DomainId::HOST {
            f.write_str("host")
        } else {
            write!(f, "domain-{}", self.0)
        }
    }
}

/// Which comparison system the monitor implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TeeFlavor {
    /// Penglai with PMP (segment-per-region).
    PenglaiPmp,
    /// Penglai with PMP Table for everything.
    PenglaiPmpt,
    /// Penglai-HPMP (hybrid).
    PenglaiHpmp,
}

impl std::fmt::Display for TeeFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TeeFlavor::PenglaiPmp => "Penglai-PMP",
            TeeFlavor::PenglaiPmpt => "Penglai-PMPT",
            TeeFlavor::PenglaiHpmp => "Penglai-HPMP",
        })
    }
}

/// Errors surfaced by monitor calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorError {
    /// PMP flavour ran out of segment entries (the scalability wall).
    OutOfPmpEntries,
    /// No physical memory left for regions or tables.
    OutOfMemory,
    /// Unknown domain.
    NoSuchDomain(DomainId),
    /// The region does not belong to the domain.
    NotOwned,
    /// Underlying HPMP programming failed.
    Hpmp(hpmp_core::HpmpError),
    /// Underlying table programming failed.
    Table(hpmp_core::TableError),
    /// Boot parameters are unusable (RAM not NAPOT or too small).
    BadBootRam(&'static str),
    /// The monitor's authoritative state for a domain no longer matches
    /// the hardware-visible state (corrupt permission table, missing table
    /// root, …). The domain is quarantined until
    /// [`SecureMonitor::rebuild_domain_table`] reconstructs it.
    IntegrityLost(DomainId),
    /// The domain is already scheduled on another hart. An enclave's
    /// register image exists on at most one hart at a time; running it
    /// twice would let two harts race the same private memory.
    AlreadyScheduled(DomainId),
    /// Admission control (degradation stage 3): the monitor is out of
    /// region memory even after compaction and the table-mode fallback.
    /// Unlike [`MonitorError::OutOfMemory`] this is *backpressure*, not a
    /// dead end — the caller should retry after roughly `retry_after_ops`
    /// further operations of churn (frees and destroys re-open capacity
    /// and step the monitor back down the degradation ladder).
    ResourceExhausted {
        /// Advertised backoff, in monitor operations.
        retry_after_ops: u64,
    },
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::OutOfPmpEntries => f.write_str("no available PMP entries"),
            MonitorError::OutOfMemory => f.write_str("out of protected memory"),
            MonitorError::NoSuchDomain(id) => write!(f, "no such domain {id}"),
            MonitorError::NotOwned => f.write_str("region not owned by domain"),
            MonitorError::Hpmp(e) => write!(f, "HPMP programming failed: {e}"),
            MonitorError::Table(e) => write!(f, "PMP-table programming failed: {e}"),
            MonitorError::BadBootRam(why) => write!(f, "unusable RAM region: {why}"),
            MonitorError::IntegrityLost(id) => {
                write!(f, "integrity lost for {id}; domain quarantined")
            }
            MonitorError::AlreadyScheduled(id) => {
                write!(f, "{id} is already scheduled on another hart")
            }
            MonitorError::ResourceExhausted { retry_after_ops } => {
                write!(
                    f,
                    "region memory exhausted (admission control); retry after \
                     ~{retry_after_ops} ops"
                )
            }
        }
    }
}

impl std::error::Error for MonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MonitorError::Hpmp(e) => Some(e),
            MonitorError::Table(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hpmp_core::HpmpError> for MonitorError {
    fn from(e: hpmp_core::HpmpError) -> MonitorError {
        MonitorError::Hpmp(e)
    }
}

impl From<hpmp_core::TableError> for MonitorError {
    fn from(e: hpmp_core::TableError) -> MonitorError {
        MonitorError::Table(e)
    }
}

/// Cycle-cost constants for monitor operations (M-mode software costs,
/// calibrated to the magnitudes of Figure 14).
pub mod cost {
    /// Trap into and out of M-mode (ecall + context save/restore).
    pub const TRAP_ROUND_TRIP: u64 = 260;
    /// One CSR write to an HPMP register.
    pub const CSR_WRITE: u64 = 4;
    /// One pmpte read-modify-write in DRAM-resident tables.
    pub const TABLE_ENTRY_WRITE: u64 = 14;
    /// `sfence.vma` plus the TLB-refill ramp it causes.
    pub const FENCE: u64 = 120;
    /// Monitor bookkeeping per operation (list walks, checks).
    pub const BOOKKEEPING: u64 = 90;
}

#[derive(Clone, Debug)]
struct Domain {
    id: DomainId,
    gmss: Vec<Gms>,
    /// Per-domain permission table (table flavours).
    table: Option<PmpTable>,
}

/// Counters and gauges for monitor activity, exported as `monitor.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Domain switches performed.
    pub switches: u64,
    /// Total CSR writes.
    pub csr_writes: u64,
    /// Total pmpte writes.
    pub table_writes: u64,
    /// Total modelled cycles spent inside the monitor.
    pub cycles: u64,
    /// Current degradation stage (a gauge: set, not bumped).
    pub degrade_stage: u64,
    /// First entries into stages 1..=3, one counter each.
    pub degrade_enter: [u64; 3],
    /// Hysteresis promotions back toward normal.
    pub degrade_repromotions: u64,
    /// Allocations forcibly degraded to table-only `Slow` regions.
    pub degrade_slow_allocs: u64,
    /// Allocations refused with `ResourceExhausted` backpressure.
    pub degrade_rejected: u64,
    /// Compaction passes run.
    pub compact_passes: u64,
    /// GMS regions compaction relocated.
    pub compact_moved_regions: u64,
    /// Pages compaction copied.
    pub compact_moved_pages: u64,
    /// Modelled cycles compaction cost.
    pub compact_cycles: u64,
}

impl Counters for MonitorStats {
    const NAMES: &'static [&'static str] = &[
        "switches",
        "csr_writes",
        "table_writes",
        "cycles",
        "degrade.stage",
        "degrade.enter_stage1",
        "degrade.enter_stage2",
        "degrade.enter_stage3",
        "degrade.repromotions",
        "degrade.slow_allocs",
        "degrade.rejected",
        "compact.passes",
        "compact.moved_regions",
        "compact.moved_pages",
        "compact.cycles",
    ];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [
            self.switches,
            self.csr_writes,
            self.table_writes,
            self.cycles,
            self.degrade_stage,
            self.degrade_enter[0],
            self.degrade_enter[1],
            self.degrade_enter[2],
            self.degrade_repromotions,
            self.degrade_slow_allocs,
            self.degrade_rejected,
            self.compact_passes,
            self.compact_moved_regions,
            self.compact_moved_pages,
            self.compact_cycles,
        ]
    }
}

/// What one [`SecureMonitor::compact`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// GMS regions relocated downward.
    pub moved_regions: u64,
    /// 4 KiB pages copied.
    pub moved_pages: u64,
    /// Modelled cycles the pass cost (copies, table rewrites, fences).
    pub cycles: u64,
    /// Movable regions that could still slide down when the pass stopped —
    /// nonzero only when a `max_moves` budget cut the pass short.
    pub remaining: u64,
}

/// Where inside an allocation's cycle interval its compaction pass sat, so
/// the SMP layer can emit a `compact` child span under the op span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactNote {
    /// Cycles into the op when compaction began.
    pub offset: u64,
    /// The pass's own cycles.
    pub cycles: u64,
    /// Regions it moved.
    pub moved_regions: u64,
}

/// The secure monitor.
#[derive(Clone, Debug)]
pub struct SecureMonitor {
    flavor: TeeFlavor,
    ram: PmpRegion,
    monitor_region: PmpRegion,
    /// Free-list allocator over the region arena. Freed top-level GMSs
    /// are returned and coalesced, so churn no longer leaks the arena.
    pool: RegionPool,
    /// The host's boot-time whole-arena GMS. It overlaps everything the
    /// pool ever hands out (enclave carve-outs punch holes in it through
    /// the host table / deny entries, not through the GMS list), so it is
    /// excluded from every reclamation-overlap check.
    host_backdrop: PmpRegion,
    /// The degradation state machine (DESIGN.md §12).
    degrade: DegradeState,
    /// Domains whose memory must not be relocated by compaction — their
    /// owners hold live guest-physical mappings into it (page tables the
    /// monitor does not rewrite).
    pinned: Vec<DomainId>,
    /// Span breadcrumb for the most recent compaction pass; drained by the
    /// SMP layer after every op.
    compaction_note: Option<CompactNote>,
    /// Frames for per-domain permission tables.
    table_frames: FrameAllocator,
    domains: Vec<Domain>,
    current: DomainId,
    next_id: u32,
    iopmp: IoPmp,
    devices: Vec<(DeviceId, DomainId)>,
    stats: MonitorStats,
    /// Monitor-private copy of the register values it last programmed on
    /// each hart — `(addr, cfg)` per entry, indexed by the machine's hart
    /// id. [`SecureMonitor::scrub`] compares a hart's live file against
    /// that hart's image and force-restores any divergence, so register
    /// corruption (bit flips, interposed CSR writes) is bounded by one
    /// scrub period instead of persisting silently.
    shadow_regs: Vec<Vec<(u64, hpmp_core::PmpConfig)>>,
    /// Domains whose *holdings* changed during the current op (grant,
    /// revoke, teardown, relabel, rebuild, compaction move) — the
    /// cross-hart shootdown obligations. Single-hart callers never look at
    /// it (the machine the op ran on was fenced inline); the SMP layer
    /// drains it after every op via [`SecureMonitor::take_shootdowns`] and
    /// converts it into one coalesced IPI round. A compaction pass can
    /// touch several domains in one allocation, which is why this is a
    /// list rather than the single slot it used to be.
    pending_shootdowns: Vec<DomainId>,
}

/// What one [`SecureMonitor::scrub`] pass found and repaired.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Register-file entries whose live value diverged from the shadow and
    /// were force-restored.
    pub repaired_registers: u64,
    /// Domains whose permission table failed its integrity sampling; each
    /// is quarantined until [`SecureMonitor::rebuild_domain_table`] runs.
    pub corrupt_domains: Vec<DomainId>,
}

impl ScrubReport {
    /// True when the pass found nothing to repair.
    pub fn clean(&self) -> bool {
        self.repaired_registers == 0 && self.corrupt_domains.is_empty()
    }
}

/// A broken fail-closed invariant, as [`SecureMonitor::fail_closed_violation`]
/// reports it. `Display` renders a clause ("hart 1's fast path granting …").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The PMP flavour entered the table-only stage it does not have.
    TableOnlyOnPmp,
    /// Two distinct enclaves hold overlapping regions.
    Overlap((DomainId, PmpRegion), (DomainId, PmpRegion)),
    /// The hart's live register image holds an encoding `validate` rejects.
    InvalidImage(u16, HpmpError),
    /// The hart's fast path grants the address, which the oracle denies its
    /// scheduled domain: a silent isolation failure.
    StaleGrant(u16, PhysAddr),
    /// The hart's scheduled enclave cannot reach its first region, based at
    /// the address.
    Unreachable(u16, PhysAddr),
    /// The enclave is scheduled on both harts, lower first.
    DoubleScheduled(DomainId, u16, u16),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Violation::TableOnlyOnPmp => f.write_str("the PMP flavour in the table-only stage"),
            Violation::Overlap((da, ra), (db, rb)) => {
                write!(f, "{da}'s {ra} overlapping {db}'s {rb}")
            }
            Violation::InvalidImage(hart, e) => write!(f, "hart {hart}'s image invalid: {e}"),
            Violation::StaleGrant(hart, addr) => write!(
                f,
                "hart {hart}'s fast path granting {:#x} where the oracle denies",
                addr.raw()
            ),
            Violation::Unreachable(hart, addr) => {
                write!(f, "hart {hart}'s enclave unable to reach {:#x}", addr.raw())
            }
            Violation::DoubleScheduled(d, a, b) => write!(f, "{d} scheduled on harts {a} and {b}"),
        }
    }
}

/// The fast path's answer for an S-mode read of `addr` under `regs`, with
/// the PMPTW-Cache disabled so only the architectural state decides.
fn fast_grants(mem: &PhysMem, regs: &HpmpRegFile, addr: PhysAddr) -> bool {
    let mut cache = PmptwCache::disabled();
    let mode = PrivMode::Supervisor;
    regs.check(mem, &mut cache, addr, AccessKind::Read, mode)
        .allowed
}

impl SecureMonitor {
    /// Boots the monitor on `machine`, claiming the bottom of RAM for its
    /// own memory and (for table flavours) the per-domain tables.
    ///
    /// Layout: `[monitor 4 MiB][tables 60 MiB][domain regions ...]`.
    ///
    /// # Errors
    ///
    /// Fails if `ram` is not NAPOT-encodable or smaller than 128 MiB, or if
    /// the initial HPMP/table programming cannot be expressed.
    pub fn boot<S: TraceSink>(
        machine: &mut Machine<S>,
        flavor: TeeFlavor,
        ram: PmpRegion,
    ) -> Result<SecureMonitor, MonitorError> {
        if !ram.is_napot() {
            return Err(MonitorError::BadBootRam("RAM must be NAPOT-encodable"));
        }
        if ram.size < 128 << 20 {
            return Err(MonitorError::BadBootRam("need at least 128 MiB of RAM"));
        }
        let monitor_region = PmpRegion::new(ram.base, 4 << 20);
        let tables_base = PhysAddr::new(ram.base.raw() + (4 << 20));
        let tables_size = 60u64 << 20;
        let region_base = PhysAddr::new(tables_base.raw() + tables_size);

        // Entry 0: the monitor's own memory — matched first, no S/U perms.
        machine
            .regs_mut()
            .configure_segment(0, monitor_region, Perms::NONE)?;

        let host_region = PmpRegion::new(region_base, ram.end().raw() - region_base.raw());
        let mut monitor = SecureMonitor {
            flavor,
            ram,
            monitor_region,
            // Offset by one page so no allocated region shares a base with
            // the host's whole-memory GMS.
            pool: RegionPool::new(PhysAddr::new(region_base.raw() + PAGE_SIZE), ram.end()),
            host_backdrop: host_region,
            degrade: DegradeState::new(DegradationPolicy::default()),
            pinned: Vec::new(),
            compaction_note: None,
            table_frames: FrameAllocator::new(tables_base, tables_size),
            domains: Vec::new(),
            current: DomainId::HOST,
            next_id: 1,
            iopmp: IoPmp::new(),
            devices: Vec::new(),
            stats: MonitorStats::default(),
            shadow_regs: Vec::new(),
            pending_shootdowns: Vec::new(),
        };

        // The host domain starts owning all remaining memory as one slow GMS.
        let mut host = Domain {
            id: DomainId::HOST,
            gmss: Vec::new(),
            table: None,
        };
        if flavor != TeeFlavor::PenglaiPmp {
            let table = PmpTable::new(monitor.ram, machine.phys_mut(), &mut monitor.table_frames);
            host.table = Some(table.map_err(|_| MonitorError::OutOfMemory)?);
        }
        host.gmss
            .push(Gms::new(host_region, Perms::RWX, GmsLabel::Slow));
        monitor.domains.push(host);
        if flavor != TeeFlavor::PenglaiPmp {
            let policy = FillPolicy::HugeWhenAligned;
            monitor.grant_in_table(machine, DomainId::HOST, host_region, Perms::RWX, policy)?;
        }

        monitor.program_current(machine)?;
        Ok(monitor)
    }

    /// The flavour this monitor implements.
    pub fn flavor(&self) -> TeeFlavor {
        self.flavor
    }

    /// The monitor's own protected memory (entry 0's segment).
    pub fn monitor_region(&self) -> PmpRegion {
        self.monitor_region
    }

    /// The currently running domain.
    pub fn current(&self) -> DomainId {
        self.current
    }

    /// Number of domains (including the host).
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Ids of every live domain, host first, in creation order. The model
    /// checker enumerates its op menu from this list, so the order must be
    /// deterministic (and it is: `domains` is append-ordered).
    pub fn domain_ids(&self) -> Vec<DomainId> {
        self.domains.iter().map(|d| d.id).collect()
    }

    /// Activity counters and gauges.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// A point-in-time view of the monitor's activity counters under the
    /// `monitor.*` prefix, for merging into experiment-level metrics.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut reg = MetricsRegistry::new();
        self.stats.export(&mut reg, "monitor");
        reg.into_snapshot()
    }

    /// GMSs owned by `domain`.
    ///
    /// # Errors
    ///
    /// Fails for unknown domains.
    pub fn regions_of(&self, domain: DomainId) -> Result<&[Gms], MonitorError> {
        self.domain(domain).map(|d| d.gmss.as_slice())
    }

    /// Feeds the monitor's *logical* state into a fingerprint hasher, for
    /// the bounded model checker's convergence pruning.
    ///
    /// Covered: everything the monitor's op transition functions read —
    /// flavour, layout, the pool free list, degradation stage + hysteresis
    /// streak + policy, pins, the table-frame allocator, every domain's id
    /// and GMS list and table shape, scheduling state, id allocation,
    /// device assignments, every hart's register shadow, and undrained
    /// shootdown obligations. Excluded: cycle counters and metrics (pure
    /// accounting — two states differing only there behave identically
    /// forever), and table *contents* in simulated DRAM, which are a
    /// deterministic function of the covered state (tables are only ever
    /// written by monitor ops, and the frame allocator's hash pins frame
    /// assignment).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_u8(match self.flavor {
            TeeFlavor::PenglaiPmp => 0,
            TeeFlavor::PenglaiPmpt => 1,
            TeeFlavor::PenglaiHpmp => 2,
        });
        for region in [self.ram, self.monitor_region, self.host_backdrop] {
            h.write_u64(region.base.raw());
            h.write_u64(region.size);
        }
        h.write_usize(self.pool.free_ranges().len());
        for &(base, size) in self.pool.free_ranges() {
            h.write_u64(base);
            h.write_u64(size);
        }
        h.write_u8(self.degrade.stage().level());
        h.write_u32(self.degrade.healthy_streak());
        h.write_u32(self.degrade.policy.promote_after);
        h.write_u64(self.degrade.policy.healthy_free);
        h.write_u64(self.degrade.policy.retry_after_ops);
        h.write_usize(self.pinned.len());
        for d in &self.pinned {
            h.write_u32(d.0);
        }
        self.table_frames.hash_into(h);
        h.write_usize(self.domains.len());
        for d in &self.domains {
            h.write_u32(d.id.0);
            h.write_usize(d.gmss.len());
            for gms in &d.gmss {
                h.write_u64(gms.region.base.raw());
                h.write_u64(gms.region.size);
                h.write_u8(gms.perms.bits());
                h.write_u8(match gms.label {
                    GmsLabel::Fast => 0,
                    GmsLabel::Slow => 1,
                });
            }
            match &d.table {
                None => h.write_u8(0),
                Some(t) => {
                    h.write_u8(1);
                    h.write_u64(t.root().raw());
                    h.write_u64(t.region().base.raw());
                    h.write_u64(t.region().size);
                    h.write_usize(t.table_pages().len());
                    for page in t.table_pages() {
                        h.write_u64(page.raw());
                    }
                }
            }
        }
        h.write_u32(self.current.0);
        h.write_u32(self.next_id);
        h.write_usize(self.devices.len());
        for &(dev, owner) in &self.devices {
            h.write_u8(dev.0);
            h.write_u32(owner.0);
        }
        h.write_usize(self.shadow_regs.len());
        for image in &self.shadow_regs {
            h.write_usize(image.len());
            for &(addr, cfg) in image {
                h.write_u64(addr);
                h.write_u8(cfg.to_bits());
            }
        }
        h.write_usize(self.pending_shootdowns.len());
        for d in &self.pending_shootdowns {
            h.write_u32(d.0);
        }
    }

    /// Creates an enclave domain with one initial private region of
    /// `initial_size` bytes (rounded up to a NAPOT size). Returns the id and
    /// the modelled cycle cost.
    ///
    /// # Errors
    ///
    /// Fails when memory or (for the PMP flavour) segment entries run out.
    pub fn create_domain<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        initial_size: u64,
        label: GmsLabel,
    ) -> Result<(DomainId, u64), MonitorError> {
        let id = DomainId(self.next_id);
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;

        let mut domain = Domain {
            id,
            gmss: Vec::new(),
            table: None,
        };
        if self.flavor != TeeFlavor::PenglaiPmp {
            let table = PmpTable::new(self.ram, machine.phys_mut(), &mut self.table_frames)
                .map_err(|_| MonitorError::OutOfMemory)?;
            domain.table = Some(table);
        }
        self.domains.push(domain);
        self.next_id += 1;

        match self.alloc_region(machine, id, initial_size, label) {
            Ok((_, alloc_cycles)) => cycles += alloc_cycles,
            Err(e) => {
                // Roll back the half-created domain — without this, every
                // failed create leaked an empty domain *and* its table
                // frames, so exhaustion could never recover.
                self.rollback_created_domain(machine, id);
                return Err(e);
            }
        }

        // For the PMP flavour, verify the host can still be expressed: when
        // the host runs, every enclave region needs a higher-priority deny
        // entry (Keystone-style), plus the monitor entry and at least one
        // host allow entry.
        if self.flavor == TeeFlavor::PenglaiPmp
            && self.enclave_region_count() + 2 > machine.regs().len()
        {
            self.rollback_created_domain(machine, id);
            return Err(MonitorError::OutOfPmpEntries);
        }

        self.stats.cycles += cycles;
        Ok((id, cycles))
    }

    /// Unwinds a domain pushed by [`SecureMonitor::create_domain`] whose
    /// creation then failed: removes it, reclaims any region it was
    /// granted, and recycles its table frames (scrubbed, so a later table
    /// build cannot decode stale pmptes).
    fn rollback_created_domain<S: TraceSink>(&mut self, machine: &mut Machine<S>, id: DomainId) {
        let Some(idx) = self.domains.iter().position(|d| d.id == id) else {
            return;
        };
        let domain = self.domains.remove(idx);
        self.next_id -= 1;
        for gms in &domain.gmss {
            // A just-created domain has no sub-GMSs; every region is
            // top-level and pool-owned.
            let _ = self.grant_in_host_table(machine, gms.region, Perms::RWX);
            self.reclaim_region(gms.region);
        }
        self.recycle_table(machine, domain.table);
    }

    /// Scrubs and releases a retired permission table's frames back to the
    /// table-frame allocator.
    fn recycle_table<S: TraceSink>(&mut self, machine: &mut Machine<S>, table: Option<PmpTable>) {
        let Some(table) = table else {
            return;
        };
        for &frame in table.table_pages() {
            machine.phys_mut().zero_page(frame);
            self.table_frames.release(frame);
        }
    }

    /// Returns `region` to the pool unless something still references it:
    /// the host's whole-arena backdrop is never pool-owned, and a range
    /// still overlapped by any live GMS (a parent with a labelled sub-GMS,
    /// or vice versa) must stay allocated or the pool would hand out
    /// aliased memory.
    fn reclaim_region(&mut self, region: PmpRegion) {
        if region == self.host_backdrop {
            return;
        }
        let overlaps = |g: PmpRegion| {
            g != self.host_backdrop && g.base < region.end() && region.base < g.end()
        };
        if self
            .domains
            .iter()
            .flat_map(|d| d.gmss.iter())
            .any(|g| overlaps(g.region))
        {
            return;
        }
        self.pool.free(region.base, region.size);
    }

    /// Destroys an enclave domain, returning its memory to the host.
    ///
    /// # Errors
    ///
    /// Fails for unknown domains or the host.
    pub fn destroy_domain<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        id: DomainId,
    ) -> Result<u64, MonitorError> {
        if id == DomainId::HOST {
            return Err(MonitorError::NoSuchDomain(id));
        }
        let idx = self
            .domains
            .iter()
            .position(|d| d.id == id)
            .ok_or(MonitorError::NoSuchDomain(id))?;
        let mut domain = self.domains.remove(idx);
        self.devices.retain(|(_, owner)| *owner != id);
        self.pinned.retain(|p| *p != id);
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        cycles += self.sync_iopmp(machine);
        // Return regions to the host's table (scrub + grant).
        for gms in &domain.gmss {
            cycles += self.grant_in_host_table(machine, gms.region, Perms::RWX)?;
        }
        // Hand the domain's top-level regions back to the pool. Sub-GMSs
        // alias a slice of their parent's range, so freeing them as well
        // would double-free it — this was the leak's twin bug: before PR 9
        // *nothing* was returned, so churn bled the arena dry.
        for gms in &domain.gmss {
            if is_top_level(&domain.gmss, gms.region) {
                self.reclaim_region(gms.region);
            }
        }
        self.recycle_table(machine, domain.table.take());
        if self.current == id {
            cycles += self.switch_to(machine, DomainId::HOST)?;
        } else if self.image_depends_on(id) {
            // PMP flavour, host running: drop the destroyed enclave's deny
            // entries so the host regains the returned memory immediately.
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.note_shootdown(id);
        self.settle_degradation();
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// Allocates a private region for `domain`. Returns the region and the
    /// modelled cycle cost.
    ///
    /// # Errors
    ///
    /// Fails when memory runs out, the domain is unknown, or (PMP flavour)
    /// the per-domain segment budget is exhausted.
    pub fn alloc_region<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        size: u64,
        label: GmsLabel,
    ) -> Result<(PmpRegion, u64), MonitorError> {
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        let flavor = self.flavor;

        // PMP flavour: each region consumes a segment entry when active.
        // Checked before any placement so a failed alloc leaves the
        // monitor's state (pool included) untouched.
        if flavor == TeeFlavor::PenglaiPmp {
            let d = self.domain(domain)?;
            // Entry 0 is the monitor; a region list longer than the file
            // cannot be programmed.
            if d.gmss.len() + 2 > machine.regs().len() {
                return Err(MonitorError::OutOfPmpEntries);
            }
            // The host's Keystone-style image must also keep fitting:
            // monitor entry + one deny per enclave region + the host's own
            // allow entries.
            let host_allows =
                self.domain(DomainId::HOST)?.gmss.len() + usize::from(domain == DomainId::HOST);
            let enclave_denies =
                self.enclave_region_count() + usize::from(domain != DomainId::HOST);
            if 1 + enclave_denies + host_allows > machine.regs().len() {
                return Err(MonitorError::OutOfPmpEntries);
            }
        } else {
            self.domain(domain)?;
        }

        let (region, label) = self.place_region(machine, size, label, &mut cycles)?;

        // Revoke from the host's table, grant in the owner's table. The
        // region has left the pool: a failed write must hand it back.
        if flavor != TeeFlavor::PenglaiPmp && domain != DomainId::HOST {
            match self.grant_in_host_table(machine, region, Perms::NONE) {
                Ok(revoked) => cycles += revoked,
                Err(err) => return Err(self.give_back(machine, domain, region, None, err)),
            }
        }
        if flavor != TeeFlavor::PenglaiPmp {
            let policy = self.grant_policy();
            match self.grant_in_table(machine, domain, region, Perms::RWX, policy) {
                Ok(granted) => cycles += granted,
                Err(err) => return Err(self.give_back(machine, domain, region, Some(policy), err)),
            }
        }

        let d = self.domain_mut(domain)?;
        d.gmss.push(Gms::new(region, Perms::RWX, label));
        if self.devices.iter().any(|(_, owner)| *owner == domain) {
            cycles += self.sync_iopmp(machine);
        }

        // If the running image depends on this domain's holdings (the
        // domain itself, or the PMP host's deny entries), reprogram and
        // fence.
        if self.image_depends_on(domain) {
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.note_shootdown(domain);
        self.settle_degradation();
        self.stats.cycles += cycles;
        Ok((region, cycles))
    }

    /// Undoes an [`SecureMonitor::alloc_region`] whose table write failed
    /// with `err` after `region` left the pool, and returns `err`: takes
    /// back what the owner's grant under `policy` wrote (`None`: it never
    /// ran) with the same pieces in the same order, so it stops where the
    /// grant stopped; then grants the region to the host again,
    /// returns it to the pool and fences. A host allocation's grant is left
    /// as written: RWX over pool memory is the host table's boot state.
    fn give_back<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        region: PmpRegion,
        policy: Option<FillPolicy>,
        err: MonitorError,
    ) -> MonitorError {
        if domain != DomainId::HOST {
            if let Some(policy) = policy {
                let _ = self.grant_in_table(machine, domain, region, Perms::NONE, policy);
            }
            let _ = self.grant_in_host_table(machine, region, Perms::RWX);
        }
        self.reclaim_region(region);
        machine.invalidate_isolation();
        self.note_shootdown(domain);
        self.settle_degradation();
        err
    }

    /// Releases a region owned by `domain`, returning the cycle cost.
    ///
    /// # Errors
    ///
    /// Fails if the region is not owned by the domain.
    pub fn free_region<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        base: PhysAddr,
    ) -> Result<u64, MonitorError> {
        let flavor = self.flavor;
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        let d = self.domain_mut(domain)?;
        let g_idx = d
            .gmss
            .iter()
            .position(|g| g.region.base == base)
            .ok_or(MonitorError::NotOwned)?;
        let gms = d.gmss.remove(g_idx);

        let mut regrant = Ok(0);
        if flavor != TeeFlavor::PenglaiPmp {
            // Revoke in the owner's table. If that fails the owner keeps
            // the region: a revoke stopped part-way only denies it more.
            let revoke = self.grant_in_table(
                machine,
                domain,
                gms.region,
                Perms::NONE,
                FillPolicy::PerPage,
            );
            match revoke {
                Ok(revoked) => cycles += revoked,
                Err(err) => {
                    self.domain_mut(domain)?.gmss.insert(g_idx, gms);
                    return Err(err);
                }
            }
            // Return it to the host. The owner has lost it by now, so a
            // failed re-grant still sends it to the pool below: a host
            // table that grants less than the pool's backdrop only denies.
            if domain != DomainId::HOST {
                regrant = self.grant_in_host_table(machine, gms.region, Perms::RWX);
            }
        }
        if self.image_depends_on(domain) {
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.reclaim_region(gms.region);
        self.note_shootdown(domain);
        self.settle_degradation();
        cycles += regrant?;
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// Relabels a GMS (the OS hint path); only HPMP acts on it, by
    /// reprogramming registers — no table updates, which is why it is cheap.
    ///
    /// # Errors
    ///
    /// Fails if the region is not owned by the domain.
    pub fn relabel<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        base: PhysAddr,
        label: GmsLabel,
    ) -> Result<u64, MonitorError> {
        let d = self.domain_mut(domain)?;
        let gms = d
            .gmss
            .iter_mut()
            .find(|g| g.region.base == base)
            .ok_or(MonitorError::NotOwned)?;
        gms.label = label;
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        if self.current == domain {
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.note_shootdown(domain);
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// Chooses where a new region lands under the degradation state machine
    /// (DESIGN.md §12), escalating through compaction, the table-only
    /// fallback and admission control as the pool runs dry. Returns the
    /// placed region and the (possibly downgraded) label.
    fn place_region<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        size: u64,
        label: GmsLabel,
        cycles: &mut u64,
    ) -> Result<(PmpRegion, GmsLabel), MonitorError> {
        let napot = size.next_power_of_two().max(PAGE_SIZE);
        // The PMP flavour has no permission table to fall back on, so it
        // never enters the table-only stage: its ladder is 0 → 1 → 3.
        let fast_eligible =
            self.flavor == TeeFlavor::PenglaiPmp || self.degrade.stage() < DegradeStage::TableOnly;
        if fast_eligible {
            if let Some(base) = self.pool.alloc_aligned(napot, napot) {
                // A PMP-flavour monitor in admission control just served a
                // fast allocation again: step off stage 3.
                if self.degrade.recover_to(DegradeStage::Compacting) {
                    self.store_stage_gauge();
                }
                return Ok((PmpRegion::new(base, napot), label));
            }
            // Stage 1: compact the arena and retry the fast path.
            self.enter_stage(DegradeStage::Compacting);
            *cycles += self.compact_pass(machine, None, *cycles)?.cycles;
            if let Some(base) = self.pool.alloc_aligned(napot, napot) {
                return Ok((PmpRegion::new(base, napot), label));
            }
            if self.flavor == TeeFlavor::PenglaiPmp {
                return self.refuse_admission();
            }
            self.enter_stage(DegradeStage::TableOnly);
        }
        // Stage 2/3: exact-fit, page-aligned, table-backed, forcibly slow —
        // the table flavours lose speed, never correctness.
        let exact = size.next_multiple_of(PAGE_SIZE).max(PAGE_SIZE);
        let placed = match self.pool.alloc_aligned(exact, PAGE_SIZE) {
            Some(base) => Some(base),
            None => {
                // One more compaction attempt before refusing admission.
                *cycles += self.compact_pass(machine, None, *cycles)?.cycles;
                self.pool.alloc_aligned(exact, PAGE_SIZE)
            }
        };
        match placed {
            Some(base) => {
                // A successful exact-fit under admission control means the
                // monitor is serving again: step straight back to stage 2.
                if self.degrade.recover_to(DegradeStage::TableOnly) {
                    self.store_stage_gauge();
                }
                self.stats.degrade_slow_allocs += 1;
                Ok((PmpRegion::new(base, exact), GmsLabel::Slow))
            }
            None => self.refuse_admission(),
        }
    }

    /// Stage 3: refuses the allocation with typed backpressure instead of a
    /// hard failure.
    fn refuse_admission<T>(&mut self) -> Result<T, MonitorError> {
        self.enter_stage(DegradeStage::Admission);
        self.stats.degrade_rejected += 1;
        Err(MonitorError::ResourceExhausted {
            retry_after_ops: self.degrade.policy.retry_after_ops,
        })
    }

    /// Records a genuine escalation in the stage-entry counters and gauge.
    fn enter_stage(&mut self, to: DegradeStage) {
        if self.degrade.escalate(to) {
            self.stats.degrade_enter[usize::from(to.level() - 1)] += 1;
            self.store_stage_gauge();
        }
    }

    fn store_stage_gauge(&mut self) {
        self.stats.degrade_stage = u64::from(self.degrade.stage().level());
    }

    /// Feeds the pool's recovery signal into the hysteresis after every
    /// capacity-changing operation.
    fn settle_degradation(&mut self) {
        if self.degrade.settle(self.pool.largest_free()) {
            // The PMP flavour's ladder has no table-only rung (0 → 1 → 3),
            // so a repromotion out of admission lands on compaction
            // directly — stage 2 must never be observable on PMP.
            if self.flavor == TeeFlavor::PenglaiPmp {
                self.degrade.recover_to(DegradeStage::Compacting);
            }
            self.stats.degrade_repromotions += 1;
            self.store_stage_gauge();
        }
    }

    /// The degradation stage the monitor is currently in.
    pub fn degrade_stage(&self) -> DegradeStage {
        self.degrade.stage()
    }

    /// Replaces the degradation policy's thresholds; the current stage and
    /// hysteresis streak are kept.
    pub fn set_degradation_policy(&mut self, policy: DegradationPolicy) {
        self.degrade.policy = policy;
    }

    /// Excludes `domain`'s memory from compaction: its owner holds live
    /// guest-physical mappings into it (page tables the monitor does not
    /// rewrite), so relocating it would tear them.
    ///
    /// # Errors
    ///
    /// Fails for unknown domains.
    pub fn pin_domain(&mut self, domain: DomainId) -> Result<(), MonitorError> {
        self.domain(domain)?;
        if !self.pinned.contains(&domain) {
            self.pinned.push(domain);
        }
        Ok(())
    }

    /// Makes `domain`'s memory movable by compaction again.
    pub fn unpin_domain(&mut self, domain: DomainId) {
        self.pinned.retain(|d| *d != domain);
    }

    /// Takes the span breadcrumb of the most recent compaction pass; the
    /// SMP layer drains this after every op to emit a `compact` child span.
    pub fn take_compaction_note(&mut self) -> Option<CompactNote> {
        self.compaction_note.take()
    }

    /// Size of the region arena's largest free range.
    pub fn arena_largest_free(&self) -> u64 {
        self.pool.largest_free()
    }

    /// Total free bytes in the region arena.
    pub fn arena_total_free(&self) -> u64 {
        self.pool.total_free()
    }

    /// Runs segment compaction explicitly (outside an allocation): slides
    /// movable GMS regions downward to merge free holes. `max_moves` bounds
    /// the pass, letting callers — fault campaigns especially — stop
    /// mid-compaction, interleave other work, and resume. Returns what the
    /// pass did, including the trap overhead of invoking it.
    ///
    /// # Errors
    ///
    /// Propagates relocation failures (the affected domain is quarantined).
    pub fn compact<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        max_moves: Option<u64>,
    ) -> Result<CompactReport, MonitorError> {
        let pre = cost::TRAP_ROUND_TRIP;
        let mut report = self.compact_pass(machine, max_moves, pre)?;
        report.cycles += pre;
        self.stats.cycles += report.cycles;
        Ok(report)
    }

    /// One compaction pass: repeatedly slides the lowest movable GMS region
    /// into the lowest free hole below it until nothing moves (or the
    /// `max_moves` budget runs out). `note_offset` records where inside the
    /// surrounding operation the pass began, for span attribution. Callers
    /// fold the returned cycles into their own accounting.
    fn compact_pass<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        max_moves: Option<u64>,
        note_offset: u64,
    ) -> Result<CompactReport, MonitorError> {
        let mut report = CompactReport {
            cycles: cost::BOOKKEEPING,
            ..CompactReport::default()
        };
        while max_moves.is_none_or(|m| report.moved_regions < m) {
            let Some((domain, old, new_base)) = self.next_compaction_move() else {
                break;
            };
            report.cycles += self.relocate_region(machine, domain, old, new_base)?;
            report.moved_regions += 1;
            report.moved_pages += old.size / PAGE_SIZE;
        }
        report.remaining = self.compaction_candidates().len() as u64;
        self.stats.compact_passes += 1;
        self.stats.compact_moved_regions += report.moved_regions;
        self.stats.compact_moved_pages += report.moved_pages;
        self.stats.compact_cycles += report.cycles;
        self.compaction_note = Some(CompactNote {
            offset: note_offset,
            cycles: report.cycles,
            moved_regions: report.moved_regions,
        });
        Ok(report)
    }

    /// Every `(domain, region, destination)` triple compaction could move
    /// right now: top-level, unpinned, non-host GMS regions with a free
    /// hole strictly below their current base that fits their alignment
    /// (NAPOT regions keep size-alignment so segment backing and the PMP
    /// flavour's encoding survive the move).
    fn compaction_candidates(&self) -> Vec<(DomainId, PmpRegion, PhysAddr)> {
        let mut out = Vec::new();
        for d in &self.domains {
            if d.id == DomainId::HOST || self.pinned.contains(&d.id) {
                continue;
            }
            for g in &d.gmss {
                if !is_top_level(&d.gmss, g.region) {
                    continue;
                }
                let align = if g.region.is_napot() {
                    g.region.size
                } else {
                    PAGE_SIZE
                };
                let Some(fit) = self.pool.lowest_fit(g.region.size, align) else {
                    continue;
                };
                if fit.raw() < g.region.base.raw() {
                    out.push((d.id, g.region, fit));
                }
            }
        }
        out
    }

    fn next_compaction_move(&self) -> Option<(DomainId, PmpRegion, PhysAddr)> {
        self.compaction_candidates()
            .into_iter()
            .min_by_key(|&(_, region, _)| region.base)
    }

    /// Relocates one of `domain`'s top-level GMS regions from `old` to the
    /// already-chosen destination base `new_base`: copies its pages and
    /// rewrites every affected permission structure, fail-closed — the
    /// destination is revoked from the host *before* the owner gains it, so
    /// at no point can both reach the range. Returns the modelled cycles.
    fn relocate_region<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        old: PmpRegion,
        new_base: PhysAddr,
    ) -> Result<u64, MonitorError> {
        let flavor = self.flavor;
        let new = PmpRegion::new(new_base, old.size);
        assert!(
            self.pool.alloc_at(new_base, old.size),
            "compaction destination vanished"
        );
        let pages = old.size / PAGE_SIZE;
        let mut cycles = 0u64;

        // 1. The destination leaves the host's reach first.
        cycles += self.grant_in_host_table(machine, new, Perms::NONE)?;

        // 2. The owner's table gains the new range with the moved GMS's
        //    permissions and loses the old one. (Sub-GMSs alias slices of
        //    the parent's range, so one grant covers them.)
        let perms = self
            .domain(domain)?
            .gmss
            .iter()
            .find(|g| g.region == old)
            .ok_or(MonitorError::NotOwned)?
            .perms;
        if flavor != TeeFlavor::PenglaiPmp {
            let policy = self.grant_policy();
            cycles += self.grant_in_table(machine, domain, new, perms, policy)?;
            cycles +=
                self.grant_in_table(machine, domain, old, Perms::NONE, FillPolicy::PerPage)?;
        }

        // 3. The M-mode memcpy.
        for page in 0..pages {
            machine.phys_mut().copy_page_within(
                PhysAddr::new(old.base.raw() + page * PAGE_SIZE),
                PhysAddr::new(new.base.raw() + page * PAGE_SIZE),
            );
        }
        cycles += CopyCost::DEFAULT.relocation(pages);

        // 4. The vacated range returns to the host.
        cycles += self.grant_in_host_table(machine, old, Perms::RWX)?;

        // 5. Bookkeeping: slide the GMS — and every sub-GMS inside it — down
        //    by the same delta, then free the vacated range.
        let delta = old.base.raw() - new.base.raw();
        let d = self.domain_mut(domain)?;
        for g in d.gmss.iter_mut() {
            if old.base <= g.region.base && g.region.end() <= old.end() {
                g.region =
                    PmpRegion::new(PhysAddr::new(g.region.base.raw() - delta), g.region.size);
            }
        }
        self.pool.free(old.base, old.size);

        if self.devices.iter().any(|(_, owner)| *owner == domain) {
            cycles += self.sync_iopmp(machine);
        }
        if self.image_depends_on(domain) {
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.note_shootdown(domain);
        self.verify_relocation(machine, domain, new, old.base)?;
        Ok(cycles)
    }

    /// Fail-closed post-condition of a relocation: the hardware-visible
    /// fast path must agree with the oracle at the moved range's edges and
    /// at the vacated base, for both the owner and the host. Any
    /// disagreement quarantines the domain rather than risking a silent
    /// grant of memory its owner no longer holds.
    fn verify_relocation<S: TraceSink>(
        &self,
        machine: &Machine<S>,
        domain: DomainId,
        new: PmpRegion,
        old_base: PhysAddr,
    ) -> Result<(), MonitorError> {
        if self.flavor == TeeFlavor::PenglaiPmp {
            // No tables: the only hardware-visible state is the register
            // image, rebuilt above when the running image depends on the
            // move and on the next switch otherwise; the oracle-lockstep
            // harnesses keep probing it afterwards.
            return Ok(());
        }
        let probes = [
            new.base,
            PhysAddr::new(new.end().raw() - PAGE_SIZE),
            old_base,
        ];
        for who in [domain, DomainId::HOST] {
            let d = self.domain(who)?;
            let table = d.table.as_ref().ok_or(MonitorError::IntegrityLost(who))?;
            for probe in probes {
                let fast = table
                    .lookup(machine.phys(), probe)
                    .is_some_and(|p| p.allows(AccessKind::Read));
                let oracle = self.oracle_check_for(who, probe, AccessKind::Read);
                if fast != oracle {
                    return Err(MonitorError::IntegrityLost(who));
                }
            }
        }
        Ok(())
    }

    /// The IOPMP checker for DMA initiators (§9). Pass to
    /// [`hpmp_machine::Machine::dma_transfer`].
    pub fn iopmp(&self) -> &IoPmp {
        &self.iopmp
    }

    /// Assigns a DMA initiator to `domain`: the device may then DMA into
    /// (and only into) that domain's memory. Returns the cycle cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown domains.
    pub fn assign_device<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        device: DeviceId,
        domain: DomainId,
    ) -> Result<u64, MonitorError> {
        self.domain(domain)?;
        self.devices.retain(|(d, _)| *d != device);
        self.devices.push((device, domain));
        let cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING + self.sync_iopmp(machine);
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// Revokes a DMA initiator's assignment (back to no access).
    pub fn revoke_device<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        device: DeviceId,
    ) -> u64 {
        self.devices.retain(|(d, _)| *d != device);
        let cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING + self.sync_iopmp(machine);
        self.stats.cycles += cycles;
        cycles
    }

    /// Rebuilds the IOPMP entry list from device ownership. DMA is
    /// asynchronous, so entries reflect *ownership*, not the scheduled
    /// domain; every mutation of a device-owning domain's memory re-syncs.
    fn sync_iopmp<S: TraceSink>(&mut self, machine: &mut Machine<S>) -> u64 {
        let _ = &machine;
        let mut iopmp = IoPmp::new();
        let mut writes = 0u64;
        for (device, domain) in &self.devices {
            let Some(d) = self.domains.iter().find(|d| d.id == *domain) else {
                continue;
            };
            match (&d.table, self.flavor) {
                (Some(table), TeeFlavor::PenglaiPmpt | TeeFlavor::PenglaiHpmp) => {
                    // One table-mode entry: the domain's permission table is
                    // the single source of truth for its pages.
                    iopmp.push(IoPmpEntry {
                        source_mask: 1 << (device.0 & 31),
                        region: self.ram,
                        mode: IoPmpMode::Table { root: table.root() },
                    });
                    writes += 1;
                }
                _ => {
                    // PMP flavour: the host's whole-memory GMS still covers
                    // enclave carve-outs, so (as on the CPU side) deny
                    // entries for every enclave region match first.
                    if *domain == DomainId::HOST {
                        for hole in self
                            .domains
                            .iter()
                            .filter(|other| other.id != DomainId::HOST)
                            .flat_map(|other| other.gmss.iter().map(|g| g.region))
                        {
                            iopmp.push(IoPmpEntry {
                                source_mask: 1 << (device.0 & 31),
                                region: hole,
                                mode: IoPmpMode::Segment(hpmp_memsim::Perms::NONE),
                            });
                            writes += 1;
                        }
                    }
                    for gms in &d.gmss {
                        iopmp.push(IoPmpEntry {
                            source_mask: 1 << (device.0 & 31),
                            region: gms.region,
                            mode: IoPmpMode::Segment(gms.perms),
                        });
                        writes += 1;
                    }
                }
            }
        }
        self.iopmp = iopmp;
        writes * cost::CSR_WRITE
    }

    /// Labels a sub-range of one of `domain`'s GMSs as its own GMS — the
    /// §9 "efficient isolation through new abstractions" path, fed by the
    /// OS's hint ioctls. The sub-GMS inherits the parent's permission; a
    /// `Fast` label asks for segment backing on the next programming.
    ///
    /// Only meaningful for Penglai-HPMP (the other flavours have no
    /// fast/slow distinction for data).
    ///
    /// # Errors
    ///
    /// Fails if the flavour is not HPMP, the region is not contained in a
    /// GMS the domain owns, or it is already labelled.
    pub fn label_subregion<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        region: PmpRegion,
        label: GmsLabel,
    ) -> Result<u64, MonitorError> {
        if self.flavor != TeeFlavor::PenglaiHpmp {
            return Err(MonitorError::NotOwned);
        }
        let d = self.domain_mut(domain)?;
        let parent = d
            .gmss
            .iter()
            .find(|g| {
                g.region.base <= region.base && g.region.end() >= region.end() && g.region != region
            })
            .copied()
            .ok_or(MonitorError::NotOwned)?;
        if d.gmss.iter().any(|g| g.region == region) {
            return Err(MonitorError::NotOwned);
        }
        d.gmss.push(Gms::new(region, parent.perms, label));
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        if self.image_depends_on(domain) {
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// Removes a sub-GMS added by [`SecureMonitor::label_subregion`].
    ///
    /// # Errors
    ///
    /// Fails if the exact region is not a labelled sub-GMS of the domain.
    pub fn unlabel_subregion<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        region: PmpRegion,
    ) -> Result<u64, MonitorError> {
        let d = self.domain_mut(domain)?;
        let idx = d
            .gmss
            .iter()
            .position(|g| g.region == region)
            .ok_or(MonitorError::NotOwned)?;
        d.gmss.remove(idx);
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        if self.image_depends_on(domain) {
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// Switches execution to `target`, reprogramming the HPMP entries.
    /// Returns the modelled cycle cost — the Figure 14-a quantity.
    ///
    /// # Errors
    ///
    /// Fails for unknown domains, or for the PMP flavour when the target's
    /// allow-list does not fit the register file.
    pub fn switch_to<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        target: DomainId,
    ) -> Result<u64, MonitorError> {
        self.domain(target)?;
        self.current = target;
        // Tag subsequent trace events with the world we switched into.
        machine.set_world(if target == DomainId::HOST {
            World::Host
        } else {
            World::Enclave
        });
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        cycles += self.program_current(machine)?;
        machine.invalidate_isolation();
        cycles += cost::FENCE;
        self.stats.switches += 1;
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// One integrity-scrub pass, the monitor's periodic corruption sweep:
    /// compares `machine`'s live register file against the shadow copy of
    /// the image last programmed on that hart (force-restoring any
    /// divergence, lock bit included) and samples the
    /// first and last page of every GMS in every domain's permission table
    /// for malformed pmptes. Sampling bounds the pass's cost; pmptes it
    /// does not visit are still caught at access time by the parity check.
    /// Never panics: corruption is repaired where possible and reported
    /// for quarantine otherwise.
    pub fn scrub<S: TraceSink>(&mut self, machine: &mut Machine<S>) -> ScrubReport {
        let mut report = ScrubReport::default();
        let shadow = self
            .shadow_regs
            .get(usize::from(machine.hart_id()))
            .map_or(&[][..], Vec::as_slice);
        for (idx, &(addr, cfg)) in shadow.iter().enumerate() {
            let live_addr = machine.regs().addr_reg(idx);
            let live_cfg = machine.regs().cfg_reg(idx);
            if live_addr != addr || live_cfg.to_bits() != cfg.to_bits() {
                machine.regs_mut().force_restore(idx, addr, cfg);
                report.repaired_registers += 1;
            }
        }
        if report.repaired_registers > 0 {
            // Stale TLB entries may inline permissions derived from the
            // corrupted registers.
            machine.invalidate_isolation();
        }
        for d in &self.domains {
            let Some(table) = d.table.as_ref() else {
                continue;
            };
            let corrupt = d.gmss.iter().any(|gms| {
                let last_page = PhysAddr::new(gms.region.end().raw() - PAGE_SIZE);
                table.walk(machine.phys(), gms.region.base).malformed
                    || table.walk(machine.phys(), last_page).malformed
            });
            if corrupt {
                report.corrupt_domains.push(d.id);
            }
        }
        let cycles = cost::BOOKKEEPING + report.repaired_registers * 2 * cost::CSR_WRITE;
        self.stats.cycles += cycles;
        report
    }

    /// Quarantine recovery: discards `domain`'s (possibly corrupt)
    /// permission table and rebuilds it from the monitor's authoritative
    /// GMS bookkeeping. Returns the modelled cycle cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown domains, for the PMP flavour (which has no
    /// tables to rebuild), or when table memory is exhausted.
    pub fn rebuild_domain_table<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
    ) -> Result<u64, MonitorError> {
        if self.flavor == TeeFlavor::PenglaiPmp {
            return Err(MonitorError::IntegrityLost(domain));
        }
        let mut cycles = cost::TRAP_ROUND_TRIP + cost::BOOKKEEPING;
        let mut table = PmpTable::new(self.ram, machine.phys_mut(), &mut self.table_frames)
            .map_err(|_| MonitorError::OutOfMemory)?;
        // The domain's grants; for the host, then every enclave region as a
        // hole.
        let fill = self.grant_policy();
        let d = self.domain(domain)?;
        let mut fills: Vec<_> = d.gmss.iter().map(|g| (g.region, g.perms, fill)).collect();
        if domain == DomainId::HOST {
            let enclaves = self.domains.iter().filter(|d| d.id != DomainId::HOST);
            let holes = enclaves.flat_map(|d| d.gmss.iter());
            fills.extend(holes.map(|g| (g.region, Perms::NONE, FillPolicy::PerPage)));
        }
        let mut writes = 0u64;
        for (region, perms, policy) in fills {
            let (mem, frames) = (machine.phys_mut(), &mut self.table_frames);
            writes += table.set_range_perm(mem, frames, region.base, region.size, perms, policy)?;
        }
        let d = self.domain_mut(domain)?;
        d.table = Some(table);
        self.stats.table_writes += writes;
        cycles += writes * cost::TABLE_ENTRY_WRITE;
        // IOPMP entries may reference the replaced table root.
        cycles += self.sync_iopmp(machine);
        if self.current == domain {
            cycles += self.program_current(machine)?;
            machine.invalidate_isolation();
            cycles += cost::FENCE;
        }
        self.note_shootdown(domain);
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// The reference permission oracle: re-derives the access decision for
    /// `domain`'s S/U-mode accesses from the monitor's own bookkeeping — no
    /// registers, no DRAM-resident tables, no caches. The fast path may
    /// deny an access the oracle would allow (graceful degradation under
    /// faults), but any access the fast path grants and the oracle denies
    /// is an isolation violation ([`SecureMonitor::fail_closed_violation`]).
    pub fn oracle_check_for(&self, domain: DomainId, addr: PhysAddr, kind: AccessKind) -> bool {
        let Ok(d) = self.domain(domain) else {
            return false;
        };
        if self.monitor_region.contains(addr) {
            return false;
        }
        // The PMP flavour programs the smallest NAPOT superset of each
        // region, so its *intended* policy is the widened one.
        let widen = self.flavor == TeeFlavor::PenglaiPmp;
        let covered = |region: PmpRegion| {
            let region = if widen {
                napot_superset(region)
            } else {
                region
            };
            region.contains(addr)
        };
        if !d
            .gmss
            .iter()
            .any(|g| covered(g.region) && g.perms.allows(kind))
        {
            return false;
        }
        // Enclave carve-outs override the host's whole-memory GMS: they
        // are deny entries (PMP flavour) or host-table revocations.
        if domain == DomainId::HOST {
            let carved = self
                .domains
                .iter()
                .filter(|other| other.id != DomainId::HOST)
                .any(|other| other.gmss.iter().any(|g| covered(g.region)));
            if carved {
                return false;
            }
        }
        true
    }

    /// The one fail-closed check (DESIGN.md §13), run after every op of the
    /// model checker and the random batteries and after every fault-campaign
    /// trial. `mem` is the shared physical memory, `harts` each hart's live
    /// register image with the domain scheduled on it. Returns the first
    /// broken invariant: the PMP flavour in table-only; overlapping enclave
    /// regions; then, hart by hart, an image `validate` rejects, a fast-path
    /// grant (PMPTW-Cache disabled) the oracle denies — probing the
    /// monitor's memory and the base of every live region — a scheduled
    /// enclave that cannot reach its first region, or an enclave also
    /// scheduled on an earlier hart. The SMP state fingerprint covers every
    /// input, so the model checker may prune on it.
    pub fn fail_closed_violation(
        &self,
        mem: &PhysMem,
        harts: &[(&HpmpRegFile, DomainId)],
    ) -> Option<Violation> {
        if self.flavor == TeeFlavor::PenglaiPmp && self.degrade_stage() == DegradeStage::TableOnly {
            return Some(Violation::TableOnlyOnPmp);
        }
        let enclave_regions: Vec<(DomainId, PmpRegion)> = self
            .domains
            .iter()
            .filter(|d| d.id != DomainId::HOST)
            .flat_map(|d| d.gmss.iter().map(move |g| (d.id, g.region)))
            .collect();
        for (i, &a) in enclave_regions.iter().enumerate() {
            for &b in &enclave_regions[i + 1..] {
                if a.0 != b.0 && a.1.base < b.1.end() && b.1.base < a.1.end() {
                    return Some(Violation::Overlap(a, b));
                }
            }
        }
        let monitor_probe = PhysAddr::new(self.monitor_region.base.raw() + 0x800);
        let bases = self.domains.iter().flat_map(|d| d.gmss.iter());
        let probes: Vec<PhysAddr> = std::iter::once(monitor_probe)
            .chain(bases.map(|g| g.region.base))
            .collect();
        for (idx, &(regs, domain)) in harts.iter().enumerate() {
            let hart = idx as u16;
            if let Err(error) = regs.validate() {
                return Some(Violation::InvalidImage(hart, error));
            }
            let stale = probes
                .iter()
                .find(|&&addr| self.stale_grant(mem, regs, domain, addr));
            if let Some(&addr) = stale {
                return Some(Violation::StaleGrant(hart, addr));
            }
            if domain == DomainId::HOST {
                continue;
            }
            let own = self.domain(domain).ok().and_then(|d| d.gmss.first());
            if let Some(addr) = own
                .map(|g| g.region.base)
                .filter(|&a| !fast_grants(mem, regs, a))
            {
                return Some(Violation::Unreachable(hart, addr));
            }
            if let Some(first) = harts[..idx].iter().position(|&(_, d)| d == domain) {
                return Some(Violation::DoubleScheduled(domain, first as u16, hart));
            }
        }
        None
    }

    /// The one fast ⇒ oracle predicate of [`SecureMonitor::fail_closed_violation`]:
    /// does the register image `regs` grant a read of `addr` that the
    /// oracle denies `domain`? Directed tests use it to probe addresses
    /// beyond the check's own probe set.
    pub fn stale_grant(
        &self,
        mem: &PhysMem,
        regs: &HpmpRegFile,
        domain: DomainId,
        addr: PhysAddr,
    ) -> bool {
        fast_grants(mem, regs, addr) && !self.oracle_check_for(domain, addr, AccessKind::Read)
    }

    /// True if changing `domain`'s region holdings invalidates the image
    /// programmed for the *currently running* domain: either `domain`
    /// itself is running, or the PMP flavour's host is — the Keystone-style
    /// host image carries one deny entry per enclave region, so any
    /// enclave's holdings are part of it. (The table flavours revoke
    /// through the host's permission table instead, which the fast path
    /// re-walks, so they never need this.) Caught by the oracle-lockstep
    /// fuzzer: without the host-image reprogram, the window between an
    /// enclave alloc and the next domain switch left the running host with
    /// a stale image granting it the enclave's new region.
    fn image_depends_on(&self, domain: DomainId) -> bool {
        self.image_depends(self.current, domain)
    }

    /// The hart-generic form of [`SecureMonitor::image_depends_on`]: does a
    /// hart whose scheduled domain is `scheduled` carry `changed`'s
    /// holdings in its register image? True when the changed domain itself
    /// is scheduled there, or when the PMP flavour's host is — its
    /// Keystone-style image holds one deny entry per enclave region, so
    /// *any* enclave's holdings are part of every host image.
    pub(crate) fn image_depends(&self, scheduled: DomainId, changed: DomainId) -> bool {
        scheduled == changed
            || (self.flavor == TeeFlavor::PenglaiPmp
                && scheduled == DomainId::HOST
                && changed != DomainId::HOST)
    }

    /// Takes the pending cross-hart shootdown obligations. See the field
    /// docs; the SMP layer calls this after every monitor op. A plain
    /// allocation yields at most one domain; an allocation that triggered
    /// compaction yields every domain whose memory moved.
    ///
    /// The obligations are moved into `into`, which is cleared first; its
    /// old storage becomes the monitor's next pending list, so a caller
    /// that keeps one buffer across ops drains without allocating.
    pub fn take_shootdowns(&mut self, into: &mut Vec<DomainId>) {
        into.clear();
        std::mem::swap(&mut self.pending_shootdowns, into);
    }

    /// Notes a cross-hart shootdown obligation for `domain` (deduplicated —
    /// one IPI round covers all changes of one op).
    fn note_shootdown(&mut self, domain: DomainId) {
        if !self.pending_shootdowns.contains(&domain) {
            self.pending_shootdowns.push(domain);
        }
    }

    /// Re-points `current` without reprogramming anything. The SMP layer
    /// uses this to bank the monitor's notion of "the running domain" to
    /// whichever hart an op (or a remote reprogram) is being performed on;
    /// every register write still goes through
    /// [`SecureMonitor::program_current`].
    pub(crate) fn set_current_unchecked(&mut self, id: DomainId) {
        self.current = id;
    }

    /// Reprograms the register file for the current domain. Returns cycles.
    pub(crate) fn program_current<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
    ) -> Result<u64, MonitorError> {
        let before = machine.regs().csr_writes();
        let current = self.current;
        let flavor = self.flavor;

        // Disable everything except entry 0 (the monitor's own segment).
        for idx in 1..machine.regs().len() {
            if !machine.regs().cfg_reg(idx).locked() {
                machine.regs_mut().disable(idx).ok();
            }
        }

        // Entries from 1 follow the one layout rule of
        // `HpmpRegFile::program`: segments first, then the table.
        let regs = machine.regs_mut();
        if flavor == TeeFlavor::PenglaiPmp {
            // Keystone-style host: deny entries for every enclave region
            // (they match first), then allow entries for the host. An
            // enclave gets allow entries for its own regions.
            let denied = if current == DomainId::HOST {
                self.enclave_region_count()
            } else {
                0
            };
            let own = &self.domain(current)?.gmss;
            if 1 + denied + own.len() > regs.len() {
                return Err(MonitorError::OutOfPmpEntries);
            }
            let enclaves = self
                .domains
                .iter()
                .filter(|d| current == DomainId::HOST && d.id != DomainId::HOST)
                .flat_map(|d| d.gmss.iter().map(|g| (g.region, Perms::NONE)));
            let allowed = own.iter().map(|g| (g.region, Perms::RWX));
            let segments = enclaves
                .chain(allowed)
                .map(|(region, perms)| (napot_superset(region), perms));
            regs.program(1, segments, None)?;
        } else {
            let d = self.domain(current)?;
            let root = d
                .table
                .as_ref()
                .ok_or(MonitorError::IntegrityLost(current))?
                .root();
            // Under HPMP, fast GMSs become segments, lowest entries first;
            // the rest fall back to the table (cache-like), as do fast
            // GMSs past the entries the table leaves free.
            let fast = d
                .gmss
                .iter()
                .filter(|g| {
                    flavor == TeeFlavor::PenglaiHpmp
                        && g.label == GmsLabel::Fast
                        && g.segment_compatible()
                })
                .take(regs.len() - 3)
                .map(|g| (g.region, g.perms));
            regs.program(1, fast, Some((self.ram, root)))?;
        }

        let writes = machine.regs().csr_writes() - before;
        self.stats.csr_writes += writes;
        // Refresh this hart's shadow copy, which scrub compares against.
        let hart = usize::from(machine.hart_id());
        if self.shadow_regs.len() <= hart {
            self.shadow_regs.resize_with(hart + 1, Vec::new);
        }
        let regs = machine.regs();
        let shadow = &mut self.shadow_regs[hart];
        shadow.clear();
        shadow.extend((0..regs.len()).map(|idx| (regs.addr_reg(idx), regs.cfg_reg(idx))));
        Ok(writes * cost::CSR_WRITE)
    }

    /// How a domain's own grants fill its table: huge root pmptes for
    /// aligned 32 MiB runs under HPMP, page by page under PMPT.
    fn grant_policy(&self) -> FillPolicy {
        if self.flavor == TeeFlavor::PenglaiHpmp {
            FillPolicy::HugeWhenAligned
        } else {
            FillPolicy::PerPage
        }
    }

    /// Sets `perms` on `region` in `domain`'s table under `policy`,
    /// counting the writes. Returns their modelled cycle cost.
    fn grant_in_table<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        domain: DomainId,
        region: PmpRegion,
        perms: Perms,
        policy: FillPolicy,
    ) -> Result<u64, MonitorError> {
        let table_frames = &mut self.table_frames;
        let d = self
            .domains
            .iter_mut()
            .find(|d| d.id == domain)
            .ok_or(MonitorError::NoSuchDomain(domain))?;
        let table = d
            .table
            .as_mut()
            .ok_or(MonitorError::IntegrityLost(domain))?;
        let (base, len) = (region.base, region.size);
        let writes =
            table.set_range_perm(machine.phys_mut(), table_frames, base, len, perms, policy)?;
        self.stats.table_writes += writes;
        Ok(writes * cost::TABLE_ENTRY_WRITE)
    }

    /// Grants or revokes a region in the host's table, page by page.
    fn grant_in_host_table<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        region: PmpRegion,
        perms: Perms,
    ) -> Result<u64, MonitorError> {
        // The PMP flavour has no host table: region return is a pure
        // bookkeeping operation there (segments reprogram on switch).
        if self.flavor == TeeFlavor::PenglaiPmp {
            return Ok(0);
        }
        self.grant_in_table(machine, DomainId::HOST, region, perms, FillPolicy::PerPage)
    }

    /// Total enclave regions — each needs a deny entry while the host runs
    /// (PMP flavour).
    fn enclave_region_count(&self) -> usize {
        self.domains
            .iter()
            .filter(|d| d.id != DomainId::HOST)
            .map(|d| d.gmss.len())
            .sum()
    }

    fn domain(&self, id: DomainId) -> Result<&Domain, MonitorError> {
        self.domains
            .iter()
            .find(|d| d.id == id)
            .ok_or(MonitorError::NoSuchDomain(id))
    }

    fn domain_mut(&mut self, id: DomainId) -> Result<&mut Domain, MonitorError> {
        self.domains
            .iter_mut()
            .find(|d| d.id == id)
            .ok_or(MonitorError::NoSuchDomain(id))
    }
}

/// True when `region` is not strictly contained in another GMS of the same
/// domain — i.e. it owns its physical range rather than aliasing a slice of
/// a parent's.
fn is_top_level(gmss: &[Gms], region: PmpRegion) -> bool {
    !gmss.iter().any(|o| {
        o.region != region && o.region.base <= region.base && o.region.end() >= region.end()
    })
}

/// Smallest NAPOT region containing `region`.
fn napot_superset(region: PmpRegion) -> PmpRegion {
    let mut size = region.size.next_power_of_two().max(8);
    loop {
        let base = PhysAddr::new(region.base.raw() & !(size - 1));
        if base.raw() + size >= region.end().raw() {
            return PmpRegion::new(base, size);
        }
        size *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_machine::MachineConfig;

    const RAM: PmpRegion = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);

    fn boot(flavor: TeeFlavor) -> (Machine, SecureMonitor) {
        let mut machine = Machine::new(MachineConfig::rocket());
        let monitor = SecureMonitor::boot(&mut machine, flavor, RAM).expect("monitor boots");
        (machine, monitor)
    }

    #[test]
    fn boot_programs_monitor_segment() {
        let (machine, monitor) = boot(TeeFlavor::PenglaiHpmp);
        assert_eq!(monitor.domain_count(), 1);
        assert_eq!(monitor.current(), DomainId::HOST);
        // Entry 0 covers the monitor region with no S/U permissions.
        let region = machine.regs().entry_region(0).unwrap();
        assert_eq!(region.base, RAM.base);
    }

    #[test]
    fn create_and_switch_domains() {
        for flavor in [
            TeeFlavor::PenglaiPmp,
            TeeFlavor::PenglaiPmpt,
            TeeFlavor::PenglaiHpmp,
        ] {
            let (mut machine, mut monitor) = boot(flavor);
            let (id, _) = monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .unwrap();
            let cycles = monitor.switch_to(&mut machine, id).unwrap();
            assert!(cycles > 0);
            assert_eq!(monitor.current(), id);
            monitor.switch_to(&mut machine, DomainId::HOST).unwrap();
            assert_eq!(monitor.current(), DomainId::HOST);
        }
    }

    #[test]
    fn switch_cost_stable_in_domain_count() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (first, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        let cost_2 = monitor.switch_to(&mut machine, first).unwrap();
        for _ in 0..99 {
            monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .unwrap();
        }
        assert_eq!(monitor.domain_count(), 101);
        let cost_101 = monitor.switch_to(&mut machine, first).unwrap();
        let ratio = cost_101 as f64 / cost_2 as f64;
        assert!(
            (0.99..=1.01).contains(&ratio),
            "switch cost must be stable: {ratio}"
        );
    }

    #[test]
    fn pmp_flavor_hits_entry_wall() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiPmp);
        let mut created = 0;
        loop {
            match monitor.create_domain(&mut machine, 1 << 20, GmsLabel::Slow) {
                Ok(_) => created += 1,
                Err(MonitorError::OutOfPmpEntries) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(created < 100, "PMP flavour must hit the entry wall");
        }
        assert!(created <= 15, "wall at <16 domains, got {created}");
    }

    #[test]
    fn hpmp_supports_over_100_domains() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        for _ in 0..100 {
            monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .unwrap();
        }
        assert_eq!(monitor.domain_count(), 101);
    }

    #[test]
    fn pmp_flavor_region_limit_per_domain() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiPmp);
        let mut allocated = 0;
        loop {
            match monitor.alloc_region(&mut machine, DomainId::HOST, 64 * 1024, GmsLabel::Slow) {
                Ok(_) => allocated += 1,
                Err(MonitorError::OutOfPmpEntries) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(allocated < 64);
        }
        assert!(
            allocated <= 14,
            "PMP flavour regions bounded by entries: {allocated}"
        );
    }

    #[test]
    fn hpmp_supports_over_100_regions() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        for _ in 0..110 {
            monitor
                .alloc_region(&mut machine, DomainId::HOST, 64 * 1024, GmsLabel::Slow)
                .unwrap();
        }
        assert!(monitor.regions_of(DomainId::HOST).unwrap().len() > 100);
    }

    #[test]
    fn free_region_round_trip() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (region, _) = monitor
            .alloc_region(&mut machine, DomainId::HOST, 64 * 1024, GmsLabel::Slow)
            .unwrap();
        let before = monitor.regions_of(DomainId::HOST).unwrap().len();
        monitor
            .free_region(&mut machine, DomainId::HOST, region.base)
            .unwrap();
        assert_eq!(
            monitor.regions_of(DomainId::HOST).unwrap().len(),
            before - 1
        );
        assert_eq!(
            monitor.free_region(&mut machine, DomainId::HOST, region.base),
            Err(MonitorError::NotOwned)
        );
    }

    #[test]
    fn huge_fill_makes_large_alloc_cheap_for_hpmp() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (_, cost_32m) = monitor
            .alloc_region(&mut machine, DomainId::HOST, 32 << 20, GmsLabel::Slow)
            .unwrap();
        let (mut machine2, mut monitor2) = boot(TeeFlavor::PenglaiPmpt);
        let (_, cost_32m_pmpt) = monitor2
            .alloc_region(&mut machine2, DomainId::HOST, 32 << 20, GmsLabel::Slow)
            .unwrap();
        assert!(
            cost_32m < cost_32m_pmpt / 10,
            "huge fill should be much cheaper: {cost_32m} vs {cost_32m_pmpt}"
        );
    }

    #[test]
    fn destroy_returns_memory_to_host() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (id, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        monitor.switch_to(&mut machine, id).unwrap();
        monitor.destroy_domain(&mut machine, id).unwrap();
        assert_eq!(monitor.current(), DomainId::HOST);
        assert_eq!(monitor.domain_count(), 1);
        assert!(matches!(
            monitor.switch_to(&mut machine, id),
            Err(MonitorError::NoSuchDomain(_))
        ));
    }

    #[test]
    fn relabel_is_registers_only() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (region, _) = monitor
            .alloc_region(&mut machine, DomainId::HOST, 1 << 20, GmsLabel::Slow)
            .unwrap();
        let writes_before = monitor.stats().table_writes;
        monitor
            .relabel(&mut machine, DomainId::HOST, region.base, GmsLabel::Fast)
            .unwrap();
        assert_eq!(
            monitor.stats().table_writes,
            writes_before,
            "no table writes on relabel"
        );
        // And the fast GMS now occupies a segment entry.
        let seg = machine.regs().entry_region(1);
        assert_eq!(seg.map(|r| r.base), Some(region.base));
    }

    #[test]
    fn scrub_repairs_corrupted_registers() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        // Flip bits in entry 1's config (the table entry) and entry 0's
        // address — including a spurious lock bit.
        machine.regs_mut().corrupt_cfg(1, 0b1000_0001);
        machine.regs_mut().corrupt_addr(0, 1 << 20);
        let report = monitor.scrub(&mut machine);
        assert_eq!(report.repaired_registers, 2);
        assert!(report.corrupt_domains.is_empty());
        let clean = monitor.scrub(&mut machine);
        assert!(clean.clean(), "second pass finds nothing: {clean:?}");
        // The monitor segment is intact again.
        let region = machine.regs().entry_region(0).unwrap();
        assert_eq!(region.base, RAM.base);
    }

    #[test]
    fn rebuild_recovers_corrupt_table() {
        use hpmp_core::PmptwCache;
        use hpmp_memsim::{AccessKind, PrivMode};

        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let probe = monitor.regions_of(DomainId::HOST).unwrap()[0].region.base;
        // Find the pmpte the check reads for the probe address and flip a
        // bit in it.
        let pmpte_addr = {
            let check = machine.regs().check(
                machine.phys(),
                &mut PmptwCache::disabled(),
                probe,
                AccessKind::Read,
                PrivMode::Supervisor,
            );
            assert!(check.allowed, "healthy table grants the host base");
            check.refs.last().expect("table walk has refs").addr
        };
        let raw = machine.phys().read_u64(pmpte_addr);
        machine.phys_mut().write_u64(pmpte_addr, raw ^ (1 << 1));
        let report = monitor.scrub(&mut machine);
        assert_eq!(report.corrupt_domains, vec![DomainId::HOST]);
        monitor
            .rebuild_domain_table(&mut machine, DomainId::HOST)
            .expect("rebuild");
        assert!(monitor.scrub(&mut machine).clean());
        let check = machine.regs().check(
            machine.phys(),
            &mut PmptwCache::disabled(),
            probe,
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        assert!(check.allowed, "rebuilt table serves the host again");
    }

    #[test]
    fn oracle_never_grants_less_than_it_should() {
        for flavor in [
            TeeFlavor::PenglaiPmp,
            TeeFlavor::PenglaiPmpt,
            TeeFlavor::PenglaiHpmp,
        ] {
            let (mut machine, mut monitor) = boot(flavor);
            let (id, _) = monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .unwrap();
            let host_base = monitor.regions_of(DomainId::HOST).unwrap()[0].region.base;
            // Host memory beyond the check's probe set: no region starts
            // at the top page, and the enclave must be denied it.
            let top = PhysAddr::new(RAM.end().raw() - PAGE_SIZE);
            for current in [DomainId::HOST, id] {
                monitor.switch_to(&mut machine, current).unwrap();
                let image = [(machine.regs(), current)];
                let violation = monitor.fail_closed_violation(machine.phys(), &image);
                assert_eq!(violation, None, "{flavor} in {current}");
                let stale = monitor.stale_grant(machine.phys(), machine.regs(), current, top);
                assert!(!stale, "{flavor}: fast path grants {top} in {current}");
            }
            // The oracle always denies the monitor's own memory.
            assert!(!monitor.oracle_check_for(id, RAM.base, AccessKind::Read));
            assert!(!monitor.oracle_check_for(id, host_base, AccessKind::Write));
        }
    }

    /// Regression (found by the oracle-lockstep fuzzer): in the PMP
    /// flavour, creating an enclave while the host runs must immediately
    /// install the Keystone-style deny entry in the *running* host image —
    /// not wait for the next switch — and destroying the enclave must drop
    /// it again.
    #[test]
    fn pmp_host_image_tracks_enclave_lifecycle() {
        use hpmp_memsim::PrivMode;

        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiPmp);
        let (id, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        let enclave_base = monitor.regions_of(id).unwrap()[0].region.base;
        // The running host's fast path may grant nothing the host's oracle
        // denies: every enclave region, the new one included.
        let check = |machine: &Machine, monitor: &SecureMonitor| {
            monitor.fail_closed_violation(machine.phys(), &[(machine.regs(), DomainId::HOST)])
        };
        assert_eq!(monitor.current(), DomainId::HOST);
        assert_eq!(check(&machine, &monitor), None, "host keeps the region");
        monitor
            .alloc_region(&mut machine, id, 1 << 16, GmsLabel::Slow)
            .unwrap();
        assert_eq!(check(&machine, &monitor), None, "host keeps the alloc");
        monitor.destroy_domain(&mut machine, id).unwrap();
        let mut cache = PmptwCache::disabled();
        let mode = PrivMode::Supervisor;
        let out = machine.regs().check(
            machine.phys(),
            &mut cache,
            enclave_base,
            AccessKind::Read,
            mode,
        );
        assert!(out.allowed, "destroy must return the region to the host");
    }

    /// Regression (satellite of PR 9): before the region pool, freed and
    /// destroyed regions were never returned to the arena, so repeated
    /// create/destroy of large domains bled it dry. Max-size churn must
    /// reach a fixed point instead.
    #[test]
    fn create_destroy_churn_of_max_size_domains_never_leaks() {
        for flavor in [
            TeeFlavor::PenglaiPmp,
            TeeFlavor::PenglaiPmpt,
            TeeFlavor::PenglaiHpmp,
        ] {
            let (mut machine, mut monitor) = boot(flavor);
            let free0 = monitor.arena_total_free();
            // 256 MiB is the largest NAPOT size that can align inside the
            // 1 GiB test arena more than once.
            for round in 0..20 {
                let (id, _) = monitor
                    .create_domain(&mut machine, 256 << 20, GmsLabel::Slow)
                    .unwrap_or_else(|e| panic!("{flavor} leaked by round {round}: {e}"));
                monitor.destroy_domain(&mut machine, id).unwrap();
                assert_eq!(monitor.arena_total_free(), free0, "{flavor} round {round}");
            }
            assert_eq!(monitor.degrade_stage(), DegradeStage::Normal);
        }
    }

    /// A table write that fails inside `alloc_region` hands everything
    /// back: the pool gets the region again, the host's table grants it
    /// again, the owner's table and the running image deny it, and the
    /// owner is noted for a cross-hart shootdown. The frame pool is left
    /// one frame short of the allocation's needs, so the host's revoke
    /// completes and the owner's grant fails: under PMPT after filling the
    /// first of its two leaf tables, under HPMP at its only one.
    #[test]
    fn a_failed_table_write_gives_the_region_back() {
        use hpmp_core::{PmptwCache, TableError};
        use hpmp_memsim::{AccessKind, PrivMode};

        for (flavor, size) in [
            (TeeFlavor::PenglaiPmpt, 64 << 20),
            (TeeFlavor::PenglaiHpmp, 16 << 20),
        ] {
            let setup = || {
                let (mut machine, mut monitor) = boot(flavor);
                // A first region in a 32 MiB slice of its own, so the
                // owner's grant below needs a new leaf table.
                let (id, _) = monitor
                    .create_domain(&mut machine, 32 << 20, GmsLabel::Slow)
                    .unwrap();
                monitor.switch_to(&mut machine, id).unwrap();
                monitor.take_shootdowns(&mut Vec::new());
                (machine, monitor, id)
            };
            let host_pages = |monitor: &SecureMonitor| {
                monitor
                    .domain(DomainId::HOST)
                    .unwrap()
                    .table
                    .as_ref()
                    .unwrap()
                    .table_pages()
                    .len()
            };

            // The same allocation with frames to spare: where it lands and
            // how many frames the host's revoke and the owner's grant take.
            let (mut machine, mut monitor, id) = setup();
            let (frames, host) = (monitor.table_frames.remaining(), host_pages(&monitor));
            let (region, _) = monitor
                .alloc_region(&mut machine, id, size, GmsLabel::Slow)
                .unwrap();
            let takes = frames - monitor.table_frames.remaining();
            assert!(takes > (host_pages(&monitor) - host) as u64, "{flavor}");

            let (mut machine, mut monitor, id) = setup();
            let free = monitor.arena_total_free();
            let keep = monitor.table_frames.remaining() - (takes - 1);
            let drained: Vec<PhysAddr> = (0..keep)
                .map(|_| monitor.table_frames.alloc().unwrap())
                .collect();
            let err = monitor
                .alloc_region(&mut machine, id, size, GmsLabel::Slow)
                .unwrap_err();
            assert_eq!(
                err,
                MonitorError::Table(TableError::OutOfTableFrames),
                "{flavor}"
            );
            assert_eq!(monitor.arena_total_free(), free, "{flavor}: pool");
            let lookup = |monitor: &SecureMonitor, owner: DomainId, page: PhysAddr| {
                let table = monitor.domain(owner).unwrap().table.as_ref().unwrap();
                table.lookup(machine.phys(), page)
            };
            for page in [region.base, region.end() - PAGE_SIZE] {
                assert_eq!(
                    lookup(&monitor, DomainId::HOST, page),
                    Some(Perms::RWX),
                    "{flavor}"
                );
                assert_eq!(lookup(&monitor, id, page), None, "{flavor}: owner table");
                let running = machine.regs().check(
                    machine.phys(),
                    &mut PmptwCache::disabled(),
                    page,
                    AccessKind::Read,
                    PrivMode::Supervisor,
                );
                assert!(!running.allowed, "{flavor}: running image");
            }
            let mut changed = Vec::new();
            monitor.take_shootdowns(&mut changed);
            assert!(changed.contains(&id), "{flavor}: shootdown");

            // With its frames back, the same request gets the same region.
            for frame in drained {
                monitor.table_frames.release(frame);
            }
            let (again, _) = monitor
                .alloc_region(&mut machine, id, size, GmsLabel::Slow)
                .unwrap();
            assert_eq!(again, region, "{flavor}");
        }
    }

    /// A failed host allocation returns its region to the pool and leaves
    /// the host table as it was: the host's grant only restated RWX.
    #[test]
    fn a_failed_host_allocation_keeps_the_hosts_permissions() {
        use hpmp_core::TableError;

        for flavor in [TeeFlavor::PenglaiPmpt, TeeFlavor::PenglaiHpmp] {
            let size = 16 << 20;
            let (mut machine, mut monitor) = boot(flavor);
            let (region, _) = monitor
                .alloc_region(&mut machine, DomainId::HOST, size, GmsLabel::Slow)
                .unwrap();

            // The same allocation against a corrupt leaf pmpte at the
            // region's last page: the grant writes the pages before it.
            let (mut machine, mut monitor) = boot(flavor);
            let free = monitor.arena_total_free();
            let last = region.end() - PAGE_SIZE;
            let host = monitor.domains[0].table.as_mut().unwrap();
            let frames = &mut monitor.table_frames;
            host.set_page_perm(machine.phys_mut(), frames, last, Perms::RWX)
                .unwrap();
            let leaf = host.walk(machine.phys(), last).refs.last().unwrap().addr;
            let raw = machine.phys().read_u64(leaf);
            machine.phys_mut().write_u64(leaf, raw ^ (1 << 1));
            let err = monitor
                .alloc_region(&mut machine, DomainId::HOST, size, GmsLabel::Slow)
                .unwrap_err();
            assert_eq!(
                err,
                MonitorError::Table(TableError::CorruptEntry(leaf)),
                "{flavor}"
            );
            assert_eq!(monitor.arena_total_free(), free, "{flavor}: pool");
            let host = monitor
                .domain(DomainId::HOST)
                .unwrap()
                .table
                .as_ref()
                .unwrap();
            for page in [region.base, region.base + size / 2] {
                assert_eq!(
                    host.lookup(machine.phys(), page),
                    Some(Perms::RWX),
                    "{flavor}"
                );
            }
        }
    }

    /// A `free_region` whose table write fails loses nothing: with a
    /// corrupt leaf pmpte at the region's last page in the owner's table
    /// the owner keeps the region, and with one in the host's table the
    /// region goes back to the pool. Either way no other domain is granted
    /// any part of it.
    #[test]
    fn a_failed_free_keeps_the_region_owned_or_pooled() {
        use hpmp_core::TableError;
        use hpmp_memsim::AccessKind;

        for flavor in [TeeFlavor::PenglaiPmpt, TeeFlavor::PenglaiHpmp] {
            for corrupt_owner in [true, false] {
                let (mut machine, mut monitor) = boot(flavor);
                let (id, _) = monitor
                    .create_domain(&mut machine, 16 << 20, GmsLabel::Slow)
                    .unwrap();
                let (other, _) = monitor
                    .create_domain(&mut machine, 16 << 20, GmsLabel::Slow)
                    .unwrap();
                let (region, _) = monitor
                    .alloc_region(&mut machine, id, 16 << 20, GmsLabel::Slow)
                    .unwrap();
                let free = monitor.arena_total_free();

                let (table_owner, index) = if corrupt_owner {
                    (id, 1)
                } else {
                    (DomainId::HOST, 0)
                };
                let table = monitor.domains[index].table.as_ref().unwrap();
                assert_eq!(monitor.domains[index].id, table_owner);
                let last = region.end() - PAGE_SIZE;
                let leaf = table.walk(machine.phys(), last).refs.last().unwrap().addr;
                let raw = machine.phys().read_u64(leaf);
                machine.phys_mut().write_u64(leaf, raw ^ (1 << 1));

                let err = monitor
                    .free_region(&mut machine, id, region.base)
                    .unwrap_err();
                let case = format!("{flavor}, corrupt {table_owner:?}");
                assert_eq!(
                    err,
                    MonitorError::Table(TableError::CorruptEntry(leaf)),
                    "{case}"
                );
                let owned = monitor
                    .regions_of(id)
                    .unwrap()
                    .iter()
                    .any(|g| g.region == region);
                let pooled = monitor.arena_total_free() == free + region.size;
                assert_eq!((owned, pooled), (corrupt_owner, !corrupt_owner), "{case}");
                let mut others = vec![other];
                if owned {
                    others.push(DomainId::HOST);
                }
                for page in [region.base, last] {
                    for domain in &others {
                        assert!(
                            !monitor.oracle_check_for(*domain, page, AccessKind::Read),
                            "{case}: {domain:?} granted {page:?}"
                        );
                    }
                }
            }
        }
    }

    /// Table frames are recycled on destroy: table-flavour churn must not
    /// exhaust the 60 MiB table arena either.
    #[test]
    fn destroy_recycles_table_frames() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiPmpt);
        for _ in 0..200 {
            let (id, _) = monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .expect("table frames must recycle");
            monitor.destroy_domain(&mut machine, id).unwrap();
        }
    }

    fn small_boot(flavor: TeeFlavor) -> (Machine, SecureMonitor) {
        // 128 MiB RAM → a 64 MiB region arena: small enough to exhaust.
        let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 128 << 20);
        let mut machine = Machine::new(MachineConfig::rocket());
        let monitor = SecureMonitor::boot(&mut machine, flavor, ram).expect("monitor boots");
        (machine, monitor)
    }

    #[test]
    fn exhaustion_walks_the_degradation_ladder_for_table_flavours() {
        let (mut machine, mut monitor) = small_boot(TeeFlavor::PenglaiHpmp);
        // Three 16 MiB NAPOT allocations fill everything above the first
        // (unaligned, just-under-16 MiB) gap.
        for _ in 0..3 {
            monitor
                .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
                .unwrap();
        }
        assert_eq!(monitor.degrade_stage(), DegradeStage::Normal);
        // A fourth 16 MiB request: no NAPOT fit, compaction can't move the
        // host's own regions, exact-fit needs 16 MiB and the gap is 4 KiB
        // short — admission control.
        let err = monitor
            .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
            .unwrap_err();
        assert!(
            matches!(err, MonitorError::ResourceExhausted { retry_after_ops } if retry_after_ops > 0),
            "want backpressure, got {err:?}"
        );
        assert_eq!(monitor.degrade_stage(), DegradeStage::Admission);
        let snap = monitor.metrics_snapshot();
        assert_eq!(snap.get("monitor.degrade.stage"), Some(3));
        assert_eq!(snap.get("monitor.degrade.enter_stage1"), Some(1));
        assert_eq!(snap.get("monitor.degrade.enter_stage2"), Some(1));
        assert_eq!(snap.get("monitor.degrade.enter_stage3"), Some(1));
        assert_eq!(snap.get("monitor.degrade.rejected"), Some(1));
        // An 8 MiB request fits the gap exactly-fit: served Slow under
        // stage 3, which steps the monitor back to stage 2 — and the label
        // downgrade is forced even when the caller asked for Fast.
        let (region, _) = monitor
            .alloc_region(&mut machine, DomainId::HOST, 8 << 20, GmsLabel::Fast)
            .unwrap();
        assert_eq!(monitor.degrade_stage(), DegradeStage::TableOnly);
        let gms = monitor
            .regions_of(DomainId::HOST)
            .unwrap()
            .iter()
            .find(|g| g.region == region)
            .copied()
            .unwrap();
        assert_eq!(gms.label, GmsLabel::Slow, "stage 2 forces table mode");
        assert_eq!(
            monitor
                .metrics_snapshot()
                .get("monitor.degrade.slow_allocs"),
            Some(1)
        );
    }

    #[test]
    fn hysteresis_repromotes_after_recovery() {
        let (mut machine, mut monitor) = small_boot(TeeFlavor::PenglaiHpmp);
        monitor.set_degradation_policy(DegradationPolicy {
            promote_after: 2,
            healthy_free: 4 << 20,
            retry_after_ops: 16,
        });
        let mut bases = Vec::new();
        for _ in 0..3 {
            let (r, _) = monitor
                .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
                .unwrap();
            bases.push(r.base);
        }
        monitor
            .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
            .unwrap_err();
        assert_eq!(monitor.degrade_stage(), DegradeStage::Admission);
        // Capacity comes back: each free is one healthy settled op.
        for base in bases {
            monitor
                .free_region(&mut machine, DomainId::HOST, base)
                .unwrap();
        }
        // 3 frees at promote_after=2: stage 3 → 2 after the second. Two
        // more no-op settles (allocs) walk it back to normal.
        for _ in 0..4 {
            let (r, _) = monitor
                .alloc_region(&mut machine, DomainId::HOST, 1 << 20, GmsLabel::Slow)
                .unwrap();
            monitor
                .free_region(&mut machine, DomainId::HOST, r.base)
                .unwrap();
        }
        assert_eq!(monitor.degrade_stage(), DegradeStage::Normal);
        assert!(
            monitor
                .metrics_snapshot()
                .get("monitor.degrade.repromotions")
                .unwrap_or(0)
                >= 3
        );
    }

    #[test]
    fn pmp_flavour_skips_the_table_stage() {
        let (mut machine, mut monitor) = small_boot(TeeFlavor::PenglaiPmp);
        for _ in 0..3 {
            monitor
                .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
                .unwrap();
        }
        let err = monitor
            .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
            .unwrap_err();
        assert!(matches!(err, MonitorError::ResourceExhausted { .. }));
        assert_eq!(monitor.degrade_stage(), DegradeStage::Admission);
        let snap = monitor.metrics_snapshot();
        assert_eq!(
            snap.get("monitor.degrade.enter_stage2"),
            Some(0),
            "no table to fall back on"
        );
        // A freed region re-opens the fast path even under stage 3.
        let victim = monitor.regions_of(DomainId::HOST).unwrap()[1].region.base;
        monitor
            .free_region(&mut machine, DomainId::HOST, victim)
            .unwrap();
        monitor
            .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
            .unwrap();
        assert!(monitor.degrade_stage() < DegradeStage::Admission);
    }

    /// Hysteresis boundary: the repromotion step out of admission control
    /// lands on the next rung *of the flavour's own ladder* — table-only
    /// for the table flavours, straight to compacting for PMP (which has
    /// no table-only rung in either direction).
    #[test]
    fn repromotion_out_of_admission_respects_the_flavour_ladder() {
        for (flavor, expect) in [
            (TeeFlavor::PenglaiPmp, DegradeStage::Compacting),
            (TeeFlavor::PenglaiPmpt, DegradeStage::TableOnly),
            (TeeFlavor::PenglaiHpmp, DegradeStage::TableOnly),
        ] {
            let (mut machine, mut monitor) = small_boot(flavor);
            let mut bases = Vec::new();
            for _ in 0..3 {
                let (r, _) = monitor
                    .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
                    .unwrap();
                bases.push(r.base);
            }
            monitor
                .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
                .unwrap_err();
            assert_eq!(monitor.degrade_stage(), DegradeStage::Admission, "{flavor}");
            // One healthy settled op promotes immediately…
            monitor.set_degradation_policy(DegradationPolicy {
                promote_after: 1,
                healthy_free: 1 << 20,
                retry_after_ops: 16,
            });
            monitor
                .free_region(&mut machine, DomainId::HOST, bases[0])
                .unwrap();
            // …and must land on the flavour's own next rung.
            assert_eq!(monitor.degrade_stage(), expect, "{flavor}");
        }
    }

    /// Hysteresis boundary: `healthy_free` is inclusive at the monitor
    /// level — a pool whose largest hole is *exactly* the threshold counts
    /// as healthy, one byte less resets the streak. Checked on both a PMP
    /// and a table flavour, since they settle through different
    /// reprogramming paths.
    #[test]
    fn healthy_free_threshold_is_inclusive_for_both_flavours() {
        for flavor in [TeeFlavor::PenglaiPmp, TeeFlavor::PenglaiHpmp] {
            let (mut machine, mut monitor) = small_boot(flavor);
            let mut bases = Vec::new();
            for _ in 0..3 {
                let (r, _) = monitor
                    .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
                    .unwrap();
                bases.push(r.base);
            }
            monitor
                .alloc_region(&mut machine, DomainId::HOST, 16 << 20, GmsLabel::Slow)
                .unwrap_err();
            assert_eq!(monitor.degrade_stage(), DegradeStage::Admission, "{flavor}");
            // Walk back to the compacting stage, where a successful
            // allocation no longer moves the stage by itself (at admission
            // any served request recovers, which would mask the settle
            // signal under test).
            monitor.set_degradation_policy(DegradationPolicy {
                promote_after: 1,
                healthy_free: 1 << 20,
                retry_after_ops: 16,
            });
            monitor
                .free_region(&mut machine, DomainId::HOST, bases[0])
                .unwrap();
            if flavor != TeeFlavor::PenglaiPmp {
                // The table flavours land on table-only first; one more
                // healthy settle steps them to compacting.
                monitor
                    .free_region(&mut machine, DomainId::HOST, bases[1])
                    .unwrap();
            }
            assert_eq!(
                monitor.degrade_stage(),
                DegradeStage::Compacting,
                "{flavor}"
            );
            let largest = monitor.arena_largest_free();
            assert!(largest >= 16 << 20);

            // Threshold one byte above the actual largest hole: every
            // settle sees an unhealthy pool, so even promote_after=1 never
            // promotes.
            monitor.set_degradation_policy(DegradationPolicy {
                promote_after: 1,
                healthy_free: largest + 1,
                retry_after_ops: 16,
            });
            let (id, _) = monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .unwrap();
            monitor.destroy_domain(&mut machine, id).unwrap();
            assert_eq!(
                monitor.degrade_stage(),
                DegradeStage::Compacting,
                "{flavor}: threshold {largest}+1 must not count as healthy"
            );

            // Exactly at the threshold: the destroy's settle (pool fully
            // restored) is healthy and promotes back to normal.
            monitor.set_degradation_policy(DegradationPolicy {
                promote_after: 1,
                healthy_free: largest,
                retry_after_ops: 16,
            });
            let (id, _) = monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .unwrap();
            monitor.destroy_domain(&mut machine, id).unwrap();
            assert_eq!(
                monitor.degrade_stage(),
                DegradeStage::Normal,
                "{flavor}: the exact threshold must count as healthy"
            );
        }
    }

    #[test]
    fn compaction_relocates_enclaves_and_preserves_their_bytes() {
        use hpmp_core::PmptwCache;
        use hpmp_memsim::PrivMode;

        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        // Equal sizes: lowest-fit would otherwise tuck a smaller region
        // into the alignment gap *below* the first one.
        let (low, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        let (high, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        let old = monitor.regions_of(high).unwrap()[0].region;
        // A canary in the enclave's memory, and a hole below it.
        machine
            .phys_mut()
            .write_u64(old.base, 0xFEED_F00D_CAFE_0001);
        monitor.destroy_domain(&mut machine, low).unwrap();
        let report = monitor.compact(&mut machine, None).unwrap();
        assert_eq!(report.moved_regions, 1);
        assert_eq!(report.moved_pages, (1 << 20) / PAGE_SIZE);
        assert_eq!(report.remaining, 0);
        assert!(report.cycles > CopyCost::DEFAULT.relocation(report.moved_pages));
        let new = monitor.regions_of(high).unwrap()[0].region;
        assert!(new.base < old.base, "slid down: {new:?} vs {old:?}");
        assert_eq!(new.size, old.size);
        assert_eq!(
            machine.phys().read_u64(new.base),
            0xFEED_F00D_CAFE_0001,
            "bytes moved with the region"
        );
        // The fast path agrees with the oracle at both ends of the move.
        monitor.switch_to(&mut machine, high).unwrap();
        for (addr, want) in [(new.base, true), (old.base, false)] {
            let fast = machine
                .regs()
                .check(
                    machine.phys(),
                    &mut PmptwCache::disabled(),
                    addr,
                    AccessKind::Read,
                    PrivMode::Supervisor,
                )
                .allowed;
            assert_eq!(fast, want, "fast path at {addr}");
            assert_eq!(monitor.oracle_check_for(high, addr, AccessKind::Read), want);
        }
        // Idempotent once compacted.
        let again = monitor.compact(&mut machine, None).unwrap();
        assert_eq!(again.moved_regions, 0);
    }

    #[test]
    fn compaction_shifts_sub_gms_with_their_parent() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (low, _) = monitor
            .create_domain(&mut machine, 4 << 20, GmsLabel::Slow)
            .unwrap();
        let (id, _) = monitor
            .create_domain(&mut machine, 4 << 20, GmsLabel::Slow)
            .unwrap();
        let parent = monitor.regions_of(id).unwrap()[0].region;
        let sub = PmpRegion::new(PhysAddr::new(parent.base.raw() + (1 << 20)), 1 << 20);
        monitor
            .label_subregion(&mut machine, id, sub, GmsLabel::Fast)
            .unwrap();
        monitor.destroy_domain(&mut machine, low).unwrap();
        let moved = monitor.compact(&mut machine, None).unwrap();
        assert_eq!(moved.moved_regions, 1, "one top-level move covers both");
        let gmss = monitor.regions_of(id).unwrap();
        let new_parent = gmss[0].region;
        let new_sub = gmss[1].region;
        assert!(new_parent.base < parent.base);
        assert_eq!(
            new_sub.base.raw() - new_parent.base.raw(),
            1 << 20,
            "sub-GMS keeps its offset inside the parent"
        );
    }

    #[test]
    fn pinned_domains_are_not_moved() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (low, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        let (high, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        monitor.pin_domain(high).unwrap();
        monitor.destroy_domain(&mut machine, low).unwrap();
        assert_eq!(
            monitor.compact(&mut machine, None).unwrap().moved_regions,
            0
        );
        monitor.unpin_domain(high);
        assert_eq!(
            monitor.compact(&mut machine, None).unwrap().moved_regions,
            1
        );
    }

    #[test]
    fn budgeted_compaction_stops_mid_pass_and_resumes() {
        let (mut machine, mut monitor) = boot(TeeFlavor::PenglaiHpmp);
        let (low, _) = monitor
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        let mut movers = Vec::new();
        for _ in 0..3 {
            let (id, _) = monitor
                .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
                .unwrap();
            movers.push(id);
        }
        monitor.destroy_domain(&mut machine, low).unwrap();
        let first = monitor.compact(&mut machine, Some(1)).unwrap();
        assert_eq!(first.moved_regions, 1);
        assert!(first.remaining > 0, "budget left work behind");
        let rest = monitor.compact(&mut machine, None).unwrap();
        assert!(rest.moved_regions >= 1);
        assert_eq!(rest.remaining, 0);
    }

    #[test]
    fn monitor_error_sources_chain_to_causes() {
        use std::error::Error;

        let hpmp: MonitorError = hpmp_core::HpmpError::Locked(3).into();
        assert!(hpmp.source().is_some());
        let table: MonitorError = hpmp_core::TableError::OutOfTableFrames.into();
        assert!(table.source().is_some());
        assert!(MonitorError::OutOfMemory.source().is_none());
        assert!(MonitorError::ResourceExhausted { retry_after_ops: 8 }
            .source()
            .is_none());
    }

    #[test]
    fn napot_superset_covers() {
        let r = PmpRegion::new(PhysAddr::new(0x8010_0000), 0x18_0000);
        let sup = napot_superset(r);
        assert!(sup.is_napot());
        assert!(sup.base <= r.base && sup.end() >= r.end());
    }
}
