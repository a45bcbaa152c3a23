//! The HPMP register file and permission checker (§4.2).
//!
//! HPMP keeps PMP's 16 (`addr`, `config`) entry pairs and its static
//! priority: the lowest-numbered entry covering any byte of an access
//! decides. Each entry is either
//!
//! * **segment mode** (`T = 0`): the config register's R/W/X is the
//!   effective permission for the whole region — a zero-memory-reference
//!   check; or
//! * **table mode** (`T = 1`): permissions come from a PMP Table whose root
//!   page is recorded in the *next* entry's address register; the checker
//!   walks the table, reporting each pmpte read to the caller's visitor as
//!   it performs it ([`EntryPlan::check_with`]) or collecting them into
//!   [`CheckOutcome::refs`].
//!
//! An entry whose predecessor is in table mode is a table-pointer register
//! and never participates in address matching. The last entry cannot be in
//! table mode (it has no successor to hold the pointer).

use hpmp_memsim::{AccessKind, Perms, PhysAddr, PrivMode, WordStore};
use hpmp_trace::PmptwOutcome;

use crate::pmp::{napot_decode, napot_encode, AddressMode, PmpConfig, PmpRegion};
use crate::ptw_cache::PmptwCache;
use crate::table::{self, LeafPmpte, PmptRef, PmptRefs, RootPmpte, TableVerdict, ROOT_TABLE_SPAN};

/// Number of HPMP entries in the prototype ("our prototype supports 16
/// entries").
pub const HPMP_ENTRIES: usize = 16;

/// Entry count with the ePMP extension (§4.3: "future RISC-V processors
/// will support 64 PMP entries with the ePMP extension. With 64 entries, a
/// CPU can use 2-level tables to manage 512GB of memory").
pub const EPMP_ENTRIES: usize = 64;

/// Encodes a table pointer for the HPMP address register (Figure 6-b):
/// `Mode = 0` (a 2-level table) in bits 63:62, the root's PPN in bits 43:0.
pub fn table_pointer_encode(root: PhysAddr) -> u64 {
    root.page_number() & ((1 << 44) - 1)
}

/// Decodes a table-pointer address register into the root table's address;
/// `None` for the reserved `Mode` encodings 1, 2 and 3. Bits 61:44 are
/// ignored.
pub fn table_pointer_decode(reg: u64) -> Option<PhysAddr> {
    (reg >> 62 == 0).then(|| PhysAddr::new((reg & ((1 << 44) - 1)) << 12))
}

/// Error from register-file configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HpmpError {
    /// Entry index out of range.
    BadIndex(usize),
    /// The last entry cannot be in table mode.
    LastEntryTableMode,
    /// The entry (or its pointer slot) is locked.
    Locked(usize),
    /// Region cannot be encoded (not NAPOT-representable).
    BadRegion,
    /// The region exceeds the 16 GiB reach of a PMP Table.
    RegionTooLarge,
    /// The successor entry is in use as a matching entry.
    PointerSlotBusy(usize),
    /// Entry `idx` holds an encoding the checker fails closed on (corrupted
    /// register state, a reserved table-pointer mode, table mode on the last
    /// entry, or a table-mode region beyond a table's reach).
    MalformedEntry(usize),
}

impl std::fmt::Display for HpmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HpmpError::BadIndex(i) => write!(f, "HPMP entry index {i} out of range"),
            HpmpError::LastEntryTableMode => f.write_str("last HPMP entry cannot be in table mode"),
            HpmpError::Locked(i) => write!(f, "HPMP entry {i} is locked"),
            HpmpError::BadRegion => f.write_str("region is not NAPOT-encodable"),
            HpmpError::RegionTooLarge => f.write_str("region exceeds PMP-table reach"),
            HpmpError::PointerSlotBusy(i) => {
                write!(f, "entry {i} needed as table pointer but is active")
            }
            HpmpError::MalformedEntry(i) => {
                write!(f, "HPMP entry {i} holds a malformed encoding")
            }
        }
    }
}

impl std::error::Error for HpmpError {}

/// What one HPMP permission check decided. The visitor form of the check
/// ([`EntryPlan::check_with`]) returns it and reports each pmpte read to
/// its visitor as the walk performs it; [`CheckOutcome`] adds the reads,
/// collected into a list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckVerdict {
    /// Whether the access is permitted.
    pub allowed: bool,
    /// The effective permission found (empty when no entry matched).
    pub perms: Perms,
    /// Index of the entry that decided, if any.
    pub matched_entry: Option<usize>,
    /// How the PMPTW-Cache resolved this check: `None` when no PMP Table
    /// walk happened at all (segment mode, M-mode bypass, no match),
    /// `Bypass` when a table walk ran with the cache disabled.
    pub pmptw: Option<PmptwOutcome>,
    /// `true` if the check decoded a malformed encoding — a corrupt pmpte,
    /// a reserved table-pointer mode, a table-mode region beyond a table's
    /// reach, a corrupt config register — and therefore failed closed
    /// (`allowed` is then always `false`).
    pub malformed: bool,
}

impl CheckVerdict {
    /// Full access without a table walk: the M-mode bypass of an unlocked
    /// entry, or M-mode's default when no entry matched.
    const fn machine(matched_entry: Option<usize>) -> CheckVerdict {
        CheckVerdict {
            allowed: true,
            perms: Perms::RWX,
            matched_entry,
            pmptw: None,
            malformed: false,
        }
    }

    /// No entry matched: M-mode has default full access, S/U none.
    fn unmatched(mode: PrivMode) -> CheckVerdict {
        if mode == PrivMode::Machine {
            CheckVerdict::machine(None)
        } else {
            CheckVerdict {
                allowed: false,
                perms: Perms::NONE,
                matched_entry: None,
                pmptw: None,
                malformed: false,
            }
        }
    }

    /// Entry `entry` holds an encoding no legal write produces: fail closed.
    const fn malformed(entry: usize) -> CheckVerdict {
        CheckVerdict {
            allowed: false,
            perms: Perms::NONE,
            matched_entry: Some(entry),
            pmptw: None,
            malformed: true,
        }
    }

    /// Segment-mode entry `entry` decides with its in-register `perms`.
    fn segment(entry: usize, perms: Perms, kind: AccessKind) -> CheckVerdict {
        CheckVerdict {
            allowed: perms.allows(kind),
            perms,
            matched_entry: Some(entry),
            pmptw: None,
            malformed: false,
        }
    }

    /// Table-mode entry `entry` decides with what its table walk found.
    fn table(
        entry: usize,
        kind: AccessKind,
        (walk, pmptw): (TableVerdict, PmptwOutcome),
    ) -> CheckVerdict {
        let perms = walk.perms.unwrap_or(Perms::NONE);
        CheckVerdict {
            allowed: perms.allows(kind),
            perms,
            matched_entry: Some(entry),
            pmptw: Some(pmptw),
            malformed: walk.malformed,
        }
    }
}

/// Outcome of one HPMP permission check, with its pmpte reads collected:
/// a [`CheckVerdict`] plus the list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the access is permitted.
    pub allowed: bool,
    /// The effective permission found (empty when no entry matched).
    pub perms: Perms,
    /// Index of the entry that decided, if any.
    pub matched_entry: Option<usize>,
    /// pmpte memory references performed by the PMP Table walker (empty in
    /// segment mode or on a PMPTW-Cache leaf hit).
    pub refs: PmptRefs,
    /// How the PMPTW-Cache resolved this check (see [`CheckVerdict`]).
    pub pmptw: Option<PmptwOutcome>,
    /// `true` if the check decoded a malformed encoding and failed closed
    /// (see [`CheckVerdict`]).
    pub malformed: bool,
}

impl CheckOutcome {
    /// Runs a visitor-form check, collecting the pmpte reads it reports.
    #[inline]
    fn collect(check: impl FnOnce(&mut PmptRefs) -> CheckVerdict) -> CheckOutcome {
        let mut refs = PmptRefs::new();
        let verdict = check(&mut refs);
        CheckOutcome {
            allowed: verdict.allowed,
            perms: verdict.perms,
            matched_entry: verdict.matched_entry,
            refs,
            pmptw: verdict.pmptw,
            malformed: verdict.malformed,
        }
    }
}

/// The HPMP register file (16 entries in the prototype; up to 64 with the
/// ePMP extension via [`HpmpRegFile::with_entries`]).
///
/// ```
/// use hpmp_core::{HpmpRegFile, PmpRegion, PmptwCache};
/// use hpmp_memsim::{AccessKind, Perms, PhysAddr, PhysMem, PrivMode};
///
/// let mut regs = HpmpRegFile::new();
/// regs.configure_segment(0, PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000_0000),
///                        Perms::RW).unwrap();
/// let mem = PhysMem::new();
/// let mut cache = PmptwCache::disabled();
/// let out = regs.check(&mem, &mut cache, PhysAddr::new(0x8080_0000),
///                      AccessKind::Read, PrivMode::Supervisor);
/// assert!(out.allowed);
/// assert!(out.refs.is_empty()); // segment mode: zero memory references
/// ```
#[derive(Clone, Debug)]
pub struct HpmpRegFile {
    addr: Vec<u64>,
    cfg: Vec<PmpConfig>,
    /// CSR writes performed (the monitor's domain-switch cost metric).
    csr_writes: u64,
    /// Bumped on *every* register mutation — WARL writes, forced restores
    /// and fault-injected corruption alike — so a cached [`EntryPlan`]
    /// knows when its pre-decoded view of the file is stale. Unlike
    /// `csr_writes` this is not an architectural cost metric and is never
    /// reset.
    generation: u64,
}

impl Default for HpmpRegFile {
    fn default() -> HpmpRegFile {
        HpmpRegFile::new()
    }
}

impl HpmpRegFile {
    /// Creates the prototype's 16-entry register file with every entry off.
    pub fn new() -> HpmpRegFile {
        HpmpRegFile::with_entries(HPMP_ENTRIES)
    }

    /// Creates a register file with `entries` entries (16 for the
    /// prototype, [`EPMP_ENTRIES`] for the ePMP variant).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not in `2..=64` — an HPMP file needs at least
    /// one matching entry plus one pointer slot, and the ePMP ceiling is 64.
    pub fn with_entries(entries: usize) -> HpmpRegFile {
        assert!(
            (2..=EPMP_ENTRIES).contains(&entries),
            "HPMP supports 2..=64 entries"
        );
        HpmpRegFile {
            addr: vec![0; entries],
            cfg: vec![PmpConfig::default(); entries],
            csr_writes: 0,
            generation: 0,
        }
    }

    /// Mutation stamp for plan caching: changes whenever any register
    /// changes (including forced restores and injected corruption). A
    /// cached [`EntryPlan`] is valid exactly while this value matches
    /// [`EntryPlan::generation`].
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of entries in this register file.
    #[inline]
    pub fn len(&self) -> usize {
        self.addr.len()
    }

    /// True if the file has no entries (never: construction requires ≥ 2).
    pub fn is_empty(&self) -> bool {
        self.addr.is_empty()
    }

    /// Raw read of an address register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn addr_reg(&self, idx: usize) -> u64 {
        self.addr[idx]
    }

    /// Raw read of a config register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn cfg_reg(&self, idx: usize) -> PmpConfig {
        self.cfg[idx]
    }

    /// Number of CSR writes performed since construction (or
    /// [`HpmpRegFile::reset_csr_writes`]).
    #[inline]
    pub fn csr_writes(&self) -> u64 {
        self.csr_writes
    }

    /// Clears the CSR-write counter.
    pub fn reset_csr_writes(&mut self) {
        self.csr_writes = 0;
    }

    /// Raw WARL write of an address register (M-mode only, enforced by the
    /// caller holding `&mut self`).
    ///
    /// # Errors
    ///
    /// Fails if the entry is locked or out of range.
    #[inline]
    pub fn write_addr(&mut self, idx: usize, value: u64) -> Result<(), HpmpError> {
        if idx >= self.len() {
            return Err(HpmpError::BadIndex(idx));
        }
        if self.cfg[idx].locked() {
            return Err(HpmpError::Locked(idx));
        }
        self.addr[idx] = value;
        self.csr_writes += 1;
        self.generation += 1;
        Ok(())
    }

    /// Raw WARL write of a config register.
    ///
    /// # Errors
    ///
    /// Fails if the entry is locked, out of range, or sets table mode on the
    /// last entry.
    #[inline]
    pub fn write_cfg(&mut self, idx: usize, cfg: PmpConfig) -> Result<(), HpmpError> {
        if idx >= self.len() {
            return Err(HpmpError::BadIndex(idx));
        }
        if self.cfg[idx].locked() {
            return Err(HpmpError::Locked(idx));
        }
        if cfg.table_mode() && idx == self.len() - 1 {
            return Err(HpmpError::LastEntryTableMode);
        }
        self.cfg[idx] = cfg;
        self.csr_writes += 1;
        self.generation += 1;
        Ok(())
    }

    /// Restores an entry to known-good register values, ignoring the lock
    /// bit — the monitor's corruption-recovery path. A physically corrupted
    /// config byte can have a spurious `L` set, which would wedge the
    /// ordinary WARL writes; recovery must be able to overwrite it anyway.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn force_restore(&mut self, idx: usize, addr: u64, cfg: PmpConfig) {
        self.addr[idx] = addr;
        self.cfg[idx] = cfg;
        self.csr_writes += 2;
        self.generation += 1;
    }

    /// Configures entry `idx` as a segment covering `region` with `perms`.
    ///
    /// # Errors
    ///
    /// Fails if the region is not NAPOT-encodable or the entry is locked.
    pub fn configure_segment(
        &mut self,
        idx: usize,
        region: PmpRegion,
        perms: Perms,
    ) -> Result<(), HpmpError> {
        if !region.is_napot() {
            return Err(HpmpError::BadRegion);
        }
        self.write_addr(idx, napot_encode(region.base, region.size))?;
        self.write_cfg(idx, PmpConfig::new(perms, AddressMode::Napot))
    }

    /// Configures entry `idx` in table mode covering `region`, with the PMP
    /// Table rooted at `root`. Entry `idx + 1` becomes the table-pointer
    /// register.
    ///
    /// # Errors
    ///
    /// Fails for the last entry, non-NAPOT regions, regions beyond the
    /// table's reach, or locked entries, and with
    /// [`HpmpError::PointerSlotBusy`] when entry `idx + 1` is active
    /// (address mode not OFF); nothing is written then.
    pub fn configure_table(
        &mut self,
        idx: usize,
        region: PmpRegion,
        root: PhysAddr,
    ) -> Result<(), HpmpError> {
        if idx >= self.len() - 1 {
            return Err(HpmpError::LastEntryTableMode);
        }
        if !region.is_napot() {
            return Err(HpmpError::BadRegion);
        }
        if region.size > ROOT_TABLE_SPAN {
            return Err(HpmpError::RegionTooLarge);
        }
        if self.cfg[idx + 1].address_mode() != AddressMode::Off {
            return Err(HpmpError::PointerSlotBusy(idx + 1));
        }
        self.write_addr(idx, napot_encode(region.base, region.size))?;
        self.write_cfg(
            idx,
            PmpConfig::new(Perms::NONE, AddressMode::Napot).with_table_mode(true),
        )?;
        self.write_addr(idx + 1, table_pointer_encode(root))?;
        // The pointer slot's own config must not match anything.
        self.write_cfg(idx + 1, PmpConfig::new(Perms::NONE, AddressMode::Off))
    }

    /// Programs the isolation layout every HPMP image follows (§4.2, §5,
    /// Figure 6): each `(region, perms)` segment goes into consecutive
    /// entries from `first`, lowest (highest-priority) first, and then, if
    /// `table` is given, one two-level table entry covers its region with
    /// the root in the entry after it. The segments are the fast GMSs, a
    /// cache in front of the table, which is why they come first.
    ///
    /// # Errors
    ///
    /// Fails as [`HpmpRegFile::configure_segment`] and
    /// [`HpmpRegFile::configure_table`] do — in particular with
    /// [`HpmpError::LastEntryTableMode`] when the table would start in the
    /// last entry. Entries written before the failing one keep their new
    /// values.
    pub fn program(
        &mut self,
        first: usize,
        segments: impl IntoIterator<Item = (PmpRegion, Perms)>,
        table: Option<(PmpRegion, PhysAddr)>,
    ) -> Result<(), HpmpError> {
        let mut idx = first;
        for (region, perms) in segments {
            self.configure_segment(idx, region, perms)?;
            idx += 1;
        }
        match table {
            Some((region, root)) => self.configure_table(idx, region, root),
            None => Ok(()),
        }
    }

    /// Disables entry `idx` (and its pointer slot if it was in table mode).
    ///
    /// # Errors
    ///
    /// Fails if the entry is locked or out of range.
    #[inline]
    pub fn disable(&mut self, idx: usize) -> Result<(), HpmpError> {
        if idx >= self.len() {
            return Err(HpmpError::BadIndex(idx));
        }
        let was_table = self.cfg[idx].table_mode();
        self.write_cfg(idx, PmpConfig::new(Perms::NONE, AddressMode::Off))?;
        if was_table {
            self.write_addr(idx + 1, 0)?;
        }
        Ok(())
    }

    /// Switches an existing entry between segment and table interpretation
    /// by flipping only the `T` bit — the paper's "easily switch any entry
    /// between segment and table modes by changing T bit".
    ///
    /// # Errors
    ///
    /// Fails on locked entries or table mode in the last entry.
    pub fn set_table_mode(&mut self, idx: usize, table: bool) -> Result<(), HpmpError> {
        if idx >= self.len() {
            return Err(HpmpError::BadIndex(idx));
        }
        let cfg = self.cfg[idx].with_table_mode(table);
        self.write_cfg(idx, cfg)
    }

    /// The region matched by entry `idx`, if it is active and not a pointer
    /// slot.
    pub fn entry_region(&self, idx: usize) -> Option<PmpRegion> {
        if idx >= self.len() || self.is_pointer_slot(idx) {
            return None;
        }
        match self.cfg[idx].address_mode() {
            AddressMode::Off => None,
            AddressMode::Napot => {
                let (base, size) = napot_decode(self.addr[idx]);
                Some(PmpRegion::new(base, size))
            }
            AddressMode::Na4 => Some(PmpRegion::new(PhysAddr::new(self.addr[idx] << 2), 4)),
            AddressMode::Tor => {
                let top = self.addr[idx] << 2;
                let bottom = if idx == 0 { 0 } else { self.addr[idx - 1] << 2 };
                (top > bottom).then(|| PmpRegion::new(PhysAddr::new(bottom), top - bottom))
            }
        }
    }

    /// True if entry `idx` is consumed as a table-pointer register by its
    /// predecessor.
    pub fn is_pointer_slot(&self, idx: usize) -> bool {
        idx > 0
            && self.cfg[idx - 1].table_mode()
            && self.cfg[idx - 1].address_mode() != AddressMode::Off
    }

    /// Performs the HPMP permission check for one physical access.
    ///
    /// M-mode accesses bypass HPMP unless the matching entry is locked, as
    /// in standard PMP. The pmpte reads performed by the table walker are
    /// returned in [`CheckOutcome::refs`]; the caller charges them to the
    /// cache hierarchy.
    ///
    /// This is the reference checker: it re-decodes every register on every
    /// call, and [`EntryPlan`] is tested against it.
    pub fn check(
        &self,
        mem: &dyn WordStore,
        cache: &mut PmptwCache,
        addr: PhysAddr,
        kind: AccessKind,
        mode: PrivMode,
    ) -> CheckOutcome {
        CheckOutcome::collect(|refs| {
            self.check_with(mem, cache, addr, kind, mode, |r| refs.push(r))
        })
    }

    /// [`HpmpRegFile::check`], reporting each pmpte read to `visit`.
    fn check_with(
        &self,
        mem: &dyn WordStore,
        cache: &mut PmptwCache,
        addr: PhysAddr,
        kind: AccessKind,
        mode: PrivMode,
        visit: impl FnMut(PmptRef),
    ) -> CheckVerdict {
        for idx in 0..self.len() {
            if self.is_pointer_slot(idx) {
                continue;
            }
            let Some(region) = self.entry_region(idx) else {
                continue;
            };
            if !region.contains(addr) {
                continue;
            }
            // Lowest-numbered matching entry decides.
            let cfg = self.cfg[idx];
            if cfg.is_malformed() {
                // A legal WARL write can never set the reserved bit; this is
                // physically corrupted register state. Fail closed.
                return CheckVerdict::malformed(idx);
            }
            if mode == PrivMode::Machine && !cfg.locked() {
                return CheckVerdict::machine(Some(idx));
            }
            if !cfg.table_mode() {
                return CheckVerdict::segment(idx, cfg.perms(), kind);
            }
            // Table mode: walk the PMP Table via the next entry's pointer.
            let Some(root) = self.table_root(idx, region) else {
                return CheckVerdict::malformed(idx);
            };
            let offset = addr.offset_from(region.base);
            let walk = walk_with_cache(mem, cache, idx, root, offset, visit);
            return CheckVerdict::table(idx, kind, walk);
        }
        CheckVerdict::unmatched(mode)
    }

    /// The root of the PMP Table that table-mode entry `idx`, matching
    /// `region`, walks; `None` when the checker must fail closed instead:
    /// the entry is the last (it has no pointer slot, which only register
    /// corruption can produce), its pointer holds a reserved `Mode`, or
    /// `region` exceeds a table's reach (the walk would alias offsets past
    /// 16 GiB onto the pmptes of the first 16 GiB).
    fn table_root(&self, idx: usize, region: PmpRegion) -> Option<PhysAddr> {
        if idx == self.len() - 1 || region.size > ROOT_TABLE_SPAN {
            return None;
        }
        table_pointer_decode(self.addr[idx + 1])
    }

    /// Validates every entry against the invariants a checkable
    /// configuration respects, returning the first violation: a reserved
    /// config bit, table mode on the last entry, a reserved table-pointer
    /// `Mode` (reported at the pointer register), or a table-mode region
    /// beyond a table's reach.
    pub fn validate(&self) -> Result<(), HpmpError> {
        for idx in 0..self.len() {
            let cfg = self.cfg[idx];
            if cfg.is_malformed() {
                return Err(HpmpError::MalformedEntry(idx));
            }
            if cfg.table_mode() {
                if idx == self.len() - 1 {
                    return Err(HpmpError::MalformedEntry(idx));
                }
                if cfg.address_mode() != AddressMode::Off
                    && table_pointer_decode(self.addr[idx + 1]).is_none()
                {
                    return Err(HpmpError::MalformedEntry(idx + 1));
                }
                if self
                    .entry_region(idx)
                    .is_some_and(|region| region.size > ROOT_TABLE_SPAN)
                {
                    return Err(HpmpError::MalformedEntry(idx));
                }
            }
        }
        Ok(())
    }

    /// XORs `mask` into address register `idx`, bypassing every WARL and
    /// lock check — fault injection's model of a physical register upset.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn corrupt_addr(&mut self, idx: usize, mask: u64) {
        self.addr[idx] ^= mask;
        self.generation += 1;
    }

    /// XORs `mask` into config register `idx`, bypassing every WARL and
    /// lock check (including the reserved bit 6 and the last-entry T-bit
    /// rule) — fault injection's model of a physical register upset.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn corrupt_cfg(&mut self, idx: usize, mask: u8) {
        self.cfg[idx] = PmpConfig::from_raw_bits(self.cfg[idx].to_bits() ^ mask);
        self.generation += 1;
    }
}

/// Walks a table-mode entry's PMP Table, consulting the PMPTW-Cache, and
/// reports each pmpte read to `visit` as it happens. A miss refills the
/// cache from the words the walk read.
#[inline]
fn walk_with_cache<M: WordStore + ?Sized>(
    mem: &M,
    cache: &mut PmptwCache,
    entry_idx: usize,
    root: PhysAddr,
    offset: u64,
    mut visit: impl FnMut(PmptRef),
) -> (TableVerdict, PmptwOutcome) {
    if cache.is_disabled() {
        let walk = table::walk_from_root(mem, root, offset, visit);
        return (walk, PmptwOutcome::Bypass);
    }
    // Fast path: leaf pmpte cached => zero references.
    if let Some(perms) = cache.lookup_leaf(entry_idx, offset) {
        return (TableVerdict::found(perms), PmptwOutcome::LeafHit);
    }
    // Root pmpte cached => one reference (the leaf read).
    if let Some(root_pmpte) = cache.lookup_root(entry_idx, offset) {
        let walk = if !root_pmpte.is_valid() {
            TableVerdict::default()
        } else if root_pmpte.is_huge() {
            TableVerdict::found(root_pmpte.perms())
        } else {
            let mut leaf = 0;
            let walk = table::read_leaf(mem, root_pmpte.leaf_table(), offset, |r| {
                leaf = r.bits;
                visit(r);
            });
            // A corrupt leaf behind a cached root fails closed, uncached.
            if !walk.malformed {
                cache.insert_leaf(entry_idx, offset, LeafPmpte::from_bits(leaf));
            }
            walk
        };
        return (walk, PmptwOutcome::RootHit);
    }
    cache.record_miss();
    // The words the walk read, root then leaf: they refill the cache once
    // the walk is known to be well formed, since a corrupt pmpte must stay
    // visible to every re-check.
    let (mut root_word, mut leaf_word) = (None, None);
    let walk = table::walk_from_root(mem, root, offset, |r| {
        if r.is_root {
            root_word = Some(r.bits);
        } else {
            leaf_word = Some(r.bits);
        }
        visit(r);
    });
    if !walk.malformed {
        if let Some(bits) = root_word {
            cache.insert_root(entry_idx, offset, RootPmpte::from_bits(bits));
        }
        if let Some(bits) = leaf_word {
            cache.insert_leaf(entry_idx, offset, LeafPmpte::from_bits(bits));
        }
    }
    (walk, PmptwOutcome::Miss)
}

/// How a planned entry decides an access that its region matched, with
/// everything decodable ahead of time already decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlannedKind {
    /// Config register holds a malformed encoding: fail closed.
    Malformed,
    /// Segment mode: the pre-decoded static permission decides.
    Segment(Perms),
    /// Table mode with a well-formed pointer: walk from the root.
    Table(PhysAddr),
    /// Table mode that [`HpmpRegFile::table_root`] rejects (no pointer
    /// slot, a reserved `Mode`, or a region beyond a table's reach): fail
    /// closed (after the M-mode bypass, exactly as the architectural
    /// checker orders it).
    BadTablePointer,
}

/// One active, pre-decoded HPMP entry in priority order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlannedEntry {
    /// Architectural entry index (for `matched_entry` and cache tags).
    idx: usize,
    /// The matched region, already decoded from NAPOT/NA4/TOR encoding.
    region: PmpRegion,
    /// Lock bit (controls the M-mode bypass).
    locked: bool,
    kind: PlannedKind,
}

/// A batched, pre-decoded permission checker over an [`HpmpRegFile`].
///
/// [`HpmpRegFile::check`] re-decodes every entry — address mode, NAPOT
/// mask, pointer-slot skipping, table-pointer fields — on every single
/// check, even though the register file only changes on CSR writes. A
/// plan performs that decode once: it keeps only the active, matchable
/// entries in priority order with their regions and table roots already
/// extracted, so the per-access work is one pass over the matching
/// entries (a bounds compare and a dispatch each). Register mutations are
/// detected through [`HpmpRegFile::generation`]; a stale plan must be
/// rebuilt with [`EntryPlan::rebuild`] (in place) or replaced by a fresh
/// [`HpmpRegFile::plan`] before use.
///
/// [`EntryPlan::check`] is observably identical to
/// [`HpmpRegFile::check`] — same outcome, same pmpte references, same
/// PMPTW-Cache effects — which the equivalence property test pins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EntryPlan {
    generation: u64,
    entries: Vec<PlannedEntry>,
}

impl HpmpRegFile {
    /// Pre-decodes the register file into a new [`EntryPlan`] stamped
    /// with the current [`HpmpRegFile::generation`].
    pub fn plan(&self) -> EntryPlan {
        let mut plan = EntryPlan::default();
        plan.rebuild(self);
        plan
    }
}

impl EntryPlan {
    /// Re-decodes `regs` into this plan in place, reusing its storage, and
    /// stamps it with `regs`' current generation. The result equals a
    /// fresh [`HpmpRegFile::plan`].
    pub fn rebuild(&mut self, regs: &HpmpRegFile) {
        self.entries.clear();
        for idx in 0..regs.len() {
            if regs.is_pointer_slot(idx) {
                continue;
            }
            let Some(region) = regs.entry_region(idx) else {
                continue;
            };
            let cfg = regs.cfg[idx];
            let kind = if cfg.is_malformed() {
                PlannedKind::Malformed
            } else if !cfg.table_mode() {
                PlannedKind::Segment(cfg.perms())
            } else {
                regs.table_root(idx, region)
                    .map_or(PlannedKind::BadTablePointer, PlannedKind::Table)
            };
            self.entries.push(PlannedEntry {
                idx,
                region,
                locked: cfg.locked(),
                kind,
            });
        }
        self.generation = regs.generation;
    }

    /// The [`HpmpRegFile::generation`] this plan was built from.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// As [`HpmpRegFile::check`], over the pre-decoded entries: a thin
    /// wrapper that collects [`EntryPlan::check_with`]'s pmpte reads.
    pub fn check<M: WordStore + ?Sized>(
        &self,
        mem: &M,
        cache: &mut PmptwCache,
        addr: PhysAddr,
        kind: AccessKind,
        mode: PrivMode,
    ) -> CheckOutcome {
        CheckOutcome::collect(|refs| {
            self.check_with(mem, cache, addr, kind, mode, |r| refs.push(r))
        })
    }

    /// The permission check for one physical access, reporting each pmpte
    /// read to `visit` as the table walk performs it, in issue order. The
    /// access pipeline charges the reads to the memory hierarchy from
    /// inside `visit`, so no list of them is ever built.
    #[inline]
    pub fn check_with<M: WordStore + ?Sized>(
        &self,
        mem: &M,
        cache: &mut PmptwCache,
        addr: PhysAddr,
        kind: AccessKind,
        mode: PrivMode,
        visit: impl FnMut(PmptRef),
    ) -> CheckVerdict {
        for entry in &self.entries {
            if !entry.region.contains(addr) {
                continue;
            }
            // Lowest-numbered matching entry decides; the dispatch order
            // (malformed, M-mode bypass, then mode) mirrors the
            // architectural checker exactly.
            if matches!(entry.kind, PlannedKind::Malformed) {
                return CheckVerdict::malformed(entry.idx);
            }
            if mode == PrivMode::Machine && !entry.locked {
                return CheckVerdict::machine(Some(entry.idx));
            }
            return match entry.kind {
                PlannedKind::Malformed => unreachable!("handled above"),
                PlannedKind::Segment(perms) => CheckVerdict::segment(entry.idx, perms, kind),
                PlannedKind::BadTablePointer => CheckVerdict::malformed(entry.idx),
                PlannedKind::Table(root) => {
                    let offset = addr.offset_from(entry.region.base);
                    let walk = walk_with_cache(mem, cache, entry.idx, root, offset, visit);
                    CheckVerdict::table(entry.idx, kind, walk)
                }
            };
        }
        CheckVerdict::unmatched(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptw_cache::PmptwCacheConfig;
    use crate::table::PmpTable;
    use hpmp_memsim::{FrameAllocator, PhysMem, PAGE_SIZE};

    const S: PrivMode = PrivMode::Supervisor;

    fn table_fixture() -> (PhysMem, PmpTable, HpmpRegFile) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x1_0000_0000), 64 * PAGE_SIZE);
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 28);
        let mut table = PmpTable::new(region, &mut mem, &mut frames).unwrap();
        table
            .set_page_perm(&mut mem, &mut frames, PhysAddr::new(0x9000_2000), Perms::RW)
            .unwrap();
        let mut regs = HpmpRegFile::new();
        regs.configure_table(0, region, table.root()).unwrap();
        (mem, table, regs)
    }

    /// The three checkers under test, each with its own PMPTW-Cache: the
    /// reference [`HpmpRegFile::check`], the plan's visitor form and the
    /// plan's collecting wrapper.
    struct Checkers {
        reference: PmptwCache,
        visitor: PmptwCache,
        wrapper: PmptwCache,
    }

    impl Checkers {
        fn new() -> Checkers {
            Checkers {
                reference: PmptwCache::new(PmptwCacheConfig::ENABLED_8),
                visitor: PmptwCache::new(PmptwCacheConfig::ENABLED_8),
                wrapper: PmptwCache::new(PmptwCacheConfig::ENABLED_8),
            }
        }

        /// Runs one check through all three and asserts they agree: the
        /// refs the visitor received, in order and with their words, the
        /// verdict, and each PMPTW-Cache's stats afterwards. Returns the
        /// reference outcome.
        fn check(
            &mut self,
            regs: &HpmpRegFile,
            plan: &EntryPlan,
            mem: &PhysMem,
            (addr, kind, mode): (PhysAddr, AccessKind, PrivMode),
            what: &str,
        ) -> CheckOutcome {
            let reference = regs.check(mem, &mut self.reference, addr, kind, mode);
            let mut visited = Vec::new();
            let verdict = plan.check_with(mem, &mut self.visitor, addr, kind, mode, |r| {
                visited.push(r)
            });
            let wrapped = plan.check(mem, &mut self.wrapper, addr, kind, mode);
            assert_eq!(reference, wrapped, "wrapper diverges at {what} for {addr}");
            assert_eq!(
                &reference.refs[..],
                &visited[..],
                "visitor refs diverge at {what} for {addr}"
            );
            let expected = CheckVerdict {
                allowed: reference.allowed,
                perms: reference.perms,
                matched_entry: reference.matched_entry,
                pmptw: reference.pmptw,
                malformed: reference.malformed,
            };
            assert_eq!(expected, verdict, "verdict diverges at {what} for {addr}");
            let stats = self.reference.stats();
            assert_eq!(stats, self.visitor.stats(), "visitor cache at {what}");
            assert_eq!(stats, self.wrapper.stats(), "wrapper cache at {what}");
            reference
        }
    }

    /// The pre-decoded [`EntryPlan`] must be observably indistinguishable
    /// from the architectural checker, in both its visitor form and its
    /// collecting wrapper: same verdict, same pmpte refs in the same order,
    /// same PMPTW-Cache evolution — across segment/table/malformed
    /// entries, all access kinds and privilege modes, and through
    /// fault-injected register corruption (which only the generation
    /// stamp can make the plan notice). A closing case corrupts the leaf
    /// pmpte behind a cached root.
    #[test]
    fn plan_check_matches_reference_check_exactly() {
        use hpmp_memsim::SplitMix64;

        let (mut mem, table, mut regs) = table_fixture();
        regs.configure_segment(
            2,
            PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000_0000),
            Perms::RW,
        )
        .unwrap();
        regs.configure_segment(
            3,
            PmpRegion::new(PhysAddr::new(0x4000_0000), 0x1000),
            Perms::RX,
        )
        .unwrap();

        let mut rng = SplitMix64::seed_from_u64(0xE9_7A5);
        let mut checkers = Checkers::new();
        let mut plan = regs.plan();
        let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::Fetch];
        let modes = [PrivMode::User, PrivMode::Supervisor, PrivMode::Machine];
        // Scrubs the file back to the known-good table fixture, as the
        // monitor does after register corruption.
        let restore = |regs: &mut HpmpRegFile| {
            let (_, _, fresh) = table_fixture();
            for idx in 0..regs.len() {
                regs.force_restore(idx, fresh.addr_reg(idx), fresh.cfg_reg(idx));
            }
        };
        for step in 0..4096u64 {
            if step % 97 == 0 {
                let idx = rng.gen_range(0..regs.len() as u64) as usize;
                regs.corrupt_cfg(idx, rng.gen_range(1..256) as u8);
            }
            if step % 193 == 0 {
                let idx = rng.gen_range(0..regs.len() as u64) as usize;
                regs.corrupt_addr(idx, rng.next_u64());
            }
            if step % 611 == 0 {
                // Recover, exercising force_restore invalidation too.
                restore(&mut regs);
                regs.configure_segment(
                    2,
                    PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000_0000),
                    Perms::RW,
                )
                .unwrap();
            }
            if plan.generation() != regs.generation() {
                plan.rebuild(&regs);
                assert_eq!(plan, regs.plan(), "step {step}: in-place rebuild");
            }
            let addr = match step % 4 {
                0 => PhysAddr::new(0x9000_0000 + (rng.gen_range(0..1 << 16) << 12)),
                1 => PhysAddr::new(0x8000_0000 + (rng.gen_range(0..4096) << 12)),
                2 => PhysAddr::new(0x4000_0000 + rng.gen_range(0..0x2000 / 8) * 8),
                _ => PhysAddr::new(rng.gen_range(0..1 << 28) << 8),
            };
            let kind = kinds[(rng.next_u64() % 3) as usize];
            let mode = modes[(rng.next_u64() % 3) as usize];
            let access = (addr, kind, mode);
            checkers.check(&regs, &plan, &mem, access, &format!("step {step}"));
        }

        // A corrupt leaf pmpte behind a cached root. The cold walk meets
        // the corruption and caches nothing, not even its clean root; a
        // sibling span of the same 32 MiB slice primes the root; then
        // every re-check reads the corrupt leaf through the root hit.
        restore(&mut regs);
        let plan = regs.plan();
        let mut checkers = Checkers::new();
        let page = PhysAddr::new(0x9000_2abc);
        let leaf_slot = table.walk(&mem, page).refs[1].addr;
        mem.write_u64(leaf_slot, mem.read_u64(leaf_slot) ^ (1 << 9));
        let mut check = |addr: PhysAddr, what: &str| {
            checkers.check(&regs, &plan, &mem, (addr, AccessKind::Read, S), what)
        };
        let cold = check(page, "corrupt leaf, cold");
        assert!(!cold.allowed && cold.malformed);
        assert_eq!(cold.pmptw, Some(PmptwOutcome::Miss));
        let sibling = check(PhysAddr::new(0x9001_2000), "sibling primes the root");
        assert!(!sibling.malformed);
        assert_eq!(sibling.pmptw, Some(PmptwOutcome::Miss), "root not cached");
        for attempt in 0..2 {
            let via_root = check(page, &format!("corrupt leaf, root hit {attempt}"));
            assert!(!via_root.allowed && via_root.malformed);
            assert_eq!(via_root.pmptw, Some(PmptwOutcome::RootHit));
            assert_eq!(via_root.refs.len(), 1, "only the leaf is read");
            assert_eq!(via_root.refs[0].addr, leaf_slot);
        }
    }

    #[test]
    fn stale_plan_is_detected_by_generation() {
        let mut regs = HpmpRegFile::new();
        regs.configure_segment(
            0,
            PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000),
            Perms::RW,
        )
        .unwrap();
        let plan = regs.plan();
        assert_eq!(plan.generation(), regs.generation());
        // Corruption bypasses the WARL counters but must still stamp.
        regs.corrupt_cfg(0, 0x01);
        assert_ne!(plan.generation(), regs.generation());
        regs.plan(); // rebuilding resynchronizes
        assert_eq!(regs.plan().generation(), regs.generation());
    }

    #[test]
    fn segment_mode_zero_refs() {
        let mut regs = HpmpRegFile::new();
        regs.configure_segment(
            0,
            PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000),
            Perms::RX,
        )
        .unwrap();
        let mem = PhysMem::new();
        let mut cache = PmptwCache::disabled();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x8000_0800),
            AccessKind::Read,
            S,
        );
        assert!(out.allowed);
        assert!(out.refs.is_empty());
        assert_eq!(out.matched_entry, Some(0));
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x8000_0800),
            AccessKind::Write,
            S,
        );
        assert!(!out.allowed);
    }

    #[test]
    fn no_match_denies_s_mode_allows_m_mode() {
        let regs = HpmpRegFile::new();
        let mem = PhysMem::new();
        let mut cache = PmptwCache::disabled();
        let addr = PhysAddr::new(0x1234_5000);
        assert!(
            !regs
                .check(&mem, &mut cache, addr, AccessKind::Read, S)
                .allowed
        );
        assert!(
            regs.check(&mem, &mut cache, addr, AccessKind::Read, PrivMode::Machine)
                .allowed
        );
    }

    #[test]
    fn table_mode_issues_two_refs() {
        let (mem, _table, regs) = table_fixture();
        let mut cache = PmptwCache::disabled();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9000_2abc),
            AccessKind::Read,
            S,
        );
        assert!(out.allowed);
        assert_eq!(out.refs.len(), 2);
        assert_eq!(out.pmptw, Some(PmptwOutcome::Bypass)); // cache disabled
                                                           // A page the table never granted: denied after the walk.
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9000_3000),
            AccessKind::Read,
            S,
        );
        assert!(!out.allowed);
    }

    #[test]
    fn priority_lowest_entry_wins() {
        let (mut mem, _table, mut regs) = table_fixture();
        // Entry 0/1 already hold the table. Put a *higher-priority* segment
        // in front by reconfiguring: move table to 2, segment at 0.
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 28);
        let root = table_pointer_decode(regs.addr_reg(1)).unwrap();
        let mut regs2 = HpmpRegFile::new();
        regs2
            .configure_segment(
                0,
                PmpRegion::new(PhysAddr::new(0x9000_0000), 0x1000_0000),
                Perms::RWX,
            )
            .unwrap();
        regs2.configure_table(2, region, root).unwrap();
        regs = regs2;
        let mut cache = PmptwCache::disabled();
        // Segment (entry 0) matches first: zero refs, allowed even where the
        // table would deny.
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9000_3000),
            AccessKind::Write,
            S,
        );
        assert!(out.allowed);
        assert_eq!(out.matched_entry, Some(0));
        assert!(out.refs.is_empty());
        let _ = &mut mem;
    }

    #[test]
    fn pointer_slot_is_skipped_in_matching() {
        let (mem, _table, regs) = table_fixture();
        assert!(regs.is_pointer_slot(1));
        // Entry 1's addr register holds a PPN that could accidentally match;
        // verify it never decides an access.
        let mut cache = PmptwCache::disabled();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9000_2000),
            AccessKind::Read,
            S,
        );
        assert_eq!(out.matched_entry, Some(0));
    }

    #[test]
    fn last_entry_rejects_table_mode() {
        let mut regs = HpmpRegFile::new();
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 28);
        assert_eq!(
            regs.configure_table(15, region, PhysAddr::new(0x1000)),
            Err(HpmpError::LastEntryTableMode)
        );
        assert_eq!(
            regs.write_cfg(
                15,
                PmpConfig::new(Perms::NONE, AddressMode::Off).with_table_mode(true)
            ),
            Err(HpmpError::LastEntryTableMode)
        );
    }

    /// The segments `program` tests lay out: two RW pools.
    const POOLS: [(PmpRegion, Perms); 2] = [
        (
            PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 20),
            Perms::RW,
        ),
        (
            PmpRegion::new(PhysAddr::new(0x8010_0000), 1 << 20),
            Perms::READ,
        ),
    ];

    #[test]
    fn program_writes_segments_in_consecutive_entries() {
        let mut regs = HpmpRegFile::new();
        regs.program(3, POOLS, None).unwrap();
        for (i, (region, perms)) in POOLS.into_iter().enumerate() {
            assert_eq!(regs.entry_region(3 + i), Some(region));
            assert_eq!(regs.cfg_reg(3 + i).perms(), perms);
            assert!(!regs.cfg_reg(3 + i).table_mode());
        }
        assert_eq!(regs.entry_region(5), None);
        assert_eq!(regs.csr_writes(), 4);
    }

    #[test]
    fn program_puts_the_table_after_the_segments() {
        let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
        let root = PhysAddr::new(0x8100_0000);
        let mut regs = HpmpRegFile::new();
        regs.program(1, POOLS, Some((ram, root))).unwrap();
        assert_eq!(regs.entry_region(1), Some(POOLS[0].0));
        assert_eq!(regs.entry_region(2), Some(POOLS[1].0));
        assert!(regs.cfg_reg(3).table_mode());
        assert_eq!(regs.entry_region(3), Some(ram));
        assert!(regs.is_pointer_slot(4));
        assert_eq!(table_pointer_decode(regs.addr_reg(4)), Some(root));
        assert_eq!(regs.csr_writes(), 8);
    }

    #[test]
    fn program_rejects_a_table_in_the_last_entry() {
        let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
        let mut regs = HpmpRegFile::new();
        let table = Some((ram, PhysAddr::new(0x8100_0000)));
        assert_eq!(
            regs.program(HPMP_ENTRIES - 3, POOLS, table),
            Err(HpmpError::LastEntryTableMode)
        );
        // The segments before it were written; the last entry was not.
        assert_eq!(regs.entry_region(HPMP_ENTRIES - 2), Some(POOLS[1].0));
        assert_eq!(regs.cfg_reg(HPMP_ENTRIES - 1), PmpConfig::default());
    }

    #[test]
    fn locked_entry_rejects_writes_and_constrains_m_mode() {
        let mut regs = HpmpRegFile::new();
        let region = PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000);
        regs.configure_segment(0, region, Perms::READ).unwrap();
        let locked = regs.cfg_reg(0).with_locked();
        regs.write_cfg(0, locked).unwrap();
        assert_eq!(regs.write_addr(0, 0), Err(HpmpError::Locked(0)));
        let mem = PhysMem::new();
        let mut cache = PmptwCache::disabled();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x8000_0000),
            AccessKind::Write,
            PrivMode::Machine,
        );
        assert!(!out.allowed); // locked entry constrains M-mode too
    }

    #[test]
    fn t_bit_flip_switches_modes() {
        let (mem, _table, mut regs) = table_fixture();
        let mut cache = PmptwCache::disabled();
        // Flip entry 0 to segment mode: permission now comes from the config
        // register (NONE), so the access is denied without any refs.
        regs.set_table_mode(0, false).unwrap();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9000_2000),
            AccessKind::Read,
            S,
        );
        assert!(!out.allowed);
        assert!(out.refs.is_empty());
        // Flip back: table checked again.
        regs.set_table_mode(0, true).unwrap();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9000_2000),
            AccessKind::Read,
            S,
        );
        assert!(out.allowed);
        assert_eq!(out.refs.len(), 2);
    }

    #[test]
    fn pmptw_cache_removes_refs() {
        let (mem, _table, regs) = table_fixture();
        let mut cache = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        let addr = PhysAddr::new(0x9000_2abc);
        let cold = regs.check(&mem, &mut cache, addr, AccessKind::Read, S);
        assert_eq!(cold.refs.len(), 2);
        assert_eq!(cold.pmptw, Some(PmptwOutcome::Miss));
        let warm = regs.check(&mem, &mut cache, addr, AccessKind::Read, S);
        assert!(warm.allowed);
        assert_eq!(warm.refs.len(), 0); // leaf pmpte cached
        assert_eq!(warm.pmptw, Some(PmptwOutcome::LeafHit));
        // Same 32 MiB slice, different 64 KiB span: root hit, one ref.
        let near = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9001_2000),
            AccessKind::Read,
            S,
        );
        assert_eq!(near.refs.len(), 1);
        assert_eq!(near.pmptw, Some(PmptwOutcome::RootHit));
    }

    #[test]
    fn corrupt_config_register_fails_closed() {
        let mut regs = HpmpRegFile::new();
        regs.configure_segment(
            0,
            PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000),
            Perms::RWX,
        )
        .unwrap();
        assert!(regs.validate().is_ok());
        // Flip the reserved bit: a state no WARL write can reach.
        regs.corrupt_cfg(0, 1 << 6);
        assert_eq!(regs.validate(), Err(HpmpError::MalformedEntry(0)));
        let mem = PhysMem::new();
        let mut cache = PmptwCache::disabled();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x8000_0800),
            AccessKind::Read,
            S,
        );
        assert!(!out.allowed && out.malformed);
        // Flipping it back restores the entry.
        regs.corrupt_cfg(0, 1 << 6);
        assert!(regs.validate().is_ok());
    }

    #[test]
    fn table_mode_on_last_entry_fails_closed() {
        let mut regs = HpmpRegFile::new();
        regs.configure_segment(
            15,
            PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000),
            Perms::RWX,
        )
        .unwrap();
        regs.corrupt_cfg(15, 1 << 5); // force the T bit the WARL path forbids
        assert_eq!(regs.validate(), Err(HpmpError::MalformedEntry(15)));
        let mem = PhysMem::new();
        let mut cache = PmptwCache::disabled();
        let out = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x8000_0800),
            AccessKind::Read,
            S,
        );
        assert!(
            !out.allowed && out.malformed,
            "must not index past the file"
        );
    }

    #[test]
    fn reserved_pointer_mode_fails_closed() {
        let page = PhysAddr::new(0x9000_2000);
        for mode in 1..=3u64 {
            for warmed in [false, true] {
                let (mem, _table, mut regs) = table_fixture();
                let cache = || match warmed {
                    true => PmptwCache::new(PmptwCacheConfig::ENABLED_8),
                    false => PmptwCache::disabled(),
                };
                let (mut reference, mut planned) = (cache(), cache());
                if warmed {
                    // At `Mode = 0` the page is granted and its root and
                    // leaf pmptes are cached.
                    let plan = regs.plan();
                    assert!(
                        regs.check(&mem, &mut reference, page, AccessKind::Read, S)
                            .allowed
                    );
                    assert!(
                        plan.check(&mem, &mut planned, page, AccessKind::Read, S)
                            .allowed
                    );
                }
                // Corrupt the pointer register's Mode field to a reserved
                // encoding.
                regs.corrupt_addr(1, mode << 62);
                assert_eq!(regs.addr_reg(1) >> 62, mode);
                assert_eq!(regs.validate(), Err(HpmpError::MalformedEntry(1)));
                let plan = regs.plan();
                for out in [
                    regs.check(&mem, &mut reference, page, AccessKind::Read, S),
                    plan.check(&mem, &mut planned, page, AccessKind::Read, S),
                ] {
                    let what = format!("Mode = {mode}, warmed cache: {warmed}");
                    assert!(!out.allowed && out.malformed, "{what}");
                    assert_eq!(out.matched_entry, Some(0), "{what}");
                    assert!(out.refs.is_empty(), "{what}");
                }
            }
        }
    }

    /// A table-mode region above the 16 GiB reach would alias: the access
    /// at `base + 16 GiB` would read the pmptes of `base`. Every checker
    /// fails closed on it instead, whether it was built through raw
    /// register writes or pushed into the IOPMP.
    #[test]
    fn table_region_beyond_reach_fails_closed() {
        use crate::iopmp::{DeviceId, IoPmp, IoPmpEntry, IoPmpMode};

        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x1_0000_0000), 4 * PAGE_SIZE);
        let base = PhysAddr::new(32 << 30);
        let region = PmpRegion::new(base, 32 << 30);
        // A table over the first 16 GiB that grants page 0 RW.
        let reach = PmpRegion::new(base, ROOT_TABLE_SPAN);
        let mut table = PmpTable::new(reach, &mut mem, &mut frames).unwrap();
        table
            .set_page_perm(&mut mem, &mut frames, base, Perms::RW)
            .unwrap();
        let aliased = base + ROOT_TABLE_SPAN;

        let mut iopmp = IoPmp::new();
        iopmp.push(IoPmpEntry {
            source_mask: 1,
            region,
            mode: IoPmpMode::Table { root: table.root() },
        });
        for addr in [aliased, base] {
            let dma = iopmp.check(&mem, DeviceId(0), addr, AccessKind::Read);
            assert!(!dma.allowed && dma.malformed, "DMA to {addr}");
            assert_eq!(dma.matched_entry, Some(0));
            assert!(dma.refs.is_empty());
        }

        let mut regs = HpmpRegFile::new();
        assert_eq!(
            regs.configure_table(0, region, table.root()),
            Err(HpmpError::RegionTooLarge)
        );
        regs.write_addr(0, napot_encode(region.base, region.size))
            .unwrap();
        let cfg = PmpConfig::new(Perms::NONE, AddressMode::Napot).with_table_mode(true);
        regs.write_cfg(0, cfg).unwrap();
        regs.write_addr(1, table_pointer_encode(table.root()))
            .unwrap();
        assert_eq!(regs.entry_region(0), Some(region));
        assert_eq!(regs.validate(), Err(HpmpError::MalformedEntry(0)));
        let plan = regs.plan();
        let mut cache = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        for addr in [aliased, base] {
            for out in [
                regs.check(&mem, &mut cache, addr, AccessKind::Read, S),
                plan.check(&mem, &mut cache, addr, AccessKind::Read, S),
            ] {
                assert!(!out.allowed && out.malformed, "CPU read of {addr}");
                assert_eq!(out.matched_entry, Some(0));
                assert!(out.refs.is_empty());
            }
        }
    }

    #[test]
    fn corrupt_pmpte_fails_closed_even_behind_cached_root() {
        let (mut mem, table, regs) = table_fixture();
        let mut cache = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
        let addr = PhysAddr::new(0x9000_2abc);
        let cold = regs.check(&mem, &mut cache, addr, AccessKind::Read, S);
        assert!(cold.allowed);
        let leaf_slot = cold.refs[1].addr;
        // Corrupt the leaf pmpte in DRAM, then look at a *different* page of
        // the same 32 MiB slice so the root stays cached but the leaf is
        // re-read from memory.
        mem.write_u64(leaf_slot, mem.read_u64(leaf_slot) ^ (1 << 9));
        cache.flush_all();
        let warm = regs.check(&mem, &mut cache, addr, AccessKind::Read, S);
        assert!(!warm.allowed && warm.malformed, "uncached path");
        // Prime the root again via a clean sibling span, then hit the
        // corrupt leaf through the root-hit path.
        let sibling = regs.check(
            &mem,
            &mut cache,
            PhysAddr::new(0x9001_2000),
            AccessKind::Read,
            S,
        );
        assert!(!sibling.allowed); // unmapped sibling, but primes the root
        let via_root = regs.check(&mem, &mut cache, addr, AccessKind::Read, S);
        assert!(
            !via_root.allowed && via_root.malformed,
            "root-hit path must validate the leaf read"
        );
        let _ = table;
    }

    #[test]
    fn table_pointer_encoding_round_trip() {
        let root = PhysAddr::new(0x8_1234_5000);
        let reg = table_pointer_encode(root);
        assert_eq!(reg >> 62, 0, "the encoder writes Mode = 0");
        assert_eq!(table_pointer_decode(reg), Some(root));
        // Bits 61:44 are ignored.
        assert_eq!(table_pointer_decode(reg | (0x3_ffff << 44)), Some(root));
        for mode in 1..=3u64 {
            assert_eq!(table_pointer_decode(reg | (mode << 62)), None);
        }
    }

    #[test]
    fn tor_region_matching() {
        let mut regs = HpmpRegFile::new();
        regs.write_addr(0, 0x8000_0000 >> 2).unwrap();
        regs.write_addr(1, 0x8001_0000 >> 2).unwrap();
        regs.write_cfg(1, PmpConfig::new(Perms::RW, AddressMode::Tor))
            .unwrap();
        let region = regs.entry_region(1).unwrap();
        assert_eq!(region.base, PhysAddr::new(0x8000_0000));
        assert_eq!(region.size, 0x1_0000);
    }

    #[test]
    fn epmp_file_sizes() {
        let small = HpmpRegFile::with_entries(2);
        assert_eq!(small.len(), 2);
        let big = HpmpRegFile::with_entries(64);
        assert_eq!(big.len(), 64);
        assert!(!big.is_empty());
        // Entry 63 exists; 64 does not.
        let mut big = big;
        assert!(big.write_addr(63, 1).is_ok());
        assert_eq!(big.write_addr(64, 1), Err(HpmpError::BadIndex(64)));
    }

    #[test]
    #[should_panic(expected = "2..=64")]
    fn oversized_file_rejected() {
        HpmpRegFile::with_entries(65);
    }

    #[test]
    fn unmatched_na4_entry() {
        let mut regs = HpmpRegFile::new();
        regs.write_addr(0, 0x8000_0000 >> 2).unwrap();
        regs.write_cfg(0, PmpConfig::new(Perms::READ, AddressMode::Na4))
            .unwrap();
        let region = regs.entry_region(0).unwrap();
        assert_eq!(region.size, 4);
        assert!(region.contains(PhysAddr::new(0x8000_0003)));
        assert!(!region.contains(PhysAddr::new(0x8000_0004)));
    }

    #[test]
    fn tor_with_inverted_bounds_is_inactive() {
        let mut regs = HpmpRegFile::new();
        regs.write_addr(0, 0x9000_0000 >> 2).unwrap();
        regs.write_addr(1, 0x8000_0000 >> 2).unwrap(); // top below bottom
        regs.write_cfg(1, PmpConfig::new(Perms::RW, AddressMode::Tor))
            .unwrap();
        assert_eq!(regs.entry_region(1), None);
    }

    #[test]
    fn csr_write_accounting() {
        let mut regs = HpmpRegFile::new();
        regs.configure_segment(
            0,
            PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000),
            Perms::RW,
        )
        .unwrap();
        assert_eq!(regs.csr_writes(), 2); // addr + cfg
        regs.reset_csr_writes();
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 28);
        regs.configure_table(2, region, PhysAddr::new(0x1000))
            .unwrap();
        assert_eq!(regs.csr_writes(), 4); // addr+cfg for entry, addr+cfg for pointer
    }
}
