//! The PMP Table: a 2-level radix permission table (§4.3, Figure 6).
//!
//! A PMP Table maps *offsets within a protected region* to per-4 KiB-page
//! permissions:
//!
//! * The **root table** is one 4 KiB page of 512 root pmptes; each root pmpte
//!   either points at a leaf table or carries "huge" R/W/X permissions for
//!   its whole 32 MiB slice (the segment-as-huge-page insight).
//! * A **leaf table** is one 4 KiB page of 512 leaf pmptes; each 64-bit leaf
//!   pmpte packs sixteen 4-bit permission nibbles, one per 4 KiB page, so one
//!   leaf pmpte covers 64 KiB and one leaf table covers 32 MiB.
//!
//! A table therefore reaches 512 × 32 MiB = 16 GiB ([`ROOT_TABLE_SPAN`]),
//! matching the paper's sizing argument. The offset split (Figure 6-e) is
//! `OFF[1] = offset[33:25]`, `OFF[0] = offset[24:16]`,
//! `PageIndex = offset[15:12]`, `PageOffset = offset[11:0]`.
//!
//! Two levels is the only depth. Figure 6-b defines one table-pointer
//! encoding, `Mode = 0`, and reserves the rest, so a walk is at most two
//! pmpte reads: the root, then (behind a pointer) the leaf. A table-mode
//! entry whose region exceeds the reach would alias offsets past 16 GiB
//! onto the pmptes of the first 16 GiB, so every checker treats it as
//! malformed and fails closed.
//!
//! ## Integrity encoding
//!
//! pmptes live in attacker-adjacent DRAM, so both formats dedicate their
//! reserved bits to an even-parity code the walker checks on every decode:
//!
//! * each leaf nibble's bit 3 is the parity of its three permission bits,
//!   so every nibble has even parity;
//! * a root pmpte's bit 63 is the parity of bits 0–62, and the remaining
//!   reserved bits (4–12 and 49–62) must read zero.
//!
//! The all-zero encoding stays valid (an invalid/deny-all entry), and any
//! single-bit corruption of a stored pmpte is guaranteed to decode as
//! [`MalformedPmpte`] — the walker then fails closed instead of granting.

use hpmp_memsim::{FrameAllocator, InlineVec, Perms, PhysAddr, WordStore, PAGE_SHIFT, PAGE_SIZE};

use crate::pmp::PmpRegion;

/// Bytes of region covered by one leaf pmpte (16 × 4 KiB).
pub const LEAF_PMPTE_SPAN: u64 = 16 * PAGE_SIZE;
/// Bytes of region covered by one leaf table page (512 leaf pmptes).
pub const LEAF_TABLE_SPAN: u64 = 512 * LEAF_PMPTE_SPAN; // 32 MiB
/// Bytes of region covered by a full 2-level PMP Table (512 root pmptes).
pub const ROOT_TABLE_SPAN: u64 = 512 * LEAF_TABLE_SPAN; // 16 GiB

/// Why a raw pmpte failed validation (see the module-level integrity
/// encoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MalformedPmpte {
    /// Reserved bits of a root pmpte read non-zero.
    ReservedBits(u64),
    /// The parity code does not match the payload bits.
    ParityMismatch(u64),
}

impl std::fmt::Display for MalformedPmpte {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MalformedPmpte::ReservedBits(bits) => {
                write!(f, "pmpte {bits:#018x} has reserved bits set")
            }
            MalformedPmpte::ParityMismatch(bits) => {
                write!(f, "pmpte {bits:#018x} fails its parity check")
            }
        }
    }
}

impl std::error::Error for MalformedPmpte {}

/// A decoded root pmpte (Figure 6-c).
///
/// `V = 0` means invalid (access fails). With `V = 1`, all-zero R/W/X makes
/// the entry a pointer to a leaf table; otherwise the R/W/X bits are the
/// final ("huge") permission for the whole 32 MiB slice. Bit 63 carries the
/// parity of bits 0–62; bits 4–12 and 49–62 are reserved-zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RootPmpte {
    bits: u64,
}

impl RootPmpte {
    const V: u64 = 1 << 0;
    const R: u64 = 1 << 1;
    const W: u64 = 1 << 2;
    const X: u64 = 1 << 3;
    const PPN_SHIFT: u32 = 13;
    const PPN_MASK: u64 = (1 << 36) - 1;
    const PARITY: u64 = 1 << 63;
    /// Bits 4–12 and 49–62: neither flag, PPN, nor parity.
    const RESERVED: u64 = !(Self::V
        | Self::R
        | Self::W
        | Self::X
        | (Self::PPN_MASK << Self::PPN_SHIFT)
        | Self::PARITY);

    /// The invalid entry.
    pub const INVALID: RootPmpte = RootPmpte { bits: 0 };

    /// Decodes a raw entry without validation (hardware never stores a
    /// malformed pmpte; use [`RootPmpte::decode`] for bits read back from
    /// DRAM).
    pub const fn from_bits(bits: u64) -> RootPmpte {
        RootPmpte { bits }
    }

    /// Decodes and validates a raw entry read from memory, rejecting
    /// reserved-bit and parity violations.
    pub const fn decode(bits: u64) -> Result<RootPmpte, MalformedPmpte> {
        if bits & Self::RESERVED != 0 {
            return Err(MalformedPmpte::ReservedBits(bits));
        }
        if bits.count_ones() & 1 != 0 {
            return Err(MalformedPmpte::ParityMismatch(bits));
        }
        Ok(RootPmpte { bits })
    }

    /// True if the raw encoding violates the integrity code.
    pub const fn is_malformed(self) -> bool {
        self.bits & Self::RESERVED != 0 || self.bits.count_ones() & 1 != 0
    }

    /// Raw encoding.
    pub const fn to_bits(self) -> u64 {
        self.bits
    }

    /// Sets bit 63 so the whole word has even parity.
    const fn sealed(bits: u64) -> u64 {
        bits | (((bits & !Self::PARITY).count_ones() as u64 & 1) << 63)
    }

    /// Builds a pointer to the leaf table page at `leaf`.
    pub fn pointer(leaf: PhysAddr) -> RootPmpte {
        RootPmpte {
            bits: Self::sealed(
                Self::V | ((leaf.page_number() & Self::PPN_MASK) << Self::PPN_SHIFT),
            ),
        }
    }

    /// Builds a huge-permission entry covering the whole 32 MiB slice.
    ///
    /// # Panics
    ///
    /// Panics if `perms` is empty (that encoding would decode as a pointer).
    pub fn huge(perms: Perms) -> RootPmpte {
        assert!(
            !perms.is_empty(),
            "huge root pmpte needs a non-empty permission"
        );
        let mut bits = Self::V;
        if perms.can_read() {
            bits |= Self::R;
        }
        if perms.can_write() {
            bits |= Self::W;
        }
        if perms.can_exec() {
            bits |= Self::X;
        }
        RootPmpte {
            bits: Self::sealed(bits),
        }
    }

    /// True if the V bit is set.
    pub const fn is_valid(self) -> bool {
        self.bits & Self::V != 0
    }

    /// True if this is a valid pointer to a leaf table.
    pub const fn is_pointer(self) -> bool {
        self.is_valid() && self.bits & (Self::R | Self::W | Self::X) == 0
    }

    /// True if this is a valid huge-permission entry.
    pub const fn is_huge(self) -> bool {
        self.is_valid() && self.bits & (Self::R | Self::W | Self::X) != 0
    }

    /// The huge permission (meaningful when [`RootPmpte::is_huge`]).
    ///
    /// The R/W/X field (bits 3:1) uses the same bit order as
    /// [`Perms`], so decode is a single shift-and-mask — no per-bit
    /// branching on the permission-check hot path.
    pub const fn perms(self) -> Perms {
        Perms::from_bits_truncate((self.bits >> 1) as u8)
    }

    /// Base address of the leaf table (meaningful when
    /// [`RootPmpte::is_pointer`]).
    pub fn leaf_table(self) -> PhysAddr {
        PhysAddr::new(((self.bits >> Self::PPN_SHIFT) & Self::PPN_MASK) << PAGE_SHIFT)
    }
}

/// A decoded leaf pmpte (Figure 6-d): sixteen 4-bit permission nibbles.
/// Each nibble's bit 3 is the parity of its three permission bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct LeafPmpte {
    bits: u64,
}

impl LeafPmpte {
    /// Encodes one permission nibble with its parity bit.
    const fn nibble(perms: Perms) -> u64 {
        let p = perms.bits() as u64;
        p | (((p ^ (p >> 1) ^ (p >> 2)) & 1) << 3)
    }

    /// Decodes a raw entry without validation (use [`LeafPmpte::decode`]
    /// for bits read back from DRAM).
    pub const fn from_bits(bits: u64) -> LeafPmpte {
        LeafPmpte { bits }
    }

    /// Decodes and validates a raw entry read from memory: every nibble
    /// must have even parity.
    pub const fn decode(bits: u64) -> Result<LeafPmpte, MalformedPmpte> {
        let entry = LeafPmpte { bits };
        if entry.is_malformed() {
            return Err(MalformedPmpte::ParityMismatch(bits));
        }
        Ok(entry)
    }

    /// True if any nibble violates its parity bit.
    pub const fn is_malformed(self) -> bool {
        // Fold each nibble onto its own low bit: a nibble with odd parity
        // leaves a 1 behind.
        let folded = self.bits ^ (self.bits >> 1) ^ (self.bits >> 2) ^ (self.bits >> 3);
        folded & 0x1111_1111_1111_1111 != 0
    }

    /// Raw encoding.
    pub const fn to_bits(self) -> u64 {
        self.bits
    }

    /// Nibble-value → permission lookup table: strips the parity bit
    /// without any per-bit matching, so leaf decode on the hot path is a
    /// shift, a mask and one indexed load.
    const NIBBLE_PERMS: [Perms; 16] = {
        let mut table = [Perms::NONE; 16];
        let mut nibble = 0u8;
        while nibble < 16 {
            table[nibble as usize] = Perms::from_bits_truncate(nibble);
            nibble += 1;
        }
        table
    };

    /// Permission of page `index` (0–15) within this pmpte's 64 KiB span.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn perm(self, index: usize) -> Perms {
        assert!(index < 16, "leaf pmpte holds 16 page permissions");
        Self::NIBBLE_PERMS[((self.bits >> (index * 4)) & 0xf) as usize]
    }

    /// Returns a copy with page `index`'s permission replaced.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn with_perm(self, index: usize, perms: Perms) -> LeafPmpte {
        self.with_perm_run(index, 1, perms)
    }

    /// Returns a copy with pages `first..first + count` all set to `perms`.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty or reaches past page 15.
    pub fn with_perm_run(self, first: usize, count: usize, perms: Perms) -> LeafPmpte {
        assert!(
            count > 0 && first + count <= 16,
            "leaf pmpte holds 16 page permissions"
        );
        let mask = (u64::MAX >> (64 - 4 * count)) << (4 * first);
        LeafPmpte {
            bits: (self.bits & !mask) | (Self::splat(perms).bits & mask),
        }
    }

    /// Builds a pmpte with the same permission for all 16 pages.
    pub const fn splat(perms: Perms) -> LeafPmpte {
        LeafPmpte {
            bits: Self::nibble(perms) * 0x1111_1111_1111_1111,
        }
    }
}

/// Decomposition of a region offset per Figure 6-e.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableOffset {
    /// Index into the root table (`offset[33:25]`).
    pub off1: u64,
    /// Index into the leaf table (`offset[24:16]`).
    pub off0: u64,
    /// Which nibble of the leaf pmpte (`offset[15:12]`).
    pub page_index: usize,
}

impl TableOffset {
    /// Splits a byte offset within the protected region.
    pub const fn split(offset: u64) -> TableOffset {
        TableOffset {
            off1: (offset >> 25) & 0x1ff,
            off0: (offset >> 16) & 0x1ff,
            page_index: ((offset >> 12) & 0xf) as usize,
        }
    }
}

/// How [`PmpTable::set_range_perm`] materialises a range's permissions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FillPolicy {
    /// One nibble per 4 KiB page — a faithful per-page fill.
    #[default]
    PerPage,
    /// Collapse aligned 32 MiB runs into one root pmpte each: huge, or
    /// invalid for no permission.
    HugeWhenAligned,
}

/// Error from PMP Table management operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableError {
    /// The offset lies outside the 16 GiB reach of a 2-level table.
    OutOfReach(u64),
    /// No frames left for table pages.
    OutOfTableFrames,
    /// The address is not page aligned.
    Misaligned(PhysAddr),
    /// The address is outside the region the table protects.
    OutsideRegion(PhysAddr),
    /// A pmpte read back from DRAM failed its integrity check; the address
    /// is the corrupt slot.
    CorruptEntry(PhysAddr),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::OutOfReach(off) => {
                write!(
                    f,
                    "offset {off:#x} beyond the 16 GiB reach of a 2-level PMP table"
                )
            }
            TableError::OutOfTableFrames => f.write_str("out of PMP-table frames"),
            TableError::Misaligned(pa) => write!(f, "address {pa} not page aligned"),
            TableError::OutsideRegion(pa) => write!(f, "address {pa} outside protected region"),
            TableError::CorruptEntry(pa) => {
                write!(f, "pmpte at {pa} failed its integrity check")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// One pmpte read performed by the PMP Table walker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmptRef {
    /// `true` for a root pmpte, `false` for a leaf pmpte.
    pub is_root: bool,
    /// Physical address of the pmpte.
    pub addr: PhysAddr,
    /// The raw pmpte word that was read.
    pub bits: u64,
}

/// The pmpte reads of one table walk, stored inline: at most the root
/// pmpte and the leaf pmpte.
pub type PmptRefs = InlineVec<PmptRef, 2>;

/// What a PMP Table walk decided, without its pmpte reads: the walker
/// reports those to its visitor as it performs them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TableVerdict {
    /// The permission found, or `None` if the walk hit an invalid entry.
    pub(crate) perms: Option<Perms>,
    /// `true` if the walk read a pmpte that failed its integrity check
    /// (`perms` is then `None`: the walker fails closed).
    pub(crate) malformed: bool,
}

impl TableVerdict {
    /// A walk that read a corrupt pmpte.
    pub(crate) const MALFORMED: TableVerdict = TableVerdict {
        perms: None,
        malformed: true,
    };

    /// A well-formed walk that found `perms`; an empty permission denies.
    pub(crate) fn found(perms: Perms) -> TableVerdict {
        TableVerdict {
            perms: (!perms.is_empty()).then_some(perms),
            malformed: false,
        }
    }
}

/// Outcome of walking a PMP Table for one physical address, with the pmpte
/// reads collected into a list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableWalk {
    /// pmpte reads performed, in order (≤ 2 for a 2-level table).
    pub refs: PmptRefs,
    /// The permission found, or `None` if the walk hit an invalid entry.
    pub perms: Option<Perms>,
    /// `true` if the walk read a pmpte that failed its integrity check
    /// (`perms` is then `None`: the walker fails closed).
    pub malformed: bool,
}

/// A 2-level PMP Table protecting one contiguous region.
///
/// ```
/// use hpmp_core::PmpTable;
/// use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, PhysMem, PAGE_SIZE};
///
/// let mut mem = PhysMem::new();
/// let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
/// let region = hpmp_core::PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 30);
/// let mut table = PmpTable::new(region, &mut mem, &mut frames).unwrap();
/// table.set_page_perm(&mut mem, &mut frames, PhysAddr::new(0x9000_2000), Perms::RW).unwrap();
/// let walk = table.walk(&mem, PhysAddr::new(0x9000_2abc));
/// assert_eq!(walk.perms, Some(Perms::RW));
/// assert_eq!(walk.refs.len(), 2); // root pmpte + leaf pmpte
/// ```
#[derive(Clone, Debug)]
pub struct PmpTable {
    region: PmpRegion,
    root: PhysAddr,
    table_pages: Vec<PhysAddr>,
}

impl PmpTable {
    /// Creates an empty (all-invalid) table for `region`, allocating the
    /// root page.
    ///
    /// # Errors
    ///
    /// Fails if `region` exceeds the 16 GiB reach or frames run out.
    pub fn new(
        region: PmpRegion,
        mem: &mut dyn WordStore,
        frames: &mut FrameAllocator,
    ) -> Result<PmpTable, TableError> {
        if region.size > ROOT_TABLE_SPAN {
            return Err(TableError::OutOfReach(region.size));
        }
        let root = frames.alloc().ok_or(TableError::OutOfTableFrames)?;
        mem.zero_page(root);
        Ok(PmpTable {
            region,
            root,
            table_pages: vec![root],
        })
    }

    /// The region this table protects.
    pub fn region(&self) -> PmpRegion {
        self.region
    }

    /// Physical base of the root table page (what the next HPMP entry's
    /// `addr` register records).
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// All table pages (root first) — the monitor protects these with its
    /// own private segment.
    pub fn table_pages(&self) -> &[PhysAddr] {
        &self.table_pages
    }

    /// Sets the permission of the 4 KiB page containing `addr`: the
    /// one-page case of [`PmpTable::set_range_perm`].
    ///
    /// # Errors
    ///
    /// Fails if `addr` is outside the region, frames run out, or a pmpte on
    /// the path fails its integrity check.
    pub fn set_page_perm(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut FrameAllocator,
        addr: PhysAddr,
        perms: Perms,
    ) -> Result<(), TableError> {
        if !self.region.contains(addr) {
            return Err(TableError::OutsideRegion(addr));
        }
        self.fill_leaf_table(mem, frames, addr.offset_from(self.region.base), 1, perms)
    }

    /// Sets the permission of `pages` consecutive pages from region
    /// `offset`, all in one leaf table: one descent, then the leaf pmptes
    /// are checked and updated in the borrowed table page. A corrupt pmpte
    /// stops the fill with the pmptes before it updated, as a page-by-page
    /// fill would.
    fn fill_leaf_table(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut FrameAllocator,
        offset: u64,
        pages: u64,
        perms: Perms,
    ) -> Result<(), TableError> {
        let table = self.descend(mem, frames, offset)?;
        // Pages counted from the table's start: 16 per leaf pmpte.
        let first = ((offset % LEAF_TABLE_SPAN) >> PAGE_SHIFT) as usize;
        let end = first + pages as usize;
        let pmptes = first / 16..end.div_ceil(16);
        let mut page = mem.borrow_page(table);
        let corrupt = page.words()[pmptes.clone()]
            .iter()
            .position(|&bits| LeafPmpte::decode(bits).is_err());
        let good = pmptes.start..corrupt.map_or(pmptes.end, |i| pmptes.start + i);
        if !good.is_empty() {
            let words = page.words_mut();
            for i in good.clone() {
                let run = (i * 16).max(first)..((i + 1) * 16).min(end);
                let leaf = LeafPmpte::from_bits(words[i]);
                words[i] = leaf
                    .with_perm_run(run.start - i * 16, run.len(), perms)
                    .to_bits();
            }
        }
        let stop = table + good.end as u64 * 8;
        corrupt.map_or(Ok(()), |_| Err(TableError::CorruptEntry(stop)))
    }

    /// Returns the leaf table covering region `offset`, materialising it
    /// if its root pmpte is invalid or huge (a huge permission is expanded
    /// into the new leaf table's pmptes).
    fn descend(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut FrameAllocator,
        offset: u64,
    ) -> Result<PhysAddr, TableError> {
        let slot = root_slot(self.root, offset);
        let entry =
            RootPmpte::decode(mem.read_u64(slot)).map_err(|_| TableError::CorruptEntry(slot))?;
        if entry.is_pointer() {
            return Ok(entry.leaf_table());
        }
        let leaf = frames.alloc().ok_or(TableError::OutOfTableFrames)?;
        mem.zero_page(leaf);
        if entry.is_huge() {
            // Expand: the leaf pmptes inherit the huge permission.
            let fill = LeafPmpte::splat(entry.perms()).to_bits();
            mem.borrow_page(leaf).words_mut().fill(fill);
        }
        mem.write_u64(slot, RootPmpte::pointer(leaf).to_bits());
        self.table_pages.push(leaf);
        Ok(leaf)
    }

    /// Sets a whole 32 MiB-aligned slice to one permission using a huge root
    /// pmpte — the optimisation behind the paper's cheap large-region
    /// allocations (Figure 14-d).
    ///
    /// # Errors
    ///
    /// Fails if the slice is not 32 MiB aligned within the region.
    pub fn set_huge_perm(
        &mut self,
        mem: &mut dyn WordStore,
        slice_base: PhysAddr,
        perms: Perms,
    ) -> Result<(), TableError> {
        if !self.region.contains(slice_base) {
            return Err(TableError::OutsideRegion(slice_base));
        }
        let offset = slice_base.offset_from(self.region.base);
        if !offset.is_multiple_of(LEAF_TABLE_SPAN) {
            return Err(TableError::Misaligned(slice_base));
        }
        let entry = if perms.is_empty() {
            RootPmpte::INVALID
        } else {
            RootPmpte::huge(perms)
        };
        mem.write_u64(root_slot(self.root, offset), entry.to_bits());
        Ok(())
    }

    /// Sets the permission for every page of `[base, base + len)`.
    ///
    /// With [`FillPolicy::HugeWhenAligned`], aligned 32 MiB runs collapse to
    /// one root pmpte each, huge or (no permission) invalid: the monitor's
    /// large-allocation optimisation behind Figure 14-d. With
    /// [`FillPolicy::PerPage`] every page gets its own nibble, which is how
    /// a domain's scattered ownership actually looks. Pages are written one
    /// leaf table at a time: each run of up to 8,192 pages costs one
    /// descent and one borrow of the table page.
    /// Returns the number of pmpte *writes* the monitor models for
    /// reconfiguration cost: one per page set, and one per huge root pmpte.
    ///
    /// # Errors
    ///
    /// Fails if the range leaves the region, is unaligned, frames run out,
    /// or a pmpte on the path fails its integrity check. Pages before the
    /// failing one keep their new permission.
    pub fn set_range_perm(
        &mut self,
        mem: &mut dyn WordStore,
        frames: &mut FrameAllocator,
        base: PhysAddr,
        len: u64,
        perms: Perms,
        policy: FillPolicy,
    ) -> Result<u64, TableError> {
        if !base.is_aligned(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(TableError::Misaligned(base));
        }
        let mut writes = 0;
        let mut cursor = base;
        let end = PhysAddr::new(base.raw() + len);
        while cursor < end {
            if !self.region.contains(cursor) {
                return Err(TableError::OutsideRegion(cursor));
            }
            let remaining = end.raw() - cursor.raw();
            let offset = cursor.offset_from(self.region.base);
            if policy == FillPolicy::HugeWhenAligned
                && offset.is_multiple_of(LEAF_TABLE_SPAN)
                && remaining >= LEAF_TABLE_SPAN
            {
                self.set_huge_perm(mem, cursor, perms)?;
                writes += 1;
                cursor += LEAF_TABLE_SPAN;
            } else {
                // The rest of this leaf table, cut at the range's end and at
                // the last page that still starts inside the region.
                let pages = (LEAF_TABLE_SPAN - offset % LEAF_TABLE_SPAN)
                    .div_ceil(PAGE_SIZE)
                    .min(remaining / PAGE_SIZE)
                    .min((self.region.size - offset).div_ceil(PAGE_SIZE));
                self.fill_leaf_table(mem, frames, offset, pages, perms)?;
                writes += pages;
                cursor += pages * PAGE_SIZE;
            }
        }
        Ok(writes)
    }

    /// Walks the table for `addr`, collecting the pmpte reads performed.
    /// Addresses outside the region produce an empty walk with no
    /// permission.
    pub fn walk<M: WordStore + ?Sized>(&self, mem: &M, addr: PhysAddr) -> TableWalk {
        let mut refs = PmptRefs::new();
        let verdict = if self.region.contains(addr) {
            let offset = addr.offset_from(self.region.base);
            walk_from_root(mem, self.root, offset, |r| refs.push(r))
        } else {
            TableVerdict::default()
        };
        TableWalk {
            refs,
            perms: verdict.perms,
            malformed: verdict.malformed,
        }
    }

    /// Software query without reference accounting.
    pub fn lookup<M: WordStore + ?Sized>(&self, mem: &M, addr: PhysAddr) -> Option<Perms> {
        self.walk(mem, addr).perms
    }
}

/// Address of the root pmpte covering region `offset` in the root table
/// at `root`.
#[inline]
fn root_slot(root: PhysAddr, offset: u64) -> PhysAddr {
    PhysAddr::new(root.raw() + TableOffset::split(offset).off1 * 8)
}

/// Walks a PMP Table given only what the hardware knows: the root page
/// (from the next HPMP entry's address register) and the access's offset
/// within the protected region (from the entry's address matching). This
/// is the one pmpte walk: the HPMP checker, the IOPMP and
/// [`PmpTable::walk`] all run it. It reads the root pmpte, then, behind a
/// pointer, the leaf pmpte; each read goes to `visit` as it happens,
/// carrying the word it read, so a caller can charge the reference or
/// cache the entry without reading it again.
#[inline]
pub(crate) fn walk_from_root<M: WordStore + ?Sized>(
    mem: &M,
    root: PhysAddr,
    offset: u64,
    mut visit: impl FnMut(PmptRef),
) -> TableVerdict {
    let addr = root_slot(root, offset);
    let bits = mem.read_u64(addr);
    visit(PmptRef {
        is_root: true,
        addr,
        bits,
    });
    let Ok(entry) = RootPmpte::decode(bits) else {
        return TableVerdict::MALFORMED;
    };
    if !entry.is_valid() {
        return TableVerdict::default();
    }
    if entry.is_huge() {
        return TableVerdict::found(entry.perms());
    }
    read_leaf(mem, entry.leaf_table(), offset, visit)
}

/// Reads the leaf pmpte for region `offset` from the leaf table at `table`,
/// reporting the read to `visit`, and decodes the page's permission. The
/// last step of every walk, and the whole walk behind a cached root pmpte.
#[inline]
pub(crate) fn read_leaf<M: WordStore + ?Sized>(
    mem: &M,
    table: PhysAddr,
    offset: u64,
    mut visit: impl FnMut(PmptRef),
) -> TableVerdict {
    let split = TableOffset::split(offset);
    let addr = PhysAddr::new(table.raw() + split.off0 * 8);
    let bits = mem.read_u64(addr);
    visit(PmptRef {
        is_root: false,
        addr,
        bits,
    });
    match LeafPmpte::decode(bits) {
        Ok(leaf) => TableVerdict::found(leaf.perm(split.page_index)),
        Err(_) => TableVerdict::MALFORMED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::PhysMem;

    fn fixture(region_size: u64) -> (PhysMem, FrameAllocator, PmpTable) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x1_0000_0000), 2048 * PAGE_SIZE);
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), region_size);
        let table = PmpTable::new(region, &mut mem, &mut frames).unwrap();
        (mem, frames, table)
    }

    #[test]
    fn root_pmpte_encodings() {
        let ptr = RootPmpte::pointer(PhysAddr::new(0x8000_3000));
        assert!(ptr.is_pointer() && !ptr.is_huge());
        assert_eq!(ptr.leaf_table(), PhysAddr::new(0x8000_3000));

        let huge = RootPmpte::huge(Perms::RW);
        assert!(huge.is_huge() && !huge.is_pointer());
        assert_eq!(huge.perms(), Perms::RW);

        assert!(!RootPmpte::INVALID.is_valid());
        assert_eq!(RootPmpte::from_bits(ptr.to_bits()), ptr);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn huge_root_rejects_empty_perms() {
        RootPmpte::huge(Perms::NONE);
    }

    #[test]
    fn leaf_pmpte_nibbles() {
        let mut leaf = LeafPmpte::default();
        leaf = leaf.with_perm(0, Perms::READ);
        leaf = leaf.with_perm(15, Perms::RWX);
        assert_eq!(leaf.perm(0), Perms::READ);
        assert_eq!(leaf.perm(15), Perms::RWX);
        assert_eq!(leaf.perm(7), Perms::NONE);
        // Overwrite works.
        leaf = leaf.with_perm(0, Perms::RW);
        assert_eq!(leaf.perm(0), Perms::RW);
        // Splat fills all nibbles.
        let splat = LeafPmpte::splat(Perms::RX);
        for i in 0..16 {
            assert_eq!(splat.perm(i), Perms::RX);
        }
    }

    #[test]
    fn pmpte_decode_accepts_well_formed_entries() {
        for bits in [
            0u64,
            RootPmpte::pointer(PhysAddr::new(0x8000_3000)).to_bits(),
            RootPmpte::huge(Perms::RW).to_bits(),
            RootPmpte::huge(Perms::RWX).to_bits(),
        ] {
            assert_eq!(RootPmpte::decode(bits), Ok(RootPmpte::from_bits(bits)));
        }
        for perms in [Perms::NONE, Perms::READ, Perms::RW, Perms::RX, Perms::RWX] {
            let leaf = LeafPmpte::splat(perms);
            assert_eq!(LeafPmpte::decode(leaf.to_bits()), Ok(leaf));
            assert_eq!(leaf.perm(3), perms, "parity bit must not leak into perms");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for base in [
            RootPmpte::INVALID.to_bits(),
            RootPmpte::pointer(PhysAddr::new(0x8000_3000)).to_bits(),
            RootPmpte::huge(Perms::RX).to_bits(),
        ] {
            for bit in 0..64 {
                let corrupt = base ^ (1u64 << bit);
                assert!(
                    RootPmpte::decode(corrupt).is_err(),
                    "root {base:#x} flip bit {bit} went undetected"
                );
                assert!(RootPmpte::from_bits(corrupt).is_malformed());
            }
        }
        for base in [
            LeafPmpte::default().to_bits(),
            LeafPmpte::splat(Perms::RW).to_bits(),
            LeafPmpte::splat(Perms::RWX)
                .with_perm(5, Perms::READ)
                .to_bits(),
        ] {
            for bit in 0..64 {
                let corrupt = base ^ (1u64 << bit);
                assert!(
                    LeafPmpte::decode(corrupt).is_err(),
                    "leaf {base:#x} flip bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn adversarial_root_encodings_rejected() {
        // Reserved bits between the flags and the PPN field, and above it.
        for bits in [
            1u64 << 4,
            1 << 12,
            1 << 49,
            1 << 62,
            // Reserved bit set *and* parity patched to be even: still caught.
            (1 << 4) | (1 << 5),
            // Valid-looking pointer with a reserved bit and fixed parity.
            RootPmpte::pointer(PhysAddr::new(0x8000_3000)).to_bits() ^ (1 << 49) ^ (1 << 63),
        ] {
            assert!(matches!(
                RootPmpte::decode(bits),
                Err(MalformedPmpte::ReservedBits(_))
            ));
        }
        // Parity-only violation: legal fields, odd popcount.
        let odd = RootPmpte::huge(Perms::RW).to_bits() ^ (1 << 1);
        assert!(matches!(
            RootPmpte::decode(odd),
            Err(MalformedPmpte::ParityMismatch(_))
        ));
    }

    #[test]
    fn corrupt_table_page_surfaces_as_typed_error() {
        let (mut mem, mut frames, mut table) = fixture(1 << 30);
        let page = PhysAddr::new(0x9000_5000);
        table
            .set_page_perm(&mut mem, &mut frames, page, Perms::RW)
            .unwrap();
        // Flip one bit of the root pmpte covering the page.
        let walk = table.walk(&mem, page);
        let root_slot = walk.refs[0].addr;
        mem.write_u64(root_slot, mem.read_u64(root_slot) ^ (1 << 17));
        let walk = table.walk(&mem, page);
        assert!(walk.malformed, "corrupt root must flag the walk");
        assert_eq!(walk.perms, None, "corrupt root must fail closed");
        assert_eq!(
            table.set_page_perm(&mut mem, &mut frames, page, Perms::RWX),
            Err(TableError::CorruptEntry(root_slot))
        );
    }

    #[test]
    fn offset_split_matches_figure_6e() {
        let off = (3u64 << 25) | (7 << 16) | (5 << 12) | 0x123;
        let split = TableOffset::split(off);
        assert_eq!(split.off1, 3);
        assert_eq!(split.off0, 7);
        assert_eq!(split.page_index, 5);
    }

    #[test]
    fn spans_match_paper_sizing() {
        assert_eq!(LEAF_PMPTE_SPAN, 64 * 1024);
        assert_eq!(LEAF_TABLE_SPAN, 32 << 20); // one root pmpte = 32 MiB
        assert_eq!(ROOT_TABLE_SPAN, 16 << 30); // 2-level table = 16 GiB
    }

    #[test]
    fn page_perm_round_trip() {
        let (mut mem, mut frames, mut table) = fixture(1 << 30);
        let page = PhysAddr::new(0x9000_5000);
        table
            .set_page_perm(&mut mem, &mut frames, page, Perms::RW)
            .unwrap();
        assert_eq!(table.lookup(&mem, page + 0xabc), Some(Perms::RW));
        assert_eq!(table.lookup(&mem, PhysAddr::new(0x9000_6000)), None);
    }

    #[test]
    fn walk_reads_two_pmptes() {
        let (mut mem, mut frames, mut table) = fixture(1 << 30);
        let page = PhysAddr::new(0x9000_5000);
        table
            .set_page_perm(&mut mem, &mut frames, page, Perms::RWX)
            .unwrap();
        let walk = table.walk(&mem, page);
        assert_eq!(walk.refs.len(), 2);
        assert!(walk.refs[0].is_root);
        assert!(!walk.refs[1].is_root);
        // A cold walk fills the inline buffer exactly, and every
        // reference carries the word the walker read.
        assert_eq!(walk.refs.len(), PmptRefs::CAPACITY);
        for r in &walk.refs {
            assert_eq!(r.bits, mem.read_u64(r.addr));
        }
    }

    #[test]
    fn invalid_root_short_circuits() {
        let (mem, _frames, table) = fixture(1 << 30);
        let walk = table.walk(&mem, PhysAddr::new(0x9000_0000));
        assert_eq!(walk.refs.len(), 1); // only the invalid root pmpte
        assert_eq!(walk.perms, None);
    }

    #[test]
    fn huge_root_entry_single_ref() {
        let (mut mem, _frames, mut table) = fixture(1 << 30);
        table
            .set_huge_perm(&mut mem, PhysAddr::new(0x9000_0000), Perms::RW)
            .unwrap();
        let walk = table.walk(&mem, PhysAddr::new(0x9100_0000)); // within 32 MiB slice
        assert_eq!(walk.refs.len(), 1);
        assert_eq!(walk.perms, Some(Perms::RW));
    }

    #[test]
    fn huge_expansion_preserves_perms() {
        let (mut mem, mut frames, mut table) = fixture(1 << 30);
        table
            .set_huge_perm(&mut mem, PhysAddr::new(0x9000_0000), Perms::RW)
            .unwrap();
        // Punch one page out of the huge slice.
        table
            .set_page_perm(
                &mut mem,
                &mut frames,
                PhysAddr::new(0x9000_3000),
                Perms::NONE,
            )
            .unwrap();
        assert_eq!(table.lookup(&mem, PhysAddr::new(0x9000_3000)), None);
        // The rest of the slice keeps RW, via the expanded leaf table.
        assert_eq!(
            table.lookup(&mem, PhysAddr::new(0x9000_4000)),
            Some(Perms::RW)
        );
        let walk = table.walk(&mem, PhysAddr::new(0x9000_4000));
        assert_eq!(walk.refs.len(), 2); // now a real 2-level walk
    }

    #[test]
    fn range_perm_uses_huge_entries() {
        let (mut mem, mut frames, mut table) = fixture(1 << 30);
        // 64 MiB aligned at region base: 2 huge writes.
        let writes = table
            .set_range_perm(
                &mut mem,
                &mut frames,
                PhysAddr::new(0x9000_0000),
                64 << 20,
                Perms::RW,
                FillPolicy::HugeWhenAligned,
            )
            .unwrap();
        assert_eq!(writes, 2);
        // 64 KiB unaligned-to-32 MiB: 16 page writes.
        let writes = table
            .set_range_perm(
                &mut mem,
                &mut frames,
                PhysAddr::new(0x9400_0000 + 0x1_0000),
                64 * 1024,
                Perms::RW,
                FillPolicy::HugeWhenAligned,
            )
            .unwrap();
        assert_eq!(writes, 16);
        // No permission on the first 32 MiB: an invalid root pmpte, no leaf
        // table.
        let (base, pages) = (PhysAddr::new(0x9000_0000), table.table_pages().len());
        let policy = FillPolicy::HugeWhenAligned;
        let writes = table
            .set_range_perm(&mut mem, &mut frames, base, 32 << 20, Perms::NONE, policy)
            .unwrap();
        assert_eq!(writes, 1);
        assert_eq!(table.table_pages().len(), pages);
        assert_eq!(table.walk(&mem, base + (1 << 20)).refs.len(), 1);
        assert_eq!(table.lookup(&mem, base + (1 << 20)), None);
        assert_eq!(table.lookup(&mem, base + (32 << 20)), Some(Perms::RW));
    }

    #[test]
    fn outside_region_rejected() {
        let (mut mem, mut frames, mut table) = fixture(1 << 30);
        let outside = PhysAddr::new(0x5000_0000);
        assert_eq!(
            table.set_page_perm(&mut mem, &mut frames, outside, Perms::RW),
            Err(TableError::OutsideRegion(outside))
        );
        let walk = table.walk(&mem, outside);
        assert!(walk.refs.is_empty());
    }

    #[test]
    fn oversized_region_rejected() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x1_0000_0000), 8 * PAGE_SIZE);
        let region = PmpRegion::new(PhysAddr::new(0), 32 << 30);
        assert!(matches!(
            PmpTable::new(region, &mut mem, &mut frames),
            Err(TableError::OutOfReach(_))
        ));
    }
}
