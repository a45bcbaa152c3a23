//! IOPMP: table-based physical memory isolation for DMA (§9).
//!
//! The paper notes that HPMP "offers the ability to isolate MMIO regions for
//! different domains … Additionally, HPMP (or PMP) can be employed for DMA
//! protections, such as IOPMP, effectively safeguarding against malicious
//! I/O devices." This module models an IOPMP checker in the HPMP style:
//! each entry carries a *source mask* selecting which DMA initiators it
//! applies to, and is either a segment (in-register permission) or a PMP
//! Table (per-page permissions via the same radix structure as the CPU
//! side). Entries are statically prioritised, like HPMP.

use hpmp_memsim::{AccessKind, Perms, PhysAddr, WordStore};

use crate::pmp::PmpRegion;
use crate::table::{walk_from_root, PmptRefs, TableVerdict, ROOT_TABLE_SPAN};

/// Identifier of a DMA initiator (the IOPMP "source id").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u8);

impl DeviceId {
    /// Bit position in an entry's source mask.
    fn bit(self) -> u32 {
        1u32 << (self.0 & 31)
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// How an IOPMP entry resolves permissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoPmpMode {
    /// Permission held in the entry (segment mode).
    Segment(Perms),
    /// Permissions come from a PMP Table rooted at the given page. An
    /// entry whose region exceeds the table's 16 GiB reach denies every
    /// access it matches (see [`IoPmp::check`]).
    Table {
        /// Root table page.
        root: PhysAddr,
    },
}

/// One IOPMP entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoPmpEntry {
    /// Which initiators this entry applies to (bit per [`DeviceId`]).
    pub source_mask: u32,
    /// The protected region.
    pub region: PmpRegion,
    /// Segment or table resolution.
    pub mode: IoPmpMode,
}

/// Outcome of one IOPMP check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoCheckOutcome {
    /// Whether the DMA access is permitted.
    pub allowed: bool,
    /// Index of the deciding entry, if any.
    pub matched_entry: Option<usize>,
    /// pmpte reads performed (table-mode entries).
    pub refs: PmptRefs,
    /// `true` if the deciding entry could not be trusted — its table walk
    /// read a pmpte that failed its integrity check, or it is a table-mode
    /// entry beyond the table's reach — so the checker failed closed
    /// (`allowed` is then `false`).
    pub malformed: bool,
}

/// An IOPMP checker sitting between DMA initiators and memory.
///
/// ```
/// use hpmp_core::{DeviceId, IoPmp, IoPmpEntry, IoPmpMode, PmpRegion};
/// use hpmp_memsim::{AccessKind, Perms, PhysAddr, PhysMem};
///
/// let mut iopmp = IoPmp::new();
/// iopmp.push(IoPmpEntry {
///     source_mask: 1 << 3,
///     region: PmpRegion::new(PhysAddr::new(0x9000_0000), 0x10_0000),
///     mode: IoPmpMode::Segment(Perms::RW),
/// });
/// let mem = PhysMem::new();
/// let ok = iopmp.check(&mem, DeviceId(3), PhysAddr::new(0x9000_1000), AccessKind::Write);
/// assert!(ok.allowed);
/// let other = iopmp.check(&mem, DeviceId(4), PhysAddr::new(0x9000_1000), AccessKind::Write);
/// assert!(!other.allowed); // unmatched initiators have no access
/// ```
#[derive(Clone, Debug, Default)]
pub struct IoPmp {
    entries: Vec<IoPmpEntry>,
}

impl IoPmp {
    /// Creates an empty checker (all DMA denied).
    pub fn new() -> IoPmp {
        IoPmp::default()
    }

    /// Appends an entry (lower indices have priority).
    pub fn push(&mut self, entry: IoPmpEntry) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// Removes the entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove(&mut self, idx: usize) -> IoPmpEntry {
        self.entries.remove(idx)
    }

    /// The installed entries.
    pub fn entries(&self) -> &[IoPmpEntry] {
        &self.entries
    }

    /// Checks one DMA access from `device`. The lowest-numbered entry whose
    /// source mask and region both match decides; unmatched accesses are
    /// denied (devices have no default access). A table-mode entry runs the
    /// same PMP Table walk as the CPU-side checker, so a corrupt pmpte fails
    /// closed and is flagged `malformed` here too. So does a table-mode
    /// entry whose region exceeds [`ROOT_TABLE_SPAN`], as on the CPU side:
    /// [`IoPmp::push`] accepts it, and the check refuses to walk it, since
    /// its offsets past 16 GiB would alias the pmptes of the first 16 GiB.
    pub fn check<M: WordStore + ?Sized>(
        &self,
        mem: &M,
        device: DeviceId,
        addr: PhysAddr,
        kind: AccessKind,
    ) -> IoCheckOutcome {
        for (idx, entry) in self.entries.iter().enumerate() {
            if entry.source_mask & device.bit() == 0 || !entry.region.contains(addr) {
                continue;
            }
            return match entry.mode {
                IoPmpMode::Segment(perms) => IoCheckOutcome {
                    allowed: perms.allows(kind),
                    matched_entry: Some(idx),
                    refs: PmptRefs::new(),
                    malformed: false,
                },
                IoPmpMode::Table { root } => {
                    let offset = addr.offset_from(entry.region.base);
                    let mut refs = PmptRefs::new();
                    let walk = if entry.region.size > ROOT_TABLE_SPAN {
                        TableVerdict::MALFORMED
                    } else {
                        walk_from_root(mem, root, offset, |r| refs.push(r))
                    };
                    IoCheckOutcome {
                        allowed: walk.perms.is_some_and(|p| p.allows(kind)),
                        matched_entry: Some(idx),
                        refs,
                        malformed: walk.malformed,
                    }
                }
            };
        }
        IoCheckOutcome {
            allowed: false,
            matched_entry: None,
            refs: PmptRefs::new(),
            malformed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::PmpTable;
    use hpmp_memsim::{FrameAllocator, PhysMem, PAGE_SIZE};

    #[test]
    fn default_deny() {
        let iopmp = IoPmp::new();
        let mem = PhysMem::new();
        let out = iopmp.check(
            &mem,
            DeviceId(0),
            PhysAddr::new(0x9000_0000),
            AccessKind::Read,
        );
        assert!(!out.allowed);
        assert_eq!(out.matched_entry, None);
    }

    #[test]
    fn source_mask_scopes_entries() {
        let mut iopmp = IoPmp::new();
        iopmp.push(IoPmpEntry {
            source_mask: (1 << 1) | (1 << 2),
            region: PmpRegion::new(PhysAddr::new(0x9000_0000), 0x1000),
            mode: IoPmpMode::Segment(Perms::READ),
        });
        let mem = PhysMem::new();
        let addr = PhysAddr::new(0x9000_0800);
        assert!(
            iopmp
                .check(&mem, DeviceId(1), addr, AccessKind::Read)
                .allowed
        );
        assert!(
            iopmp
                .check(&mem, DeviceId(2), addr, AccessKind::Read)
                .allowed
        );
        assert!(
            !iopmp
                .check(&mem, DeviceId(3), addr, AccessKind::Read)
                .allowed
        );
        // Permission is respected per kind.
        assert!(
            !iopmp
                .check(&mem, DeviceId(1), addr, AccessKind::Write)
                .allowed
        );
    }

    #[test]
    fn priority_matches_hpmp() {
        let mut iopmp = IoPmp::new();
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 0x1000);
        iopmp.push(IoPmpEntry {
            source_mask: !0,
            region,
            mode: IoPmpMode::Segment(Perms::NONE),
        });
        iopmp.push(IoPmpEntry {
            source_mask: !0,
            region,
            mode: IoPmpMode::Segment(Perms::RW),
        });
        let mem = PhysMem::new();
        let out = iopmp.check(
            &mem,
            DeviceId(0),
            PhysAddr::new(0x9000_0000),
            AccessKind::Read,
        );
        assert!(!out.allowed, "the deny entry matches first");
        assert_eq!(out.matched_entry, Some(0));
    }

    #[test]
    fn table_mode_walks_pmptes() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PhysAddr::new(0x1_0000_0000), 16 * PAGE_SIZE);
        let region = PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 26);
        let mut table = PmpTable::new(region, &mut mem, &mut frames).unwrap();
        table
            .set_page_perm(
                &mut mem,
                &mut frames,
                PhysAddr::new(0x9000_2000),
                Perms::WRITE,
            )
            .unwrap();
        let mut iopmp = IoPmp::new();
        iopmp.push(IoPmpEntry {
            source_mask: 1,
            region,
            mode: IoPmpMode::Table { root: table.root() },
        });
        let ok = iopmp.check(
            &mem,
            DeviceId(0),
            PhysAddr::new(0x9000_2abc),
            AccessKind::Write,
        );
        assert!(ok.allowed);
        assert_eq!(ok.refs.len(), 2);
        let deny = iopmp.check(
            &mem,
            DeviceId(0),
            PhysAddr::new(0x9000_3000),
            AccessKind::Write,
        );
        assert!(!deny.allowed);
    }

    #[test]
    fn remove_restores_deny() {
        let mut iopmp = IoPmp::new();
        let idx = iopmp.push(IoPmpEntry {
            source_mask: 1,
            region: PmpRegion::new(PhysAddr::new(0x9000_0000), 0x1000),
            mode: IoPmpMode::Segment(Perms::RW),
        });
        iopmp.remove(idx);
        let mem = PhysMem::new();
        assert!(
            !iopmp
                .check(
                    &mem,
                    DeviceId(0),
                    PhysAddr::new(0x9000_0000),
                    AccessKind::Read
                )
                .allowed
        );
    }
}
