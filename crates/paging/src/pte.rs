//! RISC-V page-table entry encoding (privileged spec, RV64).
//!
//! A PTE is a 64-bit word: bits 0–7 are the `V R W X U G A D` flags, bits 8–9
//! are software-reserved, and bits 10–53 hold the physical page number. An
//! entry with `V=1` and `R=W=X=0` is a pointer to the next-level table; any
//! other valid entry is a leaf.

use hpmp_memsim::{Perms, PhysAddr, PAGE_SHIFT};

/// A decoded RV64 page-table entry.
///
/// ```
/// use hpmp_paging::Pte;
/// use hpmp_memsim::{Perms, PhysAddr};
///
/// let leaf = Pte::leaf(PhysAddr::new(0x8000_0000), Perms::RW, true);
/// assert!(leaf.is_valid() && leaf.is_leaf());
/// assert_eq!(Pte::from_bits(leaf.to_bits()), leaf);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Pte {
    bits: u64,
}

impl Pte {
    const V: u64 = 1 << 0;
    const R: u64 = 1 << 1;
    const W: u64 = 1 << 2;
    const X: u64 = 1 << 3;
    const U: u64 = 1 << 4;
    const A: u64 = 1 << 6;
    const D: u64 = 1 << 7;
    const PPN_SHIFT: u32 = 10;
    const PPN_MASK: u64 = (1 << 44) - 1;

    /// The invalid (all-zero) entry.
    pub const INVALID: Pte = Pte { bits: 0 };

    /// Decodes a raw 64-bit entry.
    #[inline]
    pub const fn from_bits(bits: u64) -> Pte {
        Pte { bits }
    }

    /// Returns the raw 64-bit encoding.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.bits
    }

    /// Builds a leaf entry mapping to `frame` with `perms`; `user` sets the
    /// U bit. The A and D bits are pre-set, as Linux does for kernel
    /// mappings, so walks never take an A/D update fault.
    pub fn leaf(frame: PhysAddr, perms: Perms, user: bool) -> Pte {
        debug_assert!(!perms.is_empty(), "a leaf PTE must grant some permission");
        let mut bits = Self::V | Self::A | Self::D;
        if perms.can_read() {
            bits |= Self::R;
        }
        if perms.can_write() {
            bits |= Self::W;
        }
        if perms.can_exec() {
            bits |= Self::X;
        }
        if user {
            bits |= Self::U;
        }
        bits |= (frame.page_number() & Self::PPN_MASK) << Self::PPN_SHIFT;
        Pte { bits }
    }

    /// Builds a non-leaf entry pointing at the next-level table page.
    pub fn table(next: PhysAddr) -> Pte {
        Pte {
            bits: Self::V | ((next.page_number() & Self::PPN_MASK) << Self::PPN_SHIFT),
        }
    }

    /// True if the V bit is set.
    #[inline]
    pub const fn is_valid(self) -> bool {
        self.bits & Self::V != 0
    }

    /// True if the entry is a valid leaf (any of R/W/X set).
    #[inline]
    pub const fn is_leaf(self) -> bool {
        self.is_valid() && self.bits & (Self::R | Self::W | Self::X) != 0
    }

    /// True if the entry is a valid pointer to a next-level table.
    #[inline]
    pub const fn is_table(self) -> bool {
        self.is_valid() && self.bits & (Self::R | Self::W | Self::X) == 0
    }

    /// True if the U (user-accessible) bit is set.
    #[inline]
    pub const fn is_user(self) -> bool {
        self.bits & Self::U != 0
    }

    /// The R/W/X permission set of a leaf entry.
    pub fn perms(self) -> Perms {
        Perms::new(
            self.bits & Self::R != 0,
            self.bits & Self::W != 0,
            self.bits & Self::X != 0,
        )
    }

    /// Physical base address of the frame (leaf) or next table (pointer).
    pub fn target(self) -> PhysAddr {
        PhysAddr::new(((self.bits >> Self::PPN_SHIFT) & Self::PPN_MASK) << PAGE_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let pte = Pte::leaf(PhysAddr::new(0x8_1234_5000), Perms::RX, false);
        assert!(pte.is_valid());
        assert!(pte.is_leaf());
        assert!(!pte.is_table());
        assert!(!pte.is_user());
        assert_eq!(pte.perms(), Perms::RX);
        assert_eq!(pte.target(), PhysAddr::new(0x8_1234_5000));
    }

    #[test]
    fn table_pointer() {
        let pte = Pte::table(PhysAddr::new(0x8000_1000));
        assert!(pte.is_table());
        assert!(!pte.is_leaf());
        assert_eq!(pte.target(), PhysAddr::new(0x8000_1000));
        assert!(pte.perms().is_empty());
    }

    #[test]
    fn invalid_entry() {
        assert!(!Pte::INVALID.is_valid());
        assert!(!Pte::INVALID.is_leaf());
        assert!(!Pte::INVALID.is_table());
        assert_eq!(Pte::from_bits(0), Pte::INVALID);
    }

    #[test]
    fn user_bit() {
        let pte = Pte::leaf(PhysAddr::new(0x1000), Perms::RW, true);
        assert!(pte.is_user());
    }

    #[test]
    fn bits_survive_round_trip() {
        let pte = Pte::leaf(PhysAddr::new(0xfff_ffff_f000), Perms::RWX, true);
        assert_eq!(Pte::from_bits(pte.to_bits()), pte);
    }
}
