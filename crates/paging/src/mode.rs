//! Translation modes (Sv39 / Sv48 / Sv57, and the G-stage's Sv39x4).

use hpmp_memsim::{VirtAddr, PAGE_SHIFT};

/// A RISC-V virtual-memory scheme.
///
/// The paper's headline numbers use Sv39 (3-level); the extra-dimension cost
/// grows with Sv48 and Sv57, which is why the problem "is even more serious
/// for 4-level or 5-level page table architectures". Sv39x4 is the
/// hypervisor extension's G-stage scheme for the nested page table: Sv39
/// with a 2-bit wider input and a root four pages long.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TranslationMode {
    /// 39-bit VA, 3-level page table.
    Sv39,
    /// 48-bit VA, 4-level page table.
    Sv48,
    /// 57-bit VA, 5-level page table.
    Sv57,
    /// 41-bit guest-physical address, 3-level page table with a 16 KiB
    /// root (hgatp).
    Sv39x4,
}

impl TranslationMode {
    /// Levels of the deepest mode (Sv57): the most PT references one
    /// walk can read.
    pub const MAX_LEVELS: usize = TranslationMode::Sv57.levels();

    /// Number of page-table levels (equivalently, PT-page references on a
    /// full TLB-miss walk).
    pub const fn levels(self) -> usize {
        match self {
            TranslationMode::Sv39 | TranslationMode::Sv39x4 => 3,
            TranslationMode::Sv48 => 4,
            TranslationMode::Sv57 => 5,
        }
    }

    /// Width of the virtual address in bits.
    pub const fn va_bits(self) -> u32 {
        match self {
            TranslationMode::Sv39 => 39,
            TranslationMode::Sv48 => 48,
            TranslationMode::Sv57 => 57,
            TranslationMode::Sv39x4 => 41,
        }
    }

    /// Index of the root level (levels are numbered leaf = 0).
    pub const fn root_level(self) -> usize {
        self.levels() - 1
    }

    /// Pages in the root table: the input bits above the levels' nine-bit
    /// indices, as a power of two (four for Sv39x4, one otherwise).
    pub(crate) const fn root_pages(self) -> u64 {
        1 << (self.va_bits() as usize - PAGE_SHIFT as usize - 9 * self.levels())
    }

    /// The PTE index of `va` in its table at `level`: nine bits below the
    /// root, and at the root every input bit above them, so that Sv39x4's
    /// index spans all four root pages.
    pub(crate) const fn index(self, va: VirtAddr, level: usize) -> u64 {
        let shift = PAGE_SHIFT as usize + 9 * level;
        let bits = if level == self.root_level() {
            self.va_bits() as usize - shift
        } else {
            9
        };
        (va.raw() >> shift) & ((1 << bits) - 1)
    }

    /// Bytes of VA space covered by one entry at `level`.
    pub const fn level_span(self, level: usize) -> u64 {
        1u64 << (PAGE_SHIFT as usize + 9 * level)
    }

    /// True if `va` is canonical for this mode (fits in `va_bits`,
    /// sign-extension ignored for simplicity: we require the high bits to be
    /// zero, i.e. the positive half of the canonical space).
    pub const fn is_canonical(self, va: VirtAddr) -> bool {
        va.raw() >> self.va_bits() == 0
    }
}

impl std::fmt::Display for TranslationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TranslationMode::Sv39 => "Sv39",
            TranslationMode::Sv48 => "Sv48",
            TranslationMode::Sv57 => "Sv57",
            TranslationMode::Sv39x4 => "Sv39x4",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_counts() {
        assert_eq!(TranslationMode::Sv39.levels(), 3);
        assert_eq!(TranslationMode::Sv48.levels(), 4);
        assert_eq!(TranslationMode::Sv57.levels(), 5);
        assert_eq!(TranslationMode::Sv39x4.levels(), 3);
        assert_eq!(TranslationMode::Sv39.root_level(), 2);
    }

    #[test]
    fn indices() {
        // VA = vpn2:vpn1:vpn0:offset = 5 : 7 : 9 : 0x123
        let va = VirtAddr::new((5u64 << 30) | (7 << 21) | (9 << 12) | 0x123);
        let sv39 = TranslationMode::Sv39;
        assert_eq!(
            [sv39.index(va, 2), sv39.index(va, 1), sv39.index(va, 0)],
            [5, 7, 9]
        );
        // Sv39x4's root index takes the two extra input bits, reaching the
        // fourth root page; lower levels keep nine.
        let gpa = VirtAddr::new((1 << 41) - 1);
        assert_eq!(TranslationMode::Sv39x4.index(gpa, 2), 4 * 512 - 1);
        assert_eq!(TranslationMode::Sv39x4.index(gpa, 1), 511);
    }

    #[test]
    fn root_pages() {
        assert_eq!(TranslationMode::Sv39.root_pages(), 1);
        assert_eq!(TranslationMode::Sv57.root_pages(), 1);
        assert_eq!(TranslationMode::Sv39x4.root_pages(), 4);
    }

    #[test]
    fn spans() {
        assert_eq!(TranslationMode::Sv39.level_span(0), 4096);
        assert_eq!(TranslationMode::Sv39.level_span(1), 2 << 20);
        assert_eq!(TranslationMode::Sv39.level_span(2), 1 << 30);
    }

    #[test]
    fn canonical() {
        assert!(TranslationMode::Sv39.is_canonical(VirtAddr::new((1 << 39) - 1)));
        assert!(!TranslationMode::Sv39.is_canonical(VirtAddr::new(1 << 39)));
        assert!(TranslationMode::Sv48.is_canonical(VirtAddr::new(1 << 39)));
        assert!(TranslationMode::Sv39x4.is_canonical(VirtAddr::new((1 << 41) - 1)));
        assert!(!TranslationMode::Sv39x4.is_canonical(VirtAddr::new(1 << 41)));
    }

    #[test]
    fn display() {
        assert_eq!(TranslationMode::Sv39.to_string(), "Sv39");
        assert_eq!(TranslationMode::Sv39x4.to_string(), "Sv39x4");
    }
}
