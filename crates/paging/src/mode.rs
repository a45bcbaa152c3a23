//! Translation modes (Sv39 / Sv48 / Sv57).

use hpmp_memsim::{VirtAddr, PAGE_SHIFT};

/// A RISC-V virtual-memory scheme.
///
/// The paper's headline numbers use Sv39 (3-level); the extra-dimension cost
/// grows with Sv48 and Sv57, which is why the problem "is even more serious
/// for 4-level or 5-level page table architectures".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TranslationMode {
    /// 39-bit VA, 3-level page table.
    Sv39,
    /// 48-bit VA, 4-level page table.
    Sv48,
    /// 57-bit VA, 5-level page table.
    Sv57,
}

impl TranslationMode {
    /// Levels of the deepest mode (Sv57): the most PT references one
    /// walk can read.
    pub const MAX_LEVELS: usize = TranslationMode::Sv57.levels();

    /// Number of page-table levels (equivalently, PT-page references on a
    /// full TLB-miss walk).
    pub const fn levels(self) -> usize {
        match self {
            TranslationMode::Sv39 => 3,
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
        }
    }

    /// Index of the root level (levels are numbered leaf = 0).
    pub const fn root_level(self) -> usize {
        self.levels() - 1
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
        assert_eq!(TranslationMode::Sv39.root_level(), 2);
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
    }

    #[test]
    fn display() {
        assert_eq!(TranslationMode::Sv39.to_string(), "Sv39");
    }
}
