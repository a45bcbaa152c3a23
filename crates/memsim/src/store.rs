//! Word-addressable storage abstraction.
//!
//! Page-table construction code works against [`WordStore`] rather than
//! [`crate::PhysMem`] directly, so the same code can build *guest* page
//! tables whose slots are addressed by guest-physical addresses: the
//! hypervisor layer supplies a store that translates through the nested page
//! table before touching host memory.
//!
//! A writer that fills a run of slots in one table page borrows the page
//! once with [`WordStore::borrow_page`]: one dynamic call (and for a guest
//! table one G-stage translation) per page instead of per word.

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::physmem::{PageWords, PhysMem};

/// A 64-bit-word addressable memory.
pub trait WordStore {
    /// Reads the naturally-aligned word at `addr`.
    fn read_u64(&self, addr: PhysAddr) -> u64;
    /// Writes the naturally-aligned word at `addr`.
    fn write_u64(&mut self, addr: PhysAddr, value: u64);
    /// Zeroes the 4 KiB page based at `addr`.
    fn zero_page(&mut self, base: PhysAddr);
    /// Borrows the 4 KiB page based at `base` whole; panics if `base` is
    /// not page aligned.
    fn borrow_page(&mut self, base: PhysAddr) -> PageWords<'_>;
}

impl WordStore for PhysMem {
    #[inline]
    fn read_u64(&self, addr: PhysAddr) -> u64 {
        PhysMem::read_u64(self, addr)
    }

    #[inline]
    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        PhysMem::write_u64(self, addr, value)
    }

    #[inline]
    fn zero_page(&mut self, base: PhysAddr) {
        PhysMem::zero_page(self, base)
    }

    fn borrow_page(&mut self, base: PhysAddr) -> PageWords<'_> {
        assert!(base.is_aligned(PAGE_SIZE), "unaligned page {base}");
        PageWords(self, base.page_number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn through_dyn(store: &mut dyn WordStore) {
        store.write_u64(PhysAddr::new(0x1000), 99);
        assert_eq!(store.read_u64(PhysAddr::new(0x1000)), 99);
        store.zero_page(PhysAddr::new(0x1000));
        assert_eq!(store.read_u64(PhysAddr::new(0x1000)), 0);
        store.borrow_page(PhysAddr::new(0x1000)).words_mut()[3] = 7;
        assert_eq!(store.read_u64(PhysAddr::new(0x1018)), 7);
        assert_eq!(store.borrow_page(PhysAddr::new(0x1000)).words()[3], 7);
    }

    #[test]
    fn physmem_is_a_word_store() {
        let mut mem = PhysMem::new();
        through_dyn(&mut mem);
    }
}
