//! Sparse backing store for simulated physical memory.
//!
//! The simulator needs real storage for structures that hardware actually
//! walks: page tables (read by the PTW) and PMP Tables (read by the PMPTW).
//! [`PhysMem`] is a sparse, page-granular store of 64-bit words; untouched
//! pages read as zero, matching DRAM scrubbed at boot.
//!
//! Storage is a two-level flat page directory indexed by page frame number
//! (PFN): the top level is a `Vec` of chunk pointers, each chunk covering
//! [`CHUNK_PAGES`] consecutive frames. A read is a bounds check plus two
//! pointer hops — no hashing anywhere on the per-access path.

use crate::addr::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};

/// Number of 64-bit words per 4 KiB page.
const WORDS_PER_PAGE: usize = (PAGE_SIZE / 8) as usize;

/// log2 of the number of pages covered by one directory chunk.
const CHUNK_SHIFT: u32 = 11;

/// Pages per directory chunk (8 MiB of simulated memory per chunk).
const CHUNK_PAGES: usize = 1 << CHUNK_SHIFT;

/// Highest supported physical address bit. The directory grows with the
/// highest frame ever written, so a stray huge address would otherwise
/// balloon the top level; 1 TiB is far above anything the fixtures map
/// while keeping the worst-case top level around 1 MiB of pointers.
const MAX_PHYS_BITS: u32 = 40;

/// Highest valid PFN (exclusive).
const MAX_PFN: u64 = 1 << (MAX_PHYS_BITS - PAGE_SHIFT);

type Page = Box<[u64; WORDS_PER_PAGE]>;

/// One top-level directory slot: backing for [`CHUNK_PAGES`] frames.
#[derive(Clone)]
struct Chunk {
    slots: [Option<Page>; CHUNK_PAGES],
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk {
            slots: std::array::from_fn(|_| None),
        })
    }
}

/// Sparse word-addressable physical memory.
///
/// ```
/// use hpmp_memsim::{PhysAddr, PhysMem};
/// let mut mem = PhysMem::new();
/// mem.write_u64(PhysAddr::new(0x8000_0008), 42);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000_0008)), 42);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000_0000)), 0); // untouched => 0
/// ```
#[derive(Clone, Default)]
pub struct PhysMem {
    dir: Vec<Option<Box<Chunk>>>,
    resident: usize,
    /// When set, every mutated PFN is appended to `dirty` so a sharded
    /// copy of this memory can be brought up to date page-by-page instead
    /// of re-cloned wholesale (the threaded SMP backend's broadcast).
    log_writes: bool,
    dirty: Vec<u64>,
}

impl PhysMem {
    /// Creates an empty (all-zero) physical memory.
    pub fn new() -> PhysMem {
        PhysMem::default()
    }

    /// Reads the naturally-aligned 64-bit word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned; hardware would raise a
    /// misaligned-access exception, which the walkers never do.
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        assert!(addr.is_aligned(8), "misaligned u64 read at {addr}");
        match self.page(addr.page_number()) {
            Some(page) => page[Self::word_index(addr)],
            None => 0,
        }
    }

    /// Writes the naturally-aligned 64-bit word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned or lies beyond the simulated
    /// physical address space (1 TiB).
    #[inline]
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        assert!(addr.is_aligned(8), "misaligned u64 write at {addr}");
        let pfn = addr.page_number();
        let word = Self::word_index(addr);
        // A resident page takes the same two hops a read does; only a
        // missing one goes through the allocating path.
        if let Some(page) = self.resident_mut(pfn) {
            page[word] = value;
            if self.log_writes {
                self.dirty.push(pfn);
            }
        } else {
            self.page_mut(pfn)[word] = value;
        }
    }

    /// The backing page of `pfn`, if it has one.
    #[inline]
    fn page(&self, pfn: u64) -> Option<&Page> {
        self.dir
            .get((pfn >> CHUNK_SHIFT) as usize)
            .and_then(|c| c.as_ref())
            .and_then(|c| c.slots[(pfn & (CHUNK_PAGES as u64 - 1)) as usize].as_ref())
    }

    #[inline]
    fn resident_mut(&mut self, pfn: u64) -> Option<&mut Page> {
        self.dir
            .get_mut((pfn >> CHUNK_SHIFT) as usize)
            .and_then(|c| c.as_mut())
            .and_then(|c| c.slots[(pfn & (CHUNK_PAGES as u64 - 1)) as usize].as_mut())
    }

    /// The backing page of `pfn`, allocated on first touch; logs `pfn`.
    fn page_mut(&mut self, pfn: u64) -> &mut [u64; WORDS_PER_PAGE] {
        if self.log_writes {
            self.dirty.push(pfn);
        }
        assert!(
            pfn < MAX_PFN,
            "write beyond the {MAX_PHYS_BITS}-bit simulated physical address space"
        );
        let hi = (pfn >> CHUNK_SHIFT) as usize;
        let lo = (pfn & (CHUNK_PAGES as u64 - 1)) as usize;
        if hi >= self.dir.len() {
            self.dir.resize_with(hi + 1, || None);
        }
        let chunk = self.dir[hi].get_or_insert_with(Chunk::new);
        if chunk.slots[lo].is_none() {
            chunk.slots[lo] = Some(Box::new([0u64; WORDS_PER_PAGE]));
            self.resident += 1;
        }
        chunk.slots[lo].as_mut().unwrap()
    }

    /// Zeroes an entire 4 KiB page.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned.
    pub fn zero_page(&mut self, base: PhysAddr) {
        assert!(base.is_aligned(PAGE_SIZE), "zero_page of unaligned {base}");
        let pfn = base.page_number();
        if self.log_writes {
            self.dirty.push(pfn);
        }
        let hi = (pfn >> CHUNK_SHIFT) as usize;
        let lo = (pfn & (CHUNK_PAGES as u64 - 1)) as usize;
        if let Some(Some(chunk)) = self.dir.get_mut(hi) {
            if chunk.slots[lo].take().is_some() {
                self.resident -= 1;
            }
        }
    }

    /// Enables or disables PFN write logging. Enabling (or re-enabling)
    /// starts from an empty log.
    pub fn set_write_log(&mut self, on: bool) {
        self.log_writes = on;
        self.dirty.clear();
    }

    /// Drains the write log: the sorted, deduplicated set of PFNs mutated
    /// since the log was last enabled or drained.
    pub fn take_dirty_pfns(&mut self) -> Vec<u64> {
        let mut pfns = std::mem::take(&mut self.dirty);
        pfns.sort_unstable();
        pfns.dedup();
        pfns
    }

    /// Copies one 4 KiB page within this memory, from `src` to `dst` (both
    /// page aligned). An unbacked source zeroes the destination. The
    /// destination lands in the write log like any other mutation, so a
    /// sharded copy of this memory picks the moved page up at the next
    /// broadcast — which is what keeps the monitor's segment compaction
    /// coherent under the threaded SMP backend.
    ///
    /// # Panics
    ///
    /// Panics if either address is not page aligned.
    pub fn copy_page_within(&mut self, src: PhysAddr, dst: PhysAddr) {
        assert!(src.is_aligned(PAGE_SIZE), "copy_page_within from {src}");
        assert!(dst.is_aligned(PAGE_SIZE), "copy_page_within to {dst}");
        match self.page(src.page_number()).map(|page| **page) {
            Some(words) => *self.page_mut(dst.page_number()) = words,
            None => self.zero_page(dst),
        }
    }

    /// Makes this memory's view of `pfn` identical to `src`'s: copies the
    /// backing page if `src` has one, otherwise drops ours (so the frame
    /// reads as zero again). Used to propagate dirty pages from a
    /// write-logged canonical memory into its shards.
    pub fn copy_page_from(&mut self, src: &PhysMem, pfn: u64) {
        match src.page(pfn) {
            Some(page) => *self.page_mut(pfn) = **page,
            None => self.zero_page(PhysAddr::new(pfn << PAGE_SHIFT)),
        }
    }

    /// Number of distinct pages that have been written.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Total bytes of simulated memory currently backed by host storage.
    pub fn resident_bytes(&self) -> u64 {
        self.resident as u64 * PAGE_SIZE
    }

    #[inline]
    fn word_index(addr: PhysAddr) -> usize {
        ((addr.raw() & (PAGE_SIZE - 1)) >> 3) as usize
    }
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("resident_pages", &self.resident)
            .finish()
    }
}

/// A bump allocator handing out page frames from a physical range, with a
/// LIFO recycling list so released frames are reused before the bump
/// cursor advances — long-lived churn (domain tables built and torn down
/// thousands of times) stays inside a bounded footprint.
///
/// This is *not* the OS page allocator (which lives in `hpmp-penglai`); it is
/// a low-level frame source used when constructing test fixtures and the
/// monitor's own private pools.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    base: PhysAddr,
    next: PhysAddr,
    end: PhysAddr,
    /// Frames handed back via [`FrameAllocator::release`], reused LIFO so
    /// allocation order stays deterministic.
    released: Vec<PhysAddr>,
}

impl FrameAllocator {
    /// Creates an allocator over `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned or `len` is not a multiple of the
    /// page size.
    pub fn new(base: PhysAddr, len: u64) -> FrameAllocator {
        assert!(base.is_aligned(PAGE_SIZE), "unaligned allocator base");
        assert!(
            len.is_multiple_of(PAGE_SIZE),
            "allocator length not page-multiple"
        );
        FrameAllocator {
            base,
            next: base,
            end: base + len,
            released: Vec::new(),
        }
    }

    /// Allocates one 4 KiB frame, or `None` when exhausted. Recycled
    /// frames are handed out (most recently released first) before the
    /// bump cursor advances.
    pub fn alloc(&mut self) -> Option<PhysAddr> {
        if let Some(frame) = self.released.pop() {
            return Some(frame);
        }
        if self.next >= self.end {
            return None;
        }
        let frame = self.next;
        self.next += PAGE_SIZE;
        Some(frame)
    }

    /// Allocates a run of up to `max` physically contiguous frames,
    /// returning its first frame and length, or `None` when exhausted. The
    /// frames come out in the order `max` calls to
    /// [`FrameAllocator::alloc`] would hand them out: a recycled frame is a
    /// run of one, and the bump cursor yields the rest.
    pub fn alloc_run(&mut self, max: u64) -> Option<(PhysAddr, u64)> {
        if let Some(frame) = self.released.pop() {
            return Some((frame, 1));
        }
        let pages = max.min((self.end.raw() - self.next.raw()) >> PAGE_SHIFT);
        if pages == 0 {
            return None;
        }
        let frame = self.next;
        self.next += pages * PAGE_SIZE;
        Some((frame, pages))
    }

    /// Feeds the allocator's logical state (bump cursor and recycled-frame
    /// stack) into a state fingerprint. Two allocators hashing equal will
    /// hand out identical frame sequences forever.
    pub fn hash_into<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_u64(self.base.raw());
        h.write_u64(self.next.raw());
        h.write_u64(self.end.raw());
        h.write_usize(self.released.len());
        for frame in &self.released {
            h.write_u64(frame.raw());
        }
    }

    /// Returns a frame to the allocator for reuse. The caller is
    /// responsible for scrubbing its contents first (a recycled table
    /// frame full of stale pmptes would otherwise decode as live grants).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is unaligned or was never part of this
    /// allocator's range.
    pub fn release(&mut self, frame: PhysAddr) {
        assert!(frame.is_aligned(PAGE_SIZE), "release of unaligned {frame}");
        assert!(
            frame >= self.base && frame < self.next,
            "release of foreign frame {frame}"
        );
        self.released.push(frame);
    }

    /// Number of frames still available (untouched plus recycled).
    pub fn remaining(&self) -> u64 {
        ((self.end.raw() - self.next.raw()) >> PAGE_SHIFT) + self.released.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_and_default_zero() {
        let mut mem = PhysMem::new();
        let a = PhysAddr::new(0x8000_1000);
        assert_eq!(mem.read_u64(a), 0);
        mem.write_u64(a, 0xdead_beef);
        assert_eq!(mem.read_u64(a), 0xdead_beef);
        assert_eq!(mem.read_u64(a + 8), 0);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn pages_are_independent() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x1000), 1);
        mem.write_u64(PhysAddr::new(0x2000), 2);
        assert_eq!(mem.resident_pages(), 2);
        mem.zero_page(PhysAddr::new(0x1000));
        assert_eq!(mem.read_u64(PhysAddr::new(0x1000)), 0);
        assert_eq!(mem.read_u64(PhysAddr::new(0x2000)), 2);
    }

    #[test]
    fn pages_span_directory_chunks() {
        let mut mem = PhysMem::new();
        // Two frames in different top-level chunks.
        let lo = PhysAddr::new(0x8000_0000);
        let hi = PhysAddr::new(0x8000_0000 + (CHUNK_PAGES as u64 + 3) * PAGE_SIZE);
        mem.write_u64(lo, 7);
        mem.write_u64(hi, 9);
        assert_eq!(mem.resident_pages(), 2);
        assert_eq!(mem.read_u64(lo), 7);
        assert_eq!(mem.read_u64(hi), 9);
        mem.zero_page(hi);
        assert_eq!(mem.read_u64(hi), 0);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn rewriting_a_page_does_not_double_count() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x3000), 1);
        mem.write_u64(PhysAddr::new(0x3008), 2);
        assert_eq!(mem.resident_pages(), 1);
        mem.zero_page(PhysAddr::new(0x3000));
        mem.zero_page(PhysAddr::new(0x3000)); // double-zero is fine
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn reads_beyond_the_directory_are_zero() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_u64(PhysAddr::new((MAX_PFN - 1) << PAGE_SHIFT)), 0);
    }

    #[test]
    #[should_panic(expected = "simulated physical address space")]
    fn writes_beyond_the_address_space_panic() {
        PhysMem::new().write_u64(PhysAddr::new(MAX_PFN << PAGE_SHIFT), 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_read_panics() {
        PhysMem::new().read_u64(PhysAddr::new(0x1004 + 1));
    }

    #[test]
    fn write_log_tracks_dirty_pages_and_broadcast_syncs_shards() {
        let mut canon = PhysMem::new();
        canon.write_u64(PhysAddr::new(0x1000), 1);
        let mut shard = canon.clone();
        canon.set_write_log(true);
        canon.write_u64(PhysAddr::new(0x1008), 2);
        canon.write_u64(PhysAddr::new(0x5000), 3);
        canon.zero_page(PhysAddr::new(0x5000));
        let dirty = canon.take_dirty_pfns();
        assert_eq!(dirty, vec![1, 5], "sorted + deduplicated");
        for &pfn in &dirty {
            shard.copy_page_from(&canon, pfn);
        }
        assert_eq!(shard.read_u64(PhysAddr::new(0x1008)), 2);
        assert_eq!(shard.read_u64(PhysAddr::new(0x5000)), 0);
        assert_eq!(shard.resident_pages(), canon.resident_pages());
        assert!(
            canon.take_dirty_pfns().is_empty(),
            "drain empties the log; shard writes are not logged"
        );
    }

    #[test]
    fn frame_allocator_bump() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 3 * PAGE_SIZE);
        assert_eq!(fa.remaining(), 3);
        assert_eq!(fa.alloc(), Some(PhysAddr::new(0x8000_0000)));
        assert_eq!(fa.alloc(), Some(PhysAddr::new(0x8000_1000)));
        assert_eq!(fa.alloc(), Some(PhysAddr::new(0x8000_2000)));
        assert_eq!(fa.alloc(), None);
    }

    #[test]
    fn frame_allocator_recycles_released_frames() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 2 * PAGE_SIZE);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_eq!(fa.alloc(), None);
        fa.release(a);
        fa.release(b);
        assert_eq!(fa.remaining(), 2);
        // LIFO: the most recently released frame comes back first.
        assert_eq!(fa.alloc(), Some(b));
        assert_eq!(fa.alloc(), Some(a));
        assert_eq!(fa.alloc(), None);
    }

    #[test]
    #[should_panic(expected = "foreign frame")]
    fn frame_allocator_rejects_foreign_release() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 2 * PAGE_SIZE);
        fa.release(PhysAddr::new(0x9000_0000));
    }

    #[test]
    fn copy_page_within_moves_bytes_and_logs_destination() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x1000), 0x11);
        mem.write_u64(PhysAddr::new(0x1ff8), 0x22);
        mem.set_write_log(true);
        mem.copy_page_within(PhysAddr::new(0x1000), PhysAddr::new(0x4000));
        assert_eq!(mem.read_u64(PhysAddr::new(0x4000)), 0x11);
        assert_eq!(mem.read_u64(PhysAddr::new(0x4ff8)), 0x22);
        // Unbacked source zeroes the destination.
        mem.copy_page_within(PhysAddr::new(0x7000), PhysAddr::new(0x4000));
        assert_eq!(mem.read_u64(PhysAddr::new(0x4000)), 0);
        assert_eq!(mem.take_dirty_pfns(), vec![4], "destination pfn logged");
    }

    #[test]
    fn frame_allocator_contiguous() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 4 * PAGE_SIZE);
        assert_eq!(fa.alloc_run(3), Some((PhysAddr::new(0x8000_0000), 3)));
        assert_eq!(fa.remaining(), 1);
        // A recycled frame is a run of one, handed out before the cursor.
        fa.release(PhysAddr::new(0x8000_1000));
        assert_eq!(fa.alloc_run(2), Some((PhysAddr::new(0x8000_1000), 1)));
        // The cursor's run stops at the end of the range.
        assert_eq!(fa.alloc_run(2), Some((PhysAddr::new(0x8000_3000), 1)));
        assert_eq!(fa.alloc_run(1), None);
    }
}
