//! # hpmp-paging
//!
//! RISC-V virtual-memory substrate for the HPMP (MICRO '23) reproduction:
//! Sv39/Sv48/Sv57 page tables and the hypervisor's Sv39x4 nested page
//! table, all one [`AddressSpace`] type built in simulated physical memory;
//! the hardware page-table walker (which reports each memory reference of
//! Figure 2 as it reads it), a two-level TLB with permission inlining, a
//! page-walk cache (the paper's PTECache), and the hypervisor extension's
//! two-stage Sv39×Sv39x4 walk (Figure 8).
//!
//! ```
//! use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, PhysMem, VirtAddr, PAGE_SIZE};
//! use hpmp_paging::{walk, AddressSpace, TranslationMode, WalkCache, WalkCacheConfig};
//!
//! let mut mem = PhysMem::new();
//! let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
//! let mut space = AddressSpace::new(TranslationMode::Sv39, 1, &mut mem, &mut frames).unwrap();
//! space.map_page(&mut mem, &mut frames, VirtAddr::new(0x1000),
//!                PhysAddr::new(0x9000_0000), Perms::RW, true).unwrap();
//!
//! let mut pwc = WalkCache::new(WalkCacheConfig::default());
//! let result = walk(&mem, &space, &mut pwc, VirtAddr::new(0x1000));
//! assert_eq!(result.pt_refs.len(), 3); // the three squares of Figure 2-a
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod mode;
mod nested;
mod pte;
mod pwc;
mod space;
mod tlb;
mod walker;

pub use mode::TranslationMode;
pub use nested::{nested_walk, GuestView, GSTAGE_VMID};
pub use pte::Pte;
pub use pwc::{WalkCache, WalkCacheConfig, WalkCacheStats};
pub use space::{AddressSpace, MapError, PtFrameSource, Translation};
pub use tlb::{apply_translation, Tlb, TlbConfig, TlbEntry, TlbHit, TlbStats};
pub use walker::{walk, walk_with, PtRef, PtRefs, WalkResult};
