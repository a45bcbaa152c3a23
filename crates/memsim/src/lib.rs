//! # hpmp-memsim
//!
//! The memory-system substrate for the HPMP (MICRO '23) reproduction: address
//! and permission primitives, a sparse physical-memory backing store, a
//! set-associative cache hierarchy, an open-row DRAM timing model, the
//! fully-associative LRU store behind the TLB and walk caches, and core
//! timing parameters for the two SoCs the paper evaluates (RocketCore and
//! BOOM, per its Table 1).
//!
//! Everything above this crate (page-table walkers, PMP/PMP-Table checkers,
//! the Penglai monitor, the workload generators) expresses its behaviour as a
//! stream of physical references issued through [`MemSystem::access`]; the
//! latencies and hit levels returned here are what ultimately produce every
//! table and figure in the evaluation.
//!
//! ```
//! use hpmp_memsim::{MemSystem, MemSystemConfig, PhysAddr, HitLevel};
//!
//! let mut mem = MemSystem::new(MemSystemConfig::rocket());
//! let cold = mem.access(PhysAddr::new(0x8000_0000));
//! assert_eq!(cold.level, HitLevel::Dram);
//! assert_eq!(mem.access(PhysAddr::new(0x8000_0000)).level, HitLevel::L1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod cache;
mod config;
mod dram;
mod hash;
mod hierarchy;
mod inline;
mod lru;
mod perm;
mod physmem;
mod rng;
mod store;

pub use addr::{PhysAddr, VirtAddr, LINE_SHIFT, LINE_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use config::{CoreKind, CoreModel};
pub use dram::{Dram, DramConfig, DramStats};
pub use hash::Fnv1a;
pub use hierarchy::{HitLevel, MemAccessOutcome, MemSystem, MemSystemConfig, MemSystemStats};
pub use inline::InlineVec;
pub use lru::{LruEntry, LruMap, LRU_MAX_ENTRIES};
pub use perm::{AccessKind, Perms, PrivMode};
pub use physmem::{FrameAllocator, PageWords, PhysMem, WORDS_PER_PAGE};
pub use rng::SplitMix64;
pub use store::WordStore;
