//! # hpmp-core
//!
//! The paper's primary contribution, as an executable hardware model: the
//! RISC-V PMP register formats, the **PMP Table** extension (Figure 6 bit
//! layouts: `T` bit, Mode/PPN address register, root and leaf pmptes, the
//! Figure 6-e offset split), the 16-entry **HPMP register file and checker**
//! with statically-prioritized matching, the **PMPTW-Cache**, and an
//! analytic hardware-cost model standing in for the paper's Vivado report.
//!
//! The checker reports the exact pmpte memory references each permission
//! check performs, one by one to a visitor as its table walk reads them;
//! the `hpmp-machine` crate charges each to the simulated cache hierarchy
//! to produce the paper's latencies.
//!
//! ```
//! use hpmp_core::{HpmpRegFile, PmpRegion, PmptwCache};
//! use hpmp_memsim::{AccessKind, Perms, PhysAddr, PhysMem, PrivMode};
//!
//! // A segment-mode entry checks in-register: zero memory references.
//! let mut regs = HpmpRegFile::new();
//! regs.configure_segment(0, PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000_0000),
//!                        Perms::RW)?;
//! let out = regs.check(&PhysMem::new(), &mut PmptwCache::disabled(),
//!                      PhysAddr::new(0x8000_1000), AccessKind::Read,
//!                      PrivMode::Supervisor);
//! assert!(out.allowed && out.refs.is_empty());
//! # Ok::<(), hpmp_core::HpmpError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod hpmp;
mod iopmp;
mod pmp;
mod ptw_cache;
mod shootdown;
mod table;

pub use cost::{estimate_resources, HardwareParams, ResourceReport};
pub use hpmp::{
    table_pointer_decode, table_pointer_encode, CheckOutcome, CheckVerdict, EntryPlan, HpmpError,
    HpmpRegFile, EPMP_ENTRIES, HPMP_ENTRIES,
};
pub use hpmp_trace::PmptwOutcome;
pub use iopmp::{DeviceId, IoCheckOutcome, IoPmp, IoPmpEntry, IoPmpMode};
pub use pmp::{napot_decode, napot_encode, AddressMode, PmpConfig, PmpRegion};
pub use ptw_cache::{PmptwCache, PmptwCacheConfig, PmptwCacheStats};
pub use shootdown::{CopyCost, DeferredShootdown, Ipi, IpiFabric, IpiKind, ShootdownCost};
pub use table::{
    FillPolicy, LeafPmpte, MalformedPmpte, PmpTable, PmptRef, PmptRefs, RootPmpte, TableError,
    TableOffset, TableWalk, LEAF_PMPTE_SPAN, LEAF_TABLE_SPAN, ROOT_TABLE_SPAN,
};
