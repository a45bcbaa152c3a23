//! # hpmp-penglai
//!
//! The software half of the co-design: a simulated Penglai-style secure
//! monitor (M-mode) with the general-memory-segment (GMS) abstraction, the
//! three comparison flavours (Penglai-PMP / Penglai-PMPT / Penglai-HPMP),
//! domain lifecycle and region management (§5, Figure 14), and a small
//! simulated OS kernel whose page-table pages come from a contiguous "fast"
//! pool or a scattered allocator — the ~700-line Linux change the paper
//! describes, reproduced behaviourally.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod degrade;
mod gms;
mod monitor;
mod os;
mod pool;
mod smp;

pub use degrade::{DegradationPolicy, DegradeStage};
pub use gms::{Gms, GmsLabel};
pub use monitor::{
    cost, CompactNote, CompactReport, DomainId, MonitorError, MonitorStats, ScrubReport,
    SecureMonitor, TeeFlavor, Violation,
};
pub use os::{
    HintId, OsError, OsStats, Pid, RegionHint, SimOs, KERNEL_DIRECT_MAP, USER_CODE_BASE,
    USER_HEAP_BASE,
};
pub use pool::RegionPool;
pub use smp::SmpSystem;
