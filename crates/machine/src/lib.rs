//! # hpmp-machine
//!
//! The simulated SoC that ties the substrates together: TLB lookup, page
//! walk, HPMP permission checks and the cache hierarchy, for both native
//! (Figures 2/4) and virtualized (Figure 8) accesses. The three isolation
//! schemes of the paper's evaluation are just three programmings of the same
//! HPMP register file, selected via [`SystemBuilder`].
//!
//! ```
//! use hpmp_machine::{IsolationScheme, MachineConfig, SystemBuilder};
//! use hpmp_memsim::{AccessKind, Perms, PrivMode, VirtAddr};
//!
//! let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
//! sys.map_range(VirtAddr::new(0x10_0000), 4, Perms::RW);
//! sys.sync_pt_grants();
//! sys.machine.flush_microarch();
//! let out = sys.machine.access(&sys.space, VirtAddr::new(0x10_0000),
//!                              AccessKind::Read, PrivMode::Supervisor)?;
//! assert_eq!(out.refs.total(), 6); // Figure 4: 12 -> 6 under HPMP
//! # Ok::<(), hpmp_machine::Fault>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod machine;
mod multihart;
mod pipeline;
mod setup;
mod threaded;
mod virt;

pub use machine::{AccessOutcome, Fault, Machine, MachineConfig, MachineStats, RefBreakdown};
pub use multihart::{HartCounters, HartScheduler, MultiHartMachine};
pub use pipeline::{AccessPipeline, AccessStats};
pub use setup::{IsolationScheme, ScatteredPtFrames, System, SystemBuilder};
pub use threaded::{ExecBackend, SpscMailbox};
pub use virt::{VirtAccessOutcome, VirtMachine, VirtRefBreakdown, VirtScheme};
