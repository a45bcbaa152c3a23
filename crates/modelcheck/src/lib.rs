//! # hpmp-modelcheck
//!
//! Verification of the secure monitor's fail-closed property by one
//! vocabulary and one check across exhaustive and random search, in the
//! spirit of Cheang et al., "Verifying RISC-V Physical Memory Protection".
//!
//! * [`schedule`] — the one monitor-op vocabulary ([`MonitorOp`], fault
//!   ops included), the one tolerated-error rule, the checked step that
//!   runs `SecureMonitor::fail_closed_violation` after every op, and the
//!   replayable [`Schedule`] text format. The random batteries in
//!   `tests/monitor_fuzz.rs` and `tests/shootdown.rs` drive it through
//!   [`CheckedRun`].
//! * [`bmc`] — the bounded model checker: explicit-state DFS over every
//!   k-op interleaving of forked [`hpmp_penglai::SmpSystem`]s, with
//!   fingerprint-canonicalized pruning and the same checked step.
//! * [`fuzz`] — the differential fuzz bodies behind the three cargo-fuzz
//!   targets in `fuzz/`, plus a deterministic corpus smoke driver.
//!
//! The `hpmp-verify` binary fronts all of it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bmc;
pub mod fuzz;
pub mod schedule;

pub use bmc::{run_bmc, BmcConfig, BmcReport, Counterexample};
pub use schedule::{
    boot_system, pmpte_path, slot_of, Boot, BootError, CheckedRun, MonitorOp, Outcome, Plant,
    Schedule, ScheduledOp, StepError,
};
