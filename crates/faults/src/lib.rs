//! # hpmp-faults
//!
//! Deterministic fault injection for the HPMP stack, paired with a
//! lockstep reference oracle.
//!
//! A *campaign* is a seeded, scripted sequence of fault trials sharded
//! into independent simulated worlds. Each trial injects one fault from
//! five classes — pmpte bit flips in simulated DRAM, PMP register
//! corruption, suppressed invalidation fences after monitor remaps,
//! dropped monitor interpositions and faults mid-compaction — then probes
//! a fixed set of accesses and compares every fast-path decision against
//! the monitor's
//! [`oracle`](hpmp_penglai::SecureMonitor::oracle_check_for), a slow
//! cache-free re-derivation from authoritative monitor-owned state.
//!
//! The fail-closed invariant: a fast-path **grant** the oracle **denies**
//! is a silent isolation violation and fails the campaign; a spurious
//! denial is graceful degradation and merely counted. After every trial
//! the shard also runs the monitor's one fail-closed check
//! ([`fail_closed_violation`](hpmp_penglai::SecureMonitor::fail_closed_violation)),
//! the same check the model checker and the random batteries run; a
//! broken invariant fails the shard. Campaigns with the
//! same seed produce byte-identical reports at any `--jobs` level because
//! the shard count is part of the spec, each shard derives its own
//! [`SplitMix64`](hpmp_memsim::SplitMix64) stream, and merging is pure
//! ordered accumulation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod spec;

pub use campaign::{run_shard, CampaignReport, ShardReport};
pub use spec::{CampaignSpec, FaultClass};
