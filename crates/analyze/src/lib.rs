//! Offline analytics over the HPMP simulator's observability artifacts.
//!
//! The write side (`hpmp-trace` + the bench binaries) emits three versioned
//! artifact families: JSONL walk-event traces (`--trace-out`), metrics
//! snapshots (`--metrics-out`), and perf-trajectory bench reports
//! (`--bench-out`). This crate is the read side — the `hpmp-analyze`
//! binary plus the library underneath it:
//!
//! * [`profile`] — cycle attribution by world × access class × step kind
//!   with per-level PT/PMPT splits, step-sum invariant verification, and
//!   the paper's reference-count claims (6 vs 12 native, 12 vs 36
//!   virtualized) recomputed from event data alone;
//! * [`diff`] — A/B differential reports: per-counter deltas, percent
//!   change, and histogram percentile shifts between two runs;
//! * [`campaign`] — fault-campaign artifact analysis (`--campaign-out`):
//!   per-class injected/detected/silent tallies recounted from trial
//!   records and cross-checked against the embedded summary;
//! * [`timeline`] — time-resolved analysis of `--snapshot-interval` /
//!   `--spans-out` artifacts: per-slice activity rates, cumulative
//!   latency-percentile drift, and span-based critical-path attribution
//!   of cross-hart shootdown stalls;
//! * [`export`] — converters into industry-standard viewer formats:
//!   Chrome Trace Event JSON (Perfetto / `chrome://tracing`) from span
//!   streams, and collapsed stacks (flamegraph.pl / inferno) from
//!   walk-event traces, each with a round-trip validator re-summing the
//!   exported durations against the run's metrics snapshot.
//!
//! Regression checking needs no tool of its own: the simulated clock is
//! deterministic, so CI byte-compares each fresh report against its
//! committed pin with `cmp`, and [`diff`] explains a pin that fails.

pub mod campaign;
pub mod diff;
pub mod export;
pub mod profile;
pub mod timeline;

pub use campaign::{CampaignAnalysis, ClassTally};
pub use diff::{diff_snapshots, load_artifact, percentile_shifts, render_diff, Artifact};
pub use export::{
    chrome_trace, collapsed_stacks, render_collapsed, verify_collapsed, verify_span_export,
};
pub use profile::{ColdWalk, EventRefs, IsolationShape, PaperRefs, WalkProfile, PAPER_REFS};
pub use timeline::{analyze_timeline, Attribution, DriftRow, SliceRow, TimelineAnalysis};
