//! Observability layer for the HPMP reproduction.
//!
//! The paper's figures are all statements about *where cycles go* during
//! extra-dimensional page walks — TLB hits vs. Sv39 steps vs. PMP-table
//! steps vs. PMPTW-Cache hits. This crate provides the three pieces that
//! make those claims inspectable instead of opaque:
//!
//! * [`WalkEvent`] + [`TraceSink`] — a structured per-access event carrying
//!   the complete step-by-step breakdown of one translated access, and a
//!   sink trait the simulator is generic over. [`NullSink`] has
//!   `ENABLED == false` and monomorphizes to nothing; [`RingSink`] keeps the
//!   last N events in memory; [`JsonlSink`] streams one JSON object per
//!   line.
//! * [`Counters`] / [`MetricsRegistry`] / [`Snapshot`] — every `*Stats`
//!   struct in the workspace is a plain [`Counters`] struct that publishes
//!   itself under hierarchical dotted names into one exportable, diffable,
//!   mergeable view.
//! * [`LatencyHistogram`] — log2-bucketed latency distributions per
//!   [`AccessClass`], so Fig 10-style breakdowns come from real per-access
//!   samples rather than means.
//! * [`SpanEvent`] + [`SpanCollector`] and [`TimelineSink`] — the time
//!   axis: causally linked monitor-operation/shootdown spans, and periodic
//!   snapshot slices whose deltas telescope back to the end-of-run
//!   snapshot exactly. Both are bounded and count what they drop
//!   (`trace.dropped.*`), so hour-scale sampling is lossy but honest.
//!
//! The crate is dependency-free and sits below every other crate in the
//! workspace: `memsim`, `paging`, `core`, `machine`, `penglai`, `workloads`
//! and `bench` all link against it.
//!
//! # Invariant
//!
//! For every event: `pipeline_cycles + Σ step.cycles == cycles`. The
//! simulator's determinism tests additionally prove that attaching any sink
//! never changes a cycle result.

mod event;
mod hist;
mod host;
pub mod json;
mod metrics;
mod read;
mod report;
mod sink;
mod span;
mod timeline;

pub use event::{
    AccessOp, FaultCause, PmptwOutcome, PrivLevel, StepKind, TlbOutcome, WalkEvent, WalkStep, World,
};
pub use hist::{AccessClass, LatencyHistogram, LatencyHistograms, HIST_BUCKETS};
pub use host::{
    alloc_stats, walks_per_sec, AllocStats, HostExperiment, HostProfile, HostProfiler,
    HOST_PROFILE_KIND,
};
pub use metrics::{Counters, MetricsRegistry, Snapshot};
pub use read::{
    check_schema, parse_event, read_trace_file, ReadError, TraceReader, WALK_EVENT_STREAM,
};
pub use report::{
    histograms_in_snapshot, walks_in_snapshot, BenchReport, ExperimentRecord, Percentiles,
    BENCH_REPORT_KIND,
};
pub use sink::{JsonlSink, NullSink, RingSink, TraceSink};
pub use span::{parse_span, SpanCollector, SpanEvent, SpanKind, SpanStream, SPAN_EVENT_STREAM};
pub use timeline::{
    resum, Timeline, TimelineSink, TimelineSlice, DEFAULT_MAX_SLICES, TIMELINE_STREAM,
};

/// Version of every on-disk artifact this crate writes (JSONL trace
/// streams, versioned metrics snapshots, bench reports). Readers reject
/// any other version; bump it when a format changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Escape a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
