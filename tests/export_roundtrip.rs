//! Exporter round-trip conformance on a real fixed-seed 4-hart run: the
//! Chrome Trace Event document must re-derive the final snapshot's cycle
//! counters when its track durations are re-summed (the acceptance pin
//! for `hpmp-analyze export`), and the collapsed stacks must re-derive
//! the per-class latency cycle counters. Both checks run against the
//! genuine artifacts the SMP harness emits, not synthetic fixtures.

use hpmp_suite::analyze::{
    chrome_trace, collapsed_stacks, render_collapsed, verify_collapsed, verify_span_export,
};
use hpmp_suite::machine::{Machine, MachineConfig};
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::trace::json::{parse_json, JsonValue};
use hpmp_suite::trace::{
    walks_in_snapshot, JsonlSink, Snapshot, SpanStream, Timeline, TraceReader, WalkEvent,
    SCHEMA_VERSION, WALK_EVENT_STREAM,
};
use hpmp_suite::workloads::smp::{run_smp_with, spec_for, RunOptions, SmpTelemetrySpec};

/// Same fixed seed and shape as the `hpmpsim --harts 4` CI run.
const SEED: u64 = 0x4850_4d50;
const HARTS: usize = 4;
const INTERVAL: u64 = 40_000;

struct Run {
    snapshot: Snapshot,
    events: Vec<WalkEvent>,
    spans: SpanStream,
    timeline: Timeline,
}

/// One traced 4-hart tenancy run, artifacts round-tripped through their
/// serialized JSONL forms exactly as the CLI path would see them.
fn run_traced() -> Run {
    let machines = (0..HARTS)
        .map(|_| {
            Machine::with_sink(
                MachineConfig::rocket(),
                JsonlSink::new_headerless(Vec::new()),
            )
        })
        .collect();
    let spec = spec_for("tenancy").expect("tenancy has an SMP shape");
    let telemetry_spec = SmpTelemetrySpec {
        snapshot_interval: Some(INTERVAL),
        span_capacity: Some(SmpTelemetrySpec::DEFAULT_SPAN_CAPACITY),
    };
    let (_, snapshot, sinks, telemetry) = run_smp_with(
        machines,
        TeeFlavor::PenglaiHpmp,
        SEED,
        spec,
        RunOptions::Deterministic(telemetry_spec),
    )
    .expect("SMP workload");

    // Splice the per-hart trace bytes under one header, as hpmpsim does.
    let mut trace = format!("{{\"schema\":{SCHEMA_VERSION},\"stream\":\"{WALK_EVENT_STREAM}\"}}\n")
        .into_bytes();
    for sink in sinks {
        trace.extend_from_slice(&sink.into_inner());
    }
    let events = TraceReader::new(trace.as_slice())
        .expect("valid header")
        .read_all()
        .expect("parses");

    let mut span_bytes = Vec::new();
    telemetry
        .spans
        .as_ref()
        .expect("capacity requested")
        .write_jsonl(&mut span_bytes)
        .expect("Vec writes cannot fail");
    let mut timeline_bytes = Vec::new();
    telemetry
        .timeline
        .as_ref()
        .expect("interval requested")
        .write_jsonl(&mut timeline_bytes)
        .expect("Vec writes cannot fail");

    Run {
        snapshot,
        events,
        spans: SpanStream::parse(span_bytes.as_slice()).expect("spans parse"),
        timeline: Timeline::parse(timeline_bytes.as_slice()).expect("timeline parses"),
    }
}

/// The acceptance pin: summing the exported Chrome slice durations per
/// hart track re-derives the final snapshot's `hart.<i>.shootdown_cycles`
/// and `hart.<i>.shootdowns` counters exactly — straight from the JSON
/// document a viewer would load, not from the in-memory spans.
#[test]
fn chrome_trace_durations_re_derive_the_snapshot_counters() {
    let run = run_traced();
    assert_eq!(
        verify_span_export(&run.spans, &run.snapshot),
        Vec::<String>::new()
    );

    let json = chrome_trace(&run.spans, Some(&run.timeline));
    let doc = parse_json(&json).expect("export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");

    let mut handler_cycles = [0u64; HARTS];
    let mut recv_count = [0u64; HARTS];
    let mut flows = 0usize;
    let mut final_walks = None;
    for event in events {
        let name = event.get("name").and_then(JsonValue::as_str).unwrap_or("");
        match event.get("ph").and_then(JsonValue::as_str) {
            Some("X") => {
                let tid = event
                    .get("tid")
                    .and_then(JsonValue::as_u64)
                    .expect("slice has a tid") as usize;
                let dur = event
                    .get("dur")
                    .and_then(JsonValue::as_u64)
                    .expect("slice has a dur");
                match name {
                    "trap" | "reprogram" | "fence" => handler_cycles[tid] += dur,
                    "shootdown_recv" => recv_count[tid] += 1,
                    _ => {}
                }
            }
            Some("s") => flows += 1,
            Some("C") if name == "walks" => {
                final_walks = event
                    .get("args")
                    .and_then(|a| a.get("walks"))
                    .and_then(JsonValue::as_u64);
            }
            _ => {}
        }
    }

    let mut stalled_harts = 0;
    for hart in 0..HARTS {
        let want_cycles = run.snapshot.value(&format!("hart.{hart}.shootdown_cycles"));
        let want_count = run.snapshot.value(&format!("hart.{hart}.shootdowns"));
        assert_eq!(
            handler_cycles[hart], want_cycles,
            "hart {hart}: exported track durations diverge from the snapshot"
        );
        assert_eq!(
            recv_count[hart], want_count,
            "hart {hart}: exported shootdown_recv slices diverge from the snapshot"
        );
        stalled_harts += u32::from(want_cycles > 0);
    }
    assert!(stalled_harts > 0, "the tenancy shape must shoot down");
    assert!(flows > 0, "causal links must become flow arrows");
    // The cumulative walks counter track ends at the snapshot's total.
    assert_eq!(
        final_walks,
        Some(walks_in_snapshot(&run.snapshot)),
        "the walks counter track must end at the snapshot total"
    );
}

/// Collapsed stacks re-derive the per-class latency cycle counters, and
/// the rendered text is well-formed flamegraph input.
#[test]
fn collapsed_stacks_re_derive_the_latency_counters() {
    let run = run_traced();
    assert!(!run.events.is_empty(), "the run must trace walk events");
    assert_eq!(
        verify_collapsed(&run.events, &run.snapshot),
        Vec::<String>::new()
    );

    let stacks = collapsed_stacks(&run.events);
    assert!(!stacks.is_empty());
    let rendered = render_collapsed(&stacks);
    for line in rendered.lines() {
        let (stack, cycles) = line.rsplit_once(' ').expect("`frames count` shape");
        assert!(
            stack.splitn(3, ';').count() == 3,
            "stack must be world;class;step: {line}"
        );
        assert!(
            cycles.parse::<u64>().is_ok(),
            "count must be numeric: {line}"
        );
    }
    // Total stack cycles equal total event cycles — nothing dropped,
    // nothing double-counted.
    let stack_total: u64 = stacks.values().sum();
    let event_total: u64 = run.events.iter().map(|e| e.cycles).sum();
    assert_eq!(stack_total, event_total);
}
