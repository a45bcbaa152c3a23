//! Exporters: simulator artifacts → industry-standard viewer formats.
//!
//! Two targets, both fed by the PR 6 telemetry artifacts:
//!
//! * **Chrome Trace Event Format** ([`chrome_trace`]) from a span stream
//!   (plus, optionally, a timeline): one JSON document loadable in
//!   Perfetto or `chrome://tracing`. Harts become threads, monitor
//!   operations and shootdown deliveries become complete (`"X"`) slices,
//!   the causal parent ids become flow arrows (`"s"`/`"f"` pairs), and
//!   timeline slices become counter (`"C"`) tracks. One simulated cycle
//!   is rendered as one microsecond — the viewer's time unit is
//!   *simulated* time, never host time.
//! * **Collapsed stacks** ([`collapsed_stacks`]) from a walk-event trace:
//!   `world;class;step` frames, one line per stack with its summed
//!   cycles, directly consumable by `flamegraph.pl` or inferno to render
//!   a cycle-attribution flamegraph.
//!
//! Both directions are *lossy projections* of the artifacts, so each has
//! a round-trip validator ([`verify_span_export`], [`verify_collapsed`])
//! re-summing the exported durations against the run's metrics snapshot:
//! receiver-side handler spans must re-derive `hart.<i>.shootdown_cycles`
//! exactly, and per-class stack totals must re-derive the
//! `machine.latency.<class>.cycles` counters. If a projection ever drops
//! or double-counts cycles, the export fails rather than rendering a
//! pretty lie.

use crate::timeline::sum_over_harts;
use hpmp_trace::{AccessClass, Snapshot, SpanEvent, SpanKind, SpanStream, Timeline, WalkEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The Chrome `cat` field of a span: monitor operations vs. the shootdown
/// machinery under them.
fn category(kind: SpanKind) -> &'static str {
    if kind.is_operation() {
        "operation"
    } else {
        "shootdown"
    }
}

/// Convert a span stream (and optional timeline) into one Chrome Trace
/// Event Format document.
///
/// Event order is deterministic: process/thread metadata, then every
/// span in stream order, then one flow pair per parent link in stream
/// order, then the timeline's counter samples in slice order.
pub fn chrome_trace(spans: &SpanStream, timeline: Option<&Timeline>) -> String {
    let mut events: Vec<String> = Vec::new();

    // Track metadata: one process, one thread per hart seen.
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"hpmp-sim (simulated cycles as us)\"}}"
            .to_string(),
    );
    let mut harts: Vec<u16> = spans.spans.iter().map(|s| s.hart).collect();
    harts.sort_unstable();
    harts.dedup();
    for hart in &harts {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{hart},\
             \"args\":{{\"name\":\"hart {hart}\"}}}}"
        ));
    }

    // Complete events: one slice per span, on its hart's track.
    let by_id: BTreeMap<u64, &SpanEvent> = spans.spans.iter().map(|s| (s.id, s)).collect();
    for span in &spans.spans {
        let mut args = format!("\"span\":{}", span.id);
        if let Some(domain) = span.domain {
            let _ = write!(args, ",\"domain\":{domain}");
        }
        if let Some(parent) = span.parent {
            let _ = write!(args, ",\"parent\":{parent}");
        }
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{},\"args\":{{{}}}}}",
            span.kind.label(),
            category(span.kind),
            span.begin,
            span.cycles(),
            span.hart,
            args
        ));
    }

    // Flow arrows: one s/f pair per causal parent link, drawn from the
    // parent's begin to the child's begin, across hart tracks. The child
    // id doubles as the flow id (every child has exactly one parent).
    for span in &spans.spans {
        let Some(parent) = span.parent.and_then(|id| by_id.get(&id)) else {
            continue;
        };
        events.push(format!(
            "{{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\
             \"ts\":{},\"pid\":0,\"tid\":{}}}",
            span.id, parent.begin, parent.hart
        ));
        events.push(format!(
            "{{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
            span.id, span.begin, span.hart
        ));
    }

    // Counter tracks from the timeline: cumulative walks and delivered
    // IPIs sampled at each slice boundary.
    if let Some(timeline) = timeline {
        let mut walks = 0u64;
        let mut ipis = 0u64;
        for slice in &timeline.slices {
            walks += sum_over_harts(&slice.counters, "machine.walks");
            ipis += slice.counters.value("smp.ipis_delivered");
            events.push(format!(
                "{{\"name\":\"walks\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                 \"args\":{{\"walks\":{walks}}}}}",
                slice.end_cycle
            ));
            events.push(format!(
                "{{\"name\":\"ipis\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                 \"args\":{{\"delivered\":{ipis}}}}}",
                slice.end_cycle
            ));
        }
    }

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"source\":\"hpmp-analyze export\",\"dropped_spans\":{}}}}}\n",
        events.join(","),
        spans.dropped
    )
}

/// Re-sum the span projection against the run's final metrics snapshot.
///
/// Two invariants, exact by construction of the SMP harness:
///
/// * per hart, the receiver-side handler spans (`trap` + `reprogram` +
///   `fence`) sum to `hart.<i>.shootdown_cycles` — the cycles
///   `hpmp_machine`'s `charge_shootdown` charged;
/// * per hart, the `shootdown_recv` span count equals
///   `hart.<i>.shootdowns`.
///
/// Returns the list of violations (empty = round trip clean). A stream
/// that dropped spans cannot re-derive the counters; that is reported as
/// a violation rather than silently tolerated.
pub fn verify_span_export(spans: &SpanStream, metrics: &Snapshot) -> Vec<String> {
    let mut violations = Vec::new();
    if spans.dropped > 0 {
        violations.push(format!(
            "{} spans were dropped at capture; durations cannot re-derive the counters",
            spans.dropped
        ));
    }
    let mut handler_cycles: BTreeMap<u16, u64> = BTreeMap::new();
    let mut recv_count: BTreeMap<u16, u64> = BTreeMap::new();
    for span in &spans.spans {
        match span.kind {
            SpanKind::Trap | SpanKind::Reprogram | SpanKind::Fence => {
                *handler_cycles.entry(span.hart).or_insert(0) += span.cycles();
            }
            SpanKind::ShootdownRecv => {
                *recv_count.entry(span.hart).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    // Harts are taken from the metrics side so a hart whose spans all
    // vanished is caught too.
    let mut harts: Vec<u16> = metrics
        .iter()
        .filter_map(|(name, _)| {
            name.strip_prefix("hart.")?
                .split('.')
                .next()?
                .parse::<u16>()
                .ok()
        })
        .collect();
    harts.extend(handler_cycles.keys().copied());
    harts.sort_unstable();
    harts.dedup();
    for hart in harts {
        let want_cycles = metrics.value(&format!("hart.{hart}.shootdown_cycles"));
        let got_cycles = handler_cycles.get(&hart).copied().unwrap_or(0);
        if want_cycles != got_cycles {
            violations.push(format!(
                "hart {hart}: exported handler spans sum to {got_cycles} cycles but \
                 hart.{hart}.shootdown_cycles = {want_cycles}"
            ));
        }
        let want_count = metrics.value(&format!("hart.{hart}.shootdowns"));
        let got_count = recv_count.get(&hart).copied().unwrap_or(0);
        if want_count != got_count {
            violations.push(format!(
                "hart {hart}: {got_count} shootdown_recv spans exported but \
                 hart.{hart}.shootdowns = {want_count}"
            ));
        }
    }
    violations
}

/// Collapse a walk-event trace into `world;class;step` stacks with
/// summed cycles — the flamegraph.pl / inferno input format. Leveled
/// steps keep their level as an `_L<n>` suffix so Sv39's three PT levels
/// stay distinguishable; each event's fixed pipeline overhead becomes a
/// `pipeline` leaf.
pub fn collapsed_stacks(events: &[WalkEvent]) -> BTreeMap<String, u64> {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for event in events {
        let world = event.world.label();
        let class = AccessClass::classify(event.op, event.tlb.is_hit()).label();
        for step in &event.steps {
            let frame = match step.level {
                Some(level) => format!("{world};{class};{}_L{level}", step.kind.label()),
                None => format!("{world};{class};{}", step.kind.label()),
            };
            *stacks.entry(frame).or_insert(0) += step.cycles;
        }
        if event.pipeline_cycles > 0 {
            *stacks
                .entry(format!("{world};{class};pipeline"))
                .or_insert(0) += event.pipeline_cycles;
        }
    }
    stacks.retain(|_, cycles| *cycles > 0);
    stacks
}

/// Render collapsed stacks as text: one `frame;frame;frame cycles` line
/// per stack, sorted by frame path (deterministic for byte-comparison).
pub fn render_collapsed(stacks: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, cycles) in stacks {
        let _ = writeln!(out, "{stack} {cycles}");
    }
    out
}

/// Re-sum the collapsed-stack projection against the run's final metrics
/// snapshot: per access class, the cycles of that class's events must
/// equal the class's latency-histogram cycle counter
/// (`machine.latency.<class>.cycles`, summed over harts), and every
/// event's stack total must equal its own cycle count (the step-sum
/// invariant). Returns the violations (empty = round trip clean).
pub fn verify_collapsed(events: &[WalkEvent], metrics: &Snapshot) -> Vec<String> {
    let mut violations = Vec::new();
    let mut by_class: BTreeMap<&'static str, u64> = BTreeMap::new();
    for event in events {
        let class = AccessClass::classify(event.op, event.tlb.is_hit()).label();
        *by_class.entry(class).or_insert(0) += event.cycles;
        let stacked: u64 =
            event.pipeline_cycles + event.steps.iter().map(|s| s.cycles).sum::<u64>();
        if stacked != event.cycles {
            violations.push(format!(
                "event seq {}: stacked cycles {} != event cycles {} (step-sum violation)",
                event.seq, stacked, event.cycles
            ));
        }
    }
    for class in AccessClass::ALL {
        let label = class.label();
        let want = sum_over_harts(metrics, &format!("machine.latency.{label}.cycles"));
        let got = by_class.get(label).copied().unwrap_or(0);
        if want != got {
            violations.push(format!(
                "class {label}: stacks sum to {got} cycles but the latency counters \
                 say {want}"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_trace::{
        AccessOp, MetricsRegistry, PrivLevel, SpanCollector, StepKind, TlbOutcome, WalkStep, World,
    };

    fn spans_with_shootdown() -> SpanStream {
        let mut c = SpanCollector::bounded(64);
        // An op on hart 0 with one receiver on hart 1.
        let op = c.reserve().unwrap();
        let recv = c
            .emit(SpanKind::ShootdownRecv, 1, Some(7), Some(op), 100, 180)
            .unwrap();
        c.emit(SpanKind::Trap, 1, Some(7), Some(recv), 110, 140);
        c.emit(SpanKind::Reprogram, 1, Some(7), Some(recv), 140, 165);
        c.emit(SpanKind::Fence, 1, Some(7), Some(recv), 165, 180);
        c.emit_reserved(SpanEvent {
            id: op,
            parent: None,
            kind: SpanKind::Free,
            hart: 0,
            domain: Some(7),
            begin: 90,
            end: 200,
        });
        SpanStream {
            dropped: 0,
            spans: c.spans().to_vec(),
        }
    }

    fn matching_metrics() -> Snapshot {
        let mut reg = MetricsRegistry::new();
        // trap 30 + reprogram 25 + fence 15 = 70 handler cycles.
        reg.set("hart.1.shootdown_cycles", 70);
        reg.set("hart.1.shootdowns", 1);
        reg.set("hart.0.shootdown_cycles", 0);
        reg.set("hart.0.shootdowns", 0);
        reg.snapshot()
    }

    #[test]
    fn chrome_export_has_tracks_slices_and_flows() {
        let spans = spans_with_shootdown();
        let json = chrome_trace(&spans, None);
        // Parses as JSON at all.
        let doc = hpmp_trace::json::parse_json(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // 1 process + 2 threads + 5 spans + 4 flow pairs (recv->op,
        // trap/reprogram/fence->recv).
        assert_eq!(events.len(), 1 + 2 + 5 + 2 * 4, "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"shootdown_recv\""), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        // The op slice spans its full width on hart 0's track.
        assert!(
            json.contains(
                "\"name\":\"free\",\"cat\":\"operation\",\"ph\":\"X\",\"ts\":90,\"dur\":110"
            ),
            "{json}"
        );
    }

    #[test]
    fn span_round_trip_verifies_against_counters() {
        let spans = spans_with_shootdown();
        assert_eq!(
            verify_span_export(&spans, &matching_metrics()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn span_round_trip_catches_doctored_counters() {
        let spans = spans_with_shootdown();
        let mut reg = MetricsRegistry::new();
        reg.set("hart.1.shootdown_cycles", 71); // off by one
        reg.set("hart.1.shootdowns", 1);
        let violations = verify_span_export(&spans, &reg.snapshot());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("71"), "{violations:?}");
    }

    #[test]
    fn span_round_trip_rejects_dropped_streams() {
        let mut spans = spans_with_shootdown();
        spans.dropped = 3;
        let violations = verify_span_export(&spans, &matching_metrics());
        assert!(violations[0].contains("dropped"), "{violations:?}");
    }

    fn walk_event(seq: u64, op: AccessOp, tlb: TlbOutcome, steps: Vec<WalkStep>) -> WalkEvent {
        let step_cycles: u64 = steps.iter().map(|s| s.cycles).sum();
        WalkEvent {
            seq,
            hart: 0,
            world: World::Enclave,
            op,
            privilege: PrivLevel::Supervisor,
            va: 0x1000,
            paddr: Some(0x8000_0000),
            tlb,
            pwc_level: None,
            pmptw: None,
            pipeline_cycles: 1,
            cycles: 1 + step_cycles,
            fault: None,
            steps,
        }
    }

    fn sample_events() -> Vec<WalkEvent> {
        let step = |kind, level, cycles| WalkStep {
            kind,
            level,
            addr: 0x8000_0000,
            cycles,
        };
        vec![
            walk_event(
                0,
                AccessOp::Read,
                TlbOutcome::Miss,
                vec![
                    step(StepKind::Pt, Some(2), 14),
                    step(StepKind::Pt, Some(1), 14),
                    step(StepKind::Pt, Some(0), 14),
                    step(StepKind::Data, None, 14),
                ],
            ),
            walk_event(
                1,
                AccessOp::Read,
                TlbOutcome::L1Hit,
                vec![step(StepKind::Data, None, 2)],
            ),
        ]
    }

    #[test]
    fn collapsed_stacks_fold_by_world_class_step() {
        let stacks = collapsed_stacks(&sample_events());
        assert_eq!(stacks["enclave;read_walk;pt_L2"], 14);
        assert_eq!(stacks["enclave;read_walk;data"], 14);
        assert_eq!(stacks["enclave;read_tlb_hit;data"], 2);
        assert_eq!(stacks["enclave;read_walk;pipeline"], 1);
        let rendered = render_collapsed(&stacks);
        assert!(
            rendered.contains("enclave;read_walk;pt_L0 14\n"),
            "{rendered}"
        );
        let total: u64 = stacks.values().sum();
        assert_eq!(total, 57 + 3, "every event cycle lands in some stack");
    }

    #[test]
    fn collapsed_round_trip_verifies_against_latency_counters() {
        let events = sample_events();
        let mut reg = MetricsRegistry::new();
        reg.set("machine.latency.read_walk.cycles", 57);
        reg.set("machine.latency.read_tlb_hit.cycles", 3);
        assert_eq!(
            verify_collapsed(&events, &reg.snapshot()),
            Vec::<String>::new()
        );

        reg.set("machine.latency.read_walk.cycles", 58);
        let violations = verify_collapsed(&events, &reg.snapshot());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("read_walk"), "{violations:?}");
    }

    #[test]
    fn collapsed_verify_flags_unbalanced_events() {
        let mut events = sample_events();
        events[0].cycles += 5;
        let mut reg = MetricsRegistry::new();
        reg.set("machine.latency.read_walk.cycles", 62);
        reg.set("machine.latency.read_tlb_hit.cycles", 3);
        let violations = verify_collapsed(&events, &reg.snapshot());
        assert!(
            violations.iter().any(|v| v.contains("step-sum")),
            "{violations:?}"
        );
    }
}
