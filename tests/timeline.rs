//! Time-resolved telemetry conformance: the timeline and span artifacts
//! of a fixed-seed multi-hart run must be (1) lossless — slice deltas
//! re-sum to the end-of-run snapshot byte-for-byte, histogram buckets
//! included; (2) deterministic — two identical runs produce identical
//! bytes; and (3) explanatory — the causally linked receiver-side spans
//! attribute at least 95% of the sender shootdown-stall cycles the
//! counters charged.

use hpmp_suite::analyze::analyze_timeline;
use hpmp_suite::machine::{Machine, MachineConfig};
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::trace::{SpanStream, Timeline};
use hpmp_suite::workloads::smp::{run_smp_with, spec_for, SmpTelemetry, SmpTelemetrySpec};

const SEED: u64 = 0x4850_4d50;
const HARTS: usize = 4;
const INTERVAL: u64 = 40_000;

fn run_traced() -> (hpmp_suite::trace::Snapshot, SmpTelemetry) {
    let machines = (0..HARTS)
        .map(|_| Machine::new(MachineConfig::rocket()))
        .collect();
    let spec = spec_for("tenancy").expect("tenancy has an SMP shape");
    let telemetry_spec = SmpTelemetrySpec {
        snapshot_interval: Some(INTERVAL),
        span_capacity: Some(SmpTelemetrySpec::DEFAULT_SPAN_CAPACITY),
    };
    let (_, snapshot, _, telemetry) =
        run_smp_with(machines, TeeFlavor::PenglaiHpmp, SEED, spec, telemetry_spec)
            .expect("SMP workload");
    (snapshot, telemetry)
}

/// Serialize both artifacts exactly as the bench binaries do.
fn artifact_bytes(telemetry: &SmpTelemetry) -> (Vec<u8>, Vec<u8>) {
    let mut timeline = Vec::new();
    telemetry
        .timeline
        .as_ref()
        .expect("interval requested")
        .write_jsonl(&mut timeline)
        .expect("Vec writes cannot fail");
    let mut spans = Vec::new();
    telemetry
        .spans
        .as_ref()
        .expect("capacity requested")
        .write_jsonl(&mut spans)
        .expect("Vec writes cannot fail");
    (timeline, spans)
}

/// Slice deltas re-summed through the full serialize/parse round trip
/// must reproduce the final `--metrics-out` snapshot byte-for-byte —
/// including the `latency.*.bucket.*` histogram counters, so percentile
/// queries over the re-sum answer exactly as over the original.
#[test]
fn slices_resum_to_the_final_snapshot_byte_for_byte() {
    let (snapshot, telemetry) = run_traced();
    let (timeline_bytes, _) = artifact_bytes(&telemetry);
    let timeline = Timeline::parse(timeline_bytes.as_slice()).expect("parses");
    timeline.verify().expect("well-formed");
    assert!(timeline.slices.len() > 1, "run spans several slices");
    assert_eq!(
        timeline.resum().to_json_versioned(),
        snapshot.to_json_versioned(),
        "re-summed slices must equal the end-of-run snapshot byte-for-byte"
    );
    // The buckets really made the trip: the re-sum carries per-hart
    // histogram counters, not just totals.
    assert!(
        timeline
            .resum()
            .iter()
            .any(|(key, v)| key.contains(".latency.") && key.contains(".bucket.") && v > 0),
        "histogram buckets must survive slicing"
    );
}

/// Two identical runs emit byte-identical artifacts: boundaries live on
/// the simulated clock and span ids on a deterministic counter, so there
/// is nothing wall-clock or thread-schedule dependent to leak in.
#[test]
fn artifacts_are_deterministic_across_runs() {
    let (_, a) = run_traced();
    let (_, b) = run_traced();
    assert_eq!(artifact_bytes(&a), artifact_bytes(&b));
}

/// The acceptance bar: named receiver-side child spans must explain at
/// least 95% of the sender shootdown-stall cycles the counters charged.
/// (The span model makes this exact — the sender stalls for precisely the
/// slowest receiver's delivery — so anything below 100% here means a
/// delivery went untracked.)
#[test]
fn spans_attribute_the_shootdown_stall() {
    let (snapshot, telemetry) = run_traced();
    let (timeline_bytes, span_bytes) = artifact_bytes(&telemetry);
    let timeline = Timeline::parse(timeline_bytes.as_slice()).expect("parses");
    let spans = SpanStream::parse(span_bytes.as_slice()).expect("parses");
    let analysis = analyze_timeline(&timeline, Some(&spans), Some(&snapshot));
    assert!(
        analysis.violations.is_empty(),
        "structural violations: {:?}",
        analysis.violations
    );
    let attribution = analysis.attribution.as_ref().expect("spans were given");
    assert!(
        attribution.stall_cycles > 0,
        "the tenancy shape must actually stall"
    );
    assert!(
        attribution.pct() >= 95.0,
        "spans explain {:.2}% of {} stall cycles (need >= 95%)",
        attribution.pct(),
        attribution.stall_cycles
    );
    assert!(analysis.passed(95.0));
}
