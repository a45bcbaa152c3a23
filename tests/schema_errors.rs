//! Schema-version conformance across every artifact reader: a document
//! declaring a version the reader does not understand must produce a
//! typed [`ReadError::Schema`] that names the offending version — never a
//! panic, and never a silent misparse. One test per reader, all driven
//! off genuine writer output with only the version byte mutated.

use hpmp_suite::trace::{
    BenchReport, HostProfile, MetricsRegistry, ReadError, Snapshot, SpanStream, Timeline,
    TraceReader, SCHEMA_VERSION, SPAN_EVENT_STREAM, TIMELINE_STREAM, WALK_EVENT_STREAM,
};

/// The version no reader understands.
const ALIEN: u32 = 99;

/// Assert `err` is the typed schema error and that its message names both
/// the alien version and the supported one, so the user knows what to
/// regenerate with what.
fn assert_schema_error(err: ReadError) {
    assert!(
        matches!(err, ReadError::Schema { .. }),
        "expected ReadError::Schema, got: {err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains(&ALIEN.to_string()),
        "offending version missing: {msg}"
    );
    assert!(
        msg.contains(&SCHEMA_VERSION.to_string()),
        "supported version missing: {msg}"
    );
}

/// Swap the real schema version for the alien one in a serialized doc.
fn bump(doc: &str) -> String {
    let from = format!("\"schema\":{SCHEMA_VERSION}");
    let to = format!("\"schema\":{ALIEN}");
    assert!(
        doc.contains(&from),
        "writer output carries no version: {doc}"
    );
    doc.replacen(&from, &to, 1)
}

#[test]
fn trace_reader_rejects_unknown_version() {
    let good = format!("{{\"schema\":{SCHEMA_VERSION},\"stream\":\"{WALK_EVENT_STREAM}\"}}\n");
    assert!(TraceReader::new(good.as_bytes()).is_ok());
    let err = TraceReader::new(bump(&good).as_bytes())
        .err()
        .expect("must reject");
    assert_schema_error(err);
}

#[test]
fn snapshot_rejects_unknown_version() {
    let mut reg = MetricsRegistry::new();
    reg.set("machine.walks", 7);
    let good = reg.snapshot().to_json_versioned();
    assert_eq!(
        Snapshot::from_json(&good)
            .expect("round trip")
            .get("machine.walks"),
        Some(7)
    );
    assert_schema_error(Snapshot::from_json(&bump(&good)).expect_err("must reject"));
}

#[test]
fn bench_report_rejects_unknown_version() {
    let good = BenchReport::new("schema-probe").to_json();
    assert!(BenchReport::from_json(&good).is_ok());
    assert_schema_error(BenchReport::from_json(&bump(&good)).expect_err("must reject"));
}

#[test]
fn host_profile_rejects_unknown_version() {
    let good = HostProfile {
        name: "schema-probe".to_string(),
        ..HostProfile::default()
    }
    .to_json();
    assert!(HostProfile::from_json(&good).is_ok());
    assert_schema_error(HostProfile::from_json(&bump(&good)).expect_err("must reject"));
}

#[test]
fn span_stream_rejects_unknown_version() {
    let good = format!(
        "{{\"schema\":{SCHEMA_VERSION},\"stream\":\"{SPAN_EVENT_STREAM}\",\"dropped\":0}}\n"
    );
    assert!(SpanStream::parse(good.as_bytes()).is_ok());
    assert_schema_error(SpanStream::parse(bump(&good).as_bytes()).expect_err("must reject"));
}

#[test]
fn timeline_rejects_unknown_version() {
    let good = format!(
        "{{\"schema\":{SCHEMA_VERSION},\"stream\":\"{TIMELINE_STREAM}\",\"interval\":100}}\n"
    );
    // A header-only timeline is truncated (no footer) but that is a
    // *later* error; the version check must fire first on a bumped one.
    assert_schema_error(Timeline::parse(bump(&good).as_bytes()).expect_err("must reject"));
}
