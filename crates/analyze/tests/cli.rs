//! CLI-level tests of the `hpmp-analyze` binary: argument handling and
//! exit codes.

use hpmp_trace::{
    AccessClass, BenchReport, ExperimentRecord, LatencyHistograms, MetricsRegistry, Snapshot,
    SpanCollector, SpanEvent, SpanKind,
};
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpmp-analyze"))
}

/// A scratch file under the target-adjacent temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmp-analyze-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn write(name: &str, content: &str) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, content).expect("write scratch file");
    path
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn snapshot(cycles: u64, walk_latency: u64) -> Snapshot {
    let mut hists = LatencyHistograms::new();
    for _ in 0..10 {
        hists.record(AccessClass::ReadWalk, walk_latency);
    }
    let mut reg = MetricsRegistry::new();
    reg.set("machine.cycles", cycles);
    reg.set("machine.refs", 60);
    hists.export(&mut reg, "machine.latency");
    reg.snapshot()
}

fn bench_report(cycles: u64) -> String {
    let mut r = BenchReport::new("repro");
    r.set_config("scheme", "hpmp");
    r.push(ExperimentRecord::from_snapshot(
        "fig2",
        cycles,
        snapshot(cycles, 30),
    ));
    r.to_json()
}

/// A tiny span stream — one op on hart 0, one shootdown delivery on
/// hart 1 — serialized as the JSONL artifact, plus the snapshot its
/// handler spans re-derive.
fn span_artifact(name: &str) -> (PathBuf, Snapshot) {
    let mut c = SpanCollector::bounded(64);
    let op = c.reserve().expect("capacity");
    let recv = c
        .emit(SpanKind::ShootdownRecv, 1, Some(7), Some(op), 100, 180)
        .expect("capacity");
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
    let mut bytes = Vec::new();
    c.write_jsonl(&mut bytes).expect("Vec writes cannot fail");
    let path = scratch(name);
    std::fs::write(&path, bytes).expect("write span artifact");

    let mut reg = MetricsRegistry::new();
    reg.set("hart.1.shootdown_cycles", 70); // trap 30 + reprogram 25 + fence 15
    reg.set("hart.1.shootdowns", 1);
    reg.set("hart.0.shootdown_cycles", 0);
    reg.set("hart.0.shootdowns", 0);
    (path, reg.snapshot())
}

#[test]
fn export_needs_an_output() {
    let out = run(&["export"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chrome"));
}

#[test]
fn export_chrome_needs_spans() {
    let chrome = scratch("orphan.chrome.json");
    let out = run(&["export", "--chrome", chrome.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spans"));
}

#[test]
fn export_writes_chrome_trace_and_verifies_the_round_trip() {
    let (spans, snapshot) = span_artifact("export_ok.spans.jsonl");
    let final_path = write("export_ok.final.json", &snapshot.to_json_versioned());
    let chrome = scratch("export_ok.chrome.json");
    let out = run(&[
        "export",
        "--spans",
        spans.to_str().unwrap(),
        "--final",
        final_path.to_str().unwrap(),
        "--chrome",
        chrome.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("round trip"), "{stdout}");
    let doc = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(doc.contains("\"traceEvents\""), "{doc}");
    assert!(doc.contains("\"ph\":\"X\""), "{doc}");
}

#[test]
fn export_fails_when_durations_do_not_re_derive_the_counters() {
    let (spans, _) = span_artifact("export_bad.spans.jsonl");
    let mut reg = MetricsRegistry::new();
    reg.set("hart.1.shootdown_cycles", 71); // off by one
    reg.set("hart.1.shootdowns", 1);
    let final_path = write("export_bad.final.json", &reg.snapshot().to_json_versioned());
    let chrome = scratch("export_bad.chrome.json");
    let out = run(&[
        "export",
        "--spans",
        spans.to_str().unwrap(),
        "--final",
        final_path.to_str().unwrap(),
        "--chrome",
        chrome.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "round-trip violations fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("violation"));
}

#[test]
fn no_args_is_a_usage_error() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("hpmp-analyze diff"));
}

#[test]
fn profile_rejects_headerless_trace() {
    let path = write("headerless.jsonl", "{\"seq\":0}\n");
    let out = run(&["profile", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"));
}

#[test]
fn diff_of_identical_metrics_reports_no_change() {
    let text = snapshot(100, 30).to_json_versioned();
    let a = write("m_a.json", &text);
    let b = write("m_b.json", &text);
    let out = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no counter changed"));
}

#[test]
fn diff_shows_deltas_and_percentile_shifts() {
    let a = write("m_old.json", &snapshot(100, 30).to_json_versioned());
    let b = write("m_new.json", &snapshot(150, 120).to_json_versioned());
    let out = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("machine.cycles"), "{stdout}");
    assert!(stdout.contains("+50.0%"), "{stdout}");
    assert!(stdout.contains("percentile shifts"), "{stdout}");
}

#[test]
fn diff_rejects_unversioned_bench_report_naming_the_schema() {
    let unversioned = write("diff_unversioned.json", "{\"experiments\":[]}");
    let current = write("diff_versioned.json", &bench_report(1000));
    let out = run(&[
        "diff",
        unversioned.to_str().unwrap(),
        current.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema"), "{stderr}");
    assert!(stderr.contains("diff_unversioned.json"), "{stderr}");
}

#[test]
fn timeline_rejects_bad_threshold() {
    let out = run(&["timeline", "unused.jsonl", "--threshold", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threshold"));
}

#[test]
fn retired_gate_and_trend_are_unknown_commands() {
    for cmd in ["gate", "trend"] {
        let out = run(&[cmd, "--report-only"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown command"), "{cmd}: {stderr}");
        assert!(stderr.contains("usage"), "{cmd}: {stderr}");
    }
}
