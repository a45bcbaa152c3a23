//! The dual-clock quarantine (DESIGN.md §10): `--host-profile-out` is
//! host-clock data, so turning it on must not perturb a single byte of
//! any simulated artifact — stdout, metrics, bench report, trace. These
//! tests run the real binaries with profiling on and off and compare.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use hpmp_trace::{BenchReport, HostProfile};

struct RunOutput {
    stdout: Vec<u8>,
    metrics: Vec<u8>,
    bench: Vec<u8>,
    trace: Vec<u8>,
    profile: Option<String>,
}

/// Run `bin` in a scratch directory with relative artifact paths, with or
/// without `--host-profile-out`.
fn run(bin: &str, tag: &str, base_args: &[&str], profile: bool) -> RunOutput {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "hpmp-host-profile-{tag}-{}-p{}",
        std::process::id(),
        u8::from(profile)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");

    let mut cmd = Command::new(bin);
    cmd.args(base_args)
        .args(["--metrics-out", "metrics.json"])
        .args(["--bench-out", "bench.json"])
        .args(["--trace-out", "trace.jsonl"])
        .current_dir(&dir);
    if profile {
        cmd.args(["--host-profile-out", "host.json"]);
    }
    let output = cmd.output().expect("spawn binary");
    assert!(
        output.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    if profile {
        // The headline is stderr-only, never stdout.
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("walks/sec"), "headline missing: {stderr}");
    }

    let read = |name: &str| fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
    let result = RunOutput {
        stdout: output.stdout,
        metrics: read("metrics.json"),
        bench: read("bench.json"),
        trace: read("trace.jsonl"),
        profile: profile.then(|| String::from_utf8(read("host.json")).expect("utf-8 profile")),
    };
    let _ = fs::remove_dir_all(&dir);
    result
}

fn assert_quarantined(off: &RunOutput, on: &RunOutput) {
    assert_eq!(off.stdout, on.stdout, "stdout differs with profiling on");
    assert_eq!(off.metrics, on.metrics, "metrics differ with profiling on");
    assert_eq!(
        off.bench, on.bench,
        "bench report differs with profiling on"
    );
    assert_eq!(off.trace, on.trace, "trace differs with profiling on");
}

/// Parse the profile artifact, check that every requested experiment has a
/// timed row (stdout-only experiments included: they are absent from the
/// bench report), and cross-check the deterministic half (names, walk
/// counts) against the simulated bench report.
fn check_profile(run: &RunOutput, harness: &str, requested: &[&str]) {
    let profile =
        HostProfile::from_json(run.profile.as_deref().expect("profile requested")).expect("parses");
    assert_eq!(profile.name, harness);
    assert!(profile.total_wall_ns() > 0, "phases must be timed");
    assert!(
        profile.phases.contains_key("run") && profile.phases.contains_key("write"),
        "phase rows missing: {:?}",
        profile.phases
    );
    for name in requested {
        let host = profile
            .experiments
            .iter()
            .find(|e| e.name == *name)
            .unwrap_or_else(|| panic!("{name} missing from the host profile"));
        assert!(host.wall_ns > 0, "{name} must be timed");
    }

    let report = BenchReport::from_json(&String::from_utf8(run.bench.clone()).unwrap()).unwrap();
    for record in &report.experiments {
        let host = profile
            .experiments
            .iter()
            .find(|e| e.name == record.name)
            .unwrap_or_else(|| panic!("{} missing from the host profile", record.name));
        // Walk counts are simulated-clock data and must agree exactly;
        // wall_ns is host-clock data and only has to exist.
        assert_eq!(
            host.walks, record.walks,
            "walks disagree for {}",
            record.name
        );
    }
}

#[test]
fn repro_profile_never_perturbs_simulated_artifacts() {
    // fig10 writes stdout only, so its host-profile row is the one record
    // of its wall time.
    let args = ["fig2", "svsweep", "fig10", "--jobs", "2"];
    let off = run(env!("CARGO_BIN_EXE_repro"), "repro", &args, false);
    let on = run(env!("CARGO_BIN_EXE_repro"), "repro", &args, true);
    assert_quarantined(&off, &on);
    check_profile(&on, "repro", &args[..3]);
}

#[test]
fn hpmpsim_smp_profile_never_perturbs_simulated_artifacts() {
    let args = [
        "--harts",
        "4",
        "--workload",
        "tenancy,lmbench",
        "--flavor",
        "hpmp",
        "--jobs",
        "2",
    ];
    let off = run(env!("CARGO_BIN_EXE_hpmpsim"), "hpmpsim", &args, false);
    let on = run(env!("CARGO_BIN_EXE_hpmpsim"), "hpmpsim", &args, true);
    assert_quarantined(&off, &on);
    check_profile(&on, "hpmpsim", &["tenancy", "lmbench"]);
}
