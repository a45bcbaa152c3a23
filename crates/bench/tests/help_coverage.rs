//! Usage-text drift guard: every flag a binary's parser accepts must
//! appear in its `--help` output, and unknown flags/experiments must be
//! rejected loudly (exit 2) instead of being silently swallowed — the
//! failure mode that let the usage text rot behind the parsers in the
//! first place. An accepted machine flag must also take effect on every
//! workload, not only in the header line.

use std::process::Command;

/// Run a binary with `args`, returning (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let output = Command::new(bin).args(args).output().expect("spawn binary");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Every flag `hpmpsim`'s parser matches on. Adding a parser arm without
/// updating `usage()` (or this list) fails the test.
const HPMPSIM_FLAGS: [&str; 22] = [
    "--flavor",
    "--core",
    "--workload",
    "--scenario",
    "--churn-ops",
    "--harts",
    "--jobs",
    "--pwc",
    "--pmptw-cache",
    "--no-tlb-inlining",
    "--encryption",
    "--epmp",
    "--trace-out",
    "--metrics-out",
    "--bench-out",
    "--snapshot-interval",
    "--timeline-out",
    "--spans-out",
    "--fault-campaign",
    "--fault-seed",
    "--campaign-out",
    "--host-profile-out",
];

/// Every flag `repro`'s parser matches on.
const REPRO_FLAGS: [&str; 9] = [
    "--serial",
    "--jobs",
    "--trace-out",
    "--metrics-out",
    "--bench-out",
    "--snapshot-interval",
    "--timeline-out",
    "--spans-out",
    "--host-profile-out",
];

/// Every experiment `repro` dispatches on (sans the `all` alias).
const REPRO_EXPERIMENTS: [&str; 19] = [
    "table1",
    "fig2",
    "fig10",
    "table3",
    "fig11",
    "fig12ac",
    "fig12de",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table4",
    "fig3",
    "svsweep",
    "virtapp",
    "tenancy",
    "encryption",
    "multihart",
];

#[test]
fn hpmpsim_help_lists_every_flag() {
    let (code, help) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--help"]);
    assert_eq!(code, 2, "--help exits with the usage status");
    for flag in HPMPSIM_FLAGS {
        assert!(help.contains(flag), "{flag} missing from hpmpsim --help");
    }
    assert!(
        help.contains("--encryption: added to every DRAM access, at most 10000"),
        "the --encryption ceiling must be documented: {help}"
    );
}

#[test]
fn repro_help_lists_every_flag_and_experiment() {
    let (code, help) = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    assert_eq!(code, 2, "--help exits with the usage status");
    for flag in REPRO_FLAGS {
        assert!(help.contains(flag), "{flag} missing from repro --help");
    }
    for experiment in REPRO_EXPERIMENTS {
        assert!(
            help.contains(experiment),
            "{experiment} missing from repro --help"
        );
    }
    assert!(help.contains("all"), "the all alias must be documented");
}

#[test]
fn backend_is_an_unknown_flag() {
    // Every run is deterministic; the threaded backend is library-only.
    for bin in [env!("CARGO_BIN_EXE_hpmpsim"), env!("CARGO_BIN_EXE_repro")] {
        let (code, help) = run(bin, &["--help"]);
        assert_eq!(code, 2, "{bin}");
        assert!(!help.contains("--backend"), "{bin} documents --backend");
        let (code, err) = run(bin, &["--backend", "threaded"]);
        assert_eq!(code, 2, "{bin}: {err}");
        assert!(err.contains("--backend"), "{bin}: {err}");
    }
}

#[test]
fn hpmpsim_rejects_bad_scenario_combinations() {
    let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--scenario", "bogus"]);
    assert_eq!(code, 2);
    assert!(err.contains("bogus"), "{err}");
    // --churn-ops only means something inside the aging scenario.
    let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--churn-ops", "10"]);
    assert_eq!(code, 2);
    assert!(err.contains("--scenario"), "{err}");
    // Timeline artifacts live on the workload path, not the scenario path.
    let (code, err) = run(
        env!("CARGO_BIN_EXE_hpmpsim"),
        &[
            "--scenario",
            "aging",
            "--harts",
            "2",
            "--snapshot-interval",
            "1000",
        ],
    );
    assert_eq!(code, 2);
    assert!(err.contains("aging"), "{err}");
}

#[test]
fn hpmpsim_rejects_unknown_flags() {
    let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--no-such-flag"]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn repro_rejects_unknown_flags() {
    let (code, err) = run(env!("CARGO_BIN_EXE_repro"), &["--no-such-flag"]);
    assert_eq!(code, 2);
    assert!(err.contains("--no-such-flag"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn repro_rejects_a_value_flag_without_its_value() {
    // Every value flag goes through the shared parser, so a trailing flag
    // is a usage error rather than a silent no-op.
    for flag in [
        "--trace-out",
        "--metrics-out",
        "--bench-out",
        "--spans-out",
        "--host-profile-out",
    ] {
        let (code, err) = run(env!("CARGO_BIN_EXE_repro"), &["fig2", flag]);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(err.contains(flag), "{flag}: {err}");
    }
}

#[test]
fn hpmpsim_rejects_malformed_numeric_values() {
    for (flag, value) in [
        ("--pwc", "abc"),
        ("--pmptw-cache", "abc"),
        ("--encryption", "xyz"),
        // Parse as numbers, but no cache can hold that many entries.
        ("--pwc", "18446744073709551615"),
        ("--pmptw-cache", "65535"),
        // Added to every DRAM access, so it would overflow the cycle count.
        ("--encryption", "18446744073709551615"),
        ("--encryption", "10001"),
    ] {
        let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &[flag, value]);
        assert_eq!(code, 2, "{flag} {value}: {err}");
        assert!(err.contains(flag), "{flag} {value}: {err}");
    }
}

#[test]
fn repro_rejects_telemetry_without_the_multihart_experiment() {
    // Only multihart records telemetry; anything else would drop it.
    let (code, err) = run(
        env!("CARGO_BIN_EXE_repro"),
        &["fig2", "--spans-out", "never-written.jsonl"],
    );
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("multihart"), "{err}");
}

#[test]
fn repro_reports_an_unwritable_timeline_instead_of_panicking() {
    let (code, err) = run(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "multihart",
            "--jobs",
            "1",
            "--snapshot-interval",
            "50000",
            "--timeline-out",
            "/nonexistent/dir/t.jsonl",
        ],
    );
    assert_eq!(code, 1, "{err}");
    assert!(
        err.contains("cannot write /nonexistent/dir/t.jsonl"),
        "{err}"
    );
}

#[test]
fn hpmpsim_reports_the_pmp_entry_wall_instead_of_panicking() {
    let (code, err) = run(
        env!("CARGO_BIN_EXE_hpmpsim"),
        &["--flavor", "pmp", "--harts", "7", "--workload", "tenancy"],
    );
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("no available PMP entries"), "{err}");
}

#[test]
fn repro_rejects_unknown_experiments() {
    // Before the usage fix a typo here silently ran *nothing* — it has to
    // be a hard error.
    let (code, err) = run(env!("CARGO_BIN_EXE_repro"), &["fig99"]);
    assert_eq!(code, 2);
    assert!(err.contains("fig99"), "{err}");
}

/// The total cycles `hpmpsim --workload <workload> <flags>` reports.
fn hpmpsim_cycles(workload: &str, flags: &[&str]) -> u64 {
    let output = Command::new(env!("CARGO_BIN_EXE_hpmpsim"))
        .args(["--workload", workload])
        .args(flags)
        .output()
        .expect("spawn hpmpsim");
    assert!(output.status.success(), "{workload} {flags:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(|line| line.trim().strip_prefix("total cycles :"))
        .and_then(|cycles| cycles.trim().parse().ok())
        .unwrap_or_else(|| panic!("{workload}: no total cycles in {stdout}"))
}

/// Every workload runs on the machine the flags describe, not on its
/// core's default machine. Memory encryption slows each workload whose
/// accesses reach DRAM. Tenancy charges its requests a fixed latency and
/// never reaches DRAM, so its flag is `--epmp`, which moves its PMP entry
/// wall.
#[test]
fn hpmpsim_machine_flags_reach_every_workload() {
    let encryption: &[&str] = &["--encryption", "40"];
    for (workload, flags) in [
        ("serverless", encryption),
        ("redis", encryption),
        ("gap", encryption),
        ("rv8", encryption),
        ("lmbench", encryption),
        ("virtapp", encryption),
        ("tenancy", &["--epmp"]),
    ] {
        assert_ne!(
            hpmpsim_cycles(workload, &[]),
            hpmpsim_cycles(workload, flags),
            "{workload}: {flags:?} changed nothing"
        );
    }
}
