//! Every experiment returns its metrics snapshot, so `--bench-out` holds a
//! record for each one `hpmp-analyze diff` can explain a failed pin with.
//! `fig10`, `fig16` and `table3` once printed their tables and recorded
//! nothing; this drives the real `repro` binary on them.

use std::fs;
use std::process::Command;

use hpmp_trace::BenchReport;

#[test]
fn stdout_only_experiments_write_a_record_with_reference_counters() {
    let dir = std::env::temp_dir().join(format!("hpmp-bench-records-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig10", "fig16", "table3", "--jobs", "2"])
        .args(["--bench-out", "bench.json"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = fs::read_to_string(dir.join("bench.json")).expect("read bench.json");
    let _ = fs::remove_dir_all(&dir);

    let report = BenchReport::from_json(&text).expect("bench report parses");
    let names: Vec<&str> = report.experiments.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["fig10", "table3", "fig16"], "presentation order");
    for record in &report.experiments {
        let counters = &record.counters;
        for name in [
            "machine.refs",
            "machine.refs.pt_reads",
            "machine.refs.data_reads",
        ] {
            assert!(counters.value(name) > 0, "{}: {name} is 0", record.name);
        }
        assert!(record.walks > 0, "{}: no walks", record.name);
    }
}
