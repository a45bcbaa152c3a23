//! hpmpbench: the host-speed benchmark of the HPMP simulator.
//!
//! Four seeded, single-threaded, closed-loop workloads (native-walk,
//! native-tlb-hit, guest-3d, smp-churn) measure how fast the simulator
//! produces its simulated cycles. An untraced run reports the end-to-end
//! metrics; a traced run (`--trace 1`) reports per-layer host time and
//! simulated ratios. See `README.md` beside this file.
//!
//! ```text
//! cargo run --release --example hpmpbench -- [--workload W] [--seed N]
//!     [--seconds S] [--trace 0|1 | --traced] [--out FILE]
//! ```
//!
//! Without `--workload` every workload runs in its own child process (this
//! program re-executed), so peak memory is per workload and no workload
//! warms the host for the next. Exit status: 0 ok, 1 a correctness check
//! or replay failed, 2 usage error.

mod e2e;
mod replay;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use report::Report;
use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage: hpmpbench [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out FILE]
  --workload W   native-walk | native-tlb-hit | guest-3d | smp-churn (default: all,
                 each in its own child process)
  --seed N       stream seed, decimal or 0x-hex (default 0x4850_4d50)
  --seconds S    keep making end-to-end reps until S seconds have passed (at least 5 reps)
  --trace 0|1    1: the traced run, per-layer metrics instead of end-to-end ones
  --traced       same as --trace 1
  --out FILE     also write the results as JSON to FILE
";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0,
        traced: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
                args.workload = Some(workload);
            }
            "--seed" => args.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--traced" => args.traced = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let digits = text.replace('_', "");
    let parsed = match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => digits.parse(),
    };
    parsed.map_err(|_| format!("bad --seed {text}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprint!("hpmpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let results = match args.workload {
        Some(workload) => run_here(workload, &args).map(|report| {
            let json = report.json();
            print!("{}", report.lines(workload.name()));
            println!("{json}");
            vec![(workload, json)]
        }),
        None => run_children(&args),
    };
    let written = results.and_then(|results| match &args.out {
        Some(path) => write_out(path, args.seed, &results),
        None => Ok(()),
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hpmpbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process: the correctness preflight, then the
/// end-to-end or the traced run.
fn run_here(workload: Workload, args: &Args) -> Result<Report, String> {
    workloads::preflight()?;
    if args.traced {
        replay::run(workload, &workload.traced_plan(), args.seed)
    } else {
        let budget = Duration::from_secs(args.seconds);
        e2e::run(workload, &workload.plan(), args.seed, budget, e2e::MIN_REPS)
    }
}

/// Runs every workload in a child process of its own, forwarding each
/// child's metric lines and collecting its result object.
fn run_children(args: &Args) -> Result<Vec<(Workload, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        if !out.status.success() {
            return Err(format!("{} failed ({})", workload.name(), out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (lines, json) = stdout
            .trim_end()
            .rsplit_once('\n')
            .ok_or(format!("{} printed no metrics", workload.name()))?;
        println!("{lines}");
        results.push((workload, json.to_string()));
    }
    Ok(results)
}

fn write_out(path: &Path, seed: u64, results: &[(Workload, String)]) -> Result<(), String> {
    let workloads: Vec<String> = results
        .iter()
        .map(|(w, json)| format!("\"{}\":{json}", w.name()))
        .collect();
    let doc = format!(
        "{{\"seed\":{seed},\"workloads\":{{{}}}}}\n",
        workloads.join(",")
    );
    std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
