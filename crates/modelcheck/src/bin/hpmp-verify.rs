//! `hpmp-verify`: bounded model checking and fuzz smoke from the CLI.
//!
//! ```text
//! hpmp-verify bmc [--depth K] [--harts N] [--flavor pmp|pmpt|hpmp|all]
//!                 [--max-enclaves M] [--ram-mib MIB]
//!                 [--plant none|suppress-shootdown] [--expect-violation]
//!                 [--seed-out FILE]
//! hpmp-verify fuzz [--target pmpte_decode|campaign_spec|json_readers|all]
//!                  [--corpus DIR] [--iters N] [--seed S]
//! ```
//!
//! `bmc` exits 0 when the outcome matches the expectation (clean search,
//! or a counterexample under `--expect-violation`) and 1 otherwise, so CI
//! can run both directions: the clean sweep must verify, the planted
//! fault must be caught. A flag value the system cannot boot with
//! (`--harts` outside 1..=65535, `--ram-mib` below the monitor's layout)
//! exits 2. `--seed-out` writes the counterexample schedule
//! to a file in the `tests/shootdown.rs` replay format.
//!
//! `fuzz` replays the committed seed corpora and a deterministic mutation
//! storm through the same bodies the cargo-fuzz targets wrap; any
//! property failure panics (non-zero exit).

use std::process::ExitCode;

use hpmp_modelcheck::bmc::{run_bmc, BmcConfig};
use hpmp_modelcheck::fuzz;
use hpmp_modelcheck::{BootError, Plant};
use hpmp_penglai::TeeFlavor;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: hpmp-verify bmc [--depth K] [--harts N] [--flavor pmp|pmpt|hpmp|all]\n\
         \x20                      [--max-enclaves M] [--ram-mib MIB]\n\
         \x20                      [--plant none|suppress-shootdown] [--expect-violation]\n\
         \x20                      [--seed-out FILE]\n\
         \x20      hpmp-verify fuzz [--target <name>|all] [--corpus DIR] [--iters N] [--seed S]"
    );
    ExitCode::from(2)
}

fn parse_flavors(s: &str) -> Result<Vec<TeeFlavor>, String> {
    match s {
        "pmp" => Ok(vec![TeeFlavor::PenglaiPmp]),
        "pmpt" => Ok(vec![TeeFlavor::PenglaiPmpt]),
        "hpmp" => Ok(vec![TeeFlavor::PenglaiHpmp]),
        "all" => Ok(vec![
            TeeFlavor::PenglaiPmp,
            TeeFlavor::PenglaiPmpt,
            TeeFlavor::PenglaiHpmp,
        ]),
        other => Err(format!("unknown flavor `{other}`")),
    }
}

struct Args(Vec<String>);

impl Args {
    /// Consumes `--flag value` if present.
    fn take_value(&mut self, flag: &str) -> Result<Option<String>, String> {
        if let Some(pos) = self.0.iter().position(|a| a == flag) {
            if pos + 1 >= self.0.len() {
                return Err(format!("{flag} needs a value"));
            }
            self.0.remove(pos);
            return Ok(Some(self.0.remove(pos)));
        }
        Ok(None)
    }

    /// Consumes `--flag` if present.
    fn take_flag(&mut self, flag: &str) -> bool {
        if let Some(pos) = self.0.iter().position(|a| a == flag) {
            self.0.remove(pos);
            return true;
        }
        false
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(stray) => Err(format!("unrecognized argument `{stray}`")),
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {flag}"))
}

fn cmd_bmc(mut args: Args) -> Result<ExitCode, String> {
    let mut config = BmcConfig::default();
    if let Some(v) = args.take_value("--depth")? {
        config.depth = parse_num("--depth", &v)?;
    }
    if let Some(v) = args.take_value("--harts")? {
        config.boot.harts = parse_num("--harts", &v)?;
    }
    if let Some(v) = args.take_value("--max-enclaves")? {
        config.max_enclaves = parse_num("--max-enclaves", &v)?;
    }
    if let Some(v) = args.take_value("--ram-mib")? {
        config.boot.ram_mib = parse_num("--ram-mib", &v)?;
    }
    let flavors = parse_flavors(&args.take_value("--flavor")?.unwrap_or_else(|| "all".into()))?;
    config.boot.plant = match args.take_value("--plant")?.as_deref() {
        None | Some("none") => Plant::None,
        Some("suppress-shootdown") => Plant::SuppressShootdowns,
        Some(other) => return Err(format!("unknown plant `{other}`")),
    };
    let expect_violation = args.take_flag("--expect-violation");
    let seed_out = args.take_value("--seed-out")?;
    args.finish()?;

    let mut all_match = true;
    for flavor in flavors {
        config.boot.flavor = flavor;
        let report = run_bmc(config).map_err(|e| match e {
            BootError::Harts(_) => format!("--harts: {e}"),
            BootError::Ram(e) => format!("--ram-mib {}: {e}", config.boot.ram_mib),
        })?;
        println!("{report}");
        match &report.counterexample {
            Some(cx) => {
                if let Some(path) = &seed_out {
                    std::fs::write(path, format!("{}\n", cx.schedule))
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    println!("bmc: counterexample schedule written to {path}");
                }
                if !expect_violation {
                    all_match = false;
                }
            }
            None => {
                if expect_violation {
                    println!(
                        "bmc: expected a counterexample under plant={} — none found",
                        config.boot.plant
                    );
                    all_match = false;
                }
            }
        }
        println!();
    }
    Ok(if all_match {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Loads every regular file under `dir`, sorted by file name so the replay
/// order (and thus any failure) is deterministic.
fn load_corpus(dir: &std::path::Path) -> Result<Vec<Vec<u8>>, String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading corpus dir {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    entries
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("reading {}: {e}", p.display())))
        .collect()
}

fn cmd_fuzz(mut args: Args) -> Result<ExitCode, String> {
    let which = args.take_value("--target")?.unwrap_or_else(|| "all".into());
    let corpus_root = args
        .take_value("--corpus")?
        .unwrap_or_else(|| "fuzz/corpus".into());
    let iters: usize = parse_num(
        "--iters",
        &args.take_value("--iters")?.unwrap_or_else(|| "2000".into()),
    )?;
    let seed: u64 = parse_num(
        "--seed",
        &args.take_value("--seed")?.unwrap_or_else(|| "1".into()),
    )?;
    args.finish()?;

    let selected: Vec<_> = fuzz::TARGETS
        .into_iter()
        .filter(|&(name, _)| which == "all" || name == which)
        .collect();
    if selected.is_empty() {
        return Err(format!("unknown fuzz target `{which}`"));
    }
    for (name, body) in selected {
        let dir = std::path::Path::new(&corpus_root).join(name);
        let corpus = if dir.is_dir() {
            load_corpus(&dir)?
        } else {
            Vec::new()
        };
        let report = fuzz::smoke(body, &corpus, iters, seed);
        println!(
            "fuzz: target={name} seeds={} mutations={} — clean",
            report.seeds, report.mutations
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage("missing subcommand");
    }
    let sub = argv.remove(0);
    let result = match sub.as_str() {
        "bmc" => cmd_bmc(Args(argv)),
        "fuzz" => cmd_fuzz(Args(argv)),
        other => return usage(&format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => usage(&e),
    }
}
