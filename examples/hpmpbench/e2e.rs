//! The end-to-end run: fresh-set-up reps of one workload with tracing off,
//! checked for identical simulated results, reduced to the end-to-end
//! metrics.

use std::time::{Duration, Instant};

use hpmp_suite::trace::NullSink;

use crate::report::{Metric, Report, END_TO_END};
use crate::stats;
use crate::workloads::{self, Plan, Window, Workload};

/// Reps every end-to-end run makes at least.
pub const MIN_REPS: usize = 5;
/// Set-ups timed per rep: the rep's own plus this many more, discarded,
/// so `setup_s` is the best of many samples spread across the run. A
/// median would follow the host's contention phases, which can cover most
/// of a run.
const EXTRA_SETUPS: usize = 7;

/// Runs reps of `workload` until `budget` has passed and at least
/// `min_reps` are done.
///
/// Every rep must reproduce the first one's simulated cycles and
/// steady-state snapshot exactly; a difference means the simulation is not
/// deterministic and fails the run.
pub fn run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    budget: Duration,
    min_reps: usize,
) -> Result<Report, String> {
    let start = Instant::now();
    let mut reps: Vec<workloads::Rep> = Vec::new();
    let mut setups = Vec::new();
    while reps.len() < min_reps || start.elapsed() < budget {
        for _ in 0..EXTRA_SETUPS {
            let (_, times) = workloads::build(workload, plan, seed, || NullSink)?;
            setups.push(times.total().as_secs_f64());
        }
        let (rep, _) = workloads::rep(workload, plan, seed, || NullSink)?;
        setups.push(rep.setup.total().as_secs_f64());
        if let Some(first) = reps.first() {
            if rep.tally != first.tally || rep.steady != first.steady {
                return Err(format!(
                    "{}: rep {} diverged from rep 0 (sim_cycles {} vs {}); the simulation is \
                     not deterministic",
                    workload.name(),
                    reps.len(),
                    rep.tally.cycles,
                    first.tally.cycles
                ));
            }
        }
        reps.push(rep);
    }

    let mut window_ns: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.windows.iter().map(Window::ns_per_access))
        .collect();
    let best_ns = stats::min(&window_ns);
    let tally = reps[0].tally;
    let values = [
        ("accesses_per_s", 1e9 / best_ns),
        ("setup_s", stats::min(&setups)),
        ("peak_rss_mib", stats::peak_rss_mib()?),
        ("sim_cycles", tally.cycles as f64),
    ];
    let mut report = Report::from_values(&END_TO_END, &values);
    for rep in &reps {
        report.attempted += rep.warmup.ops + rep.tally.ops;
        report.failed += rep.warmup.failed + rep.tally.failed;
    }
    let error_rate = stats::ratio(report.failed as f64, report.attempted as f64);
    report.extra = vec![
        Metric {
            name: "noise.rep_spread",
            value: (stats::median(&mut window_ns) - best_ns) / best_ns,
            unit: "ratio",
        },
        Metric {
            name: "error_rate",
            value: error_rate,
            unit: "ratio",
        },
        Metric {
            name: "reps",
            value: reps.len() as f64,
            unit: "count",
        },
    ];
    Ok(report)
}
