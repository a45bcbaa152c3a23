//! The bounded model checker: exhaustive enumeration of every k-op
//! interleaving across n harts, with fingerprint-canonicalized pruning.
//!
//! ## What is proved
//!
//! From a freshly booted [`SmpSystem`], the checker applies every sequence
//! of up to `depth` monitor ops (create/destroy, GMS alloc/free/relabel —
//! including pressure-sized, compaction-triggering placements — and domain
//! switches), each issued from every hart, by explicit depth-first search
//! over forked system states. Every op is a [`checked_apply`]: its refusal
//! is held to the one tolerated-error rule, and after it the one
//! fail-closed check ([`SmpSystem::fail_closed_violation`]) runs on
//! *every* hart — above all, the fast-path permission check (the
//! architectural register-file check, cache-free) must never grant an
//! access the cache-free oracle denies. A broken invariant is a
//! counterexample; the search emits the op prefix that reached it as a
//! replayable [`Schedule`]. The fault ops stay off the menu: the random
//! batteries and the fault campaign drive them.
//!
//! ## Pruning and soundness
//!
//! States are canonicalized by [`SmpSystem::state_fingerprint`], which
//! covers everything the transition function and the checked property
//! read (register images, scheduling, the monitor's logical state) and
//! excludes pure accounting (cycles, metrics). Two states with equal
//! fingerprints behave identically under every future op sequence, so a
//! branch reaching an already-visited fingerprint with no more remaining
//! depth than before can be pruned without losing any counterexample.
//! DESIGN.md §13 gives the full argument.
//!
//! ## Minimality
//!
//! The search runs iterative deepening: all schedules of length 1, then 2,
//! …, up to `depth`. The first counterexample found is therefore one of
//! minimal length, and — because the op menu is enumerated in a fixed
//! deterministic order — it is *the same* minimal counterexample on every
//! run, as are the explored/pruned/transition counts.

use std::collections::HashMap;

use crate::schedule::{
    boot_system, checked_apply, Boot, BootError, MonitorOp, Schedule, ScheduledOp, StepError,
    PRESSURE_REGION, SMALL_REGION,
};
use hpmp_penglai::{DomainId, GmsLabel, SmpSystem, Violation};

/// Search bounds and system shape.
#[derive(Clone, Copy, Debug)]
pub struct BmcConfig {
    /// The system to boot: flavour, harts (n), RAM and planted fault.
    pub boot: Boot,
    /// Maximum schedule length (k).
    pub depth: usize,
    /// Cap on concurrently live enclaves; bounds the op menu.
    pub max_enclaves: usize,
}

impl Default for BmcConfig {
    fn default() -> BmcConfig {
        BmcConfig {
            boot: Boot::default(),
            depth: 3,
            max_enclaves: 2,
        }
    }
}

/// A schedule that drove the system into breaking the fail-closed check.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The minimal op sequence reaching the violation.
    pub schedule: Schedule,
    /// What the check found after its last op.
    pub violation: Violation,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule `{}` leaves {}", self.schedule, self.violation)
    }
}

/// The outcome of one bounded search.
#[derive(Clone, Debug)]
pub struct BmcReport {
    /// The configuration searched.
    pub config: BmcConfig,
    /// Distinct states expanded (their op menu enumerated), across all
    /// deepening iterations.
    pub states_explored: u64,
    /// Child states skipped because their fingerprint had already been
    /// visited with at least as much remaining depth.
    pub states_pruned: u64,
    /// Monitor ops applied (each on a forked state).
    pub transitions: u64,
    /// The minimal counterexample, when the property fails within bound.
    pub counterexample: Option<Counterexample>,
}

impl std::fmt::Display for BmcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let boot = &self.config.boot;
        writeln!(
            f,
            "bmc: flavor={} harts={} depth={} max-enclaves={} plant={}",
            boot.flavor, boot.harts, self.config.depth, self.config.max_enclaves, boot.plant
        )?;
        writeln!(
            f,
            "bmc: states-explored={} states-pruned={} transitions={}",
            self.states_explored, self.states_pruned, self.transitions
        )?;
        match &self.counterexample {
            None => write!(
                f,
                "bmc: verified — fail-closed holds on every schedule up to {} ops",
                self.config.depth
            ),
            Some(cx) => write!(f, "bmc: COUNTEREXAMPLE ({} ops): {cx}", cx.schedule.0.len()),
        }
    }
}

/// Enumerates the op menu of `smp` in a fixed deterministic order: for
/// each hart ascending — `create` (under the enclave cap), then per live
/// enclave in creation order its destroy, small fast alloc, pressure slow
/// alloc, free/relabel of its regions, and switch-to; finally switch to
/// the host. Switches that would trivially no-op (target already scheduled
/// here) or error (enclave scheduled elsewhere) are not enumerated.
fn menu(smp: &SmpSystem, max_enclaves: usize) -> Vec<ScheduledOp> {
    let mon = smp.monitor();
    let enclaves: Vec<DomainId> = mon
        .domain_ids()
        .into_iter()
        .filter(|&d| d != DomainId::HOST)
        .collect();
    let mut out = Vec::new();
    for hart in 0..smp.harts() as u16 {
        let mut push = |op: MonitorOp| out.push(ScheduledOp { hart, op });
        if enclaves.len() < max_enclaves {
            push(MonitorOp::Create { size: SMALL_REGION });
        }
        for &d in &enclaves {
            push(MonitorOp::Destroy(d.0));
            push(MonitorOp::Alloc {
                domain: d.0,
                label: GmsLabel::Fast,
                size: SMALL_REGION,
            });
            push(MonitorOp::Alloc {
                domain: d.0,
                label: GmsLabel::Slow,
                size: PRESSURE_REGION,
            });
            let gmss = mon.regions_of(d).map(<[_]>::len).unwrap_or(0);
            if gmss > 0 {
                push(MonitorOp::Free {
                    domain: d.0,
                    slot: gmss - 1,
                });
                push(MonitorOp::Relabel {
                    domain: d.0,
                    slot: 0,
                    label: match mon.regions_of(d).unwrap()[0].label {
                        GmsLabel::Fast => GmsLabel::Slow,
                        GmsLabel::Slow => GmsLabel::Fast,
                    },
                });
            }
            let scheduled_here = smp.scheduled(hart) == d;
            let scheduled_elsewhere =
                (0..smp.harts() as u16).any(|h| h != hart && smp.scheduled(h) == d);
            if !scheduled_here && !scheduled_elsewhere {
                push(MonitorOp::Switch(d.0));
            }
        }
        if smp.scheduled(hart) != DomainId::HOST {
            push(MonitorOp::Switch(DomainId::HOST.0));
        }
    }
    out
}

struct Search {
    max_enclaves: usize,
    visited: HashMap<u64, usize>,
    explored: u64,
    pruned: u64,
    transitions: u64,
}

impl Search {
    /// Depth-limited DFS. `prefix` is the schedule that reached `smp`.
    /// Returns the first counterexample in deterministic order, if any
    /// lies within `remaining` further ops.
    fn dfs(
        &mut self,
        smp: &SmpSystem,
        prefix: &mut Vec<ScheduledOp>,
        remaining: usize,
    ) -> Option<Counterexample> {
        if remaining == 0 {
            return None;
        }
        self.explored += 1;
        for sched_op in menu(smp, self.max_enclaves) {
            let mut fork = smp.clone();
            let step = checked_apply(&mut fork, sched_op);
            self.transitions += 1;
            prefix.push(sched_op);
            match step {
                Ok(_) => {}
                Err(StepError::Violation(violation)) => {
                    return Some(Counterexample {
                        schedule: Schedule(prefix.clone()),
                        violation,
                    })
                }
                Err(e) => panic!(
                    "menu op `{sched_op}` after `{}`: {e}",
                    Schedule(prefix.clone())
                ),
            }
            let fp = fork.state_fingerprint();
            let child_remaining = remaining - 1;
            match self.visited.get(&fp) {
                Some(&seen) if seen >= child_remaining => {
                    self.pruned += 1;
                }
                _ => {
                    self.visited.insert(fp, child_remaining);
                    if let Some(cx) = self.dfs(&fork, prefix, child_remaining) {
                        return Some(cx);
                    }
                }
            }
            prefix.pop();
        }
        None
    }
}

/// Runs the bounded search. See the module docs for the guarantees.
///
/// # Errors
///
/// As [`boot_system`].
pub fn run_bmc(config: BmcConfig) -> Result<BmcReport, BootError> {
    let root = boot_system(&config.boot)?;
    let mut search = Search {
        max_enclaves: config.max_enclaves,
        visited: HashMap::new(),
        explored: 0,
        pruned: 0,
        transitions: 0,
    };
    let mut counterexample = root
        .fail_closed_violation()
        .map(|violation| Counterexample {
            schedule: Schedule::default(),
            violation,
        });
    if counterexample.is_none() {
        // Iterative deepening: the first hit is a minimal counterexample.
        for depth in 1..=config.depth {
            search.visited.clear();
            search.visited.insert(root.state_fingerprint(), depth);
            let mut prefix = Vec::new();
            if let Some(cx) = search.dfs(&root, &mut prefix, depth) {
                counterexample = Some(cx);
                break;
            }
        }
    }
    Ok(BmcReport {
        config,
        states_explored: search.explored,
        states_pruned: search.pruned,
        transitions: search.transitions,
        counterexample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Plant;
    use hpmp_penglai::TeeFlavor;

    #[test]
    fn clean_monitor_verifies_at_a_small_bound() {
        let report = run_bmc(BmcConfig {
            depth: 2,
            ..BmcConfig::default()
        })
        .expect("boot");
        assert!(
            report.counterexample.is_none(),
            "unexpected: {}",
            report.counterexample.unwrap()
        );
        assert!(report.states_explored > 0);
        assert!(report.transitions > 0);
    }

    #[test]
    fn planted_suppression_yields_a_minimal_counterexample() {
        let report = run_bmc(BmcConfig {
            boot: Boot {
                flavor: TeeFlavor::PenglaiPmp,
                plant: Plant::SuppressShootdowns,
                ..Boot::default()
            },
            depth: 2,
            ..BmcConfig::default()
        })
        .expect("boot");
        let cx = report.counterexample.expect("planted fault must be found");
        // A single create suffices: the remote hart's host image misses
        // the new deny entry, so minimality means depth 1.
        assert_eq!(cx.schedule.0.len(), 1, "not minimal: {}", cx.schedule);
        // And the counterexample replays: same boot, same schedule, same
        // violation.
        let mut smp = boot_system(&report.config.boot).expect("boot");
        cx.schedule.run(&mut smp).expect("replayable");
        assert_eq!(smp.fail_closed_violation(), Some(cx.violation));
    }

    #[test]
    fn reports_are_deterministic() {
        let run = || {
            let r = run_bmc(BmcConfig {
                depth: 2,
                ..BmcConfig::default()
            })
            .expect("boot");
            (r.states_explored, r.states_pruned, r.transitions)
        };
        assert_eq!(run(), run());
    }
}
