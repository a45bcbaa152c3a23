//! Metric names, units, and the two output forms: one
//! `workload metric value unit` line per metric, and a final JSON object.

use std::fmt::Write as _;

/// The end-to-end metrics of an untraced run, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("accesses_per_s", "accesses/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles", "cycles"),
];

/// The per-layer metrics of a traced run, with units. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("paging.tlb.ns_per_access", "ns"),
    ("paging.tlb.miss_ratio", "ratio"),
    ("paging.walker.walk_ns", "ns"),
    ("paging.walker.walks_per_access", "ratio"),
    ("paging.walker.pt_refs_per_walk", "count"),
    ("paging.pwc.hit_ratio", "ratio"),
    ("core.hpmp.check_ns", "ns"),
    ("core.hpmp.pmpte_refs_per_walk", "count"),
    ("memsim.hierarchy.ref_ns", "ns"),
    ("memsim.hierarchy.refs_per_access", "count"),
    ("memsim.l1.hit_ratio", "ratio"),
    ("memsim.llc.hit_ratio", "ratio"),
    ("memsim.dram.row_hit_ratio", "ratio"),
    ("memsim.physmem.read_ns", "ns"),
    ("machine.access.ns", "ns"),
    ("machine.access.residual_ns", "ns"),
    ("machine.access.coverage", "ratio"),
    ("machine.virt.ns", "ns"),
    ("machine.virt.hierarchy_ns", "ns"),
    ("machine.virt.residual_ns", "ns"),
    ("machine.virt.refs_per_walk", "count"),
    ("machine.virt.pmpte_refs_per_walk", "count"),
    ("machine.virt.gtlb_hit_ratio", "ratio"),
    ("penglai.monitor.alloc_ns_p50", "ns"),
    ("penglai.monitor.alloc_ns_p99", "ns"),
    ("penglai.monitor.free_ns_p50", "ns"),
    ("penglai.monitor.free_ns_p99", "ns"),
    ("penglai.monitor.switch_ns_p50", "ns"),
    ("penglai.monitor.switch_ns_p99", "ns"),
    ("penglai.monitor.time_share", "ratio"),
    ("penglai.monitor.ops_per_kaccess", "count"),
    ("penglai.smp.access_ns", "ns"),
    ("penglai.smp.ipis_per_op", "count"),
    ("setup.build_ns", "ns"),
    ("setup.populate_ns", "ns"),
    ("trace.record_ns", "ns"),
    ("trace.snapshot_ns", "ns"),
    ("trace.overhead", "ratio"),
    ("machine.threaded.speedup", "ratio"),
    ("sim.cycles_per_access", "cycles"),
    ("timer_ns", "ns"),
];

/// Rep-to-rep spread above which a run is flagged `NOISY`.
pub const NOISY_SPREAD: f64 = 0.25;

/// One measured value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A workload's results.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The metrics of the final JSON object, in declaration order.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed as lines only.
    pub extra: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
}

impl Report {
    /// A report holding `names` in order, each set from `values` or 0.
    pub fn from_values(names: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Report {
        let metrics = names
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v),
            })
            .collect();
        Report {
            metrics,
            ..Report::default()
        }
    }

    /// Whether the rep-to-rep spread marks this run as taken during host
    /// interference.
    pub fn noisy(&self) -> bool {
        self.extra
            .iter()
            .any(|m| m.name == "noise.rep_spread" && m.value > NOISY_SPREAD)
    }

    /// One `workload metric value unit` line per metric, diagnostics last;
    /// a noisy spread line ends in `NOISY`.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            let flag = if m.name == "noise.rep_spread" && self.noisy() {
                " NOISY"
            } else {
                ""
            };
            let _ = writeln!(out, "{workload} {} {} {}{flag}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// `value` as a JSON number; JSON has no NaN or infinity, so those (which
/// only a broken measurement produces) render as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "0".to_string()
    }
}
