//! The perf-trajectory report format (`BENCH_<name>.json`).
//!
//! `repro --bench-out` / `hpmpsim --bench-out` emit one [`BenchReport`] per
//! run: the configuration under test, and for every experiment its total
//! cycles, the full flat counter set (walk-reference counts included), and
//! the latency percentiles of every histogram class. CI byte-compares a
//! fresh report against its committed pin and `hpmp-analyze diff` explains
//! a mismatch counter by counter, so the schema lives here in `hpmp-trace`
//! — the one crate both the writer (`hpmp-bench`) and the reader
//! (`hpmp-analyze`) already depend on — and is versioned like every other
//! artifact ([`crate::SCHEMA_VERSION`]).
//!
//! Counters serialize *flat* (dotted names as literal keys), unlike the
//! human-oriented nested form of [`Snapshot::to_json`]: a stable trajectory
//! format favours trivially diffable key paths over readability.

use crate::hist::LatencyHistogram;
use crate::json::{parse_json, JsonValue};
use crate::metrics::Snapshot;
use crate::read::{check_schema, ReadError};
use crate::{json_escape, SCHEMA_VERSION};
use std::collections::BTreeMap;

/// The `kind` tag of a bench-report document.
pub const BENCH_REPORT_KIND: &str = "hpmp-bench-report";

/// Latency percentiles of one histogram class, in cycles (bucket upper
/// bounds, like [`LatencyHistogram::percentile`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl Percentiles {
    /// Compute from a histogram (`None` when it is empty).
    pub fn of(h: &LatencyHistogram) -> Option<Percentiles> {
        Some(Percentiles {
            p50: h.percentile(50.0)?,
            p90: h.percentile(90.0)?,
            p99: h.percentile(99.0)?,
        })
    }
}

/// Rebuild every latency histogram a snapshot's bucket counters describe.
///
/// [`crate::LatencyHistograms::export`] writes, per class,
/// `<base>.count`, `<base>.cycles` and `<base>.bucket.<lo>` where `<base>`
/// is `<prefix>.<class_label>`. This scans for the `.bucket.` pattern,
/// groups by base, and reconstructs each histogram with
/// [`LatencyHistogram::from_bucket_counts`] — so percentiles can be
/// recomputed from any snapshot, including merged or delta'd ones.
pub fn histograms_in_snapshot(snap: &Snapshot) -> BTreeMap<String, LatencyHistogram> {
    let mut buckets: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for (name, value) in snap.iter() {
        if value == 0 {
            continue;
        }
        if let Some(pos) = name.rfind(".bucket.") {
            let base = &name[..pos];
            let Ok(lo) = name[pos + ".bucket.".len()..].parse::<u64>() else {
                continue;
            };
            buckets
                .entry(base.to_string())
                .or_default()
                .push((lo, value));
        }
    }
    buckets
        .into_iter()
        .map(|(base, pairs)| {
            let sum = snap.value(&format!("{base}.cycles"));
            (base, LatencyHistogram::from_bucket_counts(pairs, sum))
        })
        .collect()
}

/// Sum of every page-walk counter in a snapshot: the bare `machine.walks`
/// of a single-hart run, the `virt.walks` of a guest run, or the
/// `hart.<i>.machine.walks` copies of an SMP merge (never both bare and
/// per-hart — merged SMP snapshots carry only the per-hart names).
pub fn walks_in_snapshot(snap: &Snapshot) -> u64 {
    snap.iter()
        .filter(|(name, _)| {
            *name == "machine.walks"
                || *name == "virt.walks"
                || (name.starts_with("hart.") && name.ends_with(".machine.walks"))
        })
        .map(|(_, v)| v)
        .sum()
}

/// One experiment's row in a bench report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// Experiment name (e.g. `fig2`, `svsweep`).
    pub name: String,
    /// Total cycles attributed to the experiment.
    pub cycles: u64,
    /// Page walks the experiment performed, summed over harts.
    /// Simulated-clock data: deterministic for a given seed.
    pub walks: u64,
    /// Latency percentiles per histogram base name (e.g.
    /// `machine.latency.read_walk`), derived from the bucket counters at
    /// record time.
    pub percentiles: BTreeMap<String, Percentiles>,
    /// The full flat counter set (dotted names), walk-reference counts
    /// included.
    pub counters: Snapshot,
}

impl ExperimentRecord {
    /// Build a record from an experiment's merged snapshot, deriving the
    /// percentile table from the snapshot's histogram bucket counters and
    /// the walk total from its walk counters ([`walks_in_snapshot`]).
    pub fn from_snapshot(name: impl Into<String>, cycles: u64, counters: Snapshot) -> Self {
        let percentiles = histograms_in_snapshot(&counters)
            .iter()
            .filter_map(|(base, h)| Some((base.clone(), Percentiles::of(h)?)))
            .collect();
        ExperimentRecord {
            name: name.into(),
            cycles,
            walks: walks_in_snapshot(&counters),
            percentiles,
            counters,
        }
    }

    fn to_json(&self) -> String {
        let percentiles: Vec<String> = self
            .percentiles
            .iter()
            .map(|(base, p)| {
                format!(
                    "\"{}\":{{\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    json_escape(base),
                    p.p50,
                    p.p90,
                    p.p99
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("\"{}\":{}", json_escape(name), value))
            .collect();
        format!(
            "{{\"name\":\"{}\",\"cycles\":{},\"walks\":{},\"percentiles\":{{{}}},\
             \"counters\":{{{}}}}}",
            json_escape(&self.name),
            self.cycles,
            self.walks,
            percentiles.join(","),
            counters.join(",")
        )
    }

    fn from_value(value: &JsonValue) -> Result<ExperimentRecord, String> {
        let name = value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("experiment has no \"name\"")?
            .to_string();
        let cycles = value
            .get("cycles")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("experiment \"{name}\" has no u64 \"cycles\""))?;
        let mut percentiles = BTreeMap::new();
        if let Some(members) = value.get("percentiles").and_then(JsonValue::as_object) {
            for (base, p) in members {
                let get = |k: &str| {
                    p.get(k)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("percentile \"{base}\" has no u64 \"{k}\""))
                };
                percentiles.insert(
                    base.clone(),
                    Percentiles {
                        p50: get("p50")?,
                        p90: get("p90")?,
                        p99: get("p99")?,
                    },
                );
            }
        }
        let mut reg = crate::MetricsRegistry::new();
        let members = value
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("experiment \"{name}\" has no \"counters\" object"))?;
        for (counter, v) in members {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter \"{counter}\" is not a u64"))?;
            reg.set(counter.clone(), v);
        }
        let counters = reg.snapshot();
        // Reports written before the walks field existed derive it from
        // their counters; the field wins when present.
        let walks = value
            .get("walks")
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| walks_in_snapshot(&counters));
        Ok(ExperimentRecord {
            name,
            cycles,
            walks,
            percentiles,
            counters,
        })
    }
}

/// A complete perf-trajectory report: config plus per-experiment records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchReport {
    /// Which harness produced the report (e.g. `repro`, `hpmpsim`).
    pub name: String,
    /// Free-form configuration keys (scheme, translation mode, flags, …).
    pub config: BTreeMap<String, String>,
    /// One record per experiment, in run order.
    pub experiments: Vec<ExperimentRecord>,
}

impl BenchReport {
    /// An empty report for harness `name`.
    pub fn new(name: impl Into<String>) -> BenchReport {
        BenchReport {
            name: name.into(),
            config: BTreeMap::new(),
            experiments: Vec::new(),
        }
    }

    /// Record a configuration key.
    pub fn set_config(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.config.insert(key.into(), value.into());
    }

    /// Append one experiment record.
    pub fn push(&mut self, record: ExperimentRecord) {
        self.experiments.push(record);
    }

    /// Find an experiment by name.
    pub fn experiment(&self, name: &str) -> Option<&ExperimentRecord> {
        self.experiments.iter().find(|e| e.name == name)
    }

    /// Serialize as the versioned on-disk document.
    pub fn to_json(&self) -> String {
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let experiments: Vec<String> = self
            .experiments
            .iter()
            .map(ExperimentRecord::to_json)
            .collect();
        format!(
            "{{\"schema\":{},\"kind\":\"{}\",\"name\":\"{}\",\"config\":{{{}}},\
             \"experiments\":[{}]}}",
            SCHEMA_VERSION,
            BENCH_REPORT_KIND,
            json_escape(&self.name),
            config.join(","),
            experiments.join(",")
        )
    }

    /// Parse a versioned bench-report document; rejects missing/unknown
    /// schema versions and wrong `kind` tags with clear errors.
    pub fn from_json(text: &str) -> Result<BenchReport, ReadError> {
        let doc = parse_json(text).map_err(|e| ReadError::Schema {
            message: format!("bench report is not valid JSON ({e})"),
        })?;
        check_schema(&doc, "bench report")?;
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some(BENCH_REPORT_KIND) => {}
            Some(other) => {
                return Err(ReadError::Schema {
                    message: format!(
                        "document kind is \"{other}\", expected \"{BENCH_REPORT_KIND}\""
                    ),
                })
            }
            None => {
                return Err(ReadError::Schema {
                    message: "bench report has no \"kind\" field".to_string(),
                })
            }
        }
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string();
        let mut config = BTreeMap::new();
        if let Some(members) = doc.get("config").and_then(JsonValue::as_object) {
            for (k, v) in members {
                config.insert(k.clone(), v.as_str().unwrap_or("").to_string());
            }
        }
        let experiments = doc
            .get("experiments")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ReadError::Schema {
                message: "bench report has no \"experiments\" array".to_string(),
            })?
            .iter()
            .map(ExperimentRecord::from_value)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|message| ReadError::Parse { line: 1, message })?;
        Ok(BenchReport {
            name,
            config,
            experiments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{AccessClass, LatencyHistograms};
    use crate::MetricsRegistry;

    fn sample_snapshot() -> Snapshot {
        let mut hists = LatencyHistograms::new();
        for _ in 0..90 {
            hists.record(AccessClass::ReadTlbHit, 3);
        }
        for _ in 0..10 {
            hists.record(AccessClass::ReadWalk, 100);
        }
        let mut reg = MetricsRegistry::new();
        reg.set("machine.cycles", 1270);
        reg.set("machine.refs.pt_reads", 30);
        hists.export(&mut reg, "machine.latency");
        reg.snapshot()
    }

    #[test]
    fn report_round_trips() {
        let mut report = BenchReport::new("repro");
        report.set_config("scheme", "hpmp");
        report.set_config("mode", "sv39");
        report.push(ExperimentRecord::from_snapshot(
            "fig2",
            1270,
            sample_snapshot(),
        ));
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn from_snapshot_derives_percentiles() {
        let rec = ExperimentRecord::from_snapshot("fig2", 1270, sample_snapshot());
        let hit = rec.percentiles.get("machine.latency.read_tlb_hit").unwrap();
        assert_eq!(hit.p50, 4, "90 samples of 3 cycles -> bucket [2,4)");
        let walk = rec.percentiles.get("machine.latency.read_walk").unwrap();
        assert_eq!(walk.p99, 128, "10 samples of 100 cycles -> bucket [64,128)");
    }

    #[test]
    fn histograms_in_snapshot_reconstructs_counts() {
        let hists = histograms_in_snapshot(&sample_snapshot());
        let h = hists.get("machine.latency.read_walk").unwrap();
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 1000);
        assert_eq!(h.percentile(50.0), Some(128));
    }

    #[test]
    fn walks_sum_over_harts_or_bare() {
        let mut reg = MetricsRegistry::new();
        reg.set("machine.walks", 7);
        assert_eq!(walks_in_snapshot(&reg.snapshot()), 7);

        let mut reg = MetricsRegistry::new();
        reg.set("hart.0.machine.walks", 3);
        reg.set("hart.1.machine.walks", 4);
        reg.set("hart.1.machine.cycles", 999); // not a walk counter
        assert_eq!(walks_in_snapshot(&reg.snapshot()), 7);
    }

    #[test]
    fn walks_count_guest_walks() {
        // A guest run's snapshot carries only the virt prefix (fig13).
        let mut reg = MetricsRegistry::new();
        reg.set("virt.walks", 32);
        reg.set("virt.cycles", 999); // not a walk counter
        assert_eq!(walks_in_snapshot(&reg.snapshot()), 32);
        let rec = ExperimentRecord::from_snapshot("fig13", 999, reg.snapshot());
        assert_eq!(rec.walks, 32);
    }

    #[test]
    fn record_carries_walks_and_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.set("machine.cycles", 1270);
        reg.set("machine.walks", 42);
        let rec = ExperimentRecord::from_snapshot("fig2", 1270, reg.snapshot());
        assert_eq!(rec.walks, 42);

        let mut report = BenchReport::new("repro");
        report.push(rec);
        let json = report.to_json();
        assert!(json.contains("\"walks\":42"), "{json}");
        assert_eq!(BenchReport::from_json(&json).unwrap(), report);
    }

    #[test]
    fn walks_is_derived_for_pre_walks_reports() {
        // A report serialized before the walks field existed: strip it
        // from the wire form and check the reader falls back to the
        // counters.
        let mut reg = MetricsRegistry::new();
        reg.set("hart.0.machine.walks", 5);
        reg.set("hart.2.machine.walks", 6);
        let mut report = BenchReport::new("repro");
        report.push(ExperimentRecord::from_snapshot("fig2", 1, reg.snapshot()));
        let legacy = report.to_json().replacen("\"walks\":11,", "", 1);
        let back = BenchReport::from_json(&legacy).unwrap();
        assert_eq!(back.experiments[0].walks, 11);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut report = BenchReport::new("repro");
        report.push(ExperimentRecord::from_snapshot("fig2", 1, Snapshot::new()));
        let doctored = report.to_json().replacen("\"schema\":1", "\"schema\":7", 1);
        let err = BenchReport::from_json(&doctored).expect_err("must reject");
        assert!(err.to_string().contains('7'), "{err}");
    }

    #[test]
    fn experiment_lookup_by_name() {
        let mut report = BenchReport::new("repro");
        report.push(ExperimentRecord::from_snapshot("a", 1, Snapshot::new()));
        report.push(ExperimentRecord::from_snapshot("b", 2, Snapshot::new()));
        assert_eq!(report.experiment("b").unwrap().cycles, 2);
        assert!(report.experiment("zzz").is_none());
    }
}
