//! Time-resolved analysis: slice rates, percentile drift, and span-based
//! critical-path attribution of shootdown stalls.
//!
//! `hpmp-analyze timeline` consumes the two artifacts an SMP run emits
//! with `--snapshot-interval` / `--spans-out`:
//!
//! * the **timeline** — periodic counter-delta slices on the global
//!   simulated clock, which telescope back to the end-of-run snapshot;
//! * the **span stream** — monitor-operation spans with causally linked
//!   per-receiver shootdown children (IPI flight → trap → reprogram →
//!   fence).
//!
//! From the first it derives per-slice activity rates and cumulative
//! latency-percentile drift; from the second it rebuilds each shootdown's
//! critical path — the sender stalls for exactly the slowest receiver's
//! delivery — and checks that the named child spans account for the
//! `fence_stall_cycles` the counters charged. A run whose spans explain
//! less than the threshold (default 95%) of its stall cycles fails: some
//! synchronization cost is invisible to the causal trace, which is the
//! observability bug this command exists to catch.

use hpmp_trace::{
    histograms_in_snapshot, BenchReport, ExperimentRecord, LatencyHistogram, Percentiles, Snapshot,
    SpanEvent, SpanKind, SpanStream, Timeline,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Activity rates over one timeline slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceRow {
    /// Slice number.
    pub index: u64,
    /// First cycle covered.
    pub start_cycle: u64,
    /// One past the last cycle covered.
    pub end_cycle: u64,
    /// Data accesses in the slice (all harts).
    pub accesses: u64,
    /// Page walks in the slice (all harts).
    pub walks: u64,
    /// Shootdown IPIs delivered in the slice.
    pub ipis: u64,
    /// Sender fence-stall cycles charged in the slice (all harts).
    pub stall_cycles: u64,
    /// Monitor cycles spent in the slice.
    pub monitor_cycles: u64,
}

impl SliceRow {
    /// The slice's width on the cycle axis.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Events per kilocycle.
    fn rate(&self, count: u64) -> f64 {
        if self.cycles() == 0 {
            0.0
        } else {
            1000.0 * count as f64 / self.cycles() as f64
        }
    }
}

/// Cumulative walk-latency percentiles at one slice boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriftRow {
    /// Slice number the cumulative prefix ends at.
    pub index: u64,
    /// Percentiles of the merged (all-hart) `read_walk` histogram over
    /// slices `0..=index`, when any walks happened yet.
    pub read_walk: Option<Percentiles>,
}

/// Where the critical path of the run's shootdowns spent its cycles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Sender fence-stall cycles the counters charged (denominator).
    pub stall_cycles: u64,
    /// Stall cycles explained by the slowest receiver-side
    /// `shootdown_recv` span of each operation (numerator).
    pub attributed: u64,
    /// Operations that triggered at least one shootdown delivery.
    pub ops: u64,
    /// Per-receiver deliveries observed.
    pub deliveries: u64,
    /// Critical-path cycles in receiver trap entry/return.
    pub trap: u64,
    /// Critical-path cycles reprogramming receiver register images.
    pub reprogram: u64,
    /// Critical-path cycles in receiver-side fences.
    pub fence: u64,
    /// Critical-path cycles in interconnect flight (umbrella minus its
    /// named children).
    pub flight: u64,
    /// Spans the producer discarded at capacity — the honest reason
    /// attribution can fall short.
    pub dropped_spans: u64,
}

impl Attribution {
    /// Percentage of stall cycles the named child spans explain (100 when
    /// there was nothing to explain).
    pub fn pct(&self) -> f64 {
        if self.stall_cycles == 0 {
            100.0
        } else {
            100.0 * self.attributed as f64 / self.stall_cycles as f64
        }
    }
}

/// Everything `hpmp-analyze timeline` derives from the artifacts.
#[derive(Clone, Debug, Default)]
pub struct TimelineAnalysis {
    /// The producer's slice interval in cycles.
    pub interval: u64,
    /// Final global cycle.
    pub end_cycle: u64,
    /// Boundaries the producer folded after hitting its slice bound.
    pub dropped_boundaries: u64,
    /// Per-slice activity rates.
    pub rows: Vec<SliceRow>,
    /// Cumulative percentile drift, one row per slice.
    pub drift: Vec<DriftRow>,
    /// End-of-run percentiles per collapsed histogram base (the `hart.<i>.`
    /// prefix merged away), for classes that recorded anything.
    pub final_percentiles: Vec<(String, Percentiles)>,
    /// Shootdown critical-path attribution (present iff spans were given).
    pub attribution: Option<Attribution>,
    /// Invariant violations (slice structure, re-sum mismatch). Any entry
    /// fails the analysis.
    pub violations: Vec<String>,
}

/// Sum of every counter matching `name` — the bare name or any
/// `hart.<i>.`-prefixed copy of it.
pub(crate) fn sum_over_harts(snap: &Snapshot, name: &str) -> u64 {
    let suffix = format!(".{name}");
    snap.iter()
        .filter(|(key, _)| *key == name || (key.starts_with("hart.") && key.ends_with(&suffix)))
        .map(|(_, v)| v)
        .sum()
}

/// Histograms of `snap` with per-hart copies merged: `hart.<i>.machine.
/// latency.read_walk` and `machine.latency.read_walk` collapse into one
/// base.
fn collapsed_histograms(snap: &Snapshot) -> BTreeMap<String, LatencyHistogram> {
    let mut merged: BTreeMap<String, LatencyHistogram> = BTreeMap::new();
    for (base, hist) in histograms_in_snapshot(snap) {
        let collapsed = match base.strip_prefix("hart.") {
            Some(rest) => match rest.split_once('.') {
                Some((hart, tail)) if hart.chars().all(|c| c.is_ascii_digit()) => tail.to_string(),
                _ => base.clone(),
            },
            None => base.clone(),
        };
        merged.entry(collapsed).or_default().merge(&hist);
    }
    merged
}

/// Rebuild each shootdown's critical path from the span stream.
///
/// The sender of an operation stalls until its slowest receiver acks, so
/// per operation the explained stall is the widest `shootdown_recv` child;
/// that child's own trap/reprogram/fence children split the critical path
/// into named phases, and whatever the umbrella covers beyond them is
/// interconnect flight.
fn attribute(spans: &SpanStream, stall_cycles: u64) -> Attribution {
    let mut out = Attribution {
        stall_cycles,
        dropped_spans: spans.dropped,
        ..Attribution::default()
    };
    // Per-receiver deliveries, grouped under the operation that caused
    // them.
    let mut umbrellas: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for span in &spans.spans {
        match span.kind {
            SpanKind::ShootdownRecv => {
                if let Some(parent) = span.parent {
                    umbrellas.entry(parent).or_default().push(span);
                }
            }
            SpanKind::Trap | SpanKind::Reprogram | SpanKind::Fence => {
                if let Some(parent) = span.parent {
                    children.entry(parent).or_default().push(span);
                }
            }
            _ => {}
        }
    }
    for receivers in umbrellas.values() {
        out.ops += 1;
        out.deliveries += receivers.len() as u64;
        let slowest = receivers
            .iter()
            .max_by_key(|r| (r.cycles(), r.id))
            .expect("grouped by presence");
        out.attributed += slowest.cycles();
        let mut named = 0;
        for child in children.get(&slowest.id).into_iter().flatten() {
            named += child.cycles();
            match child.kind {
                SpanKind::Trap => out.trap += child.cycles(),
                SpanKind::Reprogram => out.reprogram += child.cycles(),
                SpanKind::Fence => out.fence += child.cycles(),
                _ => unreachable!("only phase kinds are grouped"),
            }
        }
        out.flight += slowest.cycles().saturating_sub(named);
    }
    out
}

/// Analyze a parsed timeline, optionally with the matching span stream
/// and the run's `--metrics-out` snapshot for an exact re-sum check.
pub fn analyze_timeline(
    timeline: &Timeline,
    spans: Option<&SpanStream>,
    final_snapshot: Option<&Snapshot>,
) -> TimelineAnalysis {
    let mut analysis = TimelineAnalysis {
        interval: timeline.interval,
        end_cycle: timeline.end_cycle,
        dropped_boundaries: timeline.dropped_boundaries,
        ..TimelineAnalysis::default()
    };
    if let Err(violation) = timeline.verify() {
        analysis.violations.push(violation);
    }

    let mut cumulative = Snapshot::new();
    for slice in &timeline.slices {
        analysis.rows.push(SliceRow {
            index: slice.index,
            start_cycle: slice.start_cycle,
            end_cycle: slice.end_cycle,
            accesses: sum_over_harts(&slice.counters, "machine.accesses"),
            walks: sum_over_harts(&slice.counters, "machine.walks"),
            ipis: slice.counters.value("smp.ipis_delivered"),
            stall_cycles: sum_over_harts(&slice.counters, "fence_stall_cycles"),
            monitor_cycles: slice.counters.value("monitor.cycles"),
        });
        cumulative = cumulative.merge(&slice.counters);
        analysis.drift.push(DriftRow {
            index: slice.index,
            read_walk: collapsed_histograms(&cumulative)
                .get("machine.latency.read_walk")
                .and_then(Percentiles::of),
        });
    }

    analysis.final_percentiles = collapsed_histograms(&cumulative)
        .iter()
        .filter_map(|(base, hist)| Percentiles::of(hist).map(|p| (base.clone(), p)))
        .collect();

    if let Some(final_snapshot) = final_snapshot {
        let resum = cumulative.to_json_versioned();
        let fin = final_snapshot.to_json_versioned();
        if resum != fin {
            analysis.violations.push(
                "re-summed slices do not reproduce the final snapshot — the timeline \
                 drifted from the counters it claims to decompose"
                    .to_string(),
            );
        }
    }

    if let Some(spans) = spans {
        let stall = sum_over_harts(&cumulative, "fence_stall_cycles");
        analysis.attribution = Some(attribute(spans, stall));
    }
    analysis
}

impl TimelineAnalysis {
    /// Whether the analysis is clean: no structural violation and (when
    /// spans were given) attribution at or above `threshold_pct`.
    pub fn passed(&self, threshold_pct: f64) -> bool {
        self.violations.is_empty()
            && self
                .attribution
                .as_ref()
                .is_none_or(|a| a.pct() >= threshold_pct)
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline: {} slice(s) every {} cycles, run ends at cycle {}",
            self.rows.len(),
            self.interval,
            self.end_cycle
        );
        if self.dropped_boundaries > 0 {
            let _ = writeln!(
                out,
                "  ({} boundaries folded into the tail after the slice bound)",
                self.dropped_boundaries
            );
        }
        let _ = writeln!(
            out,
            "  {:>5} {:>12} {:>12} {:>9} {:>9} {:>9} {:>8} {:>9}",
            "slice", "cycles", "accesses/kc", "walks/kc", "ipis/kc", "stall%", "mon%", "p99 walk"
        );
        for (row, drift) in self.rows.iter().zip(&self.drift) {
            let width = row.cycles().max(1);
            let p99 = drift
                .read_walk
                .map(|p| p.p99.to_string())
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "  {:>5} {:>12} {:>12.2} {:>9.2} {:>9.3} {:>8.1}% {:>7.1}% {:>9}",
                row.index,
                row.cycles(),
                row.rate(row.accesses),
                row.rate(row.walks),
                row.rate(row.ipis),
                100.0 * row.stall_cycles as f64 / width as f64,
                100.0 * row.monitor_cycles as f64 / width as f64,
                p99,
            );
        }
        if !self.final_percentiles.is_empty() {
            let _ = writeln!(out, "  end-of-run latency percentiles (cycles):");
            for (base, p) in &self.final_percentiles {
                let _ = writeln!(
                    out,
                    "    {:<40} p50={} p90={} p99={}",
                    base, p.p50, p.p90, p.p99
                );
            }
        }
        if let Some(a) = &self.attribution {
            let _ = writeln!(
                out,
                "  shootdown critical path: {} stall cycles, {} attributed ({:.1}%) \
                 over {} op(s), {} deliveries",
                a.stall_cycles,
                a.attributed,
                a.pct(),
                a.ops,
                a.deliveries
            );
            if a.attributed > 0 {
                let share = |c: u64| 100.0 * c as f64 / a.attributed as f64;
                let _ = writeln!(
                    out,
                    "    phases: flight {:.1}%, trap {:.1}%, reprogram {:.1}%, fence {:.1}%",
                    share(a.flight),
                    share(a.trap),
                    share(a.reprogram),
                    share(a.fence)
                );
            }
            if a.dropped_spans > 0 {
                let _ = writeln!(
                    out,
                    "    ({} spans dropped at capacity — attribution is a lower bound)",
                    a.dropped_spans
                );
            }
        }
        for violation in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {violation}");
        }
        out
    }

    /// A perf-trajectory report readable by `diff`: one record carrying the
    /// re-summed end-of-run counters, with the attribution verdict in the
    /// config block.
    pub fn to_bench_report(&self) -> BenchReport {
        let mut resum = Snapshot::new();
        // The rows were derived from the slices; re-sum once more for the
        // record so the report stands alone.
        let mut report = BenchReport::new("hpmp-analyze timeline");
        report.set_config("interval", self.interval.to_string());
        report.set_config("slices", self.rows.len().to_string());
        report.set_config("end_cycle", self.end_cycle.to_string());
        if let Some(a) = &self.attribution {
            report.set_config("attribution_pct", format!("{:.2}", a.pct()));
            report.set_config("dropped_spans", a.dropped_spans.to_string());
        }
        for row in &self.rows {
            let mut reg = hpmp_trace::MetricsRegistry::new();
            reg.set("slice.accesses", row.accesses);
            reg.set("slice.walks", row.walks);
            reg.set("slice.ipis_delivered", row.ipis);
            reg.set("slice.fence_stall_cycles", row.stall_cycles);
            reg.set("slice.monitor_cycles", row.monitor_cycles);
            resum = resum.merge(&reg.snapshot());
        }
        report.push(ExperimentRecord::from_snapshot(
            "timeline",
            self.end_cycle,
            resum,
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_trace::{MetricsRegistry, SpanCollector, TimelineSink};

    fn sample_timeline() -> Timeline {
        let mut reg = MetricsRegistry::new();
        let mut sink = TimelineSink::new(100);
        reg.set("hart.0.machine.accesses", 10);
        reg.set("hart.0.machine.cycles", 90);
        reg.set("hart.0.fence_stall_cycles", 20);
        reg.set("smp.ipis_delivered", 2);
        sink.record(120, &reg.snapshot());
        reg.add("hart.0.machine.accesses", 30);
        reg.add("hart.0.machine.cycles", 200);
        reg.add("hart.0.fence_stall_cycles", 40);
        reg.add("smp.ipis_delivered", 4);
        sink.finish(300, &reg.snapshot());
        let mut bytes = Vec::new();
        sink.write_jsonl(&mut bytes).unwrap();
        Timeline::parse(bytes.as_slice()).unwrap()
    }

    #[test]
    fn slice_rows_aggregate_per_hart_counters() {
        let analysis = analyze_timeline(&sample_timeline(), None, None);
        assert!(analysis.violations.is_empty());
        assert_eq!(analysis.rows.len(), 2);
        assert_eq!(analysis.rows[0].accesses, 10);
        assert_eq!(analysis.rows[1].accesses, 30);
        assert_eq!(analysis.rows[1].ipis, 4);
        assert_eq!(analysis.rows[1].stall_cycles, 40);
        assert!(analysis.passed(95.0));
    }

    #[test]
    fn resum_mismatch_is_a_violation() {
        let timeline = sample_timeline();
        let mut reg = MetricsRegistry::new();
        reg.set("hart.0.machine.accesses", 999);
        let wrong = reg.snapshot();
        let analysis = analyze_timeline(&timeline, None, Some(&wrong));
        assert_eq!(analysis.violations.len(), 1);
        assert!(!analysis.passed(95.0));

        let right = timeline.resum();
        let analysis = analyze_timeline(&timeline, None, Some(&right));
        assert!(analysis.violations.is_empty());
    }

    /// One op, two receivers: the slowest umbrella is the whole sender
    /// stall, and its children split the critical path.
    fn sample_spans(stall: u64) -> SpanStream {
        let mut c = SpanCollector::bounded(64);
        let op = c.reserve().unwrap();
        // Receiver 1: fast.
        let r1 = c
            .emit(
                SpanKind::ShootdownRecv,
                1,
                Some(1),
                Some(op),
                100,
                100 + stall - 80,
            )
            .unwrap();
        c.emit(SpanKind::Trap, 1, Some(1), Some(r1), 160, 200);
        // Receiver 2: the critical path.
        let r2 = c
            .emit(
                SpanKind::ShootdownRecv,
                2,
                Some(1),
                Some(op),
                100,
                100 + stall,
            )
            .unwrap();
        c.emit(SpanKind::Trap, 2, Some(1), Some(r2), 160, 420);
        c.emit(SpanKind::Reprogram, 2, Some(1), Some(r2), 420, 500);
        c.emit(SpanKind::Fence, 2, Some(1), Some(r2), 500, 620);
        c.emit_reserved(hpmp_trace::SpanEvent {
            id: op,
            parent: None,
            kind: SpanKind::Free,
            hart: 0,
            domain: Some(1),
            begin: 80,
            end: 100 + stall,
        });
        let mut bytes = Vec::new();
        c.write_jsonl(&mut bytes).unwrap();
        SpanStream::parse(bytes.as_slice()).unwrap()
    }

    #[test]
    fn attribution_explains_the_stall_via_the_slowest_receiver() {
        let timeline = sample_timeline();
        let stall = timeline.resum().value("hart.0.fence_stall_cycles");
        assert_eq!(stall, 60);
        let spans = sample_spans(stall);
        let analysis = analyze_timeline(&timeline, Some(&spans), None);
        let a = analysis.attribution.as_ref().unwrap();
        assert_eq!(a.stall_cycles, 60);
        assert_eq!(a.attributed, 60);
        assert_eq!(a.ops, 1);
        assert_eq!(a.deliveries, 2);
        assert_eq!((a.trap, a.reprogram, a.fence), (260, 80, 120));
        assert!((a.pct() - 100.0).abs() < 1e-9);
        assert!(analysis.passed(95.0));
    }

    #[test]
    fn under_attribution_fails_the_threshold() {
        let timeline = sample_timeline();
        // Spans only explain 40 of the 60 stall cycles.
        let spans = sample_spans(40);
        let analysis = analyze_timeline(&timeline, Some(&spans), None);
        let a = analysis.attribution.as_ref().unwrap();
        assert!(a.pct() < 95.0, "{}", a.pct());
        assert!(!analysis.passed(95.0));
        assert!(analysis.passed(50.0));
    }

    #[test]
    fn render_and_report_carry_the_verdict() {
        let timeline = sample_timeline();
        let stall = timeline.resum().value("hart.0.fence_stall_cycles");
        let spans = sample_spans(stall);
        let analysis = analyze_timeline(&timeline, Some(&spans), None);
        let text = analysis.render();
        assert!(text.contains("2 slice(s) every 100 cycles"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
        let report = analysis.to_bench_report();
        assert_eq!(report.config.get("attribution_pct").unwrap(), "100.00");
        let record = report.experiment("timeline").unwrap();
        assert_eq!(record.counters.value("slice.accesses"), 40);
        // The report itself round-trips through the bench-report reader.
        assert!(BenchReport::from_json(&report.to_json()).is_ok());
    }
}
