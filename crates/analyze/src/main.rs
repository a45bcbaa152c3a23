//! `hpmp-analyze`: offline analytics over HPMP simulator artifacts.
//!
//! ```text
//! hpmp-analyze profile [<trace.jsonl>] [--spans <spans.jsonl>]
//! hpmp-analyze diff <a.json> <b.json>
//! hpmp-analyze campaign <campaign.jsonl>
//! hpmp-analyze timeline <timeline.jsonl> [--spans <spans.jsonl>]
//!                       [--final <metrics.json>] [--threshold 95%]
//!                       [--report-out <report.json>]
//! hpmp-analyze export [--spans <spans.jsonl>] [--timeline <t.jsonl>]
//!                     [--trace <walks.jsonl>] [--final <metrics.json>]
//!                     [--chrome <trace.json>] [--collapsed <stacks.txt>]
//! ```
//!
//! Exit codes: 0 — analysis clean; 1 — the analysis itself found a problem
//! (invariant violation, claim mismatch, failed round trip); 2 — usage,
//! I/O, or schema error.

use hpmp_analyze::{
    analyze_timeline, chrome_trace, collapsed_stacks, load_artifact,
    profile::{SpanProfile, WalkProfile},
    render_collapsed, render_diff, verify_collapsed, verify_span_export, CampaignAnalysis,
};
use hpmp_trace::{read_trace_file, Snapshot, SpanStream, Timeline};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  hpmp-analyze profile [<trace.jsonl>] [--spans <spans.jsonl>]
      Cycle-attribution profile of a walk-event trace: breakdown by
      world x access class x step kind, per-level splits, step-sum
      invariant check, and the paper's reference-count claims. --spans
      adds (or, alone, substitutes) monitor-operation attribution from a
      --spans-out artifact: cycles per span kind and the share of
      operation cycles spent in degradation-ladder segment compaction.

  hpmp-analyze diff <a.json> <b.json>
      Differential report between two versioned artifacts of the same
      kind (--metrics-out snapshots or --bench-out reports): counter
      deltas, percent change, latency percentile shifts. Run it on a
      committed pin and a fresh report to name what a failed cmp moved.

  hpmp-analyze campaign <campaign.jsonl>
      Analyze a fault-campaign artifact (hpmpsim --campaign-out):
      per-class injected/detected/silent table recounted from the trial
      records and cross-checked against the embedded summary; exit 1 on
      any silent violation, recovery failure, or summary mismatch.

  hpmp-analyze timeline <timeline.jsonl> [--spans <spans.jsonl>]
                        [--final <metrics.json>] [--threshold <pct>%]
                        [--report-out <report.json>]
      Time-resolved analysis of an SMP run's --snapshot-interval /
      --spans-out artifacts: per-slice activity rates, cumulative latency
      percentile drift, and shootdown critical-path attribution from the
      causally linked spans. --final re-sums the slices and byte-compares
      against the run's --metrics-out snapshot. Exit 1 on a structural
      violation or when the named receiver-side spans explain less than
      --threshold (default 95%) of the counted sender stall cycles.
      --report-out writes a bench report readable by `diff`.

  hpmp-analyze export [--spans <spans.jsonl>] [--timeline <timeline.jsonl>]
                      [--trace <walks.jsonl>] [--final <metrics.json>]
                      [--chrome <trace.json>] [--collapsed <stacks.txt>]
      Convert simulator artifacts into industry-standard viewer formats.
      --chrome (needs --spans; --timeline adds counter tracks) writes
      Chrome Trace Event JSON loadable in Perfetto or chrome://tracing:
      per-hart tracks, one slice per span, causal flow arrows from the
      parent ids. --collapsed (needs --trace) writes collapsed stacks
      (world;class;step cycles) for flamegraph.pl / inferno. With
      --final, each projection is re-summed against the run's metrics
      snapshot — receiver handler spans against hart.<i>.shootdown
      counters, per-class stack totals against the latency cycle
      counters — and a mismatch exits 1 instead of rendering a lie.
";

fn fail_usage(message: &str) -> ExitCode {
    eprintln!("hpmp-analyze: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn read_to_string(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("hpmp-analyze: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

fn cmd_profile(args: &[String]) -> ExitCode {
    let mut trace_path: Option<String> = None;
    let mut spans_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spans" => match it.next() {
                Some(path) => spans_path = Some(path.clone()),
                None => return fail_usage("--spans needs a file"),
            },
            other if !other.starts_with('-') && trace_path.is_none() => {
                trace_path = Some(other.to_string());
            }
            other => return fail_usage(&format!("unknown profile argument \"{other}\"")),
        }
    }
    if trace_path.is_none() && spans_path.is_none() {
        return fail_usage("profile needs a trace file and/or --spans");
    }
    if let Some(path) = &trace_path {
        let events = match read_trace_file(path) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("hpmp-analyze: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let profile = WalkProfile::from_events(&events);
        print!("{}", profile.render());
        if !profile.is_balanced() {
            eprintln!("hpmp-analyze: step-sum invariant violated");
            return ExitCode::from(1);
        }
        if !profile.claims_hold() {
            eprintln!("hpmp-analyze: measured reference counts deviate from the paper");
            return ExitCode::from(1);
        }
    }
    if let Some(path) = &spans_path {
        let stream = match SpanStream::read_file(path) {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("hpmp-analyze: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if trace_path.is_some() {
            println!();
        }
        print!("{}", SpanProfile::from_stream(&stream).render());
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [path_a, path_b] = args else {
        return fail_usage("diff takes exactly two artifact files");
    };
    let (text_a, text_b) = match (read_to_string(path_a), read_to_string(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let load = |path: &str, text: &str| {
        load_artifact(text).map_err(|e| {
            eprintln!("hpmp-analyze: {path}: {e}");
            ExitCode::from(2)
        })
    };
    let (a, b) = match (load(path_a, &text_a), load(path_b, &text_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    match render_diff(path_a, path_b, &a, &b) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("hpmp-analyze: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse_threshold(raw: &str) -> Option<f64> {
    let trimmed = raw.trim().trim_end_matches('%');
    let value: f64 = trimmed.parse().ok()?;
    (value >= 0.0 && value.is_finite()).then_some(value)
}

fn cmd_campaign(args: &[String]) -> ExitCode {
    let [path] = args else {
        return fail_usage("campaign takes exactly one campaign artifact");
    };
    let text = match read_to_string(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let analysis = match CampaignAnalysis::from_jsonl(&text) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("hpmp-analyze: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", analysis.render());
    if analysis.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("hpmp-analyze: campaign failed the fail-closed invariant");
        ExitCode::from(1)
    }
}

fn cmd_timeline(args: &[String]) -> ExitCode {
    let mut timeline_path: Option<String> = None;
    let mut spans_path: Option<String> = None;
    let mut final_path: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut threshold = 95.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spans" => match it.next() {
                Some(path) => spans_path = Some(path.clone()),
                None => return fail_usage("--spans needs a file"),
            },
            "--final" => match it.next() {
                Some(path) => final_path = Some(path.clone()),
                None => return fail_usage("--final needs a file"),
            },
            "--threshold" => match it.next().map(|raw| parse_threshold(raw)) {
                Some(Some(value)) => threshold = value,
                _ => return fail_usage("--threshold needs a percentage like 95%"),
            },
            "--report-out" => match it.next() {
                Some(path) => report_out = Some(path.clone()),
                None => return fail_usage("--report-out needs a file"),
            },
            other if !other.starts_with('-') && timeline_path.is_none() => {
                timeline_path = Some(other.to_string());
            }
            other => return fail_usage(&format!("unknown timeline argument \"{other}\"")),
        }
    }
    let Some(timeline_path) = timeline_path else {
        return fail_usage("timeline needs a timeline artifact");
    };
    let timeline = match Timeline::read_file(&timeline_path) {
        Ok(timeline) => timeline,
        Err(e) => {
            eprintln!("hpmp-analyze: {timeline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spans = match &spans_path {
        Some(path) => match SpanStream::read_file(path) {
            Ok(spans) => Some(spans),
            Err(e) => {
                eprintln!("hpmp-analyze: {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let final_snapshot = match &final_path {
        Some(path) => {
            let text = match read_to_string(path) {
                Ok(text) => text,
                Err(code) => return code,
            };
            match Snapshot::from_json(&text) {
                Ok(snap) => Some(snap),
                Err(e) => {
                    eprintln!("hpmp-analyze: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    let analysis = analyze_timeline(&timeline, spans.as_ref(), final_snapshot.as_ref());
    print!("{}", analysis.render());
    if let Some(path) = &report_out {
        if let Err(e) = std::fs::write(path, analysis.to_bench_report().to_json()) {
            eprintln!("hpmp-analyze: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report -> {path}");
    }
    if analysis.passed(threshold) {
        ExitCode::SUCCESS
    } else {
        eprintln!("hpmp-analyze: timeline analysis failed (threshold {threshold}%)");
        ExitCode::from(1)
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let mut spans_path: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut final_path: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut collapsed_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut path_value = |name: &str| match it.next() {
            Some(path) => Ok(path.clone()),
            None => Err(format!("{name} needs a file")),
        };
        let result = match arg.as_str() {
            "--spans" => path_value("--spans").map(|p| spans_path = Some(p)),
            "--timeline" => path_value("--timeline").map(|p| timeline_path = Some(p)),
            "--trace" => path_value("--trace").map(|p| trace_path = Some(p)),
            "--final" => path_value("--final").map(|p| final_path = Some(p)),
            "--chrome" => path_value("--chrome").map(|p| chrome_out = Some(p)),
            "--collapsed" => path_value("--collapsed").map(|p| collapsed_out = Some(p)),
            other => Err(format!("unknown export argument \"{other}\"")),
        };
        if let Err(message) = result {
            return fail_usage(&message);
        }
    }
    if chrome_out.is_none() && collapsed_out.is_none() {
        return fail_usage("export needs at least one of --chrome / --collapsed");
    }
    if chrome_out.is_some() && spans_path.is_none() {
        return fail_usage("--chrome needs --spans");
    }
    if collapsed_out.is_some() && trace_path.is_none() {
        return fail_usage("--collapsed needs --trace");
    }

    let final_snapshot = match &final_path {
        Some(path) => {
            let text = match read_to_string(path) {
                Ok(text) => text,
                Err(code) => return code,
            };
            match Snapshot::from_json(&text) {
                Ok(snap) => Some(snap),
                Err(e) => {
                    eprintln!("hpmp-analyze: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let mut violations = Vec::new();
    if let Some(out_path) = &chrome_out {
        let spans_path = spans_path.as_deref().expect("checked above");
        let spans = match SpanStream::read_file(spans_path) {
            Ok(spans) => spans,
            Err(e) => {
                eprintln!("hpmp-analyze: {spans_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let timeline = match &timeline_path {
            Some(path) => match Timeline::read_file(path) {
                Ok(timeline) => Some(timeline),
                Err(e) => {
                    eprintln!("hpmp-analyze: {path}: {e}");
                    return ExitCode::from(2);
                }
            },
            None => None,
        };
        if let Some(snap) = &final_snapshot {
            violations.extend(verify_span_export(&spans, snap));
        }
        if let Err(e) = std::fs::write(out_path, chrome_trace(&spans, timeline.as_ref())) {
            eprintln!("hpmp-analyze: cannot write {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "chrome trace: {} span(s){} -> {out_path}",
            spans.spans.len(),
            timeline
                .as_ref()
                .map(|t| format!(" + {} slice(s)", t.slices.len()))
                .unwrap_or_default()
        );
    }
    if let Some(out_path) = &collapsed_out {
        let trace_path = trace_path.as_deref().expect("checked above");
        let events = match read_trace_file(trace_path) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("hpmp-analyze: {trace_path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Some(snap) = &final_snapshot {
            violations.extend(verify_collapsed(&events, snap));
        }
        let stacks = collapsed_stacks(&events);
        if let Err(e) = std::fs::write(out_path, render_collapsed(&stacks)) {
            eprintln!("hpmp-analyze: cannot write {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "collapsed stacks: {} stack(s) from {} event(s) -> {out_path}",
            stacks.len(),
            events.len()
        );
    }
    if violations.is_empty() {
        if final_snapshot.is_some() {
            println!("round trip: exported durations re-derive the snapshot counters");
        }
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("hpmp-analyze: round-trip violation: {violation}");
        }
        eprintln!(
            "hpmp-analyze: export does not re-derive the snapshot counters \
             ({} violation(s))",
            violations.len()
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "profile" => cmd_profile(rest),
            "diff" => cmd_diff(rest),
            "campaign" => cmd_campaign(rest),
            "timeline" => cmd_timeline(rest),
            "export" => cmd_export(rest),
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                ExitCode::SUCCESS
            }
            other => fail_usage(&format!("unknown command \"{other}\"")),
        },
        None => fail_usage("no command given"),
    }
}
