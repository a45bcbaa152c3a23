//! The artifact flags `hpmpsim` and `repro` share: parsing, the cross-flag
//! rule, and the writers for every artifact they name.
//!
//! Both binaries run jobs on a worker pool, each job with its own
//! headerless in-memory trace sinks; the main thread appends each job's
//! bytes to the one `--trace-out` file ([`TraceWriter`]) as the pool
//! emits the job in order, then writes the metrics, bench, timeline, span
//! and host-profile artifacts. Console wording stays with each binary. A
//! malformed or missing flag value is an `Err` naming the flag (callers
//! exit 2); an unwritable artifact exits 1.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::num::NonZeroU64;
use std::str::FromStr;

use hpmp_trace::{BenchReport, HostProfile, JsonlSink, Snapshot};
use hpmp_workloads::smp::{SmpTelemetry, SmpTelemetrySpec};

/// The eight shared flags, as parsed.
#[derive(Clone, Debug, Default)]
pub struct ArtifactFlags {
    /// `--jobs N`: worker threads (default: available parallelism).
    pub jobs: Option<usize>,
    /// `--trace-out`: walk-event JSONL.
    pub trace_out: Option<String>,
    /// `--metrics-out`: versioned metrics snapshot.
    pub metrics_out: Option<String>,
    /// `--bench-out`: perf-trajectory bench report.
    pub bench_out: Option<String>,
    /// `--snapshot-interval CYCLES`: cut a timeline slice every N cycles.
    pub snapshot_interval: Option<u64>,
    /// `--timeline-out` (default `timeline.jsonl`).
    pub timeline_out: Option<String>,
    /// `--spans-out`: monitor-operation span JSONL.
    pub spans_out: Option<String>,
    /// `--host-profile-out`: host-clock profile.
    pub host_profile_out: Option<String>,
}

/// Reads the value of `flag` from `rest`, parsed as `T`.
///
/// # Errors
///
/// A message naming `flag` if the value is missing or does not parse.
pub fn flag_value<T>(flag: &str, rest: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    let raw = rest
        .next()
        .ok_or_else(|| format!("missing value for {flag}"))?;
    raw.parse()
        .map_err(|e| format!("bad value for {flag} '{raw}': {e}"))
}

impl ArtifactFlags {
    /// Consumes `arg`, and its value from `rest`, if it is a shared flag.
    /// Returns whether it was one.
    ///
    /// # Errors
    ///
    /// As [`flag_value`]; `--snapshot-interval` must also be positive.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--jobs" => self.jobs = Some(flag_value(arg, rest)?),
            "--trace-out" => self.trace_out = Some(flag_value(arg, rest)?),
            "--metrics-out" => self.metrics_out = Some(flag_value(arg, rest)?),
            "--bench-out" => self.bench_out = Some(flag_value(arg, rest)?),
            "--snapshot-interval" => {
                self.snapshot_interval = Some(flag_value::<NonZeroU64>(arg, rest)?.get());
            }
            "--timeline-out" => self.timeline_out = Some(flag_value(arg, rest)?),
            "--spans-out" => self.spans_out = Some(flag_value(arg, rest)?),
            "--host-profile-out" => self.host_profile_out = Some(flag_value(arg, rest)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Worker threads: `--jobs`, else the available parallelism; at least 1.
    pub fn jobs(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// Whether any time-resolved telemetry flag was given.
    pub fn telemetry_requested(&self) -> bool {
        self.snapshot_interval.is_some() || self.timeline_out.is_some() || self.spans_out.is_some()
    }

    /// Checks the cross-flag rule and returns the telemetry the flags ask
    /// SMP runs to record.
    ///
    /// # Errors
    ///
    /// `--timeline-out` without `--snapshot-interval`.
    pub fn telemetry_spec(&self) -> Result<SmpTelemetrySpec, String> {
        if self.timeline_out.is_some() && self.snapshot_interval.is_none() {
            return Err("--timeline-out needs --snapshot-interval".to_string());
        }
        Ok(SmpTelemetrySpec {
            snapshot_interval: self.snapshot_interval,
            span_capacity: self
                .spans_out
                .as_ref()
                .map(|_| SmpTelemetrySpec::DEFAULT_SPAN_CAPACITY),
        })
    }

    /// Creates `--trace-out` with its schema header, if tracing; each
    /// job's events are appended to it in job order.
    pub fn trace_writer(&self) -> Option<TraceWriter> {
        let path = self.trace_out.clone()?;
        let file = JsonlSink::create(&path)
            .unwrap_or_else(|e| exit_io(format!("cannot create {path}: {e}")))
            .into_inner();
        Some(TraceWriter {
            path,
            file,
            events: 0,
            io_errors: 0,
        })
    }

    /// Writes `snapshot` to `--metrics-out`, if given. Returns a console
    /// summary.
    pub fn write_metrics(&self, snapshot: &Snapshot) -> Option<String> {
        let path = self.metrics_out.as_deref()?;
        write_or_exit(path, snapshot.to_json_versioned());
        Some(format!("{} counters -> {path}", snapshot.len()))
    }

    /// Writes `report` to `--bench-out`, if given. Returns a console
    /// summary.
    pub fn write_bench(&self, report: &BenchReport) -> Option<String> {
        let path = self.bench_out.as_deref()?;
        write_or_exit(path, report.to_json());
        Some(format!(
            "{} experiment(s) -> {path}",
            report.experiments.len()
        ))
    }

    /// Writes `telemetry`'s timeline (to `--timeline-out`, default
    /// `timeline.jsonl`) and spans (to `--spans-out`) as JSONL. Returns a
    /// `(label, summary)` console line per artifact written.
    pub fn write_telemetry(&self, telemetry: &SmpTelemetry) -> Vec<(&'static str, String)> {
        let mut lines = Vec::new();
        if let (Some(timeline), Some(interval)) = (&telemetry.timeline, self.snapshot_interval) {
            let path = self.timeline_out.as_deref().unwrap_or("timeline.jsonl");
            let mut bytes = Vec::new();
            timeline
                .write_jsonl(&mut bytes)
                .expect("Vec writes cannot fail");
            write_or_exit(path, bytes);
            let slices = timeline.slices().len();
            lines.push((
                "timeline",
                format!("{slices} slice(s) every {interval} cycles -> {path}"),
            ));
            if timeline.dropped_boundaries() > 0 {
                eprintln!(
                    "  warning: {} slice boundaries folded into the tail (max slices reached)",
                    timeline.dropped_boundaries()
                );
            }
        }
        if let (Some(spans), Some(path)) = (&telemetry.spans, &self.spans_out) {
            let mut bytes = Vec::new();
            spans
                .write_jsonl(&mut bytes)
                .expect("Vec writes cannot fail");
            write_or_exit(path, bytes);
            let (retained, dropped) = (spans.len(), spans.dropped());
            lines.push((
                "spans",
                format!("{retained} span(s) ({dropped} dropped) -> {path}"),
            ));
        }
        lines
    }

    /// Writes `profile` to `--host-profile-out` if given, then prints its
    /// walks-per-second headline. Both go to stderr or the profile file
    /// only: host-clock data never reaches stdout or a simulated artifact.
    pub fn write_host_profile(&self, profile: &HostProfile) {
        if let Some(path) = &self.host_profile_out {
            write_or_exit(path, profile.to_json());
            eprintln!("host profile -> {path}");
        }
        eprintln!("{}", profile.headline());
    }
}

/// The `--trace-out` file: one schema header, then every job's headerless
/// events in job order — the stream one serial shared sink would have
/// written. Each job's sinks are dropped once written, so at most the jobs
/// still waiting for an earlier one are held in memory.
#[derive(Debug)]
pub struct TraceWriter {
    path: String,
    file: BufWriter<File>,
    events: u64,
    io_errors: u64,
}

impl TraceWriter {
    /// Appends one job's in-memory headerless sinks, in order, moving
    /// each buffer out of its sink. Exits 1 if the file cannot be written.
    pub fn append(&mut self, sinks: Vec<JsonlSink<Vec<u8>>>) {
        for sink in sinks {
            self.events += sink.written();
            self.io_errors += sink.io_errors();
            if let Err(e) = self.file.write_all(&sink.into_inner()) {
                exit_io(format!("cannot write {}: {e}", self.path));
            }
        }
    }

    /// Flushes the file. Returns a console summary.
    pub fn finish(mut self) -> String {
        if let Err(e) = self.file.flush() {
            exit_io(format!("cannot write {}: {e}", self.path));
        }
        if self.io_errors > 0 {
            eprintln!("  warning: {} events lost to I/O errors", self.io_errors);
        }
        format!("{} events -> {}", self.events, self.path)
    }
}

/// Writes `contents` to `path`, or reports the error and exits 1.
pub fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        exit_io(format!("cannot write {path}: {e}"));
    }
}

fn exit_io(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}
