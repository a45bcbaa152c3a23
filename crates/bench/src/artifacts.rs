//! The artifact flags `hpmpsim` and `repro` share: parsing, the cross-flag
//! rules, and the writers for every artifact they name.
//!
//! Both binaries run jobs on a worker pool, each job with its own
//! headerless trace sink ([`TraceBytes`]); the main thread splices the
//! jobs' bytes under one schema header and writes the metrics, bench,
//! timeline, span and host-profile artifacts. Console wording stays with
//! each binary. A malformed or missing flag value is an `Err` naming the
//! flag (callers exit 2); an unwritable artifact exits 1.

use std::io::Write as _;
use std::num::NonZeroU64;
use std::str::FromStr;

use hpmp_machine::ExecBackend;
use hpmp_trace::{BenchReport, HostProfile, JsonlSink, Snapshot};
use hpmp_workloads::smp::{RunOptions, SmpTelemetry, SmpTelemetrySpec};

/// The nine shared flags, as parsed.
#[derive(Clone, Debug, Default)]
pub struct ArtifactFlags {
    /// `--jobs N`: worker threads (default: available parallelism).
    pub jobs: Option<usize>,
    /// `--backend deterministic|threaded`: the SMP execution backend.
    pub backend: ExecBackend,
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
            "--backend" => self.backend = flag_value(arg, rest)?,
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

    /// Checks the cross-flag rules and returns the SMP run options the
    /// flags ask for.
    ///
    /// # Errors
    ///
    /// `--timeline-out` without `--snapshot-interval`, or telemetry on the
    /// threaded backend.
    pub fn run_options(&self) -> Result<RunOptions, String> {
        if self.timeline_out.is_some() && self.snapshot_interval.is_none() {
            return Err("--timeline-out needs --snapshot-interval".to_string());
        }
        let telemetry = SmpTelemetrySpec {
            snapshot_interval: self.snapshot_interval,
            span_capacity: self
                .spans_out
                .as_ref()
                .map(|_| SmpTelemetrySpec::DEFAULT_SPAN_CAPACITY),
        };
        RunOptions::new(self.backend, telemetry).map_err(|e| e.to_string())
    }

    /// Splices the jobs' trace bytes, in order, under one schema header
    /// at `--trace-out` — the stream one serial shared sink would have
    /// written. Returns a console summary, if tracing.
    pub fn write_trace<'a>(
        &self,
        parts: impl IntoIterator<Item = &'a TraceBytes>,
    ) -> Option<String> {
        let path = self.trace_out.as_deref()?;
        let mut file = JsonlSink::create(path)
            .unwrap_or_else(|e| exit_io(format!("cannot create {path}: {e}")))
            .into_inner();
        let (mut events, mut io_errors) = (0, 0);
        for part in parts {
            events += part.events;
            io_errors += part.io_errors;
            if let Err(e) = file.write_all(&part.bytes) {
                exit_io(format!("cannot write {path}: {e}"));
            }
        }
        if let Err(e) = file.flush() {
            exit_io(format!("cannot write {path}: {e}"));
        }
        if io_errors > 0 {
            eprintln!("  warning: {io_errors} events lost to I/O errors");
        }
        Some(format!("{events} events -> {path}"))
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

/// Headerless walk-event JSONL one job recorded, buffered so the pool's
/// output can be spliced in a fixed order.
#[derive(Clone, Debug, Default)]
pub struct TraceBytes {
    /// The JSONL lines.
    pub bytes: Vec<u8>,
    /// Events in `bytes`.
    pub events: u64,
    /// Events lost to I/O errors while recording.
    pub io_errors: u64,
}

impl TraceBytes {
    /// Gathers in-memory headerless sinks, in order.
    pub fn from_sinks(sinks: impl IntoIterator<Item = JsonlSink<Vec<u8>>>) -> TraceBytes {
        let mut out = TraceBytes::default();
        for sink in sinks {
            out.events += sink.written();
            out.io_errors += sink.io_errors();
            out.bytes.extend_from_slice(&sink.into_inner());
        }
        out
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
