//! Periodic snapshot streaming: the time axis for metrics.
//!
//! A [`TimelineSink`] turns end-of-run aggregates into *slices*: every N
//! simulated cycles it captures the cumulative [`Snapshot`] and stores the
//! counter-wise [`Snapshot::delta`] against the previous capture. The
//! deltas telescope — merging every slice with [`Snapshot::merge`]
//! reproduces the final end-of-run snapshot byte-for-byte — so a timeline
//! is a lossless decomposition of the run, not a parallel bookkeeping
//! scheme that can drift from it.
//!
//! Boundaries are decided on the deterministic simulated clock, never on
//! wall time, so timelines are byte-identical at any `--jobs`. Slice
//! count is bounded: past the bound set by
//! [`TimelineSink::with_max_slices`] new deltas fold into the last slice
//! (keeping the telescoping sum exact) and the folded boundary is counted
//! in [`TimelineSink::dropped_boundaries`] — the lossy-but-honest
//! discipline every trace artifact in this crate follows.
//!
//! The on-disk form is JSONL: a schema-versioned header carrying the
//! interval, one slice object per line, and a summary footer.

use crate::json::{parse_json, JsonValue};
use crate::metrics::Snapshot;
use crate::read::{check_schema, ReadError};
use crate::SCHEMA_VERSION;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// The `stream` tag a timeline JSONL header carries.
pub const TIMELINE_STREAM: &str = "hpmp-timeline";

/// Default bound on retained slices (~hours of simulated time at any
/// sensible interval before folding starts).
pub const DEFAULT_MAX_SLICES: usize = 1 << 16;

/// One interval of a run: the counter deltas accumulated over
/// `[start_cycle, end_cycle)` of the global simulated clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineSlice {
    /// 0-based slice number.
    pub index: u64,
    /// First cycle covered by this slice.
    pub start_cycle: u64,
    /// One past the last cycle covered.
    pub end_cycle: u64,
    /// Counter-wise delta over the slice ([`Snapshot::delta`] of the
    /// cumulative snapshots at the two boundaries).
    pub counters: Snapshot,
}

impl TimelineSlice {
    /// The slice's width on the cycle axis.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"slice\":{},\"start_cycle\":{},\"end_cycle\":{},\"counters\":{}}}",
            self.index,
            self.start_cycle,
            self.end_cycle,
            self.counters.to_json()
        )
    }
}

/// The periodic-snapshot emitter: feed it cumulative snapshots at
/// deterministic checkpoints; it slices them on the simulated clock.
#[derive(Clone, Debug)]
pub struct TimelineSink {
    interval: u64,
    max_slices: usize,
    slices: Vec<TimelineSlice>,
    last: Snapshot,
    last_cycle: u64,
    dropped_boundaries: u64,
}

impl TimelineSink {
    /// A sink slicing every `interval` simulated cycles (0 is treated as
    /// 1), bounded at [`DEFAULT_MAX_SLICES`].
    pub fn new(interval: u64) -> TimelineSink {
        TimelineSink::with_max_slices(interval, DEFAULT_MAX_SLICES)
    }

    /// A sink with an explicit slice bound (0 folds everything into one
    /// slice at `finish`).
    pub fn with_max_slices(interval: u64, max_slices: usize) -> TimelineSink {
        TimelineSink {
            interval: interval.max(1),
            max_slices,
            slices: Vec::new(),
            last: Snapshot::new(),
            last_cycle: 0,
            dropped_boundaries: 0,
        }
    }

    /// The configured slice interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether a checkpoint at `now` should cut a slice.
    pub fn due(&self, now: u64) -> bool {
        now >= self.last_cycle + self.interval
    }

    /// Cut a slice at `now` from the cumulative snapshot `cumulative`.
    ///
    /// Counters must be monotone between calls (they are: every registry
    /// in the workspace only ever accumulates between resets, and a
    /// timeline never spans a reset). Past the slice bound the delta folds
    /// into the last slice, keeping the telescoping sum exact.
    pub fn record(&mut self, now: u64, cumulative: &Snapshot) {
        let delta = cumulative.delta(&self.last);
        if self.slices.len() >= self.max_slices && !self.slices.is_empty() {
            let tail = self.slices.last_mut().expect("non-empty");
            tail.end_cycle = now.max(tail.end_cycle);
            tail.counters = tail.counters.merge(&delta);
            self.dropped_boundaries += 1;
        } else {
            self.slices.push(TimelineSlice {
                index: self.slices.len() as u64,
                start_cycle: self.last_cycle,
                end_cycle: now,
                counters: delta,
            });
        }
        self.last = cumulative.clone();
        self.last_cycle = now;
    }

    /// Close the timeline at the end of the run: the tail slice absorbs
    /// whatever accumulated since the last boundary, so the slice sum
    /// matches the final snapshot exactly.
    pub fn finish(&mut self, now: u64, final_snapshot: &Snapshot) {
        self.record(now, final_snapshot);
    }

    /// The slices cut so far.
    pub fn slices(&self) -> &[TimelineSlice] {
        &self.slices
    }

    /// Boundaries folded into the tail slice after the bound was hit.
    pub fn dropped_boundaries(&self) -> u64 {
        self.dropped_boundaries
    }

    /// Merge every slice back into one snapshot. After
    /// [`TimelineSink::finish`] this equals the final snapshot
    /// byte-for-byte.
    pub fn resum(&self) -> Snapshot {
        resum(&self.slices)
    }

    /// Write the timeline as a schema-versioned JSONL stream: header,
    /// one slice per line, summary footer.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(
            out,
            "{{\"schema\":{SCHEMA_VERSION},\"stream\":\"{TIMELINE_STREAM}\",\"interval\":{}}}",
            self.interval
        )?;
        for slice in &self.slices {
            writeln!(out, "{}", slice.to_json())?;
        }
        writeln!(
            out,
            "{{\"summary\":{{\"slices\":{},\"end_cycle\":{},\"dropped_boundaries\":{}}}}}",
            self.slices.len(),
            self.last_cycle,
            self.dropped_boundaries
        )
    }
}

/// Merge a sequence of slices back into one cumulative snapshot.
pub fn resum(slices: &[TimelineSlice]) -> Snapshot {
    let mut total = Snapshot::new();
    for slice in slices {
        total = total.merge(&slice.counters);
    }
    total
}

/// A parsed timeline stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    /// The producer's slice interval in cycles.
    pub interval: u64,
    /// The slices, in stream order.
    pub slices: Vec<TimelineSlice>,
    /// Final global cycle (from the summary footer).
    pub end_cycle: u64,
    /// Boundaries the producer folded after hitting its slice bound.
    pub dropped_boundaries: u64,
}

impl Timeline {
    /// Parse a timeline produced by [`TimelineSink::write_jsonl`].
    ///
    /// # Errors
    ///
    /// Rejects a missing/foreign header, a malformed slice line, or a
    /// missing summary footer.
    pub fn parse<R: BufRead>(mut input: R) -> Result<Timeline, ReadError> {
        let mut header = String::new();
        if input.read_line(&mut header)? == 0 {
            return Err(ReadError::Schema {
                message: format!(
                    "timeline is empty: expected a header line like \
                     {{\"schema\":1,\"stream\":\"{TIMELINE_STREAM}\",\"interval\":N}}"
                ),
            });
        }
        let value = parse_json(header.trim_end()).map_err(|e| ReadError::Schema {
            message: format!("timeline header line is not valid JSON ({e})"),
        })?;
        check_schema(&value, "timeline header")?;
        match value.get("stream").and_then(JsonValue::as_str) {
            Some(TIMELINE_STREAM) => {}
            Some(other) => {
                return Err(ReadError::Schema {
                    message: format!("stream is \"{other}\", expected \"{TIMELINE_STREAM}\""),
                })
            }
            None => {
                return Err(ReadError::Schema {
                    message: "timeline header has no \"stream\" field".to_string(),
                })
            }
        }
        let interval = value
            .get("interval")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ReadError::Schema {
                message: "timeline header has no integer \"interval\" field".to_string(),
            })?;

        let mut timeline = Timeline {
            interval,
            ..Timeline::default()
        };
        let mut saw_summary = false;
        let mut line_no = 1;
        let mut buf = String::new();
        loop {
            buf.clear();
            if input.read_line(&mut buf)? == 0 {
                break;
            }
            line_no += 1;
            let line = buf.trim();
            if line.is_empty() {
                continue;
            }
            let value = parse_json(line).map_err(|e| ReadError::Parse {
                line: line_no,
                message: format!("not valid JSON ({e})"),
            })?;
            if let Some(summary) = value.get("summary") {
                timeline.end_cycle = summary
                    .get("end_cycle")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| ReadError::Parse {
                        line: line_no,
                        message: "summary has no integer \"end_cycle\"".to_string(),
                    })?;
                timeline.dropped_boundaries = summary
                    .get("dropped_boundaries")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                saw_summary = true;
                continue;
            }
            if saw_summary {
                return Err(ReadError::Parse {
                    line: line_no,
                    message: "slice line after the summary footer".to_string(),
                });
            }
            timeline
                .slices
                .push(parse_slice(&value).map_err(|message| ReadError::Parse {
                    line: line_no,
                    message,
                })?);
        }
        if !saw_summary {
            return Err(ReadError::Schema {
                message: "timeline has no summary footer — the producing run \
                          was interrupted before finish"
                    .to_string(),
            });
        }
        Ok(timeline)
    }

    /// Open and parse a timeline file.
    ///
    /// # Errors
    ///
    /// As [`Timeline::parse`], plus I/O failures opening the file.
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Timeline, ReadError> {
        Timeline::parse(BufReader::new(File::open(path)?))
    }

    /// Merge every slice back into the end-of-run snapshot.
    pub fn resum(&self) -> Snapshot {
        resum(&self.slices)
    }

    /// Check structural invariants: indices consecutive from 0, cycle
    /// ranges contiguous and non-decreasing, summary end matching the
    /// last slice.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        let mut cursor = 0u64;
        for (i, slice) in self.slices.iter().enumerate() {
            if slice.index != i as u64 {
                return Err(format!(
                    "slice {} carries index {} — stream reordered or truncated",
                    i, slice.index
                ));
            }
            if slice.start_cycle != cursor {
                return Err(format!(
                    "slice {} starts at cycle {} but the previous slice ended at {}",
                    i, slice.start_cycle, cursor
                ));
            }
            if slice.end_cycle < slice.start_cycle {
                return Err(format!("slice {i} ends before it starts"));
            }
            cursor = slice.end_cycle;
        }
        if cursor != self.end_cycle {
            return Err(format!(
                "summary says the run ended at cycle {} but the last slice ends at {}",
                self.end_cycle, cursor
            ));
        }
        Ok(())
    }
}

fn parse_slice(value: &JsonValue) -> Result<TimelineSlice, String> {
    let u64_field = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .ok_or_else(|| format!("missing field \"{key}\""))?
            .as_u64()
            .ok_or_else(|| format!("field \"{key}\" is not a u64"))
    };
    let counters = value
        .get("counters")
        .ok_or("slice has no \"counters\" object")?;
    Ok(TimelineSlice {
        index: u64_field("slice")?,
        start_cycle: u64_field("start_cycle")?,
        end_cycle: u64_field("end_cycle")?,
        counters: Snapshot::from_counters(counters)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn slices_telescope_to_the_final_snapshot() {
        let mut reg = MetricsRegistry::new();
        let mut sink = TimelineSink::new(100);
        reg.set("m.cycles", 80);
        reg.set("m.accesses", 3);
        assert!(!sink.due(80));
        reg.add("m.cycles", 70);
        assert!(sink.due(150));
        sink.record(150, &reg.snapshot());
        reg.add("m.cycles", 200);
        reg.add("m.accesses", 9);
        reg.set("m.late_counter", 5);
        sink.record(350, &reg.snapshot());
        reg.add("m.cycles", 30);
        let fin = reg.snapshot();
        sink.finish(380, &fin);

        assert_eq!(sink.slices().len(), 3);
        assert_eq!(sink.slices()[0].start_cycle, 0);
        assert_eq!(sink.slices()[1].cycles(), 200);
        assert_eq!(sink.slices()[1].counters.value("m.late_counter"), 5);
        assert_eq!(
            sink.resum().to_json_versioned(),
            fin.to_json_versioned(),
            "slice deltas must re-sum to the final snapshot byte-for-byte"
        );
    }

    #[test]
    fn overflow_folds_into_the_tail_and_is_counted() {
        let mut reg = MetricsRegistry::new();
        let mut sink = TimelineSink::with_max_slices(10, 2);
        for i in 1..=5u64 {
            reg.add("m.cycles", 10);
            reg.add("m.work", 1);
            sink.record(i * 10, &reg.snapshot());
        }
        let fin = reg.snapshot();
        assert_eq!(sink.slices().len(), 2, "bounded at two slices");
        assert_eq!(sink.dropped_boundaries(), 3);
        assert_eq!(sink.slices()[1].end_cycle, 50, "tail extends its range");
        assert_eq!(sink.resum(), fin, "folding preserves the telescoping sum");
    }

    #[test]
    fn jsonl_round_trips() {
        let mut reg = MetricsRegistry::new();
        let mut sink = TimelineSink::new(100);
        reg.set("hart.0.machine.cycles", 120);
        reg.set("smp.ipis_delivered", 2);
        sink.record(120, &reg.snapshot());
        reg.add("hart.0.machine.cycles", 95);
        sink.finish(215, &reg.snapshot());

        let mut bytes = Vec::new();
        sink.write_jsonl(&mut bytes).unwrap();
        let timeline = Timeline::parse(bytes.as_slice()).expect("parses");
        assert_eq!(timeline.interval, 100);
        assert_eq!(timeline.slices, sink.slices());
        assert_eq!(timeline.end_cycle, 215);
        assert_eq!(timeline.dropped_boundaries, 0);
        timeline.verify().expect("well-formed");
        assert_eq!(
            timeline.resum().to_json_versioned(),
            reg.snapshot().to_json_versioned()
        );
    }

    #[test]
    fn verify_catches_a_truncated_stream() {
        let mut reg = MetricsRegistry::new();
        let mut sink = TimelineSink::new(10);
        reg.set("m.cycles", 10);
        sink.record(10, &reg.snapshot());
        reg.add("m.cycles", 10);
        sink.finish(20, &reg.snapshot());
        let mut bytes = Vec::new();
        sink.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        // Drop the middle slice line, keep header and footer.
        let truncated: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| l)
            .collect();
        let timeline = Timeline::parse(truncated.join("\n").as_bytes()).expect("parses");
        assert!(timeline.verify().is_err(), "missing slice must be caught");
    }

    #[test]
    fn missing_footer_is_rejected() {
        let raw = format!(
            "{{\"schema\":{SCHEMA_VERSION},\"stream\":\"{TIMELINE_STREAM}\",\"interval\":5}}\n"
        );
        let err = Timeline::parse(raw.as_bytes()).expect_err("must reject");
        assert!(err.to_string().contains("summary"), "{err}");
    }

    #[test]
    fn foreign_stream_is_rejected() {
        let raw = "{\"schema\":1,\"stream\":\"hpmp-walk-events\"}\n";
        assert!(Timeline::parse(raw.as_bytes()).is_err());
    }
}
