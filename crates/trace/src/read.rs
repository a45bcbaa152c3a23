//! The read side of the JSONL trace format.
//!
//! [`JsonlSink`](crate::JsonlSink) opens every stream with a header line
//!
//! ```text
//! {"schema":1,"stream":"hpmp-walk-events"}
//! ```
//!
//! followed by one [`WalkEvent`] object per line. [`TraceReader`] enforces
//! the header — a missing header or an unknown `schema` value is a hard
//! error with a message saying exactly what was found — and then yields
//! parsed events. Analysis tools (`hpmp-analyze`) are therefore never in
//! the position of silently misreading a trace produced by a different
//! version of the writers.

use crate::event::{
    AccessOp, FaultCause, PmptwOutcome, PrivLevel, StepKind, TlbOutcome, WalkEvent, WalkStep, World,
};
use crate::json::{parse_json, JsonValue};
use crate::SCHEMA_VERSION;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// The `stream` tag the walk-event header carries.
pub const WALK_EVENT_STREAM: &str = "hpmp-walk-events";

/// A failure while reading a trace.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line (1-based) could not be parsed as what the format requires.
    Parse {
        /// 1-based line number within the stream.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The stream header is missing or declares a schema this reader does
    /// not understand.
    Schema {
        /// What the header said (or why it is unusable).
        message: String,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "I/O error: {e}"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
            ReadError::Schema { message } => write!(f, "schema error: {message}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// Check a parsed header object against the expected stream tag and this
/// crate's [`SCHEMA_VERSION`].
///
/// Shared by the trace reader and the snapshot / bench-report parsers so
/// every versioned artifact rejects unknown versions with the same shape of
/// error message.
pub fn check_schema(value: &JsonValue, what: &str) -> Result<(), ReadError> {
    match value.get("schema") {
        None => Err(ReadError::Schema {
            message: format!(
                "{what} has no \"schema\" field; this looks like output from a \
                 pre-versioned writer (or not a {what} at all) — regenerate it \
                 with the current tools"
            ),
        }),
        Some(v) => match v.as_u64() {
            Some(version) if version == u64::from(SCHEMA_VERSION) => Ok(()),
            Some(version) => Err(ReadError::Schema {
                message: format!(
                    "{what} declares schema version {version}, but this reader \
                     only understands version {SCHEMA_VERSION}"
                ),
            }),
            None => Err(ReadError::Schema {
                message: format!("{what} has a non-integer \"schema\" field"),
            }),
        },
    }
}

/// A streaming reader over a JSONL walk-event trace.
///
/// Construction validates the header line; iteration yields events in
/// stream order.
pub struct TraceReader<R: BufRead> {
    input: R,
    line_no: usize,
    buf: String,
}

impl TraceReader<BufReader<File>> {
    /// Open `path` and validate its header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<TraceReader<BufReader<File>>, ReadError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wrap a reader and validate the header line.
    pub fn new(mut input: R) -> Result<TraceReader<R>, ReadError> {
        let mut header = String::new();
        if input.read_line(&mut header)? == 0 {
            return Err(ReadError::Schema {
                message: "trace is empty: expected a header line like \
                          {\"schema\":1,\"stream\":\"hpmp-walk-events\"}"
                    .to_string(),
            });
        }
        let value = parse_json(header.trim_end()).map_err(|e| ReadError::Schema {
            message: format!("header line is not valid JSON ({e})"),
        })?;
        check_schema(&value, "trace header")?;
        match value.get("stream").and_then(JsonValue::as_str) {
            Some(WALK_EVENT_STREAM) => {}
            Some(other) => {
                return Err(ReadError::Schema {
                    message: format!("stream is \"{other}\", expected \"{WALK_EVENT_STREAM}\""),
                })
            }
            None => {
                return Err(ReadError::Schema {
                    message: "header has no \"stream\" field".to_string(),
                })
            }
        }
        Ok(TraceReader {
            input,
            line_no: 1,
            buf: String::new(),
        })
    }

    /// The next event, `Ok(None)` at end of stream.
    pub fn next_event(&mut self) -> Result<Option<WalkEvent>, ReadError> {
        loop {
            self.buf.clear();
            if self.input.read_line(&mut self.buf)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let line = self.buf.trim();
            if line.is_empty() {
                continue;
            }
            let value = parse_json(line).map_err(|e| ReadError::Parse {
                line: self.line_no,
                message: format!("not valid JSON ({e})"),
            })?;
            let event = parse_event(&value).map_err(|message| ReadError::Parse {
                line: self.line_no,
                message,
            })?;
            return Ok(Some(event));
        }
    }

    /// Read every remaining event into a vector.
    pub fn read_all(&mut self) -> Result<Vec<WalkEvent>, ReadError> {
        let mut events = Vec::new();
        while let Some(event) = self.next_event()? {
            events.push(event);
        }
        Ok(events)
    }
}

/// Read a whole trace file: header check plus every event.
pub fn read_trace_file<P: AsRef<Path>>(path: P) -> Result<Vec<WalkEvent>, ReadError> {
    TraceReader::open(path)?.read_all()
}

fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field \"{key}\""))
}

fn u64_field(value: &JsonValue, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field \"{key}\" is not a u64"))
}

fn addr_field(value: &JsonValue, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64_lenient()
        .ok_or_else(|| format!("field \"{key}\" is not an address"))
}

fn label_field<T>(
    value: &JsonValue,
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let label = field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field \"{key}\" is not a string"))?;
    parse(label).ok_or_else(|| format!("field \"{key}\" has unknown label \"{label}\""))
}

fn parse_step(value: &JsonValue) -> Result<WalkStep, String> {
    Ok(WalkStep {
        kind: label_field(value, "kind", StepKind::from_label)?,
        level: match field(value, "level")? {
            JsonValue::Null => None,
            v => Some(
                v.as_u64()
                    .and_then(|l| u8::try_from(l).ok())
                    .ok_or("step \"level\" is not a small integer")?,
            ),
        },
        addr: addr_field(value, "addr")?,
        cycles: u64_field(value, "cycles")?,
    })
}

/// Parse one event object (the per-line payload of the trace format).
pub fn parse_event(value: &JsonValue) -> Result<WalkEvent, String> {
    let steps = field(value, "steps")?
        .as_array()
        .ok_or("field \"steps\" is not an array")?
        .iter()
        .map(parse_step)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WalkEvent {
        seq: u64_field(value, "seq")?,
        // Absent in traces written before multi-hart support; those are
        // single-hart streams, so hart 0 is exact, not a guess.
        hart: match value.get("hart") {
            None => 0,
            Some(v) => v
                .as_u64()
                .and_then(|h| u16::try_from(h).ok())
                .ok_or("field \"hart\" is not a small integer")?,
        },
        world: label_field(value, "world", World::from_label)?,
        op: label_field(value, "op", AccessOp::from_label)?,
        privilege: label_field(value, "priv", PrivLevel::from_label)?,
        va: addr_field(value, "va")?,
        paddr: match field(value, "paddr")? {
            JsonValue::Null => None,
            v => Some(
                v.as_u64_lenient()
                    .ok_or("field \"paddr\" is not an address")?,
            ),
        },
        tlb: label_field(value, "tlb", TlbOutcome::from_label)?,
        pwc_level: match field(value, "pwc_level")? {
            JsonValue::Null => None,
            v => Some(
                v.as_u64()
                    .and_then(|l| u8::try_from(l).ok())
                    .ok_or("field \"pwc_level\" is not a small integer")?,
            ),
        },
        pmptw: match field(value, "pmptw")? {
            JsonValue::Null => None,
            _ => Some(label_field(value, "pmptw", PmptwOutcome::from_label)?),
        },
        pipeline_cycles: u64_field(value, "pipeline_cycles")?,
        cycles: u64_field(value, "cycles")?,
        fault: match field(value, "fault")? {
            JsonValue::Null => None,
            _ => Some(label_field(value, "fault", FaultCause::from_label)?),
        },
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::JsonlSink;
    use crate::TraceSink;

    fn sample_event(seq: u64) -> WalkEvent {
        WalkEvent {
            seq,
            hart: 2,
            world: World::Enclave,
            op: AccessOp::Write,
            privilege: PrivLevel::User,
            va: 0x10_0000,
            paddr: Some(0x8000_1000),
            tlb: TlbOutcome::Miss,
            pwc_level: Some(1),
            pmptw: Some(PmptwOutcome::RootHit),
            pipeline_cycles: 2,
            cycles: 42,
            fault: None,
            steps: vec![
                WalkStep {
                    kind: StepKind::Pt,
                    level: Some(0),
                    addr: 0x8040_0000,
                    cycles: 14,
                },
                WalkStep {
                    kind: StepKind::PmptLeaf,
                    level: None,
                    addr: 0x9000_0000,
                    cycles: 12,
                },
                WalkStep {
                    kind: StepKind::Data,
                    level: None,
                    addr: 0x8000_1000,
                    cycles: 14,
                },
            ],
        }
    }

    #[test]
    fn round_trips_what_the_sink_writes() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [sample_event(0), sample_event(1)];
        for e in &events {
            sink.record(e);
        }
        let bytes = sink.into_inner();
        let mut reader = TraceReader::new(bytes.as_slice()).expect("valid header");
        let back = reader.read_all().expect("parses");
        assert_eq!(back, events);
    }

    #[test]
    fn faulting_event_round_trips() {
        let mut e = sample_event(3);
        e.paddr = None;
        e.fault = Some(FaultCause::IsolationOnData);
        e.pmptw = None;
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&e);
        let bytes = sink.into_inner();
        let back = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn pre_multihart_event_parses_as_hart_zero() {
        // A line written before the `hart` field existed must still parse.
        let legacy = sample_event(5).to_json().replacen("\"hart\":2,", "", 1);
        let value = crate::json::parse_json(&legacy).expect("valid JSON");
        let event = parse_event(&value).expect("parses without hart");
        assert_eq!(event.hart, 0);
        assert_eq!(event.seq, 5);
    }

    #[test]
    fn missing_header_is_rejected_with_clear_error() {
        let raw = sample_event(0).to_json() + "\n";
        let err = TraceReader::new(raw.as_bytes()).err().expect("must reject");
        let msg = err.to_string();
        assert!(msg.contains("schema"), "unhelpful error: {msg}");
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let raw = "{\"schema\":99,\"stream\":\"hpmp-walk-events\"}\n";
        let err = TraceReader::new(raw.as_bytes()).err().expect("must reject");
        let msg = err.to_string();
        assert!(msg.contains("99"), "{msg}");
        assert!(msg.contains('1'), "{msg}");
    }

    #[test]
    fn wrong_stream_tag_is_rejected() {
        let raw = "{\"schema\":1,\"stream\":\"something-else\"}\n";
        let err = TraceReader::new(raw.as_bytes()).err().expect("must reject");
        assert!(err.to_string().contains("something-else"));
    }

    #[test]
    fn empty_input_is_rejected() {
        let err = TraceReader::new(&b""[..]).err().expect("must reject");
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn garbage_event_line_reports_line_number() {
        let raw = "{\"schema\":1,\"stream\":\"hpmp-walk-events\"}\nnot json\n";
        let mut reader = TraceReader::new(raw.as_bytes()).unwrap();
        let err = reader.next_event().expect_err("must fail");
        assert!(err.to_string().starts_with("line 2"), "{err}");
    }
}
