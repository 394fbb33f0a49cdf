//! The on-disk trace format: a versioned header plus a flat list of
//! messages, with hand-written binary and JSON codecs.
//!
//! ## Binary layout (version 1, little-endian)
//!
//! ```text
//! magic    4 bytes   b"NSTR"
//! version  u16       1
//! reserved u16       0
//! routers  u32       router count the endpoints are defined over
//! horizon  u64       cycle horizon; every issue cycle is < horizon
//! messages u64       message record count
//! ---- then `messages` records of 20 bytes each ----
//! src      u32
//! dst      u32
//! flits    u32       packet size in flits (>= 1)
//! issue    u64       issue cycle (non-decreasing across records)
//! ```
//!
//! The JSON codec carries the same fields
//! (`{"version", "routers", "horizon", "messages": [[src, dst, flits,
//! issue], ...]}`) through the shared [`Json`] tree; `u64` values round-trip
//! exactly up to 2^53, far beyond any cycle horizon a trace stores.

use netsmith_topo::json::Json;
use std::fmt;
use std::io::{Read, Write};

/// Format version written by this crate.
pub const TRACE_VERSION: u16 = 1;

const MAGIC: [u8; 4] = *b"NSTR";
const HEADER_BYTES: usize = 4 + 2 + 2 + 4 + 8 + 8;
const RECORD_BYTES: usize = 4 + 4 + 4 + 8;

/// Why a trace could not be decoded or fails validation.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A malformed or inconsistent trace (bad magic, out-of-range
    /// endpoint, non-monotone issue cycles, ...).
    Format(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Format(msg) => write!(f, "trace format error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

fn format_err(msg: impl Into<String>) -> TraceError {
    TraceError::Format(msg.into())
}

/// `value` as a narrower integer, or a format error naming `what`.
fn narrow<T: TryFrom<u64>>(value: u64, what: &str) -> Result<T, TraceError> {
    T::try_from(value).map_err(|_| format_err(format!("{what} {value} is out of range")))
}

/// The versioned trace header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version ([`TRACE_VERSION`]).
    pub version: u16,
    /// Router count the message endpoints are defined over.
    pub routers: u32,
    /// Cycle horizon: every message issues strictly before this cycle, and
    /// replay wraps around at it.
    pub horizon: u64,
    /// Number of message records.
    pub messages: u64,
}

/// One injected message: source and destination router, packet size in
/// flits, and the cycle it enters its source queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMessage {
    pub src: u32,
    pub dst: u32,
    pub flits: u32,
    pub issue: u64,
}

/// A complete in-memory trace: header plus messages in issue order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub header: TraceHeader,
    pub messages: Vec<TraceMessage>,
}

impl Trace {
    /// Assemble a trace from its parts, deriving the header counts.
    pub fn new(routers: u32, horizon: u64, messages: Vec<TraceMessage>) -> Self {
        Trace {
            header: TraceHeader {
                version: TRACE_VERSION,
                routers,
                horizon,
                messages: messages.len() as u64,
            },
            messages,
        }
    }

    /// Total payload across all messages, in flits.
    pub fn total_flits(&self) -> u64 {
        self.messages.iter().map(|m| m.flits as u64).sum()
    }

    /// The load the trace natively offers, in flits per node per cycle
    /// (what replay at this rate reproduces with a cycle-stretch of 1).
    pub fn offered_flits_per_node_cycle(&self) -> f64 {
        if self.header.routers == 0 || self.header.horizon == 0 {
            return 0.0;
        }
        self.total_flits() as f64 / (self.header.routers as f64 * self.header.horizon as f64)
    }

    /// Check the structural invariants replay relies on: the header counts
    /// match, every endpoint is in range and distinct, every packet has at
    /// least one flit, every issue cycle is inside the horizon, and issue
    /// cycles are non-decreasing (replay uses a single forward cursor).
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.header.version != TRACE_VERSION {
            return Err(format_err(format!(
                "unsupported version {} (expected {TRACE_VERSION})",
                self.header.version
            )));
        }
        if self.header.messages != self.messages.len() as u64 {
            return Err(format_err(format!(
                "header says {} messages, found {}",
                self.header.messages,
                self.messages.len()
            )));
        }
        let mut last_issue = 0u64;
        for (i, m) in self.messages.iter().enumerate() {
            if m.src >= self.header.routers || m.dst >= self.header.routers {
                return Err(format_err(format!(
                    "message {i}: endpoint {} -> {} out of range (routers = {})",
                    m.src, m.dst, self.header.routers
                )));
            }
            if m.src == m.dst {
                return Err(format_err(format!("message {i}: self-send at {}", m.src)));
            }
            if m.flits == 0 {
                return Err(format_err(format!("message {i}: zero flits")));
            }
            if m.issue >= self.header.horizon {
                return Err(format_err(format!(
                    "message {i}: issue cycle {} outside horizon {}",
                    m.issue, self.header.horizon
                )));
            }
            if m.issue < last_issue {
                return Err(format_err(format!(
                    "message {i}: issue cycle {} before predecessor's {last_issue}",
                    m.issue
                )));
            }
            last_issue = m.issue;
        }
        Ok(())
    }

    /// Encode to the version-1 binary layout.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> Result<(), TraceError> {
        let mut writer = TraceWriter::new(w, self.header)?;
        for m in &self.messages {
            writer.write_message(m)?;
        }
        writer.finish()
    }

    /// Decode from the version-1 binary layout (streaming under the hood;
    /// the whole message list is collected).
    pub fn read_binary<R: Read>(r: &mut R) -> Result<Self, TraceError> {
        let mut reader = TraceReader::new(r)?;
        let header = reader.header();
        let mut messages = Vec::with_capacity(header.messages.min(1 << 20) as usize);
        while let Some(m) = reader.next_message()? {
            messages.push(m);
        }
        Ok(Trace { header, messages })
    }

    /// Encode as a JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::Num(self.header.version as f64)),
            ("routers".into(), Json::Num(self.header.routers as f64)),
            ("horizon".into(), Json::Num(self.header.horizon as f64)),
            (
                "messages".into(),
                Json::Arr(
                    self.messages
                        .iter()
                        .map(|m| {
                            Json::Arr(vec![
                                Json::Num(m.src as f64),
                                Json::Num(m.dst as f64),
                                Json::Num(m.flits as f64),
                                Json::Num(m.issue as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode from a JSON tree.
    pub fn from_json(json: &Json) -> Result<Self, TraceError> {
        let field = |key: &str| json.require(key).map_err(format_err);
        let version = narrow(field("version")?.as_u64().map_err(format_err)?, "version")?;
        let routers = narrow(field("routers")?.as_u64().map_err(format_err)?, "routers")?;
        let horizon = field("horizon")?.as_u64().map_err(format_err)?;
        let mut messages = Vec::new();
        for (i, item) in field("messages")?
            .as_arr()
            .map_err(format_err)?
            .iter()
            .enumerate()
        {
            let quad = item.as_arr().map_err(format_err)?;
            if quad.len() != 4 {
                return Err(format_err(format!(
                    "message {i}: expected [src, dst, flits, issue]"
                )));
            }
            let num = |j: usize| quad[j].as_u64().map_err(format_err);
            let narrow_num =
                |j: usize, name: &str| narrow(num(j)?, &format!("message {i}: {name}"));
            messages.push(TraceMessage {
                src: narrow_num(0, "src")?,
                dst: narrow_num(1, "dst")?,
                flits: narrow_num(2, "flits")?,
                issue: num(3)?,
            });
        }
        Ok(Trace {
            header: TraceHeader {
                version,
                routers,
                horizon,
                messages: messages.len() as u64,
            },
            messages,
        })
    }

    /// Render as a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse from a JSON string.
    pub fn from_json_str(text: &str) -> Result<Self, TraceError> {
        Trace::from_json(&Json::parse(text).map_err(format_err)?)
    }
}

/// Streaming binary encoder: the header (with its message count) goes out
/// first, then one record per [`TraceWriter::write_message`] call;
/// [`TraceWriter::finish`] fails if the declared count was not met, so a
/// truncated stream can never silently pass for a complete one.
pub struct TraceWriter<'w, W: Write> {
    out: &'w mut W,
    declared: u64,
    written: u64,
}

impl<'w, W: Write> TraceWriter<'w, W> {
    /// Write the header and start the record stream.
    pub fn new(out: &'w mut W, header: TraceHeader) -> Result<Self, TraceError> {
        let mut buf = [0u8; HEADER_BYTES];
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4..6].copy_from_slice(&header.version.to_le_bytes());
        // bytes 6..8 reserved, zero
        buf[8..12].copy_from_slice(&header.routers.to_le_bytes());
        buf[12..20].copy_from_slice(&header.horizon.to_le_bytes());
        buf[20..28].copy_from_slice(&header.messages.to_le_bytes());
        out.write_all(&buf)?;
        Ok(TraceWriter {
            out,
            declared: header.messages,
            written: 0,
        })
    }

    /// Append one record.
    pub fn write_message(&mut self, m: &TraceMessage) -> Result<(), TraceError> {
        if self.written == self.declared {
            return Err(format_err(format!(
                "more messages than the declared {}",
                self.declared
            )));
        }
        let mut buf = [0u8; RECORD_BYTES];
        buf[0..4].copy_from_slice(&m.src.to_le_bytes());
        buf[4..8].copy_from_slice(&m.dst.to_le_bytes());
        buf[8..12].copy_from_slice(&m.flits.to_le_bytes());
        buf[12..20].copy_from_slice(&m.issue.to_le_bytes());
        self.out.write_all(&buf)?;
        self.written += 1;
        Ok(())
    }

    /// Close the stream, checking the declared record count was written.
    pub fn finish(self) -> Result<(), TraceError> {
        if self.written != self.declared {
            return Err(format_err(format!(
                "wrote {} of {} declared messages",
                self.written, self.declared
            )));
        }
        Ok(())
    }
}

/// Streaming binary decoder: the header is read eagerly, records on
/// demand, so a long trace never needs to fit in memory twice.
pub struct TraceReader<'r, R: Read> {
    input: &'r mut R,
    header: TraceHeader,
    read: u64,
}

impl<'r, R: Read> TraceReader<'r, R> {
    /// Read and check the header.
    pub fn new(input: &'r mut R) -> Result<Self, TraceError> {
        let mut buf = [0u8; HEADER_BYTES];
        input.read_exact(&mut buf)?;
        if buf[0..4] != MAGIC {
            return Err(format_err("bad magic (not an NSTR trace)"));
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != TRACE_VERSION {
            return Err(format_err(format!(
                "unsupported version {version} (expected {TRACE_VERSION})"
            )));
        }
        let header = TraceHeader {
            version,
            routers: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            horizon: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
            messages: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
        };
        Ok(TraceReader {
            input,
            header,
            read: 0,
        })
    }

    /// The decoded header.
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    /// The next record, or `None` after the declared count.
    pub fn next_message(&mut self) -> Result<Option<TraceMessage>, TraceError> {
        if self.read == self.header.messages {
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_BYTES];
        self.input.read_exact(&mut buf).map_err(|e| {
            format_err(format!(
                "truncated record {} of {}: {e}",
                self.read, self.header.messages
            ))
        })?;
        self.read += 1;
        Ok(Some(TraceMessage {
            src: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            dst: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            flits: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            issue: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            4,
            100,
            vec![
                TraceMessage {
                    src: 0,
                    dst: 1,
                    flits: 9,
                    issue: 0,
                },
                TraceMessage {
                    src: 2,
                    dst: 3,
                    flits: 1,
                    issue: 5,
                },
                TraceMessage {
                    src: 1,
                    dst: 0,
                    flits: 9,
                    issue: 5,
                },
                TraceMessage {
                    src: 3,
                    dst: 0,
                    flits: 1,
                    issue: 99,
                },
            ],
        )
    }

    #[test]
    fn binary_round_trips() {
        let trace = sample();
        let mut buf = Vec::new();
        trace.write_binary(&mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + 4 * RECORD_BYTES);
        let back = Trace::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn json_round_trips() {
        let trace = sample();
        let text = trace.to_json_string();
        let back = Trace::from_json_str(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn validate_accepts_the_sample_and_names_each_violation() {
        sample().validate().unwrap();
        let mut bad = sample();
        bad.messages[0].issue = 7; // later than its successor's issue cycle 5
        assert!(matches!(bad.validate(), Err(TraceError::Format(_))));

        let mut bad = sample();
        bad.messages[2].dst = 9;
        assert!(bad.validate().unwrap_err().to_string().contains("range"));

        let mut bad = sample();
        bad.messages[3].issue = 100;
        assert!(bad.validate().unwrap_err().to_string().contains("horizon"));

        let mut bad = sample();
        bad.messages[0].flits = 0;
        assert!(bad.validate().unwrap_err().to_string().contains("flits"));

        let mut bad = sample();
        bad.header.messages = 7;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn json_integers_out_of_range_are_rejected_not_wrapped() {
        // Narrowed with `as`, each field wraps into a different valid
        // trace: version 1, 20 routers and one 4-flit message 1 -> 2.
        let wrapping = |version: &str, routers: &str, message: &str| {
            format!(
                r#"{{"version": {version}, "routers": {routers}, "horizon": 100, "messages": [{message}]}}"#
            )
        };
        let err = |text: String| Trace::from_json_str(&text).unwrap_err().to_string();
        let message = "[4294967297, 2, 4294967300, 5]";
        assert!(err(wrapping("65537", "4294967316", message)).contains("version 65537"));
        assert!(err(wrapping("1", "4294967316", message)).contains("routers 4294967316"));
        assert!(err(wrapping("1", "20", message)).contains("message 0: src 4294967297"));
        let message = "[1, 4294967298, 4, 5]";
        assert!(err(wrapping("1", "20", message)).contains("message 0: dst"));
        let message = "[1, 2, 4294967300, 5]";
        assert!(err(wrapping("1", "20", message)).contains("message 0: flits"));
        Trace::from_json_str(&wrapping("1", "20", "[1, 2, 4, 5]"))
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn corrupt_magic_and_truncation_are_rejected() {
        let trace = sample();
        let mut buf = Vec::new();
        trace.write_binary(&mut buf).unwrap();
        let mut corrupted = buf.clone();
        corrupted[0] = b'X';
        assert!(Trace::read_binary(&mut corrupted.as_slice()).is_err());
        let truncated = &buf[..buf.len() - 3];
        let mut r = truncated;
        assert!(Trace::read_binary(&mut r).is_err());
    }

    #[test]
    fn writer_enforces_the_declared_count() {
        let trace = sample();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, trace.header).unwrap();
        w.write_message(&trace.messages[0]).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn offered_load_is_total_flits_over_node_cycles() {
        let trace = sample();
        // 20 flits over 4 routers x 100 cycles.
        assert!((trace.offered_flits_per_node_cycle() - 0.05).abs() < 1e-12);
    }
}
