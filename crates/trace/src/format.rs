//! The trace file format: a versioned header plus a flat list of
//! messages, encoded as JSON through the workspace's one codec, the
//! shared [`Json`] tree:
//!
//! ```text
//! {"version": 1, "routers": R, "horizon": H,
//!  "messages": [[src, dst, flits, issue], ...]}
//! ```
//!
//! Every field is an unsigned integer.  JSON numbers are exact up to
//! 2^53, far beyond any cycle horizon a trace stores; the decoder rejects
//! a larger value (or a `u32` field above `u32::MAX`) with an error naming
//! the field instead of rounding or wrapping it.

use netsmith_topo::json::{Json, JsonError};
use std::fmt;

/// Format version written by this crate.
pub const TRACE_VERSION: u16 = 1;

/// Why a trace could not be decoded or fails validation.
#[derive(Debug)]
pub enum TraceError {
    /// A malformed or inconsistent trace (out-of-range field or
    /// endpoint, non-monotone issue cycles, ...).
    Format(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Format(msg) => write!(f, "trace format error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<JsonError> for TraceError {
    fn from(e: JsonError) -> Self {
        format_err(e)
    }
}

fn format_err(msg: impl fmt::Display) -> TraceError {
    TraceError::Format(msg.to_string())
}

/// `json` as an unsigned integer of type `T`, or a format error naming
/// `what`.
fn uint<T: TryFrom<u64>>(json: &Json, what: &str) -> Result<T, TraceError> {
    let value = json
        .as_u64()
        .map_err(|e| format_err(format!("{what}: {e}")))?;
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
    /// cycles are non-decreasing along the message list.  Replay reads
    /// each source's messages in list order, which needs them
    /// non-decreasing within the source; the list keeps one global order.
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

    /// Render as a JSON string.
    pub fn to_json_string(&self) -> String {
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
        .to_string()
    }

    /// Parse from a JSON string.
    pub fn from_json_str(text: &str) -> Result<Self, TraceError> {
        let json = Json::parse(text)?;
        let version = uint(json.require("version")?, "version")?;
        let routers = uint(json.require("routers")?, "routers")?;
        let horizon = uint(json.require("horizon")?, "horizon")?;
        let mut messages = Vec::new();
        for (i, item) in json.require("messages")?.as_arr()?.iter().enumerate() {
            let quad = item.as_arr()?;
            if quad.len() != 4 {
                return Err(format_err(format!(
                    "message {i}: expected [src, dst, flits, issue]"
                )));
            }
            let what = |name: &str| format!("message {i}: {name}");
            messages.push(TraceMessage {
                src: uint(&quad[0], &what("src"))?,
                dst: uint(&quad[1], &what("dst"))?,
                flits: uint(&quad[2], &what("flits"))?,
                issue: uint(&quad[3], &what("issue"))?,
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
        // Past 2^53 a JSON number is no longer exact: the u64 fields name
        // themselves instead of being rounded.
        let above = "18014398509481984"; // 2^54
        let text = wrapping("1", "20", "[1, 2, 4, 5]").replace("100", above);
        assert!(err(text).contains("horizon: expected unsigned integer"));
        let messages = format!("[1, 2, 4, 5], [1, 2, 4, 5], [2, 1, 4, 6], [1, 2, 4, {above}]");
        assert!(err(wrapping("1", "20", &messages)).contains("message 3: issue: expected"));
        Trace::from_json_str(&wrapping("1", "20", "[1, 2, 4, 5]"))
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn offered_load_is_total_flits_over_node_cycles() {
        let trace = sample();
        // 20 flits over 4 routers x 100 cycles.
        assert!((trace.offered_flits_per_node_cycle() - 0.05).abs() < 1e-12);
    }
}
