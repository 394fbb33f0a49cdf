//! # netsmith-trace
//!
//! Message traces for the NetSmith simulator: a JSON trace file format,
//! deterministic replay scheduling, and seeded application-model
//! generators.
//!
//! Bernoulli injection — the simulator's default — offers every source the
//! same memoryless coin, which is exactly the traffic real applications do
//! *not* produce: GC phases chase pointers into a small heap working set,
//! coherence storms arrive in ON/OFF bursts, and memory traffic piles onto
//! a handful of controllers.  This crate closes that gap in three layers:
//!
//! * [`mod@format`] — [`Trace`] / [`TraceMessage`], the JSON trace file
//!   format over the shared [`netsmith_topo::json::Json`] tree, and
//!   [`Trace::validate`] (in-range endpoints, non-decreasing issue
//!   cycles).
//! * [`replay`] — [`SourceCursors`], the replay schedule both simulation
//!   engines read one source at a time.  Load scaling works by *cycle
//!   stretch*: replaying at half the native load doubles every gap,
//!   preserving burst structure.  Replay consumes no RNG, so the
//!   reference and compiled engines stay bit-identical under replay.
//! * [`generators`] + [`stats`] — [`TraceModel::PointerChase`] and
//!   [`TraceModel::OnOffHotspot`] produce seeded reproducible traces, and
//!   [`TraceStats`] summarises any trace (flit-weighted [`DemandMatrix`],
//!   burstiness, destination skew) so the synthesis objectives can target
//!   a trace the same way they target a synthetic pattern.
//!
//! ```
//! use netsmith_trace::{generate_named, SourceCursors, TraceStats};
//!
//! let trace = generate_named("onoff-hotspot", 20, 2048, 7).unwrap();
//! trace.validate().unwrap();
//!
//! // Summarise: the hotspot model concentrates demand on few sinks.
//! let stats = TraceStats::of(&trace);
//! assert!(stats.top_decile_destination_share > 0.3);
//!
//! // Replay at a quarter of the native offered load: same messages,
//! // stretched 4x in time.
//! let load = stats.offered_flits_per_node_cycle / 4.0;
//! let mut cursors = SourceCursors::new(&trace, load);
//! let first = trace.messages[0];
//! let (due, m) = cursors.pop(first.src as usize).unwrap();
//! assert_eq!((due, *m), (first.issue * 4, first));
//! ```
//!
//! [`DemandMatrix`]: netsmith_topo::DemandMatrix

pub mod format;
pub mod generators;
pub mod replay;
pub mod stats;

pub use format::{Trace, TraceError, TraceHeader, TraceMessage, TRACE_VERSION};
pub use generators::{generate_named, TraceModel, DATA_FLITS, REQUEST_FLITS};
pub use replay::SourceCursors;
pub use stats::TraceStats;
