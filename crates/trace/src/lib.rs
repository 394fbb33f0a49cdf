//! # netsmith-trace
//!
//! Message traces for the NetSmith simulator: a compact on-disk format,
//! deterministic replay scheduling, and seeded application-model
//! generators.
//!
//! Bernoulli injection — the simulator's default — offers every source the
//! same memoryless coin, which is exactly the traffic real applications do
//! *not* produce: GC phases chase pointers into a small heap working set,
//! coherence storms arrive in ON/OFF bursts, and memory traffic piles onto
//! a handful of controllers.  This crate closes that gap in three layers:
//!
//! * [`mod@format`] — [`Trace`] / [`TraceMessage`] with a versioned binary
//!   codec (magic `NSTR`), a JSON codec over the shared
//!   [`netsmith_topo::json::Json`] tree, streaming [`TraceWriter`] /
//!   [`TraceReader`], and [`Trace::validate`] (in-range endpoints,
//!   non-decreasing issue cycles).
//! * [`replay`] — [`TraceCursor`], the sorted pending-arrival schedule
//!   the reference simulation engine drains, and [`SourceCursors`], the
//!   same schedule split by source, which the compiled engine reads one
//!   message per source at a time.  Load scaling works by *cycle
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
//! use netsmith_trace::{generate_named, TraceCursor, TraceStats};
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
//! let mut cursor = TraceCursor::new(&trace, load);
//! let first = cursor.pop_due(u64::MAX).unwrap();
//! assert_eq!(first.src, trace.messages[0].src);
//! ```
//!
//! [`DemandMatrix`]: netsmith_topo::DemandMatrix

pub mod format;
pub mod generators;
pub mod replay;
pub mod stats;

pub use format::{
    Trace, TraceError, TraceHeader, TraceMessage, TraceReader, TraceWriter, TRACE_VERSION,
};
pub use generators::{
    generate_named, OnOffHotspotParams, PointerChaseParams, TraceModel, DATA_FLITS, REQUEST_FLITS,
};
pub use replay::{SourceCursors, TraceCursor};
pub use stats::TraceStats;
