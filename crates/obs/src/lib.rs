//! # netsmith-obs
//!
//! The unified instrumentation layer of the NetSmith workspace: spans,
//! monotonic counters, gauges and embedded time-series, recorded through
//! a pluggable [`Recorder`] and threaded through every pipeline layer as
//! a cheap [`Obs`] handle.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled is (almost) free.**  The pipeline passes an [`Obs`]
//!    everywhere unconditionally; the no-op form holds no recorder, so
//!    every operation is one `Option` branch and hot loops pay nothing
//!    they can measure.  Hot counters are pre-resolved to [`Counter`]
//!    handles (a bare `Option<Arc<AtomicU64>>`) outside the loop.
//! 2. **Zero dependencies.**  This crate sits beneath the simulator and
//!    annealer, builds before the vendored shims, and writes its JSON
//!    lines with its own tiny printer (same dialect as the
//!    `netsmith-topo` codec, which the tests use to parse them back).
//! 3. **Aggregates are always available.**  Every recorder keeps running
//!    totals — counters, per-name span durations, last gauges, series
//!    counts — exposed as a [`MetricsSnapshot`] for tests and for the
//!    experiment runner's per-run manifest.
//!
//! Two recorders ship: [`MemoryRecorder`] (keeps every [`Event`];
//! tests assert on it) and [`JsonlRecorder`] (streams one JSON object
//! per line to a file or writer; `--obs run.jsonl` on the experiment CLI
//! installs one).
//!
//! ```
//! use netsmith_obs::{MemoryRecorder, Obs};
//!
//! let recorder = MemoryRecorder::new();
//! let obs = Obs::to(recorder.clone());
//!
//! let moves = obs.counter("moves.accepted"); // resolve outside the loop
//! {
//!     let mut span = obs.span("anneal.sa");
//!     for _ in 0..10 {
//!         moves.incr();
//!     }
//!     span.attr("evaluations", 10u64);
//! } // span closes (and is timed) here
//!
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter("moves.accepted"), 10);
//! assert_eq!(snapshot.span_count("anneal.sa"), 1);
//!
//! // The disabled handle accepts the same calls and does nothing.
//! let off = Obs::noop();
//! off.counter("moves.accepted").incr();
//! assert!(off.snapshot().is_none());
//! ```

mod event;
mod handle;
mod recorder;

pub use event::{Attr, AttrValue, Event, EventKind};
pub use handle::{Counter, Obs, Span};
pub use recorder::{JsonlRecorder, MemoryRecorder, MetricsSnapshot, Recorder, SpanStats};
