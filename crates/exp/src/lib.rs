//! # netsmith-exp
//!
//! The declarative experiment API over the NetSmith pipeline.
//!
//! The paper's contribution is an *evaluation matrix* — candidates ×
//! routing schemes × traffic patterns × loads — and every figure of the
//! reproduction is one slice of it.  This crate turns that matrix into
//! data:
//!
//! * [`ExperimentSpec`] declares candidates (expert topologies by name, or
//!   synthesis objectives), workloads (a pattern or a replayed trace ×
//!   loads × [`SimProfile`]) and declarative [`Assertion`]s;
//!   [`ExperimentSpec::check`] rejects a matrix that cannot run before any
//!   candidate is discovered.
//! * [`Runner`] resolves candidates through a shared [`SuiteCache`] — each
//!   synthesis spec is discovered at most once per suite run, keyed by its
//!   objective decomposition, layout, class, seed and budget — prepares
//!   each candidate once (typed [`PipelineError`]s on failure), executes
//!   cells in parallel, and collects structured [`Row`]s.
//! * [`cli`] is the `suite [FIGURE...]` entry point: uniform `--quick` /
//!   `--json` / `--seed` handling for every figure, with `NETSMITH_EVALS` /
//!   `NETSMITH_WORKERS` as environment fallbacks via [`RunProfile`].
//!
//! ## Example: a 2-candidate × 3-workload experiment
//!
//! ```
//! use netsmith_exp::prelude::*;
//! use netsmith_topo::metrics::weighted_average_hops;
//! use netsmith_topo::traffic::TrafficPattern;
//! use netsmith_trace::TraceStats;
//!
//! // Declare the matrix: one expert baseline and one synthesized
//! // candidate, each scored under two traffic patterns and one
//! // generated trace replayed deterministically.  Every pattern or
//! // trace workload declares at least one offered load; this analytic
//! // measurement ignores it.
//! let mut spec = ExperimentSpec::new("doc_example");
//! spec.classes = vec![LinkClass::Medium];
//! spec.candidates = vec![
//!     CandidateSpec::expert("folded-torus"),
//!     CandidateSpec::synth(ObjectiveSpec::LatOp),
//! ];
//! spec.workloads = vec![
//!     WorkloadSpec::new(TrafficPattern::UniformRandom, vec![0.1], SimProfile::Quick),
//!     WorkloadSpec::new(TrafficPattern::Shuffle, vec![0.1], SimProfile::Quick),
//!     WorkloadSpec::trace(
//!         TraceSpec::generator("onoff-hotspot", 512, 7),
//!         vec![0.1],
//!         SimProfile::Quick,
//!     ),
//! ];
//! spec.assertions = vec![
//!     Assertion::MinRows { count: 6 },
//!     Assertion::ColumnPositive { column: "weighted_hops".into() },
//! ];
//!
//! // Attach the measurement (the code half of a figure) and run.  Both
//! // workload sources yield a demand matrix: patterns analytically,
//! // traces through their replay statistics.
//! let figure = Figure::new(
//!     spec,
//!     "topology,workload,weighted_hops",
//!     |cell: &Cell<'_>| {
//!         let network = cell.candidate.network();
//!         let workload = cell.workload.as_ref().unwrap();
//!         let demand = match &workload.source {
//!             WorkloadSource::Pattern(pattern) => {
//!                 pattern.demand_matrix(&cell.candidate.layout)
//!             }
//!             WorkloadSource::Trace(trace) => {
//!                 let trace = trace
//!                     .resolve(cell.candidate.layout.num_routers())
//!                     .unwrap();
//!                 TraceStats::of(&trace).demand_matrix().clone()
//!             }
//!             // Serving workloads drive their own lifetime loop; see
//!             // `WorkloadSpec::serving` and the fig16 harness.
//!             WorkloadSource::Serving(_) => unreachable!(),
//!         };
//!         vec![Row::new()
//!             .str(network.topology.name())
//!             .str(workload.name())
//!             .float(weighted_average_hops(&network.topology, &demand), 3)]
//!     },
//! );
//! let cache = SuiteCache::new();
//! let profile = RunProfile { evals: 400, workers: 1, ..RunProfile::default() };
//! let runner = Runner::new(profile, &cache);
//! let output = runner.run(&figure).unwrap();
//! runner.verify(&figure, &output).unwrap();
//! assert_eq!(output.rows.len(), 6);
//! assert_eq!(cache.discoveries(), 1); // NS-LatOp discovered once, reused
//! assert!(output.float(0, "weighted_hops").unwrap() > 1.0);
//! ```
//!
//! [`PipelineError`]: netsmith_topo::PipelineError

pub mod cache;
pub mod cli;
pub mod row;
pub mod runner;
pub mod spec;

pub use cache::{DiscoveryRequest, SuiteCache};
pub use cli::{CliOptions, RunProfile, DEFAULT_SEED};
pub use row::{OutputMode, Row, Value};
pub use runner::{Cell, CellOrder, Figure, ResolvedCandidate, RunOutput, Runner, VC_BUDGET};
pub use spec::{
    expert_by_name, Assertion, CandidateSpec, ExperimentSpec, LayoutSpec, ObjectiveSpec,
    ServingSpec, SimProfile, TraceSpec, WorkloadSource, WorkloadSpec,
};

/// Commonly used items for figure definitions.
pub mod prelude {
    pub use crate::cache::SuiteCache;
    pub use crate::cli::{RunProfile, DEFAULT_SEED};
    pub use crate::row::{OutputMode, Row, Value};
    pub use crate::runner::{Cell, CellOrder, Figure, RunOutput, Runner, VC_BUDGET};
    pub use crate::spec::{
        Assertion, CandidateSpec, ExperimentSpec, LayoutSpec, ObjectiveSpec, ServingSpec,
        SimProfile, TraceSpec, WorkloadSource, WorkloadSpec,
    };
    pub use netsmith_topo::{LinkClass, PipelineError};
}
