//! # NetSmith
//!
//! A from-scratch reproduction of *"NetSmith: An Optimization Framework for
//! Machine-Discovered Network Topologies"* (Green & Thottethodi, ICPP 2024).
//!
//! NetSmith automatically discovers network-on-interposer (NoI) topologies
//! for general-purpose, shared-memory multicores that outperform
//! expert-designed networks (Kite, Butter Donut, Double Butterfly, Folded
//! Torus) on both latency (average hop count) and throughput (sparsest-cut
//! bandwidth), while staying within the same cost envelope (router count,
//! radix, link-length budget).
//!
//! This crate is the facade over the workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`topo`] | layouts, link classes, expert baselines, analytical metrics |
//! | [`gen`] | the NetSmith generator: annealing search, Table I objectives and bounds |
//! | [`route`] | shortest paths, NDBT, MCLB routing, deadlock-free VC allocation |
//! | [`sim`] | cycle-driven NoI simulator (gem5/HeteroGarnet substitute) |
//! | [`trace`] | compact message traces: format, deterministic replay, workload generators |
//! | [`obs`] | instrumentation: spans, counters, JSONL event sink, run manifests |
//! | [`system`] | PARSEC-style full-system speedup model |
//! | [`power`] | DSENT-style area/power model |
//! | [`energy`] | measured-activity energy policies (link sleep, DVFS) |
//! | [`fault`] | resilience: fault injection, deadlock-free repair, robustness reports |
//! | [`serve`] | lifetime serving: time-varying load, online policy, fault tape, SLA metrics |
//!
//! The [`pipeline`] module strings these together the way the paper's
//! evaluation does: discover (or pick) a topology → route it with MCLB (or
//! NDBT) → allocate escape VCs → simulate synthetic or full-system traffic
//! → report metrics, curves, speedups and power.
//!
//! ## Quick start
//!
//! ```
//! use netsmith::prelude::*;
//!
//! // Discover a latency-optimized topology for the paper's 4x5 interposer
//! // under the "medium" link-length budget (tiny search budget shown here).
//! let result = NetSmith::new(Layout::noi_4x5(), LinkClass::Medium)
//!     .objective(Objective::LatOp)
//!     .evaluations(2_000)
//!     .workers(1)
//!     .seed(1)
//!     .discover();
//!
//! // Route it with MCLB and allocate deadlock-free escape VCs.
//! let network = EvaluatedNetwork::prepare(&result.topology, RoutingScheme::Mclb, 6, 1)
//!     .expect("routable");
//! assert!(network.metrics.average_hops < 3.0);
//! ```

pub use netsmith_energy as energy;
pub use netsmith_fault as fault;
pub use netsmith_gen as gen;
pub use netsmith_obs as obs;
pub use netsmith_power as power;
pub use netsmith_route as route;
pub use netsmith_serve as serve;
pub use netsmith_sim as sim;
pub use netsmith_system as system;
pub use netsmith_topo as topo;
pub use netsmith_trace as trace;

pub mod pipeline;

pub use netsmith_topo::PipelineError;
pub use pipeline::{EvaluatedNetwork, RoutingScheme};

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use crate::pipeline::{EvaluatedNetwork, RoutingScheme};
    pub use netsmith_energy::{
        AlwaysOn, Dvfs, EnergyConfig, EnergyPolicy, EnergyReport, LinkSleep,
    };
    pub use netsmith_fault::{
        assess_resilience, single_link_scenarios, single_router_scenarios, Fault, FaultModel,
        FaultScenario, RepairConfig, RepairPolicy, RerouteRepair, ResilienceConfig,
        ResilienceReport,
    };
    pub use netsmith_gen::{DiscoveryResult, NetSmith, Objective, Term, WeightedTerm};
    pub use netsmith_obs::{JsonlRecorder, MemoryRecorder, MetricsSnapshot, Obs};
    pub use netsmith_power::{area_report, power_report_from_activity, PowerConfig};
    pub use netsmith_route::{allocate_vcs, mclb_route, ndbt_route, MclbConfig, RoutingTable};
    pub use netsmith_serve::{
        serve, LoadSpec, PolicyKind, ServingConfig, ServingInputs, ServingReport, TapeSpec,
    };
    pub use netsmith_sim::{LatencyCurve, SimConfig, Sweep, SweepOptions};
    pub use netsmith_system::{evaluate_topology, parsec_suite, FullSystemConfig};
    pub use netsmith_topo::prelude::*;
    pub use netsmith_topo::Layout;
    pub use netsmith_topo::PipelineError;
    pub use netsmith_topo::{expert, LinkClass};
    pub use netsmith_trace::{Trace, TraceStats};
}
