//! # netsmith-topo
//!
//! Router layouts, link-length classes, network-on-interposer (NoI)
//! topologies and the analytical metrics used throughout the NetSmith
//! reproduction (average hop count, diameter, bisection bandwidth, sparsest
//! cut, and cut-/occupancy-based throughput bounds).
//!
//! The paper ("NetSmith: An Optimization Framework for Machine-Discovered
//! Network Topologies", ICPP 2024) evaluates machine-discovered topologies
//! against a set of expert-designed interposer networks (Mesh, Folded Torus,
//! the Kite family, Butter Donut, Double Butterfly) and against topologies
//! produced by a prior MILP synthesis flow (LPBT).  This crate provides:
//!
//! * [`Layout`] — the physical placement of interposer routers (e.g. the
//!   4x5 grid used for the 20-router evaluation) together with the node
//!   kinds (core-concentrated routers vs. memory-controller routers).
//! * [`LinkClass`] — the Kite-style link-length taxonomy (small = (1,1),
//!   medium = (2,0), large = (2,1)) that constrains which router pairs may
//!   be connected, and the per-class NoI clock frequencies.
//! * [`Topology`] — a directed multigraph over the routers of a layout,
//!   with radix/length/connectivity validation.
//! * [`metrics`], [`cuts`], [`bounds`] — the analytical evaluation used by
//!   the paper's Figure 1 and Table II.
//! * [`analysis`] — the cached [`TopoAnalysis`] bundle shared by all
//!   synthesis objective terms, with exact delta evaluation for the
//!   annealer's single-link add/remove moves.
//! * [`resilience`] — critical-link detection and masked-connectivity
//!   helpers backing the `netsmith-fault` subsystem and the FaultOp
//!   synthesis objective.
//! * [`expert`] — reconstructions of the expert-designed baselines.
//! * [`traffic`] — traffic patterns (uniform random, shuffle, …) expressed
//!   as demand matrices so objectives can be traffic-weighted.

pub mod analysis;
mod bfs;
pub mod bounds;
pub mod cuts;
pub mod error;
pub mod expert;
pub mod json;
pub mod layout;
pub mod linkclass;
pub mod metrics;
pub mod resilience;
pub mod topology;
pub mod traffic;
pub mod viz;

pub use analysis::TopoAnalysis;
pub use bounds::ThroughputBounds;
pub use cuts::{bisection_bandwidth, sparsest_cut, CutReport};
pub use error::PipelineError;
pub use layout::{Layout, NodeKind, RouterId};
pub use linkclass::{LinkClass, LinkSpan};
pub use metrics::{all_pairs_hops, average_hops, is_strongly_connected, TopologyMetrics};
pub use resilience::{
    critical_link_pairs, duplex_pairs, is_strongly_connected_among, unreachable_pairs_among,
};
pub use topology::{Topology, TopologyError};
pub use traffic::{DemandMatrix, TrafficPattern};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::bounds::ThroughputBounds;
    pub use crate::cuts::CutReport;
    pub use crate::error::PipelineError;
    pub use crate::layout::{Layout, NodeKind, RouterId};
    pub use crate::linkclass::{LinkClass, LinkSpan};
    pub use crate::metrics::TopologyMetrics;
    pub use crate::topology::Topology;
    pub use crate::traffic::{DemandMatrix, TrafficPattern};
}
