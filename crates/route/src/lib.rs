//! # netsmith-route
//!
//! Routing for machine-discovered (irregular) NoI topologies:
//!
//! * [`paths`] — Floyd–Warshall/BFS shortest distances and exhaustive
//!   enumeration of all shortest paths per flow (the path set `P[s][d]`
//!   that the MCLB formulation of the paper's Table III takes as input).
//! * [`ndbt`] — the "no double-back turns" heuristic routing used by the
//!   expert-designed topologies (Kite, Butter Donut, Double Butterfly,
//!   Folded Torus).
//! * [`mclb`] — NetSmith's Maximum Channel Load Bottleneck routing: select
//!   one shortest path per flow such that the maximum channel load is
//!   minimized.  An exact MILP lowering onto `netsmith-lp` is provided for
//!   small instances and validation; the production engine is an
//!   equivalent greedy + local-search optimizer.
//! * [`cdg`] — channel dependency graph construction and cycle detection
//!   (Dally & Seitz acyclicity condition).
//! * [`vc`] — DFSSSP-style partitioning of the selected paths into acyclic
//!   routing subfunctions mapped onto escape virtual channels, plus
//!   path-length-weighted VC load balancing, and [`require_servable`], the
//!   single check that a routing serves every pair deadlock-free within a
//!   VC budget.
//! * [`table`] — the per-flow routing tables consumed by the simulator.

pub mod cdg;
pub mod mclb;
pub mod ndbt;
pub mod paths;
pub mod table;
pub mod vc;

pub use cdg::ChannelDependencyGraph;
pub use mclb::{mclb_route, mclb_route_milp, MclbConfig};
pub use ndbt::ndbt_route;
pub use netsmith_topo::PipelineError;
pub use paths::{all_shortest_paths, PathSet};
pub use table::{ChannelLoadReport, Flow, RoutingTable};
pub use vc::{allocate_vcs, require_servable, VcAllocation};
