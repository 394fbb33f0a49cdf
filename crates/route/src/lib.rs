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
//!   minimized.  The paper solves it as a MILP; this crate uses a greedy
//!   construction with local search, checked against an enumeration of
//!   every path choice on a small instance.
//! * `cdg` (crate-private) — the channel dependency graph VC allocation
//!   grows one path at a time, rejecting any path that would close a cycle
//!   (Dally & Seitz acyclicity condition).
//! * [`vc`] — DFSSSP-style partitioning of the selected paths into acyclic
//!   routing subfunctions mapped onto escape virtual channels, plus
//!   path-length-weighted VC load balancing, and [`require_servable`], the
//!   single check that a routing serves every pair deadlock-free within a
//!   VC budget.
//! * [`table`] — the per-flow routing tables consumed by the simulator.

mod cdg;
pub mod mclb;
pub mod ndbt;
pub mod paths;
pub mod table;
pub mod vc;

pub use mclb::{mclb_route, MclbConfig};
pub use ndbt::ndbt_route;
pub use netsmith_topo::PipelineError;
pub use paths::{all_shortest_paths, PathSet};
pub use table::{ChannelLoadReport, Flow, RoutingTable};
pub use vc::{allocate_vcs, require_servable, VcAllocation};
