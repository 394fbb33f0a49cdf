//! # netsmith-gen
//!
//! The core contribution of the NetSmith paper: automatic discovery of
//! network-on-interposer topologies that outperform expert-designed
//! networks, given the router layout, the link-length budget and the router
//! radix.
//!
//! Two optimization paths are provided:
//!
//! * [`milp`] — the exact MIP formulation of the paper's Table I (variables
//!   `M`, `O`, `D`, `B`; constraints C1–C9; LatOp and SCOp objectives)
//!   lowered onto the `netsmith-lp` branch-and-bound solver.  The paper
//!   solves this with Gurobi on a 32-thread server; our from-scratch solver
//!   proves optimality only for small layouts, and is used for validating
//!   the formulation and the search engines against ground truth.
//! * [`anneal`] + [`generator`] — the production path: seeded, parallel
//!   simulated annealing / hill climbing over connectivity maps with
//!   incremental objective evaluation (every move delta-updates a cached
//!   [`netsmith_topo::analysis::TopoAnalysis`] instead of re-deriving the
//!   distance matrix), combined with combinatorial lower bounds
//!   ([`bounds`]) so that the solver can report the same "objective bounds
//!   gap over time" trajectory the paper plots in Figure 5 ([`progress`]).
//!
//! Objectives are composable: every [`Objective`] decomposes into weighted
//! [`terms::Term`]s (hops, sparsest cut, energy proxy,
//! articulation links, spare capacity), and [`Objective::Composite`] /
//! [`NetSmith::composite_objective`] accept arbitrary non-negative
//! weightings for multi-criteria synthesis (see the `fig14_pareto`
//! harness).
//!
//! The public entry point is [`NetSmith`], which mirrors the way the paper
//! uses the framework: pick a layout, a link class and an objective, give
//! it a time budget, and receive a validated
//! [`Topology`](netsmith_topo::Topology) plus the solver progress trace.

pub mod anneal;
pub mod bounds;
pub mod generator;
pub mod milp;
pub mod objective;
pub mod problem;
pub mod progress;
pub mod terms;

pub use anneal::{AnnealConfig, AnnealResult};
pub use generator::{DiscoveryResult, NetSmith};
pub use milp::{build_latop_model, build_scop_model, solve_latop_milp, MilpGenConfig};
pub use objective::{Objective, ObjectiveValue};
pub use problem::GenerationProblem;
pub use progress::{ProgressSample, SolverProgress};
pub use terms::{CutEval, Term, TermContext, WeightedTerm};
