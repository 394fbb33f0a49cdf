//! # netsmith-gen
//!
//! The core contribution of the NetSmith paper: automatic discovery of
//! network-on-interposer topologies that outperform expert-designed
//! networks, given the router layout, the link-length budget and the router
//! radix.
//!
//! The paper states topology generation as a MIP (Table I) and solves it
//! with Gurobi.  This crate searches the same feasible set instead:
//!
//! * [`anneal`] + [`generator`] — seeded, parallel simulated annealing /
//!   hill climbing over connectivity maps with incremental objective
//!   evaluation (every move delta-updates a cached
//!   [`netsmith_topo::analysis::TopoAnalysis`] instead of re-deriving the
//!   distance matrix), combined with combinatorial lower bounds
//!   ([`bounds`]) so that the solver can report the same "objective bounds
//!   gap over time" trajectory the paper plots in Figure 5 ([`progress`]).
//! * Table I checked as a specification — the unit tests keep the MIP's
//!   variables and constraints C1–C9 as a model that is evaluated, never
//!   solved: plugging known topologies into it checks the objectives, and
//!   an exhaustive search proves the optimum on layouts of at most nine
//!   routers, against which the annealer's results are pinned.
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
pub mod objective;
pub mod problem;
pub mod progress;
pub mod terms;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod table1;

pub use anneal::{AnnealConfig, AnnealResult};
pub use generator::{DiscoveryResult, NetSmith};
pub use objective::{Objective, ObjectiveValue};
pub use problem::GenerationProblem;
pub use progress::{ProgressSample, SolverProgress};
pub use terms::{CutEval, Term, TermContext, WeightedTerm};
