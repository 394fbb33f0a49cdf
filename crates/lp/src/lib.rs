//! # netsmith-lp
//!
//! A self-contained linear-programming and mixed-integer-programming solver.
//!
//! The NetSmith paper formulates topology generation (Table I) and routing
//! (Table III) as MILPs and solves them with Gurobi.  Gurobi is proprietary
//! and unavailable here, so this crate provides the optimization substrate
//! from scratch:
//!
//! * [`Model`] — a declarative model builder with continuous, integer and
//!   binary variables, linear constraints, big-M indicator constraints and
//!   a linear objective.
//! * [`simplex`] — a dense two-phase primal simplex for the LP relaxation.
//! * [`branch`] — a best-first branch-and-bound MILP solver on top of the
//!   simplex, with incumbent tracking, node/time limits and an "objective
//!   bounds gap" progress log matching the metric Gurobi reports (and the
//!   paper plots in Figure 5).
//!
//! The solver is exact but deliberately simple (dense tableaus, no cutting
//! planes or presolve), so it is intended for the small-to-moderate model
//! sizes exercised in unit/integration tests and for validating the
//! NetSmith formulations; the production topology-search path in
//! `netsmith-gen` uses specialised combinatorial engines for the larger
//! instances, exactly as documented in `DESIGN.md`.

pub mod branch;
pub mod expr;
pub mod model;
pub mod simplex;
pub mod solution;

pub use branch::{BranchBoundConfig, MilpSolver, ProgressEvent};
pub use expr::LinExpr;
pub use model::{Cmp, Model, Sense, VarId, VarType};
pub use solution::{Solution, SolveStatus};

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn end_to_end_lp_then_milp() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  (LP optimum at x=4,y=0)
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(VarType::Continuous, 0.0, f64::INFINITY, 3.0, "x");
        let y = m.add_var(VarType::Continuous, 0.0, f64::INFINITY, 2.0, "y");
        m.add_constr(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 4.0);
        m.add_constr(LinExpr::new().term(x, 1.0).term(y, 3.0), Cmp::Le, 6.0);
        let sol = simplex::solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 12.0).abs() < 1e-6);

        // Same model with x integer-restricted to <= 3.5 becomes x=3, y=1.
        let mut m2 = Model::new(Sense::Maximize);
        let x = m2.add_var(VarType::Integer, 0.0, 3.5, 3.0, "x");
        let y = m2.add_var(VarType::Continuous, 0.0, f64::INFINITY, 2.0, "y");
        m2.add_constr(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 4.0);
        m2.add_constr(LinExpr::new().term(x, 1.0).term(y, 3.0), Cmp::Le, 6.0);
        let solver = MilpSolver::new(BranchBoundConfig::default());
        let sol = solver.solve(&m2).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.values[x.index()] - 3.0).abs() < 1e-6);
        assert!((sol.objective - 11.0).abs() < 1e-6);
    }
}
