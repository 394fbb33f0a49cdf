//! Solver results.

/// Final status of an LP or MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal (within tolerances).
    Optimal,
    /// No feasible assignment exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A feasible incumbent was found, but the node/time budget expired
    /// before optimality was proven.  `Solution::bound` carries the best
    /// proven bound.
    Feasible,
    /// The budget expired before any feasible solution was found.
    LimitReached,
}

impl SolveStatus {
    /// True when the solution carries a usable assignment.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Result of a solve: variable assignment, objective, and (for MILP) the
/// best proven bound and the relative "objective bounds gap" that Gurobi
/// reports and the paper plots in Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub status: SolveStatus,
    /// One value per model variable (column order).  Empty when no
    /// incumbent exists.
    pub values: Vec<f64>,
    /// Objective value of `values` (meaningful only when
    /// `status.has_solution()`).
    pub objective: f64,
    /// Best proven bound on the optimal objective (lower bound for
    /// minimization, upper bound for maximization).
    pub bound: f64,
    /// Simplex iterations or branch-and-bound nodes expended.
    pub work: u64,
}

impl Solution {
    /// Relative objective-bounds gap `|objective - bound| / max(|objective|, eps)`,
    /// or 0 when optimal, or infinity when no incumbent exists.
    pub fn gap(&self) -> f64 {
        match self.status {
            SolveStatus::Optimal => 0.0,
            SolveStatus::Feasible => {
                (self.objective - self.bound).abs() / self.objective.abs().max(1e-9)
            }
            _ => f64::INFINITY,
        }
    }

    /// Construct an infeasible result.
    pub fn infeasible() -> Self {
        Solution {
            status: SolveStatus::Infeasible,
            values: Vec::new(),
            objective: f64::NAN,
            bound: f64::NAN,
            work: 0,
        }
    }

    /// Construct an unbounded result.
    pub fn unbounded() -> Self {
        Solution {
            status: SolveStatus::Unbounded,
            values: Vec::new(),
            objective: f64::NAN,
            bound: f64::NAN,
            work: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_zero_when_optimal() {
        let s = Solution {
            status: SolveStatus::Optimal,
            values: vec![1.0],
            objective: 10.0,
            bound: 10.0,
            work: 5,
        };
        assert_eq!(s.gap(), 0.0);
    }

    #[test]
    fn gap_reflects_bound_distance() {
        let s = Solution {
            status: SolveStatus::Feasible,
            values: vec![1.0],
            objective: 100.0,
            bound: 90.0,
            work: 5,
        };
        assert!((s.gap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn infeasible_has_no_solution() {
        assert!(!Solution::infeasible().status.has_solution());
        assert!(Solution::infeasible().gap().is_infinite());
    }
}
