//! The workspace-wide pipeline error taxonomy.
//!
//! Every stage of the discover → route → allocate → evaluate pipeline used
//! to report failure as a bare `Option`, which made an unroutable
//! configuration indistinguishable from a VC-budget miss.  [`PipelineError`]
//! names each failure mode precisely; it lives in `netsmith-topo` — the root
//! of the crate DAG — so the routing, synthesis, energy and fault layers can
//! all speak the same type without a dependency cycle, and the `netsmith`
//! umbrella re-exports it as `netsmith::PipelineError`.

use std::fmt;

/// A typed failure anywhere in the evaluation pipeline.
///
/// Each layer returns the variant that names its own failure
/// ([`PipelineError::Disconnected`], [`PipelineError::IncompleteRouting`],
/// [`PipelineError::VcBudgetExceeded`], [`PipelineError::DiscoveryFailed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The topology is not strongly connected: `pairs` ordered router pairs
    /// have no directed path.
    Disconnected {
        /// Number of unreachable ordered pairs.
        pairs: usize,
    },
    /// A routing pass terminated without a path for every ordered pair.
    IncompleteRouting {
        /// Number of ordered pairs left without a route.
        missing_pairs: usize,
    },
    /// The deadlock-free escape-layer partition needs more virtual channels
    /// than the budget provides.
    VcBudgetExceeded {
        /// Escape layers the DFSSSP-style partition required.
        needed: usize,
        /// Virtual channels that were available.
        budget: usize,
    },
    /// Topology discovery finished without a usable incumbent.
    DiscoveryFailed {
        /// Short name of the objective that was being optimized.
        objective: String,
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Disconnected { pairs } => {
                write!(
                    f,
                    "topology is disconnected: {pairs} unreachable ordered pairs"
                )
            }
            PipelineError::IncompleteRouting { missing_pairs } => {
                write!(
                    f,
                    "routing is incomplete: {missing_pairs} pairs have no route"
                )
            }
            PipelineError::VcBudgetExceeded { needed, budget } => {
                write!(
                    f,
                    "deadlock-free allocation needs {needed} escape VCs but only {budget} are available"
                )
            }
            PipelineError::DiscoveryFailed { objective, reason } => {
                write!(f, "discovery for {objective} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_failure_mode() {
        let cases = [
            (
                PipelineError::Disconnected { pairs: 4 },
                "4 unreachable ordered pairs",
            ),
            (
                PipelineError::IncompleteRouting { missing_pairs: 2 },
                "2 pairs have no route",
            ),
            (
                PipelineError::VcBudgetExceeded {
                    needed: 4,
                    budget: 1,
                },
                "needs 4 escape VCs but only 1",
            ),
            (
                PipelineError::DiscoveryFailed {
                    objective: "LatOp".into(),
                    reason: "no connected incumbent".into(),
                },
                "discovery for LatOp failed",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }
}
