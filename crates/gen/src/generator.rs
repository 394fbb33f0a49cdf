//! High-level NetSmith facade: parallel multi-start search with progress
//! merging and bound-based gap reporting.

use crate::anneal::{anneal, AnnealConfig, AnnealResult};
use crate::objective::{Objective, ObjectiveValue};
use crate::problem::GenerationProblem;
use crate::progress::SolverProgress;
use netsmith_obs::Obs;
use netsmith_pool::WorkerPool;
use netsmith_topo::{Layout, LinkClass, PipelineError, Topology};
use std::time::Duration;

/// Result of a topology discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// The best topology found (named `NS-<objective>-<class>`).
    pub topology: Topology,
    /// Exact objective value of that topology.
    pub objective: ObjectiveValue,
    /// Combinatorial bound used for gap reporting (total-hops lower bound
    /// for LatOp-style objectives, cut upper bound for SCOp).
    pub bound: f64,
    /// Relative objective-bounds gap of the final incumbent.
    pub gap: f64,
    /// Merged progress trace across all parallel workers (Figure 5).
    pub progress: SolverProgress,
    /// Total candidate evaluations across workers.
    pub evaluations: u64,
}

/// The NetSmith topology generator.
///
/// ```
/// use netsmith_gen::{NetSmith, Objective};
/// use netsmith_topo::{Layout, LinkClass};
///
/// let result = NetSmith::new(Layout::noi_4x5(), LinkClass::Medium)
///     .objective(Objective::LatOp)
///     .evaluations(2_000)
///     .workers(1)
///     .seed(7)
///     .discover();
/// assert!(result.topology.is_valid());
/// ```
#[derive(Debug, Clone)]
pub struct NetSmith {
    problem: GenerationProblem,
    config: AnnealConfig,
    workers: usize,
    obs: Obs,
}

impl NetSmith {
    /// Start configuring a discovery run for a layout and link class.
    pub fn new(layout: Layout, class: LinkClass) -> Self {
        NetSmith {
            problem: GenerationProblem::new(layout, class, Objective::LatOp),
            config: AnnealConfig::default(),
            workers: 4,
            obs: Obs::noop(),
        }
    }

    /// Record annealer spans and move counters on an instrumentation
    /// handle (see [`netsmith_obs`]).  Every worker reports to the same
    /// recorder, so counter totals aggregate across the multi-start
    /// search.  Defaults to the no-op handle.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Set the optimization objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.problem.objective = objective;
        self
    }

    /// Set a composite objective from `(weight, term)` pairs — shorthand
    /// for `objective(Objective::composite(terms))`.  Panics on negative
    /// or non-finite weights.
    pub fn composite_objective(
        self,
        terms: impl IntoIterator<Item = (f64, crate::terms::Term)>,
    ) -> Self {
        self.objective(Objective::composite(terms))
    }

    /// Force symmetric (paired) links — constraint C9.
    pub fn symmetric_links(mut self, symmetric: bool) -> Self {
        self.problem.symmetric_links = symmetric;
        self
    }

    /// Set the per-worker evaluation budget.
    pub fn evaluations(mut self, evaluations: u64) -> Self {
        self.config.max_evaluations = evaluations;
        self
    }

    /// Set the per-worker wall-clock budget.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.config.time_budget = budget;
        self
    }

    /// Set the base RNG seed (worker `i` uses `seed + i`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Number of parallel annealing workers.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The underlying problem definition.
    pub fn problem(&self) -> &GenerationProblem {
        &self.problem
    }

    /// Combinatorial bound for the configured objective, in the same units
    /// as the objective score: the weighted sum of the per-term admissible
    /// bounds (see [`crate::terms::Term::lower_bound`]).
    pub fn bound(&self) -> f64 {
        self.problem.objective.lower_bound(&self.problem)
    }

    /// Run the discovery: `workers` independent annealing searches in
    /// parallel (on the shared worker pool), merged into a single result.
    /// Panics when
    /// the search fails outright; use [`NetSmith::try_discover`] to handle
    /// that case as a typed [`PipelineError`].
    pub fn discover(&self) -> DiscoveryResult {
        self.try_discover()
            .unwrap_or_else(|e| panic!("topology discovery failed: {e}"))
    }

    /// Fallible discovery: fails with [`PipelineError::DiscoveryFailed`]
    /// when no worker produced a strongly connected incumbent within the
    /// evaluation budget (the annealer's disconnection penalty makes any
    /// connected candidate beat every disconnected one, so this only
    /// happens under pathological budgets or constraints).
    pub fn try_discover(&self) -> Result<DiscoveryResult, PipelineError> {
        let bound = self.bound();
        let mut configs = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let mut c = self.config.clone();
            c.seed = self.config.seed.wrapping_add(w as u64 * 0x9E37_79B9);
            configs.push(c);
        }
        let problem = &self.problem;
        let results: Vec<AnnealResult> = WorkerPool::global().run(
            configs
                .iter()
                .map(|c| {
                    let obs = self.obs.clone();
                    Box::new(move || anneal(problem, c, bound, &obs))
                        as Box<dyn FnOnce() -> AnnealResult + Send + '_>
                })
                .collect(),
        );

        let mut progress = SolverProgress::new();
        let mut evaluations = 0;
        for r in &results {
            progress.merge(&r.progress);
            evaluations += r.evaluations;
        }
        let best = results
            .into_iter()
            .min_by(|a, b| a.objective.score.total_cmp(&b.objective.score))
            .expect("at least one worker");
        if !best.objective.connected {
            return Err(PipelineError::DiscoveryFailed {
                objective: self.problem.objective.short_name(),
                reason: format!(
                    "no worker produced a connected incumbent within {evaluations} evaluations"
                ),
            });
        }
        let gap = if best.objective.score.abs() < 1e-12 {
            0.0
        } else {
            ((best.objective.score - bound).abs() / best.objective.score.abs()).max(0.0)
        };
        Ok(DiscoveryResult {
            topology: best.topology,
            objective: best.objective,
            bound,
            gap,
            progress,
            evaluations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::expert;
    use netsmith_topo::metrics;

    fn quick(class: LinkClass, objective: Objective) -> NetSmith {
        NetSmith::new(Layout::noi_4x5(), class)
            .objective(objective)
            .evaluations(3_000)
            .workers(2)
            .seed(123)
            .time_budget(Duration::from_secs(20))
    }

    #[test]
    fn try_discover_succeeds_on_sane_budgets() {
        let result = quick(LinkClass::Medium, Objective::LatOp)
            .try_discover()
            .expect("a connected incumbent exists at this budget");
        assert!(result.objective.connected);
    }

    #[test]
    fn discovery_produces_named_valid_topologies() {
        let result = quick(LinkClass::Medium, Objective::LatOp).discover();
        assert_eq!(result.topology.name(), "NS-LatOp-medium");
        assert!(result.topology.is_valid());
        assert!(result.objective.connected);
        assert!(result.gap.is_finite());
        assert!(result.evaluations >= 3_000);
    }

    #[test]
    fn parallel_workers_never_do_worse_than_a_single_worker() {
        let single = quick(LinkClass::Medium, Objective::LatOp)
            .workers(1)
            .discover();
        let multi = quick(LinkClass::Medium, Objective::LatOp)
            .workers(3)
            .discover();
        assert!(multi.objective.score <= single.objective.score + 1e-9);
    }

    #[test]
    fn latop_beats_expert_topologies_of_the_same_class() {
        // The paper's headline: machine-discovered medium/large topologies
        // beat the expert designs on average hops.  Use a modest budget so
        // the test stays fast; the full budget only widens the margin.
        let result = quick(LinkClass::Medium, Objective::LatOp)
            .evaluations(8_000)
            .discover();
        let layout = Layout::noi_4x5();
        let torus_hops = metrics::average_hops(&expert::folded_torus(&layout));
        assert!(
            result.objective.average_hops < torus_hops,
            "NS-LatOp {} vs Folded Torus {torus_hops}",
            result.objective.average_hops
        );
    }

    #[test]
    fn energyop_discovery_is_valid_and_bound_consistent() {
        let result = quick(LinkClass::Medium, Objective::EnergyOp { edp_weight: 5.0 }).discover();
        assert_eq!(result.topology.name(), "NS-EnergyOp-medium");
        assert!(result.topology.is_valid());
        assert!(result.objective.connected);
        assert!(
            result.bound <= result.objective.score + 1e-6,
            "bound {} exceeds incumbent {}",
            result.bound,
            result.objective.score
        );
    }

    #[test]
    fn faultop_discovery_has_no_critical_links() {
        let result = quick(LinkClass::Medium, Objective::fault_op_default()).discover();
        assert_eq!(result.topology.name(), "NS-FaultOp-medium");
        assert!(result.topology.is_valid());
        assert!(
            netsmith_topo::resilience::critical_link_pairs(&result.topology).is_empty(),
            "synthesized topology kept an articulation link"
        );
        assert!(
            result.bound <= result.objective.score + 1e-6,
            "bound {} exceeds incumbent {}",
            result.bound,
            result.objective.score
        );
    }

    #[test]
    fn bound_is_consistent_with_incumbent() {
        let result = quick(LinkClass::Large, Objective::LatOp).discover();
        // The combinatorial bound can never exceed the incumbent score.
        assert!(result.bound <= result.objective.score + 1e-6);
        assert!(result
            .progress
            .samples()
            .iter()
            .all(|s| s.bound <= s.incumbent + 1e-6));
    }

    #[test]
    fn composite_discovery_matches_its_legacy_equivalent() {
        // A composite that decomposes identically to FaultOp must follow
        // the same annealing trajectory: same seed, same scores, same
        // discovered adjacency.
        let legacy = quick(LinkClass::Medium, Objective::fault_op_default()).discover();
        let composite = quick(
            LinkClass::Medium,
            Objective::Composite(Objective::fault_op_default().decomposition()),
        )
        .discover();
        assert_eq!(legacy.objective.score, composite.objective.score);
        assert_eq!(
            legacy.topology.adjacency(),
            composite.topology.adjacency(),
            "composite trajectory diverged from the legacy variant"
        );
        assert_eq!(
            composite.topology.name(),
            "NS-Mix[1xHops+100000xCrit+40xSpare]-medium"
        );
        assert!((legacy.bound - composite.bound).abs() < 1e-9);
    }

    #[test]
    fn composite_builder_shorthand_applies() {
        use crate::terms::Term;
        let ns = NetSmith::new(Layout::noi_4x5(), LinkClass::Medium)
            .composite_objective([(1.0, Term::Hops), (0.5, Term::SpareCapacity)]);
        assert_eq!(ns.problem().objective.short_name(), "Mix[1xHops+0.5xSpare]");
        let decomposition = ns.problem().objective.decomposition();
        assert!(decomposition.iter().all(|wt| !wt.term.needs_cut()));
    }

    #[test]
    fn builder_setters_apply() {
        let ns = NetSmith::new(Layout::noi_4x5(), LinkClass::Small)
            .objective(Objective::SCOp)
            .symmetric_links(true)
            .workers(7)
            .seed(99);
        assert_eq!(ns.problem().objective.short_name(), "SCOp");
        assert!(ns.problem().symmetric_links);
    }
}
