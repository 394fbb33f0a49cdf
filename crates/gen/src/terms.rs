//! Composable objective terms over a shared [`TopoAnalysis`].
//!
//! The paper frames NetSmith as a framework that "readily accepts other
//! objectives"; this module makes that literal.  Every scoring concern the
//! search engines know about — hop count, sparsest-cut bandwidth, the
//! analytic energy proxy, articulation links, spare min-cut capacity — is
//! a [`Term`]: a function from a cached topology analysis to a
//! scalar score (lower is better), paired with an *admissible lower bound*
//! (a value no topology satisfying the problem constraints can beat).
//!
//! Terms compose linearly: [`crate::Objective::Composite`] holds a list of
//! [`WeightedTerm`]s and scores a candidate as `Σ weight · term score`,
//! while its bound is `Σ weight · term bound` (admissible because every
//! weight is required to be non-negative).  The legacy `Objective` enum
//! variants (`LatOp`, `SCOp`, `FaultOp`, …) decompose into exactly these
//! terms, so a single evaluation code path serves the exact evaluator, the
//! annealer's cut-pool surrogate, and the bound computation alike.

use crate::bounds;
use crate::problem::GenerationProblem;
use netsmith_topo::analysis::TopoAnalysis;
use netsmith_topo::cuts;
use netsmith_topo::traffic::DemandMatrix;
use netsmith_topo::Topology;

/// Scale factor that keeps the bandwidth term dominant over the hop-count
/// tiebreak in the SCOp score.
const SCOP_BANDWIDTH_SCALE: f64 = 1.0e7;

/// Everything a term may consult when scoring one candidate topology: the
/// topology itself, its cached [`TopoAnalysis`], and the sparsest-cut value
/// resolved once for all cut-based terms (0 when no term asked for it).
pub struct TermContext<'a> {
    /// The candidate topology.
    pub topology: &'a Topology,
    /// Cached structural analysis of `topology`.
    pub analysis: &'a TopoAnalysis,
    /// Normalized sparsest-cut bandwidth (exact or cut-pool surrogate),
    /// `0.0` when no term in the objective needs cuts.
    pub sparsest_cut: f64,
}

/// How the sparsest-cut value of a [`TermContext`] is obtained.
#[derive(Debug, Clone, Copy)]
pub enum CutEval<'a> {
    /// Exact sparsest cut (exhaustive or heuristic, per network size).
    Exact,
    /// Minimum normalized bandwidth over a pool of candidate cuts — the
    /// annealer's cutting-plane-style surrogate.  An empty pool falls back
    /// to the exact cut.
    Pool(&'a [Vec<bool>]),
}

/// One composable scoring concern: a plain-data term that maps a
/// [`TermContext`] to a scalar score (lower is better) and carries an
/// admissible lower bound on that score over all topologies satisfying a
/// problem's constraints.  Terms are ordinary comparable values, so the
/// suite cache keys on them.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Total shortest-path hop count (the LatOp objective O1).
    Hops,
    /// Demand-weighted hop count scaled to total-hop units (the pattern-
    /// optimized objective behind the paper's shuffle topologies).
    PatternHops(DemandMatrix),
    /// Negated, scaled sparsest-cut bandwidth (the SCOp objective O2's
    /// bandwidth half; negated because lower scores are better).
    SparsestCut,
    /// Analytic energy proxy: static (leakage) power of the link/router
    /// inventory plus `edp_weight` times an energy-delay product built from
    /// the average hop count and the wire length each traversal drives.
    EnergyProxy {
        /// Weight of the energy-delay-product component relative to static
        /// power (mW per EDP unit).
        edp_weight: f64,
    },
    /// Count of critical (articulation) duplex links — single points of
    /// failure the FaultOp objective penalizes.
    CriticalLinks,
    /// Negated spare min-cut capacity (minimum directional degree) — the
    /// FaultOp objective's reward, negated so lower is better.
    SpareCapacity,
}

impl Term {
    /// Compact label used in composite objective names ("Hops", "Cut", …).
    pub fn tag(&self) -> String {
        match self {
            Term::Hops => "Hops",
            Term::PatternHops(_) => "PatHops",
            Term::SparsestCut => "Cut",
            Term::EnergyProxy { .. } => "Energy",
            Term::CriticalLinks => "Crit",
            Term::SpareCapacity => "Spare",
        }
        .into()
    }

    /// Whether scoring needs the sparsest-cut value resolved.
    pub fn needs_cut(&self) -> bool {
        matches!(self, Term::SparsestCut)
    }

    /// Score a candidate; only called on strongly connected topologies
    /// (disconnection is penalized before terms are consulted).
    pub fn score(&self, ctx: &TermContext<'_>) -> f64 {
        match self {
            Term::Hops => ctx.analysis.total_hops().expect("connected") as f64,
            Term::PatternHops(demand) => {
                let n = ctx.analysis.num_routers() as f64;
                // Scale to the same magnitude as total hops for comparability.
                ctx.analysis.demand_weighted_hops(demand) * n * (n - 1.0)
            }
            Term::SparsestCut => -ctx.sparsest_cut * SCOP_BANDWIDTH_SCALE,
            Term::EnergyProxy { edp_weight } => {
                let n = ctx.analysis.num_routers() as f64;
                let wire = ctx.analysis.wire_stats(ctx.topology);
                let static_mw = n * energy_proxy::ROUTER_LEAKAGE_MW
                    + wire.total_mm * energy_proxy::WIRE_LEAKAGE_MW_PER_MM;
                let avg_link_mm = if wire.num_links == 0 {
                    0.0
                } else {
                    wire.total_mm / wire.num_links as f64
                };
                static_mw
                    + edp_weight * energy_proxy::edp_term(ctx.analysis.average_hops(), avg_link_mm)
            }
            Term::CriticalLinks => ctx.analysis.critical_links(ctx.topology).len() as f64,
            Term::SpareCapacity => -(ctx.analysis.min_directional_degree() as f64),
        }
    }

    /// Admissible lower bound: no topology satisfying `problem`'s radix and
    /// link-length constraints scores below this.
    pub fn lower_bound(&self, problem: &GenerationProblem) -> f64 {
        match self {
            Term::Hops => bounds::latop_lower_bound(problem),
            Term::PatternHops(demand) => bounds::pattern_latop_lower_bound(problem, demand),
            Term::SparsestCut => -bounds::scop_upper_bound(problem) * SCOP_BANDWIDTH_SCALE,
            Term::EnergyProxy { edp_weight } => {
                // Router leakage is unavoidable; wire terms are >= 0 and the
                // EDP term is increasing in hops, so evaluating it at the hop
                // lower bound with zero wire length under-estimates every
                // achievable score.
                let n = problem.num_routers() as f64;
                let avg_hops_lb = bounds::average_hops_lower_bound(problem);
                n * energy_proxy::ROUTER_LEAKAGE_MW
                    + edp_weight * energy_proxy::edp_term(avg_hops_lb, 0.0)
            }
            Term::CriticalLinks => 0.0,
            // A router's directional degree can never exceed the radix.
            Term::SpareCapacity => -(problem.layout.radix() as f64),
        }
    }
}

/// A term with its (non-negative) weight inside a composite objective.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedTerm {
    /// Non-negative weight multiplying the term's score and bound.
    pub weight: f64,
    /// The scoring concern.
    pub term: Term,
}

impl WeightedTerm {
    /// A weighted term; panics on negative or non-finite weights (which
    /// would break the admissibility of the composed lower bound).
    pub fn new(weight: f64, term: Term) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "composite term weights must be finite and non-negative, got {weight}"
        );
        WeightedTerm { weight, term }
    }

    /// Compact `weight`×`tag` label used in composite objective names.
    pub fn label(&self) -> String {
        format!("{}x{}", fmt_weight(self.weight), self.term.tag())
    }
}

/// Compact weight rendering for objective names: integers print bare,
/// everything else rounds to four decimals with trailing zeros trimmed
/// (names are CSV labels, not round-trippable encodings).
fn fmt_weight(w: f64) -> String {
    if w == w.trunc() && w.abs() < 1e15 {
        return format!("{}", w as i64);
    }
    let s = format!("{w:.4}");
    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
    if trimmed.is_empty() || trimmed == "-" {
        "0".into()
    } else {
        trimmed.to_string()
    }
}

/// Resolve the sparsest-cut value for `topo` under a cut-evaluation mode.
/// Returns 0 when `needed` is false (no term consults the value).
pub(crate) fn resolve_cut(topo: &Topology, cut: CutEval<'_>, needed: bool) -> f64 {
    if !needed {
        return 0.0;
    }
    match cut {
        CutEval::Pool(pool) if !pool.is_empty() => {
            let mut pool_cut = f64::INFINITY;
            for membership in pool {
                let (f, b) = cuts::crossing_links(topo, membership);
                let size_u = membership.iter().filter(|&&x| x).count();
                let size_v = membership.len() - size_u;
                if size_u == 0 || size_v == 0 {
                    continue;
                }
                let norm = f.min(b) as f64 / (size_u * size_v) as f64;
                pool_cut = pool_cut.min(norm);
            }
            pool_cut
        }
        _ => cuts::sparsest_cut(topo).normalized_bandwidth,
    }
}

/// Technology constants of the analytic energy proxy used by
/// [`Term::EnergyProxy`].  They mirror `netsmith_power::PowerConfig`'s
/// defaults (kept as local constants so the search engine stays free of the
/// simulator/power dependency chain); the proxy only needs the *relative*
/// weighting of router vs. wire energy to rank candidate topologies.
mod energy_proxy {
    /// Router leakage per router in mW.
    pub(super) const ROUTER_LEAKAGE_MW: f64 = 4.0;
    /// Wire leakage per millimetre in mW.
    pub(super) const WIRE_LEAKAGE_MW_PER_MM: f64 = 0.15;
    /// Dynamic energy per flit per router traversal in pJ.
    const ROUTER_ENERGY_PJ: f64 = 3.0;
    /// Dynamic energy per flit per millimetre of wire in pJ.
    const WIRE_ENERGY_PJ_PER_MM: f64 = 0.9;

    /// Hop-count-dependent part of the proxy: energy per flit (router +
    /// wire traversals along an average path) times the delay proxy
    /// (average hops) — an analytic energy-delay product.
    pub(super) fn edp_term(average_hops: f64, avg_link_mm: f64) -> f64 {
        let energy_per_flit_pj = (average_hops + 1.0) * ROUTER_ENERGY_PJ
            + average_hops * avg_link_mm * WIRE_ENERGY_PJ_PER_MM;
        energy_per_flit_pj * average_hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::expert;
    use netsmith_topo::{Layout, LinkClass};

    fn ctx_for<'a>(topo: &'a Topology, analysis: &'a TopoAnalysis, cut: f64) -> TermContext<'a> {
        TermContext {
            topology: topo,
            analysis,
            sparsest_cut: cut,
        }
    }

    #[test]
    fn hops_term_scores_total_hops() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let analysis = TopoAnalysis::new(&mesh);
        let ctx = ctx_for(&mesh, &analysis, 0.0);
        assert_eq!(
            Term::Hops.score(&ctx),
            netsmith_topo::metrics::total_hops(&mesh).unwrap() as f64
        );
    }

    #[test]
    fn term_tags_are_stable() {
        assert_eq!(Term::Hops.tag(), "Hops");
        assert_eq!(Term::SparsestCut.tag(), "Cut");
        assert_eq!(Term::EnergyProxy { edp_weight: 1.0 }.tag(), "Energy");
        assert_eq!(Term::CriticalLinks.tag(), "Crit");
        assert_eq!(Term::SpareCapacity.tag(), "Spare");
    }

    #[test]
    fn only_the_cut_term_needs_cuts() {
        assert!(Term::SparsestCut.needs_cut());
        for term in [
            Term::Hops,
            Term::EnergyProxy { edp_weight: 1.0 },
            Term::CriticalLinks,
            Term::SpareCapacity,
        ] {
            assert!(!term.needs_cut(), "{} should not need cuts", term.tag());
        }
    }

    #[test]
    fn weighted_term_labels_encode_weights() {
        assert_eq!(WeightedTerm::new(1.0, Term::Hops).label(), "1xHops");
        assert_eq!(WeightedTerm::new(0.5, Term::SparsestCut).label(), "0.5xCut");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_are_rejected() {
        WeightedTerm::new(-1.0, Term::Hops);
    }

    #[test]
    fn pool_resolution_falls_back_to_exact_when_empty() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let exact = resolve_cut(&torus, CutEval::Exact, true);
        let empty_pool = resolve_cut(&torus, CutEval::Pool(&[]), true);
        assert_eq!(exact, empty_pool);
        assert!(exact > 0.0);
        // A pool is a subset of all cuts, so its minimum upper-bounds the
        // exact sparsest cut.
        let pool: Vec<Vec<bool>> = vec![(0..20).map(|i| i < 10).collect()];
        assert!(resolve_cut(&torus, CutEval::Pool(&pool), true) >= exact - 1e-12);
    }

    #[test]
    fn spare_capacity_bound_is_admissible_for_experts() {
        let layout = Layout::noi_4x5();
        let problem = GenerationProblem::new(
            layout.clone(),
            LinkClass::Large,
            crate::objective::Objective::LatOp,
        );
        let bound = Term::SpareCapacity.lower_bound(&problem);
        for topo in expert::all_baselines(&layout) {
            let analysis = TopoAnalysis::new(&topo);
            let ctx = ctx_for(&topo, &analysis, 0.0);
            assert!(Term::SpareCapacity.score(&ctx) >= bound);
        }
    }
}
