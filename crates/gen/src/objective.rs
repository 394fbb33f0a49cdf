//! Optimization objectives for topology generation.
//!
//! The paper focuses on two objectives — latency (average/total hop count,
//! "LatOp") and sparsest-cut bandwidth ("SCOp") — and notes that NetSmith
//! readily accepts other objectives.  The search engines need a *scalar
//! score to minimize*; this module defines how each objective maps a
//! candidate topology to such a score, including the connectivity penalty
//! that lets the annealer recover from transiently disconnected states.
//!
//! Every objective — the named variants and arbitrary
//! [`Objective::Composite`]s alike — decomposes into weighted
//! [`Term`]s ([`Objective::decomposition`]) scored over one shared
//! [`TopoAnalysis`], so exact evaluation, the annealer's cut-pool
//! surrogate, and the combinatorial lower bound all run through a single
//! code path ([`Objective::evaluate_analysis`] / [`Objective::lower_bound`]).

use crate::problem::GenerationProblem;
use crate::terms::{CutEval, Term, TermContext, WeightedTerm};
use netsmith_topo::analysis::TopoAnalysis;
use netsmith_topo::traffic::DemandMatrix;
use netsmith_topo::Topology;

/// Penalty per unreachable ordered pair, large enough that any connected
/// topology scores better than any disconnected one.
const DISCONNECTION_PENALTY: f64 = 1.0e9;

/// Optimization objective.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Minimize the total (equivalently average) hop count under uniform
    /// all-to-all traffic (objective O1 of Table I).
    LatOp,
    /// Maximize the sparsest-cut bandwidth (objective O2 of Table I), with
    /// total hop count as a tiebreak.
    SCOp,
    /// Minimize the demand-weighted hop count for an arbitrary traffic
    /// pattern (used for the paper's shuffle-optimized topologies).
    PatternLatOp(DemandMatrix),
    /// Minimize an analytic energy proxy: static (leakage) power of the
    /// link/router inventory plus `edp_weight` times an energy-delay
    /// product built from the average hop count and the wire length each
    /// traversal drives.  Lets the annealer synthesize energy-optimal
    /// topologies for the `netsmith-energy` subsystem; the proxy's
    /// technology constants mirror `netsmith-power`'s defaults.
    EnergyOp { edp_weight: f64 },
    /// Fault-tolerant latency optimization for the `netsmith-fault`
    /// subsystem: total hop count (the LatOp term) plus
    /// `articulation_penalty` per *critical* full-duplex link (a link
    /// whose failure breaks strong connectivity — see
    /// [`netsmith_topo::resilience::critical_link_pairs`]), minus
    /// `spare_capacity_weight` times the spare min-cut capacity proxy
    /// [`netsmith_topo::TopoAnalysis::min_directional_degree`] (every
    /// router's in/out degree is an isolating cut, so the weakest router's
    /// directional degree bounds how many link faults the fabric can
    /// absorb around it).  With the default weights the annealer drives
    /// the critical-link count to zero — any single link failure
    /// re-routes — while still competing with LatOp on hops.
    FaultOp {
        /// Score penalty per critical (articulation) duplex link.  The
        /// default of `1e5` dominates any achievable hop-count difference,
        /// making "no single points of failure" a soft constraint the
        /// annealer satisfies before trading hops.
        articulation_penalty: f64,
        /// Reward per unit of spare min-cut capacity (the minimum
        /// directional degree over routers), in total-hop units.
        spare_capacity_weight: f64,
    },
    /// An arbitrary non-negative weighted sum of objective terms — the
    /// general form every other variant is a special case of.  Build with
    /// [`Objective::composite`], which rejects negative/non-finite weights;
    /// constructing the variant directly bypasses that check, and a
    /// negative weight makes [`Objective::lower_bound`] inadmissible.
    Composite(Vec<WeightedTerm>),
}

impl Objective {
    /// The `FaultOp` weighting used by the `fig13_resilience` harness:
    /// articulation links are effectively forbidden and each unit of spare
    /// min-cut capacity is worth 40 total hops (about 0.1 average hops on
    /// the 20-router layout).
    pub fn fault_op_default() -> Self {
        Objective::FaultOp {
            articulation_penalty: 1.0e5,
            spare_capacity_weight: 40.0,
        }
    }

    /// A composite objective from `(weight, term)` pairs.  Panics when a
    /// weight is negative or non-finite (the composed lower bound would no
    /// longer be admissible) or when no terms are given.
    pub fn composite(terms: impl IntoIterator<Item = (f64, Term)>) -> Self {
        let terms: Vec<WeightedTerm> = terms
            .into_iter()
            .map(|(weight, term)| WeightedTerm::new(weight, term))
            .collect();
        assert!(!terms.is_empty(), "composite objectives need >= 1 term");
        Objective::Composite(terms)
    }

    /// The weighted-term decomposition every objective scores through.
    /// Named variants map onto the canonical terms; `Composite` is its own
    /// decomposition.
    ///
    /// Named variants are decomposed verbatim: their struct fields accept
    /// any weight, so only [`Objective::composite`] enforces the
    /// non-negativity that keeps composed lower bounds admissible.
    pub fn decomposition(&self) -> Vec<WeightedTerm> {
        let wt = |weight: f64, term: Term| WeightedTerm { weight, term };
        match self {
            Objective::LatOp => vec![wt(1.0, Term::Hops)],
            Objective::SCOp => vec![wt(1.0, Term::SparsestCut), wt(1.0, Term::Hops)],
            Objective::PatternLatOp(demand) => {
                vec![wt(1.0, Term::PatternHops(demand.clone()))]
            }
            Objective::EnergyOp { edp_weight } => vec![wt(
                1.0,
                Term::EnergyProxy {
                    edp_weight: *edp_weight,
                },
            )],
            Objective::FaultOp {
                articulation_penalty,
                spare_capacity_weight,
            } => vec![
                wt(1.0, Term::Hops),
                wt(*articulation_penalty, Term::CriticalLinks),
                wt(*spare_capacity_weight, Term::SpareCapacity),
            ],
            Objective::Composite(terms) => terms.clone(),
        }
    }

    /// Short name used in generated topology names ("LatOp", "SCOp", …).
    /// Composites encode their weights so CSV rows from different weight
    /// points stay distinguishable.
    pub fn short_name(&self) -> String {
        match self {
            Objective::LatOp => "LatOp".into(),
            Objective::SCOp => "SCOp".into(),
            Objective::PatternLatOp(_) => "ShufOpt".into(),
            Objective::EnergyOp { .. } => "EnergyOp".into(),
            Objective::FaultOp { .. } => "FaultOp".into(),
            Objective::Composite(terms) => {
                let labels: Vec<String> = terms.iter().map(WeightedTerm::label).collect();
                format!("Mix[{}]", labels.join("+"))
            }
        }
    }

    /// Admissible lower bound on the objective score over every topology
    /// satisfying `problem`'s radix and link-length constraints: the
    /// weighted sum of the per-term bounds.
    pub fn lower_bound(&self, problem: &GenerationProblem) -> f64 {
        self.decomposition()
            .iter()
            .map(|wt| wt.weight * wt.term.lower_bound(problem))
            .sum()
    }

    /// Evaluate a topology exactly.  Lower scores are better for every
    /// objective.
    pub fn evaluate(&self, topo: &Topology) -> ObjectiveValue {
        self.evaluate_analysis(topo, &TopoAnalysis::new(topo), CutEval::Exact)
    }

    /// Evaluate against a pre-computed (possibly delta-updated) analysis —
    /// the single scoring path shared by [`Objective::evaluate`] and the
    /// annealer's cached move evaluation, which scores the cut term against
    /// its cut pool ([`CutEval::Pool`]).  `analysis` must describe `topo`.
    pub fn evaluate_analysis(
        &self,
        topo: &Topology,
        analysis: &TopoAnalysis,
        cut: CutEval<'_>,
    ) -> ObjectiveValue {
        evaluate_weighted(&self.decomposition(), topo, analysis, cut)
    }
}

/// Score a weighted-term list against a cached analysis.  This is the one
/// code path behind every evaluation mode; the annealer calls it directly
/// with a decomposition computed once per run.
pub fn evaluate_weighted(
    terms: &[WeightedTerm],
    topo: &Topology,
    analysis: &TopoAnalysis,
    cut: CutEval<'_>,
) -> ObjectiveValue {
    let unreachable = analysis.unreachable_pairs();
    if unreachable > 0 {
        return ObjectiveValue {
            score: DISCONNECTION_PENALTY * unreachable as f64,
            total_hops: None,
            average_hops: f64::INFINITY,
            sparsest_cut: 0.0,
            connected: false,
        };
    }
    let needs_cut = terms.iter().any(|wt| wt.term.needs_cut());
    let sparsest_cut = crate::terms::resolve_cut(topo, cut, needs_cut);
    let ctx = TermContext {
        topology: topo,
        analysis,
        sparsest_cut,
    };
    let mut score = 0.0;
    for wt in terms {
        score += wt.weight * wt.term.score(&ctx);
    }
    ObjectiveValue {
        score,
        total_hops: analysis.total_hops(),
        average_hops: analysis.average_hops(),
        sparsest_cut,
        connected: true,
    }
}

/// Result of evaluating an objective on a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveValue {
    /// Scalar score; lower is better for every objective.
    pub score: f64,
    /// Total hop count (None when disconnected).
    pub total_hops: Option<u64>,
    /// Average hop count.
    pub average_hops: f64,
    /// Sparsest-cut normalized bandwidth (0 when not computed).
    pub sparsest_cut: f64,
    /// Whether the topology was strongly connected.
    pub connected: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::expert;
    use netsmith_topo::traffic::TrafficPattern;
    use netsmith_topo::Layout;
    use netsmith_topo::LinkClass;

    #[test]
    fn latop_prefers_lower_hop_topologies() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let kite = expert::kite_small(&layout);
        let o = Objective::LatOp;
        assert!(o.evaluate(&kite).score < o.evaluate(&mesh).score);
    }

    #[test]
    fn scop_prefers_higher_cut_topologies() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let torus = expert::folded_torus(&layout);
        let o = Objective::SCOp;
        assert!(o.evaluate(&torus).score < o.evaluate(&mesh).score);
    }

    #[test]
    fn disconnected_topologies_are_heavily_penalized() {
        let layout = Layout::noi_4x5();
        let empty = netsmith_topo::Topology::empty("none", layout.clone(), LinkClass::Small);
        let mesh = expert::mesh(&layout);
        for o in [Objective::LatOp, Objective::SCOp] {
            let bad = o.evaluate(&empty);
            assert!(!bad.connected);
            assert!(bad.score > o.evaluate(&mesh).score * 1e3);
        }
    }

    #[test]
    fn pattern_objective_uses_the_demand_matrix() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let shuffle = TrafficPattern::Shuffle.demand_matrix(&layout);
        let uniform = Objective::LatOp.evaluate(&mesh);
        let pattern = Objective::PatternLatOp(shuffle).evaluate(&mesh);
        // Shuffle exercises longer-distance pairs than the uniform average
        // on a mesh, so the scores must differ.
        assert!((uniform.score - pattern.score).abs() > 1e-6);
    }

    #[test]
    fn cut_pool_never_underestimates_the_true_cut() {
        // The pool is a subset of all cuts, so its minimum is an upper bound
        // on the true sparsest cut.
        let layout = Layout::noi_4x5();
        let torus = expert::folded_torus(&layout);
        let exact = Objective::SCOp.evaluate(&torus);
        let pool: Vec<Vec<bool>> = vec![
            (0..20).map(|i| i < 10).collect(),
            (0..20).map(|i| i % 2 == 0).collect(),
        ];
        let analysis = TopoAnalysis::new(&torus);
        let pooled = Objective::SCOp.evaluate_analysis(&torus, &analysis, CutEval::Pool(&pool));
        assert!(pooled.sparsest_cut >= exact.sparsest_cut - 1e-12);
    }

    #[test]
    fn short_names_are_stable() {
        assert_eq!(Objective::LatOp.short_name(), "LatOp");
        assert_eq!(Objective::SCOp.short_name(), "SCOp");
        assert_eq!(
            Objective::EnergyOp { edp_weight: 1.0 }.short_name(),
            "EnergyOp"
        );
        assert_eq!(Objective::fault_op_default().short_name(), "FaultOp");
    }

    #[test]
    fn composite_short_name_lists_weighted_terms() {
        let o = Objective::composite([
            (1.0, Term::Hops),
            (0.25, Term::EnergyProxy { edp_weight: 5.0 }),
        ]);
        assert_eq!(o.short_name(), "Mix[1xHops+0.25xEnergy]");
        assert!(!o.short_name().contains(','));
    }

    #[test]
    fn legacy_variants_match_their_decomposition() {
        // Scoring a named variant and its explicit composite decomposition
        // must agree exactly — they share the same code path.
        let layout = Layout::noi_4x5();
        let shuffle = TrafficPattern::Shuffle.demand_matrix(&layout);
        let objectives = [
            Objective::LatOp,
            Objective::SCOp,
            Objective::PatternLatOp(shuffle),
            Objective::EnergyOp { edp_weight: 5.0 },
            Objective::fault_op_default(),
        ];
        for topo in [expert::mesh(&layout), expert::kite_large(&layout)] {
            for o in &objectives {
                let direct = o.evaluate(&topo);
                let composite = Objective::Composite(o.decomposition()).evaluate(&topo);
                assert_eq!(direct.score, composite.score, "{}", o.short_name());
                assert_eq!(direct.sparsest_cut, composite.sparsest_cut);
            }
        }
    }

    #[test]
    fn legacy_variants_accept_any_weight_sign() {
        // The named struct variants never validated their weights; the
        // composite constructor's non-negativity check must not leak into
        // their evaluation path.
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let odd_fault = Objective::FaultOp {
            articulation_penalty: 1.0,
            spare_capacity_weight: -40.0,
        };
        assert!(odd_fault.evaluate(&mesh).score.is_finite());
    }

    #[test]
    fn composite_constructor_preserves_terms_and_order() {
        let o = Objective::composite([
            (1.0, Term::Hops),
            (0.5, Term::SparsestCut),
            (40.0, Term::SpareCapacity),
        ]);
        let decomposition = o.decomposition();
        assert_eq!(decomposition.len(), 3);
        assert_eq!(decomposition[0], WeightedTerm::new(1.0, Term::Hops));
        assert_eq!(decomposition[2].weight, 40.0);
        assert!(
            decomposition[1].term.needs_cut(),
            "cut term must keep needs_cut"
        );
    }

    #[test]
    fn faultop_penalizes_critical_links() {
        // Removing the (0, 1) pair from the mesh leaves corner router 0
        // hanging off the single (0, 5) pair, which becomes critical.
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let mut bridged = mesh.clone();
        bridged.remove_link(0, 1);
        bridged.remove_link(1, 0);
        assert!(netsmith_topo::resilience::critical_link_pairs(&mesh).is_empty());
        assert!(!netsmith_topo::resilience::critical_link_pairs(&bridged).is_empty());
        let o = Objective::fault_op_default();
        let healthy = o.evaluate(&mesh);
        let fragile = o.evaluate(&bridged);
        // The articulation penalty dwarfs any hop-count difference.
        assert!(fragile.score > healthy.score + 1e4);
    }

    #[test]
    fn faultop_rewards_spare_min_cut_capacity() {
        // With the articulation penalty off, the spare-capacity reward must
        // separate the full mesh (weakest router keeps 2 links) from the
        // degraded one (weakest router down to 1 link) by more than their
        // hop-count difference.
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let mut degraded = mesh.clone();
        degraded.remove_link(0, 1);
        degraded.remove_link(1, 0);
        let o = Objective::FaultOp {
            articulation_penalty: 0.0,
            spare_capacity_weight: 1.0e4,
        };
        assert!(o.evaluate(&mesh).score < o.evaluate(&degraded).score);
    }

    #[test]
    fn faultop_penalizes_disconnection() {
        let layout = Layout::noi_4x5();
        let empty = netsmith_topo::Topology::empty("none", layout.clone(), LinkClass::Small);
        let o = Objective::fault_op_default();
        let bad = o.evaluate(&empty);
        assert!(!bad.connected);
        assert!(bad.score > o.evaluate(&expert::mesh(&layout)).score.abs() * 1e3);
    }

    #[test]
    fn energyop_prefers_sparser_wiring_at_zero_edp_weight() {
        // With the EDP term switched off the proxy is pure static power, so
        // the mesh (short links only) must beat the wire-hungry torus.
        let layout = Layout::noi_4x5();
        let o = Objective::EnergyOp { edp_weight: 0.0 };
        let mesh = o.evaluate(&expert::mesh(&layout));
        let torus = o.evaluate(&expert::folded_torus(&layout));
        assert!(mesh.score < torus.score);
        assert!(mesh.connected && torus.connected);
    }

    #[test]
    fn energyop_edp_weight_rewards_lower_hop_counts() {
        // Kite-Large has far fewer average hops than the mesh; with a large
        // enough EDP weight the delay term dominates static wire power and
        // the ordering flips relative to the pure-static proxy.
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let kite = expert::kite_large(&layout);
        let static_only = Objective::EnergyOp { edp_weight: 0.0 };
        assert!(static_only.evaluate(&mesh).score < static_only.evaluate(&kite).score);
        let edp_heavy = Objective::EnergyOp { edp_weight: 50.0 };
        assert!(edp_heavy.evaluate(&kite).score < edp_heavy.evaluate(&mesh).score);
    }

    #[test]
    fn energyop_penalizes_disconnection() {
        let layout = Layout::noi_4x5();
        let empty = netsmith_topo::Topology::empty("none", layout.clone(), LinkClass::Small);
        let o = Objective::EnergyOp { edp_weight: 1.0 };
        let bad = o.evaluate(&empty);
        assert!(!bad.connected);
        assert!(bad.score > o.evaluate(&expert::mesh(&layout)).score * 1e3);
    }
}
