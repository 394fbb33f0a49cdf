//! Simulated-annealing search over connectivity maps.
//!
//! This is the search engine behind the NetSmith reproduction.  The paper
//! solves the MIP of Table I with Gurobi; this engine explores the same
//! feasible set (radix, link-length, and connectivity constraints;
//! optional link symmetry) with a seeded Metropolis annealer, and its unit
//! tests check it against exhaustively proven optima on layouts of at most
//! nine routers:
//!
//! * a geometric temperature schedule cools from 2 to 0.001, in units of a
//!   move's typical `|Δscore|` sampled at startup;
//! * moves rewire, add, remove or endpoint-swap links, always staying
//!   within the valid-link set and the radix budget;
//! * every move is scored through the cached/delta path: the incumbent's
//!   [`TopoAnalysis`] is updated incrementally for the move's add/remove
//!   link set (no from-scratch all-pairs BFS per candidate — see
//!   [`netsmith_topo::analysis`]), and all objective terms share that one
//!   analysis;
//! * the SCOp objective uses a cutting-plane-style pool of candidate cuts
//!   that is refreshed with a heuristic sparsest-cut search every 200
//!   accepted moves, and the final result is re-scored with the exact cut;
//! * the best feasible topology and a progress trace (incumbent vs the
//!   combinatorial bound, i.e. the objective-bounds gap of Figure 5) are
//!   returned.

use crate::objective::{evaluate_weighted, ObjectiveValue};
use crate::problem::GenerationProblem;
use crate::progress::SolverProgress;
use crate::terms::{CutEval, WeightedTerm};
use netsmith_obs::Obs;
use netsmith_topo::analysis::TopoAnalysis;
use netsmith_topo::cuts;
use netsmith_topo::{RouterId, Topology};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Configuration of a single annealing run.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// RNG seed.
    pub seed: u64,
    /// Maximum number of candidate evaluations.
    pub max_evaluations: u64,
    /// Wall-clock budget.
    pub time_budget: Duration,
}

/// Starting temperature, in units of the typical `|Δscore|` of a single
/// move (sampled at startup, so one schedule works for both the hop-scale
/// LatOp objective and the cut-scale SCOp objective).
const INITIAL_TEMPERATURE: f64 = 2.0;
/// Final temperature, in the same relative units.
const FINAL_TEMPERATURE: f64 = 1e-3;
/// For cut-based objectives: refresh the cut pool every this many accepted
/// moves.
const CUT_POOL_REFRESH: u64 = 200;

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            seed: 0x5EED_0001,
            max_evaluations: 60_000,
            time_budget: Duration::from_secs(30),
        }
    }
}

impl AnnealConfig {
    /// A reduced-budget configuration for unit tests and doc examples.
    pub fn quick() -> Self {
        AnnealConfig {
            max_evaluations: 4_000,
            time_budget: Duration::from_secs(5),
            ..Default::default()
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best feasible topology found.
    pub topology: Topology,
    /// Exact objective value of that topology.
    pub objective: ObjectiveValue,
    /// Progress trace (incumbent score vs the supplied bound).
    pub progress: SolverProgress,
    /// Number of candidate evaluations performed.
    pub evaluations: u64,
}

/// The directed links a proposed move removed and added, in application
/// order.  Feeds [`TopoAnalysis::after_move`] so candidate evaluation can
/// update the incumbent's cached analysis instead of re-deriving it.
#[derive(Debug, Default)]
struct MoveLog {
    removed: Vec<(RouterId, RouterId)>,
    added: Vec<(RouterId, RouterId)>,
}

impl MoveLog {
    fn clear(&mut self) {
        self.removed.clear();
        self.added.clear();
    }
}

/// Run one annealing search.  `bound` is the combinatorial bound used for
/// gap reporting (see [`crate::bounds`]).
///
/// Instrumentation: each phase (calibration, annealing, polish) runs under
/// an `anneal.*` span, and the `anneal.evaluations`,
/// `anneal.moves.accepted`, `anneal.moves.rejected` and `anneal.reheats`
/// counters account for every scored candidate.  Counter totals are
/// deterministic per seed; pass [`Obs::noop`] to observe nothing.
pub fn anneal(
    problem: &GenerationProblem,
    config: &AnnealConfig,
    bound: f64,
    obs: &Obs,
) -> AnnealResult {
    let obs_evaluations = obs.counter("anneal.evaluations");
    let obs_accepted = obs.counter("anneal.moves.accepted");
    let obs_rejected = obs.counter("anneal.moves.rejected");
    let obs_reheats = obs.counter("anneal.reheats");
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let valid_links = problem.valid_links();
    assert!(
        !valid_links.is_empty(),
        "link class admits no links on this layout"
    );

    // Decompose the objective once; every candidate evaluation — exact or
    // cut-pool surrogate — scores these weighted terms against a cached
    // (delta-updated) analysis through the single shared code path.
    let terms: Vec<WeightedTerm> = problem.objective.decomposition();
    let needs_cut = terms.iter().any(|wt| wt.term.needs_cut());
    let score_of = |topo: &Topology, analysis: &TopoAnalysis, pool: &[Vec<bool>]| -> f64 {
        evaluate_weighted(&terms, topo, analysis, CutEval::Pool(pool)).score
    };

    let mut current = initial_topology(problem, &mut rng);
    let mut current_analysis = TopoAnalysis::new(&current);
    let mut cut_pool: Vec<Vec<bool>> = Vec::new();
    if needs_cut {
        seed_cut_pool(&current, &mut cut_pool);
    }
    let mut progress = SolverProgress::new();

    let mut current_score = score_of(&current, &current_analysis, &cut_pool);
    let mut best = current.clone();
    let mut best_analysis = current_analysis.clone();
    let mut best_score = current_score;
    progress.record(start.elapsed(), best_score, bound, 0);

    // Budget split: every candidate evaluation — calibration, annealing and
    // polish — counts against `max_evaluations`, so the configured budget is
    // an exact cap on objective evaluations.
    let calibration_budget = (config.max_evaluations / 8).min(64);
    let polish_budget = (config.max_evaluations / 4)
        .clamp(64, 8_192)
        .min(config.max_evaluations - calibration_budget);
    let sa_end = config.max_evaluations - polish_budget;
    let mut evaluations = 0u64;

    // Calibrate the temperature scale to this objective: sample the score
    // deltas of a handful of moves from the initial solution and use their
    // median magnitude as the unit.  LatOp deltas are fractions of a hop
    // while SCOp deltas are cut-scaled by 1e7, so a fixed absolute schedule
    // cannot serve both.
    let mut log = MoveLog::default();
    let mut calibration = obs.span("anneal.calibrate");
    let delta_scale = {
        let mut deltas: Vec<f64> = Vec::with_capacity(32);
        for _ in 0..calibration_budget {
            if start.elapsed() >= config.time_budget {
                break;
            }
            evaluations += 1;
            let mut candidate = current.clone();
            log.clear();
            if !propose_move(
                problem,
                &mut candidate,
                &current_analysis,
                &valid_links,
                &mut rng,
                &mut log,
            ) {
                continue;
            }
            let analysis = current_analysis.after_move(&candidate, &log.removed, &log.added);
            let d = (score_of(&candidate, &analysis, &cut_pool) - current_score).abs();
            if d > 1e-12 {
                deltas.push(d);
            }
            if deltas.len() >= 32 {
                break;
            }
        }
        if deltas.is_empty() {
            1.0
        } else {
            deltas.sort_by(f64::total_cmp);
            deltas[deltas.len() / 2]
        }
    };
    obs_evaluations.add(evaluations);
    calibration.attr("evaluations", evaluations);
    calibration.attr("delta_scale", delta_scale);
    calibration.close();

    let mut sa_span = obs.span("anneal.sa");
    let sa_phase_start = evaluations;
    let mut accepted = 0u64;
    // Stall-triggered reheating: when no new incumbent lands for a window,
    // restart the cooling schedule from the best topology over the
    // remaining horizon.  Cheap basin-hopping that stays inside the budget.
    let stall_window = (sa_end / 4).max(256);
    let mut last_improvement = evaluations;
    let mut schedule_anchor = evaluations;
    while evaluations < sa_end && start.elapsed() < config.time_budget {
        evaluations += 1;
        if evaluations - last_improvement > stall_window {
            current = best.clone();
            current_analysis = best_analysis.clone();
            current_score = score_of(&current, &current_analysis, &cut_pool);
            schedule_anchor = evaluations;
            last_improvement = evaluations;
            obs_reheats.incr();
        }
        let temperature = delta_scale
            * temperature_at(
                evaluations - schedule_anchor,
                (sa_end - schedule_anchor).max(1),
            );
        let mut candidate = current.clone();
        log.clear();
        if !propose_move(
            problem,
            &mut candidate,
            &current_analysis,
            &valid_links,
            &mut rng,
            &mut log,
        ) {
            continue;
        }
        let candidate_analysis = current_analysis.after_move(&candidate, &log.removed, &log.added);
        let candidate_score = score_of(&candidate, &candidate_analysis, &cut_pool);
        let delta = candidate_score - current_score;
        let accept = delta <= 0.0 || rng.gen_bool((-delta / temperature.max(1e-9)).exp().min(1.0));
        if accept {
            current = candidate;
            current_analysis = candidate_analysis;
            current_score = candidate_score;
            accepted += 1;
            if needs_cut && accepted.is_multiple_of(CUT_POOL_REFRESH) {
                refresh_cut_pool(&current, &mut cut_pool, &mut rng);
                // Pool change can alter the score scale; re-evaluate.
                current_score = score_of(&current, &current_analysis, &cut_pool);
                best_score = score_of(&best, &best_analysis, &cut_pool);
            }
            if current_score < best_score && current.is_valid() {
                best = current.clone();
                best_analysis = current_analysis.clone();
                best_score = current_score;
                last_improvement = evaluations;
                progress.record(start.elapsed(), best_score, bound, evaluations);
            }
            obs_accepted.incr();
        } else {
            obs_rejected.incr();
        }
    }
    obs_evaluations.add(evaluations - sa_phase_start);
    sa_span.attr("evaluations", evaluations - sa_phase_start);
    sa_span.attr("accepted", accepted);
    sa_span.close();

    // Zero-temperature polish: the SA tail leaves the incumbent a few moves
    // short of its local optimum, which makes low-budget runs noisy.  A
    // greedy descent that also drifts along equal-score plateaus (common
    // for hop-count objectives) converges every run onto a local optimum
    // without disturbing per-seed determinism; `best` only moves on strict
    // improvement, so the plateau walk can never lose ground.
    let sideways_eps = delta_scale * 1e-9;
    let mut polish_span = obs.span("anneal.polish");
    let polish_phase_start = evaluations;
    current = best.clone();
    current_analysis = best_analysis.clone();
    current_score = best_score;
    while evaluations < config.max_evaluations {
        if start.elapsed() >= config.time_budget {
            break;
        }
        evaluations += 1;
        let mut candidate = current.clone();
        log.clear();
        if !propose_move(
            problem,
            &mut candidate,
            &current_analysis,
            &valid_links,
            &mut rng,
            &mut log,
        ) {
            continue;
        }
        let candidate_analysis = current_analysis.after_move(&candidate, &log.removed, &log.added);
        let candidate_score = score_of(&candidate, &candidate_analysis, &cut_pool);
        if candidate_score <= current_score + sideways_eps {
            current = candidate;
            current_analysis = candidate_analysis;
            current_score = candidate_score;
            if current_score < best_score && current.is_valid() {
                // The cut pool is frozen during the polish phase, so the
                // incumbent analysis no longer needs to be carried along.
                best = current.clone();
                best_score = current_score;
                progress.record(start.elapsed(), best_score, bound, evaluations);
            }
            obs_accepted.incr();
        } else {
            obs_rejected.incr();
        }
    }
    obs_evaluations.add(evaluations - polish_phase_start);
    polish_span.attr("evaluations", evaluations - polish_phase_start);
    polish_span.close();

    // Exact re-evaluation of the final topology (the cut pool only ever
    // over-estimates the sparsest cut).
    let objective = problem.objective.evaluate(&best);
    progress.record(start.elapsed(), objective.score, bound, evaluations);
    AnnealResult {
        topology: best.with_name(problem.topology_name()),
        objective,
        progress,
        evaluations,
    }
}

/// Geometric temperature schedule.
fn temperature_at(evaluation: u64, horizon: u64) -> f64 {
    let frac = evaluation as f64 / horizon.max(1) as f64;
    INITIAL_TEMPERATURE * (FINAL_TEMPERATURE / INITIAL_TEMPERATURE).powf(frac)
}

/// Initial solution: a Hamiltonian ring of unit links for guaranteed
/// connectivity, then random valid links until the port budget is (mostly)
/// used, mimicking how aggressively the paper's topologies use the radix.
fn initial_topology(problem: &GenerationProblem, rng: &mut SmallRng) -> Topology {
    let mut topo = Topology::empty(
        problem.topology_name(),
        problem.layout.clone(),
        problem.class,
    );
    for (a, b) in netsmith_topo::expert::hamiltonian_ring(&problem.layout) {
        topo.add_bidirectional(a, b);
    }
    let mut candidates = problem.valid_links();
    candidates.shuffle(rng);
    for (a, b) in candidates {
        if problem.symmetric_links {
            if can_add(&topo, a, b) && can_add(&topo, b, a) {
                topo.add_bidirectional(a, b);
            }
        } else if can_add(&topo, a, b) {
            topo.add_link(a, b);
        }
    }
    topo
}

fn can_add(topo: &Topology, a: RouterId, b: RouterId) -> bool {
    a != b && !topo.has_link(a, b) && topo.free_out_ports(a) > 0 && topo.free_in_ports(b) > 0
}

/// Propose a random move in place; returns false when the move could not be
/// applied (caller simply retries with a new random draw).  `analysis` is
/// the analysis of `topo` as passed in.  On success the applied link
/// changes are recorded in `log` (a failed proposal restores the topology
/// and leaves whatever partial entries it logged — callers clear the log
/// before each proposal and ignore it on failure).
fn propose_move(
    problem: &GenerationProblem,
    topo: &mut Topology,
    analysis: &TopoAnalysis,
    valid_links: &[(RouterId, RouterId)],
    rng: &mut SmallRng,
    log: &mut MoveLog,
) -> bool {
    let kind = rng.gen_range(0..100);
    if problem.symmetric_links {
        propose_symmetric_move(topo, valid_links, rng, kind, log)
    } else {
        propose_asymmetric_move(topo, analysis, valid_links, rng, kind, log)
    }
}

/// The `k`-th directed link of `topo` in [`Topology::links`] order, with
/// `k` below the link count.  The out-degrees of `analysis` (which must be
/// `topo`'s) locate the router, so a lookup scans one row instead of the
/// whole adjacency.
fn nth_link(topo: &Topology, analysis: &TopoAnalysis, mut k: usize) -> (RouterId, RouterId) {
    let n = topo.num_routers();
    for a in 0..n {
        let degree = analysis.out_degree(a);
        if k < degree {
            let b = (0..n).filter(|&b| topo.has_link(a, b)).nth(k);
            return (a, b.expect("out-degrees match the topology"));
        }
        k -= degree;
    }
    panic!("link index past the link count");
}

fn propose_asymmetric_move(
    topo: &mut Topology,
    analysis: &TopoAnalysis,
    valid_links: &[(RouterId, RouterId)],
    rng: &mut SmallRng,
    kind: u32,
    log: &mut MoveLog,
) -> bool {
    // Links are drawn before the move changes anything, while `analysis`
    // still describes `topo`.
    let num_links = (0..topo.num_routers())
        .map(|r| analysis.out_degree(r))
        .sum();
    if kind < 55 {
        // Rewire: remove one random link, add a different valid link.
        if num_links == 0 {
            return false;
        }
        let (ra, rb) = nth_link(topo, analysis, rng.gen_range(0..num_links));
        topo.remove_link(ra, rb);
        for _ in 0..16 {
            let &(a, b) = &valid_links[rng.gen_range(0..valid_links.len())];
            if (a, b) != (ra, rb) && can_add(topo, a, b) {
                topo.add_link(a, b);
                log.removed.push((ra, rb));
                log.added.push((a, b));
                return true;
            }
        }
        // Could not find a replacement: restore and fail.
        topo.add_link(ra, rb);
        false
    } else if kind < 75 {
        // Add a link somewhere with free ports.
        for _ in 0..16 {
            let &(a, b) = &valid_links[rng.gen_range(0..valid_links.len())];
            if can_add(topo, a, b) {
                topo.add_link(a, b);
                log.added.push((a, b));
                return true;
            }
        }
        false
    } else if kind < 85 {
        // Remove a link.
        if num_links == 0 {
            return false;
        }
        let (a, b) = nth_link(topo, analysis, rng.gen_range(0..num_links));
        topo.remove_link(a, b);
        log.removed.push((a, b));
        true
    } else {
        // Endpoint swap: (a->b, c->d) becomes (a->d, c->b); preserves
        // degrees exactly.
        if num_links < 2 {
            return false;
        }
        for _ in 0..16 {
            let (a, b) = nth_link(topo, analysis, rng.gen_range(0..num_links));
            let (c, d) = nth_link(topo, analysis, rng.gen_range(0..num_links));
            if a == c || b == d || a == d || c == b {
                continue;
            }
            if topo.has_link(a, d) || topo.has_link(c, b) {
                continue;
            }
            // Both new links must respect the length class.
            let class = topo.class();
            let (dx1, dy1) = topo.layout().span(a, d);
            let (dx2, dy2) = topo.layout().span(c, b);
            if !class.allows(netsmith_topo::LinkSpan::new(dx1, dy1))
                || !class.allows(netsmith_topo::LinkSpan::new(dx2, dy2))
            {
                continue;
            }
            topo.remove_link(a, b);
            topo.remove_link(c, d);
            topo.add_link(a, d);
            topo.add_link(c, b);
            log.removed.push((a, b));
            log.removed.push((c, d));
            log.added.push((a, d));
            log.added.push((c, b));
            return true;
        }
        false
    }
}

fn propose_symmetric_move(
    topo: &mut Topology,
    valid_links: &[(RouterId, RouterId)],
    rng: &mut SmallRng,
    kind: u32,
    log: &mut MoveLog,
) -> bool {
    // Collect undirected pairs.
    let n = topo.num_routers();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if topo.has_link(i, j) && topo.has_link(j, i) {
                pairs.push((i, j));
            }
        }
    }
    if kind < 60 {
        // Rewire a pair.
        if pairs.is_empty() {
            return false;
        }
        let &(ra, rb) = &pairs[rng.gen_range(0..pairs.len())];
        topo.remove_link(ra, rb);
        topo.remove_link(rb, ra);
        for _ in 0..16 {
            let &(a, b) = &valid_links[rng.gen_range(0..valid_links.len())];
            if can_add(topo, a, b) && can_add(topo, b, a) {
                topo.add_bidirectional(a, b);
                // The replacement may be the pair just removed; that is a
                // no-op move and the analysis delta handles it exactly.
                if (a, b) != (ra, rb) && (b, a) != (ra, rb) {
                    log.removed.push((ra, rb));
                    log.removed.push((rb, ra));
                    log.added.push((a, b));
                    log.added.push((b, a));
                }
                return true;
            }
        }
        topo.add_bidirectional(ra, rb);
        false
    } else if kind < 85 {
        // Add a pair.
        for _ in 0..16 {
            let &(a, b) = &valid_links[rng.gen_range(0..valid_links.len())];
            if can_add(topo, a, b) && can_add(topo, b, a) {
                topo.add_bidirectional(a, b);
                log.added.push((a, b));
                log.added.push((b, a));
                return true;
            }
        }
        false
    } else {
        // Remove a pair.
        if pairs.is_empty() {
            return false;
        }
        let &(a, b) = &pairs[rng.gen_range(0..pairs.len())];
        topo.remove_link(a, b);
        topo.remove_link(b, a);
        log.removed.push((a, b));
        log.removed.push((b, a));
        true
    }
}

/// Seed the cut pool with a handful of natural partitions (halves by rows,
/// by columns, odd/even) plus one heuristic sparsest cut.
fn seed_cut_pool(topo: &Topology, pool: &mut Vec<Vec<bool>>) {
    let layout = topo.layout();
    let n = layout.num_routers();
    let rows = layout.rows();
    let cols = layout.cols();
    let mut add = |membership: Vec<bool>| {
        let count = membership.iter().filter(|&&x| x).count();
        if count > 0 && count < n && !pool.contains(&membership) {
            pool.push(membership);
        }
    };
    add((0..n).map(|r| layout.position(r).0 < rows / 2).collect());
    add((0..n).map(|r| layout.position(r).1 < cols / 2).collect());
    add((0..n).map(|r| r % 2 == 0).collect());
    let heuristic = cuts::sparsest_cut_heuristic(topo, 8, 0xC07);
    let mut membership = vec![false; n];
    for r in heuristic.partition {
        membership[r] = true;
    }
    add(membership);
}

/// Add the current heuristic sparsest cut of `topo` to the pool.
fn refresh_cut_pool(topo: &Topology, pool: &mut Vec<Vec<bool>>, rng: &mut SmallRng) {
    let n = topo.num_routers();
    let report = cuts::sparsest_cut_heuristic(topo, 4, rng.gen());
    let mut membership = vec![false; n];
    for r in report.partition {
        membership[r] = true;
    }
    if !pool.contains(&membership) {
        pool.push(membership);
    }
    // Keep the pool bounded.
    if pool.len() > 64 {
        pool.remove(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use netsmith_topo::expert;
    use netsmith_topo::{Layout, LinkClass};

    fn quick_problem(class: LinkClass, objective: Objective) -> GenerationProblem {
        GenerationProblem::new(Layout::noi_4x5(), class, objective)
    }

    #[test]
    fn annealer_returns_valid_connected_topologies() {
        let problem = quick_problem(LinkClass::Medium, Objective::LatOp);
        let result = anneal(&problem, &AnnealConfig::quick(), 0.0, &Obs::noop());
        assert!(
            result.topology.is_valid(),
            "{:?}",
            result.topology.validate()
        );
        assert!(result.objective.connected);
        assert!(result.evaluations > 0);
        assert_eq!(result.topology.name(), "NS-LatOp-medium");
    }

    #[test]
    fn annealer_is_deterministic_per_seed() {
        let problem = quick_problem(LinkClass::Small, Objective::LatOp);
        let cfg = AnnealConfig {
            max_evaluations: 1_500,
            ..AnnealConfig::quick()
        };
        let a = anneal(&problem, &cfg, 0.0, &Obs::noop());
        let b = anneal(&problem, &cfg, 0.0, &Obs::noop());
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.objective.total_hops, b.objective.total_hops);
    }

    #[test]
    fn counter_totals_are_deterministic_per_seed() {
        // The obs counters trace the annealing trajectory exactly (every
        // scored candidate is one evaluation, every applied move one
        // accept), so two runs with the same seed must produce identical
        // totals — and the evaluation counter must match the result's own
        // evaluation count.
        use netsmith_obs::MemoryRecorder;
        let problem = quick_problem(LinkClass::Small, Objective::LatOp);
        let cfg = AnnealConfig {
            max_evaluations: 1_500,
            ..AnnealConfig::quick()
        };
        let run = || {
            let recorder = MemoryRecorder::new();
            let result = anneal(&problem, &cfg, 0.0, &Obs::to(recorder.clone()));
            (result, recorder.snapshot())
        };
        let (result_a, snap_a) = run();
        let (result_b, snap_b) = run();
        assert_eq!(snap_a.counters, snap_b.counters);
        assert_eq!(snap_a.counter("anneal.evaluations"), result_a.evaluations);
        assert_eq!(snap_b.counter("anneal.evaluations"), result_b.evaluations);
        assert!(snap_a.counter("anneal.moves.accepted") > 0);
        assert!(snap_a.counter("anneal.moves.rejected") > 0);
        // Every phase span ran exactly once.
        for phase in ["anneal.calibrate", "anneal.sa", "anneal.polish"] {
            assert_eq!(snap_a.span_count(phase), 1, "{phase}");
        }
    }

    #[test]
    fn latop_annealing_beats_the_mesh_quickly() {
        let problem = quick_problem(LinkClass::Medium, Objective::LatOp);
        let result = anneal(&problem, &AnnealConfig::quick(), 0.0, &Obs::noop());
        let mesh_hops = netsmith_topo::metrics::average_hops(&expert::mesh(&Layout::noi_4x5()));
        assert!(
            result.objective.average_hops < mesh_hops,
            "NS {} vs mesh {mesh_hops}",
            result.objective.average_hops
        );
    }

    #[test]
    fn symmetric_mode_produces_symmetric_topologies() {
        let problem = quick_problem(LinkClass::Small, Objective::LatOp).with_symmetric_links(true);
        let result = anneal(&problem, &AnnealConfig::quick(), 0.0, &Obs::noop());
        assert!(result.topology.is_symmetric());
        assert!(result.topology.is_valid());
    }

    #[test]
    fn progress_trace_is_monotone_and_ends_with_exact_value() {
        let problem = quick_problem(LinkClass::Medium, Objective::LatOp);
        let result = anneal(&problem, &AnnealConfig::quick(), 100.0, &Obs::noop());
        let samples = result.progress.samples();
        assert!(!samples.is_empty());
        for w in samples.windows(2) {
            assert!(w[1].elapsed >= w[0].elapsed);
        }
        // Final recorded incumbent equals the exact objective score.
        assert!((samples.last().unwrap().incumbent - result.objective.score).abs() < 1e-6);
    }

    #[test]
    fn scop_annealing_reaches_reasonable_cut_values() {
        let problem = quick_problem(LinkClass::Large, Objective::SCOp);
        let cfg = AnnealConfig {
            max_evaluations: 2_500,
            ..AnnealConfig::quick()
        };
        let result = anneal(&problem, &cfg, 0.0, &Obs::noop());
        assert!(result.topology.is_valid());
        // The mesh's sparsest cut is a floor any sensible SCOp run beats.
        let mesh_cut = netsmith_topo::cuts::sparsest_cut(&expert::mesh(&Layout::noi_4x5()))
            .normalized_bandwidth;
        assert!(
            result.objective.sparsest_cut >= mesh_cut,
            "NS cut {} below mesh {mesh_cut}",
            result.objective.sparsest_cut
        );
    }
}
