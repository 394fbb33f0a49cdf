//! Combinatorial lower/upper bounds on the achievable objective.
//!
//! Gurobi reports an "objective bounds gap" between its incumbent and the
//! best bound proven by the LP relaxation / branch-and-bound tree.  Our
//! combinatorial search engines pair their incumbents with bounds derived
//! from counting arguments instead:
//!
//! * **LatOp (total hops)** — a Moore-style bound: with out-radix `r`, at
//!   most `r` destinations can be one hop away from a source, at most `r^2`
//!   two hops away, and so on; additionally, no more destinations can be at
//!   distance `d` than there are routers within the physical reach of `d`
//!   link-length-budget hops.  Summing the per-source minima gives a lower
//!   bound on total hops no topology under the constraints can beat.
//! * **SCOp (sparsest cut)** — a cut between `k` and `n-k` routers
//!   carries at most `min(k, n-k) * r` links in each direction (each
//!   router has `r` ports), so the normalized sparsest cut is at most
//!   `min_k min(k, n-k) * r / (k * (n-k))`.  The link-length limit is not
//!   counted, which leaves this bound loose on small layouts.
//!
//! The bounds are cheap to compute and valid for *every* topology the
//! search can produce, so the reported gap is conservative (never smaller
//! than the true gap), exactly the property the paper relies on.

use crate::problem::GenerationProblem;
use netsmith_topo::traffic::DemandMatrix;
use netsmith_topo::LinkSpan;

/// Lower bound on the total hop count (sum over ordered pairs) achievable
/// by any topology satisfying the problem's radix and link-length limits.
pub fn latop_lower_bound(problem: &GenerationProblem) -> f64 {
    let layout = &problem.layout;
    let n = layout.num_routers();
    let radix = layout.radix();
    let mut total = 0u64;
    for src in 0..n {
        // Physical reachability: router j cannot be closer than
        // ceil(span / max_span_per_hop) hops from src.
        let max_span = problem.class.max_span();
        let mut physical_min: Vec<u32> = (0..n)
            .map(|dst| {
                if dst == src {
                    0
                } else {
                    let (dx, dy) = layout.span(src, dst);
                    min_hops_for_span(dx, dy, max_span)
                }
            })
            .collect();
        physical_min[src] = 0;

        // Radix (Moore) capacity per distance level: at most radix^d routers
        // can be exactly d hops away.
        // Assign destinations greedily: sort by physical minimum distance,
        // fill levels respecting both the physical minimum and the level
        // capacity.
        let mut dests: Vec<(u32, usize)> = (0..n)
            .filter(|&d| d != src)
            .map(|d| (physical_min[d], d))
            .collect();
        dests.sort_unstable();
        let mut level_capacity: Vec<u64> = Vec::new();
        let mut level = 1u32;
        let mut remaining = dests.len() as u64;
        let cap_at = |lvl: u32| -> u64 { (radix as u64).saturating_pow(lvl) };
        let mut level_used: Vec<u64> = vec![0];
        while remaining > 0 {
            level_capacity.push(cap_at(level));
            level_used.push(0);
            remaining = remaining.saturating_sub(cap_at(level));
            level += 1;
            if level > 64 {
                break;
            }
        }
        for (phys_min, _) in dests {
            // Place the destination at the earliest level >= phys_min with
            // spare capacity.
            let mut lvl = phys_min.max(1) as usize;
            loop {
                if lvl >= level_used.len() {
                    level_used.resize(lvl + 1, 0);
                    level_capacity.resize(lvl, 0);
                }
                let cap = (radix as u64).saturating_pow(lvl as u32);
                if level_used[lvl] < cap {
                    level_used[lvl] += 1;
                    total += lvl as u64;
                    break;
                }
                lvl += 1;
            }
        }
    }
    total as f64
}

/// Minimum number of hops needed to cover a grid span of `(dx, dy)` when a
/// single link may span at most `max` (canonical form, `max.dx >= max.dy`).
///
/// A hop can be oriented either way, so per hop the Manhattan distance
/// shrinks by at most `max.dx + max.dy` and the larger single-axis distance
/// by at most `max.dx`.  Both counting arguments give valid lower bounds;
/// their maximum is used.
pub(crate) fn min_hops_for_span(dx: usize, dy: usize, max: LinkSpan) -> u32 {
    if dx == 0 && dy == 0 {
        return 0;
    }
    let per_hop_manhattan = (max.dx + max.dy).max(1);
    let per_hop_axis = max.dx.max(max.dy).max(1);
    let by_manhattan = (dx + dy).div_ceil(per_hop_manhattan) as u32;
    let by_axis = dx.max(dy).div_ceil(per_hop_axis) as u32;
    by_manhattan.max(by_axis).max(1)
}

/// Lower bound on the demand-weighted hop score (`weighted_average_hops *
/// n * (n-1)`, the [`crate::terms::Term::PatternHops`] scale) achievable
/// under the link-length constraint: every pair's hop count is at least the
/// physical minimum `min_hops_for_span` dictates, so the demand-weighted
/// average is at least the demand-weighted physical minimum.
///
/// Unlike [`latop_lower_bound`] this makes no radix (Moore) argument — the
/// per-level counting would need to be redone per source against the demand
/// weights — so it stays admissible for arbitrarily skewed demand matrices
/// where the uniform-traffic bound is not.
pub fn pattern_latop_lower_bound(problem: &GenerationProblem, demand: &DemandMatrix) -> f64 {
    let layout = &problem.layout;
    let n = layout.num_routers();
    assert_eq!(demand.num_nodes(), n, "demand matrix size mismatch");
    let max_span = problem.class.max_span();
    let mut weighted_min = 0.0;
    let mut total_weight = 0.0;
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            let w = demand.demand(s, d);
            if w <= 0.0 {
                continue;
            }
            let (dx, dy) = layout.span(s, d);
            weighted_min += w * min_hops_for_span(dx, dy, max_span) as f64;
            total_weight += w;
        }
    }
    if total_weight == 0.0 {
        0.0
    } else {
        (weighted_min / total_weight) * (n as f64 * (n as f64 - 1.0))
    }
}

/// Upper bound on the normalized sparsest-cut bandwidth achievable by any
/// topology under the radix constraint.
pub fn scop_upper_bound(problem: &GenerationProblem) -> f64 {
    let n = problem.num_routers();
    let radix = problem.layout.radix() as f64;
    let mut best = f64::INFINITY;
    for k in 1..n {
        let crossing_cap = (k.min(n - k) as f64) * radix;
        let norm = crossing_cap / (k as f64 * (n - k) as f64);
        best = best.min(norm);
    }
    best
}

/// Lower bound on the average hop count, derived from
/// [`latop_lower_bound`].
pub fn average_hops_lower_bound(problem: &GenerationProblem) -> f64 {
    let n = problem.num_routers() as f64;
    latop_lower_bound(problem) / (n * (n - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use netsmith_topo::expert;
    use netsmith_topo::metrics;
    use netsmith_topo::{Layout, LinkClass};

    fn problem(class: LinkClass) -> GenerationProblem {
        GenerationProblem::new(Layout::noi_4x5(), class, Objective::LatOp)
    }

    #[test]
    fn latop_bound_is_below_every_expert_topology() {
        let layout = Layout::noi_4x5();
        for class in LinkClass::STANDARD {
            let bound = latop_lower_bound(&problem(class));
            for topo in expert::baselines_for_class(&layout, class) {
                let hops = metrics::total_hops(&topo).unwrap() as f64;
                assert!(
                    bound <= hops + 1e-9,
                    "bound {bound} exceeds {} total hops {hops}",
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn latop_bound_holds_on_larger_layouts_too() {
        // Regression test: the large-class bound must stay below dense
        // greedy topologies on the 6x5 and 8x6 layouts (a previous version
        // overestimated vertical reach of (2,1) links).
        for layout in [Layout::noi_6x5(), Layout::noi_8x6()] {
            let p = GenerationProblem::new(layout.clone(), LinkClass::Large, Objective::LatOp);
            let bound = latop_lower_bound(&p);
            let dense = expert::kite(&layout, LinkClass::Large);
            let hops = metrics::total_hops(&dense).unwrap() as f64;
            assert!(bound <= hops + 1e-9, "bound {bound} vs kite-large {hops}");
        }
    }

    #[test]
    fn latop_bound_grows_as_links_get_shorter() {
        let small = latop_lower_bound(&problem(LinkClass::Small));
        let large = latop_lower_bound(&problem(LinkClass::Large));
        assert!(small >= large);
    }

    #[test]
    fn latop_bound_is_meaningful() {
        // With radix 4 and 20 routers, at most 4 destinations can be 1 hop
        // away, so the average must exceed (4*1 + 15*2)/19 ~ 1.79.
        let bound = average_hops_lower_bound(&problem(LinkClass::Large));
        assert!(bound >= 1.7, "bound {bound}");
        assert!(bound <= 2.5);
    }

    #[test]
    fn pattern_bound_is_below_realized_shuffle_scores() {
        use netsmith_topo::traffic::TrafficPattern;
        let layout = Layout::noi_4x5();
        let shuffle = TrafficPattern::Shuffle.demand_matrix(&layout);
        for class in LinkClass::STANDARD {
            let p = GenerationProblem::new(
                layout.clone(),
                class,
                Objective::PatternLatOp(shuffle.clone()),
            );
            let bound = pattern_latop_lower_bound(&p, &shuffle);
            assert!(bound > 0.0);
            for topo in expert::baselines_for_class(&layout, class) {
                let score = Objective::PatternLatOp(shuffle.clone())
                    .evaluate(&topo)
                    .score;
                assert!(
                    bound <= score + 1e-9,
                    "{}: pattern bound {bound} exceeds realized {score}",
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn scop_bound_is_above_every_expert_topology() {
        let layout = Layout::noi_4x5();
        let p = problem(LinkClass::Large);
        let bound = scop_upper_bound(&p);
        for topo in expert::all_baselines(&layout) {
            let cut = netsmith_topo::cuts::sparsest_cut(&topo).normalized_bandwidth;
            assert!(
                cut <= bound + 1e-9,
                "{} cut {cut} above bound {bound}",
                topo.name()
            );
        }
    }

    #[test]
    fn min_hops_for_span_respects_budget() {
        let large = LinkSpan::new(2, 1);
        assert_eq!(min_hops_for_span(0, 0, large), 0);
        assert_eq!(min_hops_for_span(1, 0, large), 1);
        assert_eq!(min_hops_for_span(2, 1, large), 1);
        assert_eq!(min_hops_for_span(4, 0, large), 2);
        assert_eq!(min_hops_for_span(4, 3, large), 3);
        let medium = LinkSpan::new(2, 0);
        assert_eq!(min_hops_for_span(0, 3, medium), 2);
    }
}
