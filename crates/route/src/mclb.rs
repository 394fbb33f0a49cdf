//! MCLB — Maximum Channel Load Bottleneck routing.
//!
//! NetSmith's routing contribution (Table III of the paper): given the set
//! of all shortest paths per flow, choose exactly one path per flow such
//! that the maximum channel load is minimized.  Two engines are provided:
//!
//! * [`mclb_route_milp`] — the exact MILP from Table III lowered onto
//!   `netsmith-lp`.  Because the path set is enumerated up front (the key
//!   simplification the paper highlights versus earlier formulations), the
//!   model only needs one binary per candidate path, a load expression per
//!   channel, and a min-max objective.  Intended for small instances and
//!   for validating the heuristic engine.
//! * [`mclb_route`] — the production engine: greedy construction (flows
//!   with the fewest alternatives are committed first) followed by
//!   iterative re-routing of flows that cross the hottest channels.  On the
//!   paper's 20-router topologies this converges in milliseconds and, on
//!   instances small enough to verify, matches the MILP optimum.

use crate::paths::{path_links, PathSet};
use crate::table::{Flow, RoutingTable};
use netsmith_lp::{BranchBoundConfig, Cmp, LinExpr, MilpSolver, Model, Sense, VarType};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

/// Configuration for the heuristic MCLB engine.
#[derive(Debug, Clone)]
pub struct MclbConfig {
    /// RNG seed for tie-breaking and flow ordering.
    pub seed: u64,
    /// Maximum number of improvement sweeps.
    pub max_sweeps: usize,
    /// Number of independent restarts; the best result is kept.
    pub restarts: usize,
}

impl Default for MclbConfig {
    fn default() -> Self {
        MclbConfig {
            seed: 0xC1A551C,
            max_sweeps: 64,
            restarts: 4,
        }
    }
}

/// Objective tuple compared lexicographically: (max load, number of
/// channels at max load, sum of squared loads).
fn objective(loads: &HashMap<(usize, usize), f64>) -> (f64, usize, f64) {
    let mut max = 0.0f64;
    for &l in loads.values() {
        if l > max {
            max = l;
        }
    }
    let at_max = loads.values().filter(|&&l| (l - max).abs() < 1e-9).count();
    let sumsq = loads.values().map(|&l| l * l).sum();
    (max, at_max, sumsq)
}

fn better(a: (f64, usize, f64), b: (f64, usize, f64)) -> bool {
    if a.0 < b.0 - 1e-12 {
        return true;
    }
    if a.0 > b.0 + 1e-12 {
        return false;
    }
    if a.1 < b.1 {
        return true;
    }
    if a.1 > b.1 {
        return false;
    }
    a.2 < b.2 - 1e-12
}

/// Heuristic MCLB routing over all flows with unit demand.
pub fn mclb_route(paths: &PathSet, config: &MclbConfig) -> RoutingTable {
    let flows: Vec<(usize, usize)> = paths.flows().collect();
    let mut best: Option<(RoutingTable, (f64, usize, f64))> = None;
    for restart in 0..config.restarts.max(1) {
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(restart as u64));
        let table = single_run(paths, &flows, &mut rng, config.max_sweeps);
        let loads = link_loads(&table);
        let obj = objective(&loads);
        if best.as_ref().is_none_or(|(_, cur)| better(obj, *cur)) {
            best = Some((table, obj));
        }
    }
    best.expect("at least one restart").0
}

fn link_loads(table: &RoutingTable) -> HashMap<(usize, usize), f64> {
    let mut loads = HashMap::new();
    for (_, path) in table.flows() {
        for (a, b) in path_links(path) {
            *loads.entry((a, b)).or_insert(0.0) += 1.0;
        }
    }
    loads
}

fn single_run(
    paths: &PathSet,
    flows: &[(usize, usize)],
    rng: &mut SmallRng,
    max_sweeps: usize,
) -> RoutingTable {
    let n = paths.num_routers();
    let mut table = RoutingTable::new(n, "MCLB");
    // Selected path index per flow.
    let mut selected: HashMap<(usize, usize), usize> = HashMap::new();
    let mut loads: HashMap<(usize, usize), f64> = HashMap::new();

    // Greedy construction: commit constrained flows (fewest alternatives)
    // first; break ties randomly.
    let mut order: Vec<(usize, usize)> = flows.to_vec();
    order.shuffle(rng);
    order.sort_by_key(|&(s, d)| paths.paths(s, d).len());
    for &(s, d) in &order {
        let candidates = paths.paths(s, d);
        let mut best_idx = 0usize;
        let mut best_obj = (f64::INFINITY, usize::MAX, f64::INFINITY);
        for (idx, p) in candidates.iter().enumerate() {
            // Apply tentatively.
            for (a, b) in path_links(p) {
                *loads.entry((a, b)).or_insert(0.0) += 1.0;
            }
            let obj = objective(&loads);
            for (a, b) in path_links(p) {
                *loads.get_mut(&(a, b)).unwrap() -= 1.0;
            }
            if better(obj, best_obj) {
                best_obj = obj;
                best_idx = idx;
            }
        }
        selected.insert((s, d), best_idx);
        for (a, b) in path_links(&candidates[best_idx]) {
            *loads.entry((a, b)).or_insert(0.0) += 1.0;
        }
    }

    // Local improvement: re-route flows that cross the hottest channels.
    for _ in 0..max_sweeps {
        let current_obj = objective(&loads);
        let max_load = current_obj.0;
        // Flows crossing any channel at max load.
        let hot_flows: Vec<(usize, usize)> = order
            .iter()
            .copied()
            .filter(|&(s, d)| {
                let idx = selected[&(s, d)];
                path_links(&paths.paths(s, d)[idx])
                    .any(|link| loads.get(&link).copied().unwrap_or(0.0) >= max_load - 1e-9)
            })
            .collect();
        let mut improved = false;
        for (s, d) in hot_flows {
            let candidates = paths.paths(s, d);
            if candidates.len() < 2 {
                continue;
            }
            let cur_idx = selected[&(s, d)];
            // Remove current contribution.
            for (a, b) in path_links(&candidates[cur_idx]) {
                *loads.get_mut(&(a, b)).unwrap() -= 1.0;
            }
            let mut best_idx = cur_idx;
            let mut best_obj = {
                for (a, b) in path_links(&candidates[cur_idx]) {
                    *loads.entry((a, b)).or_insert(0.0) += 1.0;
                }
                let o = objective(&loads);
                for (a, b) in path_links(&candidates[cur_idx]) {
                    *loads.get_mut(&(a, b)).unwrap() -= 1.0;
                }
                o
            };
            for (idx, p) in candidates.iter().enumerate() {
                if idx == cur_idx {
                    continue;
                }
                for (a, b) in path_links(p) {
                    *loads.entry((a, b)).or_insert(0.0) += 1.0;
                }
                let obj = objective(&loads);
                for (a, b) in path_links(p) {
                    *loads.get_mut(&(a, b)).unwrap() -= 1.0;
                }
                if better(obj, best_obj) {
                    best_obj = obj;
                    best_idx = idx;
                }
            }
            // Commit the best path back.
            for (a, b) in path_links(&candidates[best_idx]) {
                *loads.entry((a, b)).or_insert(0.0) += 1.0;
            }
            if best_idx != cur_idx {
                selected.insert((s, d), best_idx);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    for (&(s, d), &idx) in &selected {
        table.set_path(Flow::new(s, d), paths.paths(s, d)[idx].clone());
    }
    table
}

/// Exact MCLB via the MILP of Table III.  Only practical for small
/// networks; returns `None` when the solver hits its budget without an
/// incumbent.
pub fn mclb_route_milp(paths: &PathSet, time_limit: Duration) -> Option<RoutingTable> {
    let n = paths.num_routers();
    let mut model = Model::new(Sense::Minimize);
    // The min-max objective variable C_total (O1).
    let cmax = model.add_var(VarType::Continuous, 0.0, f64::INFINITY, 1.0, "cmax");

    // One binary per candidate path (path_used, C3/C4 of Table III).
    let mut path_vars: HashMap<(usize, usize), Vec<netsmith_lp::VarId>> = HashMap::new();
    // Channel load expressions (C1).
    let mut channel_exprs: HashMap<(usize, usize), LinExpr> = HashMap::new();
    for (s, d) in paths.flows() {
        let mut vars = Vec::new();
        for (idx, p) in paths.paths(s, d).iter().enumerate() {
            let v = model.add_binary(0.0, format!("p_{s}_{d}_{idx}"));
            vars.push(v);
            for (a, b) in path_links(p) {
                channel_exprs.entry((a, b)).or_default().add_term(v, 1.0);
            }
        }
        // Exactly one path per flow (C4).
        model.add_constr(LinExpr::sum(vars.iter().copied()), Cmp::Eq, 1.0);
        path_vars.insert((s, d), vars);
    }
    // cmax >= channel load for every channel (O1 lowering).
    for (_, expr) in channel_exprs.iter() {
        let mut e = expr.clone();
        e.add_term(cmax, -1.0);
        model.add_constr(e, Cmp::Le, 0.0);
    }

    let solver = MilpSolver::new(BranchBoundConfig {
        time_limit,
        ..Default::default()
    });
    let sol = solver.solve(&model).ok()?;
    if !sol.status.has_solution() {
        return None;
    }
    let mut table = RoutingTable::new(n, "MCLB-MILP");
    for ((s, d), vars) in &path_vars {
        let chosen = vars
            .iter()
            .position(|v| sol.values[v.index()] > 0.5)
            .unwrap_or(0);
        table.set_path(Flow::new(*s, *d), paths.paths(*s, *d)[chosen].clone());
    }
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::all_shortest_paths;
    use netsmith_topo::expert;
    use netsmith_topo::{Layout, LinkClass, Topology};

    #[test]
    fn mclb_routes_every_flow_on_mesh() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        assert!(table.is_complete());
        table.validate(&mesh).unwrap();
        // Paths remain shortest.
        for (f, p) in table.flows() {
            assert_eq!(
                (p.len() - 1) as u32,
                ps.distance(f.src, f.dst).unwrap(),
                "flow {:?} not shortest",
                f
            );
        }
    }

    #[test]
    fn mclb_beats_or_matches_arbitrary_first_path_selection() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let ps = all_shortest_paths(&torus);
        // Naive: always the first enumerated path.
        let mut naive = RoutingTable::new(20, "first");
        for (s, d) in ps.flows() {
            naive.set_path(Flow::new(s, d), ps.paths(s, d)[0].clone());
        }
        let mclb = mclb_route(&ps, &MclbConfig::default());
        let naive_max = naive.uniform_channel_loads().max_load;
        let mclb_max = mclb.uniform_channel_loads().max_load;
        assert!(
            mclb_max <= naive_max + 1e-12,
            "mclb {mclb_max} vs naive {naive_max}"
        );
    }

    #[test]
    fn milp_and_heuristic_agree_on_a_small_instance() {
        // 2x3 ring-ish topology small enough for the exact MILP.
        let layout = Layout::interposer_grid(2, 3, 4);
        let mut t = Topology::empty("small", layout, LinkClass::Large);
        for (a, b) in [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3), (3, 0), (1, 4)] {
            t.add_bidirectional(a, b);
        }
        let ps = all_shortest_paths(&t);
        let heuristic = mclb_route(&ps, &MclbConfig::default());
        let exact = mclb_route_milp(&ps, Duration::from_secs(30)).expect("milp solved");
        let h = heuristic.uniform_channel_loads().max_load;
        let e = exact.uniform_channel_loads().max_load;
        assert!((h - e).abs() < 1e-9, "heuristic {h} differs from exact {e}");
        exact.validate(&t).unwrap();
    }

    #[test]
    fn mclb_is_deterministic_for_a_seed() {
        let kite = expert::kite_medium(&Layout::noi_4x5());
        let ps = all_shortest_paths(&kite);
        let cfg = MclbConfig {
            seed: 9,
            ..Default::default()
        };
        let a = mclb_route(&ps, &cfg);
        let b = mclb_route(&ps, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn saturation_estimate_improves_with_mclb_on_irregular_topologies() {
        // Build an asymmetric-ish topology by removing a couple of reverse
        // links from a kite; MCLB must still route and spread load.
        let layout = Layout::noi_4x5();
        let mut t = expert::kite_large(&layout);
        let links: Vec<(usize, usize)> = t.links().collect();
        t.remove_link(links[0].0, links[0].1);
        if !netsmith_topo::metrics::is_strongly_connected(&t) {
            t.add_link(links[0].0, links[0].1);
        }
        let ps = all_shortest_paths(&t);
        let table = mclb_route(&ps, &MclbConfig::default());
        assert!(table.is_complete());
        assert!(table.uniform_channel_loads().saturation_injection_rate() > 0.0);
    }
}
