//! Oracle equivalence for heuristic MCLB routing.
//!
//! `reference` below is a verbatim copy of the original `mclb_route`: link
//! loads as `f64` in a `HashMap`, rescanned in full by `objective()` for
//! every candidate path and compared with epsilons, 64 improvement sweeps
//! and 4 restarts.  The production engine must choose exactly the same path
//! for every flow.

use netsmith_route::paths::{all_shortest_paths, PathSet};
use netsmith_route::{mclb_route, MclbConfig, RoutingTable};
use netsmith_topo::{expert, Layout, Topology};
use proptest::prelude::*;

mod common;
use common::random_topology;

/// The original engine, kept as the test oracle.
mod reference {
    use netsmith_route::paths::{path_links, PathSet};
    use netsmith_route::{Flow, RoutingTable};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::HashMap;

    const MAX_SWEEPS: usize = 64;
    const RESTARTS: usize = 4;

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

    pub fn mclb_route(paths: &PathSet, seed: u64) -> RoutingTable {
        let flows: Vec<(usize, usize)> = paths.flows().collect();
        let mut best: Option<(RoutingTable, (f64, usize, f64))> = None;
        for restart in 0..RESTARTS {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(restart as u64));
            let table = single_run(paths, &flows, &mut rng, MAX_SWEEPS);
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
        let mut selected: HashMap<(usize, usize), usize> = HashMap::new();
        let mut loads: HashMap<(usize, usize), f64> = HashMap::new();

        let mut order: Vec<(usize, usize)> = flows.to_vec();
        order.shuffle(rng);
        order.sort_by_key(|&(s, d)| paths.paths(s, d).len());
        for &(s, d) in &order {
            let candidates = paths.paths(s, d);
            let mut best_idx = 0usize;
            let mut best_obj = (f64::INFINITY, usize::MAX, f64::INFINITY);
            for (idx, p) in candidates.iter().enumerate() {
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

        for _ in 0..max_sweeps {
            let current_obj = objective(&loads);
            let max_load = current_obj.0;
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
            table.set_path(Flow::new(s, d), paths.paths(s, d)[idx].to_vec());
        }
        table
    }
}

/// The production engine at `seed`, otherwise at its defaults.  The seed
/// is assigned rather than written as a struct literal so that this test
/// does not depend on which other fields `MclbConfig` has.
#[allow(clippy::field_reassign_with_default)]
fn production(paths: &PathSet, seed: u64) -> RoutingTable {
    let mut config = MclbConfig::default();
    config.seed = seed;
    mclb_route(paths, &config)
}

fn check_against_reference(topo: &Topology, seed: u64) {
    let paths = all_shortest_paths(topo);
    let got = production(&paths, seed);
    let want = reference::mclb_route(&paths, seed);
    assert_eq!(got, want, "{} seed {seed:#x}", topo.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mclb_matches_reference_on_random_topologies(seed in 0u64..10_000, extra in 0usize..24) {
        check_against_reference(&random_topology(seed, extra), seed);
    }
}

/// Every expert baseline on `layout`, at the seeds the pipeline, the repair
/// policy and the tests use plus the default seed.
fn check_expert_topologies(layout: &Layout) {
    for topo in expert::all_baselines(layout) {
        for seed in [1, 42, 0xFA17, MclbConfig::default().seed] {
            check_against_reference(&topo, seed);
        }
    }
}

#[test]
fn mclb_matches_reference_on_expert_topologies_4x5() {
    check_expert_topologies(&Layout::noi_4x5());
}

#[test]
fn mclb_matches_reference_on_expert_topologies_6x5() {
    check_expert_topologies(&Layout::noi_6x5());
}

#[test]
fn folded_torus_8x6_matches_reference() {
    check_against_reference(&expert::folded_torus(&Layout::noi_8x6()), 42);
}
