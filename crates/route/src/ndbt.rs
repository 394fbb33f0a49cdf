//! "No double-back turns" (NDBT) heuristic routing.
//!
//! The expert-designed interposer topologies (Kite, Butter Donut, Double
//! Butterfly, Folded Torus) all use shortest-path routing constrained by a
//! turn rule: a route may never *double back* along the horizontal axis,
//! i.e. once a packet has moved towards larger column indices it may not
//! later move towards smaller ones (and vice versa).  Among the remaining
//! valid shortest paths, one is selected uniformly at random (the paper
//! assumes random selection).  The rule restricts the channel dependency
//! graph enough that a small number of escape VCs suffices for deadlock
//! freedom on those semi-regular networks.

use crate::paths::PathSet;
use crate::table::{Flow, RoutingTable};
use netsmith_topo::{Layout, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Does a path double back along the horizontal (column) axis?
fn doubles_back_horizontally(layout: &Layout, path: &[RouterId]) -> bool {
    let mut direction: i32 = 0; // -1 = moving left, +1 = moving right
    for w in path.windows(2) {
        let (_, c0) = layout.position(w[0]);
        let (_, c1) = layout.position(w[1]);
        let step = (c1 as i64 - c0 as i64).signum() as i32;
        if step == 0 {
            continue;
        }
        if direction == 0 {
            direction = step;
        } else if step != direction {
            return true;
        }
    }
    false
}

/// Build an NDBT routing table: for every flow, pick a random shortest path
/// that respects the no-double-back rule.  When no shortest path satisfies
/// the rule (possible on very irregular machine-generated topologies), the
/// flow falls back to an unconstrained shortest path; the number of such
/// fallbacks is returned alongside the table.
pub fn ndbt_route(layout: &Layout, paths: &PathSet, seed: u64) -> (RoutingTable, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut table = RoutingTable::new(paths.num_routers(), "NDBT");
    let mut fallbacks = 0usize;
    for (s, d) in paths.flows() {
        let candidates = paths.paths(s, d);
        let valid: Vec<&[RouterId]> = candidates
            .iter()
            .filter(|p| !doubles_back_horizontally(layout, p))
            .collect();
        let chosen = if valid.is_empty() {
            fallbacks += 1;
            &candidates[rng.gen_range(0..candidates.len())]
        } else {
            valid[rng.gen_range(0..valid.len())]
        };
        table.set_path(Flow::new(s, d), chosen.to_vec());
    }
    (table, fallbacks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::all_shortest_paths;
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    #[test]
    fn straight_paths_never_double_back() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let ps = all_shortest_paths(&mesh);
        for p in ps.paths(layout.router_at(0, 0), layout.router_at(0, 4)) {
            assert!(!doubles_back_horizontally(&layout, p));
        }
    }

    #[test]
    fn explicit_double_back_is_detected() {
        let layout = Layout::noi_4x5();
        // right, right, left  (columns 0 -> 1 -> 2 -> 1)
        let path = vec![
            layout.router_at(0, 0),
            layout.router_at(0, 1),
            layout.router_at(0, 2),
            layout.router_at(0, 1),
        ];
        assert!(doubles_back_horizontally(&layout, &path));
        // purely vertical moves never double back horizontally
        let vertical = vec![
            layout.router_at(0, 0),
            layout.router_at(1, 0),
            layout.router_at(2, 0),
        ];
        assert!(!doubles_back_horizontally(&layout, &vertical));
    }

    #[test]
    fn mesh_ndbt_requires_no_fallbacks_and_is_complete() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let ps = all_shortest_paths(&mesh);
        let (table, fallbacks) = ndbt_route(&layout, &ps, 1);
        assert_eq!(fallbacks, 0, "mesh shortest paths are monotone in x");
        assert!(table.is_complete());
        table.validate(&mesh).unwrap();
    }

    #[test]
    fn expert_topologies_route_with_few_fallbacks() {
        let layout = Layout::noi_4x5();
        for topo in [
            expert::folded_torus(&layout),
            expert::butter_donut(&layout),
            expert::double_butterfly(&layout),
            expert::kite_large(&layout),
        ] {
            let ps = all_shortest_paths(&topo);
            let (table, fallbacks) = ndbt_route(&layout, &ps, 7);
            assert!(table.is_complete(), "{} incomplete", topo.name());
            table.validate(&topo).unwrap();
            // The rule must not force fallbacks for the vast majority of
            // flows.  (Our Double Butterfly reconstruction relies on long
            // links whose shortest paths occasionally must double back,
            // hence the generous bound.)
            assert!(
                (fallbacks as f64) < 0.35 * 380.0,
                "{}: {} fallbacks",
                topo.name(),
                fallbacks
            );
        }
    }

    #[test]
    fn ndbt_is_deterministic_per_seed() {
        let layout = Layout::noi_4x5();
        let torus = expert::folded_torus(&layout);
        let ps = all_shortest_paths(&torus);
        let (a, _) = ndbt_route(&layout, &ps, 42);
        let (b, _) = ndbt_route(&layout, &ps, 42);
        let (c, _) = ndbt_route(&layout, &ps, 43);
        assert_eq!(a, b);
        // Different seeds usually pick at least one different path.
        let differs = a.flows().zip(c.flows()).any(|((_, pa), (_, pc))| pa != pc);
        assert!(differs);
    }
}
