//! MCLB — Maximum Channel Load Bottleneck routing.
//!
//! NetSmith's routing contribution (Table III of the paper): given the set
//! of all shortest paths per flow, choose exactly one path per flow such
//! that the maximum channel load is minimized.  The paper solves this as a
//! MILP; [`mclb_route`] is a heuristic instead: greedy construction (flows
//! with the fewest alternatives are committed first) followed by up to 64
//! sweeps that re-route the flows crossing the hottest channels, run from
//! 4 seeded restarts with the best result kept.  A unit test checks it
//! against an enumeration of every path choice on a small instance.
//!
//! Every flow carries unit demand, so channel loads are small integers.
//! The heuristic keeps them in a `u32` array indexed by channel, together
//! with a histogram of load values, so the objective — (max load, channels
//! at max load, Σload²), compared as a plain tuple — is exact and costs
//! O(path length) to update when a path is added or removed.  A candidate
//! replaces the incumbent only on a strict improvement, so ties go to the
//! incumbent, then to the earliest candidate.

use crate::paths::{path_links, PathSet};
use crate::table::{Flow, RoutingTable};
use netsmith_topo::RouterId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Improvement sweeps per restart (fewer when a sweep changes nothing).
const MAX_SWEEPS: usize = 64;
/// Independent restarts, seeded `seed..seed + RESTARTS`; the best is kept.
const RESTARTS: u64 = 4;

/// Configuration for the heuristic MCLB engine.
#[derive(Debug, Clone)]
pub struct MclbConfig {
    /// RNG seed for tie-breaking and flow ordering.
    pub seed: u64,
}

impl Default for MclbConfig {
    fn default() -> Self {
        MclbConfig { seed: 0xC1A551C }
    }
}

/// (max load, channels at max load, Σload²), minimized lexicographically.
type Objective = (u32, u32, u64);

/// Unit-demand channel loads of a partial routing, with the objective
/// maintained incrementally.
struct Loads {
    n: usize,
    /// `load[a * n + b]` — flows routed over channel `a -> b`.
    load: Vec<u32>,
    /// `hist[l]` — entries of `load` equal to `l`.
    hist: Vec<u32>,
    max: u32,
    sumsq: u64,
}

impl Loads {
    /// Empty loads for `n` routers and at most `flows` flows.
    fn new(n: usize, flows: usize) -> Self {
        let mut hist = vec![0; flows + 1];
        hist[0] = (n * n) as u32;
        Loads {
            n,
            load: vec![0; n * n],
            hist,
            max: 0,
            sumsq: 0,
        }
    }

    fn add(&mut self, path: &[RouterId]) {
        for (a, b) in path_links(path) {
            let l = &mut self.load[a * self.n + b];
            self.hist[*l as usize] -= 1;
            self.sumsq += 2 * u64::from(*l) + 1;
            *l += 1;
            self.hist[*l as usize] += 1;
            self.max = self.max.max(*l);
        }
    }

    fn remove(&mut self, path: &[RouterId]) {
        for (a, b) in path_links(path) {
            let l = &mut self.load[a * self.n + b];
            self.hist[*l as usize] -= 1;
            if *l == self.max && self.hist[*l as usize] == 0 {
                self.max -= 1;
            }
            *l -= 1;
            self.sumsq -= 2 * u64::from(*l) + 1;
            self.hist[*l as usize] += 1;
        }
    }

    fn objective(&self) -> Objective {
        (self.max, self.hist[self.max as usize], self.sumsq)
    }

    /// The objective with `path` added, leaving the loads unchanged.
    fn objective_with(&mut self, path: &[RouterId]) -> Objective {
        self.add(path);
        let obj = self.objective();
        self.remove(path);
        obj
    }

    /// The candidate whose addition gives the smallest objective.
    /// `incumbent` is tried first and the others follow in index order; a
    /// later candidate wins only on a strict improvement.
    fn best_candidate(&mut self, candidates: &[Vec<RouterId>], incumbent: usize) -> usize {
        if candidates.len() < 2 {
            return incumbent;
        }
        let mut best = (incumbent, self.objective_with(&candidates[incumbent]));
        for (idx, p) in candidates.iter().enumerate() {
            if idx != incumbent {
                let obj = self.objective_with(p);
                if obj < best.1 {
                    best = (idx, obj);
                }
            }
        }
        best.0
    }
}

/// Heuristic MCLB routing over all flows with unit demand.
pub fn mclb_route(paths: &PathSet, config: &MclbConfig) -> RoutingTable {
    let flows: Vec<(RouterId, RouterId)> = paths.flows().collect();
    let mut best: Option<(Objective, Vec<usize>)> = None;
    for restart in 0..RESTARTS {
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(restart));
        let run = single_run(paths, &flows, &mut rng);
        if best.as_ref().is_none_or(|cur| run.0 < cur.0) {
            best = Some(run);
        }
    }
    let (_, selected) = best.expect("at least one restart");
    let mut table = RoutingTable::new(paths.num_routers(), "MCLB");
    for (&(s, d), idx) in flows.iter().zip(selected) {
        table.set_path(Flow::new(s, d), paths.paths(s, d)[idx].clone());
    }
    table
}

/// One greedy construction plus improvement sweeps; returns the final
/// objective and the selected path index of every flow.
fn single_run(
    paths: &PathSet,
    flows: &[(RouterId, RouterId)],
    rng: &mut SmallRng,
) -> (Objective, Vec<usize>) {
    let candidates = |f: usize| paths.paths(flows[f].0, flows[f].1);
    let mut loads = Loads::new(paths.num_routers(), flows.len());
    let mut selected = vec![0usize; flows.len()];

    // Greedy construction: commit constrained flows (fewest alternatives)
    // first; break ties randomly.
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.shuffle(rng);
    order.sort_by_key(|&f| candidates(f).len());
    for &f in &order {
        selected[f] = loads.best_candidate(candidates(f), 0);
        loads.add(&candidates(f)[selected[f]]);
    }

    // Local improvement: re-route flows that cross the hottest channels.
    for _ in 0..MAX_SWEEPS {
        let max = loads.max;
        let hot_flows: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&f| {
                path_links(&candidates(f)[selected[f]])
                    .any(|(a, b)| loads.load[a * loads.n + b] == max)
            })
            .collect();
        let mut improved = false;
        for f in hot_flows {
            let current = selected[f];
            loads.remove(&candidates(f)[current]);
            selected[f] = loads.best_candidate(candidates(f), current);
            loads.add(&candidates(f)[selected[f]]);
            improved |= selected[f] != current;
        }
        if !improved {
            break;
        }
    }
    (loads.objective(), selected)
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

    /// The smallest unit-demand maximum channel load over every choice of
    /// one shortest path per flow (a branch stops once it is no better
    /// than the best complete choice so far).
    fn brute_force_max_load(ps: &PathSet) -> u32 {
        fn search(ps: &PathSet, flows: &[Flow], loads: &mut Loads, best: &mut u32) {
            if loads.max >= *best {
                return;
            }
            let Some((f, rest)) = flows.split_first() else {
                *best = loads.max;
                return;
            };
            for p in ps.paths(f.src, f.dst) {
                loads.add(p);
                search(ps, rest, loads, best);
                loads.remove(p);
            }
        }
        let flows: Vec<_> = ps.flows().map(|(s, d)| Flow::new(s, d)).collect();
        let mut best = u32::MAX;
        let mut loads = Loads::new(ps.num_routers(), flows.len());
        search(ps, &flows, &mut loads, &mut best);
        best
    }

    #[test]
    fn heuristic_matches_an_enumeration_of_every_path_choice() {
        // A 2x3 ring with one chord: small enough to try every path choice.
        let layout = Layout::interposer_grid(2, 3, 4);
        let mut t = Topology::empty("small", layout, LinkClass::Large);
        for (a, b) in [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3), (3, 0), (1, 4)] {
            t.add_bidirectional(a, b);
        }
        let ps = all_shortest_paths(&t);
        let heuristic = mclb_route(&ps, &MclbConfig::default());
        heuristic.validate(&t).unwrap();
        let mut loads = Loads::new(ps.num_routers(), ps.flows().count());
        for (_, p) in heuristic.flows() {
            loads.add(p);
        }
        assert_eq!(loads.max, brute_force_max_load(&ps));
    }

    #[test]
    fn mclb_is_deterministic_for_a_seed() {
        let kite = expert::kite_medium(&Layout::noi_4x5());
        let ps = all_shortest_paths(&kite);
        let cfg = MclbConfig { seed: 9 };
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
