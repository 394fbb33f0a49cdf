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
//! Every candidate path is lowered once per call to a chain of dense
//! channel ids, which all restarts share.  Every flow carries unit demand,
//! so channel loads are small integers: the heuristic keeps them in a
//! `u32` array indexed by channel, together with a histogram of load
//! values, so the objective — (max load, channels at max load, Σload²),
//! compared as a plain tuple — is exact and costs O(path length) to update
//! when a path is added or removed.
//!
//! A candidate is scored without touching the loads.  A shortest path
//! crosses each channel at most once, so adding it raises each of its
//! channel loads `l` by one, and with `max` the current maximum and
//! `hist[max]` the channels at it:
//!
//! * max' = max + 1 if the path crosses a channel at `max`, else `max`;
//! * count' = the path's channels at `max` when max' > max, else
//!   `hist[max]` + the path's channels at `max - 1`;
//! * Σl²' = Σl² + Σ(2l + 1) over the path's channels.
//!
//! A candidate replaces the incumbent only on a strict improvement, so ties
//! go to the incumbent, then to the earliest candidate.

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

/// Every flow's candidate paths as chains of dense channel ids.
struct Candidates {
    /// The chains of every candidate, back to back, flow by flow in
    /// [`PathSet::flows`] order and each flow's candidates in path order.
    chans: Vec<u32>,
    /// `start[f]`: where flow `f`'s candidates begin in `chans`.
    start: Vec<usize>,
    /// `hops[f]`: channels per candidate of flow `f` (all are shortest).
    hops: Vec<usize>,
    /// `count[f]`: candidates of flow `f`.
    count: Vec<usize>,
    num_channels: usize,
}

impl Candidates {
    fn lower(paths: &PathSet, flows: &[(RouterId, RouterId)]) -> Self {
        let n = paths.num_routers();
        let mut id = vec![u32::MAX; n * n];
        let mut lowered = Candidates {
            chans: Vec::new(),
            start: Vec::with_capacity(flows.len()),
            hops: Vec::with_capacity(flows.len()),
            count: Vec::with_capacity(flows.len()),
            num_channels: 0,
        };
        for &(s, d) in flows {
            let candidates = paths.paths(s, d);
            lowered.start.push(lowered.chans.len());
            for p in candidates.iter() {
                for (a, b) in path_links(p) {
                    let slot = &mut id[a * n + b];
                    if *slot == u32::MAX {
                        *slot = lowered.num_channels as u32;
                        lowered.num_channels += 1;
                    }
                    lowered.chans.push(*slot);
                }
            }
            lowered.hops.push(candidates[0].len() - 1);
            lowered.count.push(candidates.len());
        }
        lowered
    }

    /// Candidate `i` of flow `f`.
    fn path(&self, f: usize, i: usize) -> &[u32] {
        let at = self.start[f] + i * self.hops[f];
        &self.chans[at..at + self.hops[f]]
    }
}

/// Unit-demand channel loads of a partial routing, with the objective
/// maintained incrementally.
struct Loads {
    /// `load[c]` — flows routed over channel `c`.
    load: Vec<u32>,
    /// `hist[l]` — entries of `load` equal to `l`.
    hist: Vec<u32>,
    max: u32,
    sumsq: u64,
}

impl Loads {
    /// Empty loads for `channels` channels and at most `flows` flows.
    fn new(channels: usize, flows: usize) -> Self {
        let mut hist = vec![0; flows + 1];
        hist[0] = channels as u32;
        Loads {
            load: vec![0; channels],
            hist,
            max: 0,
            sumsq: 0,
        }
    }

    fn add(&mut self, chain: &[u32]) {
        for &c in chain {
            let l = &mut self.load[c as usize];
            self.hist[*l as usize] -= 1;
            self.sumsq += 2 * u64::from(*l) + 1;
            *l += 1;
            self.hist[*l as usize] += 1;
            self.max = self.max.max(*l);
        }
    }

    fn remove(&mut self, chain: &[u32]) {
        for &c in chain {
            let l = &mut self.load[c as usize];
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

    /// The objective with `chain` (a path: no channel twice) added,
    /// computed from the loads it crosses without changing them.
    fn score(&self, chain: &[u32]) -> Objective {
        let (mut at_max, mut below_max, mut sum) = (0u32, 0u32, 0u64);
        for &c in chain {
            let l = self.load[c as usize];
            at_max += u32::from(l == self.max);
            below_max += u32::from(l + 1 == self.max);
            sum += u64::from(l);
        }
        let sumsq = self.sumsq + 2 * sum + chain.len() as u64;
        if at_max > 0 {
            (self.max + 1, at_max, sumsq)
        } else {
            (self.max, self.hist[self.max as usize] + below_max, sumsq)
        }
    }

    /// The candidate of flow `f` whose addition gives the smallest
    /// objective.  `incumbent` is tried first and the others follow in
    /// index order; a later candidate wins only on a strict improvement.
    fn best_candidate(&self, candidates: &Candidates, f: usize, incumbent: usize) -> usize {
        let count = candidates.count[f];
        if count < 2 {
            return incumbent;
        }
        let mut best = (incumbent, self.score(candidates.path(f, incumbent)));
        for idx in (0..count).filter(|&idx| idx != incumbent) {
            let obj = self.score(candidates.path(f, idx));
            if obj < best.1 {
                best = (idx, obj);
            }
        }
        best.0
    }
}

/// Heuristic MCLB routing over all flows with unit demand.
pub fn mclb_route(paths: &PathSet, config: &MclbConfig) -> RoutingTable {
    let flows: Vec<(RouterId, RouterId)> = paths.flows().collect();
    let candidates = Candidates::lower(paths, &flows);
    let mut best: Option<(Objective, Vec<usize>)> = None;
    for restart in 0..RESTARTS {
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(restart));
        let run = single_run(&candidates, &mut rng);
        if best.as_ref().is_none_or(|cur| run.0 < cur.0) {
            best = Some(run);
        }
    }
    let (_, selected) = best.expect("at least one restart");
    let mut table = RoutingTable::new(paths.num_routers(), "MCLB");
    for (&(s, d), idx) in flows.iter().zip(selected) {
        table.set_path(Flow::new(s, d), paths.paths(s, d)[idx].to_vec());
    }
    table
}

/// One greedy construction plus improvement sweeps; returns the final
/// objective and the selected path index of every flow.
fn single_run(candidates: &Candidates, rng: &mut SmallRng) -> (Objective, Vec<usize>) {
    let flows = candidates.hops.len();
    let mut loads = Loads::new(candidates.num_channels, flows);
    let mut selected = vec![0usize; flows];

    // Greedy construction: commit constrained flows (fewest alternatives)
    // first; break ties randomly.
    let mut order: Vec<usize> = (0..flows).collect();
    order.shuffle(rng);
    order.sort_by_key(|&f| candidates.count[f]);
    for &f in &order {
        selected[f] = loads.best_candidate(candidates, f, 0);
        loads.add(candidates.path(f, selected[f]));
    }

    // Local improvement: re-route flows that cross the hottest channels.
    for _ in 0..MAX_SWEEPS {
        let max = loads.max;
        let hot_flows: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&f| {
                candidates
                    .path(f, selected[f])
                    .iter()
                    .any(|&c| loads.load[c as usize] == max)
            })
            .collect();
        let mut improved = false;
        for f in hot_flows {
            let current = selected[f];
            loads.remove(candidates.path(f, current));
            selected[f] = loads.best_candidate(candidates, f, current);
            loads.add(candidates.path(f, selected[f]));
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
    use proptest::prelude::*;

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
            naive.set_path(Flow::new(s, d), ps.paths(s, d)[0].to_vec());
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
        fn search(candidates: &Candidates, f: usize, loads: &mut Loads, best: &mut u32) {
            if loads.max >= *best {
                return;
            }
            if f == candidates.hops.len() {
                *best = loads.max;
                return;
            }
            for i in 0..candidates.count[f] {
                loads.add(candidates.path(f, i));
                search(candidates, f + 1, loads, best);
                loads.remove(candidates.path(f, i));
            }
        }
        let flows: Vec<_> = ps.flows().collect();
        let candidates = Candidates::lower(ps, &flows);
        let mut best = u32::MAX;
        let mut loads = Loads::new(candidates.num_channels, flows.len());
        search(&candidates, 0, &mut loads, &mut best);
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
        let mut load = [0u32; 36];
        for (_, p) in heuristic.flows() {
            for (a, b) in path_links(p) {
                load[a * 6 + b] += 1;
            }
        }
        assert_eq!(load.iter().max(), Some(&brute_force_max_load(&ps)));
    }

    /// `score` against adding the chain, reading the objective and
    /// removing it again, on loads built from `background` chains.
    fn check_score(channels: usize, background: &[Vec<u32>], chain: &[u32]) {
        let mut loads = Loads::new(channels, background.len() + 1);
        for b in background {
            loads.add(b);
        }
        let before = (loads.load.clone(), loads.hist.clone(), loads.objective());
        let scored = loads.score(chain);
        loads.add(chain);
        let want = loads.objective();
        loads.remove(chain);
        assert_eq!(scored, want, "background {background:?}, chain {chain:?}");
        let after = loads.objective();
        assert_eq!((loads.load, loads.hist, after), before);
    }

    #[test]
    fn score_matches_add_then_remove_on_edge_cases() {
        // Empty loads.
        check_score(4, &[], &[2]);
        check_score(4, &[], &[0, 1, 3]);
        // A tie at the maximum, the path crossing one, several or none of
        // the channels at it, and channels just below it.
        let tie = [vec![0, 1], vec![1, 2], vec![2, 0], vec![3]];
        check_score(5, &tie, &[0]);
        check_score(5, &tie, &[0, 1, 2]);
        check_score(5, &tie, &[3, 4]);
        check_score(5, &tie, &[4]);
    }

    /// A chain of distinct channels below `channels`.
    fn chain(channels: u32) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0..channels, 1..6).prop_map(|mut c| {
            let mut seen = Vec::new();
            c.retain(|x| {
                let fresh = !seen.contains(x);
                seen.push(*x);
                fresh
            });
            c
        })
    }

    proptest! {
        #[test]
        fn score_matches_add_then_remove(
            background in proptest::collection::vec(chain(8), 0..16),
            probe in chain(8),
        ) {
            check_score(8, &background, &probe);
        }
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
