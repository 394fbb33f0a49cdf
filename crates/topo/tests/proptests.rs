//! Property-based tests for the topology substrate.

use netsmith_topo::analysis::TopoAnalysis;
use netsmith_topo::cuts::{
    bisection_bandwidth, crossing_links, sparsest_cut_exhaustive, sparsest_cut_heuristic,
};
use netsmith_topo::expert;
use netsmith_topo::layout::{Layout, NodeKind};
use netsmith_topo::linkclass::{LinkClass, LinkSpan};
use netsmith_topo::metrics::{
    all_pairs_hops, average_hops, is_strongly_connected, unreachable_pairs, UNREACHABLE,
};
use netsmith_topo::resilience::duplex_pairs;
use netsmith_topo::topology::Topology;
use netsmith_topo::traffic::{DemandMatrix, TrafficPattern};
use proptest::prelude::*;

/// Strategy: a random topology on a small layout (3x3, radix 4, custom
/// class so arbitrary links are allowed), built from a random subset of
/// candidate directed links plus a Hamiltonian ring so it stays connected.
fn random_connected_topology() -> impl Strategy<Value = Topology> {
    let layout = Layout::interposer_grid(3, 3, 8);
    let n = layout.num_routers();
    let candidates: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    let len = candidates.len();
    (proptest::collection::vec(any::<bool>(), len)).prop_map(move |mask| {
        let mut t = Topology::empty(
            "random",
            layout.clone(),
            LinkClass::Custom(LinkSpan::new(8, 8)),
        );
        for (a, b) in expert::hamiltonian_ring(&layout) {
            t.add_bidirectional(a, b);
        }
        for (keep, &(i, j)) in mask.iter().zip(candidates.iter()) {
            if *keep {
                t.add_link(i, j);
            }
        }
        t
    })
}

/// Strategy: a random topology over an odd number (3..=11) of routers in
/// one row, each directed link kept with probability `density / 4`; nothing
/// forces connectivity.
fn random_odd_topology() -> impl Strategy<Value = Topology> {
    (1usize..=5, 1u8..4).prop_flat_map(|(half, density)| {
        let n = 2 * half + 1;
        proptest::collection::vec(0u8..4, n * (n - 1)).prop_map(move |draws| {
            let layout = Layout::new(1, n, vec![NodeKind::Cores { count: 4 }; n], n);
            let mut t = Topology::empty("odd", layout, LinkClass::Custom(LinkSpan::new(n, n)));
            let pairs = (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
            for ((i, j), &draw) in pairs.zip(&draws) {
                if draw < density {
                    t.add_link(i, j);
                }
            }
            t
        })
    })
}

/// Bisection by brute force over all 2^n memberships, with no router
/// pinned to either side: the sides may differ by at most one router.
fn brute_force_bisection(topo: &Topology) -> f64 {
    let n = topo.num_routers();
    let mut best = usize::MAX;
    for mask in 0..1u64 << n {
        let size_u = mask.count_ones() as usize;
        if size_u.abs_diff(n - size_u) <= 1 {
            let in_u: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            let (fwd, bwd) = crossing_links(topo, &in_u);
            best = best.min(fwd.min(bwd));
        }
    }
    best as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn odd_bisection_matches_brute_force(topo in random_odd_topology()) {
        prop_assert_eq!(
            bisection_bandwidth(&topo).to_bits(),
            brute_force_bisection(&topo).to_bits()
        );
    }

    #[test]
    fn bfs_distances_satisfy_triangle_inequality(topo in random_connected_topology()) {
        let n = topo.num_routers();
        let dist = all_pairs_hops(&topo);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let dij = dist[i * n + j];
                    let dik = dist[i * n + k];
                    let dkj = dist[k * n + j];
                    if dik != UNREACHABLE && dkj != UNREACHABLE {
                        prop_assert!(dij as u64 <= dik as u64 + dkj as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn adding_a_link_never_increases_average_hops(topo in random_connected_topology()) {
        let before = average_hops(&topo);
        let mut augmented = topo.clone();
        // add the first missing link
        let n = augmented.num_routers();
        'outer: for i in 0..n {
            for j in 0..n {
                if i != j && !augmented.has_link(i, j) {
                    augmented.add_link(i, j);
                    break 'outer;
                }
            }
        }
        let after = average_hops(&augmented);
        prop_assert!(after <= before + 1e-9);
    }

    #[test]
    fn diameter_bounds_average_hops(topo in random_connected_topology()) {
        let avg = average_hops(&topo);
        let diam = TopoAnalysis::new(&topo).diameter();
        if let Some(d) = diam {
            prop_assert!(avg <= d as f64 + 1e-9);
            prop_assert!(avg >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn heuristic_cut_never_beats_exhaustive(topo in random_connected_topology()) {
        let exact = sparsest_cut_exhaustive(&topo);
        let heur = sparsest_cut_heuristic(&topo, 8, 99);
        prop_assert!(heur.normalized_bandwidth >= exact.normalized_bandwidth - 1e-12);
    }

    #[test]
    fn crossing_links_sum_matches_total_cross_pairs(topo in random_connected_topology()) {
        let n = topo.num_routers();
        // Partition: first half vs rest.
        let in_u: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
        let (f, b) = crossing_links(&topo, &in_u);
        let manual = topo
            .links()
            .filter(|&(i, j)| in_u[i] != in_u[j])
            .count();
        prop_assert_eq!(f + b, manual);
    }

    #[test]
    fn demand_matrices_are_normalized(pattern_idx in 0usize..4) {
        let layout = Layout::noi_4x5();
        let pattern = match pattern_idx {
            0 => TrafficPattern::UniformRandom,
            1 => TrafficPattern::Shuffle,
            2 => TrafficPattern::Memory,
            _ => TrafficPattern::Transpose,
        };
        let m = pattern.demand_matrix(&layout);
        prop_assert!((m.total() - 1.0).abs() < 1e-9);
        for s in 0..20 {
            prop_assert_eq!(m.demand(s, s), 0.0);
        }
    }

    #[test]
    fn uniform_demand_weighted_hops_equals_plain_average(topo in random_connected_topology()) {
        let n = topo.num_routers();
        let plain = average_hops(&topo);
        let weighted = netsmith_topo::metrics::weighted_average_hops(&topo, &DemandMatrix::uniform(n));
        if plain.is_finite() {
            prop_assert!((plain - weighted).abs() < 1e-9);
        }
    }

    #[test]
    fn delta_analysis_exactly_matches_scratch_over_move_sequences(
        topo in random_connected_topology(),
        moves in proptest::collection::vec((0usize..9, 0usize..9, any::<bool>()), 1..24),
        compound in any::<bool>(),
    ) {
        // Replay a random sequence of link add/remove moves, updating the
        // analysis incrementally, and require bit-exact agreement with a
        // from-scratch analysis after every step.  `compound` batches two
        // ops per `after_move` call, exercising the annealer's rewire and
        // endpoint-swap shapes (remove + add in one delta).
        let mut topo = topo;
        let mut analysis = TopoAnalysis::new(&topo);
        let mut pending_removed: Vec<(usize, usize)> = Vec::new();
        let mut pending_added: Vec<(usize, usize)> = Vec::new();
        let mut pending = 0usize;
        let batch = if compound { 2 } else { 1 };
        for (i_raw, j_raw, add) in moves {
            let (i, j) = if i_raw == j_raw { (i_raw, (j_raw + 1) % 9) } else { (i_raw, j_raw) };
            // Skip ops already queued for this directed pair (the
            // incremental contract is "each pair at most once per move").
            if pending_removed.contains(&(i, j)) || pending_added.contains(&(i, j)) {
                continue;
            }
            if add && !topo.has_link(i, j) {
                topo.add_link(i, j);
                pending_added.push((i, j));
            } else if !add && topo.has_link(i, j) {
                topo.remove_link(i, j);
                pending_removed.push((i, j));
            } else {
                continue;
            }
            pending += 1;
            if pending < batch {
                continue;
            }
            analysis = analysis.after_move(&topo, &pending_removed, &pending_added);
            pending_removed.clear();
            pending_added.clear();
            pending = 0;
            let scratch = TopoAnalysis::new(&topo);
            let n = topo.num_routers();
            for s in 0..n {
                for d in 0..n {
                    prop_assert_eq!(
                        analysis.hop_distance(s, d),
                        scratch.hop_distance(s, d),
                        "dist({},{}) diverged", s, d
                    );
                }
                prop_assert_eq!(analysis.out_degree(s), scratch.out_degree(s));
                prop_assert_eq!(analysis.in_degree(s), scratch.in_degree(s));
            }
            prop_assert_eq!(analysis.total_hops(), scratch.total_hops());
            prop_assert_eq!(analysis.unreachable_pairs(), scratch.unreachable_pairs());
            prop_assert_eq!(analysis.min_directional_degree(), scratch.min_directional_degree());
        }
    }

    #[test]
    fn validation_accepts_expert_baselines_after_random_link_removal_restore(seed in 0u64..500) {
        // Removing and re-adding the same link leaves the topology valid.
        let layout = Layout::noi_4x5();
        let mut t = expert::folded_torus(&layout);
        let links: Vec<(usize, usize)> = t.links().collect();
        let pick = links[(seed as usize) % links.len()];
        t.remove_link(pick.0, pick.1);
        t.add_link(pick.0, pick.1);
        prop_assert!(t.is_valid());
    }

    /// The link-sleep gate's greedy step asks whether a topology stays
    /// strongly connected after a duplex pair leaves it.
    /// `is_strongly_connected` must answer as counting unreachable pairs
    /// does, on random 9-router topologies and the 8x6 folded torus and
    /// mesh, as random duplex pairs are removed one after another.
    /// (`bfs_oracle` covers rows of several bitset words.)
    #[test]
    fn strong_connectivity_agrees_with_unreachable_pairs_under_removals(
        random in random_connected_topology(),
        choice in 0u8..3,
        picks in proptest::collection::vec(0usize..10_000, 1..10),
    ) {
        let mut t = match choice {
            0 => random,
            1 => expert::folded_torus(&Layout::noi_8x6()),
            _ => expert::mesh(&Layout::noi_8x6()),
        };
        prop_assert!(is_strongly_connected(&t));
        for pick in picks {
            let pairs = duplex_pairs(&t);
            let (i, j) = pairs[pick % pairs.len()];
            t.remove_link(i, j);
            t.remove_link(j, i);
            prop_assert_eq!(is_strongly_connected(&t), unreachable_pairs(&t) == 0);
            if duplex_pairs(&t).is_empty() {
                break;
            }
        }
    }
}
