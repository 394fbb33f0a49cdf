//! Oracle equivalence for the hop-distance BFS.
//!
//! `oracle_bfs_row`, `oracle_relax_row_with_additions` and
//! `oracle_all_pairs_hops` are verbatim copies of the original distance
//! engines: a dense row scan (`has_link(u, v)` for every column of every
//! dequeued router) for `TopoAnalysis`'s dirty rows and its decrease-only
//! repair, and an adjacency-list BFS for `all_pairs_hops`.  The library
//! must reproduce their matrices exactly, from scratch and after every
//! step of random remove / add / rewire / endpoint-swap sequences, on
//! random topologies of 1, 9, 48, 64, 65 and 130 routers.  The last three
//! straddle one and two 64-bit words per adjacency row; sparse draws leave
//! many of the topologies disconnected.

use netsmith_topo::analysis::TopoAnalysis;
use netsmith_topo::layout::{Layout, NodeKind, RouterId};
use netsmith_topo::linkclass::{LinkClass, LinkSpan};
use netsmith_topo::metrics::{all_pairs_hops, UNREACHABLE};
use netsmith_topo::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One BFS row over the directed adjacency of `topo`.
fn oracle_bfs_row(topo: &Topology, s: usize, row: &mut [u32]) {
    let n = row.len();
    row.fill(UNREACHABLE);
    row[s] = 0;
    let mut queue = VecDeque::with_capacity(n);
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        let du = row[u];
        for (v, d) in row.iter_mut().enumerate() {
            if *d == UNREACHABLE && topo.has_link(u, v) {
                *d = du + 1;
                queue.push_back(v);
            }
        }
    }
}

/// Decrease-only repair of one source row after link additions: seed a
/// relaxation queue at every added link that shortens a path, then
/// propagate improvements along outgoing links of the *new* topology.
fn oracle_relax_row_with_additions(
    topo: &Topology,
    row: &mut [u32],
    added: &[(RouterId, RouterId)],
) {
    let mut queue = VecDeque::new();
    for &(a, b) in added {
        let da = row[a];
        if da != UNREACHABLE && da + 1 < row[b] {
            row[b] = da + 1;
            queue.push_back(b);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = row[u];
        for (v, d) in row.iter_mut().enumerate() {
            if du + 1 < *d && topo.has_link(u, v) {
                *d = du + 1;
                queue.push_back(v);
            }
        }
    }
}

/// All-pairs hop distance matrix (row-major `n x n`), computed by BFS from
/// each source over the directed adjacency.
fn oracle_all_pairs_hops(topo: &Topology) -> Vec<u32> {
    let n = topo.num_routers();
    let mut dist = vec![UNREACHABLE; n * n];
    // Pre-collect adjacency lists once; BFS from each source.
    let adj: Vec<Vec<usize>> = (0..n).map(|i| topo.neighbours_out(i)).collect();
    let mut queue = VecDeque::with_capacity(n);
    for s in 0..n {
        let row = &mut dist[s * n..(s + 1) * n];
        row[s] = 0;
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = row[u];
            for &v in &adj[u] {
                if row[v] == UNREACHABLE {
                    row[v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

/// The original incremental update, row by row: rows whose shortest-path
/// DAG lost a removed link are re-derived by `oracle_bfs_row`, every other
/// row is repaired by `oracle_relax_row_with_additions`.
fn oracle_after_move(
    before: &[u32],
    topo: &Topology,
    removed: &[(RouterId, RouterId)],
    added: &[(RouterId, RouterId)],
) -> Vec<u32> {
    let n = topo.num_routers();
    let mut dist = before.to_vec();
    for s in 0..n {
        let row = &mut dist[s * n..(s + 1) * n];
        let dirty = removed
            .iter()
            .any(|&(a, b)| row[a] != UNREACHABLE && row[a] + 1 == row[b]);
        if dirty {
            oracle_bfs_row(topo, s, row);
        } else {
            oracle_relax_row_with_additions(topo, row, added);
        }
    }
    dist
}

/// The analysis's distance matrix in the oracle's encoding.
fn matrix_of(analysis: &TopoAnalysis) -> Vec<u32> {
    let n = analysis.num_routers();
    (0..n * n)
        .map(|i| analysis.hop_distance(i / n, i % n).unwrap_or(UNREACHABLE))
        .collect()
}

/// Every reduction the analysis caches, checked against the oracle matrix
/// and the topology's own degree counts.
fn assert_analysis_matches(analysis: &TopoAnalysis, topo: &Topology, oracle: &[u32], what: &str) {
    let n = topo.num_routers();
    assert_eq!(
        matrix_of(analysis),
        oracle,
        "{what}: distance matrix diverged"
    );
    let off_diagonal = || (0..n * n).filter(|&i| i / n != i % n).map(|i| oracle[i]);
    let unreachable = off_diagonal().filter(|&h| h == UNREACHABLE).count();
    assert_eq!(
        analysis.unreachable_pairs(),
        unreachable,
        "{what}: unreachable pairs"
    );
    let total = (unreachable == 0).then(|| off_diagonal().map(u64::from).sum::<u64>());
    assert_eq!(analysis.total_hops(), total, "{what}: total hops");
    let diameter = (unreachable == 0).then(|| off_diagonal().max().unwrap_or(0));
    assert_eq!(analysis.diameter(), diameter, "{what}: diameter");
    for r in 0..n {
        assert_eq!(
            analysis.out_degree(r),
            topo.out_degree(r),
            "{what}: out-degree of {r}"
        );
        assert_eq!(
            analysis.in_degree(r),
            topo.in_degree(r),
            "{what}: in-degree of {r}"
        );
    }
}

fn line_layout(n: usize) -> Layout {
    Layout::new(1, n, vec![NodeKind::Cores { count: 4 }; n], n)
}

/// A random directed topology on `n` routers with mean out-degree about
/// `mean_degree`; nothing forces connectivity.
fn random_topology(n: usize, mean_degree: f64, rng: &mut SmallRng) -> Topology {
    let class = LinkClass::Custom(LinkSpan::new(n, n));
    let mut topo = Topology::empty("random", line_layout(n), class);
    let p = if n > 1 {
        (mean_degree / (n - 1) as f64).min(1.0)
    } else {
        0.0
    };
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            if rng.gen_bool(p) {
                topo.add_link(i, j);
            }
        }
    }
    topo
}

fn random_link(topo: &Topology, rng: &mut SmallRng) -> Option<(RouterId, RouterId)> {
    let links: Vec<_> = topo.links().collect();
    (!links.is_empty()).then(|| links[rng.gen_range(0..links.len())])
}

fn random_absent_pair(topo: &Topology, rng: &mut SmallRng) -> Option<(RouterId, RouterId)> {
    let n = topo.num_routers();
    (0..64).find_map(|_| {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        (a != b && !topo.has_link(a, b)).then_some((a, b))
    })
}

/// The `(removed, added)` directed links of one move.
type Move = (Vec<(RouterId, RouterId)>, Vec<(RouterId, RouterId)>);

/// Apply one random move of the annealer's four shapes to `topo` and
/// return its links, or `None` when the drawn move does not apply (the
/// topology is then unchanged).
fn random_move(topo: &mut Topology, rng: &mut SmallRng) -> Option<Move> {
    match rng.gen_range(0..4) {
        0 => {
            let (a, b) = random_link(topo, rng)?;
            topo.remove_link(a, b);
            Some((vec![(a, b)], vec![]))
        }
        1 => {
            let (a, b) = random_absent_pair(topo, rng)?;
            topo.add_link(a, b);
            Some((vec![], vec![(a, b)]))
        }
        2 => {
            // Rewire: one link out, a different absent pair in.
            let (ra, rb) = random_link(topo, rng)?;
            let (a, b) = random_absent_pair(topo, rng)?;
            topo.remove_link(ra, rb);
            topo.add_link(a, b);
            Some((vec![(ra, rb)], vec![(a, b)]))
        }
        _ => {
            // Endpoint swap: (a->b, c->d) becomes (a->d, c->b).
            let (a, b) = random_link(topo, rng)?;
            let (c, d) = random_link(topo, rng)?;
            if a == c || b == d || a == d || c == b || topo.has_link(a, d) || topo.has_link(c, b) {
                return None;
            }
            topo.remove_link(a, b);
            topo.remove_link(c, d);
            topo.add_link(a, d);
            topo.add_link(c, b);
            Some((vec![(a, b), (c, d)], vec![(a, d), (c, b)]))
        }
    }
}

const SIZES: [usize; 6] = [1, 9, 48, 64, 65, 130];

/// Mean out-degrees of the random draws: the sparse ones are mostly
/// disconnected, the dense ones strongly connected with short diameters.
const MEAN_DEGREES: [f64; 4] = [0.7, 1.5, 3.0, 6.0];

#[test]
fn fresh_analysis_and_all_pairs_hops_match_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xBF5_0001);
    for n in SIZES {
        for mean_degree in MEAN_DEGREES {
            for _ in 0..3 {
                let topo = random_topology(n, mean_degree, &mut rng);
                let oracle = oracle_all_pairs_hops(&topo);
                let what = format!("n={n} degree={mean_degree}");
                assert_eq!(
                    all_pairs_hops(&topo),
                    oracle,
                    "{what}: all_pairs_hops diverged"
                );
                assert_analysis_matches(&TopoAnalysis::new(&topo), &topo, &oracle, &what);
            }
        }
    }
}

#[test]
fn move_sequences_match_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xBF5_0002);
    for n in SIZES {
        for mean_degree in MEAN_DEGREES {
            let mut topo = random_topology(n, mean_degree, &mut rng);
            let mut analysis = TopoAnalysis::new(&topo);
            let mut oracle = oracle_all_pairs_hops(&topo);
            let mut applied = 0;
            for step in 0..40 {
                let Some((removed, added)) = random_move(&mut topo, &mut rng) else {
                    continue;
                };
                applied += 1;
                let what =
                    format!("n={n} degree={mean_degree} step={step} -{removed:?} +{added:?}");
                let incremental = oracle_after_move(&oracle, &topo, &removed, &added);
                oracle = oracle_all_pairs_hops(&topo);
                assert_eq!(incremental, oracle, "{what}: oracle engines disagree");
                analysis = analysis.after_move(&topo, &removed, &added);
                assert_analysis_matches(&analysis, &topo, &oracle, &what);
                assert_eq!(
                    all_pairs_hops(&topo),
                    oracle,
                    "{what}: all_pairs_hops diverged"
                );
            }
            assert!(n == 1 || applied > 0, "n={n}: no move applied");
        }
    }
}
