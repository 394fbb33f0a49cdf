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
//!
//! The `oracle_reach` family are verbatim copies of the dense-scan
//! reachability searches behind `critical_link_pairs`,
//! `unreachable_pairs_among` and `is_strongly_connected_among`.  The
//! library must give the same answers on the same sizes, over directed
//! draws and over duplex trees with chords (whose unbridged tree edges are
//! critical), under all-dead, all-alive and random alive masks.

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

// ---------------------------------------------------------------------------
// Reachability: verbatim copies of the dense-scan searches that answered
// critical links, masked strong connectivity and masked unreachable pairs.
// ---------------------------------------------------------------------------

/// All full-duplex router pairs that are connected in at least one
/// direction, in canonical `(lo, hi)` order.
fn oracle_duplex_pairs(topo: &Topology) -> Vec<(RouterId, RouterId)> {
    let n = topo.num_routers();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if topo.has_link(i, j) || topo.has_link(j, i) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// BFS reachability from `root` over the directed adjacency, restricted to
/// routers with `alive[r]` set and optionally skipping the duplex pair
/// `skip` (both directions).  `reverse` walks incoming links instead of
/// outgoing ones.
fn oracle_reach(
    topo: &Topology,
    root: RouterId,
    alive: &[bool],
    skip: Option<(RouterId, RouterId)>,
    reverse: bool,
) -> Vec<bool> {
    let n = topo.num_routers();
    let mut seen = vec![false; n];
    if !alive[root] {
        return seen;
    }
    let skipped = |a: RouterId, b: RouterId| {
        skip.is_some_and(|(i, j)| (a == i && b == j) || (a == j && b == i))
    };
    let mut queue = std::collections::VecDeque::with_capacity(n);
    seen[root] = true;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for v in 0..n {
            if seen[v] || !alive[v] || skipped(u, v) {
                continue;
            }
            let linked = if reverse {
                topo.has_link(v, u)
            } else {
                topo.has_link(u, v)
            };
            if linked {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

/// True when every router in `alive` can reach every other alive router
/// through alive routers only.
fn oracle_is_strongly_connected_among(topo: &Topology, alive: &[bool]) -> bool {
    assert_eq!(alive.len(), topo.num_routers(), "alive mask size mismatch");
    let Some(root) = alive.iter().position(|&a| a) else {
        return true; // no alive routers: vacuously connected
    };
    let fwd = oracle_reach(topo, root, alive, None, false);
    let bwd = oracle_reach(topo, root, alive, None, true);
    alive
        .iter()
        .enumerate()
        .all(|(r, &a)| !a || (fwd[r] && bwd[r]))
}

/// Number of ordered alive `(s, d)` pairs (s != d) with no directed path
/// through alive routers.
fn oracle_unreachable_pairs_among(topo: &Topology, alive: &[bool]) -> usize {
    assert_eq!(alive.len(), topo.num_routers(), "alive mask size mismatch");
    let n = topo.num_routers();
    let mut count = 0usize;
    for s in 0..n {
        if !alive[s] {
            continue;
        }
        let seen = oracle_reach(topo, s, alive, None, false);
        for d in 0..n {
            if d != s && alive[d] && !seen[d] {
                count += 1;
            }
        }
    }
    count
}

/// True when the topology stays strongly connected after removing both
/// directions of the duplex pair `(i, j)`.
fn oracle_survives_pair_removal(topo: &Topology, i: RouterId, j: RouterId) -> bool {
    let n = topo.num_routers();
    let alive = vec![true; n];
    let fwd = oracle_reach(topo, 0, &alive, Some((i, j)), false);
    let bwd = oracle_reach(topo, 0, &alive, Some((i, j)), true);
    (0..n).all(|r| fwd[r] && bwd[r])
}

/// Early-exit BFS: can `from` reach `to` over alive routers while skipping
/// both directions of the duplex pair `skip`?
fn oracle_reaches_with_skip(
    topo: &Topology,
    from: RouterId,
    to: RouterId,
    skip: (RouterId, RouterId),
) -> bool {
    let n = topo.num_routers();
    let skipped =
        |a: RouterId, b: RouterId| (a == skip.0 && b == skip.1) || (a == skip.1 && b == skip.0);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    seen[from] = true;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        let mut found = false;
        for (v, s) in seen.iter_mut().enumerate() {
            if !*s && !skipped(u, v) && topo.has_link(u, v) {
                if v == to {
                    found = true;
                    break;
                }
                *s = true;
                queue.push_back(v);
            }
        }
        if found {
            return true;
        }
    }
    false
}

/// The critical duplex pairs: physical links whose failure (removal of
/// both directions) leaves some ordered router pair without a directed
/// path.
fn oracle_critical_link_pairs(topo: &Topology) -> Vec<(RouterId, RouterId)> {
    let alive = vec![true; topo.num_routers()];
    if oracle_is_strongly_connected_among(topo, &alive) {
        oracle_duplex_pairs(topo)
            .into_iter()
            .filter(|&(i, j)| {
                !(oracle_reaches_with_skip(topo, i, j, (i, j))
                    && oracle_reaches_with_skip(topo, j, i, (i, j)))
            })
            .collect()
    } else {
        oracle_duplex_pairs(topo)
            .into_iter()
            .filter(|&(i, j)| !oracle_survives_pair_removal(topo, i, j))
            .collect()
    }
}

/// A random topology whose links all come in duplex pairs: a random
/// spanning tree over a random subset of the routers plus `extra` random
/// duplex chords.  The tree edges that no chord bridges are critical, and
/// routers left out of the tree make it disconnected.
fn random_duplex_topology(n: usize, extra: usize, rng: &mut SmallRng) -> Topology {
    let class = LinkClass::Custom(LinkSpan::new(n, n));
    let mut topo = Topology::empty("duplex", line_layout(n), class);
    let joined = if n > 1 && rng.gen_bool(0.25) {
        rng.gen_range(1..n)
    } else {
        n
    };
    for v in 1..joined {
        let u = rng.gen_range(0..v);
        topo.add_link(u, v);
        topo.add_link(v, u);
    }
    for _ in 0..extra {
        if let Some((a, b)) = random_absent_pair(&topo, rng) {
            topo.add_link(a, b);
            topo.add_link(b, a);
        }
    }
    topo
}

/// Alive masks of every shape a repair sees: all dead, all alive, one
/// router dead, and random masks at two survival rates.
fn alive_masks(n: usize, rng: &mut SmallRng) -> Vec<Vec<bool>> {
    let mut one_dead = vec![true; n];
    one_dead[rng.gen_range(0..n)] = false;
    vec![
        vec![false; n],
        vec![true; n],
        one_dead,
        (0..n).map(|_| rng.gen_bool(0.5)).collect(),
        (0..n).map(|_| rng.gen_bool(0.9)).collect(),
    ]
}

fn assert_reachability_matches(topo: &Topology, rng: &mut SmallRng, what: &str) {
    let n = topo.num_routers();
    assert_eq!(
        netsmith_topo::critical_link_pairs(topo),
        oracle_critical_link_pairs(topo),
        "{what}: critical link pairs diverged"
    );
    for alive in alive_masks(n, rng) {
        assert_eq!(
            netsmith_topo::unreachable_pairs_among(topo, &alive),
            oracle_unreachable_pairs_among(topo, &alive),
            "{what} alive={alive:?}: unreachable pairs diverged"
        );
        assert_eq!(
            netsmith_topo::is_strongly_connected_among(topo, &alive),
            oracle_is_strongly_connected_among(topo, &alive),
            "{what} alive={alive:?}: strong connectivity diverged"
        );
    }
}

#[test]
fn reachability_matches_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xBF5_0003);
    let (mut connected, mut disconnected, mut with_critical) = (0, 0, 0);
    for n in SIZES {
        let mut check = |topo: Topology, what: String, rng: &mut SmallRng| {
            if oracle_is_strongly_connected_among(&topo, &vec![true; n]) {
                connected += 1;
                with_critical += usize::from(!oracle_critical_link_pairs(&topo).is_empty());
            } else {
                disconnected += 1;
            }
            assert_reachability_matches(&topo, rng, &what);
        };
        for mean_degree in MEAN_DEGREES {
            for draw in 0..2 {
                let topo = random_topology(n, mean_degree, &mut rng);
                check(
                    topo,
                    format!("n={n} degree={mean_degree} draw={draw}"),
                    &mut rng,
                );
            }
        }
        for extra in [0, n / 8, n / 2] {
            for draw in 0..2 {
                let topo = random_duplex_topology(n, extra, &mut rng);
                check(
                    topo,
                    format!("n={n} duplex extra={extra} draw={draw}"),
                    &mut rng,
                );
            }
        }
    }
    assert!(
        connected > 0 && disconnected > 0,
        "draws lack a connectivity mix"
    );
    assert!(with_critical > 0, "no connected draw has a critical link");
}
