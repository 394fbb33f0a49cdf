//! Expert-designed baseline topologies.
//!
//! The paper compares NetSmith against the expert-designed interposer
//! networks from the Kite line of work — Mesh, Folded Torus, Kite
//! (small/medium/large), Butter Donut, Double Butterfly — and against the
//! LPBT topologies produced by the prior MILP NoC-synthesis flow of
//! Srinivasan et al.  The exact link lists of the Kite-family topologies are
//! not published in the NetSmith text, so this module provides *documented
//! reconstructions*:
//!
//! * `mesh` and `folded_torus` follow their standard definitions exactly.
//! * `double_butterfly` and `butter_donut` follow the published structural
//!   descriptions (row connectivity plus butterfly-style long links /
//!   torus-plus-diagonal hybrids) at the paper's radix budget.
//! * `kite_*` are produced by a deterministic expert-style greedy
//!   construction: starting from a Hamiltonian ring of short links, the
//!   builder repeatedly adds the symmetric (bidirectional) link allowed by
//!   the class that most reduces total hop count, exactly the kind of
//!   latency-driven refinement the Kite designers describe.  The resulting
//!   metrics land close to the paper's Table II values (38–40 links,
//!   diameter 4–5, average hops ≈ 2.3, bisection ≈ 8).
//! * `lpbt_hops` / `lpbt_power` reproduce the *qualitative* character the
//!   paper reports for LPBT: sparse, poorly cut-provisioned networks that
//!   were synthesized for an objective (power/resource) that does not match
//!   general-purpose traffic, yielding low bisection bandwidth and higher
//!   average hops.

use crate::layout::{Layout, RouterId};
use crate::linkclass::{LinkClass, LinkSpan};
use crate::metrics;
use crate::topology::Topology;

/// Standard 2-D mesh over the router grid (link class small; only (1,0) and
/// (0,1) links are used).
pub fn mesh(layout: &Layout) -> Topology {
    let mut t = Topology::empty("Mesh", layout.clone(), LinkClass::Small);
    let (rows, cols) = (layout.rows(), layout.cols());
    for r in 0..rows {
        for c in 0..cols {
            let here = layout.router_at(r, c);
            if c + 1 < cols {
                t.add_bidirectional(here, layout.router_at(r, c + 1));
            }
            if r + 1 < rows {
                t.add_bidirectional(here, layout.router_at(r + 1, c));
            }
        }
    }
    t
}

/// Folded torus: every row and every column forms a folded ring, so all
/// links span at most two grid hops (medium class).  This matches the
/// 40-link medium-category Folded Torus of Table II for the 4x5 layout.
pub fn folded_torus(layout: &Layout) -> Topology {
    let mut t = Topology::empty("FoldedTorus", layout.clone(), LinkClass::Medium);
    let (rows, cols) = (layout.rows(), layout.cols());
    // Folded ring over `k` positions: consecutive even nodes, consecutive
    // odd nodes, plus the two "fold" links at the ends.
    let folded_ring = |k: usize| -> Vec<(usize, usize)> {
        let mut links = Vec::new();
        if k < 2 {
            return links;
        }
        if k == 2 {
            links.push((0, 1));
            return links;
        }
        // 0-2-4-...  and 1-3-5-... chains
        let mut i = 0;
        while i + 2 < k {
            links.push((i, i + 2));
            i += 2;
        }
        let mut i = 1;
        while i + 2 < k {
            links.push((i, i + 2));
            i += 2;
        }
        // folds at both ends
        links.push((0, 1));
        let last_even = if (k - 1).is_multiple_of(2) {
            k - 1
        } else {
            k - 2
        };
        let last_odd = if (k - 1) % 2 == 1 { k - 1 } else { k - 2 };
        links.push((last_even, last_odd));
        links
    };
    for r in 0..rows {
        for (a, b) in folded_ring(cols) {
            t.add_bidirectional(layout.router_at(r, a), layout.router_at(r, b));
        }
    }
    for c in 0..cols {
        for (a, b) in folded_ring(rows) {
            t.add_bidirectional(layout.router_at(a, c), layout.router_at(b, c));
        }
    }
    t
}

/// Double Butterfly reconstruction: per-row paths, edge-column vertical
/// paths, and two butterfly stages of (2,0)/(2,1) links between column pairs
/// (0,2) and (2,4) that swap row bits, mirroring the published figures.
/// Large link class.
pub fn double_butterfly(layout: &Layout) -> Topology {
    let mut t = Topology::empty("DoubleButterfly", layout.clone(), LinkClass::Large);
    let (rows, cols) = (layout.rows(), layout.cols());
    // Row paths.
    for r in 0..rows {
        for c in 0..cols - 1 {
            t.add_bidirectional(layout.router_at(r, c), layout.router_at(r, c + 1));
        }
    }
    // Edge-column vertical paths.
    for c in [0, cols - 1] {
        for r in 0..rows - 1 {
            t.add_bidirectional(layout.router_at(r, c), layout.router_at(r + 1, c));
        }
    }
    // Butterfly stages: between columns (c, c+2) swap a row bit, staying
    // within the (2,1) length budget by pairing adjacent rows.
    let mut c = 0usize;
    while c + 2 < cols {
        for r in 0..rows {
            // Every stage pairs adjacent rows: the (2,1) length budget
            // collapses the usual per-stage bit rotation down to `r ^ 1`.
            let partner = r ^ 1;
            if partner < rows && r < partner {
                let a = layout.router_at(r, c);
                let b = layout.router_at(partner, c + 2);
                let a2 = layout.router_at(partner, c);
                let b2 = layout.router_at(r, c + 2);
                if t.free_out_ports(a) > 0 && t.free_in_ports(b) > 0 {
                    add_bidirectional_if_ports(&mut t, a, b);
                }
                if t.free_out_ports(a2) > 0 && t.free_in_ports(b2) > 0 {
                    add_bidirectional_if_ports(&mut t, a2, b2);
                }
            }
        }
        c += 2;
    }
    t
}

/// Butter Donut reconstruction: folded-torus rows (donut) plus diagonal
/// (2,1) "butterfly" links between alternating rows, within the large link
/// class and the radix budget.
pub fn butter_donut(layout: &Layout) -> Topology {
    let mut t = Topology::empty("ButterDonut", layout.clone(), LinkClass::Large);
    let (rows, cols) = (layout.rows(), layout.cols());
    // Folded rings along each row.
    let torus = folded_torus(layout);
    for r in 0..rows {
        for c1 in 0..cols {
            for c2 in (c1 + 1)..cols {
                let a = layout.router_at(r, c1);
                let b = layout.router_at(r, c2);
                if torus.has_link(a, b) {
                    t.add_bidirectional(a, b);
                }
            }
        }
    }
    // Vertical neighbour links on edge columns to keep rows stitched.
    for c in [0, cols - 1] {
        for r in 0..rows - 1 {
            add_bidirectional_if_ports(&mut t, layout.router_at(r, c), layout.router_at(r + 1, c));
        }
    }
    // Diagonal (2,1) links between adjacent rows.
    for r in 0..rows - 1 {
        for c in 0..cols {
            if (r + c) % 2 == 0 && c + 2 < cols {
                add_bidirectional_if_ports(
                    &mut t,
                    layout.router_at(r, c),
                    layout.router_at(r + 1, c + 2),
                );
            }
        }
    }
    // Stitch any remaining free ports with vertical neighbours so the
    // topology stays well connected.
    for c in 0..cols {
        for r in 0..rows - 1 {
            add_bidirectional_if_ports(&mut t, layout.router_at(r, c), layout.router_at(r + 1, c));
        }
    }
    t
}

/// Kite-style reconstruction for the small link class.
pub fn kite_small(layout: &Layout) -> Topology {
    kite(layout, LinkClass::Small).with_name("Kite-Small")
}

/// Kite-style reconstruction for the medium link class.
pub fn kite_medium(layout: &Layout) -> Topology {
    kite(layout, LinkClass::Medium).with_name("Kite-Medium")
}

/// Kite-style reconstruction for the large link class.
pub fn kite_large(layout: &Layout) -> Topology {
    kite(layout, LinkClass::Large).with_name("Kite-Large")
}

/// Deterministic expert-style construction used for the Kite
/// reconstructions: a Hamiltonian ring of unit links for connectivity,
/// greedily refined with the symmetric link (within the class and radix
/// budget) that most reduces total hop count.  Ties are broken towards
/// shorter physical links and lower router indices, keeping the result
/// deterministic and "regular looking".  Each round runs one all-pairs
/// BFS and scores every candidate link from that distance matrix, with no
/// search of its own.
pub fn kite(layout: &Layout, class: LinkClass) -> Topology {
    let mut t = Topology::empty(format!("Kite-{}", class.name()), layout.clone(), class);
    for (a, b) in hamiltonian_ring(layout) {
        t.add_bidirectional(a, b);
    }
    greedy_fill_symmetric(&mut t);
    t
}

/// LPBT-Hops reconstruction: a sparse, tree-like synthesized network with a
/// latency-oriented objective but no bandwidth provisioning (low bisection,
/// higher average hops than the expert networks).
pub fn lpbt_hops(layout: &Layout) -> Topology {
    let mut t = Topology::empty("LPBT-Hops", layout.clone(), LinkClass::Medium);
    let (rows, cols) = (layout.rows(), layout.cols());
    // Row paths.
    for r in 0..rows {
        for c in 0..cols - 1 {
            t.add_bidirectional(layout.router_at(r, c), layout.router_at(r, c + 1));
        }
    }
    // Vertical paths on the edge columns and the middle column only.
    let mid = cols / 2;
    for c in [0, mid, cols - 1] {
        for r in 0..rows - 1 {
            add_bidirectional_if_ports(&mut t, layout.router_at(r, c), layout.router_at(r + 1, c));
        }
    }
    // A couple of (2,0) shortcuts along the middle rows, echoing LPBT's
    // preference for reusing already-placed resources.
    for r in 0..rows {
        if r % 2 == 0 && cols > 4 {
            add_bidirectional_if_ports(&mut t, layout.router_at(r, 0), layout.router_at(r, 2));
            add_bidirectional_if_ports(
                &mut t,
                layout.router_at(r, cols - 3),
                layout.router_at(r, cols - 1),
            );
        }
    }
    t
}

/// LPBT-Power reconstruction: the most frugal connected network the flow
/// would produce when minimizing power — row paths plus two vertical spines.
pub fn lpbt_power(layout: &Layout) -> Topology {
    let mut t = Topology::empty("LPBT-Power", layout.clone(), LinkClass::Medium);
    let (rows, cols) = (layout.rows(), layout.cols());
    for r in 0..rows {
        for c in 0..cols - 1 {
            t.add_bidirectional(layout.router_at(r, c), layout.router_at(r, c + 1));
        }
    }
    for c in [0, cols - 1] {
        for r in 0..rows - 1 {
            add_bidirectional_if_ports(&mut t, layout.router_at(r, c), layout.router_at(r + 1, c));
        }
    }
    t
}

/// All expert baselines the paper plots for a layout, grouped as in
/// Figure 1: small = {Mesh, Kite-Small}, medium = {Folded Torus,
/// Kite-Medium, LPBT}, large = {Butter Donut, Double Butterfly, Kite-Large}.
pub fn all_baselines(layout: &Layout) -> Vec<Topology> {
    vec![
        mesh(layout),
        kite_small(layout),
        folded_torus(layout),
        kite_medium(layout),
        lpbt_hops(layout),
        lpbt_power(layout),
        butter_donut(layout),
        double_butterfly(layout),
        kite_large(layout),
    ]
}

/// The expert baselines belonging to one link-length class.
pub fn baselines_for_class(layout: &Layout, class: LinkClass) -> Vec<Topology> {
    match class {
        LinkClass::Small => vec![mesh(layout), kite_small(layout)],
        LinkClass::Medium => vec![
            folded_torus(layout),
            kite_medium(layout),
            lpbt_hops(layout),
            lpbt_power(layout),
        ],
        LinkClass::Large => vec![
            butter_donut(layout),
            double_butterfly(layout),
            kite_large(layout),
        ],
        LinkClass::Custom(_) => vec![mesh(layout)],
    }
}

/// A Hamiltonian ring over the grid using only unit-length links:
/// boustrophedon over columns `1..cols` row by row, returning along
/// column 0.  That closes with a unit link when `rows` is even; when
/// `rows` is odd and `cols` even, rows and columns swap roles
/// (boustrophedon over rows `1..rows` column by column, returning along
/// row 0).  When both are odd no unit-length ring exists (the grid is
/// bipartite with an odd number of routers), and the first form closes
/// with a link spanning `cols - 1` columns.
pub fn hamiltonian_ring(layout: &Layout) -> Vec<(RouterId, RouterId)> {
    let (rows, cols) = (layout.rows(), layout.cols());
    assert!(rows >= 2 && cols >= 2);
    let by_columns = rows % 2 == 1 && cols % 2 == 0;
    // `lines` lines of `len` routers; `at(line, k)` is the k-th router of
    // a line.
    let (lines, len) = if by_columns {
        (cols, rows)
    } else {
        (rows, cols)
    };
    let at = |line: usize, k: usize| {
        if by_columns {
            layout.router_at(k, line)
        } else {
            layout.router_at(line, k)
        }
    };
    let mut path: Vec<RouterId> = Vec::with_capacity(rows * cols);
    // Serpentine over positions 1..len of each line, first to last.
    for line in 0..lines {
        if line % 2 == 0 {
            path.extend((1..len).map(|k| at(line, k)));
        } else {
            path.extend((1..len).rev().map(|k| at(line, k)));
        }
    }
    // Return along position 0, last line to first.
    path.extend((0..lines).rev().map(|line| at(line, 0)));
    let mut links = Vec::with_capacity(path.len());
    for w in path.windows(2) {
        links.push((w[0], w[1]));
    }
    links.push((*path.last().unwrap(), path[0]));
    links
}

/// Add a bidirectional link only if both routers have a free incoming and
/// outgoing port and the link does not already exist.
fn add_bidirectional_if_ports(t: &mut Topology, a: RouterId, b: RouterId) -> bool {
    if a == b || t.has_link(a, b) || t.has_link(b, a) {
        return false;
    }
    if t.free_out_ports(a) == 0
        || t.free_in_ports(a) == 0
        || t.free_out_ports(b) == 0
        || t.free_in_ports(b) == 0
    {
        return false;
    }
    t.add_bidirectional(a, b);
    true
}

/// Greedily add the symmetric link that most reduces total hops until no
/// candidate improves the objective or no ports remain.
///
/// Each round runs one all-pairs BFS and scores every candidate pair
/// against that matrix ([`RoundHops::total_with_pair`]) rather than
/// searching the network again with the pair added.  Candidates come in
/// `(a, b)` order, so a later one displaces the incumbent only with
/// strictly fewer hops, or as many hops and a shorter span; one whose
/// running total passes the incumbent's hops can do neither, and its
/// scoring stops there.  Which routers still have a free port both ways
/// is read once per round.
fn greedy_fill_symmetric(t: &mut Topology) {
    let layout = t.layout().clone();
    let class = t.class();
    let n = layout.num_routers();
    loop {
        let round = RoundHops::new(t);
        let base = round.total();
        let free: Vec<bool> = (0..n)
            .map(|r| t.free_out_ports(r) > 0 && t.free_in_ports(r) > 0)
            .collect();
        let mut best: Option<(u64, usize, (RouterId, RouterId))> = None;
        for a in (0..n).filter(|&a| free[a]) {
            for b in ((a + 1)..n).filter(|&b| free[b]) {
                if t.has_link(a, b) || t.has_link(b, a) {
                    continue;
                }
                let (dx, dy) = layout.span(a, b);
                if !class.allows(LinkSpan::new(dx, dy)) {
                    continue;
                }
                // No pair adds hops, so the base never cuts a score short.
                let cap = best.map_or(base, |(hops, _, _)| hops);
                let Some(hops) = round.total_with_pair(a, b, cap) else {
                    continue;
                };
                let candidate = (hops, dx + dy, (a, b));
                if best.is_none_or(|cur| candidate < cur) {
                    best = Some(candidate);
                }
            }
        }
        match best {
            Some((hops, _, (a, b))) if hops < base => {
                t.add_bidirectional(a, b);
            }
            _ => break,
        }
    }
}

/// One greedy round's all-pairs hop distances, with each source's row
/// summed once, against which every candidate pair of the round is scored.
struct RoundHops {
    n: usize,
    /// `dist[s * n + d]`, from [`metrics::all_pairs_hops`].
    dist: Vec<u32>,
    row_sums: Vec<u64>,
}

impl RoundHops {
    fn new(t: &Topology) -> Self {
        let n = t.num_routers();
        let dist = metrics::all_pairs_hops(t);
        debug_assert!(
            !dist.contains(&metrics::UNREACHABLE),
            "the Hamiltonian ring keeps every round strongly connected"
        );
        let row_sums = dist
            .chunks(n)
            .map(|row| row.iter().map(|&h| h as u64).sum())
            .collect();
        RoundHops { n, dist, row_sums }
    }

    fn row(&self, r: RouterId) -> &[u32] {
        &self.dist[r * self.n..(r + 1) * self.n]
    }

    /// Total hop count of the network as it stands.
    fn total(&self) -> u64 {
        self.row_sums.iter().sum()
    }

    /// Total hop count once the duplex pair `a <-> b` is added, or `None`
    /// as soon as the running total, summed source by source, exceeds
    /// `cap`.
    ///
    /// No shortest path uses both new links (that would revisit an end),
    /// so the new distance is `min(D[s][d], D[s][a] + 1 + D[b][d],
    /// D[s][b] + 1 + D[a][d])`.  From source `s` the link `a -> b` can
    /// only help when it reaches `b` sooner, `D[s][a] + 1 < D[s][b]`;
    /// otherwise `D[s][a] + 1 + D[b][d] >= D[s][b] + D[b][d] >= D[s][d]`.
    /// At most one direction can help, and when neither does the source's
    /// row keeps its sum.
    fn total_with_pair(&self, a: RouterId, b: RouterId, cap: u64) -> Option<u64> {
        let mut total = 0u64;
        for (s, &row_sum) in self.row_sums.iter().enumerate() {
            let from = self.row(s);
            let (to_a, to_b) = (from[a], from[b]);
            total += if to_a + 1 < to_b {
                shortcut_row_sum(from, to_a + 1, self.row(b))
            } else if to_b + 1 < to_a {
                shortcut_row_sum(from, to_b + 1, self.row(a))
            } else {
                row_sum
            };
            if total > cap {
                return None;
            }
        }
        Some(total)
    }
}

/// `Σ_d min(from[d], via + beyond[d])`: one source's hop sum when it can
/// also reach the new link's far end in `via` hops, and each `d` from
/// there in `beyond[d]`.
fn shortcut_row_sum(from: &[u32], via: u32, beyond: &[u32]) -> u64 {
    from.iter()
        .zip(beyond)
        .map(|(&d, &e)| d.min(via + e))
        .sum::<u32>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TopoAnalysis;
    use crate::cuts;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pair_scores_match_a_fresh_search_and_give_up_only_past_the_cap() {
        let mut rng = SmallRng::seed_from_u64(7);
        for (rows, cols) in [(2, 3), (3, 3), (4, 5), (5, 6), (8, 9)] {
            let layout = Layout::interposer_grid(rows, cols, rows * cols);
            let n = layout.num_routers();
            for density in [0.0, 0.05, 0.2] {
                // A ring of duplex links plus random one-way links.
                let class = LinkClass::Custom(LinkSpan::new(cols, rows));
                let mut t = Topology::empty("random", layout.clone(), class);
                for (a, b) in hamiltonian_ring(&layout) {
                    t.add_bidirectional(a, b);
                }
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        if rng.gen_bool(density) {
                            t.add_link(a, b);
                        }
                    }
                }
                let round = RoundHops::new(&t);
                for _ in 0..20 {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a == b || t.has_link(a, b) || t.has_link(b, a) {
                        continue;
                    }
                    let mut with_pair = t.clone();
                    with_pair.add_bidirectional(a, b);
                    let truth = TopoAnalysis::new(&with_pair).total_hops().unwrap();
                    assert_eq!(round.total_with_pair(a, b, u64::MAX), Some(truth));
                    for cap in [truth.saturating_sub(rng.gen_range(1..50)), truth, truth + 1] {
                        let expected = (truth <= cap).then_some(truth);
                        assert_eq!(round.total_with_pair(a, b, cap), expected, "cap {cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_4x5_link_count() {
        let m = mesh(&Layout::noi_4x5());
        // 4 rows x 4 horizontal + 3 x 5 vertical = 31 bidirectional links.
        assert_eq!(m.num_links(), 31);
        assert!(m.is_valid());
        assert!(m.is_symmetric());
    }

    #[test]
    fn folded_torus_4x5_matches_table2_link_count() {
        let t = folded_torus(&Layout::noi_4x5());
        assert_eq!(t.num_links(), 40, "folded torus on 4x5 has 40 links");
        assert!(t.is_valid(), "{:?}", t.validate());
        assert!(cuts::bisection_bandwidth(&t) >= 8.0);
    }

    #[test]
    fn kite_constructions_are_valid_and_within_class() {
        let layout = Layout::noi_4x5();
        for topo in [
            kite_small(&layout),
            kite_medium(&layout),
            kite_large(&layout),
        ] {
            assert!(topo.is_valid(), "{}: {:?}", topo.name(), topo.validate());
            assert!(topo.is_symmetric());
            // Expert-style networks use most of the radix budget.
            assert!(
                topo.num_links() >= 30,
                "{} has {}",
                topo.name(),
                topo.num_links()
            );
        }
    }

    #[test]
    fn kite_improves_over_mesh_and_ring() {
        let layout = Layout::noi_4x5();
        let m = mesh(&layout);
        let k = kite_small(&layout);
        assert!(metrics::average_hops(&k) < metrics::average_hops(&m));
        assert!(metrics::average_hops(&k) < 3.0);
    }

    #[test]
    fn kite_classes_get_better_with_longer_links() {
        let layout = Layout::noi_4x5();
        let s = metrics::average_hops(&kite_small(&layout));
        let l = metrics::average_hops(&kite_large(&layout));
        assert!(l <= s + 1e-9);
    }

    #[test]
    fn butter_donut_and_double_butterfly_are_valid() {
        let layout = Layout::noi_4x5();
        for t in [butter_donut(&layout), double_butterfly(&layout)] {
            assert!(t.is_valid(), "{}: {:?}", t.name(), t.validate());
            assert!(t.is_symmetric());
        }
    }

    #[test]
    fn lpbt_variants_have_lower_bisection_than_expert_designs() {
        let layout = Layout::noi_4x5();
        let lp = lpbt_hops(&layout);
        let lpp = lpbt_power(&layout);
        let kite = kite_medium(&layout);
        assert!(lp.is_valid());
        assert!(lpp.is_valid());
        assert!(cuts::bisection_bandwidth(&lp) <= cuts::bisection_bandwidth(&kite));
        assert!(cuts::bisection_bandwidth(&lpp) <= cuts::bisection_bandwidth(&lp));
    }

    #[test]
    fn hamiltonian_ring_visits_every_router_once() {
        let layout = Layout::noi_4x5();
        let ring = hamiltonian_ring(&layout);
        assert_eq!(ring.len(), 20);
        let mut seen = [0usize; 20];
        for (a, b) in &ring {
            seen[*a] += 1;
            seen[*b] += 1;
        }
        // Every router appears exactly twice (once as source, once as dest).
        assert!(seen.iter().all(|&c| c == 2));
        // All ring links are unit length.
        for (a, b) in &ring {
            let (dx, dy) = layout.span(*a, *b);
            assert!(dx + dy == 1, "ring link {a}->{b} spans ({dx},{dy})");
        }
    }

    #[test]
    fn rings_are_unit_length_and_kites_validate_when_a_side_is_even() {
        for rows in 2..=8 {
            for cols in (2..=8).filter(|&cols| rows % 2 == 0 || cols % 2 == 0) {
                let layout = Layout::interposer_grid(rows, cols, 4);
                let ring = hamiltonian_ring(&layout);
                assert_eq!(ring.len(), rows * cols);
                for (a, b) in ring {
                    let (dx, dy) = layout.span(a, b);
                    assert_eq!(dx + dy, 1, "{rows}x{cols}: ring link {a}->{b}");
                }
                for class in LinkClass::STANDARD {
                    let t = kite(&layout, class);
                    assert!(
                        t.is_valid(),
                        "{rows}x{cols} {}: {:?}",
                        t.name(),
                        t.validate()
                    );
                }
            }
        }
    }

    #[test]
    fn hamiltonian_ring_works_on_larger_layouts() {
        for layout in [Layout::noi_6x5(), Layout::noi_8x6()] {
            let ring = hamiltonian_ring(&layout);
            assert_eq!(ring.len(), layout.num_routers());
        }
    }

    #[test]
    fn all_baselines_cover_three_classes() {
        let layout = Layout::noi_4x5();
        let all = all_baselines(&layout);
        assert!(all.len() >= 8);
        for t in &all {
            assert!(t.is_valid(), "{} invalid: {:?}", t.name(), t.validate());
        }
    }

    #[test]
    fn baselines_for_class_respect_class() {
        let layout = Layout::noi_4x5();
        for class in LinkClass::STANDARD {
            for t in baselines_for_class(&layout, class) {
                assert!(t.is_valid(), "{}", t.name());
            }
        }
    }
}
