//! Shared, cached topology analysis with delta evaluation.
//!
//! Every objective the NetSmith search engines optimize is a function of a
//! small set of structural quantities: the all-pairs hop-distance matrix
//! (total/average/demand-weighted hops, diameter), the per-router degrees
//! (spare min-cut capacity), the wire inventory (static power) and the
//! critical-link set (single points of failure).  Before this module each
//! objective recomputed its inputs from scratch on every candidate — a full
//! all-pairs BFS per annealer move, ~10⁵ times per synthesis run.
//!
//! [`TopoAnalysis`] computes the bundle once per candidate and shares it
//! across all objective terms; the expensive optional pieces (wire length,
//! critical links) are filled lazily so objectives that never ask for them
//! never pay for them.  For the annealer's single-link add/remove moves,
//! [`TopoAnalysis::after_move`] updates the distance matrix *incrementally*:
//!
//! * **additions** can only shorten distances, so each source row is
//!   repaired with a decrease-only relaxation seeded at the new link —
//!   untouched rows cost one comparison per added link;
//! * **removals** can only lengthen distances, and only for sources whose
//!   shortest-path DAG used the removed link (`dist(s,a) + 1 == dist(s,b)`);
//!   exactly those rows are re-derived by a fresh BFS on the new topology.
//!
//! Both run on the crate's one BFS kernel (`bfs.rs`): the new topology's
//! out-adjacency is packed once per call into `ceil(n/64)`-word bitset
//! rows, and each level of a search ORs the rows of its frontier.  A
//! re-derived row costs `n * ceil(n/64)` word ORs plus `n` writes, so a
//! move that dirties half the rows of a 48-router topology costs a few
//! microseconds.  There is no full-recompute fallback: a move that
//! dirties every row costs about what [`TopoAnalysis::new`] costs.
//!
//! The incremental distances are exact (integer hop counts, no floating
//! point drift), which the property tests assert by replaying random move
//! sequences against from-scratch analyses, and `tests/bfs_oracle.rs`
//! against verbatim copies of the dense-scan engines the kernel replaced.

use crate::bfs::{Bfs, BitAdjacency};
use crate::layout::RouterId;
use crate::metrics::{self, UNREACHABLE};
use crate::resilience;
use crate::topology::Topology;
use crate::traffic::DemandMatrix;
use std::cell::OnceCell;

/// Wire inventory shared by the energy terms: total length and the physical
/// link count (a duplex pair counts once, matching
/// [`Topology::total_wire_length_mm`] / [`Topology::num_links`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireStats {
    /// Total wire length in millimetres.
    pub total_mm: f64,
    /// Number of physical links.
    pub num_links: usize,
}

/// Cached structural analysis of one candidate topology.
///
/// Create with [`TopoAnalysis::new`]; derive the analysis of a neighbouring
/// candidate (one move away) with [`TopoAnalysis::after_move`].  The lazily
/// cached members ([`TopoAnalysis::critical_links`],
/// [`TopoAnalysis::wire_stats`]) take the topology as an argument: callers
/// must pass the same topology the analysis was built from.
#[derive(Debug, Clone)]
pub struct TopoAnalysis {
    n: usize,
    /// Row-major `n x n` hop distances ([`UNREACHABLE`] when no path).
    dist: Vec<u32>,
    /// Per-source sum of finite distances.
    row_sum: Vec<u64>,
    /// Per-source count of unreachable destinations.
    row_unreachable: Vec<u32>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    wire: OnceCell<WireStats>,
    critical: OnceCell<Vec<(RouterId, RouterId)>>,
}

impl TopoAnalysis {
    /// Analyse a topology from scratch (one kernel BFS per source).
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_routers();
        let dist = metrics::all_pairs_hops(topo);
        let mut row_sum = vec![0; n];
        let mut row_unreachable = vec![0; n];
        let mut out_deg = vec![0; n];
        let mut in_deg = vec![0; n];
        for s in 0..n {
            let row = &dist[s * n..(s + 1) * n];
            (row_sum[s], row_unreachable[s]) = row_aggregate(row);
            // Links are simple (no parallel or self links), so the directed
            // links are exactly the pairs at hop distance 1.
            for (d, _) in row.iter().enumerate().filter(|&(_, &h)| h == 1) {
                out_deg[s] += 1;
                in_deg[d] += 1;
            }
        }
        TopoAnalysis {
            n,
            dist,
            row_sum,
            row_unreachable,
            out_deg,
            in_deg,
            wire: OnceCell::new(),
            critical: OnceCell::new(),
        }
    }

    /// The analysis of `topo`, a topology derived from this analysis's
    /// topology by removing the directed links in `removed` and then adding
    /// the directed links in `added` (each directed pair at most once).
    ///
    /// Only the rows a move can change are recomputed, on the kernel's
    /// bitset rows of `topo`; the result is identical to
    /// `TopoAnalysis::new(topo)`.
    pub fn after_move(
        &self,
        topo: &Topology,
        removed: &[(RouterId, RouterId)],
        added: &[(RouterId, RouterId)],
    ) -> Self {
        let n = self.n;
        debug_assert_eq!(topo.num_routers(), n, "analysis/topology size mismatch");

        let mut out_deg = self.out_deg.clone();
        let mut in_deg = self.in_deg.clone();
        for &(a, b) in removed {
            debug_assert!(!topo.has_link(a, b) || added.contains(&(a, b)));
            out_deg[a] -= 1;
            in_deg[b] -= 1;
        }
        for &(a, b) in added {
            debug_assert!(topo.has_link(a, b));
            out_deg[a] += 1;
            in_deg[b] += 1;
        }

        let mut analysis = TopoAnalysis {
            n,
            dist: self.dist.clone(),
            row_sum: self.row_sum.clone(),
            row_unreachable: self.row_unreachable.clone(),
            out_deg,
            in_deg,
            wire: OnceCell::new(),
            critical: OnceCell::new(),
        };

        let adj = BitAdjacency::out_links(topo);
        let mut bfs = Bfs::new(&adj);
        for s in 0..n {
            let row = &mut analysis.dist[s * n..(s + 1) * n];
            // A source row is invalidated by a removal only when the removed
            // link was *tight* from that source (on some shortest path).
            let dirty = removed
                .iter()
                .any(|&(a, b)| row[a] != UNREACHABLE && row[a] + 1 == row[b]);
            let changed = if dirty {
                // Rows whose shortest-path DAG lost a link: re-derive on the
                // new topology (additions included, so the row is final).
                bfs.levels(&adj, s, row);
                true
            } else {
                // Clean rows are still valid for the link-removed graph;
                // additions can only shorten, so a decrease-only relaxation
                // seeded at the new links repairs the row exactly.
                bfs.relax(&adj, row, added)
            };
            if changed {
                analysis.refresh_row_aggregate(s);
            }
        }
        analysis
    }

    fn refresh_row_aggregate(&mut self, s: usize) {
        (self.row_sum[s], self.row_unreachable[s]) =
            row_aggregate(&self.dist[s * self.n..(s + 1) * self.n]);
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.n
    }

    /// Shortest-path hop distance, `None` when unreachable.
    pub fn hop_distance(&self, s: RouterId, d: RouterId) -> Option<u32> {
        let h = self.dist[s * self.n + d];
        (h != UNREACHABLE).then_some(h)
    }

    /// Number of ordered `(s, d)` pairs (s != d) with no directed path.
    pub fn unreachable_pairs(&self) -> usize {
        self.row_unreachable.iter().map(|&u| u as usize).sum()
    }

    /// True when every router reaches every other router.
    pub fn is_connected(&self) -> bool {
        self.row_unreachable.iter().all(|&u| u == 0)
    }

    /// Total hop count over ordered pairs, `None` when disconnected.
    pub fn total_hops(&self) -> Option<u64> {
        self.is_connected().then(|| self.row_sum.iter().sum())
    }

    /// Average hop count (`f64::INFINITY` when disconnected).
    pub fn average_hops(&self) -> f64 {
        match self.total_hops() {
            Some(total) => total as f64 / (self.n as f64 * (self.n as f64 - 1.0)),
            None => f64::INFINITY,
        }
    }

    /// Network diameter, `None` when disconnected.
    pub fn diameter(&self) -> Option<u32> {
        if !self.is_connected() {
            return None;
        }
        self.dist
            .iter()
            .filter(|&&h| h != UNREACHABLE)
            .max()
            .copied()
    }

    /// Demand-weighted average hop count: `sum(demand[s][d] * hops(s,d)) /
    /// sum(demand)` over pairs with positive demand, `0.0` when there is no
    /// demand and `f64::INFINITY` when some pair with positive demand is
    /// unreachable.
    pub fn demand_weighted_hops(&self, demand: &DemandMatrix) -> f64 {
        let n = self.n;
        assert_eq!(demand.num_nodes(), n, "demand matrix size mismatch");
        let mut total = 0.0;
        let mut weight = 0.0;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let w = demand.demand(s, d);
                if w <= 0.0 {
                    continue;
                }
                let h = self.dist[s * n + d];
                if h == UNREACHABLE {
                    return f64::INFINITY;
                }
                total += w * h as f64;
                weight += w;
            }
        }
        if weight == 0.0 {
            0.0
        } else {
            total / weight
        }
    }

    /// Out-degree of a router.
    pub fn out_degree(&self, r: RouterId) -> usize {
        self.out_deg[r] as usize
    }

    /// In-degree of a router.
    pub fn in_degree(&self, r: RouterId) -> usize {
        self.in_deg[r] as usize
    }

    /// Minimum over all routers of `min(out_degree, in_degree)` — the
    /// capacity of the weakest isolating cut.  The directed edge
    /// connectivity of the topology can never exceed this, so it acts as
    /// the cheap spare-min-cut proxy the FaultOp objective rewards: a
    /// fabric whose weakest router keeps several independent links can
    /// absorb that many link faults around it.
    pub fn min_directional_degree(&self) -> usize {
        (0..self.n)
            .map(|r| self.out_deg[r].min(self.in_deg[r]) as usize)
            .min()
            .unwrap_or(0)
    }

    /// The critical (articulation) duplex pairs of the topology, computed
    /// on first use and cached.  `topo` must be the topology this analysis
    /// was built from.
    pub fn critical_links(&self, topo: &Topology) -> &[(RouterId, RouterId)] {
        debug_assert_eq!(topo.num_routers(), self.n);
        self.critical
            .get_or_init(|| resilience::critical_link_pairs(topo))
    }

    /// Total wire length and physical link count, computed on first use and
    /// cached.  `topo` must be the topology this analysis was built from.
    pub fn wire_stats(&self, topo: &Topology) -> WireStats {
        debug_assert_eq!(topo.num_routers(), self.n);
        *self.wire.get_or_init(|| WireStats {
            total_mm: topo.total_wire_length_mm(),
            num_links: topo.num_links(),
        })
    }
}

/// Sum of the finite distances in one source row and its count of
/// unreachable destinations (the row's own zero diagonal adds nothing).
fn row_aggregate(row: &[u32]) -> (u64, u32) {
    let mut sum = 0u64;
    let mut unreachable = 0u32;
    for &h in row {
        if h == UNREACHABLE {
            unreachable += 1;
        } else {
            sum += h as u64;
        }
    }
    (sum, unreachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert;
    use crate::layout::Layout;
    use crate::linkclass::LinkClass;

    fn assert_matches_scratch(analysis: &TopoAnalysis, topo: &Topology) {
        let scratch = TopoAnalysis::new(topo);
        let n = topo.num_routers();
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    analysis.hop_distance(s, d),
                    scratch.hop_distance(s, d),
                    "dist({s},{d}) mismatch"
                );
            }
            assert_eq!(analysis.out_degree(s), scratch.out_degree(s));
            assert_eq!(analysis.in_degree(s), scratch.in_degree(s));
        }
        assert_eq!(analysis.total_hops(), scratch.total_hops());
        assert_eq!(analysis.unreachable_pairs(), scratch.unreachable_pairs());
    }

    #[test]
    fn fresh_analysis_matches_metrics() {
        // Reduce the BFS matrix by hand and compare with the cached sums.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let n = mesh.num_routers();
        let dist = metrics::all_pairs_hops(&mesh);
        let off_diagonal = || (0..n * n).filter(|&i| i / n != i % n).map(|i| dist[i]);
        let total: u64 = off_diagonal().map(u64::from).sum();
        let analysis = TopoAnalysis::new(&mesh);
        assert_eq!(analysis.total_hops(), Some(total));
        assert_eq!(analysis.diameter(), off_diagonal().max());
        assert_eq!(analysis.average_hops(), total as f64 / (n * (n - 1)) as f64);
        let weakest = (0..n).map(|r| mesh.out_degree(r).min(mesh.in_degree(r)));
        assert_eq!(Some(analysis.min_directional_degree()), weakest.min());
        let stats = analysis.wire_stats(&mesh);
        assert_eq!(stats.total_mm, mesh.total_wire_length_mm());
        assert_eq!(stats.num_links, mesh.num_links());
        assert_eq!(
            analysis.critical_links(&mesh),
            resilience::critical_link_pairs(&mesh).as_slice()
        );
    }

    #[test]
    fn addition_delta_matches_scratch() {
        let layout = Layout::noi_4x5();
        let mut topo = expert::mesh(&layout);
        let analysis = TopoAnalysis::new(&topo);
        // Add a diagonal link (mesh is Small class; force via Custom not
        // needed — (0,6) spans (1,1) which Small allows).
        topo.add_link(0, 6);
        let moved = analysis.after_move(&topo, &[], &[(0, 6)]);
        assert_matches_scratch(&moved, &topo);
    }

    #[test]
    fn removal_delta_matches_scratch() {
        let layout = Layout::noi_4x5();
        let mut topo = expert::folded_torus(&layout);
        let analysis = TopoAnalysis::new(&topo);
        let (a, b) = topo.links().next().unwrap();
        topo.remove_link(a, b);
        let moved = analysis.after_move(&topo, &[(a, b)], &[]);
        assert_matches_scratch(&moved, &topo);
    }

    #[test]
    fn rewire_delta_matches_scratch() {
        let layout = Layout::noi_4x5();
        let mut topo = expert::mesh(&layout);
        let analysis = TopoAnalysis::new(&topo);
        // Swap (0,1) for (0,6): a remove+add compound move.
        topo.remove_link(0, 1);
        topo.add_link(0, 6);
        let moved = analysis.after_move(&topo, &[(0, 1)], &[(0, 6)]);
        assert_matches_scratch(&moved, &topo);
    }

    #[test]
    fn disconnecting_removal_delta_matches_scratch() {
        // A chain: removing a middle pair splits the network; the delta
        // path must agree on the unreachable accounting.
        let layout = Layout::interposer_grid(2, 3, 4);
        let mut topo = Topology::from_bidirectional_links(
            "chain",
            layout,
            LinkClass::Custom(crate::linkclass::LinkSpan::new(8, 8)),
            &[(0, 1), (1, 2), (2, 5), (5, 4), (4, 3)],
        );
        let analysis = TopoAnalysis::new(&topo);
        topo.remove_link(1, 2);
        topo.remove_link(2, 1);
        let moved = analysis.after_move(&topo, &[(1, 2), (2, 1)], &[]);
        assert_matches_scratch(&moved, &topo);
        assert!(!moved.is_connected());
        assert_eq!(moved.total_hops(), None);
        assert_eq!(moved.average_hops(), f64::INFINITY);
    }

    #[test]
    fn reconnecting_addition_delta_matches_scratch() {
        let layout = Layout::interposer_grid(2, 3, 4);
        let class = LinkClass::Custom(crate::linkclass::LinkSpan::new(8, 8));
        let mut topo =
            Topology::from_bidirectional_links("split", layout, class, &[(0, 1), (4, 3)]);
        let analysis = TopoAnalysis::new(&topo);
        assert!(!analysis.is_connected());
        topo.add_link(1, 4);
        let moved = analysis.after_move(&topo, &[], &[(1, 4)]);
        assert_matches_scratch(&moved, &topo);
    }

    #[test]
    fn demand_weighted_hops_matches_metrics() {
        let layout = Layout::noi_4x5();
        let topo = expert::kite_medium(&layout);
        let n = topo.num_routers();
        let demand = crate::traffic::TrafficPattern::Shuffle.demand_matrix(&layout);
        let dist = metrics::all_pairs_hops(&topo);
        let (mut total, mut weight) = (0.0, 0.0);
        for s in 0..n {
            for d in (0..n).filter(|&d| d != s) {
                total += demand.demand(s, d) * dist[s * n + d] as f64;
                weight += demand.demand(s, d);
            }
        }
        let cached = TopoAnalysis::new(&topo).demand_weighted_hops(&demand);
        assert!((cached - total / weight).abs() < 1e-12);
    }
}
