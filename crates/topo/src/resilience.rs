//! Structural robustness metrics: critical (articulation) links and
//! connectivity under router failures.
//!
//! Datacenter-scale interposer fabrics run under sustained traffic for
//! years, so permanent link and router failures are the common case rather
//! than the exception.  The helpers in this module answer the questions a
//! fault-tolerant synthesis flow keeps asking about a candidate topology:
//!
//! * which full-duplex links are *critical* — single points of failure
//!   whose loss breaks strong connectivity — and
//! * which routers still reach each other once some routers are dead.
//!
//! Every answer comes from the crate's one BFS kernel (`bfs.rs`): the
//! topology is packed once into bitset rows with dead routers' rows and
//! columns cleared, and a router reaches the routers its level row marks
//! as reachable.  The `netsmith-gen` annealer asks for the critical links
//! on every FaultOp candidate move; `netsmith-fault` uses the masked
//! helpers to reason about degraded sub-topologies.  The spare-capacity
//! proxy, the weakest router's directional degree, is
//! [`crate::TopoAnalysis::min_directional_degree`].

use crate::bfs::{Bfs, BitAdjacency};
use crate::layout::RouterId;
use crate::metrics::UNREACHABLE;
use crate::topology::Topology;

/// All full-duplex router pairs that are connected in at least one
/// direction, in canonical `(lo, hi)` order.  These are the physical wires
/// a single link fault takes out (both directions share the wire run).
pub fn duplex_pairs(topo: &Topology) -> Vec<(RouterId, RouterId)> {
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

/// True when every router in `alive` can reach every other alive router
/// through alive routers only (vacuously true with no alive router).
///
/// Two kernel searches answer it: the first alive router must reach every
/// alive router along the links and against them, since then any router
/// reaches any other through it.
pub fn is_strongly_connected_among(topo: &Topology, alive: &[bool]) -> bool {
    let Some(root) = alive.iter().position(|&a| a) else {
        return true;
    };
    let mut row = vec![UNREACHABLE; alive.len()];
    let mut reaches_all = |adj: &BitAdjacency| {
        Bfs::new(adj).levels(adj, root, &mut row);
        row.iter().zip(alive).all(|(&h, &a)| !a || h != UNREACHABLE)
    };
    reaches_all(&BitAdjacency::among(topo, alive))
        && reaches_all(&BitAdjacency::reversed_among(topo, alive))
}

/// Number of ordered alive `(s, d)` pairs (s != d) with no directed path
/// through alive routers.  The degraded-topology analogue of
/// [`crate::metrics::unreachable_pairs`].
pub fn unreachable_pairs_among(topo: &Topology, alive: &[bool]) -> usize {
    unreachable_among(&BitAdjacency::among(topo, alive), alive)
}

/// Ordered alive pairs without a path in `adj`, which must have been
/// packed with the same `alive` mask: one kernel search per alive source.
fn unreachable_among(adj: &BitAdjacency, alive: &[bool]) -> usize {
    let mut bfs = Bfs::new(adj);
    let mut row = vec![UNREACHABLE; alive.len()];
    let live = alive.iter().filter(|&&a| a).count();
    (0..alive.len())
        .filter(|&s| alive[s])
        .map(|s| {
            // The source and every router it reaches are alive.
            bfs.levels(adj, s, &mut row);
            live - row.iter().filter(|&&h| h != UNREACHABLE).count()
        })
        .sum()
}

/// The *critical* duplex pairs of a topology: physical links whose failure
/// (removal of both directions) leaves some ordered router pair without a
/// directed path.  A topology with no critical pairs re-routes around any
/// single link failure; the `netsmith-gen` FaultOp objective drives this
/// count to zero during synthesis (so this runs on every annealer move and
/// is kept as cheap as possible).
pub fn critical_link_pairs(topo: &Topology) -> Vec<(RouterId, RouterId)> {
    let pairs = duplex_pairs(topo);
    let alive = vec![true; topo.num_routers()];
    let mut adj = BitAdjacency::among(topo, &alive);
    if unreachable_among(&adj, &alive) != 0 {
        // Removing links never restores strong connectivity.
        return pairs;
    }
    // On a strongly connected digraph, removing the duplex pair (i, j)
    // preserves strong connectivity iff i and j still reach each other:
    // any other path that used a removed direction can splice in the
    // surviving i→j / j→i detour.
    let mut bfs = Bfs::new(&adj);
    let mut row = vec![UNREACHABLE; alive.len()];
    let mut reaches = |adj: &BitAdjacency, from: RouterId, to: RouterId| {
        bfs.levels(adj, from, &mut row);
        row[to] != UNREACHABLE
    };
    pairs
        .into_iter()
        .filter(|&(i, j)| adj.without_pair(i, j, |adj| !(reaches(adj, i, j) && reaches(adj, j, i))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TopoAnalysis;
    use crate::expert;
    use crate::layout::Layout;
    use crate::linkclass::{LinkClass, LinkSpan};

    fn chain() -> Topology {
        // Bidirectional snake path 0-1-2-5-4-3 over a 2x3 grid: every link
        // is critical.  The Custom class bypasses length validation.
        let layout = Layout::interposer_grid(2, 3, 4);
        Topology::from_bidirectional_links(
            "chain",
            layout,
            LinkClass::Custom(LinkSpan::new(8, 8)),
            &[(0, 1), (1, 2), (2, 5), (5, 4), (4, 3)],
        )
    }

    #[test]
    fn every_chain_link_is_critical() {
        let t = chain();
        let critical = critical_link_pairs(&t);
        assert_eq!(critical.len(), 5);
        assert_eq!(TopoAnalysis::new(&t).min_directional_degree(), 1);
    }

    #[test]
    fn mesh_has_no_critical_links() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        assert!(critical_link_pairs(&mesh).is_empty());
        // Mesh corners have degree 2 in each direction.
        assert_eq!(TopoAnalysis::new(&mesh).min_directional_degree(), 2);
    }

    #[test]
    fn duplex_pairs_count_matches_num_links_for_symmetric_topologies() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        assert_eq!(duplex_pairs(&torus).len(), torus.num_links());
    }

    #[test]
    fn masked_connectivity_ignores_dead_routers() {
        let t = chain();
        let mut alive = vec![true; t.num_routers()];
        // Killing the chain's tail router leaves the rest connected...
        alive[3] = false;
        assert!(is_strongly_connected_among(&t, &alive));
        assert_eq!(unreachable_pairs_among(&t, &alive), 0);
        // ...but killing a middle router splits it.
        alive[3] = true;
        alive[2] = false;
        assert!(!is_strongly_connected_among(&t, &alive));
        // {0,1} and {5,4,3} are mutually unreachable: 2*3 ordered pairs
        // each way.
        assert_eq!(unreachable_pairs_among(&t, &alive), 12);
    }

    #[test]
    fn empty_alive_mask_is_vacuously_connected() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let alive = vec![false; mesh.num_routers()];
        assert!(is_strongly_connected_among(&mesh, &alive));
        assert_eq!(unreachable_pairs_among(&mesh, &alive), 0);
    }
}
