//! Shortest-path enumeration.
//!
//! MCLB routing selects among *all* shortest paths of each flow, so the
//! path set must be enumerated explicitly.  The paper computes it with
//! Floyd–Warshall; here the distances come from per-source BFS (equivalent
//! for unweighted graphs) and the paths are enumerated by walking the
//! shortest-path DAG.  A per-flow cap guards against combinatorial blow-up
//! on dense topologies; the cap is far above what 20–48 router NoIs
//! produce.

use netsmith_topo::metrics::{all_pairs_hops, UNREACHABLE};
use netsmith_topo::{RouterId, Topology};

/// Default cap on the number of shortest paths enumerated per flow.
const DEFAULT_MAX_PATHS_PER_FLOW: usize = 64;

/// The set of shortest paths for every ordered `(src, dst)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSet {
    n: usize,
    /// `paths[s * n + d]` = list of shortest paths, each a router sequence
    /// starting at `s` and ending at `d`.
    paths: Vec<Vec<Vec<RouterId>>>,
    /// Hop distance matrix used to build the set.
    dist: Vec<u32>,
}

impl PathSet {
    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.n
    }

    /// All shortest paths from `s` to `d` (empty for unreachable pairs or
    /// when `s == d`).
    pub fn paths(&self, s: RouterId, d: RouterId) -> &[Vec<RouterId>] {
        &self.paths[s * self.n + d]
    }

    /// Shortest hop distance from `s` to `d`.
    pub fn distance(&self, s: RouterId, d: RouterId) -> Option<u32> {
        let v = self.dist[s * self.n + d];
        if v == UNREACHABLE {
            None
        } else {
            Some(v)
        }
    }

    /// Iterate over all flows `(s, d)` with `s != d` that have at least one
    /// path.
    pub fn flows(&self) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
        let n = self.n;
        (0..n).flat_map(move |s| {
            (0..n)
                .filter(move |&d| d != s && !self.paths[s * n + d].is_empty())
                .map(move |d| (s, d))
        })
    }
}

/// Enumerate all shortest paths of every flow with the default per-flow cap.
pub fn all_shortest_paths(topo: &Topology) -> PathSet {
    all_shortest_paths_capped(topo, DEFAULT_MAX_PATHS_PER_FLOW)
}

/// Enumerate all shortest paths with an explicit per-flow cap.
fn all_shortest_paths_capped(topo: &Topology, max_per_flow: usize) -> PathSet {
    let n = topo.num_routers();
    let dist = all_pairs_hops(topo);
    let mut paths = vec![Vec::new(); n * n];
    // Outgoing adjacency once.
    let adj: Vec<Vec<RouterId>> = (0..n).map(|i| topo.neighbours_out(i)).collect();
    for s in 0..n {
        for d in 0..n {
            if s == d || dist[s * n + d] == UNREACHABLE {
                continue;
            }
            let mut found = Vec::new();
            let mut current = vec![s];
            enumerate_dag_paths(s, d, n, &dist, &adj, &mut current, &mut found, max_per_flow);
            paths[s * n + d] = found;
        }
    }
    PathSet { n, paths, dist }
}

/// DFS over the shortest-path DAG: from `u`, a neighbour `v` is on a
/// shortest path to `d` iff `dist(v, d) == dist(u, d) - 1`.
#[allow(clippy::too_many_arguments)]
fn enumerate_dag_paths(
    u: RouterId,
    d: RouterId,
    n: usize,
    dist: &[u32],
    adj: &[Vec<RouterId>],
    current: &mut Vec<RouterId>,
    found: &mut Vec<Vec<RouterId>>,
    cap: usize,
) {
    if found.len() >= cap {
        return;
    }
    if u == d {
        found.push(current.clone());
        return;
    }
    let remaining = dist[u * n + d];
    for &v in &adj[u] {
        if dist[v * n + d] != UNREACHABLE && dist[v * n + d] + 1 == remaining {
            current.push(v);
            enumerate_dag_paths(v, d, n, dist, adj, current, found, cap);
            current.pop();
            if found.len() >= cap {
                return;
            }
        }
    }
}

/// Number of links (channels) traversed by a path.
pub fn path_length(path: &[RouterId]) -> usize {
    path.len().saturating_sub(1)
}

/// The directed links traversed by a path, in order.
pub fn path_links(path: &[RouterId]) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
    path.windows(2).map(|w| (w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    #[test]
    fn mesh_paths_have_shortest_length_and_correct_endpoints() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        for (s, d) in ps.flows() {
            let expected = ps.distance(s, d).unwrap() as usize;
            for p in ps.paths(s, d) {
                assert_eq!(p.first(), Some(&s));
                assert_eq!(p.last(), Some(&d));
                assert_eq!(path_length(p), expected);
                // Every consecutive pair must be a real link.
                for (a, b) in path_links(p) {
                    assert!(mesh.has_link(a, b), "missing link {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn mesh_path_counts_follow_lattice_combinatorics() {
        // In a mesh the number of shortest paths between (0,0) and (1,2) is
        // C(3,1) = 3.
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let ps = all_shortest_paths(&mesh);
        let s = layout.router_at(0, 0);
        let d = layout.router_at(1, 2);
        assert_eq!(ps.paths(s, d).len(), 3);
        // Straight-line flows have exactly one shortest path.
        let d2 = layout.router_at(0, 3);
        assert_eq!(ps.paths(s, d2).len(), 1);
    }

    #[test]
    fn every_connected_flow_has_at_least_one_path() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let ps = all_shortest_paths(&torus);
        let mut flows = 0;
        for s in 0..20 {
            for d in 0..20 {
                if s != d {
                    assert!(!ps.paths(s, d).is_empty(), "no path {s}->{d}");
                    flows += 1;
                }
            }
        }
        assert_eq!(flows, 380);
        assert_eq!(ps.flows().count(), 380);
    }

    #[test]
    fn cap_limits_enumeration() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let capped = all_shortest_paths_capped(&mesh, 2);
        for (s, d) in capped.flows() {
            assert!(capped.paths(s, d).len() <= 2);
        }
        let full = all_shortest_paths(&mesh);
        let total = |ps: &PathSet| ps.paths.iter().map(Vec::len).sum::<usize>();
        assert!(total(&full) >= total(&capped));
    }

    #[test]
    fn unreachable_pairs_have_no_paths() {
        use netsmith_topo::{LinkClass, Topology};
        let layout = Layout::noi_4x5();
        let mut t = Topology::empty("sparse", layout, LinkClass::Small);
        t.add_bidirectional(0, 1);
        let ps = all_shortest_paths(&t);
        assert!(ps.paths(0, 5).is_empty());
        assert_eq!(ps.distance(0, 5), None);
        assert_eq!(ps.paths(0, 1).len(), 1);
    }

    #[test]
    fn paths_are_simple() {
        let bd = expert::butter_donut(&Layout::noi_4x5());
        let ps = all_shortest_paths(&bd);
        for (s, d) in ps.flows() {
            for p in ps.paths(s, d) {
                let mut sorted = p.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), p.len(), "path revisits a router: {p:?}");
            }
        }
    }
}
