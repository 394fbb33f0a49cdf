//! Shortest-path enumeration.
//!
//! MCLB routing selects among *all* shortest paths of each flow, so the
//! path set must be enumerated explicitly.  The paper computes it with
//! Floyd–Warshall; here the distances come from per-source BFS (equivalent
//! for unweighted graphs) and the paths are enumerated by walking the
//! shortest-path DAG.  A per-flow cap guards against combinatorial blow-up
//! on dense topologies; the cap is far above what 20–48 router NoIs
//! produce.
//!
//! The whole set lives in one arena of router ids.  Flows are stored in
//! `(s, d)` order, and a flow's paths follow one another in the order of
//! a depth-first walk from `s` that tries out-neighbours in ascending id,
//! keeping the first 64 paths it reaches.  MCLB and NDBT choose paths by
//! their index in that order, so it is part of the routing result.  Every
//! path of a flow has the flow's hop distance, so a flow needs only its
//! offset in the arena: path `i` starts `i * (hops + 1)` ids after it.

use netsmith_topo::metrics::{all_pairs_hops, UNREACHABLE};
use netsmith_topo::{RouterId, Topology};
use std::ops::Index;
use std::slice::ChunksExact;

/// Default cap on the number of shortest paths enumerated per flow.
const DEFAULT_MAX_PATHS_PER_FLOW: usize = 64;

/// The set of shortest paths for every ordered `(src, dst)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSet {
    n: usize,
    /// Router ids of every path, back to back, flow by flow.
    routers: Vec<RouterId>,
    /// `flow_start[s * n + d]..flow_start[s * n + d + 1]`: the router ids
    /// of the paths from `s` to `d`.
    flow_start: Vec<usize>,
    /// Hop distance matrix used to build the set.
    dist: Vec<u32>,
}

/// The shortest paths of one flow, a view into a [`PathSet`]: indexing
/// and iteration give each path as a router sequence.
#[derive(Debug, Clone, Copy)]
pub struct Paths<'a> {
    /// The flow's router ids, `path_len` per path.
    routers: &'a [RouterId],
    path_len: usize,
}

impl<'a> Paths<'a> {
    /// Number of paths.
    pub fn len(&self) -> usize {
        self.routers.len() / self.path_len
    }

    /// True for an unreachable pair or `s == d`.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// The paths in enumeration order.
    pub fn iter(&self) -> ChunksExact<'a, RouterId> {
        self.routers.chunks_exact(self.path_len)
    }
}

impl Index<usize> for Paths<'_> {
    type Output = [RouterId];

    fn index(&self, i: usize) -> &[RouterId] {
        &self.routers[i * self.path_len..(i + 1) * self.path_len]
    }
}

impl<'a> IntoIterator for Paths<'a> {
    type Item = &'a [RouterId];
    type IntoIter = ChunksExact<'a, RouterId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PathSet {
    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.n
    }

    /// All shortest paths from `s` to `d` (empty for unreachable pairs or
    /// when `s == d`).
    pub fn paths(&self, s: RouterId, d: RouterId) -> Paths<'_> {
        let flow = s * self.n + d;
        Paths {
            routers: &self.routers[self.flow_start[flow]..self.flow_start[flow + 1]],
            // Any non-zero length for an empty flow.
            path_len: self.dist[flow].wrapping_add(1).max(1) as usize,
        }
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
                .filter(move |&d| self.flow_start[s * n + d] < self.flow_start[s * n + d + 1])
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
    let adj: Vec<Vec<RouterId>> = (0..n).map(|i| topo.neighbours_out(i)).collect();
    let mut routers = Vec::new();
    let mut flow_start = Vec::with_capacity(n * n + 1);
    let mut current = Vec::new();
    for s in 0..n {
        for d in 0..n {
            flow_start.push(routers.len());
            if s == d || dist[s * n + d] == UNREACHABLE {
                continue;
            }
            let dag = Dag {
                n,
                d,
                dist: &dist,
                adj: &adj,
                cap: max_per_flow,
            };
            current.clear();
            current.push(s);
            dag.walk(s, &mut current, &mut routers, &mut 0);
        }
    }
    flow_start.push(routers.len());
    PathSet {
        n,
        routers,
        flow_start,
        dist,
    }
}

/// The shortest-path DAG towards `d`: from `u`, a neighbour `v` is on a
/// shortest path to `d` iff `dist(v, d) == dist(u, d) - 1`.
struct Dag<'a> {
    n: usize,
    d: RouterId,
    dist: &'a [u32],
    adj: &'a [Vec<RouterId>],
    cap: usize,
}

impl Dag<'_> {
    /// Depth-first walk from `u` (the last router of `current`), appending
    /// each path that reaches `d` to `out` until `found` reaches the cap.
    fn walk(
        &self,
        u: RouterId,
        current: &mut Vec<RouterId>,
        out: &mut Vec<RouterId>,
        found: &mut usize,
    ) {
        if u == self.d {
            out.extend_from_slice(current);
            *found += 1;
            return;
        }
        let remaining = self.dist[u * self.n + self.d];
        for &v in &self.adj[u] {
            if self.dist[v * self.n + self.d].wrapping_add(1) == remaining {
                current.push(v);
                self.walk(v, current, out, found);
                current.pop();
                if *found >= self.cap {
                    return;
                }
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
        let total = |ps: &PathSet| ps.flows().map(|(s, d)| ps.paths(s, d).len()).sum::<usize>();
        assert!(total(&full) > total(&capped));
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
                let mut sorted = p.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), p.len(), "path revisits a router: {p:?}");
            }
        }
    }
}
