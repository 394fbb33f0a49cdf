//! Analytical topology metrics: hop distances and the Table II report.
//!
//! At low loads the end-to-end latency of a packet is (average hops) x
//! (per-hop delay), so the paper uses the average hop count under uniform
//! all-to-all traffic as its latency proxy (objective O1 / constraint C5 in
//! Table I).  [`all_pairs_hops`] computes exact all-pairs shortest hop
//! distances by a word-bitset breadth-first search from every source,
//! which for the network sizes of interest (20–130 routers, one to three
//! words per row) is far cheaper than a general Floyd–Warshall.  Every reduction of that matrix (average, total and
//! demand-weighted hops, diameter, reachability) lives on
//! [`TopoAnalysis`]; the free functions here are one-call conveniences for
//! code that needs a single answer about a topology.

use crate::analysis::TopoAnalysis;
use crate::bfs::{Bfs, BitAdjacency};
use crate::bounds::ThroughputBounds;
use crate::cuts;
use crate::topology::Topology;
use crate::traffic::DemandMatrix;

/// Distance value used to mark unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// All-pairs hop distance matrix (row-major `n x n`).  `dist[s*n + d]` is
/// the minimum number of links a packet from `s` to `d` must traverse,
/// `0` on the diagonal and [`UNREACHABLE`] when no path exists.
///
/// Runs the crate's one BFS kernel (`bfs.rs`): the out-adjacency is
/// packed into `ceil(n/64)`-word bitset rows once, then each source is a
/// level-synchronous frontier search that ORs the frontier's rows.  The
/// whole matrix costs `n² * ceil(n/64)` word operations plus `n²` writes.
pub fn all_pairs_hops(topo: &Topology) -> Vec<u32> {
    let n = topo.num_routers();
    let adj = BitAdjacency::out_links(topo);
    let mut bfs = Bfs::new(&adj);
    let mut dist = vec![UNREACHABLE; n * n];
    for s in 0..n {
        bfs.levels(&adj, s, &mut dist[s * n..(s + 1) * n]);
    }
    dist
}

/// Number of ordered `(s, d)` pairs (s != d) with no directed path.
pub fn unreachable_pairs(topo: &Topology) -> usize {
    TopoAnalysis::new(topo).unreachable_pairs()
}

/// True when every router can reach every other router: one kernel
/// search from router 0 along the links and one against them.
pub fn is_strongly_connected(topo: &Topology) -> bool {
    crate::resilience::is_strongly_connected_among(topo, &vec![true; topo.num_routers()])
}

/// Average hop count over all ordered source/destination pairs (excluding
/// self pairs), i.e. the unweighted latency proxy from the paper's Table II.
/// Returns `f64::INFINITY` when the topology is not strongly connected.
pub fn average_hops(topo: &Topology) -> f64 {
    TopoAnalysis::new(topo).average_hops()
}

/// Demand-weighted average hop count: `sum(demand[s][d] * hops(s,d)) /
/// sum(demand)`.  Used for pattern-optimized topologies (e.g. the paper's
/// shuffle-optimized "NS ShufOpt" networks).
pub fn weighted_average_hops(topo: &Topology, demand: &DemandMatrix) -> f64 {
    TopoAnalysis::new(topo).demand_weighted_hops(demand)
}

/// Total hop count: the raw objective `O1 = sum_{s,d} D(s,d)` of Table I.
pub fn total_hops(topo: &Topology) -> Option<u64> {
    TopoAnalysis::new(topo).total_hops()
}

/// Aggregated metric report for one topology, matching the columns of the
/// paper's Table II plus the cut/occupancy throughput bounds of Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyMetrics {
    pub name: String,
    pub class: String,
    pub num_routers: usize,
    pub num_links: usize,
    pub diameter: Option<u32>,
    pub average_hops: f64,
    pub bisection_bandwidth: f64,
    pub sparsest_cut: f64,
    /// Saturation throughput bound from the sparsest cut (flits/node/cycle).
    pub cut_bound: f64,
    /// Saturation throughput bound from link occupancy (flits/node/cycle).
    pub occupancy_bound: f64,
}

impl TopologyMetrics {
    /// Compute the full metric report for a topology: one all-pairs BFS
    /// and one cut computation feed every field.  With fewer than two
    /// routers there is no cut, so both cut metrics and the cut bound read
    /// zero, as in [`ThroughputBounds::compute`].
    pub fn compute(topo: &Topology) -> Self {
        let analysis = TopoAnalysis::new(topo);
        let (sparsest_cut, bisection_bandwidth) = if topo.num_routers() < 2 {
            (0.0, 0.0)
        } else {
            let (cut, bisection) = cuts::sparsest_cut_and_bisection(topo);
            (cut.normalized_bandwidth, bisection)
        };
        let average_hops = analysis.average_hops();
        let bounds = ThroughputBounds::from_parts(topo, sparsest_cut, average_hops);
        TopologyMetrics {
            name: topo.name().to_string(),
            class: topo.class().name(),
            num_routers: topo.num_routers(),
            num_links: topo.num_links(),
            diameter: analysis.diameter(),
            average_hops,
            bisection_bandwidth,
            sparsest_cut,
            cut_bound: bounds.cut_bound,
            occupancy_bound: bounds.occupancy_bound,
        }
    }

    /// One-line CSV row (matching the header from [`TopologyMetrics::csv_header`]).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.3},{:.1},{:.4},{:.4},{:.4}",
            self.name,
            self.class,
            self.num_routers,
            self.num_links,
            self.diameter
                .map(|d| d.to_string())
                .unwrap_or_else(|| "inf".into()),
            self.average_hops,
            self.bisection_bandwidth,
            self.sparsest_cut,
            self.cut_bound,
            self.occupancy_bound
        )
    }

    /// CSV header for [`TopologyMetrics::csv_row`].
    pub fn csv_header() -> &'static str {
        "name,class,routers,links,diameter,avg_hops,bisection_bw,sparsest_cut,cut_bound,occupancy_bound"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert;
    use crate::layout::{Layout, NodeKind};
    use crate::linkclass::LinkClass;

    fn ring(n: usize) -> Topology {
        // Build a directed cycle over the first `n` routers of a 4x5 layout;
        // the Custom class bypasses length validation for metric tests.
        let layout = Layout::interposer_grid(4, 5, 4);
        let mut t = Topology::empty(
            format!("ring{n}"),
            layout,
            LinkClass::Custom(crate::linkclass::LinkSpan::new(8, 8)),
        );
        for i in 0..n {
            t.add_link(i, (i + 1) % n);
        }
        t
    }

    #[test]
    fn directed_ring_distances() {
        let t = ring(5);
        let n = t.num_routers();
        let dist = all_pairs_hops(&t);
        // Within the ring of the first five routers, distance 0->4 is 4.
        assert_eq!(dist[4], 4);
        assert_eq!(dist[1], 1);
        // Routers outside the ring are unreachable.
        assert_eq!(dist[5], UNREACHABLE);
        assert!(unreachable_pairs(&t) > 0);
        assert_eq!(n, 20);
    }

    #[test]
    fn mesh_average_hops_and_diameter() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let d = TopoAnalysis::new(&mesh).diameter().unwrap();
        // 4x5 mesh diameter = (4-1)+(5-1) = 7
        assert_eq!(d, 7);
        let avg = average_hops(&mesh);
        assert!(avg > 2.5 && avg < 3.5, "mesh avg hops {avg}");
    }

    #[test]
    fn total_hops_matches_average() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let total = total_hops(&mesh).unwrap();
        let avg = average_hops(&mesh);
        assert!((total as f64 / (20.0 * 19.0) - avg).abs() < 1e-9);
    }

    #[test]
    fn disconnected_topology_reports_infinite_metrics() {
        let t = Topology::empty("empty", Layout::noi_4x5(), LinkClass::Small);
        assert_eq!(average_hops(&t), f64::INFINITY);
        assert_eq!(TopoAnalysis::new(&t).diameter(), None);
        assert_eq!(total_hops(&t), None);
        assert!(!is_strongly_connected(&t));
    }

    #[test]
    fn metrics_report_is_consistent() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let m = TopologyMetrics::compute(&mesh);
        assert_eq!(m.num_routers, 20);
        assert_eq!(m.diameter, Some(7));
        assert!(m.csv_row().starts_with("Mesh"));
        assert!(TopologyMetrics::csv_header().contains("avg_hops"));
    }

    #[test]
    fn single_router_metrics_have_zero_cuts() {
        let layout = Layout::new(1, 1, vec![NodeKind::Cores { count: 4 }], 4);
        let m = TopologyMetrics::compute(&Topology::empty("one", layout, LinkClass::Small));
        assert_eq!(m.num_routers, 1);
        assert_eq!(m.sparsest_cut, 0.0);
        assert_eq!(m.bisection_bandwidth, 0.0);
        assert_eq!(m.cut_bound, 0.0);
    }

    #[test]
    fn weighted_hops_uniform_matches_plain_average() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let demand = DemandMatrix::uniform(20);
        let w = weighted_average_hops(&mesh, &demand);
        let a = average_hops(&mesh);
        assert!((w - a).abs() < 1e-9);
    }
}
