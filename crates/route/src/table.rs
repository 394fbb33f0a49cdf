//! Per-flow routing tables and channel-load analysis.
//!
//! NetSmith uses table-based routing: every flow (source/destination pair)
//! is assigned exactly one of its shortest paths, and each router forwards
//! a packet by looking up the flow in its table.  The channel-load report
//! computes, for a demand matrix, the load each directed link carries under
//! the selected paths — the quantity MCLB minimizes the maximum of — and
//! the corresponding expected saturation throughput.

use crate::paths::{path_length, path_links};
use netsmith_topo::traffic::DemandMatrix;
use netsmith_topo::{PipelineError, RouterId, Topology};
use std::collections::HashMap;

/// A flow is an ordered source/destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Flow {
    pub src: RouterId,
    pub dst: RouterId,
}

impl Flow {
    pub fn new(src: RouterId, dst: RouterId) -> Self {
        Flow { src, dst }
    }
}

/// Single-path routing table: one chosen path per flow.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    n: usize,
    /// `routes[s * n + d]` — the chosen router sequence for the flow, or
    /// `None` when the pair is unroutable / identical.
    routes: Vec<Option<Vec<RouterId>>>,
    /// Name of the routing scheme that produced the table ("MCLB", "NDBT", …).
    scheme: String,
}

impl RoutingTable {
    /// Create an empty table for `n` routers.
    pub fn new(n: usize, scheme: impl Into<String>) -> Self {
        RoutingTable {
            n,
            routes: vec![None; n * n],
            scheme: scheme.into(),
        }
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.n
    }

    /// Routing scheme label.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Set the path for a flow.  The path must start at the flow's source
    /// and end at its destination.
    pub fn set_path(&mut self, flow: Flow, path: Vec<RouterId>) {
        assert!(path.len() >= 2, "path must contain at least two routers");
        assert_eq!(path[0], flow.src, "path must start at the flow source");
        assert_eq!(
            *path.last().unwrap(),
            flow.dst,
            "path must end at the flow destination"
        );
        self.routes[flow.src * self.n + flow.dst] = Some(path);
    }

    /// The chosen path for a flow.
    pub fn path(&self, src: RouterId, dst: RouterId) -> Option<&[RouterId]> {
        self.routes[src * self.n + dst].as_deref()
    }

    /// Next hop for a packet of flow `(src, dst)` currently at `here`.
    pub fn next_hop(&self, src: RouterId, dst: RouterId, here: RouterId) -> Option<RouterId> {
        let path = self.path(src, dst)?;
        let pos = path.iter().position(|&r| r == here)?;
        path.get(pos + 1).copied()
    }

    /// Number of routed flows.
    pub fn num_routed_flows(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }

    /// Iterate over `(Flow, path)` pairs.
    pub fn flows(&self) -> impl Iterator<Item = (Flow, &[RouterId])> + '_ {
        let n = self.n;
        self.routes
            .iter()
            .enumerate()
            .filter_map(move |(idx, route)| {
                route.as_ref().map(|p| {
                    (
                        Flow {
                            src: idx / n,
                            dst: idx % n,
                        },
                        p.as_slice(),
                    )
                })
            })
    }

    /// True when every ordered pair of distinct routers has a route.
    pub fn is_complete(&self) -> bool {
        self.num_routed_flows() == self.n * (self.n - 1)
    }

    /// Typed completeness check: fails with
    /// [`PipelineError::IncompleteRouting`] carrying the number of ordered
    /// pairs left without a route.
    pub fn require_complete(&self) -> Result<(), PipelineError> {
        let missing = self.n * (self.n - 1) - self.num_routed_flows();
        if missing == 0 {
            Ok(())
        } else {
            Err(PipelineError::IncompleteRouting {
                missing_pairs: missing,
            })
        }
    }

    /// Completeness check over a surviving subset of routers (the degraded
    /// analogue of [`RoutingTable::require_complete`]): `alive_routers`
    /// routers must be fully connected pairwise.
    pub fn require_complete_among(&self, alive_routers: usize) -> Result<(), PipelineError> {
        let expected = alive_routers * alive_routers.saturating_sub(1);
        let missing = expected.saturating_sub(self.num_routed_flows());
        if missing == 0 {
            Ok(())
        } else {
            Err(PipelineError::IncompleteRouting {
                missing_pairs: missing,
            })
        }
    }

    /// Average routed hop count over all flows.
    pub fn average_hops(&self) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for (_, p) in self.flows() {
            total += path_length(p);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Channel-load report under a demand matrix.
    fn channel_loads(&self, demand: &DemandMatrix) -> ChannelLoadReport {
        assert_eq!(demand.num_nodes(), self.n);
        let mut loads: HashMap<(RouterId, RouterId), f64> = HashMap::new();
        for (flow, path) in self.flows() {
            let w = demand.demand(flow.src, flow.dst);
            if w <= 0.0 {
                continue;
            }
            for (a, b) in path_links(path) {
                *loads.entry((a, b)).or_insert(0.0) += w;
            }
        }
        ChannelLoadReport::from_loads(self.n, loads)
    }

    /// Channel-load report under uniform all-to-all demand.
    pub fn uniform_channel_loads(&self) -> ChannelLoadReport {
        self.channel_loads(&DemandMatrix::uniform(self.n))
    }

    /// Validate the table against a topology: every hop must be a real
    /// link, and paths must be loop free.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        for (flow, path) in self.flows() {
            for (a, b) in path_links(path) {
                if !topo.has_link(a, b) {
                    return Err(format!(
                        "flow {}->{} uses non-existent link {a}->{b}",
                        flow.src, flow.dst
                    ));
                }
            }
            let mut seen = path.to_vec();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != path.len() {
                return Err(format!(
                    "flow {}->{} path revisits a router",
                    flow.src, flow.dst
                ));
            }
        }
        Ok(())
    }
}

/// Per-link load summary for a routing table under a demand matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelLoadReport {
    n: usize,
    /// Load per directed link, keyed by `(from, to)`.
    pub loads: Vec<((RouterId, RouterId), f64)>,
    /// Maximum channel load (the MCLB objective, normalized demand units).
    pub max_load: f64,
    /// Mean load over links that carry any traffic.
    pub mean_load: f64,
}

impl ChannelLoadReport {
    fn from_loads(n: usize, map: HashMap<(RouterId, RouterId), f64>) -> Self {
        let mut loads: Vec<_> = map.into_iter().collect();
        loads.sort_by_key(|a| a.0);
        let max_load = loads.iter().map(|(_, l)| *l).fold(0.0, f64::max);
        let mean_load = if loads.is_empty() {
            0.0
        } else {
            loads.iter().map(|(_, l)| *l).sum::<f64>() / loads.len() as f64
        };
        ChannelLoadReport {
            n,
            loads,
            max_load,
            mean_load,
        }
    }

    /// Load on a specific directed link.
    pub fn load(&self, from: RouterId, to: RouterId) -> f64 {
        self.loads
            .iter()
            .find(|((a, b), _)| *a == from && *b == to)
            .map(|(_, l)| *l)
            .unwrap_or(0.0)
    }

    /// Expected saturation injection rate (flits/node/cycle) implied by the
    /// maximum channel load, assuming each router injects at the same rate
    /// and unit link capacity: saturation occurs when the hottest channel
    /// reaches one flit per cycle.
    ///
    /// With a normalized demand matrix (total = 1), a per-node injection
    /// rate `lambda` puts `lambda * n * load` flits/cycle on a channel with
    /// normalized load `load`, so `lambda_sat = 1 / (n * max_load)`.
    pub fn saturation_injection_rate(&self) -> f64 {
        if self.max_load <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / (self.n as f64 * self.max_load)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::all_shortest_paths;
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    fn simple_table() -> (netsmith_topo::Topology, RoutingTable) {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let mut table = RoutingTable::new(20, "first-path");
        for (s, d) in ps.flows() {
            table.set_path(Flow::new(s, d), ps.paths(s, d)[0].to_vec());
        }
        (mesh, table)
    }

    #[test]
    fn table_is_complete_and_valid() {
        let (mesh, table) = simple_table();
        assert!(table.is_complete());
        table.require_complete().unwrap();
        assert_eq!(table.num_routed_flows(), 380);
        table.validate(&mesh).unwrap();
    }

    #[test]
    fn require_complete_counts_missing_pairs() {
        let table = RoutingTable::new(4, "empty");
        assert_eq!(
            table.require_complete(),
            Err(PipelineError::IncompleteRouting { missing_pairs: 12 })
        );
        assert_eq!(
            table.require_complete_among(3),
            Err(PipelineError::IncompleteRouting { missing_pairs: 6 })
        );
        assert_eq!(table.require_complete_among(0), Ok(()));
    }

    #[test]
    fn next_hop_walks_the_path() {
        let (_, table) = simple_table();
        let path = table.path(0, 19).unwrap().to_vec();
        let mut here = 0;
        let mut hops = 0;
        while here != 19 {
            here = table.next_hop(0, 19, here).unwrap();
            hops += 1;
            assert!(hops <= path.len());
        }
        assert_eq!(hops, path.len() - 1);
    }

    #[test]
    fn average_hops_matches_topology_metric_for_single_path_tables() {
        let (mesh, table) = simple_table();
        let avg_topo = netsmith_topo::metrics::average_hops(&mesh);
        assert!((table.average_hops() - avg_topo).abs() < 1e-9);
    }

    #[test]
    fn channel_loads_sum_to_weighted_hops() {
        let (_, table) = simple_table();
        let demand = DemandMatrix::uniform(20);
        let report = table.channel_loads(&demand);
        let total_load: f64 = report.loads.iter().map(|(_, l)| *l).sum();
        // Sum of channel loads == sum over flows of weight * hops == weighted
        // average hops (because the demand matrix is normalized).
        let expected: f64 = table
            .flows()
            .map(|(f, p)| demand.demand(f.src, f.dst) * path_length(p) as f64)
            .sum();
        assert!((total_load - expected).abs() < 1e-9);
        assert!(report.max_load >= report.mean_load);
    }

    #[test]
    fn saturation_rate_decreases_with_hotter_channels() {
        let (_, table) = simple_table();
        let report = table.uniform_channel_loads();
        let sat = report.saturation_injection_rate();
        assert!(sat > 0.0 && sat < 1.5);
    }

    #[test]
    #[should_panic]
    fn set_path_rejects_wrong_endpoints() {
        let mut table = RoutingTable::new(4, "bad");
        table.set_path(Flow::new(0, 3), vec![0, 1, 2]);
    }

    #[test]
    fn validate_rejects_fake_links() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let mut table = RoutingTable::new(20, "fake");
        // 0 -> 19 directly is not a mesh link.
        table.set_path(Flow::new(0, 19), vec![0, 19]);
        assert!(table.validate(&mesh).is_err());
    }
}
