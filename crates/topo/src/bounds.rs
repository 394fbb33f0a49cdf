//! Analytical saturation-throughput bounds.
//!
//! The paper reasons about two topology-level throughput bottlenecks
//! (Section II-D and Figure 7):
//!
//! * **Cut-based bound** — for any bipartition `(U, V)`, uniform traffic
//!   must push `lambda * |U| * |V| / (n-1)` flits per cycle across the cut,
//!   which cannot exceed the number of links crossing it.  The tightest such
//!   bound over all cuts is given by the sparsest cut.
//! * **Link-occupancy bound** — each injected flit occupies `avg_hops`
//!   channels on average (with minimal routing), so aggregate channel
//!   capacity limits the injection rate to `num_links / (n * avg_hops)`.
//!
//! Both are expressed in flits per node per cycle assuming unit-capacity
//! channels; converting to packets/node/ns additionally requires the NoI
//! clock frequency and the average packet length, which the simulator and
//! benchmark harness apply.

use crate::analysis::TopoAnalysis;
use crate::cuts;
use crate::topology::Topology;

/// Combined bound report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputBounds {
    /// Sparsest-cut based bound (flits/node/cycle).
    pub cut_bound: f64,
    /// Link-occupancy based bound (flits/node/cycle).
    pub occupancy_bound: f64,
    /// Injection/ejection port bound (flits/node/cycle); 1.0 for the single
    /// local port per router modelled here.
    pub injection_bound: f64,
}

impl ThroughputBounds {
    /// Compute all bounds for a topology.
    pub fn compute(topo: &Topology) -> Self {
        // A cut needs two routers; below that the cut bound is zero anyway.
        let sparsest_cut = if topo.num_routers() < 2 {
            0.0
        } else {
            cuts::sparsest_cut(topo).normalized_bandwidth
        };
        Self::from_parts(topo, sparsest_cut, TopoAnalysis::new(topo).average_hops())
    }

    /// The bounds of `topo` given its normalized sparsest-cut bandwidth and
    /// average hop count.
    pub(crate) fn from_parts(topo: &Topology, sparsest_cut: f64, average_hops: f64) -> Self {
        let n = topo.num_routers();
        let occupancy_bound = if !average_hops.is_finite() || average_hops <= 0.0 {
            0.0
        } else {
            topo.num_directed_links() as f64 / (n as f64 * average_hops)
        };
        ThroughputBounds {
            cut_bound: sparsest_cut * n.saturating_sub(1) as f64,
            occupancy_bound,
            injection_bound: 1.0,
        }
    }

    /// The binding (minimum) bound.
    pub fn limiting(&self) -> f64 {
        self.cut_bound
            .min(self.occupancy_bound)
            .min(self.injection_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert;
    use crate::layout::Layout;

    #[test]
    fn bounds_are_positive_for_mesh() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let b = ThroughputBounds::compute(&mesh);
        assert!(b.cut_bound > 0.0);
        assert!(b.occupancy_bound > 0.0);
        assert!(b.limiting() <= b.cut_bound);
        assert!(b.limiting() <= b.occupancy_bound);
    }

    #[test]
    fn folded_torus_has_higher_cut_bound_than_mesh() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let torus = expert::folded_torus(&layout);
        assert!(
            ThroughputBounds::compute(&torus).cut_bound
                > ThroughputBounds::compute(&mesh).cut_bound
        );
    }

    #[test]
    fn occupancy_bound_formula() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let avg = TopoAnalysis::new(&mesh).average_hops();
        let expected = mesh.num_directed_links() as f64 / (20.0 * avg);
        assert!((ThroughputBounds::compute(&mesh).occupancy_bound - expected).abs() < 1e-12);
    }

    #[test]
    fn disconnected_topology_has_zero_bounds() {
        use crate::linkclass::LinkClass;
        use crate::topology::Topology;
        let t = Topology::empty("empty", Layout::noi_4x5(), LinkClass::Small);
        let b = ThroughputBounds::compute(&t);
        assert_eq!(b.occupancy_bound, 0.0);
        assert_eq!(b.limiting(), 0.0);
    }
}
