//! Deadlock-free repair of degraded topologies.
//!
//! After a fault hits, the surviving fabric must keep serving: every
//! surviving router pair needs a route and the new routing function must
//! stay deadlock-free within the virtual-channel budget.  A
//! [`RepairPolicy`] encapsulates how that recovery is computed;
//! [`RerouteRepair`] — the default and the policy the paper's machinery
//! makes natural — recomputes shortest paths on the surviving
//! sub-topology, re-runs MCLB path selection, and re-partitions the chosen
//! paths onto escape virtual channels.  Whether the result serves every
//! surviving pair is decided by `netsmith_route::require_servable`, the
//! same check the energy subsystem's `LinkSleep` applies to power-gated
//! links.

use crate::inject::DegradedTopology;
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::vc::verify_deadlock_free;
use netsmith_route::{mclb_route, require_servable, MclbConfig, RoutingTable, VcAllocation};
use netsmith_topo::{PipelineError, RouterId, Topology};

/// Parameters shared by repair policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairConfig {
    /// Virtual channels available for the repaired routing function (6 in
    /// the paper's evaluation).
    pub vc_budget: usize,
    /// Seed for the deterministic re-route of the surviving sub-topology.
    pub seed: u64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            vc_budget: 6,
            seed: 0xFA17,
        }
    }
}

/// A repaired network: the surviving sub-topology together with the fresh
/// routing and VC allocation that prove it still serves every surviving
/// pair deadlock-free.
#[derive(Debug, Clone)]
pub struct RepairedNetwork {
    /// The degraded topology the repair routed.
    pub topology: Topology,
    /// Routing of every surviving pair on the surviving links.
    pub routing: RoutingTable,
    /// Deadlock-free VC allocation of that routing.
    pub vcs: VcAllocation,
    /// Alive mask inherited from the fault scenario.
    pub alive: Vec<bool>,
}

impl RepairedNetwork {
    /// The failed routers, ascending.
    pub fn failed_routers(&self) -> Vec<RouterId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| !a)
            .map(|(r, _)| r)
            .collect()
    }

    /// True when the routing covers every ordered pair of surviving
    /// routers (the degraded analogue of `RoutingTable::is_complete`).
    pub fn routes_all_surviving_pairs(&self) -> bool {
        let k = self.alive.iter().filter(|&&a| a).count();
        self.routing.num_routed_flows() == k * k.saturating_sub(1)
    }

    /// Re-check the invariant the repair established: full surviving-pair
    /// coverage with an acyclic channel dependency graph on every VC.
    pub fn verify(&self) -> bool {
        self.routes_all_surviving_pairs() && verify_deadlock_free(&self.routing, &self.vcs)
    }
}

/// A strategy for restoring service on a degraded topology.
pub trait RepairPolicy {
    /// Label used in reports and CSV output.
    fn name(&self) -> String;

    /// Attempt to repair; the error names why the surviving fabric cannot
    /// serve every surviving pair deadlock-free within the budget
    /// ([`PipelineError::Disconnected`] for a partitioned network,
    /// [`PipelineError::VcBudgetExceeded`] when the escape layering no
    /// longer fits the VCs, …).
    ///
    /// Contract: a returned network must satisfy
    /// [`RepairedNetwork::verify`] — `assess_resilience` counts every `Ok`
    /// as a successful repair and measures traffic on it without
    /// re-checking.
    fn repair(
        &self,
        degraded: &DegradedTopology,
        config: &RepairConfig,
    ) -> Result<RepairedNetwork, PipelineError>;
}

/// The default repair policy: full recomputation of paths, MCLB routing
/// and escape VCs on the surviving sub-topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RerouteRepair;

impl RepairPolicy for RerouteRepair {
    fn name(&self) -> String {
        "reroute".into()
    }

    fn repair(
        &self,
        degraded: &DegradedTopology,
        config: &RepairConfig,
    ) -> Result<RepairedNetwork, PipelineError> {
        // Cheap strong-connectivity gate before the expensive path work.
        if !degraded.is_connected() {
            return Err(PipelineError::Disconnected {
                pairs: degraded.unreachable_pairs(),
            });
        }
        let paths = all_shortest_paths(&degraded.topology);
        let routing = mclb_route(&paths, &MclbConfig { seed: config.seed });
        let vcs = require_servable(
            &routing,
            degraded.num_alive(),
            config.vc_budget,
            config.seed,
        )?;
        Ok(RepairedNetwork {
            topology: degraded.topology.clone(),
            routing,
            vcs,
            alive: degraded.alive.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{single_link_scenarios, Fault, FaultScenario};
    use netsmith_topo::{expert, Layout};

    #[test]
    fn every_single_link_failure_on_the_mesh_repairs() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let config = RepairConfig::default();
        for scenario in single_link_scenarios(&mesh) {
            let repaired = RerouteRepair
                .repair(&scenario.apply(&mesh), &config)
                .unwrap_or_else(|e| panic!("scenario {} must repair: {e}", scenario.label()));
            assert!(repaired.verify(), "scenario {}", scenario.label());
        }
    }

    #[test]
    fn partitioning_faults_are_rejected() {
        // Killing both links of corner router 0 partitions it off.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let scenario = FaultScenario::new(vec![Fault::link(0, 1), Fault::link(0, 5)]);
        match RerouteRepair.repair(&scenario.apply(&mesh), &RepairConfig::default()) {
            Err(PipelineError::Disconnected { pairs }) => {
                // Router 0 can neither reach nor be reached by the other 19.
                assert_eq!(pairs, 38);
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn router_failure_repairs_around_the_dead_node() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let scenario = FaultScenario::new(vec![Fault::Router(9)]);
        let repaired = RerouteRepair
            .repair(&scenario.apply(&torus), &RepairConfig::default())
            .expect("torus survives one router loss");
        assert_eq!(repaired.failed_routers(), vec![9]);
        assert!(repaired.verify());
        // No route starts, ends, or passes through the dead router.
        for (flow, path) in repaired.routing.flows() {
            assert_ne!(flow.src, 9);
            assert_ne!(flow.dst, 9);
            assert!(!path.contains(&9));
        }
    }

    #[test]
    fn repair_is_deterministic_for_a_seed() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let scenario = FaultScenario::new(vec![Fault::link(5, 6)]);
        let config = RepairConfig::default();
        let a = RerouteRepair
            .repair(&scenario.apply(&mesh), &config)
            .unwrap();
        let b = RerouteRepair
            .repair(&scenario.apply(&mesh), &config)
            .unwrap();
        assert_eq!(a.vcs, b.vcs);
        assert_eq!(
            a.routing.flows().collect::<Vec<_>>(),
            b.routing.flows().collect::<Vec<_>>()
        );
    }
}
