//! The discover → route → allocate → evaluate pipeline.

use netsmith_energy::{EnergyConfig, EnergyContext, EnergyPolicy, EnergyReport};
use netsmith_fault::{
    assess_resilience, FaultScenario, RepairPolicy, ResilienceConfig, ResilienceReport,
};
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{
    mclb_route, ndbt_route, require_servable, MclbConfig, RoutingTable, VcAllocation,
};
use netsmith_sim::{LatencyCurve, NetworkSim, SimConfig, SimReport, Sweep};
use netsmith_topo::metrics::{unreachable_pairs, TopologyMetrics};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{PipelineError, Topology};

/// Which routing scheme to apply to a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingScheme {
    /// NetSmith's maximum-channel-load-bottleneck routing (Table III).
    Mclb,
    /// The expert-topology heuristic: shortest paths with no double-back
    /// turns along the horizontal axis.
    Ndbt,
}

impl RoutingScheme {
    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingScheme::Mclb => "MCLB",
            RoutingScheme::Ndbt => "NDBT",
        }
    }
}

/// A topology that has been routed, VC-allocated and measured analytically;
/// ready to be simulated.
#[derive(Debug, Clone)]
pub struct EvaluatedNetwork {
    pub topology: Topology,
    pub routing: RoutingTable,
    pub vcs: VcAllocation,
    pub metrics: TopologyMetrics,
    pub scheme: RoutingScheme,
}

impl EvaluatedNetwork {
    /// Route `topology` with the requested scheme, allocate deadlock-free
    /// escape VCs within `total_vcs`, and compute the analytical metrics.
    /// The error names exactly why the topology cannot be served:
    /// [`PipelineError::Disconnected`] for an unreachable pair,
    /// [`PipelineError::IncompleteRouting`] when the scheme left pairs
    /// unrouted, [`PipelineError::VcBudgetExceeded`] when deadlock freedom
    /// needs more VCs than `total_vcs`.
    pub fn prepare(
        topology: &Topology,
        scheme: RoutingScheme,
        total_vcs: usize,
        seed: u64,
    ) -> Result<Self, PipelineError> {
        let pairs = unreachable_pairs(topology);
        if pairs > 0 {
            return Err(PipelineError::Disconnected { pairs });
        }
        let paths = all_shortest_paths(topology);
        let routing = match scheme {
            RoutingScheme::Mclb => mclb_route(&paths, &MclbConfig { seed }),
            RoutingScheme::Ndbt => ndbt_route(topology.layout(), &paths, seed).0,
        };
        let vcs = require_servable(&routing, topology.num_routers(), total_vcs, seed)?;
        let metrics = TopologyMetrics::compute(topology);
        Ok(EvaluatedNetwork {
            topology: topology.clone(),
            routing,
            vcs,
            metrics,
            scheme,
        })
    }

    /// Label combining topology and routing scheme ("Kite-Large / NDBT").
    pub fn label(&self) -> String {
        format!("{} / {}", self.topology.name(), self.scheme.label())
    }

    /// Run an injection-rate sweep under a traffic pattern.
    pub fn sweep(
        &self,
        pattern: TrafficPattern,
        config: &SimConfig,
        loads: &[f64],
    ) -> LatencyCurve {
        Sweep::new(self.label()).run_network(
            &self.topology,
            &self.routing,
            Some(&self.vcs),
            pattern,
            config,
            loads,
        )
    }

    /// Simulator configuration matching this topology's link-length class
    /// (clock of 3.6/3.0/2.7 GHz for small/medium/large).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::for_class(self.topology.class())
    }

    /// Run one simulation at an offered load and return the full report,
    /// including the per-link [`ActivityProfile`] that energy policies and
    /// the measured power model consume.
    ///
    /// [`ActivityProfile`]: netsmith_sim::ActivityProfile
    pub fn measure(&self, pattern: TrafficPattern, config: &SimConfig, load: f64) -> SimReport {
        self.sim_builder()
            .pattern(pattern)
            .config(config.clone())
            .build()
            .run(load)
    }

    /// A simulator builder pre-wired with this network's topology, routing
    /// table and VC allocation — the escape hatch for measurements the
    /// pattern-driven helpers above don't cover, such as deterministic
    /// trace replay (`.trace(...)`) or degraded sources
    /// (`.failed_routers(...)`).
    pub fn sim_builder(&self) -> netsmith_sim::NetworkSimBuilder<'_> {
        NetworkSim::builder(&self.topology, &self.routing).vcs(&self.vcs)
    }

    /// Evaluate an energy-management policy against a measured operating
    /// point (a report previously produced by [`EvaluatedNetwork::measure`]
    /// under `config`).
    pub fn energy_report(
        &self,
        policy: &dyn EnergyPolicy,
        sim_config: &SimConfig,
        report: &SimReport,
        energy_config: &EnergyConfig,
    ) -> EnergyReport {
        policy.evaluate(&EnergyContext {
            topology: &self.topology,
            routing: &self.routing,
            vcs: &self.vcs,
            sim: sim_config,
            report,
            config: energy_config,
        })
    }

    /// Assess resilience against a scenario set: repair every scenario
    /// with `policy` and (unless `config.simulate` is off) re-measure the
    /// degraded latency/throughput against this network's healthy
    /// baseline.  See [`netsmith_fault::assess_resilience`].
    pub fn resilience_report(
        &self,
        scenarios: &[FaultScenario],
        policy: &dyn RepairPolicy,
        config: &ResilienceConfig,
    ) -> ResilienceReport {
        assess_resilience(
            self.label(),
            &self.topology,
            &self.routing,
            &self.vcs,
            scenarios,
            policy,
            config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    #[test]
    fn prepare_routes_and_allocates_expert_topologies() {
        let layout = Layout::noi_4x5();
        for topo in [expert::mesh(&layout), expert::kite_medium(&layout)] {
            for scheme in [RoutingScheme::Mclb, RoutingScheme::Ndbt] {
                let network = EvaluatedNetwork::prepare(&topo, scheme, 6, 3)
                    .unwrap_or_else(|e| panic!("{} should prepare: {e}", topo.name()));
                assert!(network.routing.is_complete());
                assert!(netsmith_route::vc::verify_deadlock_free(
                    &network.routing,
                    &network.vcs
                ));
                assert_eq!(network.metrics.num_routers, 20);
                assert!(network.label().contains(scheme.label()));
            }
        }
    }

    #[test]
    fn sweep_produces_points_for_each_load() {
        let layout = Layout::noi_4x5();
        let topo = expert::folded_torus(&layout);
        let network = EvaluatedNetwork::prepare(&topo, RoutingScheme::Mclb, 6, 3).unwrap();
        let config = SimConfig::quick();
        let curve = network.sweep(TrafficPattern::UniformRandom, &config, &[0.05, 0.3]);
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points[0].latency_cycles > 0.0);
    }

    #[test]
    fn trace_replay_through_the_sim_builder() {
        use std::sync::Arc;
        let layout = Layout::noi_4x5();
        let topo = expert::folded_torus(&layout);
        let network = EvaluatedNetwork::prepare(&topo, RoutingScheme::Mclb, 6, 3).unwrap();
        let trace = Arc::new(netsmith_trace::generate_named("pointer-chase", 20, 512, 9).unwrap());
        let run = || {
            network
                .sim_builder()
                .trace(Arc::clone(&trace))
                .config(SimConfig::quick())
                .build()
                .run(0.05)
        };
        let report = run();
        assert!(report.packets_ejected > 0);
        assert!((report.offered_flits_per_node_cycle - 0.05).abs() < 1e-12);
        // Replay draws no RNG: the same builder chain reproduces the
        // report bit-for-bit.
        assert_eq!(report, run());
    }

    #[test]
    fn energy_report_compares_policies_through_the_pipeline() {
        use netsmith_energy::{AlwaysOn, LinkSleep};
        let layout = Layout::noi_4x5();
        let topo = expert::folded_torus(&layout);
        let network = EvaluatedNetwork::prepare(&topo, RoutingScheme::Mclb, 6, 3).unwrap();
        let sim_config = SimConfig::quick();
        let energy_config = EnergyConfig::default();
        let report = network.measure(TrafficPattern::UniformRandom, &sim_config, 0.02);
        let always = network.energy_report(&AlwaysOn, &sim_config, &report, &energy_config);
        let sleep = network.energy_report(
            &LinkSleep {
                idle_threshold: 0.15,
            },
            &sim_config,
            &report,
            &energy_config,
        );
        assert!(always.total_mw() > 0.0);
        assert!(sleep.routable);
        assert!(
            sleep.total_mw() < always.total_mw(),
            "link sleep {} should beat always-on {} at 2% load",
            sleep.total_mw(),
            always.total_mw()
        );
    }

    #[test]
    fn resilience_report_through_the_pipeline() {
        use netsmith_fault::{single_link_scenarios, RerouteRepair, ResilienceConfig};
        let layout = Layout::noi_4x5();
        let topo = expert::folded_torus(&layout);
        let network = EvaluatedNetwork::prepare(&topo, RoutingScheme::Mclb, 6, 3).unwrap();
        let scenarios = single_link_scenarios(&network.topology);
        let report = network.resilience_report(
            &scenarios,
            &RerouteRepair,
            &ResilienceConfig {
                simulate: false,
                ..Default::default()
            },
        );
        // The folded torus tolerates any single link failure.
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(report.total_unreachable_pairs(), 0);
        assert_eq!(report.outcomes.len(), scenarios.len());
        // Repairing one scenario directly agrees with the report.
        let degraded = scenarios[0].apply(&network.topology);
        let repaired = RerouteRepair
            .repair(&degraded, &netsmith_fault::RepairConfig::default())
            .expect("single link failure repairs");
        assert!(repaired.verify());
    }

    #[test]
    fn prepare_reports_typed_failures() {
        let layout = Layout::noi_4x5();
        // An empty topology is disconnected: every ordered pair unreachable.
        let empty = netsmith_topo::Topology::empty(
            "empty",
            layout.clone(),
            netsmith_topo::LinkClass::Small,
        );
        match EvaluatedNetwork::prepare(&empty, RoutingScheme::Mclb, 6, 3) {
            Err(PipelineError::Disconnected { pairs }) => assert_eq!(pairs, 380),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // A 1-VC budget on the folded torus fails with the exact need.
        let torus = expert::folded_torus(&layout);
        match EvaluatedNetwork::prepare(&torus, RoutingScheme::Mclb, 1, 3) {
            Err(PipelineError::VcBudgetExceeded { needed, budget }) => {
                assert!(needed > 1);
                assert_eq!(budget, 1);
            }
            other => panic!("expected VcBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn sim_config_clock_tracks_class() {
        let layout = Layout::noi_4x5();
        let small =
            EvaluatedNetwork::prepare(&expert::kite_small(&layout), RoutingScheme::Mclb, 6, 3)
                .unwrap();
        assert_eq!(small.sim_config().clock_ghz, 3.6);
    }
}
