//! Cross-crate integration tests: the full discover → route → allocate →
//! simulate pipeline at reduced budgets.

use netsmith::gen::Objective;
use netsmith::prelude::*;
use netsmith_route::vc::verify_deadlock_free;

fn quick_discover(class: LinkClass, objective: Objective, seed: u64) -> DiscoveryResult {
    NetSmith::new(Layout::noi_4x5(), class)
        .objective(objective)
        .evaluations(4_000)
        .workers(2)
        .seed(seed)
        .discover()
}

#[test]
fn discovered_topology_flows_through_the_whole_pipeline() {
    let result = quick_discover(LinkClass::Medium, Objective::LatOp, 11);
    assert!(result.topology.is_valid());

    let network = EvaluatedNetwork::prepare(&result.topology, RoutingScheme::Mclb, 6, 11)
        .expect("discovered topology must be routable within 6 VCs");
    assert!(network.routing.is_complete());
    network.routing.validate(&network.topology).unwrap();
    assert!(verify_deadlock_free(&network.routing, &network.vcs));

    // Simulate a light and a moderate load; the light load must not
    // saturate and must deliver everything it injected.
    let config = SimConfig::quick();
    let curve = network.sweep(TrafficPattern::UniformRandom, &config, &[0.05, 0.3]);
    assert_eq!(curve.points.len(), 2);
    assert!(!curve.points[0].saturated);
    assert!(curve.points[0].latency_ns > 0.0);
    assert!(curve.points[1].accepted >= curve.points[0].accepted);
}

#[test]
fn expert_baselines_flow_through_the_pipeline_with_ndbt() {
    let layout = Layout::noi_4x5();
    for topo in expert::all_baselines(&layout) {
        let network = EvaluatedNetwork::prepare(&topo, RoutingScheme::Ndbt, 6, 3)
            .unwrap_or_else(|e| panic!("{} must prepare: {e}", topo.name()));
        assert!(verify_deadlock_free(&network.routing, &network.vcs));
        assert!(network.metrics.average_hops.is_finite());
        assert!(network.metrics.bisection_bandwidth > 0.0);
    }
}

#[test]
fn full_system_model_prefers_lower_latency_networks() {
    let layout = Layout::noi_4x5();
    let mesh =
        EvaluatedNetwork::prepare(&expert::mesh(&layout), RoutingScheme::Ndbt, 6, 5).unwrap();
    let kite = EvaluatedNetwork::prepare(&expert::kite_medium(&layout), RoutingScheme::Ndbt, 6, 5)
        .unwrap();
    let config = FullSystemConfig::quick();
    let mut better = 0;
    let mut total = 0;
    for profile in parsec_suite() {
        let base = evaluate_topology(
            &profile,
            &mesh.topology,
            &mesh.routing,
            Some(&mesh.vcs),
            &config,
        );
        let improved = evaluate_topology(
            &profile,
            &kite.topology,
            &kite.routing,
            Some(&kite.vcs),
            &config,
        );
        if improved.speedup_over(&base) >= 1.0 {
            better += 1;
        }
        total += 1;
    }
    // The kite must help (or at least not hurt) the large majority of the suite.
    assert!(
        better * 10 >= total * 8,
        "kite helped only {better}/{total}"
    );
}

#[test]
fn power_model_reports_mesh_normalized_values_from_measured_activity() {
    use netsmith::power::{area_report, relative_to, PowerConfig};
    let layout = Layout::noi_4x5();
    let cfg = PowerConfig::default();
    let mesh =
        EvaluatedNetwork::prepare(&expert::mesh(&layout), RoutingScheme::Ndbt, 6, 5).unwrap();
    let kite =
        EvaluatedNetwork::prepare(&expert::kite_large(&layout), RoutingScheme::Ndbt, 6, 5).unwrap();
    let sim_cfg = SimConfig::quick();
    let mesh_report = mesh.measure(TrafficPattern::UniformRandom, &sim_cfg, 0.2);
    let kite_report = kite.measure(TrafficPattern::UniformRandom, &sim_cfg, 0.2);
    let mesh_power =
        power_report_from_activity(&mesh.topology, &cfg, &sim_cfg, &mesh_report.activity);
    let kite_power =
        power_report_from_activity(&kite.topology, &cfg, &sim_cfg, &kite_report.activity);
    let rel = relative_to(kite_power.total_mw(), mesh_power.total_mw());
    assert!(rel > 0.5 && rel < 2.5, "relative power {rel}");
    let mesh_area = area_report(&mesh.topology, &cfg);
    let kite_area = area_report(&kite.topology, &cfg);
    assert!(kite_area.total_mm2() > mesh_area.total_mm2());
}

#[test]
fn energy_subsystem_flows_through_the_whole_pipeline() {
    // Discover an energy-optimal topology, route it, measure activity and
    // compare all three standard policies end to end.
    let result = quick_discover(
        LinkClass::Medium,
        Objective::EnergyOp { edp_weight: 25.0 },
        21,
    );
    assert!(result.topology.name().starts_with("NS-EnergyOp"));
    let network = EvaluatedNetwork::prepare(&result.topology, RoutingScheme::Mclb, 6, 21)
        .expect("energy-optimal topology must be routable within 6 VCs");
    let sim_cfg = SimConfig::quick();
    let energy_cfg = EnergyConfig::default();
    let report = network.measure(TrafficPattern::UniformRandom, &sim_cfg, 0.05);
    let always = network.energy_report(&AlwaysOn, &sim_cfg, &report, &energy_cfg);
    let sleep = network.energy_report(
        &LinkSleep {
            idle_threshold: 0.15,
        },
        &sim_cfg,
        &report,
        &energy_cfg,
    );
    let dvfs = network.energy_report(&Dvfs, &sim_cfg, &report, &energy_cfg);
    for e in [&always, &sleep, &dvfs] {
        assert!(e.routable, "{} not routable", e.policy);
        assert!(e.total_mw() > 0.0);
        assert!(e.energy_per_flit_pj > 0.0);
        assert!(e.edp_pj_ns > 0.0);
    }
    // Both managed policies beat the baseline at 5% load.
    assert!(sleep.total_mw() < always.total_mw());
    assert!(dvfs.total_mw() < always.total_mw());
}

#[test]
fn scop_and_latop_expose_the_latency_bandwidth_tradeoff() {
    let lat = quick_discover(LinkClass::Large, Objective::LatOp, 17);
    let sc = quick_discover(LinkClass::Large, Objective::SCOp, 18);
    // SCOp optimizes the cut; LatOp optimizes hops.  Even at tiny budgets
    // each must win (or tie) on its own metric.
    assert!(sc.objective.sparsest_cut >= lat.objective.sparsest_cut - 1e-9);
    assert!(lat.objective.average_hops <= sc.objective.average_hops + 1e-9);
}
