//! Integration tests for the experiment API port:
//!
//! * Golden headers — every figure's CSV schema is column-compatible with
//!   the original hand-rolled binaries.
//! * Cache regression — two figures sharing an `NS-LatOp` candidate
//!   trigger exactly one discovery (counted via the obs `cache.*`
//!   counters) and see bit-identical topologies.

use netsmith_bench::figures;
use netsmith_exp::{
    Assertion, CandidateSpec, Cell, ExperimentSpec, Figure, ObjectiveSpec, Row, RunProfile, Runner,
    SuiteCache,
};
use netsmith_obs::{MemoryRecorder, Obs};
use std::sync::Arc;

/// The CSV headers of the original figure binaries, column for column.
const GOLDEN_HEADERS: &[(&str, &str)] = &[
    (
        "fig01_scatter",
        "topology,class,routing,avg_hops,expected_saturation_flits_per_node_cycle,cut_bound,occupancy_bound",
    ),
    // fig04 prints raw Graphviz DOT, not CSV.
    ("fig04_topology", "dot"),
    (
        "fig05_solver_progress",
        "layout,class,evaluations,incumbent_avg_hops,bound_avg_hops,gap",
    ),
    (
        "fig06_synthetic",
        "traffic,class,topology,routing,offered,accepted_pkts_per_ns,latency_ns,saturated",
    ),
    (
        "fig07_routing_isolation",
        "topology,routing,measured_saturation_flits,expected_saturation_flits,cut_bound_flits,occupancy_bound_flits",
    ),
    (
        "fig08_parsec",
        "benchmark,class,topology,speedup_vs_mesh,packet_latency_reduction_vs_mesh",
    ),
    (
        "fig09_power_area",
        "topology,class,avg_link_utilization,static_power_rel_mesh,dynamic_power_rel_mesh,total_power_rel_mesh,router_area_rel_mesh,wire_area_rel_mesh,total_area_rel_mesh",
    ),
    (
        "fig10_shuffle",
        "class,topology,routing,offered,accepted_pkts_per_ns,latency_ns,saturated",
    ),
    (
        "fig11_scale48",
        "class,topology,routing,offered,accepted_pkts_per_ns,latency_ns,saturated",
    ),
    (
        "fig12_energy",
        "class,topology,routing,pattern,load,policy,static_mw,dynamic_mw,gated_savings_mw,total_mw,gated_links,energy_per_flit_pj,edp_pj_ns,latency_cycles,latency_ns,routable",
    ),
    (
        "fig13_resilience",
        "class,topology,routing,pattern,fault_set,scenarios,coverage,unreachable_pairs,baseline_sat,worst_sat,mean_sat,worst_retention,mean_latency_inflation,worst_latency_inflation",
    ),
    (
        "fig15_trace",
        "workload,class,topology,routing,offered,injected,delivered_fraction,latency_ns,p95_ns,p99_ns,saturated",
    ),
    (
        "fig16_serving",
        "class,topology,routing,policy,epochs,faults,repairs_ok,downtime_epochs,availability,pj_per_flit,low_load_pj_per_flit,p95_cycles,p99_cycles,p95_ns,p99_ns,gate_calls,gate_reuses",
    ),
    (
        "fig14_pareto",
        "w_lat,w_energy,w_fault,topology,links,avg_hops,lat_score,energy_score,fault_score,critical_links,min_dir_degree,on_front",
    ),
    (
        "table02_metrics",
        "routers,name,class,routers,links,diameter,avg_hops,bisection_bw,sparsest_cut,cut_bound,occupancy_bound",
    ),
    (
        "ablation_symmetry",
        "class,objective,links,avg_hops_asymmetric,avg_hops_symmetric,hops_penalty_pct,cut_asymmetric,cut_symmetric",
    ),
];

#[test]
fn figure_headers_match_the_golden_schemas() {
    let profile = RunProfile::quick();
    for (name, build) in figures::ALL {
        let figure = build(&profile);
        let golden = GOLDEN_HEADERS
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from the golden header table"))
            .1;
        assert_eq!(
            figure.header, golden,
            "{name}: CSV schema drifted from the original binary"
        );
        // Full and quick specs share one header.
        let full = build(&RunProfile::default());
        assert_eq!(full.header, figure.header, "{name}: quick header differs");
    }
    assert_eq!(figures::ALL.len(), GOLDEN_HEADERS.len());
}

/// Every registered figure passes the runner's spec check (no empty axis,
/// known expert and trace model names, runnable loads) under both profiles.
#[test]
fn no_registered_figure_has_an_empty_axis() {
    for profile in [RunProfile::quick(), RunProfile::default()] {
        for (name, build) in figures::ALL {
            build(&profile)
                .spec
                .check()
                .unwrap_or_else(|e| panic!("{name} (quick: {}): {e}", profile.quick));
        }
    }
}

/// A minimal figure whose only candidate is NS-LatOp on the medium class.
fn latop_figure(name: &str) -> Figure {
    let mut spec = ExperimentSpec::new(name);
    spec.classes = vec![netsmith::topo::LinkClass::Medium];
    spec.candidates = vec![CandidateSpec::synth(ObjectiveSpec::LatOp)];
    spec.assertions = vec![Assertion::MinRows { count: 1 }];
    Figure::new(spec, "topology,links", |cell: &Cell<'_>| {
        vec![Row::new()
            .str(cell.candidate.topology.name())
            .int(cell.candidate.topology.num_links() as i64)]
    })
}

#[test]
fn shared_candidates_are_discovered_exactly_once_across_figures() {
    let recorder = MemoryRecorder::new();
    let obs = Obs::to(recorder.clone());
    let cache = SuiteCache::new().with_obs(obs.clone());
    let profile = RunProfile {
        evals: 400,
        workers: 1,
        ..RunProfile::default()
    };
    let runner = Runner::new(profile, &cache).with_obs(obs);

    // Two different figure specs referencing the same NS-LatOp candidate.
    let first = latop_figure("first_latop_figure");
    let second = latop_figure("second_latop_figure");
    let first_output = runner.run(&first).unwrap();
    let second_output = runner.run(&second).unwrap();
    runner.verify(&first, &first_output).unwrap();
    runner.verify(&second, &second_output).unwrap();

    // Exactly one discovery, observed through the obs counters.
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.counter("cache.misses"), 1, "one real discovery");
    assert_eq!(snapshot.counter("cache.hits"), 1, "second figure hits");
    assert_eq!(cache.discoveries(), 1);
    assert_eq!(cache.references(), 2);
    // One cell span per figure run, one discovery span in total.
    assert_eq!(snapshot.span_count("cell"), 2);
    assert_eq!(snapshot.span_count("cache.discover"), 1);

    // Both result sets carry the bit-identical topology.
    let a = &first_output.candidates[0].topology;
    let b = &second_output.candidates[0].topology;
    assert!(Arc::ptr_eq(a, b) || a.adjacency() == b.adjacency());
    assert_eq!(
        a.adjacency(),
        b.adjacency(),
        "topologies must be bit-identical"
    );
    assert_eq!(first_output.rows, second_output.rows);
}
