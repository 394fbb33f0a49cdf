//! Execution-time model driven by simulated NoI packet latencies.

use crate::workload::WorkloadProfile;
use netsmith_route::{RoutingTable, VcAllocation};
use netsmith_sim::{NetworkSim, SimConfig};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::Topology;

/// Full-system parameters (defaults follow the paper's Table IV).
#[derive(Debug, Clone, PartialEq)]
pub struct FullSystemConfig {
    /// CPU core clock in GHz (3.8 GHz in Table IV).
    pub cpu_clock_ghz: f64,
    /// Cores per NoI router (4-way concentration).
    pub cores_per_router: f64,
    /// Average NoC (intra-chiplet) + CDC latency added to every NoI
    /// transaction, in CPU cycles (2-cycle CDC each way plus a few NoC
    /// hops).
    pub noc_and_cdc_cycles: f64,
    /// Directory / LLC slice lookup latency in CPU cycles.
    pub directory_cycles: f64,
    /// DRAM access latency in CPU cycles for memory-bound misses.
    pub dram_cycles: f64,
    /// Network simulator configuration (clock set per topology class).
    pub sim: SimConfig,
}

impl Default for FullSystemConfig {
    fn default() -> Self {
        FullSystemConfig {
            cpu_clock_ghz: 3.8,
            cores_per_router: 3.2, // 64 cores / 20 NoI routers
            noc_and_cdc_cycles: 12.0,
            directory_cycles: 20.0,
            dram_cycles: 120.0,
            sim: SimConfig::default(),
        }
    }
}

impl FullSystemConfig {
    /// Reduced-cycle configuration for tests.
    pub fn quick() -> Self {
        FullSystemConfig {
            sim: SimConfig::quick(),
            ..Default::default()
        }
    }
}

/// Result of evaluating one topology under one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FullSystemResult {
    pub benchmark: String,
    pub topology: String,
    /// Average NoI packet latency in nanoseconds.
    pub packet_latency_ns: f64,
    /// Average end-to-end miss penalty in CPU cycles.
    pub miss_penalty_cycles: f64,
    /// Modelled cycles per instruction.
    pub cpi: f64,
    /// Modelled execution time (normalized: cycles per instruction times a
    /// fixed instruction count; only ratios are meaningful).
    pub execution_time: f64,
}

impl FullSystemResult {
    /// Speedup of this result relative to a baseline (e.g. mesh).
    pub fn speedup_over(&self, baseline: &FullSystemResult) -> f64 {
        baseline.execution_time / self.execution_time
    }

    /// Packet latency reduction relative to a baseline (1.0 = eliminated).
    pub fn latency_reduction_over(&self, baseline: &FullSystemResult) -> f64 {
        1.0 - self.packet_latency_ns / baseline.packet_latency_ns
    }
}

/// The NoI injection rate (flits per router per NoI cycle) implied by a
/// workload profile: every L2 miss produces a request packet and a response
/// packet (one of them data-sized), issued by `cores_per_router` cores at
/// `cpu_clock / base_cpi` instructions per second each.
fn implied_injection_rate(
    profile: &WorkloadProfile,
    config: &FullSystemConfig,
    noi_clock_ghz: f64,
) -> f64 {
    let instr_per_ns_per_core = config.cpu_clock_ghz / profile.base_cpi;
    let misses_per_ns_per_router =
        instr_per_ns_per_core * profile.misses_per_instruction() * config.cores_per_router;
    // Two packets per miss (request + response), average size in flits.
    let avg_flits = config.sim.average_flits();
    let flits_per_ns_per_router = misses_per_ns_per_router * 2.0 * avg_flits;
    (flits_per_ns_per_router / noi_clock_ghz).min(0.95)
}

/// Evaluate one topology + routing + VC allocation under one workload.
pub fn evaluate_topology(
    profile: &WorkloadProfile,
    topo: &Topology,
    table: &RoutingTable,
    vcs: Option<&VcAllocation>,
    config: &FullSystemConfig,
) -> FullSystemResult {
    let mut sim_config = config.sim.clone();
    sim_config.clock_ghz = topo.class().clock_ghz();
    // Coherence misses are 3-hop-ish transactions dominated by control
    // packets; memory misses move cache lines.  The synthetic mix below
    // matches the paper's equal-likelihood control/data injection.
    sim_config.data_fraction = 0.5;
    let load = implied_injection_rate(profile, config, sim_config.clock_ghz);
    let pattern = TrafficPattern::UniformRandom;
    let mut sim_builder = NetworkSim::builder(topo, table)
        .pattern(pattern)
        .config(sim_config.clone());
    if let Some(vcs) = vcs {
        sim_builder = sim_builder.vcs(vcs);
    }
    let sim = sim_builder.build();
    let report = sim.run(load.max(0.01));
    // If the workload saturates this NoI, latency already reflects the
    // queueing explosion; the CPI model simply inherits it.
    let packet_latency_ns = if report.avg_latency_cycles > 0.0 {
        report.avg_latency_ns
    } else {
        sim_config.cycles_to_ns(sim.zero_load_latency_cycles())
    };

    // Miss penalty in CPU cycles: NoC/CDC crossings + directory lookup +
    // two NoI traversals + DRAM for the memory-bound fraction.
    let noi_round_trip_cpu_cycles = 2.0 * packet_latency_ns * config.cpu_clock_ghz;
    let memory_fraction = 1.0 - profile.coherence_fraction;
    let miss_penalty_cycles = config.noc_and_cdc_cycles
        + config.directory_cycles
        + noi_round_trip_cpu_cycles
        + memory_fraction * config.dram_cycles;
    let effective_penalty = miss_penalty_cycles * (1.0 - profile.overlap);
    let cpi = profile.base_cpi + profile.misses_per_instruction() * effective_penalty;
    FullSystemResult {
        benchmark: profile.name.to_string(),
        topology: topo.name().to_string(),
        packet_latency_ns,
        miss_penalty_cycles,
        cpi,
        execution_time: cpi, // per-instruction time in CPU cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::parsec_suite;
    use netsmith_route::paths::all_shortest_paths;
    use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    fn routed(topo: &Topology) -> (RoutingTable, VcAllocation) {
        let ps = all_shortest_paths(topo);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 1).unwrap();
        (table, alloc)
    }

    #[test]
    fn injection_rate_scales_with_mpki() {
        let config = FullSystemConfig::quick();
        let suite = parsec_suite();
        let low = implied_injection_rate(&suite[0], &config, 3.0);
        let high = implied_injection_rate(suite.last().unwrap(), &config, 3.0);
        assert!(low < high);
        assert!(low > 0.0);
        assert!(high <= 0.95);
    }

    #[test]
    fn network_bound_benchmarks_have_higher_cpi() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let (table, alloc) = routed(&mesh);
        let config = FullSystemConfig::quick();
        let suite = parsec_suite();
        let light = evaluate_topology(&suite[0], &mesh, &table, Some(&alloc), &config);
        let heavy = evaluate_topology(suite.last().unwrap(), &mesh, &table, Some(&alloc), &config);
        assert!(heavy.cpi > light.cpi);
        assert!(light.cpi >= suite[0].base_cpi);
    }

    #[test]
    fn better_topologies_speed_up_network_bound_workloads() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let kite = expert::kite_medium(&layout);
        let (mesh_table, mesh_alloc) = routed(&mesh);
        let (kite_table, kite_alloc) = routed(&kite);
        let config = FullSystemConfig::quick();
        let canneal = parsec_suite()
            .into_iter()
            .find(|w| w.name == "canneal")
            .unwrap();
        let base = evaluate_topology(&canneal, &mesh, &mesh_table, Some(&mesh_alloc), &config);
        let better = evaluate_topology(&canneal, &kite, &kite_table, Some(&kite_alloc), &config);
        let speedup = better.speedup_over(&base);
        assert!(
            speedup > 1.0,
            "kite should speed canneal up over mesh, got {speedup}"
        );
        assert!(better.latency_reduction_over(&base) > 0.0);
    }

    #[test]
    fn compute_bound_workloads_are_less_sensitive() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let kite = expert::kite_medium(&layout);
        let (mesh_table, mesh_alloc) = routed(&mesh);
        let (kite_table, kite_alloc) = routed(&kite);
        let config = FullSystemConfig::quick();
        let suite = parsec_suite();
        let compute_bound = &suite[0];
        let network_bound = suite.last().unwrap();
        let s_light = evaluate_topology(
            compute_bound,
            &kite,
            &kite_table,
            Some(&kite_alloc),
            &config,
        )
        .speedup_over(&evaluate_topology(
            compute_bound,
            &mesh,
            &mesh_table,
            Some(&mesh_alloc),
            &config,
        ));
        let s_heavy = evaluate_topology(
            network_bound,
            &kite,
            &kite_table,
            Some(&kite_alloc),
            &config,
        )
        .speedup_over(&evaluate_topology(
            network_bound,
            &mesh,
            &mesh_table,
            Some(&mesh_alloc),
            &config,
        ));
        assert!(
            s_heavy >= s_light,
            "network-bound speedup {s_heavy} should exceed compute-bound {s_light}"
        );
    }

    #[test]
    fn speedup_of_identity_is_one() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let (table, alloc) = routed(&mesh);
        let config = FullSystemConfig::quick();
        let w = &parsec_suite()[3];
        let r = evaluate_topology(w, &mesh, &table, Some(&alloc), &config);
        assert!((r.speedup_over(&r) - 1.0).abs() < 1e-12);
        assert!(r.latency_reduction_over(&r).abs() < 1e-12);
    }
}
