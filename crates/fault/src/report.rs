//! Resilience assessment: run a scenario set through a repair policy and
//! measure how gracefully the fabric degrades.
//!
//! [`assess_resilience`] is the subsystem's top-level entry point.  For a
//! prepared healthy network it measures the baseline latency/throughput
//! curve, then for every [`FaultScenario`] it applies the faults, asks the
//! [`RepairPolicy`] for a verified deadlock-free re-route of the surviving
//! sub-topology, and (optionally) re-simulates the workload on the
//! degraded network — failed routers masked out of traffic generation —
//! using the early-exit parallel sweep machinery.  The resulting
//! [`ResilienceReport`] aggregates routability coverage, worst-case and
//! mean degraded saturation throughput, latency inflation, and
//! unreachable-pair counts.

use crate::inject::FaultScenario;
use crate::repair::{RepairConfig, RepairPolicy};
use netsmith_route::{RoutingTable, VcAllocation};
use netsmith_sim::{LatencyCurve, NetworkSim, SimConfig, Sweep, SweepOptions};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::Topology;

/// Parameters of a resilience assessment.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Simulator configuration used for the degraded measurements.
    pub sim: SimConfig,
    /// Repair parameters (VC budget, re-route seed).
    pub repair: RepairConfig,
    /// Workload driven over the healthy and degraded fabrics.
    pub pattern: TrafficPattern,
    /// Offered loads swept per configuration (flits/node/cycle).  The
    /// first point doubles as the low-load latency probe; the sweep stops
    /// early once saturation is established.
    pub loads: Vec<f64>,
    /// When false, skip simulation entirely and report structural results
    /// only (coverage and unreachable pairs) — the cheap mode used by
    /// property tests and quick CI runs.
    pub simulate: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            sim: SimConfig::quick(),
            repair: RepairConfig::default(),
            pattern: TrafficPattern::UniformRandom,
            loads: vec![0.05, 0.2, 0.35, 0.5, 0.7, 0.9],
            simulate: true,
        }
    }
}

/// Outcome of one fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario label ("l3-7+r12").
    pub scenario: String,
    /// Failed full-duplex links in the scenario.
    pub link_faults: usize,
    /// Failed routers in the scenario.
    pub router_faults: usize,
    /// Whether the repair policy produced a verified deadlock-free
    /// re-route of every surviving pair.
    pub repaired: bool,
    /// Surviving ordered pairs with no path on the degraded topology
    /// (non-zero exactly when the faults partitioned the fabric).
    pub unreachable_pairs: usize,
    /// Saturation throughput of the repaired network in flits/node/cycle
    /// (`None` when unrepaired or simulation was skipped).
    pub saturation_flits_per_node_cycle: Option<f64>,
    /// Low-load average latency of the repaired network in ns (`None`
    /// when unrepaired or simulation was skipped).
    pub low_load_latency_ns: Option<f64>,
}

impl ScenarioOutcome {
    /// CSV header matching [`ScenarioOutcome::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "scenario,link_faults,router_faults,repaired,unreachable_pairs,saturation,latency_ns"
    }

    /// One CSV row (empty fields for unmeasured quantities).
    pub fn to_csv_row(&self) -> String {
        let opt = |v: Option<f64>| v.map(|x| format!("{x:.4}")).unwrap_or_default();
        format!(
            "{},{},{},{},{},{},{}",
            self.scenario,
            self.link_faults,
            self.router_faults,
            self.repaired,
            self.unreachable_pairs,
            opt(self.saturation_flits_per_node_cycle),
            opt(self.low_load_latency_ns)
        )
    }
}

/// Aggregated resilience of one network under one scenario set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Network label ("NS-FaultOp-medium / MCLB").
    pub label: String,
    /// Repair policy name.
    pub policy: String,
    /// Healthy saturation throughput in flits/node/cycle (`None` when
    /// simulation was skipped).
    pub baseline_saturation_flits_per_node_cycle: Option<f64>,
    /// Healthy low-load latency in ns (`None` when simulation was
    /// skipped).
    pub baseline_low_load_latency_ns: Option<f64>,
    /// Per-scenario outcomes, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ResilienceReport {
    /// Fraction of scenarios the policy repaired (1.0 for an empty set).
    pub fn coverage(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes.iter().filter(|o| o.repaired).count() as f64 / self.outcomes.len() as f64
    }

    /// Total unreachable surviving pairs across scenarios — 0 whenever
    /// every scenario left the fabric connected.
    pub fn total_unreachable_pairs(&self) -> usize {
        self.outcomes.iter().map(|o| o.unreachable_pairs).sum()
    }

    fn measured_saturations(&self) -> impl Iterator<Item = f64> + '_ {
        self.outcomes
            .iter()
            .filter_map(|o| o.saturation_flits_per_node_cycle)
    }

    /// Mean degraded saturation throughput over repaired scenarios.
    pub fn mean_saturation(&self) -> Option<f64> {
        let (mut sum, mut count) = (0.0, 0usize);
        for s in self.measured_saturations() {
            sum += s;
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Worst (lowest) degraded saturation throughput over repaired
    /// scenarios.
    pub fn worst_saturation(&self) -> Option<f64> {
        self.measured_saturations().reduce(f64::min)
    }

    /// Worst degraded saturation as a fraction of the healthy baseline
    /// (1.0 = no degradation).
    pub fn worst_saturation_retention(&self) -> Option<f64> {
        let base = self.baseline_saturation_flits_per_node_cycle?;
        if base <= 0.0 {
            return None;
        }
        Some(self.worst_saturation()? / base)
    }

    /// Mean low-load latency inflation over repaired scenarios, as a
    /// multiple of the healthy baseline (1.0 = no inflation).
    pub fn mean_latency_inflation(&self) -> Option<f64> {
        let base = self.baseline_low_load_latency_ns?;
        if base <= 0.0 {
            return None;
        }
        let (mut sum, mut count) = (0.0, 0usize);
        for o in &self.outcomes {
            if let Some(l) = o.low_load_latency_ns {
                sum += l / base;
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Worst low-load latency inflation over repaired scenarios.
    pub fn worst_latency_inflation(&self) -> Option<f64> {
        let base = self.baseline_low_load_latency_ns?;
        if base <= 0.0 {
            return None;
        }
        self.outcomes
            .iter()
            .filter_map(|o| o.low_load_latency_ns.map(|l| l / base))
            .reduce(f64::max)
    }
}

/// Saturation + low-load latency from an early-exit sweep curve.
fn curve_summary(curve: &LatencyCurve) -> (Option<f64>, Option<f64>) {
    let saturation = (!curve.points.is_empty()).then(|| curve.saturation_flits_per_node_cycle());
    (saturation, curve.low_load_latency_ns())
}

/// Assess a prepared healthy network against a scenario set.
///
/// The baseline is measured on the *policy's re-route of the healthy
/// topology* (falling back to the supplied `routing`/`vcs` when the policy
/// declines), so degraded-vs-baseline ratios isolate the fault impact from
/// any routing-scheme difference between the original preparation and the
/// repair machinery.  Every degraded measurement uses the repair policy's
/// fresh routing and VC allocation, with failed routers masked out of
/// traffic generation.
pub fn assess_resilience(
    label: impl Into<String>,
    topo: &Topology,
    routing: &RoutingTable,
    vcs: &VcAllocation,
    scenarios: &[FaultScenario],
    policy: &dyn RepairPolicy,
    config: &ResilienceConfig,
) -> ResilienceReport {
    let sweep_options = SweepOptions::early_exit();
    let (baseline_saturation, baseline_latency) = if config.simulate {
        let healthy = policy
            .repair(&FaultScenario::healthy().apply(topo), &config.repair)
            .ok();
        let (table, alloc) = healthy
            .as_ref()
            .map(|h| (&h.routing, &h.vcs))
            .unwrap_or((routing, vcs));
        let sim = NetworkSim::builder(topo, table)
            .vcs(alloc)
            .pattern(config.pattern.clone())
            .config(config.sim.clone())
            .build();
        curve_summary(
            &Sweep::new("baseline")
                .options(sweep_options.clone())
                .run(&sim, &config.loads),
        )
    } else {
        (None, None)
    };

    let mut outcomes = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let degraded = scenario.apply(topo);
        let unreachable = degraded.unreachable_pairs();
        // A policy returning `Ok` guarantees a verified repair (see the
        // RepairPolicy contract; RerouteRepair checks completeness and
        // deadlock freedom before returning), so success is both the
        // repaired flag and the gate for the degraded measurement; the
        // aggregate report only needs the boolean, so the typed reason is
        // dropped here.
        let repaired = policy.repair(&degraded, &config.repair).ok();
        let (saturation, latency) = match (&repaired, config.simulate) {
            (Some(network), true) => {
                let sim = NetworkSim::builder(&network.topology, &network.routing)
                    .vcs(&network.vcs)
                    .pattern(config.pattern.clone())
                    .config(config.sim.clone())
                    .failed_routers(&network.failed_routers())
                    .build();
                curve_summary(
                    &Sweep::new(scenario.label())
                        .options(sweep_options.clone())
                        .run(&sim, &config.loads),
                )
            }
            _ => (None, None),
        };
        outcomes.push(ScenarioOutcome {
            scenario: scenario.label(),
            link_faults: scenario.link_faults(),
            router_faults: scenario.router_faults(),
            repaired: repaired.is_some(),
            unreachable_pairs: unreachable,
            saturation_flits_per_node_cycle: saturation,
            low_load_latency_ns: latency,
        });
    }

    ResilienceReport {
        label: label.into(),
        policy: policy.name(),
        baseline_saturation_flits_per_node_cycle: baseline_saturation,
        baseline_low_load_latency_ns: baseline_latency,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{single_link_scenarios, Fault, FaultScenario};
    use crate::repair::RerouteRepair;
    use netsmith_route::paths::all_shortest_paths;
    use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
    use netsmith_topo::{expert, Layout};

    fn prepared(topo: &Topology) -> (RoutingTable, VcAllocation) {
        let paths = all_shortest_paths(topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let vcs = allocate_vcs(&table, 6, 7).expect("fits in 6 VCs");
        (table, vcs)
    }

    #[test]
    fn mesh_covers_every_single_link_failure() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, vcs) = prepared(&mesh);
        let report = assess_resilience(
            "mesh",
            &mesh,
            &table,
            &vcs,
            &single_link_scenarios(&mesh),
            &RerouteRepair,
            &ResilienceConfig {
                simulate: false,
                ..Default::default()
            },
        );
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(report.total_unreachable_pairs(), 0);
        assert_eq!(report.outcomes.len(), mesh.num_links());
        // Structural-only runs carry no measurements.
        assert!(report.baseline_saturation_flits_per_node_cycle.is_none());
        assert!(report.mean_saturation().is_none());
    }

    #[test]
    fn partitioning_scenarios_lower_coverage_and_count_lost_pairs() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, vcs) = prepared(&mesh);
        // One repairable fault plus one corner amputation.
        let scenarios = vec![
            FaultScenario::new(vec![Fault::link(6, 7)]),
            FaultScenario::new(vec![Fault::link(0, 1), Fault::link(0, 5)]),
        ];
        let report = assess_resilience(
            "mesh",
            &mesh,
            &table,
            &vcs,
            &scenarios,
            &RerouteRepair,
            &ResilienceConfig {
                simulate: false,
                ..Default::default()
            },
        );
        assert!((report.coverage() - 0.5).abs() < 1e-12);
        // Router 0 cut off: 19 pairs each way.
        assert_eq!(report.total_unreachable_pairs(), 2 * 19);
        assert!(!report.outcomes[1].repaired);
    }

    #[test]
    fn simulated_assessment_reports_degradation_against_the_baseline() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let (table, vcs) = prepared(&torus);
        let scenarios = vec![FaultScenario::new(vec![Fault::link(0, 1)])];
        let mut config = ResilienceConfig::default();
        config.sim.warmup_cycles = 200;
        config.sim.measure_cycles = 1_000;
        config.sim.drain_cycles = 500;
        let report = assess_resilience(
            "torus",
            &torus,
            &table,
            &vcs,
            &scenarios,
            &RerouteRepair,
            &config,
        );
        let base_sat = report.baseline_saturation_flits_per_node_cycle.unwrap();
        assert!(base_sat > 0.0);
        assert!(report.baseline_low_load_latency_ns.unwrap() > 0.0);
        let outcome = &report.outcomes[0];
        assert!(outcome.repaired);
        // A repaired single-link failure still delivers traffic, at or
        // below the healthy ceiling (small simulation noise tolerated).
        let degraded_sat = outcome.saturation_flits_per_node_cycle.unwrap();
        assert!(degraded_sat > 0.0);
        assert!(degraded_sat <= base_sat * 1.1);
        assert!(report.worst_saturation_retention().unwrap() > 0.0);
        assert!(report.mean_latency_inflation().unwrap() > 0.5);
        assert_eq!(
            outcome.to_csv_row().split(',').count(),
            ScenarioOutcome::csv_header().split(',').count()
        );
    }

    #[test]
    fn unrepaired_scenarios_leave_gaps_in_csv_rows() {
        let outcome = ScenarioOutcome {
            scenario: "l0-1+l0-5".into(),
            link_faults: 2,
            router_faults: 0,
            repaired: false,
            unreachable_pairs: 38,
            saturation_flits_per_node_cycle: None,
            low_load_latency_ns: None,
        };
        assert_eq!(outcome.to_csv_row(), "l0-1+l0-5,2,0,false,38,,");
    }

    #[test]
    fn empty_scenario_set_has_full_coverage() {
        let report = ResilienceReport {
            label: "x".into(),
            policy: "reroute".into(),
            baseline_saturation_flits_per_node_cycle: None,
            baseline_low_load_latency_ns: None,
            outcomes: Vec::new(),
        };
        assert_eq!(report.coverage(), 1.0);
        assert!(report.worst_saturation().is_none());
        assert!(report.worst_latency_inflation().is_none());
    }
}
