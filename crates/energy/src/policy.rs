//! Energy-management policies over measured link activity.
//!
//! Every policy consumes an [`EnergyContext`] — the routed, VC-allocated
//! network plus the simulator's measured
//! [`ActivityProfile`](netsmith_sim::ActivityProfile) — and produces an
//! [`EnergyReport`].  Three policies are provided:
//!
//! * [`AlwaysOn`] — the baseline: every link powered, power taken straight
//!   from the measured per-link accounting.
//! * [`LinkSleep`] — power-gate full-duplex links whose measured
//!   utilization falls below a threshold, at most a quarter of the links
//!   at once.  Residual traffic on a gated link wakes it, paying an
//!   8-cycle latency penalty and the wake energy; the gated sub-topology is
//!   re-routed and re-allocated through the standard MCLB + escape-VC
//!   machinery and any link whose removal would break strong connectivity
//!   or deadlock freedom is kept awake.
//! * [`Dvfs`] — scale the NoI clock and voltage down to the slowest of
//!   three levels that keeps the scaled utilization at or below 0.75
//!   (dynamic power scales with `f·V²`, leakage with `V`).

use crate::report::{EnergyConfig, EnergyReport};
use netsmith_power::{power_report_from_activity, PowerReport};
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::vc::verify_deadlock_free;
use netsmith_route::{mclb_route, require_servable, MclbConfig, RoutingTable, VcAllocation};
use netsmith_sim::{SimConfig, SimReport};
use netsmith_topo::metrics::is_strongly_connected;
use netsmith_topo::{PipelineError, RouterId, Topology};

/// Everything a policy may inspect: the prepared network, the simulator
/// configuration it was measured under, the measured report (latency +
/// activity) and the technology constants.
pub struct EnergyContext<'a> {
    /// The evaluated topology.
    pub topology: &'a Topology,
    /// Its routing table (used for re-verification baselines).
    pub routing: &'a RoutingTable,
    /// Its deadlock-free VC allocation.
    pub vcs: &'a VcAllocation,
    /// Simulator configuration the measurement ran under (supplies the
    /// nominal clock).
    pub sim: &'a SimConfig,
    /// Measured simulation report, including the per-link activity.
    pub report: &'a SimReport,
    /// Energy model parameters.
    pub config: &'a EnergyConfig,
}

impl EnergyContext<'_> {
    /// Measured always-on power at this operating point.
    fn baseline_power(&self) -> PowerReport {
        power_report_from_activity(
            self.topology,
            &self.config.power,
            self.sim,
            &self.report.activity,
        )
    }

    /// Delivered flits per nanosecond at the nominal clock.
    pub fn delivered_flits_per_ns(&self) -> f64 {
        self.report.accepted_flits_per_node_cycle
            * self.topology.num_routers() as f64
            * self.sim.clock_ghz
    }
}

/// An energy-management policy: maps measured activity to a power/energy
/// outcome.
pub trait EnergyPolicy {
    /// Label used in reports and CSV output.
    fn name(&self) -> String;

    /// Evaluate the policy at the context's measured operating point.
    fn evaluate(&self, ctx: &EnergyContext<'_>) -> EnergyReport;
}

/// Baseline policy: every link stays powered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlwaysOn;

impl EnergyPolicy for AlwaysOn {
    fn name(&self) -> String {
        "always_on".into()
    }

    fn evaluate(&self, ctx: &EnergyContext<'_>) -> EnergyReport {
        let power = ctx.baseline_power();
        EnergyReport {
            policy: self.name(),
            static_mw: power.static_mw,
            dynamic_mw: power.dynamic_mw,
            gated_savings_mw: 0.0,
            gated_links: 0,
            energy_per_flit_pj: 0.0,
            edp_pj_ns: 0.0,
            avg_latency_cycles: ctx.report.avg_latency_cycles,
            avg_latency_ns: ctx.report.avg_latency_ns,
            routable: true,
        }
        .finalize(ctx.delivered_flits_per_ns())
    }
}

/// A gated sub-topology together with the fresh routing and VC allocation
/// that prove it remains usable.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedNetwork {
    /// The topology with every gated link removed.
    pub topology: Topology,
    /// MCLB routing of the gated topology.
    pub routing: RoutingTable,
    /// Deadlock-free VC allocation of that routing.
    pub vcs: VcAllocation,
    /// Gated full-duplex pairs, canonical `(lo, hi)` order.
    pub gated_pairs: Vec<(RouterId, RouterId)>,
}

impl GatedNetwork {
    /// Re-check the invariant the gating search established: complete
    /// routing with an acyclic CDG on every VC.
    pub fn verify(&self) -> bool {
        self.routing.is_complete() && verify_deadlock_free(&self.routing, &self.vcs)
    }
}

/// Outcome of routing one gated candidate: its MCLB table and VC
/// allocation, or why it cannot be served.
type RouteResult = Result<(RoutingTable, VcAllocation), PipelineError>;

/// The last gated candidate [`LinkSleep::gate_with`] routed, and what
/// routing it gave.
///
/// Consecutive gate decisions of a serving horizon often land on the same
/// sub-topology.  An attempt whose candidate has the same links, reroute
/// seed and VC budget as the last one reuses its result instead of
/// running shortest paths, MCLB and VC allocation again: routing is a
/// pure function of those three.  One slot keeps the memory flat; the
/// counters report how many attempts routed and how many reused.
#[derive(Debug, Default)]
pub struct GateMemo {
    slot: Option<RouteSlot>,
    routes: u64,
    reuses: u64,
}

#[derive(Debug)]
struct RouteSlot {
    adjacency: Vec<bool>,
    seed: u64,
    vc_budget: usize,
    result: RouteResult,
}

impl GateMemo {
    /// Route attempts that ran paths, MCLB and VC allocation.
    pub fn routes(&self) -> u64 {
        self.routes
    }

    /// Route attempts answered from the slot instead.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Forget the last candidate, keeping the counters.
    pub fn clear(&mut self) {
        self.slot = None;
    }

    /// Route `candidate` with MCLB and check it fits deadlock-free into
    /// `vc_budget` virtual channels, or reuse the last attempt's result
    /// when it routed the same links with the same seed and budget.
    fn route(&mut self, candidate: &Topology, seed: u64, vc_budget: usize) -> RouteResult {
        if let Some(slot) = &self.slot {
            if slot.seed == seed
                && slot.vc_budget == vc_budget
                && slot.adjacency == candidate.adjacency()
            {
                self.reuses += 1;
                return slot.result.clone();
            }
        }
        self.routes += 1;
        let routing = mclb_route(&all_shortest_paths(candidate), &MclbConfig { seed });
        let result = require_servable(&routing, candidate.num_routers(), vc_budget, seed)
            .map(|vcs| (routing, vcs));
        self.slot = Some(RouteSlot {
            adjacency: candidate.adjacency().to_vec(),
            seed,
            vc_budget,
            result: result.clone(),
        });
        result
    }
}

/// Power-gate links whose measured utilization is below `idle_threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSleep {
    /// A full-duplex link is a gating candidate when the busier of its two
    /// directions was busy less than this fraction of the window.
    pub idle_threshold: f64,
}

impl Default for LinkSleep {
    fn default() -> Self {
        LinkSleep {
            idle_threshold: 0.05,
        }
    }
}

/// Latency charged to every packet that traverses a gated (sleeping)
/// link, in cycles.
const WAKE_PENALTY_CYCLES: u64 = 8;

/// At most this fraction of the physical links may sleep at once.  Gating
/// is worth wire + port leakage per pair, but every gated pair lengthens
/// the reroutes of the traffic it used to carry — a dynamic cost the
/// per-pair model cannot see.  Capping the gated fraction keeps the
/// consolidation shallow enough that the leakage saved is not handed
/// straight back as extra router/wire traversals.
const MAX_GATED_FRACTION: f64 = 0.25;

impl LinkSleep {
    /// Leakage saved per gated pair, in mW: the wire's repeaters plus the
    /// two endpoint port macros, minus the residual the gate still leaks.
    fn pair_savings_mw(ctx: &EnergyContext<'_>, i: RouterId, j: RouterId) -> f64 {
        (ctx.topology.layout().distance_mm(i, j) * ctx.config.power.wire_leakage_mw_per_mm
            + ctx.config.power.link_port_leakage_mw)
            * (1.0 - ctx.config.gated_leakage_fraction)
    }

    /// Wake events caused by `pair_flits` flits crossing sleeping links:
    /// every packet traversal is one wake.
    fn wake_events(ctx: &EnergyContext<'_>, pair_flits: u64) -> f64 {
        pair_flits as f64 / ctx.sim.average_flits().max(1.0)
    }

    /// Wake power charged per gated pair at its measured traffic, in mW.
    fn pair_wake_mw(ctx: &EnergyContext<'_>, pair_flits: u64) -> f64 {
        let activity = &ctx.report.activity;
        if activity.measured_cycles == 0 {
            return 0.0;
        }
        Self::wake_events(ctx, pair_flits) / activity.measured_cycles as f64
            * ctx.sim.clock_ghz
            * ctx.config.wake_energy_pj
    }

    /// Select the gated sub-topology for a measured activity profile.
    ///
    /// A full-duplex pair is a candidate when its busier direction was busy
    /// less than the idle threshold *and* gating it is net-beneficial: the
    /// leakage it stops burning exceeds the wake energy its residual
    /// traffic would cost.  Candidates are gated greedily from the largest
    /// net benefit down; a pair is kept awake when removing it would
    /// disconnect the network, and the final selection is walked back
    /// (smallest net benefit first) until the sub-topology routes
    /// deadlock-free within the VC budget.  Fails only when even the
    /// ungated topology cannot be routed — which the pipeline rules out
    /// before a policy ever runs — and then surfaces the typed reason.
    pub fn gate(&self, ctx: &EnergyContext<'_>) -> Result<GatedNetwork, PipelineError> {
        self.gate_with(ctx, &mut GateMemo::default())
    }

    /// [`LinkSleep::gate`], reusing the last routed candidate held in
    /// `memo` and counting the route attempts there.
    pub fn gate_with(
        &self,
        ctx: &EnergyContext<'_>,
        memo: &mut GateMemo,
    ) -> Result<GatedNetwork, PipelineError> {
        let topo = ctx.topology;
        let activity = &ctx.report.activity;
        // Utilization and flits per directed link, dense `n x n`.
        let n = topo.num_routers();
        let mut util = vec![0.0f64; n * n];
        let mut flits = vec![0u64; n * n];
        for l in &activity.links {
            util[l.from * n + l.to] = l.utilization(activity.measured_cycles);
            flits[l.from * n + l.to] = l.flits;
        }

        // Candidate full-duplex pairs, largest net benefit first
        // (deterministic tie-break on the pair itself).
        let mut candidates: Vec<((RouterId, RouterId), f64)> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if !topo.has_link(i, j) && !topo.has_link(j, i) {
                    continue;
                }
                if util[i * n + j].max(util[j * n + i]) >= self.idle_threshold {
                    continue;
                }
                let pair_flits = flits[i * n + j] + flits[j * n + i];
                let net_mw = Self::pair_savings_mw(ctx, i, j) - Self::pair_wake_mw(ctx, pair_flits);
                if net_mw > 0.0 {
                    candidates.push(((i, j), net_mw));
                }
            }
        }
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        // Greedy gating with a cheap strong-connectivity check per step,
        // stopping at the gated-fraction cap.
        let cap = (topo.num_links() as f64 * MAX_GATED_FRACTION).floor() as usize;
        let mut gated_topo = topo.clone().with_name(format!("{}-gated", topo.name()));
        let mut gated: Vec<(RouterId, RouterId)> = Vec::new();
        for &((i, j), _) in &candidates {
            if gated.len() >= cap {
                break;
            }
            let had_fwd = gated_topo.has_link(i, j);
            let had_rev = gated_topo.has_link(j, i);
            gated_topo.remove_link(i, j);
            gated_topo.remove_link(j, i);
            if is_strongly_connected(&gated_topo) {
                gated.push((i, j));
            } else {
                if had_fwd {
                    gated_topo.add_link(i, j);
                }
                if had_rev {
                    gated_topo.add_link(j, i);
                }
            }
        }

        let seed = ctx.config.reroute_seed;
        // Walk back until the gated sub-topology routes deadlock-free.
        // Restoration pops the smallest-net-benefit pair first, giving up
        // the least savings per unit of routability regained.
        loop {
            match memo.route(&gated_topo, seed, ctx.config.vc_budget) {
                Ok((routing, vcs)) => {
                    return Ok(GatedNetwork {
                        topology: gated_topo,
                        routing,
                        vcs,
                        gated_pairs: gated,
                    })
                }
                Err(err) => {
                    // Nothing left to restore: even the ungated topology is
                    // unroutable, so propagate that failure.
                    let Some((i, j)) = gated.pop() else {
                        return Err(err);
                    };
                    if topo.has_link(i, j) {
                        gated_topo.add_link(i, j);
                    }
                    if topo.has_link(j, i) {
                        gated_topo.add_link(j, i);
                    }
                }
            }
        }
    }
}

impl EnergyPolicy for LinkSleep {
    fn name(&self) -> String {
        format!("link_sleep(t={:.2})", self.idle_threshold)
    }

    fn evaluate(&self, ctx: &EnergyContext<'_>) -> EnergyReport {
        let baseline = ctx.baseline_power();
        let Ok(gated) = self.gate(ctx) else {
            // Even the ungated network failed to re-route: fall back to
            // always-on figures, flagged unroutable.
            let mut report = AlwaysOn.evaluate(ctx);
            report.policy = self.name();
            report.routable = false;
            return report;
        };
        // Static savings and wake cost use the same per-pair cost model the
        // gating decision was made with.
        let savings_mw: f64 = gated
            .gated_pairs
            .iter()
            .map(|&(i, j)| Self::pair_savings_mw(ctx, i, j))
            .sum();
        let gated_set: std::collections::HashSet<(RouterId, RouterId)> =
            gated.gated_pairs.iter().copied().collect();
        let gated_flits: u64 = ctx
            .report
            .activity
            .links
            .iter()
            .filter(|l| {
                let key = if l.from < l.to {
                    (l.from, l.to)
                } else {
                    (l.to, l.from)
                };
                gated_set.contains(&key)
            })
            .map(|l| l.flits)
            .sum();
        let wake_mw = Self::pair_wake_mw(ctx, gated_flits);

        // Latency penalty: expected wakes per delivered packet.
        let packets = ctx.report.packets_ejected.max(1) as f64;
        let penalty_cycles =
            WAKE_PENALTY_CYCLES as f64 * (Self::wake_events(ctx, gated_flits) / packets);
        let latency_cycles = ctx.report.avg_latency_cycles + penalty_cycles;

        EnergyReport {
            policy: self.name(),
            static_mw: baseline.static_mw - savings_mw,
            dynamic_mw: baseline.dynamic_mw + wake_mw,
            gated_savings_mw: savings_mw,
            gated_links: gated.gated_pairs.len(),
            energy_per_flit_pj: 0.0,
            edp_pj_ns: 0.0,
            avg_latency_cycles: latency_cycles,
            avg_latency_ns: ctx.sim.cycles_to_ns(latency_cycles),
            routable: gated.verify(),
        }
        .finalize(ctx.delivered_flits_per_ns())
    }
}

/// One DVFS operating point, relative to the nominal class clock/voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsLevel {
    /// Clock multiplier (1.0 = nominal).
    pub freq_scale: f64,
    /// Supply-voltage multiplier (1.0 = nominal).
    pub voltage_scale: f64,
}

impl DvfsLevel {
    /// The nominal operating point.
    pub fn nominal() -> Self {
        DvfsLevel {
            freq_scale: 1.0,
            voltage_scale: 1.0,
        }
    }
}

/// Scale clock and voltage to the measured load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dvfs;

/// The operating points, slowest first.
const DVFS_LEVELS: [DvfsLevel; 3] = [
    DvfsLevel {
        freq_scale: 0.5,
        voltage_scale: 0.8,
    },
    DvfsLevel {
        freq_scale: 0.75,
        voltage_scale: 0.9,
    },
    DvfsLevel {
        freq_scale: 1.0,
        voltage_scale: 1.0,
    },
];

/// Maximum tolerated link utilization after down-clocking; keeps the
/// slowed network out of saturation.
const DVFS_HEADROOM: f64 = 0.75;

impl Dvfs {
    /// Select the operating level for a measured utilization: the slowest
    /// level that keeps `utilization / freq_scale` at or below 0.75, or the
    /// nominal level when none does.
    pub fn select_level(&self, avg_link_utilization: f64) -> DvfsLevel {
        DVFS_LEVELS
            .into_iter()
            .find(|level| avg_link_utilization / level.freq_scale <= DVFS_HEADROOM)
            .unwrap_or_else(DvfsLevel::nominal)
    }
}

impl EnergyPolicy for Dvfs {
    fn name(&self) -> String {
        format!("dvfs({} levels)", DVFS_LEVELS.len())
    }

    fn evaluate(&self, ctx: &EnergyContext<'_>) -> EnergyReport {
        let baseline = ctx.baseline_power();
        let level = self.select_level(ctx.report.activity.avg_link_utilization());
        // Dynamic power scales with f·V² (same per-cycle activity, slower
        // and lower-swing switching); leakage scales with V; wall-clock
        // latency stretches by the inverse frequency scale.
        let dynamic_mw = baseline.dynamic_mw * level.freq_scale * level.voltage_scale.powi(2);
        let static_mw = baseline.static_mw * level.voltage_scale;
        let latency_cycles = ctx.report.avg_latency_cycles;
        let effective_clock = ctx.sim.clock_ghz * level.freq_scale;
        EnergyReport {
            policy: self.name(),
            static_mw,
            dynamic_mw,
            gated_savings_mw: 0.0,
            gated_links: 0,
            energy_per_flit_pj: 0.0,
            edp_pj_ns: 0.0,
            avg_latency_cycles: latency_cycles,
            avg_latency_ns: latency_cycles / effective_clock,
            routable: true,
        }
        .finalize(ctx.delivered_flits_per_ns() * level.freq_scale)
    }
}

/// Convenience: the three standard policies compared by the `fig12_energy`
/// harness.
pub fn standard_policies(idle_threshold: f64) -> Vec<Box<dyn EnergyPolicy>> {
    vec![
        Box::new(AlwaysOn),
        Box::new(LinkSleep { idle_threshold }),
        Box::new(Dvfs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_power::static_power_mw;
    use netsmith_route::allocate_vcs;
    use netsmith_sim::{NetworkSim, SimConfig};
    use netsmith_topo::expert;
    use netsmith_topo::metrics::unreachable_pairs;
    use netsmith_topo::traffic::TrafficPattern;
    use netsmith_topo::Layout;

    fn measured(topo: &Topology, load: f64) -> (RoutingTable, VcAllocation, SimConfig, SimReport) {
        let paths = all_shortest_paths(topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let vcs = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        let sim = SimConfig::quick();
        let report = NetworkSim::builder(topo, &table)
            .vcs(&vcs)
            .pattern(TrafficPattern::UniformRandom)
            .config(sim.clone())
            .build()
            .run(load);
        (table, vcs, sim, report)
    }

    #[test]
    fn always_on_matches_the_measured_power_model() {
        let topo = expert::mesh(&Layout::noi_4x5());
        let (table, vcs, sim, report) = measured(&topo, 0.1);
        let config = EnergyConfig::default();
        let ctx = EnergyContext {
            topology: &topo,
            routing: &table,
            vcs: &vcs,
            sim: &sim,
            report: &report,
            config: &config,
        };
        let energy = AlwaysOn.evaluate(&ctx);
        let power = power_report_from_activity(&topo, &config.power, &sim, &report.activity);
        assert!((energy.static_mw - power.static_mw).abs() < 1e-9);
        assert!((energy.dynamic_mw - power.dynamic_mw).abs() < 1e-9);
        assert!(energy.energy_per_flit_pj > 0.0);
        assert!(energy.routable);
    }

    #[test]
    fn link_sleep_saves_static_power_at_low_load() {
        let topo = expert::folded_torus(&Layout::noi_4x5());
        let (table, vcs, sim, report) = measured(&topo, 0.02);
        let config = EnergyConfig::default();
        let ctx = EnergyContext {
            topology: &topo,
            routing: &table,
            vcs: &vcs,
            sim: &sim,
            report: &report,
            config: &config,
        };
        let always = AlwaysOn.evaluate(&ctx);
        let sleep = LinkSleep {
            idle_threshold: 0.15,
        }
        .evaluate(&ctx);
        assert!(sleep.gated_links > 0, "no links gated at 2% load");
        assert!(sleep.routable, "gated sub-topology must stay routable");
        assert!(
            sleep.total_mw() < always.total_mw(),
            "sleep {} vs always-on {}",
            sleep.total_mw(),
            always.total_mw()
        );
        assert!(sleep.gated_savings_mw > 0.0);
        assert!(sleep.gated_savings_mw <= static_power_mw(&topo, &config.power));
        // The wake penalty makes gated operation slower, never faster.
        assert!(sleep.avg_latency_cycles >= always.avg_latency_cycles);
    }

    #[test]
    fn gated_subtopology_is_connected_and_deadlock_free() {
        let topo = expert::kite_medium(&Layout::noi_4x5());
        let (table, vcs, sim, report) = measured(&topo, 0.05);
        let config = EnergyConfig::default();
        let ctx = EnergyContext {
            topology: &topo,
            routing: &table,
            vcs: &vcs,
            sim: &sim,
            report: &report,
            config: &config,
        };
        let gated = LinkSleep {
            idle_threshold: 0.2,
        }
        .gate(&ctx)
        .expect("original network routes, so gating must succeed");
        assert!(gated.verify());
        assert_eq!(unreachable_pairs(&gated.topology), 0);
        // Gated links really are gone from the sub-topology.
        for &(i, j) in &gated.gated_pairs {
            assert!(!gated.topology.has_link(i, j));
            assert!(!gated.topology.has_link(j, i));
        }
    }

    #[test]
    fn dvfs_downclocks_an_idle_network() {
        let topo = expert::mesh(&Layout::noi_4x5());
        let (table, vcs, sim, report) = measured(&topo, 0.02);
        let config = EnergyConfig::default();
        let ctx = EnergyContext {
            topology: &topo,
            routing: &table,
            vcs: &vcs,
            sim: &sim,
            report: &report,
            config: &config,
        };
        let always = AlwaysOn.evaluate(&ctx);
        let dvfs = Dvfs.evaluate(&ctx);
        // At 2% load the slowest level applies: both power components drop,
        // wall-clock latency stretches.
        assert!(dvfs.total_mw() < always.total_mw());
        assert!(dvfs.avg_latency_ns > always.avg_latency_ns);
        let level = Dvfs.select_level(report.activity.avg_link_utilization());
        assert!((level.freq_scale - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dvfs_keeps_the_nominal_clock_near_saturation() {
        let level = Dvfs.select_level(0.7);
        assert!((level.freq_scale - 1.0).abs() < 1e-9);
        // Nothing feasible: fall back to the nominal level.
        let level = Dvfs.select_level(0.95);
        assert!((level.freq_scale - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standard_policy_set_has_three_members() {
        let policies = standard_policies(0.1);
        assert_eq!(policies.len(), 3);
        let names: Vec<String> = policies.iter().map(|p| p.name()).collect();
        assert!(names.iter().any(|n| n.contains("always_on")));
        assert!(names.iter().any(|n| n.contains("link_sleep")));
        assert!(names.iter().any(|n| n.contains("dvfs")));
    }
}
