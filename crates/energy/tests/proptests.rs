//! Property tests for the energy subsystem: dynamic energy monotone in
//! injected load, gated savings bounded by the static budget, gating
//! never breaking deadlock freedom, and a gate that reuses its last
//! routed candidate deciding exactly as a fresh one.

use netsmith_energy::{AlwaysOn, EnergyConfig, EnergyContext, EnergyPolicy, GateMemo, LinkSleep};
use netsmith_power::static_power_mw;
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::vc::verify_deadlock_free;
use netsmith_route::{allocate_vcs, mclb_route, MclbConfig, RoutingTable, VcAllocation};
use netsmith_sim::{splitmix64, NetworkSim, SimConfig, SimReport};
use netsmith_topo::metrics::unreachable_pairs;
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{expert, Layout, RouterId, Topology};
use proptest::prelude::*;

fn quick_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 200,
        measure_cycles: 800,
        drain_cycles: 600,
        seed,
        ..SimConfig::default()
    }
}

fn prepared(topo: &Topology) -> (RoutingTable, VcAllocation) {
    let paths = all_shortest_paths(topo);
    let table = mclb_route(&paths, &MclbConfig::default());
    let vcs = allocate_vcs(&table, 6, 7).expect("fits in 6 VCs");
    (table, vcs)
}

fn run(
    topo: &Topology,
    table: &RoutingTable,
    vcs: &VcAllocation,
    seed: u64,
    load: f64,
) -> SimReport {
    NetworkSim::builder(topo, table)
        .vcs(vcs)
        .pattern(TrafficPattern::UniformRandom)
        .config(quick_config(seed))
        .build()
        .run(load)
}

/// A fabric the gate re-decides on, with one measured report to rewrite.
struct Fabric {
    topology: Topology,
    routing: RoutingTable,
    vcs: VcAllocation,
    report: SimReport,
}

/// The 4x5 folded torus healthy, and with two full-duplex links failed;
/// plus the failed pairs.
fn fabrics() -> ([Fabric; 2], [(RouterId, RouterId); 2]) {
    let healthy = expert::folded_torus(&Layout::noi_4x5());
    let mut degraded = healthy.clone().with_name("folded-torus-degraded");
    let pairs: Vec<_> = healthy.links().filter(|&(i, j)| i < j).collect();
    let failed = [pairs[0], pairs[pairs.len() / 2]];
    for (i, j) in failed {
        degraded.remove_link(i, j);
        degraded.remove_link(j, i);
    }
    assert_eq!(unreachable_pairs(&degraded), 0);
    let fabrics = [healthy, degraded].map(|topology| {
        let (routing, vcs) = prepared(&topology);
        let report = run(&topology, &routing, &vcs, 3, 0.05);
        Fabric {
            topology,
            routing,
            vcs,
            report,
        }
    });
    (fabrics, failed)
}

/// Rewrite the report's link activity into a profile: every directed
/// link gets a utilization in [0, `ceiling`) drawn from `profile` and the
/// link, so a link reads the same on both fabrics.  The `failed` pairs
/// ran busy before they failed, so the healthy fabric never gates them
/// and both fabrics start from the same gating candidates.
fn with_profile(
    report: &SimReport,
    (profile, ceiling): (u64, f64),
    failed: &[(RouterId, RouterId)],
) -> SimReport {
    let mut report = report.clone();
    let cycles = report.activity.measured_cycles;
    for link in &mut report.activity.links {
        let pair = (link.from.min(link.to), link.from.max(link.to));
        let draw = splitmix64(profile ^ ((link.from as u64) << 32 | link.to as u64));
        let utilization = if failed.contains(&pair) {
            0.5
        } else {
            (draw % 1000) as f64 / 1000.0 * ceiling
        };
        link.busy_cycles = (utilization * cycles as f64) as u64;
        link.flits = link.busy_cycles;
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// More offered (and, below saturation, delivered) load means more flit
    /// traversals, so dynamic energy must grow with injected load.
    #[test]
    fn dynamic_energy_is_monotone_in_injected_load(seed in 0u64..5_000, load in 0.02f64..0.12) {
        let layout = Layout::noi_4x5();
        let topo = expert::folded_torus(&layout);
        let (table, vcs) = prepared(&topo);
        let sim = quick_config(seed);
        let config = EnergyConfig::default();
        let low = run(&topo, &table, &vcs, seed, load);
        let high = run(&topo, &table, &vcs, seed, 2.0 * load);
        let energy_of = |report: &SimReport| {
            AlwaysOn.evaluate(&EnergyContext {
                topology: &topo,
                routing: &table,
                vcs: &vcs,
                sim: &sim,
                report,
                config: &config,
            })
        };
        let low_energy = energy_of(&low);
        let high_energy = energy_of(&high);
        prop_assert!(
            high_energy.dynamic_mw > low_energy.dynamic_mw,
            "dynamic power {} at load {} vs {} at load {}",
            high_energy.dynamic_mw, 2.0 * load, low_energy.dynamic_mw, load
        );
        // Static power is activity-independent.
        prop_assert!((high_energy.static_mw - low_energy.static_mw).abs() < 1e-9);
    }

    /// LinkSleep savings are non-negative and can never exceed the total
    /// static (leakage) budget of the topology, and the gated sub-topology
    /// always stays strongly connected and deadlock-free.
    #[test]
    fn link_sleep_savings_are_bounded_and_gating_is_safe(
        seed in 0u64..5_000,
        load in 0.02f64..0.2,
        threshold in 0.0f64..0.5,
    ) {
        let layout = Layout::noi_4x5();
        let topo = expert::kite_medium(&layout);
        let (table, vcs) = prepared(&topo);
        let sim = quick_config(seed);
        let config = EnergyConfig::default();
        let report = run(&topo, &table, &vcs, seed, load);
        let ctx = EnergyContext {
            topology: &topo,
            routing: &table,
            vcs: &vcs,
            sim: &sim,
            report: &report,
            config: &config,
        };
        let policy = LinkSleep { idle_threshold: threshold };
        let energy = policy.evaluate(&ctx);
        prop_assert!(energy.gated_savings_mw >= 0.0);
        prop_assert!(energy.gated_savings_mw <= static_power_mw(&topo, &config.power) + 1e-9);
        prop_assert!(energy.routable, "gated configuration must remain routable");
        prop_assert!(energy.static_mw >= 0.0);

        let gated = policy.gate(&ctx).expect("original network routes");
        prop_assert_eq!(unreachable_pairs(&gated.topology), 0);
        prop_assert!(gated.routing.is_complete());
        prop_assert!(
            verify_deadlock_free(&gated.routing, &gated.vcs),
            "gating broke deadlock freedom with threshold {}", threshold
        );
        prop_assert_eq!(energy.gated_links, gated.gated_pairs.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `gate_with` carrying one `GateMemo` across a sequence of decisions
    /// returns what a fresh `gate` returns at every step: topology,
    /// routing, VCs and gated pairs, or the same error.  The sequence is
    /// a random walk that repeats a decision or changes one of its
    /// inputs: healthy or fault-degraded fabric, one of three activity
    /// profiles, one of two reroute seeds, VC budget 1–6.  So consecutive
    /// attempts route the same candidate again, or a candidate that
    /// differs only in its fabric, seed or budget, and the walk-back and
    /// error paths run.
    #[test]
    fn gate_with_a_carried_memo_matches_a_fresh_gate(
        profiles in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        walk in proptest::collection::vec((0usize..6, 0usize..6), 8..16),
    ) {
        let (fabrics, failed) = fabrics();
        // Profile 0 is crowded: gating hits the gated-fraction cap, which
        // the failed links lower on the degraded fabric, and tight budgets
        // walk back.  Profiles 1 and 2 are sparse: the cap does not bind,
        // so both fabrics gate the same pairs.
        let profiles = [(profiles.0, 0.2), (profiles.1, 0.3), (profiles.2, 0.3)];
        let sim = quick_config(3);
        let policy = LinkSleep { idle_threshold: 0.12 };
        let mut memo = GateMemo::default();
        let mut attempts = 0;
        let (mut fabric, mut profile, mut seed, mut vc_budget) = (0, 0, 0, 6);
        for &(input, draw) in &walk {
            match input {
                0 | 1 => fabric = 1 - fabric,
                2 => profile = draw % 3,
                3 => seed = draw % 2,
                4 => vc_budget = 1 + draw,
                _ => {}
            }
            let fab = &fabrics[fabric];
            let report = with_profile(&fab.report, profiles[profile], &failed);
            let config = EnergyConfig {
                vc_budget,
                reroute_seed: [0xECCE, 7][seed],
                ..EnergyConfig::default()
            };
            let ctx = EnergyContext {
                topology: &fab.topology,
                routing: &fab.routing,
                vcs: &fab.vcs,
                sim: &sim,
                report: &report,
                config: &config,
            };
            let mut fresh = GateMemo::default();
            let expected = policy.gate_with(&ctx, &mut fresh);
            prop_assert_eq!(fresh.reuses(), 0);
            prop_assert_eq!(policy.gate(&ctx), expected.clone());
            prop_assert_eq!(policy.gate_with(&ctx, &mut memo), expected);
            attempts += fresh.routes();
        }
        prop_assert_eq!(memo.routes() + memo.reuses(), attempts);
    }
}

/// A repeated decision that routes first time reuses the slot: no
/// second run of paths, MCLB and VC allocation.  Clearing the slot
/// routes again.
#[test]
fn a_repeated_gate_decision_reuses_the_last_route() {
    let ([healthy, _], failed) = fabrics();
    let report = with_profile(&healthy.report, (11, 0.3), &failed);
    let sim = quick_config(3);
    let config = EnergyConfig::default();
    let ctx = EnergyContext {
        topology: &healthy.topology,
        routing: &healthy.routing,
        vcs: &healthy.vcs,
        sim: &sim,
        report: &report,
        config: &config,
    };
    let policy = LinkSleep {
        idle_threshold: 0.12,
    };
    let mut memo = GateMemo::default();
    let first = policy.gate_with(&ctx, &mut memo).expect("the torus gates");
    assert!(!first.gated_pairs.is_empty());
    assert_eq!((memo.routes(), memo.reuses()), (1, 0));
    assert_eq!(policy.gate_with(&ctx, &mut memo), Ok(first.clone()));
    assert_eq!((memo.routes(), memo.reuses()), (1, 1));
    memo.clear();
    assert_eq!(policy.gate_with(&ctx, &mut memo), Ok(first));
    assert_eq!((memo.routes(), memo.reuses()), (2, 1));
}
