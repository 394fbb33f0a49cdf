//! Determinism and replay properties of the serving loop: a horizon is
//! exactly replayable from its seed + fault tape (full `ServingReport`
//! equality, per-epoch records and merged latency histogram included,
//! plus obs counter equality), and its SLA accounting is internally
//! consistent.

use netsmith_obs::{MemoryRecorder, Obs};
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, MclbConfig, RoutingTable, VcAllocation};
use netsmith_serve::{serve, LoadSpec, PolicyKind, ServingConfig, ServingInputs, TapeSpec};
use netsmith_sim::SimConfig;
use netsmith_topo::{expert, Layout, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn network(choice: u8) -> (Topology, RoutingTable, VcAllocation) {
    let layout = Layout::noi_4x5();
    let topo = match choice % 3 {
        0 => expert::folded_torus(&layout),
        1 => expert::kite_medium(&layout),
        _ => expert::butter_donut(&layout),
    };
    let table = mclb_route(&all_shortest_paths(&topo), &MclbConfig::default());
    let vcs = allocate_vcs(&table, 6, 11).unwrap();
    (topo, table, vcs)
}

fn policy(choice: u8) -> PolicyKind {
    match choice % 3 {
        0 => PolicyKind::AlwaysOn,
        1 => PolicyKind::LinkSleep {
            idle_threshold: 0.12,
        },
        _ => PolicyKind::Dvfs,
    }
}

fn config(seed: u64, policy_choice: u8, faults: f64) -> ServingConfig {
    ServingConfig {
        epochs: 24,
        load: LoadSpec {
            period_epochs: 12,
            ..LoadSpec::default()
        },
        tape: TapeSpec {
            expected_faults: faults,
            seed: seed ^ 0xFA17,
        },
        policy: policy(policy_choice),
        sim: SimConfig {
            warmup_cycles: 80,
            measure_cycles: 300,
            drain_cycles: 150,
            ..SimConfig::default()
        },
        seed,
        ..ServingConfig::default()
    }
}

fn counters(recorder: &MemoryRecorder) -> BTreeMap<String, u64> {
    recorder.snapshot().counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A full serving horizon is exactly replayable: every run of the
    /// same seed + fault tape gives the same `ServingReport` (per-epoch
    /// records and merged latency histogram included) and the same obs
    /// counters.
    #[test]
    fn horizon_is_bit_identical_across_workers_and_replays(
        topo_choice in 0u8..3,
        policy_choice in 0u8..3,
        seed in 0u64..50_000,
        faults in 0f64..3.0,
    ) {
        let (topo, table, vcs) = network(topo_choice);
        let cfg = config(seed, policy_choice, faults);
        let baseline_recorder = MemoryRecorder::new();
        let expected = serve(
            &ServingInputs::new(&topo, &table, &vcs),
            &cfg,
            &Obs::to(baseline_recorder.clone()),
        );
        // Replay: same seed + tape, fresh recorder — everything equal.
        let replay_recorder = MemoryRecorder::new();
        let replay = serve(
            &ServingInputs::new(&topo, &table, &vcs),
            &cfg,
            &Obs::to(replay_recorder.clone()),
        );
        prop_assert_eq!(&replay, &expected);
        prop_assert_eq!(counters(&replay_recorder), counters(&baseline_recorder));
    }

    /// SLA accounting is internally consistent: availability in [0, 1],
    /// epoch records sum to the horizon totals, the merged histogram
    /// counts every delivered packet, and downtime epochs deliver
    /// nothing.
    #[test]
    fn report_accounting_is_consistent(
        topo_choice in 0u8..3,
        policy_choice in 0u8..3,
        seed in 0u64..50_000,
        faults in 0f64..4.0,
    ) {
        let (topo, table, vcs) = network(topo_choice);
        let cfg = config(seed, policy_choice, faults);
        let report = serve(&ServingInputs::new(&topo, &table, &vcs), &cfg, &Obs::noop());
        prop_assert_eq!(report.records.len() as u64, cfg.epochs);
        prop_assert!(report.availability >= 0.0 && report.availability <= 1.0 + 1e-12);
        prop_assert_eq!(report.faults_injected, cfg.tape.expected_faults.round() as u64);
        prop_assert_eq!(
            report.records.iter().map(|r| r.delivered_flits).sum::<u64>(),
            report.delivered_flits
        );
        let energy_sum: f64 = report.records.iter().map(|r| r.energy_pj).sum();
        prop_assert!((energy_sum - report.energy_pj).abs() < 1e-6 * report.energy_pj.max(1.0));
        prop_assert_eq!(
            report.records.iter().filter(|r| !r.routable).count() as u64,
            report.downtime_epochs
        );
        for r in report.records.iter().filter(|r| !r.routable) {
            prop_assert_eq!(r.delivered_flits, 0);
            prop_assert_eq!(r.energy_pj, 0.0);
        }
        if report.delivered_flits > 0 {
            prop_assert!(report.energy_per_flit_pj > 0.0);
            prop_assert!(report.p99_latency_cycles >= report.p95_latency_cycles);
            prop_assert!(report.latency.count() > 0);
        }
    }
}

/// The headline serving property on a healthy fabric: the closed-loop
/// link-sleep policy spends less energy per delivered flit than
/// always-on across a diurnal horizon — and pays for it with no
/// availability loss.
#[test]
fn link_sleep_saves_energy_without_losing_availability() {
    let (topo, table, vcs) = network(0);
    let base = config(0xD1A2_2026, 0, 0.0);
    let mut results = Vec::new();
    for policy in PolicyKind::standard(0.12) {
        let cfg = ServingConfig {
            policy,
            ..base.clone()
        };
        results.push(serve(
            &ServingInputs::new(&topo, &table, &vcs),
            &cfg,
            &Obs::noop(),
        ));
    }
    let always_on = &results[0];
    let link_sleep = &results[1];
    assert!(link_sleep.gated_pair_epochs > 0, "nothing was ever gated");
    assert!(
        link_sleep.low_load_energy_per_flit_pj < always_on.low_load_energy_per_flit_pj,
        "link_sleep {} >= always_on {} pJ/flit at low load",
        link_sleep.low_load_energy_per_flit_pj,
        always_on.low_load_energy_per_flit_pj,
    );
    assert!(link_sleep.availability >= always_on.availability - 0.01);
}
