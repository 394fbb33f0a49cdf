//! Equivalence proptests: the compiled flat-state engine
//! (`NetworkSim::run`) must produce bit-identical `SimReport`s —
//! including the full `ActivityProfile` — to the pre-rework scan-based
//! loop (`NetworkSim::run_reference`) across random topologies, traffic
//! patterns, loads and failed-router masks.  `SimReport`'s derived
//! `PartialEq` compares every counter and every float exactly, so any
//! divergence in event order, tie-breaking or arithmetic shows up here.

use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, ndbt_route, MclbConfig};
use netsmith_sim::{NetworkSim, SimConfig, Trace};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{expert, Layout, Topology};
use netsmith_trace::TraceModel;
use proptest::prelude::*;
use std::sync::Arc;

fn equivalence_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 150,
        measure_cycles: 700,
        drain_cycles: 400,
        seed,
        ..SimConfig::default()
    }
}

/// One of the expert topologies, optionally densified with extra links so
/// the sweep isn't limited to the hand-designed link sets.
fn topology(choice: u8, extra_links: &[(usize, usize)]) -> Topology {
    let layout = Layout::noi_4x5();
    let mut topo = match choice % 5 {
        0 => expert::mesh(&layout),
        1 => expert::folded_torus(&layout),
        2 => expert::kite_medium(&layout),
        3 => expert::lpbt_power(&layout),
        _ => expert::butter_donut(&layout),
    };
    for &(i, j) in extra_links {
        if i != j {
            topo.add_link(i % 20, j % 20);
        }
    }
    topo
}

fn pattern(choice: u8) -> TrafficPattern {
    match choice % 5 {
        0 => TrafficPattern::UniformRandom,
        1 => TrafficPattern::Shuffle,
        2 => TrafficPattern::Transpose,
        3 => TrafficPattern::BitComplement,
        _ => TrafficPattern::Tornado,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// Healthy networks: random topology × pattern × load.
    #[test]
    fn compiled_run_is_bit_identical_to_reference(
        topo_choice in 0u8..5,
        extra in proptest::collection::vec((0usize..20, 0usize..20), 0..4),
        pattern_choice in 0u8..5,
        seed in 0u64..100_000,
        load in 0.02f64..1.0,
    ) {
        let topo = topology(topo_choice, &extra);
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 11).unwrap();
        let sim = NetworkSim::builder(&topo, &table)
            .vcs(&alloc)
            .pattern(pattern(pattern_choice))
            .config(equivalence_config(seed))
            .build();
        prop_assert_eq!(sim.run(load), sim.run_reference(load));
    }

    /// Degraded networks: up to two failed routers mask traffic at the
    /// sources while their links keep forwarding.
    #[test]
    fn compiled_run_matches_reference_with_failed_routers(
        topo_choice in 0u8..5,
        seed in 0u64..100_000,
        load in 0.05f64..0.6,
        failures in proptest::collection::vec(0usize..20, 0..3),
    ) {
        let topo = topology(topo_choice, &[]);
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 11).unwrap();
        let sim = NetworkSim::builder(&topo, &table)
            .vcs(&alloc)
            .config(equivalence_config(seed))
            .failed_routers(&failures)
            .build();
        prop_assert_eq!(sim.run(load), sim.run_reference(load));
    }

    /// Without a VC allocation every packet uses VC 0; the compiled
    /// vc_of_flow table must reproduce that too.
    #[test]
    fn compiled_run_matches_reference_without_vc_allocation(
        seed in 0u64..100_000,
        load in 0.02f64..0.4,
    ) {
        let topo = expert::folded_torus(&Layout::noi_4x5());
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let sim = NetworkSim::builder(&topo, &table)
            .config(equivalence_config(seed))
            .build();
        prop_assert_eq!(sim.run(load), sim.run_reference(load));
    }

    /// Trace replay: both engines drain the same deterministic cursor (no
    /// RNG at all), across generated traces × topologies × replay rates ×
    /// failure masks.
    #[test]
    fn compiled_run_matches_reference_under_trace_injection(
        topo_choice in 0u8..5,
        model_choice in 0usize..2,
        trace_seed in 0u64..100_000,
        seed in 0u64..100_000,
        load in 0.02f64..0.8,
        failures in proptest::collection::vec(0usize..20, 0..3),
    ) {
        let topo = topology(topo_choice, &[]);
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 11).unwrap();
        let model = TraceModel::by_name(TraceModel::names()[model_choice]).unwrap();
        let trace = Arc::new(model.generate(20, 512, trace_seed));
        let sim = NetworkSim::builder(&topo, &table)
            .vcs(&alloc)
            .trace(trace)
            .config(equivalence_config(seed))
            .failed_routers(&failures)
            .build();
        prop_assert_eq!(sim.run(load), sim.run_reference(load));
    }

    /// Batched injection schedules vs the reference engine: both consume
    /// the same precomputed per-source schedule (the compiled engine by
    /// jumping idle stretches, the reference by polling it every cycle),
    /// so the reports must stay bit-identical across topologies ×
    /// patterns × loads × packet-class mixes from all-control to
    /// all-data (the schedule draws each arrival's class from its
    /// source's stream).
    #[test]
    fn schedule_mode_engines_consume_one_schedule_bit_identically(
        topo_choice in 0u8..5,
        extra in proptest::collection::vec((0usize..20, 0usize..20), 0..4),
        pattern_choice in 0u8..5,
        seed in 0u64..100_000,
        load in 0.02f64..1.0,
        quarters in 0u8..=4,
    ) {
        let topo = topology(topo_choice, &extra);
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 11).unwrap();
        let sim = NetworkSim::builder(&topo, &table)
            .vcs(&alloc)
            .pattern(pattern(pattern_choice))
            .config(SimConfig {
                data_fraction: quarters as f64 / 4.0,
                ..equivalence_config(seed)
            })
            .build();
        prop_assert_eq!(sim.run(load), sim.run_reference(load));
    }

    /// Credit-bound runs: VC buffers of 9 to 12 flits hold one data packet
    /// at a time, so data packets often wait for credit, on 2 to 8 VCs
    /// (every flow on VC 0 when the routing needs more escape layers),
    /// over random topologies, some with a failed router, with the epoch
    /// probe on.  Replay cases add one message longer than the wake ring's
    /// 1024-bucket cap: it serializes past the ring on a one-hop flow and
    /// blocks its source for good on a longer one.
    #[test]
    fn credit_bound_runs_match_the_reference(
        topo_choice in 0u8..5,
        extra in proptest::collection::vec((0usize..20, 0usize..20), 0..4),
        pattern_choice in 0u8..5,
        num_vcs in 2usize..=8,
        vc_buffer_flits in 9usize..=12,
        failed in proptest::collection::vec(0usize..20, 0..2),
        replay in 0u8..2,
        (trace_seed, src, dst) in (0u64..100_000, 0usize..20, 0usize..20),
        seed in 0u64..100_000,
        load in 0.05f64..1.0,
    ) {
        let topo = topology(topo_choice, &extra);
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let alloc = allocate_vcs(&table, num_vcs, 11).ok();
        let mut builder = NetworkSim::builder(&topo, &table)
            .pattern(pattern(pattern_choice))
            .config(SimConfig {
                num_vcs,
                vc_buffer_flits,
                epoch_cycles: 150,
                ..equivalence_config(seed)
            })
            .failed_routers(&failed);
        if let Some(alloc) = &alloc {
            builder = builder.vcs(alloc);
        }
        if replay == 1 {
            let mut trace = TraceModel::by_name("onoff-hotspot")
                .unwrap()
                .generate(20, 512, trace_seed);
            trace.messages.push(netsmith_trace::TraceMessage {
                src: src as u32,
                dst: if dst == src { (dst as u32 + 1) % 20 } else { dst as u32 },
                flits: 1_500,
                issue: 40,
            });
            trace.messages.sort_by_key(|m| m.issue);
            let trace = Trace::new(20, 512, trace.messages);
            trace.validate().unwrap();
            builder = builder.trace(Arc::new(trace));
        }
        let sim = builder.build();
        let mut report = sim.run(load);
        prop_assert!(report.epochs.take().is_some());
        prop_assert_eq!(report, sim.run_reference(load));
    }
}

/// The measurement window here is ~5x the trace horizon at the native
/// rate, so the cursor must wrap through multiple replay waves — and the
/// wrapped schedule still has to agree between the engines and deliver
/// traffic in every wave.
#[test]
fn trace_replay_wraps_past_the_horizon() {
    let topo = expert::folded_torus(&Layout::noi_4x5());
    let paths = all_shortest_paths(&topo);
    let table = mclb_route(&paths, &MclbConfig::default());
    let alloc = allocate_vcs(&table, 6, 11).unwrap();
    let trace = TraceModel::by_name("onoff-hotspot")
        .unwrap()
        .generate(20, 160, 3);
    let native = trace.offered_flits_per_node_cycle();
    let trace = Arc::new(trace);
    let sim = NetworkSim::builder(&topo, &table)
        .vcs(&alloc)
        .trace(Arc::clone(&trace))
        .config(equivalence_config(17))
        .build();
    let report = sim.run(native);
    assert_eq!(report, sim.run_reference(native));
    // 150 warmup + 700 measure cycles over a 160-cycle horizon: if the
    // cursor stopped at the first wave, the window would see almost no
    // traffic.  With wrap-around the injected rate tracks the native rate.
    assert!(
        report.injected_flits_per_node_cycle > 0.7 * native,
        "injected {} vs native {native}",
        report.injected_flits_per_node_cycle
    );
    assert!(report.packets_ejected > 0);
}

/// A hand-built single-message trace: replay must deliver exactly that
/// message's flits, with the issue cycle scaled by the requested load.
#[test]
fn single_message_trace_is_replayed_exactly() {
    let topo = expert::mesh(&Layout::noi_4x5());
    let paths = all_shortest_paths(&topo);
    let table = mclb_route(&paths, &MclbConfig::default());
    let alloc = allocate_vcs(&table, 6, 11).unwrap();
    let trace = Arc::new(Trace::new(
        20,
        1,
        vec![netsmith_trace::TraceMessage {
            src: 0,
            dst: 19,
            flits: 4,
            issue: 0,
        }],
    ));
    // Offered 0.01 flits/node/cycle => native (4/20) / 0.01 = 20-cycle
    // period: one 4-flit packet every 20 cycles, deterministically.
    let config = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 200,
        drain_cycles: 400,
        seed: 1,
        ..SimConfig::default()
    };
    let sim = NetworkSim::builder(&topo, &table)
        .vcs(&alloc)
        .trace(trace)
        .config(config)
        .build();
    let report = sim.run(0.01);
    assert_eq!(report, sim.run_reference(0.01));
    assert_eq!(report.packets_injected, 10, "200 cycles / 20-cycle period");
    assert_eq!(report.packets_ejected, 10);
    assert!((report.injected_flits_per_node_cycle - 0.01).abs() < 1e-9);
    assert_eq!(report.packets_unfinished, 0);
}

/// Deep source backlogs: loads at and far past saturation on 48- and
/// 70-router networks, where every source queue grows for the whole
/// measurement window and most arrivals wait behind a head that cannot
/// leave.  The epoch probe is on, Transpose traffic masks self-addressed
/// arrivals, one router is failed, and traces replay at loads of 1.0 and
/// above.  Load 5.0 clamps the per-cycle injection probability to 1.  The
/// 70-router mesh has more than 64 sources, so its injection calendar
/// spans two bitmap words per bucket.
#[test]
fn deep_source_backlogs_match_the_reference() {
    let config = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 500,
        drain_cycles: 200,
        seed: 29,
        epoch_cycles: 120,
        ..SimConfig::default()
    };
    let torus_layout = Layout::noi_8x6();
    let networks = [
        expert::folded_torus(&torus_layout),
        expert::kite_medium(&torus_layout),
        expert::mesh(&Layout::interposer_grid(10, 7, 4)),
    ];
    for topo in &networks {
        let n = topo.num_routers();
        let paths = all_shortest_paths(topo);
        let table = ndbt_route(topo.layout(), &paths, 5).0;
        let alloc = allocate_vcs(&table, 6, 5).unwrap();
        let failed = [n / 3];
        let trace = Arc::new(
            TraceModel::by_name("onoff-hotspot")
                .unwrap()
                .generate(n as u32, 256, 13),
        );
        let synthetic = NetworkSim::builder(topo, &table)
            .vcs(&alloc)
            .pattern(TrafficPattern::Transpose)
            .config(config.clone())
            .failed_routers(&failed)
            .build();
        let replay = NetworkSim::builder(topo, &table)
            .vcs(&alloc)
            .trace(trace)
            .config(config.clone())
            .failed_routers(&failed)
            .build();
        for load in [0.9, 1.2, 5.0] {
            let mut report = synthetic.run(load);
            assert!(
                report.packets_unfinished > 0,
                "{n} routers, load {load}: no backlog"
            );
            // The reference engine has no epoch probe: the series must
            // partition the window totals, and the rest of the report
            // must match exactly.
            let series = report.epochs.take().expect("probe enabled");
            let injected: u64 = series.samples.iter().map(|s| s.injected_flits).sum();
            let ejected: u64 = series.samples.iter().map(|s| s.packets_ejected).sum();
            let window = (n as u64 * config.measure_cycles) as f64;
            assert_eq!(
                injected as f64 / window,
                report.injected_flits_per_node_cycle
            );
            assert_eq!(ejected, report.packets_ejected);
            assert_eq!(
                report,
                synthetic.run_reference(load),
                "{n} routers, load {load}"
            );
            if load >= 1.0 {
                let mut report = replay.run(load);
                assert!(
                    report.packets_unfinished > 0,
                    "{n} routers, trace at {load}: no backlog"
                );
                assert!(report.epochs.take().is_some());
                assert_eq!(
                    report,
                    replay.run_reference(load),
                    "{n} routers, trace at load {load}"
                );
            }
        }
    }
}
