//! A DVFS horizon reports latency in cycles at the nominal clock.
//!
//! A router's pipeline and a link's serialization take the same number of
//! cycles whatever the clock, so an epoch clocked at half speed takes at
//! least as many of its own cycles per packet as a nominal epoch, and
//! each of those cycles lasts two nominal ones.  Read at the nominal
//! clock, a horizon that runs almost every epoch at half speed must show
//! about twice the always-on latency.

use netsmith_obs::Obs;
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
use netsmith_serve::{serve, LoadSpec, PolicyKind, ServingConfig, ServingInputs, TapeSpec};
use netsmith_sim::SimConfig;
use netsmith_topo::{expert, Layout};

#[test]
fn a_half_speed_dvfs_horizon_reads_latency_at_the_nominal_clock() {
    let topo = expert::folded_torus(&Layout::noi_4x5());
    let table = mclb_route(&all_shortest_paths(&topo), &MclbConfig::default());
    let vcs = allocate_vcs(&table, 6, 11).unwrap();
    let run = |policy| {
        let config = ServingConfig {
            epochs: 12,
            // No diurnal swing and no bursts: every epoch offers the same
            // load, light enough for DVFS to pick half speed.
            load: LoadSpec {
                period_epochs: 0,
                burst_rate: 0.0,
            },
            tape: TapeSpec {
                expected_faults: 0.0,
                seed: 1,
            },
            policy,
            sim: SimConfig {
                warmup_cycles: 80,
                measure_cycles: 300,
                drain_cycles: 150,
                ..SimConfig::default()
            },
            ..ServingConfig::default()
        };
        serve(
            &ServingInputs::new(&topo, &table, &vcs),
            &config,
            &Obs::noop(),
        )
    };
    let always_on = run(PolicyKind::AlwaysOn);
    let dvfs = run(PolicyKind::Dvfs);
    // Epoch 0 has no measurement to decide from and runs at nominal.
    assert_eq!(dvfs.records[0].freq_scale, 1.0);
    assert!(
        dvfs.records[1..].iter().all(|r| r.freq_scale == 0.5),
        "every later epoch must run at half speed"
    );
    for (name, a, d) in [
        (
            "mean",
            always_on.mean_latency_cycles,
            dvfs.mean_latency_cycles,
        ),
        ("p95", always_on.p95_latency_cycles, dvfs.p95_latency_cycles),
        ("p99", always_on.p99_latency_cycles, dvfs.p99_latency_cycles),
    ] {
        assert!(
            d > 1.8 * a,
            "{name}: dvfs {d} vs always-on {a} nominal-clock cycles"
        );
    }
    for (a, d) in always_on.records[1..].iter().zip(&dvfs.records[1..]) {
        assert!(
            d.mean_latency_cycles > 1.8 * a.mean_latency_cycles,
            "epoch {}: dvfs mean {} vs always-on {}",
            d.epoch,
            d.mean_latency_cycles,
            a.mean_latency_cycles
        );
    }
}
