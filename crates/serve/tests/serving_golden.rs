//! Golden pins of whole serving horizons: fixed-seed runs whose full
//! `ServingReport` is folded into a 64-bit digest and compared against a
//! recorded constant.
//!
//! Four horizons on the 4x5 folded torus (MCLB routing, 6 VCs) under a
//! two-fault tape: always-on, link-sleep, DVFS, and link-sleep with a
//! tight gate VC budget so that gate decisions walk back.
//! Every epoch record, the merged latency histogram and every horizon
//! total enter the digest through `f64::to_bits`, so a change to the
//! serving loop or the gate that moves any reported value by one ulp
//! fails here.  The gate counters are checked separately: route attempts
//! (routed or reused) are a property of the gate decisions and are
//! pinned; how many of them are reused is not.

use netsmith_obs::{MemoryRecorder, Obs};
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
use netsmith_serve::{
    serve, EpochRecord, LoadSpec, PolicyKind, ServingConfig, ServingInputs, ServingReport, TapeSpec,
};
use netsmith_sim::SimConfig;
use netsmith_topo::{expert, Layout};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn flag(&mut self, b: bool) {
        self.word(b as u64);
    }

    fn record(&mut self, r: &EpochRecord) {
        let EpochRecord {
            epoch,
            offered,
            data_fraction,
            routable,
            delivered_fraction,
            delivered_flits,
            total_mw,
            energy_pj,
            avg_link_utilization,
            mean_latency_cycles,
            p95_latency_cycles,
            gated_pairs,
            freq_scale,
            fault_arrived,
        } = r;
        self.word(*epoch);
        self.float(*offered);
        self.float(*data_fraction);
        self.flag(*routable);
        self.float(*delivered_fraction);
        self.word(*delivered_flits);
        self.float(*total_mw);
        self.float(*energy_pj);
        self.float(*avg_link_utilization);
        self.float(*mean_latency_cycles);
        self.float(*p95_latency_cycles);
        self.word(*gated_pairs as u64);
        self.float(*freq_scale);
        self.flag(*fault_arrived);
    }

    /// Every field of the report except the gate counters.
    fn report(&mut self, r: &ServingReport) {
        let ServingReport {
            policy,
            epochs,
            faults_injected,
            repairs_ok,
            downtime_epochs,
            availability,
            delivered_flits,
            energy_pj,
            energy_per_flit_pj,
            low_load_epochs,
            low_load_energy_per_flit_pj,
            latency,
            p95_latency_cycles,
            p99_latency_cycles,
            mean_latency_cycles,
            gated_pair_epochs,
            gate_calls: _,
            gate_routes: _,
            gate_reuses: _,
            records,
        } = r;
        for byte in policy.bytes() {
            self.word(byte as u64);
        }
        self.word(*epochs);
        self.word(*faults_injected);
        self.word(*repairs_ok);
        self.word(*downtime_epochs);
        self.float(*availability);
        self.word(*delivered_flits);
        self.float(*energy_pj);
        self.float(*energy_per_flit_pj);
        self.word(*low_load_epochs);
        self.float(*low_load_energy_per_flit_pj);
        self.word(latency.count());
        self.float(latency.mean());
        self.float(latency.max());
        // The histogram itself is private; its `Debug` form lists every
        // bin count, which pins the full distribution.
        for byte in format!("{latency:?}").bytes() {
            self.word(byte as u64);
        }
        self.float(*p95_latency_cycles);
        self.float(*p99_latency_cycles);
        self.float(*mean_latency_cycles);
        self.word(*gated_pair_epochs);
        self.word(records.len() as u64);
        for record in records {
            self.record(record);
        }
    }
}

/// Gate counters of one horizon: decisions, and route attempts (routed
/// plus reused).
#[derive(Debug, PartialEq)]
struct GateCounts {
    calls: u64,
    attempts: u64,
}

/// Play one 48-epoch horizon on the 4x5 folded torus with a two-fault
/// tape, check the obs counters against the report, and return the
/// report with its digest.
fn horizon(policy: PolicyKind, gate_vc_budget: usize) -> (ServingReport, u64) {
    let topo = expert::folded_torus(&Layout::noi_4x5());
    let table = mclb_route(&all_shortest_paths(&topo), &MclbConfig::default());
    let vcs = allocate_vcs(&table, 6, 11).unwrap();
    let mut config = ServingConfig {
        epochs: 48,
        load: LoadSpec {
            period_epochs: 24,
            ..LoadSpec::default()
        },
        tape: TapeSpec {
            expected_faults: 2.0,
            seed: 0x601D_FA17,
        },
        policy,
        sim: SimConfig {
            warmup_cycles: 80,
            measure_cycles: 300,
            drain_cycles: 150,
            ..SimConfig::default()
        },
        low_load_threshold: 0.12,
        seed: 0x601D_5E7E,
        ..ServingConfig::default()
    };
    config.energy.vc_budget = gate_vc_budget;
    let recorder = MemoryRecorder::new();
    let report = serve(
        &ServingInputs::new(&topo, &table, &vcs),
        &config,
        &Obs::to(recorder.clone()),
    );
    let counters = recorder.snapshot();
    assert_eq!(counters.counter("serve.gate_calls"), report.gate_calls);
    assert_eq!(counters.counter("serve.gate_routes"), report.gate_routes);
    assert_eq!(counters.counter("serve.gate_reuses"), report.gate_reuses);
    assert_eq!(report.faults_injected, 2);
    assert!(
        report.repairs_ok >= 1,
        "the tape must land a repaired fault"
    );
    let mut digest = Digest::new();
    digest.report(&report);
    (report, digest.0)
}

fn gate_counts(report: &ServingReport) -> GateCounts {
    GateCounts {
        calls: report.gate_calls,
        attempts: report.gate_routes + report.gate_reuses,
    }
}

fn assert_pinned(name: &str, got: u64, expected: u64) {
    assert_eq!(
        got, expected,
        "{name}: report digest {got:#018x} != pinned {expected:#018x}"
    );
}

const ALWAYS_ON_DIGEST: u64 = 0x016c_f4b2_69fa_0a8d;
const LINK_SLEEP_DIGEST: u64 = 0xf4c8_cdf0_003a_37bd;
const DVFS_DIGEST: u64 = 0x02fd_3453_d2b9_1c36;
const TIGHT_LINK_SLEEP_DIGEST: u64 = 0xbcb4_538f_bbe6_d983;

#[test]
fn always_on_horizon_is_pinned() {
    let (report, digest) = horizon(PolicyKind::AlwaysOn, 6);
    assert_pinned("always_on", digest, ALWAYS_ON_DIGEST);
    assert_eq!(
        gate_counts(&report),
        GateCounts {
            calls: 0,
            attempts: 0
        }
    );
}

#[test]
fn dvfs_horizon_is_pinned() {
    let (report, digest) = horizon(PolicyKind::Dvfs, 6);
    assert_pinned("dvfs", digest, DVFS_DIGEST);
    assert_eq!(
        gate_counts(&report),
        GateCounts {
            calls: 0,
            attempts: 0
        }
    );
}

#[test]
fn link_sleep_horizon_is_pinned() {
    let policy = PolicyKind::LinkSleep {
        idle_threshold: 0.12,
    };
    let (report, digest) = horizon(policy, 6);
    assert_pinned("link_sleep", digest, LINK_SLEEP_DIGEST);
    assert_eq!(
        gate_counts(&report),
        GateCounts {
            calls: 24,
            attempts: 24
        }
    );
}

/// With a tight gate VC budget the greedy gated set often needs more
/// VCs than the budget allows, so decisions walk back: there are more
/// route attempts than decisions.
#[test]
fn tight_budget_link_sleep_horizon_walks_back_and_is_pinned() {
    let policy = PolicyKind::LinkSleep {
        idle_threshold: 0.12,
    };
    let (report, digest) = horizon(policy, 2);
    assert_pinned("link_sleep_tight", digest, TIGHT_LINK_SLEEP_DIGEST);
    let counts = gate_counts(&report);
    assert!(
        counts.attempts > counts.calls,
        "no gate decision walked back: {counts:?}"
    );
    assert_eq!(
        counts,
        GateCounts {
            calls: 23,
            attempts: 35
        }
    );
}
