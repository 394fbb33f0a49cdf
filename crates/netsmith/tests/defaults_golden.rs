//! Golden pins of the fixed model constants that no other golden reaches:
//! the DVFS level choice, the serving load process, the named trace
//! generators and quick annealing runs.
//!
//! Each test folds every output of a default-configured call into an
//! FNV-1a digest (floats through `f64::to_bits`) and compares it with a
//! recorded value, so moving any constant, or reordering the arithmetic
//! that reads it, fails here.

use netsmith::energy::Dvfs;
use netsmith::gen::anneal::{anneal, AnnealConfig};
use netsmith::gen::{GenerationProblem, Objective};
use netsmith::obs::Obs;
use netsmith::serve::{LoadProcess, LoadSpec};
use netsmith::topo::{Layout, LinkClass};
use netsmith::trace::generate_named;
use std::time::Duration;

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
}

/// Recorded digests; a mismatch prints every computed value.
fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: digest {got:#018x}, recorded {want:#018x}"
    );
}

#[test]
fn dvfs_level_choice_is_pinned() {
    // Utilizations 0.00..=1.50 cover every level, the boundaries between
    // them and the fallback to nominal; NaN takes the fallback too.
    let dvfs: Dvfs = Default::default();
    let mut d = Digest::new();
    for u in (0..=150).map(|i| i as f64 / 100.0).chain([f64::NAN]) {
        let level = dvfs.select_level(u);
        d.float(level.freq_scale);
        d.float(level.voltage_scale);
    }
    check("dvfs", d.0, 0xf967_9384_88a3_b098);
}

#[test]
fn default_load_process_is_pinned() {
    // A bursty, skewed trace, so the modulation reshapes every horizon.
    let trace = generate_named("onoff-hotspot", 20, 2048, 3).unwrap();
    let mut d = Digest::new();
    let mut bursts = 0;
    for seed in [1, 7, 42, 0xDEAD] {
        for modulation in [None, Some(&trace)] {
            let process = LoadProcess::new(&LoadSpec::default(), 256, seed, modulation);
            for e in 0..process.horizon() {
                let load = process.epoch(e);
                d.float(load.offered);
                d.float(load.data_fraction);
                d.word(load.burst as u64);
                bursts += load.burst as u32;
            }
        }
    }
    assert!(bursts > 0, "the default burst rate must fire");
    check("load", d.0, 0xe118_481e_7bc1_127b);
}

#[test]
fn named_traces_are_pinned() {
    let mut d = Digest::new();
    for name in ["pointer-chase", "onoff-hotspot"] {
        for routers in [20, 48] {
            let trace = generate_named(name, routers, 1024, 11).unwrap();
            d.word(trace.messages.len() as u64);
            for m in &trace.messages {
                d.word(u64::from(m.src));
                d.word(u64::from(m.dst));
                d.word(u64::from(m.flits));
                d.word(m.issue);
            }
        }
    }
    check("traces", d.0, 0x87e3_c338_d4a4_2ab0);
}

#[test]
fn quick_anneals_are_pinned() {
    // An evaluation cap, not the clock, ends each run.
    let config = AnnealConfig {
        max_evaluations: 1_500,
        time_budget: Duration::from_secs(3_600),
        ..AnnealConfig::quick()
    };
    for (objective, want) in [
        (Objective::LatOp, 0xf64a_ffa0_3bfb_3f30),
        (Objective::SCOp, 0x50be_c068_5267_1842),
    ] {
        let problem = GenerationProblem::new(Layout::noi_4x5(), LinkClass::Medium, objective);
        let result = anneal(&problem, &config, 0.0, &Obs::noop());
        let mut d = Digest::new();
        for (a, b) in result.topology.links() {
            d.word(a as u64);
            d.word(b as u64);
        }
        d.float(result.objective.score);
        d.word(result.evaluations);
        check(&problem.topology_name(), d.0, want);
    }
}
