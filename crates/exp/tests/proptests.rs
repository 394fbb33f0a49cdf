//! Property tests for the experiment API: randomly generated
//! [`ExperimentSpec`]s must round-trip through JSON bit-exactly
//! (spec → JSON → spec ≡ identity), including float weights, hotspot
//! patterns and nested composite objectives.

use netsmith_exp::{
    Assertion, CandidateSpec, ExperimentSpec, LayoutSpec, ObjectiveSpec, ServingSpec, SimProfile,
    TraceSpec, WorkloadSpec,
};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::LinkClass;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_pattern(rng: &mut SmallRng) -> TrafficPattern {
    match rng.gen_range(0..8) {
        0 => TrafficPattern::UniformRandom,
        1 => TrafficPattern::Shuffle,
        2 => TrafficPattern::Transpose,
        3 => TrafficPattern::Memory,
        4 => TrafficPattern::Coherence,
        5 => TrafficPattern::BitComplement,
        6 => TrafficPattern::Tornado,
        _ => TrafficPattern::Hotspot {
            targets: (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..20))
                .collect(),
            fraction: rng.gen_range(0.0..1.0),
        },
    }
}

fn random_serving(rng: &mut SmallRng) -> ServingSpec {
    ServingSpec {
        epochs: rng.gen_range(8..512),
        period_epochs: rng.gen_range(4..128),
        expected_faults: rng.gen_range(0.0..4.0),
        low_load_threshold: rng.gen_range(0.02..0.3),
        // Json numbers are f64: keep seeds inside the exactly
        // representable integer range so the spec round-trips bit-exactly.
        seed: rng.gen_range(0..1u64 << 50),
        tape_seed: rng.gen_range(0..1u64 << 50),
    }
}

fn random_trace(rng: &mut SmallRng) -> TraceSpec {
    if rng.gen_bool(0.5) {
        TraceSpec::File {
            path: format!("traces/workload_{}.nstr", rng.gen_range(0..100)),
        }
    } else {
        let models = ["pointer-chase", "onoff-hotspot"];
        TraceSpec::Generator {
            model: models[rng.gen_range(0usize..2)].into(),
            horizon: rng.gen_range(1..1_000_000),
            seed: rng.gen_range(0..1_000_000),
        }
    }
}

fn random_objective(rng: &mut SmallRng, depth: usize) -> ObjectiveSpec {
    let variants = if depth == 0 { 7 } else { 6 };
    match rng.gen_range(0..variants) {
        0 => ObjectiveSpec::LatOp,
        1 => ObjectiveSpec::SCOp,
        2 => ObjectiveSpec::FaultOp,
        3 => ObjectiveSpec::EnergyOp {
            edp_weight: rng.gen_range(0.0..100.0),
        },
        4 => ObjectiveSpec::PatternLatOp {
            pattern: random_pattern(rng),
        },
        5 => ObjectiveSpec::TraceLatOp {
            trace: random_trace(rng),
        },
        _ => ObjectiveSpec::Composite {
            parts: (0..rng.gen_range(1..4))
                .map(|_| (rng.gen_range(0.0..10.0), random_objective(rng, depth + 1)))
                .collect(),
        },
    }
}

fn random_candidate(rng: &mut SmallRng) -> CandidateSpec {
    let classes = [LinkClass::Small, LinkClass::Medium, LinkClass::Large];
    let experts = [
        "mesh",
        "folded-torus",
        "kite-medium",
        "butter-donut",
        "double-butterfly",
    ];
    match rng.gen_range(0..4) {
        0 => CandidateSpec::ExpertBaselines,
        1 => CandidateSpec::Expert {
            name: experts[rng.gen_range(0usize..experts.len())].into(),
            only_class: if rng.gen_bool(0.5) {
                Some(classes[rng.gen_range(0usize..3)])
            } else {
                None
            },
        },
        _ => CandidateSpec::Synth {
            objective: random_objective(rng, 0),
            symmetric: rng.gen_bool(0.3),
        },
    }
}

fn random_spec(seed: u64) -> ExperimentSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let layouts = [LayoutSpec::Noi4x5, LayoutSpec::Noi6x5, LayoutSpec::Noi8x6];
    let classes = [LinkClass::Small, LinkClass::Medium, LinkClass::Large];
    let sims = [
        SimProfile::ClassDefault,
        SimProfile::Quick,
        SimProfile::QuickClassClock,
        SimProfile::ClassWithWindows {
            warmup: 500,
            measure: 3_000,
            drain: 1_500,
        },
    ];
    ExperimentSpec {
        name: format!("spec_{seed}"),
        layouts: (0..rng.gen_range(1..3))
            .map(|_| layouts[rng.gen_range(0usize..3)])
            .collect(),
        classes: (0..rng.gen_range(1..4))
            .map(|_| classes[rng.gen_range(0usize..3)])
            .collect(),
        candidates: (0..rng.gen_range(1..5))
            .map(|_| random_candidate(&mut rng))
            .collect(),
        scheme_override: if rng.gen_bool(0.25) {
            Some(vec![
                netsmith::pipeline::RoutingScheme::Ndbt,
                netsmith::pipeline::RoutingScheme::Mclb,
            ])
        } else {
            None
        },
        workloads: (0..rng.gen_range(0..3))
            .map(|_| {
                // Pattern and trace workloads need at least one load;
                // the decoder rejects an empty list.
                let loads: Vec<f64> = (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(0.0..1.2))
                    .collect();
                let sim = sims[rng.gen_range(0usize..sims.len())];
                let mut w = match rng.gen_range(0u8..10) {
                    0..=2 => WorkloadSpec::trace(random_trace(&mut rng), loads, sim),
                    3..=4 => WorkloadSpec::serving(random_serving(&mut rng), sim),
                    _ => WorkloadSpec::new(random_pattern(&mut rng), loads, sim),
                };
                if rng.gen_bool(0.5) {
                    w = w.labeled("custom \"label\" with, commas");
                }
                w
            })
            .collect(),
        assertions: (0..rng.gen_range(0..3))
            .map(|_| match rng.gen_range(0..4) {
                0 => Assertion::MinRows {
                    count: rng.gen_range(0..100),
                },
                1 => Assertion::ColumnPositive {
                    column: "latency_ns".into(),
                },
                2 => Assertion::ColumnAllTrue {
                    column: "routable".into(),
                },
                _ => Assertion::GroupedLess {
                    keys: vec!["class".into(), "topology".into()],
                    pivot: "policy".into(),
                    lesser: "link_sleep".into(),
                    greater: "always_on".into(),
                    column: "total_mw".into(),
                    filters: vec![("load".into(), format!("{:.2}", rng.gen_range(0.0..1.0)))],
                },
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// spec → JSON → spec is the identity, bit-for-bit (floats included).
    #[test]
    fn experiment_spec_round_trips_through_json(seed in 0u64..100_000) {
        let spec = random_spec(seed);
        let text = spec.to_json_string();
        let back = ExperimentSpec::from_json_str(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{text}"));
        prop_assert_eq!(&back, &spec, "seed {}", seed);
        // Printing the re-parsed spec is also stable (canonical form).
        prop_assert_eq!(back.to_json_string(), text);
    }
}
