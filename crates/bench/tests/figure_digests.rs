//! Byte-identical figures: every registered figure spec runs in-process at
//! the `--quick` profile on one shared candidate cache, and the rendered
//! CSV of each figure must hash to the digest recorded from
//! `suite --quick`.
//!
//! Any change to a plotted number, a row order or a column format fails
//! here first.  A change that is meant to move figure output must update
//! the digest in the same commit and say why.
//!
//! The digests are FNV-1a 64 over exactly the text `suite --quick` prints
//! for the figure (header line and rows, newline-terminated, without the
//! `# figure:` section line).  To re-record, run
//! `cargo run --release -p netsmith-bench --bin suite -- --quick` and hash
//! each section.

use netsmith_bench::figures;
use netsmith_exp::row::render;
use netsmith_exp::{RunProfile, Runner, SuiteCache};

/// Per-figure digests of the `suite --quick` output, in run order.
const DIGESTS: &[(&str, u64)] = &[
    ("fig01_scatter", 0x05db6f46dd33b83f),
    ("fig04_topology", 0x1414a706b0525005),
    ("fig05_solver_progress", 0x3ff13e43ea5db242),
    ("fig06_synthetic", 0xba0d660ed317506a),
    ("fig07_routing_isolation", 0x94010618a629b1c7),
    ("fig08_parsec", 0x736b376edb1089f1),
    ("fig09_power_area", 0x95cfe360a810a3e1),
    ("fig10_shuffle", 0xb980fbbb7cec7271),
    ("fig11_scale48", 0x7c600bfa62eb5b87),
    ("fig12_energy", 0xd1ec45ddfb21590e),
    ("fig13_resilience", 0x799c55cb0fc59faf),
    ("fig14_pareto", 0x8e200922db67cd37),
    ("fig15_trace", 0x4c6e288743641992),
    ("fig16_serving", 0xdf12b63d9aad32e9),
    ("table02_metrics", 0xbb93165034e2ff12),
    ("ablation_symmetry", 0x7f93c4697e771460),
];

fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn every_figure_matches_its_recorded_digest() {
    let profile = RunProfile::quick();
    let cache = SuiteCache::new();
    let runner = Runner::new(profile, &cache);
    let budget = profile.evals * profile.workers as u64;
    let registered: Vec<&str> = figures::ALL.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<&str> = DIGESTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(registered, pinned, "every registered figure needs a digest");

    let mut mismatches = Vec::new();
    for ((name, build), &(_, expected)) in figures::ALL.iter().zip(DIGESTS) {
        let figure = build(&profile);
        let output = runner
            .run(&figure)
            .unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
        // A discovery that stopped on `AnnealConfig::time_budget` found a
        // different topology than the recorded run; say so instead of
        // reporting a digest mismatch.
        for candidate in &output.candidates {
            if let Some(discovery) = &candidate.discovery {
                assert_eq!(
                    discovery.evaluations,
                    budget,
                    "{name}: {} stopped after {} of {budget} evaluations: \
                     the annealer hit its wall-clock budget, so this runner is \
                     too slow for the pinned digests",
                    discovery.topology.name(),
                    discovery.evaluations
                );
            }
        }
        let digest = fnv1a(&render(&output.header, &output.rows, figure.output, false));
        if digest != expected {
            mismatches.push(format!(
                "{name}: {digest:#018x} (recorded {expected:#018x})"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "figure output changed:\n  {}",
        mismatches.join("\n  ")
    );
}
