//! Criterion microbenchmarks for the computational kernels of the
//! reproduction: LP/MILP solving, analytical metrics, path enumeration,
//! MCLB routing, VC allocation, the annealing engine, the network
//! simulator and the serving control plane.  Sample sizes are kept small so `cargo bench --workspace`
//! finishes in minutes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use netsmith::energy::EnergyContext;
use netsmith::gen::anneal::{anneal, AnnealConfig};
use netsmith::gen::terms::CutEval;
use netsmith::gen::{GenerationProblem, Objective};
use netsmith::prelude::*;
use netsmith::topo::analysis::TopoAnalysis;
use netsmith_lp::{Cmp, LinExpr, MilpSolver, Model, Sense};
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
use netsmith_sim::{InjectionSchedule, NetworkSim, SimConfig};
use netsmith_topo::{cuts, metrics, resilience};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::time::Duration;

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp");
    group.sample_size(20);
    group.bench_function("simplex_20var_lp", |b| {
        b.iter_batched(
            || {
                let mut m = Model::new(Sense::Maximize);
                let vars: Vec<_> = (0..20)
                    .map(|i| m.add_continuous(1.0 + (i % 7) as f64, format!("x{i}")))
                    .collect();
                for r in 0..12 {
                    let expr = LinExpr::from_terms(
                        vars.iter()
                            .enumerate()
                            .map(|(i, &v)| (v, 1.0 + ((i * r) % 5) as f64)),
                    );
                    m.add_constr(expr, Cmp::Le, 40.0 + r as f64);
                }
                m
            },
            |m| netsmith_lp::simplex::solve_lp(&m).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("milp_knapsack_12items", |b| {
        b.iter_batched(
            || {
                let mut m = Model::new(Sense::Maximize);
                let vars: Vec<_> = (0..12)
                    .map(|i| m.add_binary(((i * 13) % 17 + 1) as f64, format!("b{i}")))
                    .collect();
                let expr = LinExpr::from_terms(
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| (v, ((i * 7) % 11 + 1) as f64)),
                );
                m.add_constr(expr, Cmp::Le, 30.0);
                m
            },
            |m| MilpSolver::default().solve(&m).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let layout = Layout::noi_4x5();
    let kite = expert::kite_large(&layout);
    let mut group = c.benchmark_group("metrics");
    group.sample_size(30);
    group.bench_function("average_hops_20r", |b| {
        b.iter(|| metrics::average_hops(&kite))
    });
    group.bench_function("sparsest_cut_exhaustive_20r", |b| {
        b.iter(|| cuts::sparsest_cut_exhaustive(&kite))
    });
    group.bench_function("bisection_bandwidth_20r", |b| {
        b.iter(|| cuts::bisection_bandwidth(&kite))
    });
    let torus = expert::folded_torus(&layout);
    group.bench_function("topology_metrics_20r", |b| {
        b.iter(|| TopologyMetrics::compute(&torus))
    });
    let big = expert::folded_torus(&Layout::noi_8x6());
    group.bench_function("all_pairs_hops_48r", |b| {
        b.iter(|| metrics::all_pairs_hops(&big))
    });
    group.bench_function("critical_link_pairs_48r", |b| {
        b.iter(|| resilience::critical_link_pairs(&big))
    });
    group.bench_function("sparsest_cut_heuristic_48r", |b| {
        b.iter(|| cuts::sparsest_cut_heuristic(&big, 8, 1))
    });
    group.bench_function("bisection_bandwidth_48r", |b| {
        b.iter(|| cuts::bisection_bandwidth(&big))
    });
    group.bench_function("topology_metrics_48r", |b| {
        b.iter(|| TopologyMetrics::compute(&big))
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let layout = Layout::noi_4x5();
    let kite = expert::kite_large(&layout);
    let paths = all_shortest_paths(&kite);
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    group.bench_function("all_shortest_paths_20r", |b| {
        b.iter(|| all_shortest_paths(&kite))
    });
    group.bench_function("mclb_route_20r", |b| {
        b.iter(|| mclb_route(&paths, &MclbConfig::default()))
    });
    let big = all_shortest_paths(&expert::folded_torus(&Layout::noi_8x6()));
    group.bench_function("mclb_route_48r", |b| {
        b.iter(|| mclb_route(&big, &MclbConfig::default()))
    });
    let table = mclb_route(&paths, &MclbConfig::default());
    group.bench_function("vc_allocation_20r", |b| {
        b.iter(|| allocate_vcs(&table, 6, 3).unwrap())
    });
    group.finish();
}

/// Objective-evaluation throughput: the from-scratch path (fresh all-pairs
/// BFS per candidate, what every annealer move cost before the cached
/// framework) vs the delta path (incremental analysis update for a
/// rewire-shaped move, what the annealer pays now).  Evaluations/sec =
/// 1 / reported time.
fn bench_objective_eval(c: &mut Criterion) {
    let layout = Layout::noi_4x5();
    let kite = expert::kite_large(&layout);
    // A representative rewire: remove one existing link, add one valid
    // missing link (fixed endpoints keep the benchmark deterministic).
    let (ra, rb) = kite.links().next().unwrap();
    let (aa, ab) = (0usize, 6usize); // (1,1) span, absent from Kite-Large
    assert!(!kite.has_link(aa, ab));
    let mut moved = kite.clone();
    moved.remove_link(ra, rb);
    moved.add_link(aa, ab);
    let removed = [(ra, rb)];
    let added = [(aa, ab)];

    let objectives: [(&str, Objective); 3] = [
        ("latop", Objective::LatOp),
        ("faultop", Objective::fault_op_default()),
        (
            "composite3",
            Objective::composite([
                (1.0, netsmith::gen::Term::Hops),
                (1.0, netsmith::gen::Term::EnergyProxy { edp_weight: 5.0 }),
                (40.0, netsmith::gen::Term::SpareCapacity),
            ]),
        ),
    ];
    let mut group = c.benchmark_group("objective_eval");
    group.sample_size(40);
    for (label, objective) in &objectives {
        group.bench_function(&format!("{label}_scratch"), |b| {
            b.iter(|| objective.evaluate(&moved).score)
        });
        let base = TopoAnalysis::new(&kite);
        group.bench_function(&format!("{label}_delta"), |b| {
            b.iter(|| {
                let analysis = base.after_move(&moved, &removed, &added);
                objective
                    .evaluate_analysis(&moved, &analysis, CutEval::Exact)
                    .score
            })
        });
    }
    // The same delta path at the 8x6 layout's size, where the annealer's
    // hop-distance updates dominate synthesis: a fixed rewire on the
    // folded torus (first link out, a (1,1)-span link in).
    let torus = expert::folded_torus(&Layout::noi_8x6());
    let (ra, rb) = torus.links().next().unwrap();
    let (aa, ab) = (0usize, 7usize);
    assert!(!torus.has_link(aa, ab));
    let mut moved = torus.clone();
    moved.remove_link(ra, rb);
    moved.add_link(aa, ab);
    let base = TopoAnalysis::new(&torus);
    group.bench_function("latop_delta_48r", |b| {
        b.iter(|| {
            let analysis = base.after_move(&moved, &[(ra, rb)], &[(aa, ab)]);
            Objective::LatOp
                .evaluate_analysis(&moved, &analysis, CutEval::Exact)
                .score
        })
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(12));
    let problem = GenerationProblem::new(Layout::noi_4x5(), LinkClass::Medium, Objective::LatOp);
    group.bench_function("anneal_2000_evals_latop", |b| {
        b.iter(|| {
            anneal(
                &problem,
                &AnnealConfig {
                    max_evaluations: 2_000,
                    ..AnnealConfig::quick()
                },
                0.0,
                &netsmith_obs::Obs::noop(),
            )
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let layout = Layout::noi_4x5();
    let kite = expert::kite_medium(&layout);
    let paths = all_shortest_paths(&kite);
    let table = mclb_route(&paths, &MclbConfig::default());
    let alloc = allocate_vcs(&table, 6, 3).unwrap();
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("sim_5000_cycles_midload", |b| {
        let config = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 4_000,
            drain_cycles: 500,
            ..SimConfig::default()
        };
        let sim = NetworkSim::builder(&kite, &table)
            .vcs(&alloc)
            .pattern(TrafficPattern::UniformRandom)
            .config(config)
            .compile();
        b.iter(|| sim.run(0.3))
    });
    group.finish();
}

/// The injection-path rework, head to head: the pre-rework draw
/// structure (one Bernoulli coin per source per cycle, modelled here
/// with the same RNG and draw shape as the legacy engine loop) vs the
/// skip-sampled schedule both engines now consume (geometric
/// inter-arrival gaps resolved against an exact-integer threshold
/// table; idle cycles draw nothing and the consumer jumps straight
/// between due cycles).  Both sides cover an identical
/// 12,000-cycle × 20-source horizon at the same offered load.
fn bench_injection_path(c: &mut Criterion) {
    let config = SimConfig::default(); // 2000 warmup + 10000 measure
    let layout = Layout::noi_4x5();
    let alive = vec![true; 20];
    let pattern = TrafficPattern::UniformRandom;
    let load = 0.3; // flits/node/cycle -> p = 0.06 per source per cycle
    let horizon = config.warmup_cycles + config.measure_cycles;
    let p = load / config.average_flits();

    let mut group = c.benchmark_group("injection_path");
    group.sample_size(40);
    group.bench_function("coin_loop_per_cycle", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(config.seed);
            let mut flits = 0u64;
            for _cycle in 0..horizon {
                for src in 0..alive.len() {
                    let coin = (rng.next_u64() >> 11) as f64 * 2f64.powi(-53);
                    if coin >= p {
                        continue;
                    }
                    if let Some(dst) = pattern.sample_destination(&layout, src, &mut rng) {
                        let class = (rng.next_u64() >> 11) as f64 * 2f64.powi(-53);
                        flits += if class < config.data_fraction { 9 } else { 1 };
                        std::hint::black_box(dst);
                    }
                }
            }
            flits
        })
    });
    group.bench_function("skip_sampling_schedule", |b| {
        b.iter(|| {
            let mut sched = InjectionSchedule::for_run(&config, load, &alive);
            let mut flits = 0u64;
            // Jump straight from due cycle to due cycle, exactly like the
            // compiled engine's idle-stretch jump.
            while let Some(due) = sched.next_due() {
                while let Some(ev) = sched.pop_due(due, &pattern, &layout, &alive) {
                    flits += ev.flits as u64;
                }
            }
            flits
        })
    });
    group.finish();
}

/// The candidate-scan rework at engine granularity: the compiled engine
/// walks packed active-link bitmaps word-by-word with precomputed
/// tie-break keys (batched), the reference engine re-scans every link's
/// VC queues each cycle (scalar).  Same network, same config, same
/// high-load point — where arbitration dominates the cycle budget — so
/// the ratio is the scan rework's payoff.
fn bench_candidate_scan(c: &mut Criterion) {
    let layout = Layout::noi_4x5();
    let kite = expert::kite_medium(&layout);
    let paths = all_shortest_paths(&kite);
    let table = mclb_route(&paths, &MclbConfig::default());
    let alloc = allocate_vcs(&table, 6, 3).unwrap();
    let sim = NetworkSim::builder(&kite, &table)
        .vcs(&alloc)
        .pattern(TrafficPattern::UniformRandom)
        .config(SimConfig::quick())
        .compile();
    let mut group = c.benchmark_group("candidate_scan");
    group.sample_size(10);
    group.bench_function("batched_compiled_engine", |b| b.iter(|| sim.run(0.6)));
    group.bench_function("scalar_reference_engine", |b| {
        b.iter(|| sim.run_reference(0.6))
    });
    group.finish();
}

/// The serving control plane: one cold link-sleep gate decision at 20
/// routers (greedy selection, then paths, MCLB and VC allocation of the
/// gated sub-topology), and a whole link-sleep horizon at 48 routers, where
/// the gate decisions dominate.
fn bench_serving(c: &mut Criterion) {
    let torus = expert::folded_torus(&Layout::noi_4x5());
    let table = mclb_route(&all_shortest_paths(&torus), &MclbConfig::default());
    let vcs = allocate_vcs(&table, 6, 3).unwrap();
    let sim = SimConfig::quick();
    let report = NetworkSim::builder(&torus, &table)
        .vcs(&vcs)
        .pattern(TrafficPattern::UniformRandom)
        .config(sim.clone())
        .build()
        .run(0.02);
    let energy = EnergyConfig::default();
    let ctx = EnergyContext {
        topology: &torus,
        routing: &table,
        vcs: &vcs,
        sim: &sim,
        report: &report,
        config: &energy,
    };
    let sleep = LinkSleep {
        idle_threshold: 0.12,
        ..LinkSleep::default()
    };
    assert!(!sleep.gate(&ctx).unwrap().gated_pairs.is_empty());

    let big = expert::folded_torus(&Layout::noi_8x6());
    let big_table = mclb_route(&all_shortest_paths(&big), &MclbConfig::default());
    let big_vcs = allocate_vcs(&big_table, 6, 3).unwrap();
    let inputs = ServingInputs::new(&big, &big_table, &big_vcs);
    let config = ServingConfig {
        epochs: 32,
        load: LoadSpec {
            period_epochs: 16,
            burst_rate: 0.0,
            ..LoadSpec::default()
        },
        tape: TapeSpec {
            expected_faults: 1.0,
            seed: 48,
        },
        policy: PolicyKind::LinkSleep {
            idle_threshold: 0.12,
        },
        low_load_threshold: 0.12,
        ..ServingConfig::default()
    };

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.bench_function("link_sleep_gate_20r", |b| {
        b.iter(|| sleep.gate(&ctx).unwrap())
    });
    group.bench_function("serving_horizon_48r", |b| {
        b.iter(|| serve(&inputs, &config, &Obs::noop()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lp,
    bench_metrics,
    bench_routing,
    bench_objective_eval,
    bench_generation,
    bench_simulator,
    bench_injection_path,
    bench_candidate_scan,
    bench_serving
);
criterion_main!(benches);
