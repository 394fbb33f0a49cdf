//! The one timing harness: every probe is declared once, in [`PROBES`],
//! and timed by one helper ([`sample`]: one call per sample, reported as
//! min, median and IQR).
//!
//! * **Gated probes** (nine) are recorded in `BENCH_10.json` at the
//!   workspace root, next to a frozen pre-rework baseline: simulator
//!   throughput on the fig08/fig11 configurations and on a fig15 trace
//!   replay, `sim_5000_cycles_midload`, the obs layer's overhead on an
//!   annealing run, `anneal_48r` (the hop-distance kernel),
//!   `sim_48r_saturated` (the compiled engine past saturation),
//!   `serving_horizon` (a fig16-style serving lifetime) and
//!   `suite --quick` wall-clock.
//! * **Per-layer probes** (31, named `group/case`) time topology metrics
//!   and cuts, the Kite greedy fill, paths, MCLB, VC allocation and its
//!   deadlock check, objective evaluation, annealing, injection, the
//!   compiled engine and the serving gate at 20 and 48 routers. They are
//!   printed, not recorded.
//!
//! Modes: `--record` (the default) runs the selected probes and prints
//! each report; with no `--probe` it also rewrites `BENCH_10.json` from
//! the gated probes. `--check` runs every selected gated probe against
//! its recorded field (flit rates above `recorded / 1.25`, times below
//! `recorded × 1.25`), prints each measurement with its bound, and exits
//! 1 naming every probe that regressed.
//!
//! `--probe <filter>` selects the probes whose name contains `filter`
//! (`--probe metrics/`; `--probe /` is every per-layer probe); a filter
//! that selects nothing exits 2 and lists the names. `--samples <n>` sets
//! the calls of each median probe (default 15). `suite_quick` runs the
//! sibling `suite` binary, which must already be built.

use netsmith::energy::EnergyContext;
use netsmith::gen::anneal::{anneal, AnnealConfig};
use netsmith::gen::terms::CutEval;
use netsmith::gen::{GenerationProblem, Objective};
use netsmith::prelude::*;
use netsmith::topo::analysis::TopoAnalysis;
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::vc::verify_deadlock_free;
use netsmith_sim::sweep::default_load_grid;
use netsmith_sim::{InjectionSchedule, NetworkSim};
use netsmith_topo::json::Json;
use netsmith_topo::{cuts, metrics, resilience, Topology};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-rework values of four gated fields, keyed `<probe>_<field>`,
/// measured with this harness at the commit before the compiled
/// flat-state engine landed (1-core container; only ratios are
/// meaningful across machines). A probe with a baseline also reports
/// `speedup_vs_baseline`.
const BASELINE: [(&str, f64); 4] = [
    ("fig08_sim_flits_per_sec", 9_452_136.0),
    ("fig11_sim_flits_per_sec", 4_376_432.0),
    ("sim_5000_cycles_midload_median_ms", 4.425),
    ("suite_quick_seconds", 25.4),
];

const DEFAULT_SAMPLES: usize = 15;

/// `--check` headroom over a recorded value: it absorbs scheduling noise
/// on a shared box and still fails any sustained regression past 25%.
const TOLERANCE: f64 = 1.25;

/// Calls of each throughput probe. One sweep is tens to hundreds of
/// milliseconds, where scheduler jitter is a ±15% effect, so the fastest
/// of three is the repeatable ceiling rather than one draw.
const THROUGHPUT_REPS: usize = 3;

/// How a probe turns its timed calls into the number it reports, and
/// from which side `--check` bounds that number.
#[derive(Clone, Copy, PartialEq)]
enum Stat {
    /// Flits per second of the fastest of [`THROUGHPUT_REPS`] calls,
    /// kept above `recorded / TOLERANCE`.
    Rate,
    /// Median of `--samples` calls, with min and IQR, kept below
    /// `recorded × TOLERANCE`.
    Median,
    /// One call, kept below `recorded × TOLERANCE`.
    Once,
}

impl Stat {
    fn calls(self, samples: usize) -> usize {
        match self {
            Stat::Rate => THROUGHPUT_REPS,
            Stat::Median => samples,
            Stat::Once => 1,
        }
    }
}

/// The named values a probe measured. A gated probe's report is its
/// `current.<name>` section of `BENCH_10.json`, field for field.
type Report = Vec<(&'static str, f64)>;

/// Builds a probe's workload, then times the given number of calls of it.
type Run = fn(usize) -> Report;

struct Probe {
    name: &'static str,
    stat: Stat,
    /// The report field `--check` compares with `current.<name>.<field>`
    /// of `BENCH_10.json`; `None` for an ungated per-layer probe.
    gate: Option<&'static str>,
    run: Run,
}

const fn gated(name: &'static str, stat: Stat, field: &'static str, run: Run) -> Probe {
    let gate = Some(field);
    Probe {
        name,
        stat,
        gate,
        run,
    }
}

const fn layer(name: &'static str, run: Run) -> Probe {
    let (stat, gate) = (Stat::Median, None);
    Probe {
        name,
        stat,
        gate,
        run,
    }
}

/// Every probe, gated ones first in `BENCH_10.json` order.
const PROBES: &[Probe] = &[
    gated("fig08_sim", Stat::Rate, "flits_per_sec", |calls| {
        let layout = Layout::noi_4x5();
        let topos = [expert::mesh(&layout), expert::folded_torus(&layout)];
        sim_sweep(calls, &topos, &[0.05, 0.1, 0.2, 0.3], None)
    }),
    gated("fig11_sim", Stat::Rate, "flits_per_sec", |calls| {
        let topos = [expert::folded_torus(&Layout::noi_8x6())];
        sim_sweep(calls, &topos, &default_load_grid(), None)
    }),
    gated("trace_replay", Stat::Rate, "flits_per_sec", |calls| {
        // The fig15 bursty-hotspot trace; replay is RNG-free, so the flit
        // count is a fixed function of the trace and the load grid.
        let trace = netsmith_trace::generate_named("onoff-hotspot", 20, 4_096, 15).unwrap();
        let topos = [expert::folded_torus(&Layout::noi_4x5())];
        sim_sweep(calls, &topos, &default_load_grid(), Some(Arc::new(trace)))
    }),
    gated(
        "sim_5000_cycles_midload",
        Stat::Median,
        "median_ms",
        |calls| {
            // One compiled run of MCLB-routed Kite-Medium at load 0.3, with
            // 500 warmup, 4,000 measured and 500 drain cycles.
            let kite = expert::kite_medium(&Layout::noi_4x5());
            let table = mclb_route(&all_shortest_paths(&kite), &MclbConfig::default());
            let alloc = allocate_vcs(&table, 6, 3).unwrap();
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
            pick(
                &sample(calls, || sim.run(0.3)),
                &["median_ms", "min_ms", "iqr_ms", "samples"],
            )
        },
    ),
    gated("obs_overhead", Stat::Median, "noop_median_ms", |calls| {
        // A fixed annealing run, the per-move counter and span hot path,
        // under the no-op recorder (what every unobserved run pays; gated)
        // and under a live in-memory recorder.
        let problem =
            GenerationProblem::new(Layout::noi_4x5(), LinkClass::Medium, Objective::LatOp);
        let config = AnnealConfig {
            max_evaluations: 5_000,
            ..AnnealConfig::quick()
        };
        let median_ms = |obs: &Obs| {
            let timing = sample(calls, || anneal(&problem, &config, 0.0, obs));
            field(&timing, "median_ms")
        };
        let noop = median_ms(&Obs::noop());
        let memory = median_ms(&Obs::to(MemoryRecorder::new()));
        vec![
            ("anneal_evals", config.max_evaluations as f64),
            ("noop_median_ms", noop),
            ("memory_median_ms", memory),
            ("enabled_over_noop", memory / noop),
        ]
    }),
    gated("anneal_48r", Stat::Median, "median_ms", |calls| {
        let problem =
            GenerationProblem::new(Layout::noi_8x6(), LinkClass::Medium, Objective::LatOp);
        // nsbench design48's per-worker budget, with an hour of wall clock
        // so the clock never cuts the run short.
        let config = AnnealConfig {
            max_evaluations: 12_000,
            time_budget: Duration::from_secs(3600),
            ..AnnealConfig::default()
        };
        let timing = sample(calls, || {
            let result = anneal(&problem, &config, 0.0, &Obs::noop());
            assert_eq!(result.evaluations, config.max_evaluations);
        });
        pick(&timing, &["median_ms"])
    }),
    gated("sim_48r_saturated", Stat::Median, "median_ms", |calls| {
        let layout = Layout::noi_8x6();
        let torus = expert::folded_torus(&layout);
        let table = ndbt_route(&layout, &all_shortest_paths(&torus), 42).0;
        let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .pattern(TrafficPattern::UniformRandom)
            .config(SimConfig::for_class(LinkClass::Medium))
            .compile();
        // Past saturation every source stays backlogged for the whole window.
        let load = 1.0;
        let timing = sample(calls, || sim.run(load));
        let mut report = vec![("load", load)];
        report.extend(pick(&timing, &["median_ms", "min_ms", "samples"]));
        report
    }),
    gated("serving_horizon", Stat::Median, "median_ms", |calls| {
        // A fig16-style closed-loop link-sleep lifetime (diurnal load, one
        // fault, online repair and re-gating every epoch) on the 4x5
        // folded torus: the whole `netsmith-serve` path, so it catches
        // regressions the steady-state simulator probes cannot see.
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let table = mclb_route(&all_shortest_paths(&torus), &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        // Long enough that the per-epoch compile/run/gate cycle dominates.
        let config = ServingConfig {
            epochs: 48,
            load: LoadSpec {
                period_epochs: 24,
                ..LoadSpec::default()
            },
            tape: TapeSpec {
                expected_faults: 1.0,
                seed: 0x00BE_9C10,
            },
            policy: PolicyKind::LinkSleep {
                idle_threshold: 0.12,
            },
            seed: 0x00BE_9C10,
            ..ServingConfig::default()
        };
        let inputs = ServingInputs::new(&torus, &table, &alloc);
        let timing = sample(calls, || serve(&inputs, &config, &Obs::noop()));
        let mut report = vec![("epochs", config.epochs as f64)];
        report.extend(pick(&timing, &["median_ms", "min_ms", "iqr_ms", "samples"]));
        report
    }),
    gated("suite_quick", Stat::Once, "seconds", |calls| {
        let suite = std::env::current_exe()
            .expect("current_exe")
            .with_file_name("suite");
        let timing = sample(calls, || {
            // stdout (the CSVs) is discarded; the stderr progress log passes through.
            let status = Command::new(&suite)
                .arg("--quick")
                .stdout(Stdio::null())
                .status()
                .unwrap_or_else(|e| panic!("failed to launch {}: {e}", suite.display()));
            assert!(status.success(), "suite --quick failed: {status}");
        });
        vec![("seconds", field(&timing, "min_ms") / 1e3)]
    }),
    layer("metrics/average_hops_20r", |calls| {
        on_topology(calls, kite_large_20r(), metrics::average_hops)
    }),
    layer("metrics/sparsest_cut_exhaustive_20r", |calls| {
        on_topology(calls, kite_large_20r(), cuts::sparsest_cut_exhaustive)
    }),
    layer("metrics/bisection_bandwidth_20r", |calls| {
        on_topology(calls, kite_large_20r(), cuts::bisection_bandwidth)
    }),
    layer("metrics/topology_metrics_20r", |calls| {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        on_topology(calls, torus, TopologyMetrics::compute)
    }),
    layer("metrics/all_pairs_hops_48r", |calls| {
        on_topology(calls, torus_48r(), metrics::all_pairs_hops)
    }),
    layer("metrics/critical_link_pairs_48r", |calls| {
        on_topology(calls, torus_48r(), resilience::critical_link_pairs)
    }),
    layer("metrics/sparsest_cut_heuristic_48r", |calls| {
        on_topology(calls, torus_48r(), |t| {
            cuts::sparsest_cut_heuristic(t, 8, 1)
        })
    }),
    layer("metrics/bisection_bandwidth_48r", |calls| {
        on_topology(calls, torus_48r(), cuts::bisection_bandwidth)
    }),
    layer("metrics/topology_metrics_48r", |calls| {
        on_topology(calls, torus_48r(), TopologyMetrics::compute)
    }),
    layer("topo/kite_medium_48r", |calls| {
        let layout = Layout::noi_8x6();
        sample(calls, || expert::kite_medium(&layout))
    }),
    layer("routing/all_shortest_paths_20r", |calls| {
        on_topology(calls, kite_large_20r(), all_shortest_paths)
    }),
    layer("routing/all_shortest_paths_48r", |calls| {
        on_topology(calls, torus_48r(), all_shortest_paths)
    }),
    layer("routing/mclb_route_20r", |calls| {
        let paths = all_shortest_paths(&kite_large_20r());
        sample(calls, || mclb_route(&paths, &MclbConfig::default()))
    }),
    layer("routing/mclb_route_48r", |calls| {
        let paths = all_shortest_paths(&torus_48r());
        sample(calls, || mclb_route(&paths, &MclbConfig::default()))
    }),
    layer("routing/vc_allocation_20r", |calls| {
        let table = mclb_route(
            &all_shortest_paths(&kite_large_20r()),
            &MclbConfig::default(),
        );
        sample(calls, || allocate_vcs(&table, 6, 3).unwrap())
    }),
    layer("routing/vc_allocation_48r", |calls| {
        // NDBT on Kite-Medium: the balancing pass makes many moves whose
        // cold VC rejects flows.
        let layout = Layout::noi_8x6();
        let paths = all_shortest_paths(&expert::kite_medium(&layout));
        let table = ndbt_route(&layout, &paths, 3).0;
        sample(calls, || allocate_vcs(&table, 6, 3).unwrap())
    }),
    layer("routing/verify_deadlock_free_48r", |calls| {
        // The from-scratch deadlock check of `vc_allocation_48r`'s result.
        let layout = Layout::noi_8x6();
        let paths = all_shortest_paths(&expert::kite_medium(&layout));
        let table = ndbt_route(&layout, &paths, 3).0;
        let alloc = allocate_vcs(&table, 6, 3).unwrap();
        sample(calls, || assert!(verify_deadlock_free(&table, &alloc)))
    }),
    layer("objective_eval/latop_scratch", |calls| {
        objective_scratch(calls, Objective::LatOp)
    }),
    layer("objective_eval/latop_delta", |calls| {
        objective_delta(calls, kite_large_20r(), (0, 6), Objective::LatOp)
    }),
    layer("objective_eval/faultop_scratch", |calls| {
        objective_scratch(calls, Objective::fault_op_default())
    }),
    layer("objective_eval/faultop_delta", |calls| {
        objective_delta(
            calls,
            kite_large_20r(),
            (0, 6),
            Objective::fault_op_default(),
        )
    }),
    layer("objective_eval/composite3_scratch", |calls| {
        objective_scratch(calls, composite3())
    }),
    layer("objective_eval/composite3_delta", |calls| {
        objective_delta(calls, kite_large_20r(), (0, 6), composite3())
    }),
    layer("objective_eval/latop_delta_48r", |calls| {
        objective_delta(calls, torus_48r(), (0, 7), Objective::LatOp)
    }),
    layer("generation/anneal_2000_evals_latop", |calls| {
        let problem =
            GenerationProblem::new(Layout::noi_4x5(), LinkClass::Medium, Objective::LatOp);
        let config = AnnealConfig {
            max_evaluations: 2_000,
            ..AnnealConfig::quick()
        };
        sample(calls, || anneal(&problem, &config, 0.0, &Obs::noop()))
    }),
    layer("injection_path/skip_sampling_schedule", |calls| {
        // The 12,000-cycle, 20-source horizon of the default windows at
        // load 0.3, drained due cycle by due cycle as the compiled
        // engine's idle jump does.
        let config = SimConfig::default();
        let layout = Layout::noi_4x5();
        let alive = vec![true; 20];
        sample(calls, || {
            let mut schedule = InjectionSchedule::for_run(&config, 0.3, &alive);
            let mut flits = 0u64;
            while let Some(due) = schedule.next_due() {
                while let Some(ev) =
                    schedule.pop_due(due, &TrafficPattern::UniformRandom, &layout, &alive)
                {
                    flits += ev.flits as u64;
                }
            }
            flits
        })
    }),
    layer("candidate_scan/batched_compiled_engine", |calls| {
        let kite = expert::kite_medium(&Layout::noi_4x5());
        let table = mclb_route(&all_shortest_paths(&kite), &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 3).unwrap();
        let sim = NetworkSim::builder(&kite, &table)
            .vcs(&alloc)
            .pattern(TrafficPattern::UniformRandom)
            .config(SimConfig::quick())
            .compile();
        sample(calls, || sim.run(0.6))
    }),
    layer("sim/run_48r_midload", |calls| {
        // One compiled run of `sim_48r_saturated`'s network below
        // saturation, where link wakes and parks dominate the loop.
        let layout = Layout::noi_8x6();
        let torus = expert::folded_torus(&layout);
        let table = ndbt_route(&layout, &all_shortest_paths(&torus), 42).0;
        let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .pattern(TrafficPattern::UniformRandom)
            .config(SimConfig::for_class(LinkClass::Medium))
            .compile();
        sample(calls, || sim.run(0.3))
    }),
    layer("sim/run_20r_serving_epoch", |calls| {
        // One serving epoch's compiled run, the run a serve20 horizon
        // makes 96 times: the MCLB 4x5 torus with the serving windows
        // and the epoch probe on.
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let table = mclb_route(&all_shortest_paths(&torus), &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .pattern(TrafficPattern::UniformRandom)
            .config(SimConfig {
                warmup_cycles: 100,
                measure_cycles: 400,
                drain_cycles: 200,
                epoch_cycles: 400,
                ..SimConfig::default()
            })
            .compile();
        sample(calls, || sim.run(0.2))
    }),
    layer("serving/link_sleep_gate_20r", |calls| {
        // One cold link-sleep gate decision: greedy selection, then paths,
        // MCLB and VC allocation of the gated sub-topology.
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
        };
        assert!(!sleep.gate(&ctx).unwrap().gated_pairs.is_empty());
        sample(calls, || sleep.gate(&ctx).unwrap())
    }),
    layer("serving/serving_horizon_48r", |calls| {
        let torus = torus_48r();
        let table = mclb_route(&all_shortest_paths(&torus), &MclbConfig::default());
        let vcs = allocate_vcs(&table, 6, 3).unwrap();
        let inputs = ServingInputs::new(&torus, &table, &vcs);
        let config = ServingConfig {
            epochs: 32,
            load: LoadSpec {
                period_epochs: 16,
                burst_rate: 0.0,
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
        sample(calls, || serve(&inputs, &config, &Obs::noop()))
    }),
];

/// Time `calls` calls of `call` (at least one), one call per sample, and
/// report their min, median and IQR in milliseconds. A call's output is
/// dropped inside its sample.
fn sample<T>(calls: usize, mut call: impl FnMut() -> T) -> Report {
    let time_ms = |_| {
        let start = Instant::now();
        std::hint::black_box(call());
        start.elapsed().as_secs_f64() * 1e3
    };
    order_stats((0..calls.max(1)).map(time_ms).collect())
}

/// Min, median and IQR of `ms`. Quartiles are the `len/4` and `3*len/4`
/// sorted ranks: crude, but stable across sample counts and enough to
/// read run-to-run spread.
fn order_stats(mut ms: Vec<f64>) -> Report {
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    vec![
        ("min_ms", ms[0]),
        ("median_ms", ms[n / 2]),
        ("iqr_ms", ms[(3 * n) / 4] - ms[n / 4]),
        ("samples", n as f64),
    ]
}

/// The fields of `report` named by `keys`, in that order.
fn pick(report: &Report, keys: &[&'static str]) -> Report {
    keys.iter().map(|&k| (k, field(report, k))).collect()
}

/// The report of a per-layer probe that times `f` on `topo`.
fn on_topology<T>(calls: usize, topo: Topology, f: impl Fn(&Topology) -> T) -> Report {
    sample(calls, || f(&topo))
}

fn field(report: &Report, key: &str) -> f64 {
    match report.iter().find(|(k, _)| *k == key) {
        Some(&(_, v)) => v,
        None => panic!("report has no field {key}"),
    }
}

/// Route (MCLB) and allocate each topology outside the clock, then time
/// `NetworkSim` construction and every load point of one sweep per call,
/// under uniform random traffic or, given a trace, its replay.
fn sim_sweep(calls: usize, topos: &[Topology], loads: &[f64], trace: Option<Arc<Trace>>) -> Report {
    let config = SimConfig::for_class(LinkClass::Medium);
    let prepared: Vec<_> = topos
        .iter()
        .map(|topo| {
            let table = mclb_route(&all_shortest_paths(topo), &MclbConfig::default());
            let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
            (topo, table, alloc)
        })
        .collect();
    let mut flits = 0;
    let timing = sample(calls, || {
        flits = 0;
        for (topo, table, alloc) in &prepared {
            let mut builder = NetworkSim::builder(topo, table)
                .vcs(alloc)
                .pattern(TrafficPattern::UniformRandom)
                .config(config.clone());
            if let Some(trace) = &trace {
                builder = builder.trace(Arc::clone(trace));
            }
            let sim = builder.compile();
            for &load in loads {
                flits += sim.run(load).activity.total_link_flits();
            }
        }
    });
    // Flits per call over the fastest call.
    let seconds = field(&timing, "min_ms") / 1e3;
    vec![
        ("flits", flits as f64),
        ("seconds", seconds),
        ("flits_per_sec", flits as f64 / seconds),
    ]
}

fn kite_large_20r() -> Topology {
    expert::kite_large(&Layout::noi_4x5())
}

fn torus_48r() -> Topology {
    expert::folded_torus(&Layout::noi_8x6())
}

fn composite3() -> Objective {
    Objective::composite([
        (1.0, Term::Hops),
        (1.0, Term::EnergyProxy { edp_weight: 5.0 }),
        (40.0, Term::SpareCapacity),
    ])
}

type Link = (usize, usize);

/// `topo`, and `topo` with its first link replaced by the missing link
/// `added`, with the removed and added link lists of that move.
fn rewire(topo: Topology, added: Link) -> (Topology, Topology, [Link; 1], [Link; 1]) {
    let removed = topo.links().next().unwrap();
    assert!(!topo.has_link(added.0, added.1));
    let mut moved = topo.clone();
    moved.remove_link(removed.0, removed.1);
    moved.add_link(added.0, added.1);
    (topo, moved, [removed], [added])
}

/// Objective evaluation from scratch on Kite-Large after one rewire (its
/// first link out, the (1,1)-span link 0→6 in): a fresh all-pairs BFS
/// per candidate.
fn objective_scratch(calls: usize, objective: Objective) -> Report {
    let (_, moved, _, _) = rewire(kite_large_20r(), (0, 6));
    sample(calls, || objective.evaluate(&moved).score)
}

/// Objective evaluation on the incremental analysis update of one rewire
/// of `topo` (its first link out, `added` in), what the annealer pays per
/// move.
fn objective_delta(calls: usize, topo: Topology, added: Link, objective: Objective) -> Report {
    let (topo, moved, removed, added) = rewire(topo, added);
    let base = TopoAnalysis::new(&topo);
    sample(calls, || {
        let analysis = base.after_move(&moved, &removed, &added);
        objective
            .evaluate_analysis(&moved, &analysis, CutEval::Exact)
            .score
    })
}

fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_10.json")
}

/// The probes whose name contains `filter` (all of them for `None`).
fn select(filter: Option<&str>) -> Vec<&'static Probe> {
    PROBES
        .iter()
        .filter(|p| filter.is_none_or(|f| p.name.contains(f)))
        .collect()
}

fn measure(probe: &Probe, samples: usize) -> Report {
    eprintln!("# perf: {}", probe.name);
    let mut report = (probe.run)(probe.stat.calls(samples));
    if let Some(key) = probe.gate {
        let baseline = format!("{}_{key}", probe.name);
        if let Some(&(_, base)) = BASELINE.iter().find(|(k, _)| *k == baseline) {
            let got = field(&report, key);
            let speedup = if probe.stat == Stat::Rate {
                got / base
            } else {
                base / got
            };
            report.push(("speedup_vs_baseline", speedup));
        }
    }
    let fields: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("{k} {}", show(*v)))
        .collect();
    eprintln!("{}: {}", probe.name, fields.join(", "));
    report
}

/// Whole numbers and large values print without decimals; the rest, to
/// 0.1 µs when they are milliseconds.
fn show(v: f64) -> String {
    if v.fract() == 0.0 || v.abs() >= 1e3 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Flit rates are recorded as whole flits per second, everything else to
/// three decimals.
fn recorded_value(key: &str, v: f64) -> f64 {
    if key == "flits_per_sec" {
        v.round()
    } else {
        (v * 1e3).round() / 1e3
    }
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Indented printer for the committed artifact (the compact `Display`
/// form parses identically; this one diffs better).
fn pretty(json: &Json, pad: &str) -> String {
    match json {
        Json::Obj(members) if !members.is_empty() => {
            let inner = format!("{pad}  ");
            let rows: Vec<_> = members
                .iter()
                .map(|(k, v)| format!("{inner}{}: {}", Json::Str(k.clone()), pretty(v, &inner)))
                .collect();
            format!("{{\n{}\n{pad}}}", rows.join(",\n"))
        }
        other => other.to_string(),
    }
}

fn record(filter: Option<&str>, samples: usize) {
    let mut current = Vec::new();
    for probe in select(filter) {
        let report = measure(probe, samples);
        if probe.gate.is_some() {
            let section = report
                .into_iter()
                .map(|(k, v)| (k, Json::Num(recorded_value(k, v))))
                .collect();
            current.push((probe.name, obj(section)));
        }
    }
    if filter.is_some() {
        // Iterating on a subset: print only, keep the committed artifact.
        return;
    }
    let doc = obj(vec![
        ("bench", Json::Num(10.0)),
        (
            "note",
            Json::Str(
                "throughput trajectory for the reworked hot loop (batched \
                 injection schedules, fused arbitrate/commit, calendar-queue \
                 idle jumps); regenerate with \
                 `cargo run --release -p netsmith-bench --bin perf`"
                    .into(),
            ),
        ),
        (
            "baseline",
            obj(BASELINE.iter().map(|&(k, v)| (k, Json::Num(v))).collect()),
        ),
        ("current", obj(current)),
    ]);
    let text = pretty(&doc, "") + "\n";
    Json::parse(&text).expect("emitted BENCH_10.json must parse");
    let path = bench_path();
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("# perf: wrote {}", path.display());
}

/// Read `current.<probe>.<field>` out of the committed artifact.
fn recorded(doc: &Json, probe: &str, field: &str) -> Result<f64, String> {
    doc.require("current")
        .and_then(|c| c.require(probe))
        .and_then(|s| s.require(field))
        .and_then(Json::as_f64)
        .map_err(|e| format!("BENCH_10.json: current.{probe}.{field}: {e}"))
}

/// Measure every selected gated probe against its bound; exit 1 naming
/// each one that regressed, or 2 when the filter selects no gated probe.
fn check(filter: Option<&str>, samples: usize) {
    let probes: Vec<_> = select(filter)
        .into_iter()
        .filter(|p| p.gate.is_some())
        .collect();
    if probes.is_empty() {
        eprintln!("no gated probe matches {:?}", filter.unwrap_or_default());
        usage();
    }
    let path = bench_path();
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = Json::parse(&text).expect("BENCH_10.json must parse");
    eprintln!("# perf --check: tolerance {TOLERANCE}x over recorded values");
    let mut regressed = Vec::new();
    for probe in &probes {
        let key = probe.gate.expect("gated");
        let rec = recorded(&doc, probe.name, key).unwrap_or_else(|e| panic!("{e}"));
        let got = field(&measure(probe, samples), key);
        let rate = probe.stat == Stat::Rate;
        let bound = if rate {
            rec / TOLERANCE
        } else {
            rec * TOLERANCE
        };
        let ok = if rate { got >= bound } else { got <= bound };
        eprintln!(
            "# perf --check: {} {key} {got:.3} vs bound {} {bound:.3} ({rec} recorded): {}",
            probe.name,
            if rate { ">=" } else { "<=" },
            if ok { "ok" } else { "REGRESSED" },
        );
        if !ok {
            regressed.push(probe.name);
        }
    }
    if !regressed.is_empty() {
        eprintln!(
            "# perf --check: {} of {} probe(s) regressed: {}",
            regressed.len(),
            probes.len(),
            regressed.join(", ")
        );
        std::process::exit(1);
    }
    eprintln!("# perf --check: {} probe(s) ok", probes.len());
}

fn usage() -> ! {
    let names: Vec<_> = PROBES.iter().map(|p| p.name).collect();
    eprintln!(
        "usage: perf [--record | --check] [--probe <filter>] [--samples <n>]\n\
         probes: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_check = false;
    let mut filter: Option<String> = None;
    let mut samples = DEFAULT_SAMPLES;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--record" => mode_check = false,
            "--check" => mode_check = true,
            "--probe" => filter = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    let filter = filter.as_deref();
    if select(filter).is_empty() {
        eprintln!("no probe matches {:?}", filter.unwrap_or_default());
        usage();
    }
    if mode_check {
        check(filter, samples);
    } else {
        record(filter, samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_names_are_unique() {
        let mut names: Vec<_> = PROBES.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PROBES.len());
    }

    #[test]
    fn every_gated_field_is_a_number_in_the_committed_file() {
        let text = std::fs::read_to_string(bench_path()).unwrap();
        let doc = Json::parse(&text).unwrap();
        let gated: Vec<_> = PROBES.iter().filter(|p| p.gate.is_some()).collect();
        assert_eq!(gated.len(), 9);
        for probe in gated {
            recorded(&doc, probe.name, probe.gate.unwrap()).unwrap();
        }
    }

    #[test]
    fn the_filter_matches_name_substrings() {
        let names = |filter| -> Vec<_> { select(Some(filter)).iter().map(|p| p.name).collect() };
        assert_eq!(names("fig08_sim"), ["fig08_sim"]);
        let layers = select(Some("/"));
        assert_eq!(layers.len(), 31);
        assert!(layers.iter().all(|p| p.gate.is_none()));
        assert!(names("nosuch").is_empty());
    }

    #[test]
    fn timing_ranks_match_the_recorded_protocol() {
        // (samples, min, median, IQR) at the `0`, `n/2`, `n/4` and
        // `3n/4` sorted ranks the median gates were recorded with.
        let ms = [
            9.5, 1.25, 7.0, 3.5, 8.0, 2.0, 6.5, 4.0, 5.75, 10.0, 0.5, 11.0, 3.0, 12.5, 2.5,
        ];
        for (n, min, median, iqr) in [
            (1, 9.5, 9.5, 0.0),
            (4, 1.25, 7.0, 6.0),
            (5, 1.25, 7.0, 4.5),
            (15, 0.5, 5.75, 7.0),
        ] {
            let expected = vec![
                ("min_ms", min),
                ("median_ms", median),
                ("iqr_ms", iqr),
                ("samples", n as f64),
            ];
            assert_eq!(order_stats(ms[..n].to_vec()), expected);
        }
    }
}
