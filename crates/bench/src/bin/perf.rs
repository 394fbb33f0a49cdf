//! The tracked performance target (`BENCH_10.json`).
//!
//! Measures simulator throughput on the fig08/fig11 simulation
//! configurations, a trace-replay throughput probe (the fig15 workload:
//! an ON/OFF hotspot trace replayed across the load grid), the
//! `sim_5000_cycles_midload` criterion scenario (min/median/IQR computed
//! here over a configurable sample count), the disabled-instrumentation
//! overhead of the obs layer (an annealing run — the per-move counter hot
//! path — timed under the no-op recorder vs a live in-memory recorder),
//! an `anneal_48r` probe (one-worker LatOp synthesis on the 8x6 layout,
//! whose time is almost all incremental hop-distance updates), a
//! `sim_48r_saturated` probe (one compiled run of the 8x6 folded torus
//! past saturation, where every source is backlogged), a
//! `serving_horizon` probe (a fig16-style closed-loop link-sleep
//! lifetime on the folded torus, timed end to end), and `suite --quick`
//! wall-clock, then writes everything — alongside the frozen pre-rework
//! baseline — to `BENCH_10.json` at the workspace root.
//!
//! Modes:
//! * default / `--record` — measure and rewrite `BENCH_10.json` (with
//!   `--probe`, measure and print just that probe; the file is only
//!   rewritten by a full record).
//! * `--check` — parse the committed `BENCH_10.json` and gate every probe
//!   against its recorded value: the flit-throughput probes must stay
//!   above `recorded flits/sec ÷ tolerance`, the timed probes below
//!   `recorded × tolerance`.  The tolerance (`PERF_CHECK_TOLERANCE`,
//!   default 1.25×) absorbs container scheduling noise — sustained
//!   regressions past 25% fail CI directly, per-probe, not just through
//!   suite wall-clock.
//!
//! Flags:
//! * `--probe <name>` — run a single probe (one of `fig08_sim`,
//!   `fig11_sim`, `trace_replay`, `sim_5000_cycles_midload`,
//!   `obs_overhead`, `anneal_48r`, `sim_48r_saturated`, `serving_horizon`,
//!   `suite_quick`) so hot-loop
//!   iteration doesn't pay for the full suite each time.
//! * `--samples <n>` — sample count for the median-based probes
//!   (default 15).
//!
//! The sibling `suite` binary must already be built; CI builds the whole
//! workspace in release before invoking this target.

use netsmith_gen::anneal::{anneal, AnnealConfig};
use netsmith_gen::{GenerationProblem, Objective};
use netsmith_obs::{MemoryRecorder, Obs};
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, ndbt_route, MclbConfig};
use netsmith_sim::{NetworkSim, SimConfig};
use netsmith_topo::json::Json;
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{expert, Layout, LinkClass, Topology};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Pre-rework numbers, measured with this exact harness at the commit
/// before the compiled flat-state engine landed (1-core container; only
/// ratios against `current` are meaningful across machines).
const BASELINE_FIG08_FLITS_PER_SEC: f64 = 9_452_136.0;
const BASELINE_FIG11_FLITS_PER_SEC: f64 = 4_376_432.0;
const BASELINE_SIM5000_MEDIAN_MS: f64 = 4.425;
const BASELINE_SUITE_QUICK_SECONDS: f64 = 25.4;

const DEFAULT_SAMPLES: usize = 15;

/// Evaluation budget of the obs overhead probe (small enough that the
/// 2 × 15-sample protocol stays in single-digit seconds).
const OBS_OVERHEAD_EVALS: u64 = 5_000;

/// Evaluation budget of the `anneal_48r` probe: nsbench design48's
/// per-worker budget.
const ANNEAL_48R_EVALS: u64 = 12_000;

/// Offered load of the `sim_48r_saturated` probe (flits/node/cycle): past
/// the 8x6 folded torus's saturation point.
const SIM_48R_SATURATED_LOAD: f64 = 1.0;

const PROBES: &[&str] = &[
    "fig08_sim",
    "fig11_sim",
    "trace_replay",
    "sim_5000_cycles_midload",
    "obs_overhead",
    "anneal_48r",
    "sim_48r_saturated",
    "serving_horizon",
    "suite_quick",
];

fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_10.json")
}

/// Sweep repetitions for the single-sweep throughput probes: each sweep
/// is only tens to hundreds of milliseconds, where scheduler jitter on a
/// shared box is a ±15% effect, so both `--record` and `--check` keep
/// the best of three consecutive sweeps — the repeatable ceiling rather
/// than one draw — and the `--check` floors stay meaningful.
const THROUGHPUT_REPS: usize = 3;

fn best_of(mut sweep: impl FnMut() -> SimBenchResult) -> SimBenchResult {
    let mut best = sweep();
    for _ in 1..THROUGHPUT_REPS {
        let r = sweep();
        if r.seconds < best.seconds {
            best = r;
        }
    }
    best
}

struct SimBenchResult {
    flits: u64,
    seconds: f64,
}

impl SimBenchResult {
    fn flits_per_sec(&self) -> f64 {
        self.flits as f64 / self.seconds
    }
}

/// Route + allocate each topology, then time construction and all runs
/// (identical protocol to the recorded baseline: preparation outside the
/// clock, `NetworkSim` construction and every load point inside it).
fn sim_bench(topos: &[Topology], loads: &[f64], config: &SimConfig) -> SimBenchResult {
    let mut prepared = Vec::new();
    for topo in topos {
        let paths = all_shortest_paths(topo);
        let table = mclb_route(&paths, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        prepared.push((topo, table, alloc));
    }
    let mut flits = 0u64;
    let start = Instant::now();
    for (topo, table, alloc) in &prepared {
        let sim = NetworkSim::builder(topo, table)
            .vcs(alloc)
            .pattern(TrafficPattern::UniformRandom)
            .config(config.clone())
            .compile();
        for &load in loads {
            let report = sim.run(load);
            flits += report.activity.total_link_flits();
        }
    }
    SimBenchResult {
        flits,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn fig08_bench(config: &SimConfig) -> SimBenchResult {
    let layout = Layout::noi_4x5();
    best_of(|| {
        sim_bench(
            &[expert::mesh(&layout), expert::folded_torus(&layout)],
            &[0.05, 0.1, 0.2, 0.3],
            config,
        )
    })
}

fn fig11_bench(config: &SimConfig) -> SimBenchResult {
    best_of(|| {
        sim_bench(
            &[expert::folded_torus(&Layout::noi_8x6())],
            &netsmith_sim::sweep::default_load_grid(),
            config,
        )
    })
}

/// Trace-replay throughput: the fig15 bursty-hotspot trace replayed on
/// the folded torus across the default load grid, timed with the same
/// protocol as `sim_bench` (preparation outside the clock, construction
/// and every load point inside it).  Replay is RNG-free, so the flit
/// count is a fixed function of the trace and grid.
fn trace_replay_bench(config: &SimConfig) -> SimBenchResult {
    let layout = Layout::noi_4x5();
    let torus = expert::folded_torus(&layout);
    let paths = all_shortest_paths(&torus);
    let table = mclb_route(&paths, &MclbConfig::default());
    let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
    let trace = std::sync::Arc::new(
        netsmith_trace::generate_named("onoff-hotspot", 20, 4_096, 15).unwrap(),
    );
    let loads = netsmith_sim::sweep::default_load_grid();
    best_of(|| {
        let mut flits = 0u64;
        let start = Instant::now();
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .trace(std::sync::Arc::clone(&trace))
            .config(config.clone())
            .compile();
        for &load in &loads {
            let report = sim.run(load);
            flits += report.activity.total_link_flits();
        }
        SimBenchResult {
            flits,
            seconds: start.elapsed().as_secs_f64(),
        }
    })
}

/// Order statistics of a timed sample set, in milliseconds.  Quartiles
/// are taken at the `len/4` and `3*len/4` sorted ranks — crude, but
/// stable across sample counts and enough to read run-to-run spread.
struct SampleStats {
    min_ms: f64,
    median_ms: f64,
    iqr_ms: f64,
    samples: usize,
}

fn sample_stats(mut samples: Vec<f64>) -> SampleStats {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    SampleStats {
        min_ms: samples[0],
        median_ms: samples[n / 2],
        iqr_ms: samples[(3 * n) / 4] - samples[n / 4],
        samples: n,
    }
}

/// Run times of the criterion `sim_5000_cycles_midload` scenario.
fn sim5000_stats(samples: usize) -> SampleStats {
    let layout = Layout::noi_4x5();
    let kite = expert::kite_medium(&layout);
    let paths = all_shortest_paths(&kite);
    let table = mclb_route(&paths, &MclbConfig::default());
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
    sample_stats(
        (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(sim.run(0.3));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

struct ObsOverheadResult {
    noop_median_ms: f64,
    memory_median_ms: f64,
}

impl ObsOverheadResult {
    fn enabled_over_noop(&self) -> f64 {
        self.memory_median_ms / self.noop_median_ms
    }
}

/// Disabled-instrumentation overhead of the obs layer: median wall-clock
/// of a fixed annealing run — the per-move counter/span hot path — under
/// the no-op recorder vs a live in-memory recorder.  The no-op number is
/// what every unobserved run pays; the ratio documents how cheap turning
/// the recorder on is.
fn obs_overhead(samples: usize) -> ObsOverheadResult {
    let problem = GenerationProblem::new(Layout::noi_4x5(), LinkClass::Medium, Objective::LatOp);
    let config = AnnealConfig {
        max_evaluations: OBS_OVERHEAD_EVALS,
        ..AnnealConfig::quick()
    };
    let median_ms = |obs: &Obs| {
        sample_stats(
            (0..samples.max(1))
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(anneal(&problem, &config, 0.0, obs));
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect(),
        )
        .median_ms
    };
    ObsOverheadResult {
        noop_median_ms: median_ms(&Obs::noop()),
        memory_median_ms: median_ms(&Obs::to(MemoryRecorder::new())),
    }
}

/// Run times of one single-worker LatOp annealing run on the 8x6 layout
/// (Medium class, default seed) with [`ANNEAL_48R_EVALS`] evaluations
/// under the no-op recorder.  Nearly all of it is
/// `TopoAnalysis::after_move`, so this probe guards the hop-distance
/// kernel.  The time budget is an hour so the wall clock never cuts the
/// run short.
fn anneal_48r_stats(samples: usize) -> SampleStats {
    let problem = GenerationProblem::new(Layout::noi_8x6(), LinkClass::Medium, Objective::LatOp);
    let config = AnnealConfig {
        max_evaluations: ANNEAL_48R_EVALS,
        time_budget: std::time::Duration::from_secs(3600),
        ..AnnealConfig::default()
    };
    sample_stats(
        (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                let result = anneal(&problem, &config, 0.0, &Obs::noop());
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(result.evaluations, ANNEAL_48R_EVALS);
                ms
            })
            .collect(),
    )
}

/// Run times of one compiled run of the 8x6 folded torus (NDBT routing,
/// 6 VCs, uniform random traffic, the Medium-class windows of nsbench
/// design48) at [`SIM_48R_SATURATED_LOAD`].  Past saturation every source
/// stays backlogged for the whole window, so this probe guards the
/// injection path and the engine's cost per flit where design48's sweeps
/// spend most of their simulator time.
fn sim_48r_saturated_stats(samples: usize) -> SampleStats {
    let layout = Layout::noi_8x6();
    let torus = expert::folded_torus(&layout);
    let paths = all_shortest_paths(&torus);
    let table = ndbt_route(&layout, &paths, 42).0;
    let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
    let sim = NetworkSim::builder(&torus, &table)
        .vcs(&alloc)
        .pattern(TrafficPattern::UniformRandom)
        .config(SimConfig::for_class(LinkClass::Medium))
        .compile();
    sample_stats(
        (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(sim.run(SIM_48R_SATURATED_LOAD));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// Horizon length of the serving probe: long enough that the per-epoch
/// compile/run/gate cycle dominates, short enough for a sub-second probe.
const SERVING_PROBE_EPOCHS: u64 = 48;

/// End-to-end serving-loop times: a fig16-style closed-loop link-sleep
/// lifetime (diurnal load, one fault, online repair and re-gating every
/// epoch) on the folded torus.  This is the whole `netsmith-serve` path —
/// load process, policy decision, per-epoch compiled runs, energy
/// accounting, histogram merging — so it catches regressions the
/// steady-state simulator probes cannot see.
fn serving_horizon_stats(samples: usize) -> SampleStats {
    use netsmith_serve::{serve, LoadSpec, PolicyKind, ServingConfig, ServingInputs, TapeSpec};
    let layout = Layout::noi_4x5();
    let torus = expert::folded_torus(&layout);
    let paths = all_shortest_paths(&torus);
    let table = mclb_route(&paths, &MclbConfig::default());
    let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
    let config = ServingConfig {
        epochs: SERVING_PROBE_EPOCHS,
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
    sample_stats(
        (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(serve(&inputs, &config, &netsmith_obs::Obs::noop()));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// Wall-clock of a full `suite --quick` run (stdout discarded; stderr — the
/// per-figure progress log — passes through).
fn suite_quick_seconds() -> f64 {
    let suite = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("suite");
    let start = Instant::now();
    let status = Command::new(&suite)
        .arg("--quick")
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {}: {e}", suite.display()));
    assert!(status.success(), "suite --quick failed: {status}");
    start.elapsed().as_secs_f64()
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Indented printer for the committed artifact (the compact `Display`
/// form parses identically; this one diffs better).
fn pretty(json: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match json {
        Json::Obj(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (key, value)) in members.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                out.push_str(&Json::Str(key.clone()).to_string());
                out.push_str(": ");
                pretty(value, indent + 1, out);
                if i + 1 < members.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn print_sim(name: &str, r: &SimBenchResult, baseline: f64) {
    eprintln!(
        "{name}: {} flits in {:.3}s = {:.0} flits/sec ({:.1}x baseline)",
        r.flits,
        r.seconds,
        r.flits_per_sec(),
        r.flits_per_sec() / baseline,
    );
}

fn record(probe: Option<&str>, samples: usize) {
    let config = SimConfig::for_class(LinkClass::Medium);
    let run = |name: &str| probe.is_none() || probe == Some(name);

    let mut fig08 = None;
    if run("fig08_sim") {
        eprintln!("# perf: fig08_sim");
        let r = fig08_bench(&config);
        print_sim("fig08_sim", &r, BASELINE_FIG08_FLITS_PER_SEC);
        fig08 = Some(r);
    }

    let mut fig11 = None;
    if run("fig11_sim") {
        eprintln!("# perf: fig11_sim");
        let r = fig11_bench(&config);
        print_sim("fig11_sim", &r, BASELINE_FIG11_FLITS_PER_SEC);
        fig11 = Some(r);
    }

    let mut trace = None;
    if run("trace_replay") {
        eprintln!("# perf: trace_replay");
        let r = trace_replay_bench(&config);
        eprintln!(
            "trace_replay: {} flits in {:.3}s = {:.0} flits/sec",
            r.flits,
            r.seconds,
            r.flits_per_sec(),
        );
        trace = Some(r);
    }

    let mut sim5000 = None;
    if run("sim_5000_cycles_midload") {
        eprintln!("# perf: sim_5000_cycles_midload");
        let s = sim5000_stats(samples);
        eprintln!(
            "sim_5000_cycles_midload: median {:.3} ms, min {:.3} ms, IQR {:.3} ms \
             over {} samples ({:.1}x baseline)",
            s.median_ms,
            s.min_ms,
            s.iqr_ms,
            s.samples,
            BASELINE_SIM5000_MEDIAN_MS / s.median_ms,
        );
        sim5000 = Some(s);
    }

    let mut obs = None;
    if run("obs_overhead") {
        eprintln!("# perf: obs_overhead");
        let o = obs_overhead(samples);
        eprintln!(
            "obs_overhead: anneal {OBS_OVERHEAD_EVALS} evals, noop {:.3} ms, \
             in-memory {:.3} ms ({:.2}x)",
            o.noop_median_ms,
            o.memory_median_ms,
            o.enabled_over_noop(),
        );
        obs = Some(o);
    }

    let mut anneal48 = None;
    if run("anneal_48r") {
        eprintln!("# perf: anneal_48r");
        let s = anneal_48r_stats(samples);
        eprintln!(
            "anneal_48r: {ANNEAL_48R_EVALS} evals, median {:.3} ms, min {:.3} ms, \
             IQR {:.3} ms over {} samples",
            s.median_ms, s.min_ms, s.iqr_ms, s.samples,
        );
        anneal48 = Some(s);
    }

    let mut saturated = None;
    if run("sim_48r_saturated") {
        eprintln!("# perf: sim_48r_saturated");
        let s = sim_48r_saturated_stats(samples);
        eprintln!(
            "sim_48r_saturated: load {SIM_48R_SATURATED_LOAD}, median {:.3} ms, min {:.3} ms, \
             IQR {:.3} ms over {} samples",
            s.median_ms, s.min_ms, s.iqr_ms, s.samples,
        );
        saturated = Some(s);
    }

    let mut serving = None;
    if run("serving_horizon") {
        eprintln!("# perf: serving_horizon");
        let s = serving_horizon_stats(samples);
        eprintln!(
            "serving_horizon: {SERVING_PROBE_EPOCHS} epochs, median {:.3} ms, min {:.3} ms, \
             IQR {:.3} ms over {} samples",
            s.median_ms, s.min_ms, s.iqr_ms, s.samples,
        );
        serving = Some(s);
    }

    let mut suite_seconds = None;
    if run("suite_quick") {
        eprintln!("# perf: suite --quick");
        let s = suite_quick_seconds();
        eprintln!(
            "suite --quick: {s:.1}s ({:.1}x baseline)",
            BASELINE_SUITE_QUICK_SECONDS / s,
        );
        suite_seconds = Some(s);
    }

    if probe.is_some() {
        // Single-probe iteration: print-only, keep the committed artifact.
        return;
    }
    let (fig08, fig11, trace) = (fig08.unwrap(), fig11.unwrap(), trace.unwrap());
    let (sim5000, obs, serving) = (sim5000.unwrap(), obs.unwrap(), serving.unwrap());
    let (anneal48, saturated) = (anneal48.unwrap(), saturated.unwrap());
    let suite_seconds = suite_seconds.unwrap();

    let sim_section = |r: &SimBenchResult, baseline: f64| {
        obj(vec![
            ("flits", Json::Num(r.flits as f64)),
            ("seconds", Json::Num(round3(r.seconds))),
            ("flits_per_sec", Json::Num(r.flits_per_sec().round())),
            (
                "speedup_vs_baseline",
                Json::Num(round3(r.flits_per_sec() / baseline)),
            ),
        ])
    };
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
            obj(vec![
                (
                    "fig08_sim_flits_per_sec",
                    Json::Num(BASELINE_FIG08_FLITS_PER_SEC),
                ),
                (
                    "fig11_sim_flits_per_sec",
                    Json::Num(BASELINE_FIG11_FLITS_PER_SEC),
                ),
                (
                    "sim_5000_cycles_midload_median_ms",
                    Json::Num(BASELINE_SIM5000_MEDIAN_MS),
                ),
                (
                    "suite_quick_seconds",
                    Json::Num(BASELINE_SUITE_QUICK_SECONDS),
                ),
            ]),
        ),
        (
            "current",
            obj(vec![
                (
                    "fig08_sim",
                    sim_section(&fig08, BASELINE_FIG08_FLITS_PER_SEC),
                ),
                (
                    "fig11_sim",
                    sim_section(&fig11, BASELINE_FIG11_FLITS_PER_SEC),
                ),
                (
                    // New probe in bench 7 (trace replay landed with it), so
                    // there is no pre-rework baseline to compare against.
                    "trace_replay",
                    obj(vec![
                        ("flits", Json::Num(trace.flits as f64)),
                        ("seconds", Json::Num(round3(trace.seconds))),
                        ("flits_per_sec", Json::Num(trace.flits_per_sec().round())),
                    ]),
                ),
                (
                    "sim_5000_cycles_midload",
                    obj(vec![
                        ("median_ms", Json::Num(round3(sim5000.median_ms))),
                        ("min_ms", Json::Num(round3(sim5000.min_ms))),
                        ("iqr_ms", Json::Num(round3(sim5000.iqr_ms))),
                        ("samples", Json::Num(sim5000.samples as f64)),
                        (
                            "speedup_vs_baseline",
                            Json::Num(round3(BASELINE_SIM5000_MEDIAN_MS / sim5000.median_ms)),
                        ),
                    ]),
                ),
                (
                    // New probe in bench 8 (landed with the obs layer):
                    // the no-op recorder must keep unobserved runs at
                    // pre-instrumentation speed, so the interesting
                    // figure is the enabled/noop ratio, not a baseline.
                    "obs_overhead",
                    obj(vec![
                        ("anneal_evals", Json::Num(OBS_OVERHEAD_EVALS as f64)),
                        ("noop_median_ms", Json::Num(round3(obs.noop_median_ms))),
                        ("memory_median_ms", Json::Num(round3(obs.memory_median_ms))),
                        (
                            "enabled_over_noop",
                            Json::Num(round3(obs.enabled_over_noop())),
                        ),
                    ]),
                ),
                (
                    // Guards the word-bitset BFS kernel behind every
                    // annealer evaluation; only the median is gated.
                    "anneal_48r",
                    obj(vec![("median_ms", Json::Num(round3(anneal48.median_ms)))]),
                ),
                (
                    // One post-saturation compiled run; only the median is
                    // gated.
                    "sim_48r_saturated",
                    obj(vec![
                        ("load", Json::Num(SIM_48R_SATURATED_LOAD)),
                        ("median_ms", Json::Num(round3(saturated.median_ms))),
                        ("min_ms", Json::Num(round3(saturated.min_ms))),
                        ("samples", Json::Num(saturated.samples as f64)),
                    ]),
                ),
                (
                    // New probe in bench 10 (landed with netsmith-serve):
                    // times the whole closed-loop serving path, so there
                    // is no earlier baseline to compare against.
                    "serving_horizon",
                    obj(vec![
                        ("epochs", Json::Num(SERVING_PROBE_EPOCHS as f64)),
                        ("median_ms", Json::Num(round3(serving.median_ms))),
                        ("min_ms", Json::Num(round3(serving.min_ms))),
                        ("iqr_ms", Json::Num(round3(serving.iqr_ms))),
                        ("samples", Json::Num(serving.samples as f64)),
                    ]),
                ),
                (
                    "suite_quick",
                    obj(vec![
                        ("seconds", Json::Num(round3(suite_seconds))),
                        (
                            "speedup_vs_baseline",
                            Json::Num(round3(BASELINE_SUITE_QUICK_SECONDS / suite_seconds)),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);
    let mut text = String::new();
    pretty(&doc, 0, &mut text);
    text.push('\n');
    Json::parse(&text).expect("emitted BENCH_10.json must parse");
    let path = bench_path();
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("# perf: wrote {}", path.display());
}

/// Read `current.<probe>.<field>` out of the committed artifact.
fn recorded(doc: &Json, probe: &str, field: &str) -> f64 {
    doc.require("current")
        .and_then(|c| c.require(probe))
        .and_then(|s| s.require(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|e| panic!("BENCH_10.json: current.{probe}.{field}: {e}"))
}

fn check(probe: Option<&str>, samples: usize) {
    let path = bench_path();
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = Json::parse(&text).expect("BENCH_10.json must parse");
    // The tolerance absorbs run-to-run container noise (the probes are
    // single-shot wall-clock measurements on a shared box); 25% headroom
    // keeps the gates quiet on scheduling jitter while still catching
    // any real hot-loop regression.
    let tolerance = std::env::var("PERF_CHECK_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.25);
    eprintln!("# perf --check: tolerance {tolerance}x over recorded values");
    let config = SimConfig::for_class(LinkClass::Medium);
    let run = |name: &str| probe.is_none() || probe == Some(name);
    let mut checked = 0u32;

    // Throughput floor: measured flits/sec >= recorded / tolerance.
    let mut gate_fps = |name: &str, r: &SimBenchResult| {
        let rec = recorded(&doc, name, "flits_per_sec");
        let floor = rec / tolerance;
        let got = r.flits_per_sec();
        assert!(
            got >= floor,
            "{name} regressed: {got:.0} flits/sec < floor {floor:.0} \
             ({rec:.0} recorded / {tolerance} tolerance)"
        );
        eprintln!("# perf --check: {name} {got:.0} flits/sec >= {floor:.0}, ok");
        checked += 1;
    };
    if run("fig08_sim") {
        gate_fps("fig08_sim", &fig08_bench(&config));
    }
    if run("fig11_sim") {
        gate_fps("fig11_sim", &fig11_bench(&config));
    }
    if run("trace_replay") {
        gate_fps("trace_replay", &trace_replay_bench(&config));
    }

    // Latency ceilings: measured time <= recorded * tolerance.
    if run("sim_5000_cycles_midload") {
        let rec = recorded(&doc, "sim_5000_cycles_midload", "median_ms");
        let limit = rec * tolerance;
        let got = sim5000_stats(samples).median_ms;
        assert!(
            got <= limit,
            "sim_5000_cycles_midload regressed: median {got:.3} ms > {limit:.3} ms \
             ({rec:.3} ms recorded x {tolerance} tolerance)"
        );
        eprintln!(
            "# perf --check: sim_5000_cycles_midload median {got:.3} ms <= {limit:.3} ms, ok"
        );
        checked += 1;
    }
    if run("obs_overhead") {
        let rec = recorded(&doc, "obs_overhead", "noop_median_ms");
        let limit = rec * tolerance;
        let got = obs_overhead(samples).noop_median_ms;
        assert!(
            got <= limit,
            "obs_overhead regressed: noop median {got:.3} ms > {limit:.3} ms \
             ({rec:.3} ms recorded x {tolerance} tolerance)"
        );
        eprintln!("# perf --check: obs_overhead noop {got:.3} ms <= {limit:.3} ms, ok");
        checked += 1;
    }
    if run("anneal_48r") {
        let rec = recorded(&doc, "anneal_48r", "median_ms");
        let limit = rec * tolerance;
        let got = anneal_48r_stats(samples).median_ms;
        assert!(
            got <= limit,
            "anneal_48r regressed: median {got:.3} ms > {limit:.3} ms \
             ({rec:.3} ms recorded x {tolerance} tolerance)"
        );
        eprintln!("# perf --check: anneal_48r median {got:.3} ms <= {limit:.3} ms, ok");
        checked += 1;
    }
    if run("sim_48r_saturated") {
        let rec = recorded(&doc, "sim_48r_saturated", "median_ms");
        let limit = rec * tolerance;
        let got = sim_48r_saturated_stats(samples).median_ms;
        assert!(
            got <= limit,
            "sim_48r_saturated regressed: median {got:.3} ms > {limit:.3} ms \
             ({rec:.3} ms recorded x {tolerance} tolerance)"
        );
        eprintln!("# perf --check: sim_48r_saturated median {got:.3} ms <= {limit:.3} ms, ok");
        checked += 1;
    }
    if run("serving_horizon") {
        let rec = recorded(&doc, "serving_horizon", "median_ms");
        let limit = rec * tolerance;
        let got = serving_horizon_stats(samples).median_ms;
        assert!(
            got <= limit,
            "serving_horizon regressed: median {got:.3} ms > {limit:.3} ms \
             ({rec:.3} ms recorded x {tolerance} tolerance)"
        );
        eprintln!("# perf --check: serving_horizon median {got:.3} ms <= {limit:.3} ms, ok");
        checked += 1;
    }
    if run("suite_quick") {
        let rec = recorded(&doc, "suite_quick", "seconds");
        let limit = rec * tolerance;
        let got = suite_quick_seconds();
        assert!(
            got <= limit,
            "suite --quick regressed: {got:.1}s > {limit:.1}s \
             ({rec:.1}s recorded x {tolerance} tolerance)"
        );
        eprintln!("# perf --check: suite --quick {got:.1}s <= {limit:.1}s, ok");
        checked += 1;
    }
    assert!(checked > 0, "no probe matched {probe:?}");
    eprintln!("# perf --check: {checked} probe(s) ok");
}

fn usage() -> ! {
    eprintln!(
        "usage: perf [--record | --check] [--probe <name>] [--samples <n>]\n\
         probes: {}",
        PROBES.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_check = false;
    let mut probe: Option<String> = None;
    let mut samples = DEFAULT_SAMPLES;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--record" => mode_check = false,
            "--check" => mode_check = true,
            "--probe" => {
                let name = it.next().unwrap_or_else(|| usage());
                if !PROBES.contains(&name.as_str()) {
                    eprintln!("unknown probe {name:?}");
                    usage();
                }
                probe = Some(name.clone());
            }
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
    if mode_check {
        check(probe.as_deref(), samples);
    } else {
        record(probe.as_deref(), samples);
    }
}
