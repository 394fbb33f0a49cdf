//! The NetSmith benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics traced.
//!
//! ```text
//! cargo run --release --manifest-path nsbench/Cargo.toml -- \
//!     --workload design48|sweep20|serve20 --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are a
//! human-readable report starting with `#`.  See `README.md`.

mod checks;
mod common;
mod design48;
mod probe;
mod serve20;
mod sweep20;

use checks::Checks;
use common::{Quality, Scale};
use netsmith_pool::WorkerPool;
use probe::Probe;
use std::time::Instant;

/// Set-up runs at least this many times and for at least
/// [`SETUP_SECONDS`] of wall time (at most [`SETUP_MAX_REPEATS`] times);
/// `setup_s` is the median CPU time, so a cheap set-up is sampled often
/// enough to be steady.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 25;
const SETUP_SECONDS: f64 = 2.0;

/// The seed whose simulated-output digests are recorded below.
const RECORDED_SEED: u64 = 1;

/// Digests of every simulated output at [`RECORDED_SEED`], full scale,
/// two discovery workers.  A mismatch is a failed operation: the program
/// got faster (or slower) by computing something different.
const RECORDED_DIGESTS: [(&str, u64); 3] = [
    ("design48", 0x979f_b7f2_00e1_dfdf),
    ("sweep20", 0x48dc_6480_9b49_8d3d),
    ("serve20", 0xaec2_75ae_9afc_772a),
];

pub const WORKLOADS: [&str; 3] = ["design48", "sweep20", "serve20"];

/// One workload after set-up.
pub trait Workload {
    /// Run the measured unit once.  `None` when a pipeline error left it
    /// without its quality metrics (the error is already counted).
    fn iterate(&mut self, probe: &mut Probe, checks: &mut Checks) -> Option<Quality>;

    /// Traced runs only, after the measured phase: add per-call estimates
    /// for calls the benchmark cannot time directly, scaled to `horizons`
    /// traced iterations.
    fn calibrate(&mut self, _probe: &mut Probe, _checks: &mut Checks, _horizons: u64) {}

    /// The work inside an iteration that no timed call covers.
    fn untimed(&self) -> &'static str {
        "digests and output checks"
    }
}

fn setup(
    workload: &str,
    seed: u64,
    scale: &Scale,
    checks: &mut Checks,
) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "design48" => Box::new(design48::setup(seed, scale, checks)),
        "sweep20" => Box::new(sweep20::setup(seed, scale, checks)),
        "serve20" => Box::new(serve20::setup(seed, scale, checks)?),
        _ => unreachable!("workload names are checked when parsing"),
    })
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: netsmith-benchmark --workload <design48|sweep20|serve20> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The smallest value, or 0 for none.
fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time used so far by every thread of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).  The timed end-to-end metrics are CPU
/// time: on a host whose cores are shared with other tenants, wall time
/// also counts the time the process waited for a core.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU and wall seconds of each repetition of one phase.
#[derive(Default)]
struct Samples {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl Samples {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        let out = f();
        self.cpu.push(cpu_seconds() - cpu);
        self.wall.push(wall.elapsed().as_secs_f64());
        out
    }

    fn len(&self) -> usize {
        self.wall.len()
    }
}

/// A finished run: the report lines and the final JSON line.
pub struct Outcome {
    pub lines: Vec<String>,
    pub json: String,
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn run(args: &Args, scale: &Scale) -> Outcome {
    let workers = common::discovery_workers();
    let pool = WorkerPool::global();
    let mut lines = vec![format!(
        "# host: available_parallelism={} pool_width={} discovery_workers={workers} \
         seed={} profile={} workload={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool.threads(),
        args.seed,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload,
        u8::from(args.trace),
    )];
    let mut checks = Checks::default();

    let mut setup_times = Samples::default();
    let mut workload = None;
    while setup_times.len() < SETUP_MIN_REPEATS
        || (setup_times.wall.iter().sum::<f64>() < SETUP_SECONDS
            && setup_times.len() < SETUP_MAX_REPEATS)
    {
        workload = setup_times.time(|| setup(&args.workload, args.seed, scale, &mut checks));
    }

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut probe = Probe::on();
    let (mut pool_tasks, mut pool_wait_us) = (0u64, 0u64);
    let mut quality: Option<Quality> = None;
    if let Some(w) = workload.as_mut() {
        let start = Instant::now();
        let mut same = |q: Option<Quality>, checks: &mut Checks| match (q, quality) {
            (Some(q), Some(first)) => {
                checks.check(q == first, || "outputs differ between iterations".into());
            }
            (Some(q), None) => quality = Some(q),
            (None, _) => {}
        };
        loop {
            let q = untraced.time(|| w.iterate(&mut Probe::off(), &mut checks));
            same(q, &mut checks);
            if args.trace {
                let mut p = Probe::on();
                let before = pool.stats();
                let q = traced.time(|| w.iterate(&mut p, &mut checks));
                let after = pool.stats();
                pool_tasks += after.tasks - before.tasks;
                pool_wait_us += after.queue_wait_us - before.queue_wait_us;
                probe.absorb(p);
                same(q, &mut checks);
            }
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        if args.trace {
            w.calibrate(&mut probe, &mut checks, traced.len() as u64);
        }
    }

    let quality = quality.unwrap_or(Quality {
        sat_pkts_per_ns: 0.0,
        avg_hops: 0.0,
        low_load_latency_ns: 0.0,
        p99_latency_cycles: 0.0,
        availability: 0.0,
        energy_per_flit_pj: 0.0,
        digest: 0,
    });
    let recorded = RECORDED_DIGESTS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, d)| d);
    if args.seed == RECORDED_SEED && workers == 2 && scale.design_layout.num_routers() == 48 {
        if let Some(expected) = recorded {
            checks.check(quality.digest == expected, || {
                format!(
                    "digest {:#018x} != recorded {expected:#018x}",
                    quality.digest
                )
            });
        }
    }
    lines.push(format!(
        "# outputs: digest={:#018x} iterations={} traced_iterations={}",
        quality.digest,
        untraced.len(),
        traced.len()
    ));
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut report = |phase: &str, s: &Samples| {
        lines.push(format!(
            "# {phase} seconds: cpu {} | wall {} | cpu min {:.4} median {:.4} | wall min {:.4} median {:.4}",
            fmt(&s.cpu),
            fmt(&s.wall),
            minimum(&s.cpu),
            median(&s.cpu),
            minimum(&s.wall),
            median(&s.wall)
        ));
    };
    report("setup", &setup_times);
    report("iteration", &untraced);
    if args.trace {
        report("traced iteration", &traced);
    }

    let metrics = if args.trace {
        let w = workload.as_deref();
        per_layer(
            &probe,
            &traced,
            &untraced,
            pool_tasks,
            pool_wait_us,
            w,
            args,
            &mut lines,
        )
    } else {
        let attempted = checks.attempted.max(1) as f64;
        vec![
            m("setup_s", median(&setup_times.cpu), "s"),
            m("best_cpu_s", minimum(&untraced.cpu), "s"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
            m(
                "success_rate",
                1.0 - checks.failed as f64 / attempted,
                "ratio",
            ),
            m("sat_pkts_per_ns", quality.sat_pkts_per_ns, "pkt/node/ns"),
            m("avg_hops", quality.avg_hops, "hops"),
            m("low_load_latency_ns", quality.low_load_latency_ns, "ns"),
            m("p99_latency_cycles", quality.p99_latency_cycles, "cycles"),
            m("availability", quality.availability, "ratio"),
            m("energy_per_flit_pj", quality.energy_per_flit_pj, "pJ"),
        ]
    };
    for metric in &metrics {
        checks.check(metric.value.is_finite(), || {
            format!("{} is not finite", metric.name)
        });
    }
    for f in &checks.failures {
        lines.push(format!("# FAILED: {f}"));
    }
    for metric in &metrics {
        lines.push(format!(
            "# {:<22} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            // A non-finite value is a counted failure; keep the JSON valid.
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            )
        })
        .collect();
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    Outcome { lines, json }
}

/// Total seconds of every call site named `key` or nested under the name
/// `key.*` (serve20 splits route calls by the gate/repair call they sit in).
fn seconds_of(probe: &Probe, key: &str) -> f64 {
    probe
        .stats()
        .filter(|(name, _)| {
            *name == key || name.strip_prefix(key).is_some_and(|r| r.starts_with('.'))
        })
        .fold(0.0, |total, (_, s)| total + s.seconds)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    probe: &Probe,
    traced: &Samples,
    untraced: &Samples,
    pool_tasks: u64,
    pool_wait_us: u64,
    workload: Option<&dyn Workload>,
    args: &Args,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let ms = |key: &str| seconds_of(probe, key) * 1e3 / n;
    let per = |counter: &str| probe.counter(counter) / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // The probe times calls with `Instant`, so coverage is a share of
    // wall time.
    let traced_wall: f64 = traced.wall.iter().sum();
    let horizon = probe.seconds("serve.horizon");
    let (covered, frame) = if horizon > 0.0 {
        let inner = probe
            .stats()
            .filter(|(_, s)| s.parent == Some("serve.horizon"))
            .map(|(_, s)| s.seconds)
            .sum::<f64>();
        (inner, horizon)
    } else {
        let top = probe
            .stats()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(_, s)| s.seconds)
            .sum::<f64>();
        (top, traced_wall)
    };
    let coverage = ratio(covered, frame);
    let synthetic = probe.counter("sim.flits.synthetic");
    let trace_flits = probe.counter("sim.flits.trace");
    let accepted = probe.counter("gen.accepted");
    let route_calls: u64 = probe
        .stats()
        .filter(|(name, _)| name.starts_with("route."))
        .map(|(_, s)| s.calls)
        .sum();
    let metrics = vec![
        m("gen.discover_s", probe.seconds("gen.discover") / n, "s"),
        m("gen.evals", per("gen.evals"), "count"),
        m(
            "gen.evals_per_s",
            ratio(probe.counter("gen.evals"), probe.seconds("gen.discover")),
            "1/s",
        ),
        m(
            "gen.accept_ratio",
            ratio(accepted, accepted + probe.counter("gen.rejected")),
            "ratio",
        ),
        m("route.paths_ms", ms("route.paths"), "ms"),
        m("route.mclb_ms", ms("route.mclb"), "ms"),
        m("route.ndbt_ms", ms("route.ndbt"), "ms"),
        m("route.vcs_ms", ms("route.vcs"), "ms"),
        m("route.verify_ms", ms("route.verify"), "ms"),
        m("route.calls", route_calls as f64 / n, "count"),
        m("topo.metrics_ms", ms("topo.metrics"), "ms"),
        m("topo.connectivity_ms", ms("topo.connectivity"), "ms"),
        m("sim.compile_ms", ms("sim.compile"), "ms"),
        m("sim.run_ms", ms("sim.run") + ms("sim.replay"), "ms"),
        m("sim.runs", per("sim.runs"), "count"),
        m("sim.flits", (synthetic + trace_flits) / n, "count"),
        m(
            "sim.flits_per_s",
            ratio(synthetic, seconds_of(probe, "sim.run")),
            "1/s",
        ),
        m(
            "sim.trace_flits_per_s",
            ratio(trace_flits, probe.seconds("sim.replay")),
            "1/s",
        ),
        m("energy.gate_ms", ms("energy.gate"), "ms"),
        m("energy.gate_calls", per("energy.gate_calls"), "count"),
        m("energy.gated_pairs", per("energy.gated_pairs"), "count"),
        m("fault.repair_ms", ms("fault.repair"), "ms"),
        m("fault.repairs", per("fault.repairs"), "count"),
        m("power.report_ms", ms("power.report"), "ms"),
        m("serve.horizon_s", horizon / n, "s"),
        m(
            "serve.control_share",
            ratio(
                probe.seconds("energy.gate") + probe.seconds("fault.repair"),
                horizon,
            ),
            "ratio",
        ),
        m("pool.tasks", pool_tasks as f64 / n, "count"),
        m("pool.queue_wait_ms", pool_wait_us as f64 / 1e3 / n, "ms"),
        m("coverage", coverage, "ratio"),
        m(
            "trace_overhead",
            ratio(median(&traced.cpu), median(&untraced.cpu)),
            "ratio",
        ),
    ];
    layer_report(probe, n, frame / n, coverage, workload, args, lines);
    metrics
}

/// The human-readable per-layer table: total and self time per call site
/// and per layer, the ranking, and what coverage leaves out.
fn layer_report(
    probe: &Probe,
    n: f64,
    frame_s: f64,
    coverage: f64,
    workload: Option<&dyn Workload>,
    args: &Args,
    lines: &mut Vec<String>,
) {
    lines.push(format!(
        "# per iteration ({} traced): {:<24} {:>10} {:>10} {:>8}",
        n, "call", "total_ms", "self_ms", "calls"
    ));
    let mut sites: Vec<_> = probe.stats().collect();
    sites.sort_by(|a, b| b.1.seconds.total_cmp(&a.1.seconds));
    for (name, s) in &sites {
        lines.push(format!(
            "#   {:<44} {:>10.3} {:>10.3} {:>8.1}",
            name,
            s.seconds * 1e3 / n,
            probe.self_seconds(name) * 1e3 / n,
            s.calls as f64 / n
        ));
    }
    let mut layers: Vec<(&str, f64)> = Vec::new();
    for (name, _) in &sites {
        let layer = name.split('.').next().unwrap_or(name);
        let own = probe.self_seconds(name);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, total)) => *total += own,
            None => layers.push((layer, own)),
        }
    }
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let frame_label = if probe.seconds("serve.horizon") > 0.0 {
        "serve.horizon"
    } else {
        "wall"
    };
    for (layer, own) in &layers {
        lines.push(format!(
            "# layer self time: {:<8} {:>10.3} ms  {:>5.1}% of {frame_label}",
            layer,
            own * 1e3 / n,
            100.0 * own / n / frame_s.max(f64::MIN_POSITIVE)
        ));
    }
    if args.workload == "design48" {
        let control: Vec<&str> = sites
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| name.starts_with("route.") || name.starts_with("topo."))
            .collect();
        let agrees =
            control.first() == Some(&"route.vcs") && control.get(1) == Some(&"topo.metrics");
        lines.push(format!(
            "# control-plane ranking: {} — {} ROADMAP's table (allocate_vcs first, then cuts)",
            control.join(" > "),
            if agrees {
                "agrees with"
            } else {
                "differs from"
            }
        ));
    }
    if coverage < 0.9 {
        if let Some(w) = workload {
            lines.push(format!(
                "# coverage {coverage:.3} < 0.9: untimed work is {}",
                w.untimed()
            ));
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args, &Scale::full());
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.json);
}

/// The self-test: every workload at tiny sizes, traced and untraced, must
/// pass its output checks and print exactly the metrics `BENCHMARK.json`
/// declares, with the declared units.  Run it with
/// `cargo test --release --manifest-path nsbench/Cargo.toml`.
#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[body.find('[').unwrap()..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn field(entry: &str, key: &str) -> String {
        let tail = &entry[entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5..];
        tail[..tail.find('"').unwrap()].to_string()
    }

    /// `(name, unit)` of every metric in a printed result line.
    fn printed(json: &str) -> Vec<(String, String)> {
        let metrics = &json[json.find("\"metrics\": {").unwrap() + 12..];
        metrics
            .split("}, ")
            .map(|entry| {
                let name = entry.trim_start_matches('"');
                let name = &name[..name.find('"').unwrap()];
                (name.to_string(), field(entry, "unit"))
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                };
                let outcome = run(&args, &Scale::tiny());
                let context = format!("{workload} trace={trace}: {}", outcome.lines.join("\n"));
                assert!(outcome.json.starts_with("{\"correct\": true"), "{context}");
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(printed(&outcome.json), declared(section), "{context}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload serve20 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve20 --seed 1 --seconds -1 --trace 0").is_err());
        assert!(parse("--workload serve20 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload serve20 --seed 1 --seconds 1").is_err());
    }
}
