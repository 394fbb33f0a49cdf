//! Pieces shared by the workloads: the sizes they run at, the timed
//! prepare/sweep steps, and the simulated quality metrics.

use crate::checks::{Checks, Digest};
use crate::probe::Probe;
use netsmith::prelude::*;
use netsmith::route::paths::all_shortest_paths;
use netsmith::route::vc::verify_deadlock_free;
use netsmith::sim::{LatencyStats, NetworkSim, SimReport};
use netsmith::topo::metrics::{unreachable_pairs, TopologyMetrics};
use netsmith::topo::Topology;
use netsmith_pool::WorkerPool;
use std::sync::Arc;

/// VC budget of every prepared network (the paper's 6).
pub const VC_BUDGET: usize = 6;

/// Offered loads up to this (flits/node/cycle) count as low load: well
/// below the saturation point of every network in the line-ups, and below
/// the load where the ON/OFF hotspot trace saturates its hotspot, so the
/// latency, tail and energy metrics read there do not swing with the
/// seed-dependent position of a saturation knee.
pub const LOW_LOAD: f64 = 0.1;

/// Routing and VC-allocation seed of every prepared network.  Fixed, so
/// the workload seed changes the discovered topology and the traffic but
/// not how the fixed expert networks are routed.
pub const PREPARE_SEED: u64 = 42;

/// How big each workload runs.  `full` is the benchmark; `tiny` is the
/// self-test, small enough to run in a unit test.
#[derive(Debug, Clone)]
pub struct Scale {
    pub design_layout: Layout,
    pub sweep_layout: Layout,
    /// Annealer evaluations per discovery worker.
    pub evals_per_worker: u64,
    /// Measurement windows of every load-point simulation.
    pub sim: SimConfig,
    pub grid: Vec<f64>,
    /// Issue horizon of the generated replay traces, in cycles.
    pub trace_cycles: u64,
    pub serve_epochs: u64,
}

impl Scale {
    /// The simulator config of a workload: these windows, with the
    /// traffic seeded from the workload seed.
    pub fn sim_for(&self, seed: u64) -> SimConfig {
        SimConfig {
            seed: netsmith::sim::splitmix64(seed ^ 0x51A1),
            ..self.sim.clone()
        }
    }

    pub fn full() -> Self {
        Scale {
            design_layout: Layout::noi_8x6(),
            sweep_layout: Layout::noi_4x5(),
            evals_per_worker: 12_000,
            sim: SimConfig::for_class(LinkClass::Medium),
            grid: netsmith::sim::sweep::default_load_grid(),
            trace_cycles: 4_096,
            serve_epochs: 96,
        }
    }

    pub fn tiny() -> Self {
        Scale {
            design_layout: Layout::noi_4x5(),
            sweep_layout: Layout::noi_4x5(),
            evals_per_worker: 500,
            sim: SimConfig {
                clock_ghz: LinkClass::Medium.clock_ghz(),
                ..SimConfig::quick()
            },
            grid: vec![0.05, 0.3, 0.9],
            trace_cycles: 512,
            serve_epochs: 8,
        }
    }
}

/// The simulated end-to-end metrics of one workload iteration, plus a
/// digest of every simulated output it produced.  Deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub sat_pkts_per_ns: f64,
    pub avg_hops: f64,
    pub low_load_latency_ns: f64,
    pub p99_latency_cycles: f64,
    pub availability: f64,
    pub energy_per_flit_pj: f64,
    pub digest: u64,
}

/// Discovery workers: two, or one on a single-core host.
pub fn discovery_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Route, allocate, verify and measure one topology, timing each layer
/// call.  Mirrors `EvaluatedNetwork::prepare`, split so each call is timed.
pub fn prepare(
    topology: &Topology,
    scheme: RoutingScheme,
    probe: &mut Probe,
    checks: &mut Checks,
) -> Option<EvaluatedNetwork> {
    let name = topology.name().to_string();
    let seed = PREPARE_SEED;
    let unreachable = probe.time("topo.connectivity", || unreachable_pairs(topology));
    if !checks.check(unreachable == 0 && topology.is_valid(), || {
        format!("{name}: invalid or {unreachable} unreachable pairs")
    }) {
        return None;
    }
    let paths = probe.time("route.paths", || all_shortest_paths(topology));
    let routing = match scheme {
        RoutingScheme::Mclb => probe.time("route.mclb", || {
            mclb_route(
                &paths,
                &MclbConfig {
                    seed,
                    ..MclbConfig::default()
                },
            )
        }),
        RoutingScheme::Ndbt => probe.time("route.ndbt", || {
            ndbt_route(topology.layout(), &paths, seed).0
        }),
    };
    checks.op(
        &format!("{name}: require_complete"),
        routing.require_complete(),
    )?;
    let vcs = probe.time("route.vcs", || allocate_vcs(&routing, VC_BUDGET, seed));
    let vcs = checks.op(&format!("{name}: allocate_vcs"), vcs)?;
    let acyclic = probe.time("route.verify", || verify_deadlock_free(&routing, &vcs));
    checks.check(acyclic, || format!("{name}: allocation not deadlock-free"));
    let metrics = probe.time("topo.metrics", || TopologyMetrics::compute(topology));
    Some(EvaluatedNetwork {
        topology: topology.clone(),
        routing,
        vcs,
        metrics,
        scheme,
    })
}

/// What a sweep injects: a synthetic pattern or a replayed trace.
#[derive(Clone)]
pub enum Source {
    Pattern(TrafficPattern),
    Trace(Arc<Trace>),
}

/// The reports of one sweep and the zero-load latency they are judged by.
pub struct SweepRun {
    pub reports: Vec<SimReport>,
    pub zero_load_latency_cycles: f64,
}

/// Compile one network for `source` and run every load point of `grid`
/// as one batch on the shared worker pool.
pub fn sweep(
    net: &EvaluatedNetwork,
    source: &Source,
    config: &SimConfig,
    grid: &[f64],
    probe: &mut Probe,
) -> SweepRun {
    let builder = net.sim_builder().config(config.clone());
    let builder = match source {
        Source::Pattern(p) => builder.pattern(p.clone()),
        Source::Trace(t) => builder.trace(Arc::clone(t)),
    };
    let sim: NetworkSim<'_> = probe.time("sim.compile", || builder.compile());
    let (run, flits) = match source {
        Source::Pattern(_) => ("sim.run", "sim.flits.synthetic"),
        Source::Trace(_) => ("sim.replay", "sim.flits.trace"),
    };
    let sim_ref = &sim;
    let reports: Vec<SimReport> = probe.time(run, || {
        WorkerPool::global().run(
            grid.iter()
                .map(|&load| {
                    Box::new(move || sim_ref.run(load))
                        as Box<dyn FnOnce() -> SimReport + Send + '_>
                })
                .collect(),
        )
    });
    probe.count("sim.runs", reports.len() as f64);
    probe.count(
        flits,
        reports
            .iter()
            .map(|r| r.activity.total_link_flits() as f64)
            .sum(),
    );
    SweepRun {
        zero_load_latency_cycles: sim.zero_load_latency_cycles(),
        reports,
    }
}

impl SweepRun {
    /// The points at or below [`LOW_LOAD`].
    pub fn low_load(&self) -> impl Iterator<Item = &SimReport> {
        self.reports
            .iter()
            .filter(|r| r.offered_flits_per_node_cycle <= LOW_LOAD)
    }

    /// Mean packet latency over the low-load points, weighted by the
    /// packets each delivered, in ns.
    pub fn low_load_latency_ns(&self) -> f64 {
        let (mut sum, mut packets) = (0.0, 0.0);
        for r in self.low_load() {
            sum += r.avg_latency_ns * r.packets_ejected as f64;
            packets += r.packets_ejected as f64;
        }
        if packets > 0.0 {
            sum / packets
        } else {
            0.0
        }
    }

    /// Saturation throughput in packets/node/ns: the peak accepted
    /// throughput over the sweep, i.e. the plateau a latency/throughput
    /// curve flattens onto.  Unlike the last unsaturated grid point, it
    /// does not jump by a grid step when a point changes classification.
    pub fn saturation_packets_per_ns(&self, config: &SimConfig) -> f64 {
        let peak = self
            .reports
            .iter()
            .map(|r| r.accepted_flits_per_node_cycle)
            .fold(0.0, f64::max);
        config.flit_rate_to_packets_per_ns(peak)
    }

    pub fn unsaturated(&self) -> impl Iterator<Item = &SimReport> {
        self.reports
            .iter()
            .filter(|r| !r.is_saturated(self.zero_load_latency_cycles))
    }

    /// Mean delivered fraction over the unsaturated points: how much of
    /// the offered traffic the network delivers in its operating range.
    pub fn availability(&self) -> f64 {
        let (sum, count) = self.unsaturated().fold((0.0, 0.0), |(s, c), r| {
            (s + r.delivered_fraction(), c + 1.0)
        });
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }

    /// Energy per delivered flit over the low-load points, in pJ: each
    /// point's measured power over its window, divided by the flits it
    /// delivered.
    pub fn energy_per_flit_pj(
        &self,
        net: &EvaluatedNetwork,
        config: &SimConfig,
        probe: &mut Probe,
    ) -> f64 {
        let power_config = PowerConfig::default();
        let n = net.topology.num_routers() as f64;
        let window_ns = config.measure_cycles as f64 / config.clock_ghz;
        let (mut energy_pj, mut flits) = (0.0, 0.0);
        for r in self.low_load() {
            let power = probe.time("power.report", || {
                power_report_from_activity(&net.topology, &power_config, config, &r.activity)
            });
            energy_pj += power.total_mw() * window_ns;
            flits += r.accepted_flits_per_node_cycle * n * config.measure_cycles as f64;
        }
        if flits > 0.0 {
            energy_pj / flits
        } else {
            0.0
        }
    }

    pub fn digest_into(&self, d: &mut Digest) {
        for r in &self.reports {
            d.f64(r.accepted_flits_per_node_cycle);
            d.f64(r.avg_latency_cycles);
            d.f64(r.p99_latency_cycles);
            d.word(r.packets_ejected);
            d.word(r.activity.total_link_flits());
        }
    }
}

/// p99 of the merged latency histograms of `reports`, in cycles.
pub fn merged_p99<'a>(reports: impl Iterator<Item = &'a SimReport>) -> f64 {
    let mut merged = LatencyStats::new();
    for r in reports {
        merged.merge(&r.latency);
    }
    merged.percentile(0.99)
}

/// Range checks every sweep must pass.
pub fn check_sweep(run: &SweepRun, label: &str, checks: &mut Checks) {
    for r in &run.reports {
        checks.unit_interval(
            &format!("{label}: delivered_fraction"),
            r.delivered_fraction(),
        );
    }
}

/// Discover the NS-LatOp topology with an evaluation budget that cannot
/// be cut short by the wall clock, so host speed never changes which
/// topology is found.  Returns `None` (one failed operation) on a
/// discovery error, an invalid or disconnected topology, or an
/// evaluation count other than `workers × budget`.
pub fn discover(
    layout: &Layout,
    seed: u64,
    evals_per_worker: u64,
    probe: &mut Probe,
    checks: &mut Checks,
) -> Option<Topology> {
    let workers = discovery_workers();
    let recorder = probe.enabled().then(|| Obs::to(MemoryRecorder::new()));
    let search = NetSmith::new(layout.clone(), LinkClass::Medium)
        .objective(Objective::LatOp)
        .evaluations(evals_per_worker)
        .workers(workers)
        .seed(seed)
        .time_budget(std::time::Duration::from_secs(24 * 3600))
        .obs(recorder.clone().unwrap_or_else(Obs::noop));
    let result = probe.time("gen.discover", || search.try_discover());
    let result = checks.op("NS-LatOp discovery", result)?;
    let budget = workers as u64 * evals_per_worker;
    let mut evaluations = result.evaluations;
    if let Some(snapshot) = recorder.and_then(|obs| obs.snapshot()) {
        evaluations = snapshot.counter("anneal.evaluations");
        probe.count("gen.evals", evaluations as f64);
        probe.count(
            "gen.accepted",
            snapshot.counter("anneal.moves.accepted") as f64,
        );
        probe.count(
            "gen.rejected",
            snapshot.counter("anneal.moves.rejected") as f64,
        );
    }
    let ok = checks.check(evaluations == budget, || {
        format!("discovery ran {evaluations} evaluations, budget {budget}: the time budget bound")
    });
    let topo = result.topology;
    let sound = checks.check(
        topo.is_valid() && netsmith::topo::metrics::is_strongly_connected(&topo),
        || "discovered topology invalid or not strongly connected".into(),
    );
    (ok && sound).then_some(topo)
}

pub fn digest_topology(topo: &Topology, d: &mut Digest) {
    for (i, &link) in topo.adjacency().iter().enumerate() {
        if link {
            d.word(i as u64);
        }
    }
}
