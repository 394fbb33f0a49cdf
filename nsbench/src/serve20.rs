//! `serve20`: a fig16-style link-sleep lifetime on the 20-router folded
//! torus, with a diurnal load process and a fault tape that lands at
//! least one repaired fault.  It makes many small control-plane calls (a
//! gate re-route every quiet epoch, plus online repair) where design48
//! makes a few large ones, and it compiles the simulator once per epoch
//! instead of once per sweep.
//!
//! `serve` is one public call, so the traced run cannot time the calls it
//! makes inside.  [`Workload::calibrate`] instead replays the horizon's
//! calls — repair, gate, compile, run, power — on this workload's own
//! fabric and load schedule, timing each, and checks that the replay
//! reproduces the served horizon epoch for epoch.

use crate::checks::{Checks, Digest};
use crate::common::{self, Quality, Scale};
use crate::probe::Probe;
use crate::Workload;
use netsmith::energy::EnergyContext;
use netsmith::fault::{FaultScenario, RepairPolicy};
use netsmith::prelude::*;
use netsmith::route::paths::all_shortest_paths;
use netsmith::route::vc::verify_deadlock_free;
use netsmith::serve::{FaultTape, LoadProcess};
use netsmith::sim::{splitmix64, NetworkSim, SimReport};
use netsmith::topo::{RouterId, Topology};

/// Idle threshold of the link-sleep policy (as fig16).
const IDLE_THRESHOLD: f64 = 0.12;

/// The serving loop's wake-on-pressure rule: after an epoch whose
/// surviving links ran at least this warm, or delivered less than the
/// floor, the next epoch runs fully awake and `LinkSleep::gate` is not
/// called.  Copies of the private constants of `netsmith_serve::run`, used
/// only by the traced replay; the replay's epoch-by-epoch check fails if
/// they drift.
const WAKE_UTILIZATION: f64 = 0.25;
const WAKE_DELIVERED_FLOOR: f64 = 0.985;

const HORIZON: Option<&str> = Some("serve.horizon");

/// Seed of the fault tape.  Fixed, like the load shape: which links fail
/// decides the fabric every later gate call re-routes, and with it up to
/// a fifth of the horizon's cost.  The workload seed still draws every
/// epoch's traffic.
const TAPE_SEED: u64 = 1;

pub struct Serve20 {
    net: EvaluatedNetwork,
    config: ServingConfig,
    /// The last traced horizon's report, for [`Workload::calibrate`].
    traced: Option<ServingReport>,
}

pub fn setup(seed: u64, scale: &Scale, checks: &mut Checks) -> Option<Serve20> {
    let torus = expert::folded_torus(&scale.sweep_layout);
    let net = common::prepare(&torus, RoutingScheme::Mclb, &mut Probe::off(), checks)?;
    let epochs = scale.serve_epochs;
    let config = ServingConfig {
        epochs,
        // Diurnal only: bursts would make the peak and the number of
        // quiet (gated) epochs depend on the seed, and with them the
        // horizon's cost.
        load: LoadSpec {
            period_epochs: (epochs / 2).max(1),
            burst_rate: 0.0,
            ..LoadSpec::default()
        },
        tape: TapeSpec {
            expected_faults: 2.0,
            seed: splitmix64(TAPE_SEED ^ 0x7A9E),
        },
        policy: PolicyKind::LinkSleep {
            idle_threshold: IDLE_THRESHOLD,
        },
        low_load_threshold: IDLE_THRESHOLD,
        seed,
        ..ServingConfig::default()
    };
    Some(Serve20 {
        net,
        config,
        traced: None,
    })
}

impl Serve20 {
    /// One epoch's simulator config, as the serving loop derives it.
    fn epoch_config(&self, e: u64, data_fraction: f64) -> SimConfig {
        let mut c = self.config.sim.clone();
        c.seed = splitmix64(self.config.seed ^ (e + 1));
        c.data_fraction = data_fraction;
        c.epoch_cycles = c.measure_cycles.max(1);
        c
    }

    fn check(&self, report: &ServingReport, checks: &mut Checks) {
        let epochs = self.config.epochs;
        checks.check(
            report.records.len() as u64 == epochs
                && report.records.iter().zip(0..).all(|(r, e)| r.epoch == e),
            || {
                format!(
                    "horizon has {} records for {epochs} epochs",
                    report.records.len()
                )
            },
        );
        checks.unit_interval("availability", report.availability);
        for r in &report.records {
            checks.unit_interval("epoch delivered_fraction", r.delivered_fraction);
        }
        checks.check(
            report.faults_injected >= 1 && report.repairs_ok >= 1 && report.downtime_epochs == 0,
            || {
                format!(
                    "fault tape: {} faults, {} repairs, {} downtime epochs",
                    report.faults_injected, report.repairs_ok, report.downtime_epochs
                )
            },
        );
    }

    fn quality(&self, report: &ServingReport) -> Quality {
        let n = self.net.topology.num_routers() as f64;
        let window = self.config.sim.measure_cycles as f64;
        let mut peak = 0.0f64;
        let (mut low_latency, mut low_flits) = (0.0, 0.0);
        let mut digest = Digest::default();
        for r in report.records.iter().filter(|r| r.routable) {
            let mut c = self.config.sim.clone();
            c.data_fraction = r.data_fraction;
            peak = peak.max(c.flit_rate_to_packets_per_ns(r.delivered_flits as f64 / (n * window)));
            if r.offered < self.config.low_load_threshold {
                low_latency += r.mean_latency_cycles * r.delivered_flits as f64;
                low_flits += r.delivered_flits as f64;
            }
            for x in [
                r.offered,
                r.delivered_fraction,
                r.energy_pj,
                r.mean_latency_cycles,
            ] {
                digest.f64(x);
            }
            digest.word(r.delivered_flits);
            digest.word(r.gated_pairs as u64);
        }
        for x in [
            report.availability,
            report.energy_pj,
            report.p99_latency_cycles,
        ] {
            digest.f64(x);
        }
        digest.word(report.gated_pair_epochs);
        Quality {
            sat_pkts_per_ns: peak,
            avg_hops: self.net.metrics.average_hops,
            low_load_latency_ns: if low_flits > 0.0 {
                low_latency / low_flits / self.config.sim.clock_ghz
            } else {
                0.0
            },
            p99_latency_cycles: report.p99_latency_cycles,
            availability: report.availability,
            energy_per_flit_pj: report.energy_per_flit_pj,
            digest: digest.finish(),
        }
    }
}

/// The fabric the horizon serves on: healthy, or the last repair's output.
struct Fabric {
    topology: Topology,
    routing: RoutingTable,
    vcs: netsmith::route::VcAllocation,
    failed: Vec<RouterId>,
}

/// Time the route calls a gate or repair makes inside (paths, MCLB, VCs,
/// verify) by making them again on the topology it produced.
fn time_route(
    topo: &Topology,
    seed: u64,
    budget: usize,
    names: [&'static str; 4],
    parent: &'static str,
    probe: &mut Probe,
) {
    let parent = Some(parent);
    let paths = probe.time_in(names[0], parent, || all_shortest_paths(topo));
    let config = MclbConfig {
        seed,
        ..MclbConfig::default()
    };
    let routing = probe.time_in(names[1], parent, || mclb_route(&paths, &config));
    if let Ok(vcs) = probe.time_in(names[2], parent, || allocate_vcs(&routing, budget, seed)) {
        probe.time_in(names[3], parent, || verify_deadlock_free(&routing, &vcs));
    }
}

impl Workload for Serve20 {
    fn iterate(&mut self, probe: &mut Probe, checks: &mut Checks) -> Option<Quality> {
        let inputs = ServingInputs::new(&self.net.topology, &self.net.routing, &self.net.vcs);
        let obs = if probe.enabled() {
            Obs::to(MemoryRecorder::new())
        } else {
            Obs::noop()
        };
        let report = probe.time("serve.horizon", || serve(&inputs, &self.config, &obs));
        self.check(&report, checks);
        if let Some(snapshot) = obs.snapshot() {
            let repairs =
                snapshot.counter("serve.repairs_ok") + snapshot.counter("serve.repairs_infeasible");
            checks.check(
                snapshot.counter("serve.epochs") == self.config.epochs
                    && snapshot.counter("serve.repairs_ok") == report.repairs_ok,
                || "serve.* counters disagree with the ServingReport".into(),
            );
            probe.count("fault.repairs", repairs as f64);
            probe.count("energy.gated_pairs", report.gated_pair_epochs as f64);
            self.traced = Some(report.clone());
        }
        Some(self.quality(&report))
    }

    /// Replay the served horizon call by call: the fault tape's repairs,
    /// the link-sleep decision of every epoch from the previous epoch's
    /// measured activity, and each epoch's compile, run and power report.
    /// Each call is timed under `serve.horizon`; the totals count once
    /// per traced horizon.
    fn calibrate(&mut self, probe: &mut Probe, checks: &mut Checks, horizons: u64) {
        let Some(report) = self.traced.take() else {
            return;
        };
        let cfg = &self.config;
        let healthy = &self.net.topology;
        let process = LoadProcess::new(&cfg.load, cfg.epochs, cfg.seed, None);
        let tape = FaultTape::sample(healthy, &cfg.tape, cfg.epochs);
        let sleep = LinkSleep {
            idle_threshold: IDLE_THRESHOLD,
            ..LinkSleep::default()
        };
        let mut calls = Probe::on();
        let mut fabric = Some(Fabric {
            topology: healthy.clone(),
            routing: self.net.routing.clone(),
            vcs: self.net.vcs.clone(),
            failed: Vec::new(),
        });
        let mut faults = Vec::new();
        let mut prev: Option<SimReport> = None;
        let mut gate_calls = 0u64;
        let mut diverged = None;
        for (e, record) in (0..cfg.epochs).zip(&report.records) {
            let arrivals: Vec<_> = tape.arrivals_at(e).collect();
            if !arrivals.is_empty() {
                faults.extend(arrivals);
                let degraded = FaultScenario::new(faults.clone()).apply(healthy);
                let repaired = calls.time_in("fault.repair", HORIZON, || {
                    RerouteRepair.repair(&degraded, &cfg.repair)
                });
                fabric = repaired.ok().map(|r| {
                    let names = [
                        "route.paths.repair",
                        "route.mclb.repair",
                        "route.vcs.repair",
                        "route.verify.repair",
                    ];
                    let (seed, budget) = (cfg.repair.seed, cfg.repair.vc_budget);
                    time_route(&r.topology, seed, budget, names, "fault.repair", &mut calls);
                    Fabric {
                        failed: r.failed_routers(),
                        topology: r.topology,
                        routing: r.routing,
                        vcs: r.vcs,
                    }
                });
                prev = None;
            }
            let Some(fab) = fabric.as_ref() else {
                continue;
            };
            let load = process.epoch(e);
            let c = self.epoch_config(e, load.data_fraction);
            let quiet = prev.as_ref().is_some_and(|p| {
                p.activity.avg_link_utilization() < WAKE_UTILIZATION
                    && p.delivered_fraction() >= WAKE_DELIVERED_FLOOR
            });
            let mut plan = None;
            if let (true, Some(p)) = (quiet, prev.as_ref()) {
                gate_calls += 1;
                let ctx = EnergyContext {
                    topology: &fab.topology,
                    routing: &fab.routing,
                    vcs: &fab.vcs,
                    sim: &c,
                    report: p,
                    config: &cfg.energy,
                };
                let gated = calls.time_in("energy.gate", HORIZON, || sleep.gate(&ctx));
                if let Ok(g) = gated {
                    checks.check(g.verify(), || {
                        format!("gated network at epoch {e} fails verify")
                    });
                    let names = [
                        "route.paths.gate",
                        "route.mclb.gate",
                        "route.vcs.gate",
                        "route.verify.gate",
                    ];
                    let (seed, budget) = (cfg.energy.reroute_seed, cfg.energy.vc_budget);
                    time_route(&g.topology, seed, budget, names, "energy.gate", &mut calls);
                    plan = (!g.gated_pairs.is_empty()).then_some(g);
                }
            }
            let (topo, routing, vcs) = match &plan {
                Some(g) => (&g.topology, &g.routing, &g.vcs),
                None => (&fab.topology, &fab.routing, &fab.vcs),
            };
            let builder = NetworkSim::builder(topo, routing)
                .vcs(vcs)
                .pattern(cfg.pattern.clone())
                .failed_routers(&fab.failed)
                .config(c.clone());
            let sim = calls.time_in("sim.compile", HORIZON, || builder.compile());
            let run = calls.time_in("sim.run", HORIZON, || sim.run(load.offered.min(1.0)));
            calls.time_in("power.report", HORIZON, || {
                power_report_from_activity(topo, &cfg.energy.power, &c, &run.activity)
            });
            calls.count("sim.runs", 1.0);
            calls.count(
                "sim.flits.synthetic",
                run.activity.total_link_flits() as f64,
            );
            let gated_pairs = plan.as_ref().map_or(0, |g| g.gated_pairs.len() as u32);
            if diverged.is_none()
                && (gated_pairs != record.gated_pairs
                    || run.delivered_fraction() != record.delivered_fraction)
            {
                diverged = Some(e);
            }
            prev = Some(run);
        }
        checks.check(diverged.is_none(), || {
            format!("traced replay diverged from the served horizon at epoch {diverged:?}")
        });
        calls.count("energy.gate_calls", gate_calls as f64);
        let k = horizons as f64;
        for (name, stat) in calls.stats() {
            probe.record(name, stat.parent, stat.calls * horizons, stat.seconds * k);
        }
        for name in ["sim.runs", "sim.flits.synthetic", "energy.gate_calls"] {
            probe.count(name, calls.counter(name) * k);
        }
    }

    fn untimed(&self) -> &'static str {
        "the load process, energy accounting, histogram merges and epoch records inside serve"
    }
}
