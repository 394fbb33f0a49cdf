//! Injection-rate sweeps and saturation-throughput extraction.
//!
//! The paper's Figures 6, 10 and 11 plot average packet latency against the
//! achieved throughput while sweeping the offered injection rate of
//! synthetic traffic.  [`Sweep`] reproduces exactly that curve for one
//! topology + routing + VC allocation, and
//! [`LatencyCurve::saturation_flits_per_node_cycle`] extracts the
//! saturation point (the highest load the network still delivers without
//! the latency blowing up).
//!
//! Load points are independent simulations, so a sweep submits them in
//! batches to the process-wide [`WorkerPool`]; the per-point results are
//! deterministic regardless of threading because every run seeds its RNG
//! from the offered load (see [`crate::network::point_seed`]).

use crate::config::SimConfig;
use crate::network::{NetworkSim, SimReport};
use netsmith_pool::WorkerPool;
use netsmith_route::{RoutingTable, VcAllocation};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::Topology;

/// One point of a latency/throughput curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load (flits/node/cycle).
    pub offered: f64,
    /// Accepted throughput (flits/node/cycle).
    pub accepted: f64,
    /// Accepted throughput in packets/node/ns at the configured clock.
    pub accepted_packets_per_ns: f64,
    /// Average latency in cycles.
    pub latency_cycles: f64,
    /// Average latency in nanoseconds.
    pub latency_ns: f64,
    /// Whether the network was saturated at this point.
    pub saturated: bool,
}

/// A full latency-vs-throughput curve for one network configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCurve {
    /// Label, e.g. "NS-LatOp-large / MCLB".
    pub label: String,
    pub points: Vec<SweepPoint>,
    /// Zero-load latency estimate in cycles.
    pub zero_load_latency_cycles: f64,
}

impl LatencyCurve {
    /// Saturation throughput in flits/node/cycle: the largest accepted
    /// throughput among non-saturated points (falling back to the largest
    /// accepted value overall when every point saturated).
    pub fn saturation_flits_per_node_cycle(&self) -> f64 {
        let unsaturated = self
            .points
            .iter()
            .filter(|p| !p.saturated)
            .map(|p| p.accepted)
            .fold(0.0f64, f64::max);
        if unsaturated > 0.0 {
            unsaturated
        } else {
            self.points.iter().map(|p| p.accepted).fold(0.0, f64::max)
        }
    }

    /// Saturation throughput in packets/node/ns (the unit of Figure 6).
    pub fn saturation_packets_per_ns(&self, config: &SimConfig) -> f64 {
        config.flit_rate_to_packets_per_ns(self.saturation_flits_per_node_cycle())
    }

    /// Low-load average latency in nanoseconds (first point of the curve),
    /// or `None` for an empty curve.
    pub fn low_load_latency_ns(&self) -> Option<f64> {
        self.points.first().map(|p| p.latency_ns)
    }

    /// CSV rows `offered,accepted,accepted_pkts_per_ns,latency_cycles,latency_ns,saturated`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "offered,accepted,accepted_pkts_per_ns,latency_cycles,latency_ns,saturated\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:.4},{:.4},{:.4},{:.2},{:.2},{}\n",
                p.offered,
                p.accepted,
                p.accepted_packets_per_ns,
                p.latency_cycles,
                p.latency_ns,
                p.saturated
            ));
        }
        out
    }
}

/// Options controlling how an injection-rate sweep executes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepOptions {
    /// Stop the sweep after this many *consecutive* saturated points —
    /// everything beyond them only re-measures the saturation plateau.
    /// `None` simulates every requested load.
    pub early_exit_saturated: Option<usize>,
}

impl SweepOptions {
    /// Parallel sweep that stops after two consecutive saturated points —
    /// the configuration the figure harnesses and fault sweeps use when
    /// only the pre-saturation shape of the curve matters.
    pub fn early_exit() -> Self {
        SweepOptions {
            early_exit_saturated: Some(2),
        }
    }
}

/// An injection-rate sweep.  Configure it with
/// [`SweepOptions`], then run it either over a pre-built simulator
/// ([`Sweep::run`] — which may carry failed routers, see
/// [`crate::NetworkSimBuilder::failed_routers`]) or directly over network
/// parts ([`Sweep::run_network`]).
///
/// ```ignore
/// let curve = Sweep::new("mesh / MCLB")
///     .options(SweepOptions::early_exit())
///     .run(&sim, &loads);
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    label: String,
    options: SweepOptions,
}

impl Sweep {
    /// A sweep with default [`SweepOptions`] (fully parallel, no early
    /// exit).
    pub fn new(label: impl Into<String>) -> Self {
        Sweep {
            label: label.into(),
            options: SweepOptions::default(),
        }
    }

    /// Replace the execution options.
    pub fn options(mut self, options: SweepOptions) -> Self {
        self.options = options;
        self
    }

    /// Sweep a pre-built simulator over `loads` (flits/node/cycle).
    /// Batches as wide as the shared [`WorkerPool`] run on it; each `run`
    /// call owns its state, so results are identical to a sequential sweep
    /// and the returned points stay in load order.  An early exit discards
    /// the rest of its batch, so the curve does not depend on the width.
    pub fn run(&self, sim: &NetworkSim<'_>, loads: &[f64]) -> LatencyCurve {
        let config = sim.config().clone();
        let zero = sim.zero_load_latency_cycles();
        let pool = WorkerPool::global();
        let mut points = Vec::with_capacity(loads.len());
        'sweep: for batch in loads.chunks(pool.threads().max(1)) {
            let reports: Vec<SimReport> = pool.run(
                batch
                    .iter()
                    .map(|&load| {
                        Box::new(move || sim.run(load))
                            as Box<dyn FnOnce() -> SimReport + Send + '_>
                    })
                    .collect(),
            );
            for (report, &load) in reports.iter().zip(batch) {
                points.push(SweepPoint {
                    offered: load,
                    accepted: report.accepted_flits_per_node_cycle,
                    accepted_packets_per_ns: config
                        .flit_rate_to_packets_per_ns(report.accepted_flits_per_node_cycle),
                    latency_cycles: report.avg_latency_cycles,
                    latency_ns: report.avg_latency_ns,
                    saturated: report.is_saturated(zero),
                });
                if let Some(limit) = self.options.early_exit_saturated {
                    let trailing = points.iter().rev().take_while(|p| p.saturated).count();
                    if trailing >= limit.max(1) {
                        break 'sweep;
                    }
                }
            }
        }
        LatencyCurve {
            label: self.label.clone(),
            points,
            zero_load_latency_cycles: zero,
        }
    }

    /// Build a simulator for `(topo, table, vcs, pattern, config)` and
    /// sweep it over `loads`.
    pub fn run_network(
        &self,
        topo: &Topology,
        table: &RoutingTable,
        vcs: Option<&VcAllocation>,
        pattern: TrafficPattern,
        config: &SimConfig,
        loads: &[f64],
    ) -> LatencyCurve {
        let mut builder = NetworkSim::builder(topo, table)
            .pattern(pattern)
            .config(config.clone());
        if let Some(vcs) = vcs {
            builder = builder.vcs(vcs);
        }
        self.run(&builder.build(), loads)
    }
}

/// Default load grid used by the benchmark harness (flits/node/cycle).
/// The grid extends past 1.0 so that topologies whose cut/occupancy bounds
/// exceed the single-flit injection port can still be driven into
/// saturation (the injection process can start at most one packet per node
/// per cycle, i.e. up to ~5 flits/node/cycle of offered load).
pub fn default_load_grid() -> Vec<f64> {
    vec![
        0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_route::paths::all_shortest_paths;
    use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    fn curve_for(topo: &Topology, loads: &[f64]) -> (LatencyCurve, SimConfig) {
        let ps = all_shortest_paths(topo);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 9).unwrap();
        let config = SimConfig::quick();
        let curve = Sweep::new(topo.name()).run_network(
            topo,
            &table,
            Some(&alloc),
            TrafficPattern::UniformRandom,
            &config,
            loads,
        );
        (curve, config)
    }

    #[test]
    fn latency_is_monotonically_non_decreasing_with_load_until_saturation() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (curve, _) = curve_for(&mesh, &[0.05, 0.2, 0.5, 0.8]);
        assert_eq!(curve.points.len(), 4);
        // The last point must be slower than the first.
        assert!(curve.points.last().unwrap().latency_cycles > curve.points[0].latency_cycles);
        // Saturation flagged at the top of the sweep for a mesh.
        assert!(curve.points.last().unwrap().saturated);
    }

    #[test]
    fn saturation_throughput_is_positive_and_below_injection_cap() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let (curve, config) = curve_for(&torus, &[0.05, 0.2, 0.4, 0.6, 0.8]);
        let sat = curve.saturation_flits_per_node_cycle();
        assert!(sat > 0.05, "saturation {sat}");
        assert!(sat <= 1.0);
        assert!(curve.saturation_packets_per_ns(&config) > 0.0);
    }

    #[test]
    fn csv_export_has_one_row_per_point() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (curve, _) = curve_for(&mesh, &[0.05, 0.3]);
        let csv = curve.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("offered,"));
    }

    /// Run `sweep` from inside a task of a two-task pool batch, where it
    /// runs in place and sequentially on the task's thread.
    fn nested(sweep: impl Fn() -> LatencyCurve + Sync) -> LatencyCurve {
        let sweep = &sweep;
        let mut curves = netsmith_pool::WorkerPool::global().run(
            (0..2)
                .map(|_| Box::new(sweep) as Box<dyn FnOnce() -> LatencyCurve + Send + '_>)
                .collect(),
        );
        let curve = curves.pop().unwrap();
        assert_eq!(curves[0], curve);
        curve
    }

    #[test]
    fn parallel_sweep_matches_sequential_point_for_point() {
        // A top-level sweep runs its load points on the pool; the same
        // sweep submitted from inside a pool task runs them one by one.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 9).unwrap();
        let config = SimConfig::quick();
        let loads = [0.05, 0.2, 0.4, 0.6];
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(config)
            .build();
        let run = || Sweep::new("mesh").run(&sim, &loads);
        let parallel = run();
        let sequential = nested(run);
        assert_eq!(sequential, parallel);
        assert_eq!(parallel.points.len(), loads.len());
    }

    #[test]
    fn pooled_sweeps_nested_inside_pool_tasks_match_sequential() {
        // The suite runner executes sweeps from inside worker-pool tasks
        // (experiment cells), so a sweep's own pool submission nests.  The
        // nested batch runs in place, which keeps it deadlock-free, and an
        // early exit inside it trims the curve exactly like a top-level
        // sweep does.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 9).unwrap();
        let config = SimConfig::quick();
        let loads = [0.05, 0.5, 0.6, 0.7, 0.8, 0.9];
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(config)
            .build();
        let run = || {
            Sweep::new("mesh")
                .options(SweepOptions::early_exit())
                .run(&sim, &loads)
        };
        let top_level = run();
        assert!(top_level.points.len() < loads.len());
        assert_eq!(nested(run), top_level);
    }

    #[test]
    fn early_exit_stops_after_consecutive_saturated_points() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 9).unwrap();
        let config = SimConfig::quick();
        // The mesh saturates well below 0.8: the tail of this grid must be
        // skipped once two consecutive points report saturation.
        let loads = [0.05, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2];
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(config)
            .build();
        let full = Sweep::new("mesh").run(&sim, &loads);
        let early = Sweep::new("mesh")
            .options(SweepOptions::early_exit())
            .run(&sim, &loads);
        assert!(early.points.len() < full.points.len());
        // The tail it did measure ends with exactly the trigger: two
        // consecutive saturated points.
        let tail: Vec<bool> = early.points.iter().map(|p| p.saturated).collect();
        assert!(tail.ends_with(&[true, true]));
        // Identical prefix: early exit never changes measured values.
        assert_eq!(full.points[..early.points.len()], early.points[..]);
        // The saturation extraction is unaffected.
        assert!(
            (full.saturation_flits_per_node_cycle() - early.saturation_flits_per_node_cycle())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn saturation_falls_back_to_best_accepted_when_every_point_saturated() {
        let curve = LatencyCurve {
            label: "all-saturated".into(),
            points: vec![
                SweepPoint {
                    offered: 0.8,
                    accepted: 0.35,
                    accepted_packets_per_ns: 0.2,
                    latency_cycles: 300.0,
                    latency_ns: 100.0,
                    saturated: true,
                },
                SweepPoint {
                    offered: 1.0,
                    accepted: 0.32,
                    accepted_packets_per_ns: 0.19,
                    latency_cycles: 400.0,
                    latency_ns: 130.0,
                    saturated: true,
                },
            ],
            zero_load_latency_cycles: 12.0,
        };
        // No unsaturated point exists: fall back to the largest accepted
        // throughput overall.
        assert!((curve.saturation_flits_per_node_cycle() - 0.35).abs() < 1e-12);
        assert_eq!(curve.low_load_latency_ns(), Some(100.0));
    }

    #[test]
    fn empty_curve_has_no_low_load_latency() {
        let curve = LatencyCurve {
            label: "empty".into(),
            points: Vec::new(),
            zero_load_latency_cycles: 0.0,
        };
        assert_eq!(curve.low_load_latency_ns(), None);
        assert_eq!(curve.saturation_flits_per_node_cycle(), 0.0);
    }

    #[test]
    fn csv_round_trip_preserves_the_curve_shape() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (curve, _) = curve_for(&mesh, &[0.05, 0.3, 0.8]);
        let csv = curve.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(
            header,
            [
                "offered",
                "accepted",
                "accepted_pkts_per_ns",
                "latency_cycles",
                "latency_ns",
                "saturated"
            ]
        );
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
        assert_eq!(rows.len(), curve.points.len());
        for (row, point) in rows.iter().zip(&curve.points) {
            assert_eq!(row.len(), header.len());
            // Each field parses back to (the rounded form of) its source.
            assert!((row[0].parse::<f64>().unwrap() - point.offered).abs() < 5e-5);
            assert!((row[1].parse::<f64>().unwrap() - point.accepted).abs() < 5e-5);
            assert!((row[3].parse::<f64>().unwrap() - point.latency_cycles).abs() < 5e-3);
            assert_eq!(row[5].parse::<bool>().unwrap(), point.saturated);
        }
    }

    #[test]
    fn default_grid_is_sorted_and_in_range() {
        let grid = default_load_grid();
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!(grid.iter().all(|&l| l > 0.0 && l <= 2.0));
    }
}
