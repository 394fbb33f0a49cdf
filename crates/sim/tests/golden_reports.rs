//! Golden-report pins: fixed-seed runs whose full `SimReport` is folded
//! into a 64-bit digest and compared against a recorded constant.
//!
//! The equivalence proptests prove the compiled engine agrees with the
//! reference engine; these pins prove both keep producing the *same
//! numbers over time*.  Every float enters the digest through
//! `f64::to_bits`, and the per-link activity, the epoch series and the
//! latency histogram are folded in field by field, so a refactor that
//! moves any reported value by one ulp fails here.  A deliberate change
//! to the simulated numbers must re-record the constants in the same
//! change and say why.

use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, Flow, MclbConfig, RoutingTable, VcAllocation};
use netsmith_sim::{NetworkSim, SimConfig, SimReport};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{expert, Layout, Topology};
use netsmith_trace::TraceModel;
use std::sync::Arc;

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

    fn report(&mut self, r: &SimReport) {
        for x in [
            r.offered_flits_per_node_cycle,
            r.injected_flits_per_node_cycle,
            r.accepted_flits_per_node_cycle,
            r.avg_latency_cycles,
            r.p95_latency_cycles,
            r.p99_latency_cycles,
            r.avg_latency_ns,
        ] {
            self.float(x);
        }
        self.word(r.packets_injected);
        self.word(r.packets_ejected);
        self.word(r.packets_unfinished);

        let a = &r.activity;
        self.word(a.measured_cycles);
        self.word(a.links.len() as u64);
        for l in &a.links {
            self.word(l.from as u64);
            self.word(l.to as u64);
            self.word(l.flits);
            self.word(l.busy_cycles);
        }

        match &r.epochs {
            None => self.word(u64::MAX),
            Some(series) => {
                self.word(series.epoch_cycles);
                self.word(series.samples.len() as u64);
                for s in &series.samples {
                    self.word(s.start_cycle);
                    self.word(s.end_cycle);
                    self.word(s.injected_flits);
                    self.word(s.accepted_flits);
                    self.word(s.packets_ejected);
                    self.float(s.mean_latency_cycles);
                    self.float(s.p95_latency_cycles);
                    self.word(s.buffered_flits);
                }
            }
        }

        let lat = &r.latency;
        self.word(lat.count());
        self.float(lat.mean());
        self.float(lat.max());
        for p in [0.5, 0.9, 0.95, 0.99, 0.999] {
            self.float(lat.percentile(p));
        }
        // The histogram itself is private; its `Debug` form lists every
        // bin count, which pins the full distribution.
        for byte in format!("{lat:?}").bytes() {
            self.word(byte as u64);
        }
    }
}

fn digest(reports: &[SimReport]) -> u64 {
    let mut d = Digest::new();
    for r in reports {
        d.report(r);
    }
    d.0
}

fn assert_pinned(name: &str, reports: &[SimReport], expected: u64) {
    let got = digest(reports);
    assert_eq!(
        got, expected,
        "{name}: report digest {got:#018x} != pinned {expected:#018x}"
    );
}

/// Dimension-order (column first, then row) routing on a mesh: complete,
/// minimal and deadlock-free on any VC, and cheap to build where MCLB and
/// DFSSSP allocation at 48 routers would dominate a debug-build test.
fn xy_routing(topo: &Topology) -> RoutingTable {
    let layout = topo.layout();
    let n = topo.num_routers();
    let mut table = RoutingTable::new(n, "xy");
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let (mut r, mut c) = layout.position(src);
            let (dr, dc) = layout.position(dst);
            let mut path = vec![src];
            while c != dc {
                c = if c < dc { c + 1 } else { c - 1 };
                path.push(layout.router_at(r, c));
            }
            while r != dr {
                r = if r < dr { r + 1 } else { r - 1 };
                path.push(layout.router_at(r, c));
            }
            table.set_path(Flow::new(src, dst), path);
        }
    }
    table
}

/// Spread flows over every VC.  Each VC carries a subset of XY routes,
/// whose channel dependency graph is acyclic, so any spread is
/// deadlock-free.
fn spread_vcs(n: usize, num_vcs: usize) -> VcAllocation {
    let mut assignment = vec![None; n * n];
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                assignment[src * n + dst] = Some((src + 3 * dst) % num_vcs);
            }
        }
    }
    VcAllocation {
        assignment,
        num_vcs,
        escape_layers: 1,
        occupancy: vec![0.0; num_vcs],
    }
}

fn small_network() -> (Topology, RoutingTable, VcAllocation) {
    let topo = expert::folded_torus(&Layout::noi_4x5());
    let table = mclb_route(&all_shortest_paths(&topo), &MclbConfig::default());
    let vcs = allocate_vcs(&table, 6, 42).unwrap();
    (topo, table, vcs)
}

/// 48 routers (the 8x6 scalability layout) at a light, a medium and a
/// past-saturation load, with the epoch probe on.
#[test]
fn mesh48_schedule_reports_are_pinned() {
    let topo = expert::mesh(&Layout::noi_8x6());
    let table = xy_routing(&topo);
    table.validate(&topo).unwrap();
    let vcs = spread_vcs(topo.num_routers(), 6);
    let sim = NetworkSim::builder(&topo, &table)
        .vcs(&vcs)
        .config(SimConfig {
            epoch_cycles: 250,
            seed: 48,
            ..SimConfig::quick()
        })
        .build();
    let reports: Vec<SimReport> = [0.04, 0.2, 0.8].map(|load| sim.run(load)).into();
    assert!(reports
        .iter()
        .all(|r| r.epochs.is_some() && r.packets_ejected > 0));
    assert_pinned("mesh48", &reports, MESH48_DIGEST);
}

/// 20 routers under schedule injection: two patterns, one of them with a
/// failed router masking traffic.
#[test]
fn torus20_schedule_reports_are_pinned() {
    let (topo, table, vcs) = small_network();
    let mut reports = Vec::new();
    for (pattern, failed) in [
        (TrafficPattern::UniformRandom, &[][..]),
        (TrafficPattern::Transpose, &[7][..]),
    ] {
        let sim = NetworkSim::builder(&topo, &table)
            .vcs(&vcs)
            .pattern(pattern)
            .failed_routers(failed)
            .config(SimConfig {
                seed: 20,
                ..SimConfig::quick()
            })
            .build();
        for load in [0.05, 0.35, 0.9] {
            reports.push(sim.run(load));
        }
    }
    assert_pinned("torus20-schedule", &reports, TORUS20_SCHEDULE_DIGEST);
}

/// 20 routers replaying both generated trace models at two rates, with
/// the epoch probe on.
#[test]
fn torus20_trace_reports_are_pinned() {
    let (topo, table, vcs) = small_network();
    let mut reports = Vec::new();
    for &name in TraceModel::names() {
        let trace = Arc::new(TraceModel::by_name(name).unwrap().generate(20, 256, 9));
        let sim = NetworkSim::builder(&topo, &table)
            .vcs(&vcs)
            .trace(trace)
            .config(SimConfig {
                epoch_cycles: 300,
                seed: 21,
                ..SimConfig::quick()
            })
            .build();
        for load in [0.05, 0.4] {
            reports.push(sim.run(load));
        }
    }
    assert_pinned("torus20-trace", &reports, TORUS20_TRACE_DIGEST);
}

const MESH48_DIGEST: u64 = 0x8304_df44_42e6_bbf4;
const TORUS20_SCHEDULE_DIGEST: u64 = 0x212e_85b2_08ec_b33b;
const TORUS20_TRACE_DIGEST: u64 = 0xfc01_2151_7751_3f9e;
