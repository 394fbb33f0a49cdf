//! Pins every analytical metric of the expert baselines to recorded
//! digests.
//!
//! For each `expert::all_baselines` topology on the 20-, 30- and 48-router
//! layouts the digest folds in every `TopologyMetrics` field (each `f64`
//! via `to_bits`), the sparsest cut's `CutReport` (partition and crossing
//! counts), `ThroughputBounds::compute`, `metrics::total_hops` and
//! `metrics::weighted_average_hops` under Shuffle traffic.  Any refactor of
//! the hop, cut or bound code must leave these digests unchanged; a
//! mismatch prints the CSV rows so the changed topology is easy to find.

use netsmith_topo::bounds::ThroughputBounds;
use netsmith_topo::cuts;
use netsmith_topo::expert;
use netsmith_topo::layout::Layout;
use netsmith_topo::metrics::{self, TopologyMetrics};
use netsmith_topo::traffic::TrafficPattern;

/// 64-bit FNV-1a over little-endian field encodings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.u64(x);
            }
        }
    }
}

/// Digest of every baseline's metrics on `layout`, plus the CSV rows for
/// the failure message.
fn digest(layout: &Layout) -> (u64, String) {
    let shuffle = TrafficPattern::Shuffle.demand_matrix(layout);
    let mut h = Fnv::new();
    let mut rows = String::new();
    for topo in expert::all_baselines(layout) {
        let m = TopologyMetrics::compute(&topo);
        rows.push_str(&m.csv_row());
        rows.push('\n');
        h.str(&m.name);
        h.str(&m.class);
        h.usize(m.num_routers);
        h.usize(m.num_links);
        h.opt(m.diameter.map(u64::from));
        h.f64(m.average_hops);
        h.f64(m.bisection_bandwidth);
        h.f64(m.sparsest_cut);
        h.f64(m.cut_bound);
        h.f64(m.occupancy_bound);

        let cut = cuts::sparsest_cut(&topo);
        h.usize(cut.partition.len());
        for &r in &cut.partition {
            h.usize(r);
        }
        h.usize(cut.crossing_forward);
        h.usize(cut.crossing_backward);
        h.f64(cut.normalized_bandwidth);
        h.u64(cut.is_bisection as u64);
        h.u64(cut.exact as u64);

        let bounds = ThroughputBounds::compute(&topo);
        h.f64(bounds.cut_bound);
        h.f64(bounds.occupancy_bound);
        h.f64(bounds.injection_bound);

        h.opt(metrics::total_hops(&topo));
        h.f64(metrics::weighted_average_hops(&topo, &shuffle));
    }
    (h.0, rows)
}

fn check(layout: Layout, expected: u64) {
    let (got, rows) = digest(&layout);
    assert_eq!(
        got, expected,
        "metric digest changed to {got:#018x}; rows:\n{rows}"
    );
}

#[test]
fn noi_4x5_metrics_digest() {
    check(Layout::noi_4x5(), 0x5c13_ca6a_53a8_4687);
}

#[test]
fn noi_6x5_metrics_digest() {
    check(Layout::noi_6x5(), 0x1f2e_b0fc_9a71_6d95);
}

#[test]
fn noi_8x6_metrics_digest() {
    check(Layout::noi_8x6(), 0x9fd8_7575_d7af_3747);
}
