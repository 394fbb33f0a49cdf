//! Cut-based bandwidth metrics: bisection bandwidth and the sparsest cut.
//!
//! Bisection bandwidth (the traditional metric reported by the expert
//! topology papers and in Table II) is the minimum number of links crossing
//! any *balanced* bipartition of the routers.  The sparsest cut is the more
//! general — and tighter — cut-based throughput bottleneck used by NetSmith
//! as its bandwidth objective (constraint C6 of Table I): over every
//! bipartition `(U, V)` of the routers, the crossing capacity is normalized
//! by `|U| * |V|`, which is proportional to the uniform-traffic demand that
//! must cross the cut.  For asymmetric topologies the minimum of the two
//! directions is taken, because the weaker direction is the true bottleneck.
//!
//! Up to `EXHAUSTIVE_LIMIT` routers (the paper's 20-router configurations)
//! both metrics are exact and come from one sweep over the 2^(n-1)
//! bipartitions.  For larger networks (30/48 routers) an exhaustive sweep is
//! infeasible, so seeded multi-start local searches are used instead
//! (Kernighan–Lin style single-node moves for the sparsest cut, balanced
//! pair swaps for the bisection), which matches how we use the metrics (as
//! optimization objectives and reporting statistics, not proofs of
//! optimality).
//!
//! All three searches move one router at a time across a bipartition whose
//! two crossing counts are kept up to date from per-router in/out adjacency
//! lists, so a move costs O(degree) rather than a rescan of every link.  The
//! exhaustive sweep visits the masks in Gray-code order, where consecutive
//! masks differ in exactly one router, and keeps the lexicographic minimum
//! of (normalized bandwidth, mask): the first strict minimum in plain mask
//! order.

use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Largest router count for which cuts are enumerated exhaustively.
const EXHAUSTIVE_LIMIT: usize = 24;

/// Report describing the minimizing cut found.
#[derive(Debug, Clone, PartialEq)]
pub struct CutReport {
    /// Routers in partition `U` (the complement forms `V`).
    pub partition: Vec<usize>,
    /// Directed links crossing from `U` to `V`.
    pub crossing_forward: usize,
    /// Directed links crossing from `V` to `U`.
    pub crossing_backward: usize,
    /// `min(forward, backward) / (|U| * |V|)` — the normalized sparsest-cut
    /// bandwidth `B(U, V)` from the paper's constraint C6.
    pub normalized_bandwidth: f64,
    /// Whether the minimizing partition happens to be a bisection.
    pub is_bisection: bool,
    /// Whether the value is exact (exhaustive enumeration) or heuristic.
    pub exact: bool,
}

/// Count directed links crossing a bipartition given membership flags
/// (`true` = in `U`).  Returns `(U -> V, V -> U)`.
pub fn crossing_links(topo: &Topology, in_u: &[bool]) -> (usize, usize) {
    let mut fwd = 0;
    let mut bwd = 0;
    for (i, j) in topo.links() {
        match (in_u[i], in_u[j]) {
            (true, false) => fwd += 1,
            (false, true) => bwd += 1,
            _ => {}
        }
    }
    (fwd, bwd)
}

/// Per-router out- and in-neighbour lists of a topology.
struct Adjacency {
    out: Vec<Vec<usize>>,
    inc: Vec<Vec<usize>>,
}

impl Adjacency {
    fn new(topo: &Topology) -> Self {
        let n = topo.num_routers();
        Adjacency {
            out: (0..n).map(|i| topo.neighbours_out(i)).collect(),
            inc: (0..n).map(|j| topo.neighbours_in(j)).collect(),
        }
    }
}

/// A bipartition with its crossing counts, updated in O(degree) per move.
struct Cut<'a> {
    adj: &'a Adjacency,
    in_u: Vec<bool>,
    size_u: usize,
    /// Directed links from `U` to `V`.
    fwd: usize,
    /// Directed links from `V` to `U`.
    bwd: usize,
}

impl<'a> Cut<'a> {
    /// The bipartition with `U = { v : in_u[v] }`, built by moving its
    /// members one at a time out of an all-`V` cut, where nothing crosses.
    fn new(adj: &'a Adjacency, in_u: &[bool]) -> Self {
        let mut cut = Cut {
            adj,
            in_u: vec![false; in_u.len()],
            size_u: 0,
            fwd: 0,
            bwd: 0,
        };
        for v in (0..in_u.len()).filter(|&v| in_u[v]) {
            cut.flip(v);
        }
        cut
    }

    /// Move router `v` to the other side.  Each of its links that crossed
    /// stops crossing, and each that did not starts: its out-links then
    /// cross in the direction leaving `v`'s new side, its in-links in the
    /// direction entering it.
    fn flip(&mut self, v: usize) {
        let side = self.in_u[v];
        let (outs, ins) = (&self.adj.out[v], &self.adj.inc[v]);
        let crossing = |rs: &[usize]| rs.iter().filter(|&&r| self.in_u[r] != side).count();
        let crossed = crossing(outs) + crossing(ins);
        let (to_fwd, to_bwd) = if side {
            (ins.len(), outs.len())
        } else {
            (outs.len(), ins.len())
        };
        self.fwd = self.fwd + to_fwd - crossed;
        self.bwd = self.bwd + to_bwd - crossed;
        self.size_u = if side {
            self.size_u - 1
        } else {
            self.size_u + 1
        };
        self.in_u[v] = !side;
    }

    fn crossing_min(&self) -> usize {
        self.fwd.min(self.bwd)
    }

    /// `min(fwd, bwd) / (|U| * |V|)`, infinite when a side is empty.
    fn normalized(&self) -> f64 {
        let size_v = self.in_u.len() - self.size_u;
        if self.size_u == 0 || size_v == 0 {
            f64::INFINITY
        } else {
            self.crossing_min() as f64 / (self.size_u * size_v) as f64
        }
    }

    fn report(&self, exact: bool) -> CutReport {
        let size_v = self.in_u.len() - self.size_u;
        CutReport {
            partition: (0..self.in_u.len()).filter(|&i| self.in_u[i]).collect(),
            crossing_forward: self.fwd,
            crossing_backward: self.bwd,
            normalized_bandwidth: self.normalized(),
            is_bisection: self.size_u.abs_diff(size_v) <= 1,
            exact,
        }
    }
}

/// Exhaustive sparsest cut over all bipartitions (requires `2 <= n <=
/// EXHAUSTIVE_LIMIT`).  The partition containing router 0 is fixed to `U`
/// to avoid enumerating mirror-image cuts twice.
pub fn sparsest_cut_exhaustive(topo: &Topology) -> CutReport {
    exhaustive_cuts(topo).0
}

/// One sweep over every bipartition with router 0 in `U` (bit `i` of the
/// mask is router `i + 1`), in Gray-code order.  Returns the first
/// mask-order strict minimum of the normalized crossing capacity, as a
/// report, together with the bisection bandwidth: the minimum
/// weaker-direction crossing count over balanced bipartitions (sides
/// differing by at most one router).
fn exhaustive_cuts(topo: &Topology) -> (CutReport, f64) {
    let n = topo.num_routers();
    assert!(
        n <= EXHAUSTIVE_LIMIT,
        "exhaustive cut enumeration limited to {EXHAUSTIVE_LIMIT} routers"
    );
    assert!(n >= 2);
    let adj = Adjacency::new(topo);
    let mut cut = Cut::new(&adj, &(0..n).map(|i| i == 0).collect::<Vec<_>>());
    // The all-`U` mask (V empty) is skipped.
    let all_u = (1u64 << (n - 1)) - 1;
    let mut mask = 0u64;
    let mut best = (f64::INFINITY, 0u64);
    let mut bisection = usize::MAX;
    for step in 0..1u64 << (n - 1) {
        if step > 0 {
            // Gray code: this mask differs from the last in the lowest set
            // bit of `step`.
            let bit = step.trailing_zeros();
            mask ^= 1 << bit;
            cut.flip(bit as usize + 1);
        }
        if mask == all_u {
            continue;
        }
        let norm = cut.normalized();
        if norm < best.0 || (norm == best.0 && mask < best.1) {
            best = (norm, mask);
        }
        if cut.size_u.abs_diff(n - cut.size_u) <= 1 {
            bisection = bisection.min(cut.crossing_min());
        }
    }
    let members = (best.1 << 1) | 1;
    let in_u: Vec<bool> = (0..n).map(|i| (members >> i) & 1 == 1).collect();
    (Cut::new(&adj, &in_u).report(true), bisection as f64)
}

/// Heuristic sparsest cut: multi-start single-node-move local search.  A
/// topology with fewer than two routers has no cut; it gets the all-`U`
/// report, whose normalized bandwidth is infinite.
pub fn sparsest_cut_heuristic(topo: &Topology, starts: usize, seed: u64) -> CutReport {
    let n = topo.num_routers();
    let adj = Adjacency::new(topo);
    if n < 2 {
        return Cut::new(&adj, &vec![true; n]).report(false);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best: Option<CutReport> = None;
    for _ in 0..starts.max(1) {
        let mut in_u = vec![false; n];
        // Random initial partition, non-trivial.
        loop {
            let mut size_u = 0;
            for flag in in_u.iter_mut() {
                *flag = rng.gen_bool(0.5);
                size_u += *flag as usize;
            }
            if size_u > 0 && size_u < n {
                break;
            }
        }
        // Greedy single-node moves until no improvement.
        let mut cut = Cut::new(&adj, &in_u);
        let mut current = cut.normalized();
        loop {
            let mut improved = false;
            for v in 0..n {
                // Keep both sides non-empty.
                if (cut.in_u[v] && cut.size_u == 1) || (!cut.in_u[v] && cut.size_u == n - 1) {
                    continue;
                }
                cut.flip(v);
                let candidate = cut.normalized();
                if candidate < current - 1e-12 {
                    current = candidate;
                    improved = true;
                } else {
                    cut.flip(v);
                }
            }
            if !improved {
                break;
            }
        }
        if best
            .as_ref()
            .is_none_or(|b| current < b.normalized_bandwidth)
        {
            best = Some(cut.report(false));
        }
    }
    best.expect("at least one start")
}

/// Sparsest cut with automatic method selection: exhaustive when the router
/// count permits, heuristic otherwise.
pub fn sparsest_cut(topo: &Topology) -> CutReport {
    if topo.num_routers() <= EXHAUSTIVE_LIMIT {
        sparsest_cut_exhaustive(topo)
    } else {
        sparsest_cut_heuristic(topo, 32, 0x5EEDCA7)
    }
}

/// Bisection bandwidth: minimum crossing capacity (weaker direction) over
/// balanced bipartitions.  Exhaustive for small networks; for larger ones a
/// heuristic restricted to balanced partitions is used.  The value reported
/// matches how the expert-topology papers count it: number of (full-duplex)
/// links crossing the bisection, i.e. the directed crossing count of the
/// weaker direction.
pub fn bisection_bandwidth(topo: &Topology) -> f64 {
    if topo.num_routers() <= EXHAUSTIVE_LIMIT {
        exhaustive_cuts(topo).1
    } else {
        bisection_heuristic(topo, 64, 0xB15EC)
    }
}

/// [`sparsest_cut`] and [`bisection_bandwidth`] together, from a single
/// enumeration when the router count permits.
pub(crate) fn sparsest_cut_and_bisection(topo: &Topology) -> (CutReport, f64) {
    if topo.num_routers() <= EXHAUSTIVE_LIMIT {
        exhaustive_cuts(topo)
    } else {
        (sparsest_cut(topo), bisection_bandwidth(topo))
    }
}

fn bisection_heuristic(topo: &Topology, starts: usize, seed: u64) -> f64 {
    let n = topo.num_routers();
    let half = n / 2;
    let adj = Adjacency::new(topo);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best = f64::INFINITY;
    for _ in 0..starts {
        // Random balanced partition.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut in_u = vec![false; n];
        for &r in order.iter().take(half) {
            in_u[r] = true;
        }
        // Pairwise swap local search maintaining balance.  After an accepted
        // swap the current `a` is no longer in U, so the inner scan must be
        // restarted (otherwise further swaps would unbalance the partition).
        let mut cut = Cut::new(&adj, &in_u);
        let mut current = cut.crossing_min();
        loop {
            let mut improved = false;
            'outer: for a in 0..n {
                if !cut.in_u[a] {
                    continue;
                }
                for b in 0..n {
                    if cut.in_u[b] {
                        continue;
                    }
                    cut.flip(a);
                    cut.flip(b);
                    if cut.crossing_min() < current {
                        current = cut.crossing_min();
                        improved = true;
                        break 'outer;
                    }
                    cut.flip(b);
                    cut.flip(a);
                }
            }
            if !improved {
                break;
            }
        }
        best = best.min(current as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert;
    use crate::layout::{Layout, NodeKind};
    use crate::linkclass::{LinkClass, LinkSpan};

    #[test]
    fn ring_sparsest_cut() {
        // Bidirectional ring over 6 routers: any contiguous cut crosses 2
        // links each way; the sparsest cut balances the partition.
        let layout = Layout::interposer_grid(2, 3, 4);
        let links = [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3), (3, 0)];
        let t = Topology::from_bidirectional_links(
            "ring6",
            layout,
            LinkClass::Custom(LinkSpan::new(8, 8)),
            &links,
        );
        let cut = sparsest_cut_exhaustive(&t);
        assert!(cut.exact);
        assert_eq!(cut.crossing_forward.min(cut.crossing_backward), 2);
        // Minimum normalized value is 2 / (3*3).
        assert!((cut.normalized_bandwidth - 2.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_bisection_matches_row_cut() {
        // 4x5 mesh: the balanced 10/10 cut with the fewest crossing links is
        // the horizontal cut between rows 1 and 2, severing 5 column links.
        // (Column cuts sever only 4 links but are 8/12, not balanced.)
        let mesh = expert::mesh(&Layout::noi_4x5());
        let bb = bisection_bandwidth(&mesh);
        assert_eq!(bb, 5.0);
    }

    #[test]
    fn heuristic_close_to_exhaustive_on_small_networks() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let exact = sparsest_cut_exhaustive(&mesh);
        let heur = sparsest_cut_heuristic(&mesh, 16, 42);
        assert!(heur.normalized_bandwidth >= exact.normalized_bandwidth - 1e-12);
        assert!(heur.normalized_bandwidth <= exact.normalized_bandwidth * 1.5 + 1e-9);
    }

    #[test]
    fn asymmetric_direction_minimum_is_used() {
        // A 4-router ring 0-1-3-2-0 whose 0 -> 2 link is missing.  The cut
        // {0, 1} | {2, 3} carries one link forward (1 -> 3) and two back
        // (3 -> 1, 2 -> 0); the weaker direction makes it the sparsest cut
        // at 1 / (2 * 2).
        let layout = Layout::interposer_grid(2, 2, 4);
        let mut t = Topology::empty("one-way", layout, LinkClass::Large);
        t.add_link(0, 1);
        t.add_link(1, 0);
        t.add_link(1, 3);
        t.add_link(3, 1);
        t.add_link(3, 2);
        t.add_link(2, 3);
        t.add_link(2, 0);
        let cut = sparsest_cut_exhaustive(&t);
        assert_eq!(cut.partition, vec![0, 1]);
        assert_eq!(cut.crossing_forward, 1);
        assert_eq!(cut.crossing_backward, 2);
        assert_eq!(cut.normalized_bandwidth, 0.25);
    }

    #[test]
    fn crossing_links_counts_directions_separately() {
        let layout = Layout::interposer_grid(2, 2, 4);
        let mut t = Topology::empty("x", layout, LinkClass::Large);
        t.add_link(0, 3);
        t.add_link(3, 0);
        t.add_link(1, 2);
        let in_u = vec![true, true, false, false];
        let (f, b) = crossing_links(&t, &in_u);
        assert_eq!(f, 2);
        assert_eq!(b, 1);
    }

    #[test]
    fn heuristic_bisection_stays_balanced_on_larger_layouts() {
        // 6x5 mesh: the minimum balanced (15/15) cut severs the 5 column
        // links between two rows; the heuristic reports a real cut, so it
        // can never be below that optimum and must stay close to it.
        let mesh = expert::mesh(&Layout::noi_6x5());
        let bb = bisection_heuristic(&mesh, 64, 0xB15EC);
        assert!(bb >= 5.0, "heuristic produced an impossible cut {bb}");
        assert!(bb <= 7.0, "heuristic far from the optimum: {bb}");
    }

    #[test]
    fn single_start_bisections_match_the_rescanning_search() {
        // One start per seed exposes where each swap search ends, which the
        // 64-start minimum hides.  These are the end points of the search
        // that recounted every link for each candidate swap.
        let torus = expert::folded_torus(&Layout::noi_8x6());
        let kite = expert::kite_large(&Layout::noi_6x5());
        let ends = |t: &Topology| -> Vec<f64> {
            (0..16)
                .map(|seed| bisection_heuristic(t, 1, seed))
                .collect()
        };
        let torus_ends = [
            20.0, 26.0, 16.0, 12.0, 18.0, 16.0, 18.0, 22.0, 24.0, 12.0, 12.0, 12.0, 18.0, 12.0,
            12.0, 22.0,
        ];
        let kite_ends = [
            10.0, 17.0, 10.0, 12.0, 14.0, 10.0, 15.0, 14.0, 15.0, 15.0, 15.0, 10.0, 10.0, 10.0,
            12.0, 12.0,
        ];
        assert_eq!(ends(&torus), torus_ends);
        assert_eq!(ends(&kite), kite_ends);
    }

    #[test]
    fn odd_bisection_considers_router_zero_on_the_larger_side() {
        // A 9-router star around router 0: the 5/4 split with the hub on the
        // larger side severs 4 spokes, the 4/5 split with it on the smaller
        // side severs 5.
        let spokes: Vec<(usize, usize)> = (1..9).map(|leaf| (0, leaf)).collect();
        let star = Topology::from_bidirectional_links(
            "star9",
            Layout::interposer_grid(3, 3, 4),
            LinkClass::Custom(LinkSpan::new(8, 8)),
            &spokes,
        );
        assert_eq!(bisection_bandwidth(&star), 4.0);
    }

    #[test]
    fn heuristic_reports_the_whole_topology_below_two_routers() {
        let layout = Layout::new(1, 1, vec![NodeKind::Cores { count: 4 }], 4);
        let one = Topology::empty("one", layout, LinkClass::Small);
        let cut = sparsest_cut_heuristic(&one, 4, 7);
        assert_eq!(cut.partition, vec![0]);
        assert_eq!(cut.crossing_forward.min(cut.crossing_backward), 0);
        assert_eq!(cut.normalized_bandwidth, f64::INFINITY);
        assert!(!cut.exact);
    }

    #[test]
    fn folded_torus_beats_mesh_on_bisection() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let torus = expert::folded_torus(&layout);
        assert!(bisection_bandwidth(&torus) > bisection_bandwidth(&mesh));
    }

    #[test]
    fn cut_report_partition_is_consistent() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let cut = sparsest_cut(&mesh);
        assert!(!cut.partition.is_empty());
        assert!(cut.partition.len() < 20);
        assert!(cut.partition.contains(&0));
    }
}
