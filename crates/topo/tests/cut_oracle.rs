//! Oracle equivalence for the exhaustive cut enumeration.
//!
//! `oracle_sparsest_cut` and `oracle_bisection` are verbatim copies of the
//! original enumerators, which swept the 2^(n-1) bipartitions once for
//! the sparsest cut and once more for the bisection, allocating a
//! membership vector per mask.  The property below requires the library's
//! enumeration to report the identical sparsest partition (first strict
//! minimum in mask order), crossing counts and bisection bits on random
//! even-sized topologies, where both bisection definitions agree.

use netsmith_topo::cuts::{self, crossing_links, CutReport};
use netsmith_topo::layout::{Layout, NodeKind};
use netsmith_topo::linkclass::{LinkClass, LinkSpan};
use netsmith_topo::topology::Topology;
use proptest::prelude::*;

fn oracle_report_for(topo: &Topology, in_u: &[bool], exact: bool) -> CutReport {
    let n = topo.num_routers();
    let (fwd, bwd) = crossing_links(topo, in_u);
    let size_u = in_u.iter().filter(|&&b| b).count();
    let size_v = n - size_u;
    let norm = if size_u == 0 || size_v == 0 {
        f64::INFINITY
    } else {
        fwd.min(bwd) as f64 / (size_u * size_v) as f64
    };
    CutReport {
        partition: (0..n).filter(|&i| in_u[i]).collect(),
        crossing_forward: fwd,
        crossing_backward: bwd,
        normalized_bandwidth: norm,
        is_bisection: size_u == size_v || size_u.abs_diff(size_v) == 1,
        exact,
    }
}

fn oracle_sparsest_cut(topo: &Topology) -> CutReport {
    let n = topo.num_routers();
    assert!(n >= 2);
    // Collect links once for the inner loop.
    let links: Vec<(usize, usize)> = topo.links().collect();
    let mut best: Option<(f64, Vec<bool>)> = None;
    // Router 0 always in U; enumerate membership of routers 1..n.
    let combos: u64 = 1u64 << (n - 1);
    for mask in 0..combos {
        let mut in_u = vec![false; n];
        in_u[0] = true;
        let mut size_u = 1usize;
        for b in 0..(n - 1) {
            if (mask >> b) & 1 == 1 {
                in_u[b + 1] = true;
                size_u += 1;
            }
        }
        if size_u == n {
            continue; // V must be non-empty
        }
        let size_v = n - size_u;
        let mut fwd = 0usize;
        let mut bwd = 0usize;
        for &(i, j) in &links {
            match (in_u[i], in_u[j]) {
                (true, false) => fwd += 1,
                (false, true) => bwd += 1,
                _ => {}
            }
        }
        let norm = fwd.min(bwd) as f64 / (size_u * size_v) as f64;
        if best.as_ref().is_none_or(|(b, _)| norm < *b) {
            best = Some((norm, in_u));
        }
    }
    let (_, in_u) = best.expect("at least one cut exists");
    oracle_report_for(topo, &in_u, true)
}

fn oracle_bisection(topo: &Topology) -> f64 {
    let n = topo.num_routers();
    let half = n / 2;
    let links: Vec<(usize, usize)> = topo.links().collect();
    let mut best = f64::INFINITY;
    let combos: u64 = 1u64 << (n - 1);
    for mask in 0..combos {
        let size_u = 1 + mask.count_ones() as usize;
        if size_u != half {
            continue;
        }
        let mut in_u = vec![false; n];
        in_u[0] = true;
        for b in 0..(n - 1) {
            if (mask >> b) & 1 == 1 {
                in_u[b + 1] = true;
            }
        }
        let mut fwd = 0usize;
        let mut bwd = 0usize;
        for &(i, j) in &links {
            match (in_u[i], in_u[j]) {
                (true, false) => fwd += 1,
                (false, true) => bwd += 1,
                _ => {}
            }
        }
        best = best.min(fwd.min(bwd) as f64);
    }
    best
}

/// A topology over `n` routers in one row, keeping each candidate directed
/// link whose draw falls below `density` (out of 4).  Custom spans allow any
/// pair, and nothing forces connectivity, so zero-capacity cuts occur too.
fn line_topology(n: usize, draws: &[u8], density: u8) -> Topology {
    let layout = Layout::new(1, n, vec![NodeKind::Cores { count: 4 }; n], n);
    let mut t = Topology::empty("random", layout, LinkClass::Custom(LinkSpan::new(n, n)));
    let pairs = (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
    for ((i, j), &draw) in pairs.zip(draws) {
        if draw < density {
            t.add_link(i, j);
        }
    }
    t
}

/// Random topologies with an even router count in 2..=14.
fn even_topology() -> impl Strategy<Value = Topology> {
    (1usize..=7, 1u8..4).prop_flat_map(|(half, density)| {
        let n = 2 * half;
        proptest::collection::vec(0u8..4, n * (n - 1))
            .prop_map(move |draws| line_topology(n, &draws, density))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exhaustive_cuts_match_the_two_pass_oracle(topo in even_topology()) {
        let expected = oracle_sparsest_cut(&topo);
        let got = cuts::sparsest_cut_exhaustive(&topo);
        prop_assert_eq!(
            got.normalized_bandwidth.to_bits(),
            expected.normalized_bandwidth.to_bits()
        );
        prop_assert_eq!(got, expected);
        prop_assert_eq!(
            cuts::bisection_bandwidth(&topo).to_bits(),
            oracle_bisection(&topo).to_bits()
        );
    }
}
