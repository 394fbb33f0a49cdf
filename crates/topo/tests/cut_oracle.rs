//! Oracle equivalence for the cut searches.
//!
//! `oracle_sparsest_cut` and `oracle_bisection` are verbatim copies of the
//! original enumerators, which swept the 2^(n-1) bipartitions once for
//! the sparsest cut and once more for the bisection, allocating a
//! membership vector per mask.  The first property requires the library's
//! enumeration to report the identical sparsest partition (first strict
//! minimum in mask order) and crossing counts on random topologies of 2 to
//! 15 routers, and the identical bisection bits at even sizes, where both
//! bisection definitions agree.
//!
//! `oracle_sparsest_cut_heuristic` and `oracle_bisection_heuristic` are
//! verbatim copies of the multi-start local searches used above the
//! exhaustive limit, which rescanned every link for each candidate move
//! (`oracle_crossing_links`).  The library must reproduce every move they
//! make: the same `CutReport` and the same bisection bits on random
//! topologies of 25 to 36 routers and on the 8x6 folded torus.

use netsmith_topo::cuts::{self, CutReport};
use netsmith_topo::expert;
use netsmith_topo::layout::{Layout, NodeKind};
use netsmith_topo::linkclass::{LinkClass, LinkSpan};
use netsmith_topo::topology::Topology;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn oracle_crossing_links(topo: &Topology, in_u: &[bool]) -> (usize, usize) {
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

fn oracle_report_for(topo: &Topology, in_u: &[bool], exact: bool) -> CutReport {
    let n = topo.num_routers();
    let (fwd, bwd) = oracle_crossing_links(topo, in_u);
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

fn oracle_sparsest_cut_heuristic(topo: &Topology, starts: usize, seed: u64) -> CutReport {
    let n = topo.num_routers();
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
        let mut current = oracle_report_for(topo, &in_u, false);
        loop {
            let mut improved = false;
            for v in 0..n {
                let size_u = in_u.iter().filter(|&&b| b).count();
                // Keep both sides non-empty.
                if (in_u[v] && size_u == 1) || (!in_u[v] && size_u == n - 1) {
                    continue;
                }
                in_u[v] = !in_u[v];
                let candidate = oracle_report_for(topo, &in_u, false);
                if candidate.normalized_bandwidth < current.normalized_bandwidth - 1e-12 {
                    current = candidate;
                    improved = true;
                } else {
                    in_u[v] = !in_u[v];
                }
            }
            if !improved {
                break;
            }
        }
        if best
            .as_ref()
            .is_none_or(|b| current.normalized_bandwidth < b.normalized_bandwidth)
        {
            best = Some(current);
        }
    }
    best.expect("at least one start")
}

fn oracle_bisection_heuristic(topo: &Topology, starts: usize, seed: u64) -> f64 {
    let n = topo.num_routers();
    let half = n / 2;
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
        let mut current = {
            let (f, b) = oracle_crossing_links(topo, &in_u);
            f.min(b) as f64
        };
        loop {
            let mut improved = false;
            'outer: for a in 0..n {
                if !in_u[a] {
                    continue;
                }
                for b in 0..n {
                    if in_u[b] {
                        continue;
                    }
                    in_u[a] = false;
                    in_u[b] = true;
                    let (f, w) = oracle_crossing_links(topo, &in_u);
                    let cand = f.min(w) as f64;
                    if cand < current {
                        current = cand;
                        improved = true;
                        break 'outer;
                    } else {
                        in_u[a] = true;
                        in_u[b] = false;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        best = best.min(current);
    }
    best
}

/// A topology over `n` routers in one row, keeping each candidate directed
/// link whose draw falls below `density`.  Custom spans allow any pair, and
/// nothing forces connectivity, so zero-capacity cuts occur too.
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

/// Random topologies with `sizes` routers, each directed link kept with
/// probability `density / draw_range` for a density drawn from 1..=3.
fn random_topology(
    sizes: std::ops::RangeInclusive<usize>,
    draw_range: u8,
) -> impl Strategy<Value = Topology> {
    (sizes, 1u8..4).prop_flat_map(move |(n, density)| {
        proptest::collection::vec(0u8..draw_range, n * (n - 1))
            .prop_map(move |draws| line_topology(n, &draws, density))
    })
}

proptest! {
    // About half the draws have an even router count, so the bisection
    // comparison still sees as many cases as when only even sizes were drawn.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exhaustive_cuts_match_the_two_pass_oracle(topo in random_topology(2..=15, 4)) {
        let expected = oracle_sparsest_cut(&topo);
        let got = cuts::sparsest_cut_exhaustive(&topo);
        prop_assert_eq!(
            got.normalized_bandwidth.to_bits(),
            expected.normalized_bandwidth.to_bits()
        );
        prop_assert_eq!(got, expected);
        if topo.num_routers().is_multiple_of(2) {
            prop_assert_eq!(
                cuts::bisection_bandwidth(&topo).to_bits(),
                oracle_bisection(&topo).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Above the exhaustive limit, at NoI-like densities (an average
    /// out-degree of about one to three).
    #[test]
    fn heuristics_match_the_rescanning_oracles(
        topo in random_topology(25..=36, 32),
        seed in any::<u64>(),
    ) {
        for (starts, seed) in [(0, seed), (4, seed ^ 0xC07), (32, 0x5EEDCA7)] {
            let expected = oracle_sparsest_cut_heuristic(&topo, starts, seed);
            let got = cuts::sparsest_cut_heuristic(&topo, starts, seed);
            prop_assert_eq!(
                got.normalized_bandwidth.to_bits(),
                expected.normalized_bandwidth.to_bits()
            );
            prop_assert_eq!(got, expected);
        }
        prop_assert_eq!(
            cuts::bisection_bandwidth(&topo).to_bits(),
            oracle_bisection_heuristic(&topo, 64, 0xB15EC).to_bits()
        );
    }
}

#[test]
fn heuristics_match_the_oracles_on_the_8x6_folded_torus() {
    let torus = expert::folded_torus(&Layout::noi_8x6());
    let expected = oracle_sparsest_cut_heuristic(&torus, 32, 0x5EEDCA7);
    let got = cuts::sparsest_cut(&torus);
    assert_eq!(
        got.normalized_bandwidth.to_bits(),
        expected.normalized_bandwidth.to_bits()
    );
    assert_eq!(got, expected);
    assert_eq!(
        cuts::bisection_bandwidth(&torus).to_bits(),
        oracle_bisection_heuristic(&torus, 64, 0xB15EC).to_bits()
    );
}
