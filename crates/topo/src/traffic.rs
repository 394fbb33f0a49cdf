//! Traffic patterns and demand matrices.
//!
//! NetSmith optimizes topologies for a traffic model supplied as an input.
//! The paper's evaluation uses uniform random (all-to-all) traffic as the
//! default "pattern-agnostic" model, plus three specialised models: the gem5
//! "shuffle" permutation (Figure 10), memory traffic where only memory-
//! controller routers sink requests, and coherence traffic where every
//! router exchanges with every other.  A [`DemandMatrix`] normalizes any of
//! these into per-pair demand weights so that hop-count objectives and cut
//! bandwidths can be traffic-weighted.

use crate::layout::Layout;
use rand::Rng;

/// Synthetic traffic patterns supported by the generator and optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Uniform random: every source sends to every other router with equal
    /// probability.  This is the paper's default optimization target.
    UniformRandom,
    /// The gem5 "shuffle" permutation used in Figure 10:
    /// `dest = 2*src` for `src < n/2`, `dest = (2*src + 1) mod n` otherwise.
    Shuffle,
    /// Bit-transpose style permutation on the grid: `(r, c) -> (c mod rows,
    /// r mod cols)`; exercises long diagonal flows.
    Transpose,
    /// Memory traffic: cores send requests only to memory-controller
    /// routers (uniformly among them) and MCs respond; models the paper's
    /// Figure 6(b) hot-spot behaviour.
    Memory,
    /// Coherence traffic: router-to-router all-to-all, modelling the
    /// coherence request/forward/response flows of Figure 6(a).  Equivalent
    /// to uniform random at the NoI level.
    Coherence,
    /// Hot-spot: a fraction of the traffic targets a designated set of
    /// routers; the remainder is uniform random.
    Hotspot { targets: Vec<usize>, fraction: f64 },
    /// Bit-complement permutation: `dest = (n - 1) - src`.  Every flow
    /// crosses the network centre, stressing the bisection.
    BitComplement,
    /// Tornado: `dest = (src + ceil(n/2) - 1) mod n`; the classic
    /// adversarial pattern for rings/tori.
    Tornado,
}

impl TrafficPattern {
    /// Human-readable name.
    pub fn name(&self) -> String {
        match self {
            TrafficPattern::UniformRandom => "uniform_random".into(),
            TrafficPattern::Shuffle => "shuffle".into(),
            TrafficPattern::Transpose => "transpose".into(),
            TrafficPattern::Memory => "memory".into(),
            TrafficPattern::Coherence => "coherence".into(),
            TrafficPattern::Hotspot { .. } => "hotspot".into(),
            TrafficPattern::BitComplement => "bit_complement".into(),
            TrafficPattern::Tornado => "tornado".into(),
        }
    }

    /// The bit-complement destination for `src` in an `n`-router network.
    fn bit_complement_destination(src: usize, n: usize) -> usize {
        (n - 1) - src
    }

    /// The tornado destination for `src` in an `n`-router network.
    fn tornado_destination(src: usize, n: usize) -> usize {
        (src + n.div_ceil(2) - 1) % n
    }

    /// The shuffle permutation destination for `src` in an `n`-router
    /// network (paper Section V-E).
    fn shuffle_destination(src: usize, n: usize) -> usize {
        if src < n / 2 {
            2 * src
        } else {
            (2 * src + 1) % n
        }
    }

    /// Build the normalized demand matrix for this pattern over `layout`.
    pub fn demand_matrix(&self, layout: &Layout) -> DemandMatrix {
        let n = layout.num_routers();
        let mut m = DemandMatrix::zeros(n);
        match self {
            TrafficPattern::UniformRandom | TrafficPattern::Coherence => {
                for s in 0..n {
                    for d in 0..n {
                        if s != d {
                            m.set(s, d, 1.0);
                        }
                    }
                }
            }
            TrafficPattern::Shuffle => {
                for s in 0..n {
                    let d = Self::shuffle_destination(s, n);
                    if d != s {
                        m.set(s, d, 1.0);
                    }
                }
            }
            TrafficPattern::Transpose => {
                let (rows, cols) = (layout.rows(), layout.cols());
                for s in 0..n {
                    let (r, c) = layout.position(s);
                    let d = layout.router_at(c % rows, r % cols);
                    if d != s {
                        m.set(s, d, 1.0);
                    }
                }
            }
            TrafficPattern::Memory => {
                let mcs = layout.memory_routers();
                assert!(!mcs.is_empty(), "memory pattern requires memory routers");
                for s in 0..n {
                    for &d in &mcs {
                        if s != d {
                            // request
                            m.add(s, d, 1.0);
                            // response
                            m.add(d, s, 1.0);
                        }
                    }
                }
            }
            TrafficPattern::Hotspot { targets, fraction } => {
                assert!(!targets.is_empty(), "hotspot pattern requires targets");
                assert!((0.0..=1.0).contains(fraction));
                for s in 0..n {
                    for d in 0..n {
                        if s != d {
                            m.add(s, d, 1.0 - fraction);
                        }
                    }
                    for &d in targets {
                        if s != d {
                            m.add(s, d, *fraction * (n - 1) as f64 / targets.len() as f64);
                        }
                    }
                }
            }
            TrafficPattern::BitComplement => {
                for s in 0..n {
                    let d = Self::bit_complement_destination(s, n);
                    if d != s {
                        m.set(s, d, 1.0);
                    }
                }
            }
            TrafficPattern::Tornado => {
                for s in 0..n {
                    let d = Self::tornado_destination(s, n);
                    if d != s {
                        m.set(s, d, 1.0);
                    }
                }
            }
        }
        m.normalize();
        m
    }

    /// Sample a destination for a packet injected at `src`, following the
    /// pattern.  Used by the simulator's traffic generators.
    pub fn sample_destination<R: Rng + ?Sized>(
        &self,
        layout: &Layout,
        src: usize,
        rng: &mut R,
    ) -> Option<usize> {
        let n = layout.num_routers();
        match self {
            TrafficPattern::UniformRandom | TrafficPattern::Coherence => {
                let mut d = rng.gen_range(0..n - 1);
                if d >= src {
                    d += 1;
                }
                Some(d)
            }
            TrafficPattern::Shuffle => {
                let d = Self::shuffle_destination(src, n);
                if d == src {
                    None
                } else {
                    Some(d)
                }
            }
            TrafficPattern::Transpose => {
                let (r, c) = layout.position(src);
                let d = layout.router_at(c % layout.rows(), r % layout.cols());
                if d == src {
                    None
                } else {
                    Some(d)
                }
            }
            TrafficPattern::Memory => {
                let mcs = layout.memory_routers();
                let choices: Vec<usize> = mcs.into_iter().filter(|&d| d != src).collect();
                if choices.is_empty() {
                    None
                } else {
                    Some(choices[rng.gen_range(0..choices.len())])
                }
            }
            TrafficPattern::BitComplement => {
                let d = Self::bit_complement_destination(src, n);
                if d == src {
                    None
                } else {
                    Some(d)
                }
            }
            TrafficPattern::Tornado => {
                let d = Self::tornado_destination(src, n);
                if d == src {
                    None
                } else {
                    Some(d)
                }
            }
            TrafficPattern::Hotspot { targets, fraction } => {
                if rng.gen_bool(*fraction) {
                    let choices: Vec<usize> =
                        targets.iter().copied().filter(|&d| d != src).collect();
                    if choices.is_empty() {
                        None
                    } else {
                        Some(choices[rng.gen_range(0..choices.len())])
                    }
                } else {
                    let mut d = rng.gen_range(0..n - 1);
                    if d >= src {
                        d += 1;
                    }
                    Some(d)
                }
            }
        }
    }
}

/// A normalized `n x n` traffic demand matrix.  Entries are non-negative
/// weights that sum to 1 after [`DemandMatrix::normalize`].
#[derive(Debug, Clone, PartialEq)]
pub struct DemandMatrix {
    n: usize,
    demand: Vec<f64>,
}

impl DemandMatrix {
    /// All-zero matrix.
    pub fn zeros(n: usize) -> Self {
        DemandMatrix {
            n,
            demand: vec![0.0; n * n],
        }
    }

    /// Uniform all-to-all demand (already normalized).
    pub fn uniform(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    m.set(s, d, 1.0);
                }
            }
        }
        m.normalize();
        m
    }

    /// Number of routers the matrix is defined over.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Demand weight from `s` to `d`.
    #[inline]
    pub fn demand(&self, s: usize, d: usize) -> f64 {
        self.demand[s * self.n + d]
    }

    /// Set the demand weight from `s` to `d`.
    pub fn set(&mut self, s: usize, d: usize, value: f64) {
        assert!(value >= 0.0, "demand must be non-negative");
        assert!(s != d || value == 0.0, "self demand must be zero");
        self.demand[s * self.n + d] = value;
    }

    /// Add to the demand weight from `s` to `d`.
    pub fn add(&mut self, s: usize, d: usize, value: f64) {
        assert!(value >= 0.0);
        if s != d {
            self.demand[s * self.n + d] += value;
        }
    }

    /// Sum of all entries.
    pub fn total(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// Scale so that all entries sum to 1 (no-op on an all-zero matrix).
    pub fn normalize(&mut self) {
        let total = self.total();
        if total > 0.0 {
            for v in &mut self.demand {
                *v /= total;
            }
        }
    }

    /// Iterate over non-zero `(src, dst, weight)` triples.
    pub fn flows(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n).flat_map(move |s| {
            (0..n).filter_map(move |d| {
                let w = self.demand(s, d);
                if w > 0.0 {
                    Some((s, d, w))
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_matrix_is_normalized_and_symmetric() {
        let m = DemandMatrix::uniform(20);
        assert!((m.total() - 1.0).abs() < 1e-9);
        for s in 0..20 {
            assert_eq!(m.demand(s, s), 0.0);
            for d in 0..20 {
                assert!((m.demand(s, d) - m.demand(d, s)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn shuffle_destination_matches_paper_formula() {
        let n = 20;
        assert_eq!(TrafficPattern::shuffle_destination(0, n), 0);
        assert_eq!(TrafficPattern::shuffle_destination(3, n), 6);
        assert_eq!(TrafficPattern::shuffle_destination(9, n), 18);
        assert_eq!(TrafficPattern::shuffle_destination(10, n), 1);
        assert_eq!(TrafficPattern::shuffle_destination(19, n), 19);
    }

    #[test]
    fn shuffle_matrix_has_at_most_one_flow_per_source() {
        let layout = Layout::noi_4x5();
        let m = TrafficPattern::Shuffle.demand_matrix(&layout);
        for s in 0..20 {
            let outgoing = (0..20).filter(|&d| m.demand(s, d) > 0.0).count();
            assert!(outgoing <= 1);
        }
        assert!((m.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_pattern_only_targets_memory_routers() {
        let layout = Layout::noi_4x5();
        let m = TrafficPattern::Memory.demand_matrix(&layout);
        let mcs = layout.memory_routers();
        for (s, d, _) in m.flows() {
            assert!(mcs.contains(&d) || mcs.contains(&s));
        }
    }

    #[test]
    fn uniform_sampling_never_returns_source() {
        let layout = Layout::noi_4x5();
        let mut rng = SmallRng::seed_from_u64(7);
        for src in 0..20 {
            for _ in 0..50 {
                let d = TrafficPattern::UniformRandom
                    .sample_destination(&layout, src, &mut rng)
                    .unwrap();
                assert_ne!(d, src);
                assert!(d < 20);
            }
        }
    }

    #[test]
    fn hotspot_biases_towards_targets() {
        let layout = Layout::noi_4x5();
        let pattern = TrafficPattern::Hotspot {
            targets: vec![0],
            fraction: 0.9,
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            if pattern.sample_destination(&layout, 7, &mut rng) == Some(0) {
                hits += 1;
            }
        }
        assert!(hits as f64 > 0.7 * trials as f64);
    }

    #[test]
    fn memory_sampling_targets_memory_routers() {
        let layout = Layout::noi_4x5();
        let mcs = layout.memory_routers();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = TrafficPattern::Memory
                .sample_destination(&layout, 6, &mut rng)
                .unwrap();
            assert!(mcs.contains(&d));
        }
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let n = 20;
        for s in 0..n {
            let d = TrafficPattern::bit_complement_destination(s, n);
            assert_eq!(TrafficPattern::bit_complement_destination(d, n), s);
            assert_ne!(d, s);
        }
        let layout = Layout::noi_4x5();
        let m = TrafficPattern::BitComplement.demand_matrix(&layout);
        assert!((m.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tornado_shifts_by_half_minus_one() {
        let n = 20;
        assert_eq!(TrafficPattern::tornado_destination(0, n), 9);
        assert_eq!(TrafficPattern::tornado_destination(15, n), 4);
        let layout = Layout::noi_4x5();
        let m = TrafficPattern::Tornado.demand_matrix(&layout);
        // Every source has exactly one destination.
        for s in 0..n {
            let outgoing = (0..n).filter(|&d| m.demand(s, d) > 0.0).count();
            assert_eq!(outgoing, 1);
        }
    }

    #[test]
    fn adversarial_patterns_sample_their_permutation() {
        let layout = Layout::noi_4x5();
        let mut rng = SmallRng::seed_from_u64(5);
        for s in 0..20 {
            assert_eq!(
                TrafficPattern::BitComplement.sample_destination(&layout, s, &mut rng),
                Some(19 - s)
            );
            assert_eq!(
                TrafficPattern::Tornado.sample_destination(&layout, s, &mut rng),
                Some((s + 9) % 20)
            );
        }
    }

    #[test]
    fn transpose_is_an_involution_where_defined() {
        let layout = Layout::noi_4x5();
        let m = TrafficPattern::Transpose.demand_matrix(&layout);
        assert!(m.total() > 0.0);
    }

    #[test]
    fn demand_matrix_set_add_and_flows() {
        let mut m = DemandMatrix::zeros(4);
        m.set(0, 1, 2.0);
        m.add(0, 1, 1.0);
        m.add(2, 3, 3.0);
        assert_eq!(m.total(), 6.0);
        m.normalize();
        let flows: Vec<_> = m.flows().collect();
        assert_eq!(flows.len(), 2);
        assert!((m.demand(0, 1) - 0.5).abs() < 1e-12);
    }
}
