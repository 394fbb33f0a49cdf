//! Fault models and scenario generation.
//!
//! A [`Fault`] is a permanent component failure: a full-duplex link (both
//! directions share the physical wire run, so a wire fault takes out both)
//! or a whole router (taking its attached cores and every incident link
//! with it).  A [`FaultScenario`] is a set of simultaneous faults;
//! applying one to a healthy [`Topology`] yields a [`DegradedTopology`] —
//! the surviving sub-topology plus the alive mask the simulator and the
//! repair policies reason about.
//!
//! Scenario supply comes in two forms: exhaustive single-fault enumeration
//! ([`single_link_scenarios`], [`single_router_scenarios`]) for coverage
//! claims ("every single link failure re-routes"), and seeded random
//! sampling of multi-fault combinations ([`FaultModel::sample_scenarios`])
//! for the combinatorially large higher-order spaces.

use netsmith_topo::resilience::{is_strongly_connected_among, unreachable_pairs_among};
use netsmith_topo::{duplex_pairs, RouterId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A permanent component failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// Failure of the physical wire between two routers: both directions
    /// of the duplex pair go down.  Stored in canonical `(lo, hi)` order.
    Link(RouterId, RouterId),
    /// Failure of a router: every incident link goes down and the node
    /// stops injecting or sinking traffic.
    Router(RouterId),
}

impl Fault {
    /// Canonicalize a link fault's endpoint order.
    pub fn link(a: RouterId, b: RouterId) -> Fault {
        Fault::Link(a.min(b), a.max(b))
    }

    /// Short label used in scenario names ("l3-7", "r12").
    fn label(&self) -> String {
        match self {
            Fault::Link(a, b) => format!("l{a}-{b}"),
            Fault::Router(r) => format!("r{r}"),
        }
    }
}

/// A set of simultaneous permanent faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultScenario {
    /// The faults, kept sorted so equal scenarios compare equal.
    pub faults: Vec<Fault>,
}

impl FaultScenario {
    /// The no-fault scenario (the healthy baseline).
    pub fn healthy() -> Self {
        FaultScenario::default()
    }

    /// Build a scenario from faults (link endpoints canonicalized, then
    /// sorted and deduplicated, so equivalent scenarios compare equal).
    pub fn new(faults: Vec<Fault>) -> Self {
        let mut faults: Vec<Fault> = faults
            .into_iter()
            .map(|f| match f {
                Fault::Link(a, b) => Fault::link(a, b),
                router => router,
            })
            .collect();
        faults.sort_unstable();
        faults.dedup();
        FaultScenario { faults }
    }

    /// Number of failed links.
    pub fn link_faults(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f, Fault::Link(..)))
            .count()
    }

    /// Number of failed routers.
    pub fn router_faults(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f, Fault::Router(..)))
            .count()
    }

    /// Human-readable scenario label ("healthy", "l3-7+r12").
    pub fn label(&self) -> String {
        if self.faults.is_empty() {
            "healthy".into()
        } else {
            self.faults
                .iter()
                .map(Fault::label)
                .collect::<Vec<_>>()
                .join("+")
        }
    }

    /// Apply the scenario to a healthy topology: remove every failed link
    /// and every link incident to a failed router, and clear the failed
    /// routers' alive bits.
    pub fn apply(&self, topo: &Topology) -> DegradedTopology {
        let n = topo.num_routers();
        let mut degraded = topo
            .clone()
            .with_name(format!("{}!{}", topo.name(), self.label()));
        let mut alive = vec![true; n];
        for fault in &self.faults {
            match *fault {
                Fault::Link(a, b) => {
                    degraded.remove_link(a, b);
                    degraded.remove_link(b, a);
                }
                Fault::Router(r) => {
                    alive[r] = false;
                    for other in 0..n {
                        if other != r {
                            degraded.remove_link(r, other);
                            degraded.remove_link(other, r);
                        }
                    }
                }
            }
        }
        DegradedTopology {
            topology: degraded,
            alive,
            scenario: self.clone(),
        }
    }
}

/// The surviving sub-topology after a fault scenario hit.
#[derive(Debug, Clone)]
pub struct DegradedTopology {
    /// The topology with every failed link removed (including the links of
    /// failed routers).
    pub topology: Topology,
    /// `alive[r]` is false for failed routers; they no longer inject or
    /// sink traffic.
    pub alive: Vec<bool>,
    /// The scenario that produced this state.
    pub scenario: FaultScenario,
}

impl DegradedTopology {
    /// The failed routers, ascending.
    pub fn failed_routers(&self) -> Vec<RouterId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| !a)
            .map(|(r, _)| r)
            .collect()
    }

    /// Number of surviving routers.
    pub fn num_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Surviving pairs with no directed path through surviving routers —
    /// traffic that no repair policy can restore.
    pub fn unreachable_pairs(&self) -> usize {
        unreachable_pairs_among(&self.topology, &self.alive)
    }

    /// True when every surviving router can still reach every other.
    pub fn is_connected(&self) -> bool {
        is_strongly_connected_among(&self.topology, &self.alive)
    }
}

/// Exhaustive single-link-failure scenarios: one per full-duplex pair.
pub fn single_link_scenarios(topo: &Topology) -> Vec<FaultScenario> {
    duplex_pairs(topo)
        .into_iter()
        .map(|(a, b)| FaultScenario::new(vec![Fault::link(a, b)]))
        .collect()
}

/// Exhaustive single-router-failure scenarios: one per router.
pub fn single_router_scenarios(topo: &Topology) -> Vec<FaultScenario> {
    (0..topo.num_routers())
        .map(|r| FaultScenario::new(vec![Fault::Router(r)]))
        .collect()
}

/// A seeded sampler of multi-fault scenarios with a fixed fault mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultModel {
    /// Simultaneous full-duplex link failures per scenario.
    pub link_faults: usize,
    /// Simultaneous router failures per scenario.
    pub router_faults: usize,
    /// RNG seed; the sampled scenario set is a pure function of the seed,
    /// the topology and the requested count.
    pub seed: u64,
}

impl FaultModel {
    /// A model injecting `link_faults` link failures per scenario.
    pub fn links(link_faults: usize, seed: u64) -> Self {
        FaultModel {
            link_faults,
            router_faults: 0,
            seed,
        }
    }

    /// Sample up to `count` *distinct* scenarios with this model's fault
    /// mix.  Fewer are returned when the topology does not have enough
    /// distinct combinations (the sampler gives up after a bounded number
    /// of redraws).
    pub fn sample_scenarios(&self, topo: &Topology, count: usize) -> Vec<FaultScenario> {
        let pairs = duplex_pairs(topo);
        let n = topo.num_routers();
        if self.link_faults > pairs.len() || self.router_faults > n {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut seen: BTreeSet<Vec<Fault>> = BTreeSet::new();
        let mut scenarios = Vec::with_capacity(count);
        let mut attempts = 0usize;
        let max_attempts = count.saturating_mul(50).max(200);
        while scenarios.len() < count && attempts < max_attempts {
            attempts += 1;
            let mut faults: BTreeSet<Fault> = BTreeSet::new();
            while faults
                .iter()
                .filter(|f| matches!(f, Fault::Link(..)))
                .count()
                < self.link_faults
            {
                let (a, b) = pairs[rng.gen_range(0..pairs.len())];
                faults.insert(Fault::link(a, b));
            }
            while faults
                .iter()
                .filter(|f| matches!(f, Fault::Router(..)))
                .count()
                < self.router_faults
            {
                faults.insert(Fault::Router(rng.gen_range(0..n)));
            }
            let faults: Vec<Fault> = faults.into_iter().collect();
            if seen.insert(faults.clone()) {
                scenarios.push(FaultScenario { faults });
            }
        }
        scenarios
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::{expert, Layout};

    #[test]
    fn link_fault_removes_both_directions() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let scenario = FaultScenario::new(vec![Fault::link(1, 0)]);
        let degraded = scenario.apply(&mesh);
        assert!(!degraded.topology.has_link(0, 1));
        assert!(!degraded.topology.has_link(1, 0));
        assert_eq!(degraded.num_alive(), 20);
        assert!(degraded.is_connected());
        assert_eq!(degraded.unreachable_pairs(), 0);
        assert_eq!(scenario.label(), "l0-1");
    }

    #[test]
    fn router_fault_isolates_the_router() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let scenario = FaultScenario::new(vec![Fault::Router(7)]);
        let degraded = scenario.apply(&mesh);
        assert_eq!(degraded.failed_routers(), vec![7]);
        assert_eq!(degraded.num_alive(), 19);
        for other in 0..20 {
            if other != 7 {
                assert!(!degraded.topology.has_link(7, other));
                assert!(!degraded.topology.has_link(other, 7));
            }
        }
        // A mesh survives any single router loss.
        assert!(degraded.is_connected());
    }

    #[test]
    fn single_fault_enumerations_cover_every_component() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        assert_eq!(single_link_scenarios(&torus).len(), torus.num_links());
        assert_eq!(single_router_scenarios(&torus).len(), 20);
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let model = FaultModel {
            link_faults: 2,
            router_faults: 1,
            seed: 99,
        };
        let a = model.sample_scenarios(&mesh, 12);
        let b = model.sample_scenarios(&mesh, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        let distinct: BTreeSet<Vec<Fault>> = a.iter().map(|s| s.faults.clone()).collect();
        assert_eq!(distinct.len(), a.len());
        for s in &a {
            assert_eq!(s.link_faults(), 2);
            assert_eq!(s.router_faults(), 1);
        }
    }

    #[test]
    fn sampling_exhausts_small_spaces_gracefully() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        // Only 31 duplex pairs exist, so asking for far more single-link
        // scenarios than that returns each at most once.
        let model = FaultModel::links(1, 7);
        let scenarios = model.sample_scenarios(&mesh, 500);
        assert_eq!(scenarios.len(), duplex_pairs(&mesh).len());
    }

    #[test]
    fn scenario_construction_canonicalizes_link_endpoints() {
        let reversed = FaultScenario::new(vec![Fault::Link(6, 5), Fault::Link(5, 6)]);
        let canonical = FaultScenario::new(vec![Fault::link(5, 6)]);
        assert_eq!(reversed, canonical);
        assert_eq!(reversed.link_faults(), 1);
        assert_eq!(reversed.label(), "l5-6");
    }

    #[test]
    fn healthy_scenario_is_a_no_op() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let degraded = FaultScenario::healthy().apply(&mesh);
        assert_eq!(
            degraded.topology.num_directed_links(),
            mesh.num_directed_links()
        );
        assert_eq!(degraded.num_alive(), 20);
        assert_eq!(FaultScenario::healthy().label(), "healthy");
    }
}
