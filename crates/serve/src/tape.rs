//! The lifetime fault tape: permanent faults arriving over the horizon.
//!
//! Arrivals follow a Poisson process *conditioned on its count*: a
//! Poisson process with `N` arrivals in a window places them as uniform
//! order statistics, so sampling exactly `round(expected_faults)`
//! uniform epochs is distribution-faithful while keeping the tape size
//! deterministic (a harness that promises "≥ 1 injected fault" must not
//! flake on an unlucky draw).  The faults themselves come from
//! [`netsmith_fault::FaultModel`], which guarantees distinct,
//! canonically-ordered link faults.

use netsmith_fault::{Fault, FaultModel};
use netsmith_topo::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shape of the lifetime fault process.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeSpec {
    /// Expected fault arrivals over the horizon; the tape carries exactly
    /// `round(expected_faults)` events.
    pub expected_faults: f64,
    /// Seed of both the fault sampler and the arrival clock.
    pub seed: u64,
}

impl Default for TapeSpec {
    fn default() -> Self {
        TapeSpec {
            expected_faults: 2.0,
            seed: 0x5EED_FA17,
        }
    }
}

/// One scheduled permanent fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Epoch boundary at which the fault lands (repair runs before the
    /// epoch is served).
    pub epoch: u64,
    pub fault: Fault,
}

/// The full schedule of lifetime faults, sorted by arrival epoch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultTape {
    pub events: Vec<FaultEvent>,
}

impl FaultTape {
    /// Sample a tape for `topo` over `horizon` epochs.  Pure function of
    /// `(topo, spec, horizon)`: the same inputs always yield the same
    /// tape, which is what makes a serving run replayable.
    pub fn sample(topo: &Topology, spec: &TapeSpec, horizon: u64) -> FaultTape {
        let count = spec.expected_faults.round().max(0.0) as usize;
        if count == 0 || horizon < 2 {
            return FaultTape::default();
        }
        let faults: Vec<Fault> = FaultModel::links(1, spec.seed)
            .sample_scenarios(topo, count)
            .into_iter()
            .flat_map(|s| s.faults)
            .collect();
        // Arrival epochs: uniform order statistics in [1, horizon), drawn
        // from a clock RNG independent of the fault sampler.
        let mut clock = SmallRng::seed_from_u64(spec.seed ^ 0xC10C_4A11_0000_0001);
        let mut epochs: Vec<u64> = (0..faults.len())
            .map(|_| clock.gen_range(1..horizon))
            .collect();
        epochs.sort_unstable();
        let events = epochs
            .into_iter()
            .zip(faults)
            .map(|(epoch, fault)| FaultEvent { epoch, fault })
            .collect();
        FaultTape { events }
    }

    /// Faults landing exactly at epoch `e`.
    pub fn arrivals_at(&self, e: u64) -> impl Iterator<Item = Fault> + '_ {
        self.events
            .iter()
            .filter(move |ev| ev.epoch == e)
            .map(|ev| ev.fault)
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compact human-readable label, e.g. `"l3-7@41+l0-5@180"`.
    pub fn label(&self) -> String {
        if self.events.is_empty() {
            return "none".into();
        }
        self.events
            .iter()
            .map(|ev| match ev.fault {
                Fault::Link(a, b) => format!("l{a}-{b}@{}", ev.epoch),
                Fault::Router(r) => format!("r{r}@{}", ev.epoch),
            })
            .collect::<Vec<_>>()
            .join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::{expert, Layout};

    #[test]
    fn tape_is_deterministic_sorted_and_sized() {
        let layout = Layout::noi_4x5();
        let topo = expert::folded_torus(&layout);
        let spec = TapeSpec {
            expected_faults: 3.0,
            seed: 99,
        };
        let a = FaultTape::sample(&topo, &spec, 400);
        let b = FaultTape::sample(&topo, &spec, 400);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.events.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        assert!(a.events.iter().all(|ev| ev.epoch >= 1 && ev.epoch < 400));
        // Distinct faults (FaultModel guarantees scenario distinctness).
        let mut faults: Vec<Fault> = a.events.iter().map(|e| e.fault).collect();
        faults.sort();
        faults.dedup();
        assert_eq!(faults.len(), 3);
    }

    #[test]
    fn zero_expected_faults_is_an_empty_tape() {
        let layout = Layout::noi_4x5();
        let topo = expert::mesh(&layout);
        let spec = TapeSpec {
            expected_faults: 0.0,
            seed: 1,
        };
        assert!(FaultTape::sample(&topo, &spec, 100).is_empty());
    }
}
