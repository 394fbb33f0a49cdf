//! Per-link activity accounting.
//!
//! The paper's power analysis (Figure 9) feeds DSENT a single network-wide
//! activity factor.  That scalar hides exactly the information an
//! energy-proportional fabric needs: *which* links are idle enough to
//! power-gate.  The simulator therefore records, over the measurement
//! window, an [`ActivityProfile`]: flit counts and busy cycles for every
//! directed link.  Energy policies (`netsmith-energy`) and the measured
//! power model (`netsmith-power`) consume this profile instead of a
//! hand-picked utilization guess.

use netsmith_topo::RouterId;

/// Measured activity of one directed link over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkActivity {
    /// Source router of the directed link.
    pub from: RouterId,
    /// Destination router of the directed link.
    pub to: RouterId,
    /// Flits that started traversing the link during the window.
    pub flits: u64,
    /// Cycles within the window the link spent serializing flits.
    pub busy_cycles: u64,
}

impl LinkActivity {
    /// Fraction of window cycles the link was busy (0 when the window is
    /// empty).
    pub fn utilization(&self, measured_cycles: u64) -> f64 {
        if measured_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / measured_cycles as f64
        }
    }
}

/// Per-link activity record of one simulation run, measured over the
/// measurement window only (warm-up and drain excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityProfile {
    /// Length of the measurement window in cycles.
    pub measured_cycles: u64,
    /// One entry per directed link of the simulated topology, in
    /// `Topology::links()` iteration order.
    pub links: Vec<LinkActivity>,
}

impl ActivityProfile {
    /// Empty profile for a network with no links.
    pub fn empty() -> Self {
        ActivityProfile {
            measured_cycles: 0,
            links: Vec::new(),
        }
    }

    /// Mean link utilization across all directed links — the measured
    /// replacement for the scalar activity factor of the static power
    /// model.
    pub fn avg_link_utilization(&self) -> f64 {
        if self.links.is_empty() || self.measured_cycles == 0 {
            return 0.0;
        }
        let busy: u64 = self.links.iter().map(|l| l.busy_cycles).sum();
        busy as f64 / (self.links.len() as f64 * self.measured_cycles as f64)
    }

    /// Total flit-traversals across all links during the window.
    pub fn total_link_flits(&self) -> u64 {
        self.links.iter().map(|l| l.flits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ActivityProfile {
        ActivityProfile {
            measured_cycles: 100,
            links: vec![
                LinkActivity {
                    from: 0,
                    to: 1,
                    flits: 50,
                    busy_cycles: 50,
                },
                LinkActivity {
                    from: 1,
                    to: 0,
                    flits: 10,
                    busy_cycles: 10,
                },
            ],
        }
    }

    #[test]
    fn utilization_is_busy_over_window() {
        let p = profile();
        assert!((p.avg_link_utilization() - 0.3).abs() < 1e-12);
        assert_eq!(p.links[0].utilization(p.measured_cycles), 0.5);
        assert_eq!(p.links[1].utilization(p.measured_cycles), 0.1);
    }

    #[test]
    fn totals_aggregate_links() {
        let p = profile();
        assert_eq!(p.total_link_flits(), 60);
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let p = ActivityProfile::empty();
        assert_eq!(p.avg_link_utilization(), 0.0);
        assert_eq!(p.total_link_flits(), 0);
    }
}
