//! PARSEC-style workload profiles.
//!
//! The paper simulates the PARSEC suite (all benchmarks except `vips`,
//! which fails in its baseline) and orders Figure 8 by L2 misses per
//! instruction.  Full traces are not available here, so each benchmark is
//! described by the handful of parameters that determine how sensitive it
//! is to NoI latency.  The absolute values are synthetic; the *ordering*
//! and rough magnitudes follow the published PARSEC characterisations
//! (Bienia et al., PACT 2008) so the left-to-right trend of Figure 8 is
//! reproduced.

use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::Layout;

/// Network-relevant profile of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// L2 misses per kilo-instruction (per core).
    pub l2_mpki: f64,
    /// Fraction of misses served by another cache (coherence traffic);
    /// the remainder goes to the memory controllers.
    pub coherence_fraction: f64,
    /// Base CPI of the out-of-order core when the network is ideal.
    pub base_cpi: f64,
    /// Fraction of miss latency hidden by memory-level parallelism /
    /// out-of-order overlap.
    pub overlap: f64,
}

impl WorkloadProfile {
    /// Misses per instruction.
    pub fn misses_per_instruction(&self) -> f64 {
        self.l2_mpki / 1000.0
    }

    /// The synthetic NoI traffic pattern this workload induces: the
    /// coherence fraction of misses is served cache-to-cache (uniform
    /// router-to-router traffic), the remainder targets the memory
    /// controllers — a hotspot mixture over the layout's memory routers.
    /// Used by the energy harness to replay PARSEC-derived traffic through
    /// the simulator's activity accounting.
    pub fn traffic_pattern(&self, layout: &Layout) -> TrafficPattern {
        TrafficPattern::Hotspot {
            targets: layout.memory_routers(),
            fraction: 1.0 - self.coherence_fraction,
        }
    }
}

/// The PARSEC suite as used in the paper's Figure 8 (vips excluded), in
/// increasing order of L2 MPKI — the same ordering as the figure's X axis.
pub fn parsec_suite() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile {
            name: "swaptions",
            l2_mpki: 0.08,
            coherence_fraction: 0.45,
            base_cpi: 0.55,
            overlap: 0.55,
        },
        WorkloadProfile {
            name: "blackscholes",
            l2_mpki: 0.15,
            coherence_fraction: 0.30,
            base_cpi: 0.55,
            overlap: 0.55,
        },
        WorkloadProfile {
            name: "bodytrack",
            l2_mpki: 0.35,
            coherence_fraction: 0.45,
            base_cpi: 0.60,
            overlap: 0.50,
        },
        WorkloadProfile {
            name: "freqmine",
            l2_mpki: 0.60,
            coherence_fraction: 0.40,
            base_cpi: 0.65,
            overlap: 0.50,
        },
        WorkloadProfile {
            name: "raytrace",
            l2_mpki: 0.80,
            coherence_fraction: 0.50,
            base_cpi: 0.65,
            overlap: 0.50,
        },
        WorkloadProfile {
            name: "x264",
            l2_mpki: 1.10,
            coherence_fraction: 0.45,
            base_cpi: 0.70,
            overlap: 0.45,
        },
        WorkloadProfile {
            name: "ferret",
            l2_mpki: 1.60,
            coherence_fraction: 0.50,
            base_cpi: 0.75,
            overlap: 0.45,
        },
        WorkloadProfile {
            name: "dedup",
            l2_mpki: 2.20,
            coherence_fraction: 0.55,
            base_cpi: 0.80,
            overlap: 0.45,
        },
        WorkloadProfile {
            name: "fluidanimate",
            l2_mpki: 2.80,
            coherence_fraction: 0.60,
            base_cpi: 0.85,
            overlap: 0.40,
        },
        WorkloadProfile {
            name: "facesim",
            l2_mpki: 3.50,
            coherence_fraction: 0.55,
            base_cpi: 0.90,
            overlap: 0.40,
        },
        WorkloadProfile {
            name: "streamcluster",
            l2_mpki: 5.50,
            coherence_fraction: 0.35,
            base_cpi: 1.00,
            overlap: 0.35,
        },
        WorkloadProfile {
            name: "canneal",
            l2_mpki: 7.50,
            coherence_fraction: 0.40,
            base_cpi: 1.10,
            overlap: 0.35,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_benchmarks_sorted_by_mpki() {
        let suite = parsec_suite();
        assert_eq!(suite.len(), 12);
        assert!(suite.windows(2).all(|w| w[0].l2_mpki <= w[1].l2_mpki));
        assert!(!suite.iter().any(|w| w.name == "vips"));
    }

    #[test]
    fn profiles_are_physically_plausible() {
        for w in parsec_suite() {
            assert!(w.l2_mpki > 0.0 && w.l2_mpki < 50.0, "{}", w.name);
            assert!((0.0..=1.0).contains(&w.coherence_fraction));
            assert!((0.0..=1.0).contains(&w.overlap));
            assert!(w.base_cpi > 0.0 && w.base_cpi < 5.0);
            assert!(w.misses_per_instruction() < 0.01);
        }
    }

    #[test]
    fn traffic_pattern_targets_the_memory_routers() {
        let layout = Layout::noi_4x5();
        for w in parsec_suite() {
            let TrafficPattern::Hotspot { targets, fraction } = w.traffic_pattern(&layout) else {
                panic!("{} should induce a hotspot mixture", w.name);
            };
            assert_eq!(targets, layout.memory_routers());
            assert!((0.0..=1.0).contains(&fraction));
            assert!((fraction - (1.0 - w.coherence_fraction)).abs() < 1e-12);
        }
    }

    #[test]
    fn canneal_is_the_most_network_bound() {
        let suite = parsec_suite();
        let max = suite
            .iter()
            .max_by(|a, b| a.l2_mpki.total_cmp(&b.l2_mpki))
            .unwrap();
        assert_eq!(max.name, "canneal");
    }
}
