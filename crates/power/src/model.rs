//! The analytical area/power model.

use netsmith_sim::{ActivityProfile, SimConfig};
use netsmith_topo::Topology;

/// Technology and circuit constants (22 nm-class defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Router leakage power per router in milliwatts.
    pub router_leakage_mw: f64,
    /// Wire leakage (repeaters) per millimetre in milliwatts.
    pub wire_leakage_mw_per_mm: f64,
    /// Endpoint leakage per physical link in milliwatts: the two port
    /// macros (SerDes, link buffers, clocking) a link keeps powered at
    /// both ends even when no flit moves.  Counted per full-duplex pair,
    /// like the wire run itself; this is the static component power
    /// gating a link actually recovers, on top of its repeaters.
    pub link_port_leakage_mw: f64,
    /// Dynamic energy per flit per router traversal in picojoules.
    pub router_energy_pj_per_flit: f64,
    /// Dynamic energy per flit per millimetre of wire in picojoules.
    pub wire_energy_pj_per_flit_mm: f64,
    /// Router area in square millimetres (radix-4, 8B links).
    pub router_area_mm2: f64,
    /// Wire area per millimetre of link (all repeated wires of one 8B
    /// full-duplex link), in square millimetres per millimetre.
    pub wire_area_mm2_per_mm: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            router_leakage_mw: 4.0,
            wire_leakage_mw_per_mm: 0.15,
            link_port_leakage_mw: 3.0,
            router_energy_pj_per_flit: 3.0,
            wire_energy_pj_per_flit_mm: 0.9,
            router_area_mm2: 0.045,
            wire_area_mm2_per_mm: 0.012,
        }
    }
}

/// Power broken into static (leakage) and dynamic components, in mW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    pub static_mw: f64,
    pub dynamic_mw: f64,
}

impl PowerReport {
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }
}

/// Area broken into router and wire components, in mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    pub router_mm2: f64,
    pub wire_mm2: f64,
}

impl AreaReport {
    pub fn total_mm2(&self) -> f64 {
        self.router_mm2 + self.wire_mm2
    }
}

/// Static (leakage) power of a topology in mW: router leakage,
/// length-proportional wire leakage, and per-link endpoint port leakage.
pub fn static_power_mw(topo: &Topology, config: &PowerConfig) -> f64 {
    topo.num_routers() as f64 * config.router_leakage_mw
        + topo.total_wire_length_mm() * config.wire_leakage_mw_per_mm
        + topo.num_links() as f64 * config.link_port_leakage_mw
}

/// Compute the power of a topology from the simulator's measured per-link
/// activity.
///
/// Every flit traversal is charged the wire energy of the *specific* link
/// it crossed, so topologies that concentrate traffic on short links are
/// not over-charged by the network-average wire length (and vice versa) —
/// unlike the retired scalar-utilization model, which fed the whole
/// network one hand-picked activity factor.
pub fn power_report_from_activity(
    topo: &Topology,
    config: &PowerConfig,
    sim: &SimConfig,
    activity: &ActivityProfile,
) -> PowerReport {
    let static_mw = static_power_mw(topo, config);
    let mut dynamic_mw = 0.0;
    if activity.measured_cycles > 0 {
        let layout = topo.layout();
        for link in &activity.links {
            let flits_per_ns = link.flits as f64 / activity.measured_cycles as f64 * sim.clock_ghz;
            let energy_per_flit_pj = config.router_energy_pj_per_flit
                + config.wire_energy_pj_per_flit_mm * layout.distance_mm(link.from, link.to);
            dynamic_mw += flits_per_ns * energy_per_flit_pj;
        }
    }
    PowerReport {
        static_mw,
        dynamic_mw,
    }
}

/// Compute the area of a topology.
pub fn area_report(topo: &Topology, config: &PowerConfig) -> AreaReport {
    let n = topo.num_routers() as f64;
    AreaReport {
        router_mm2: n * config.router_area_mm2,
        wire_mm2: topo.total_wire_length_mm() * config.wire_area_mm2_per_mm,
    }
}

/// Normalize a value against a baseline (mesh in the paper's Figure 9).
pub fn relative_to(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_sim::LinkActivity;
    use netsmith_topo::expert;
    use netsmith_topo::{Layout, LinkClass};

    /// A uniform activity profile with every link busy `utilization` of the
    /// window.
    fn uniform_activity(topo: &Topology, utilization: f64) -> ActivityProfile {
        let cycles = 1_000u64;
        ActivityProfile {
            measured_cycles: cycles,
            links: topo
                .links()
                .map(|(from, to)| LinkActivity {
                    from,
                    to,
                    flits: (utilization * cycles as f64) as u64,
                    busy_cycles: (utilization * cycles as f64) as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn leakage_is_similar_across_equal_router_topologies() {
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let sim = SimConfig::default();
        let mesh_topo = expert::mesh(&layout);
        let kite_topo = expert::kite_large(&layout);
        let mesh =
            power_report_from_activity(&mesh_topo, &cfg, &sim, &uniform_activity(&mesh_topo, 0.2));
        let kite =
            power_report_from_activity(&kite_topo, &cfg, &sim, &uniform_activity(&kite_topo, 0.2));
        let ratio = kite.static_mw / mesh.static_mw;
        assert!(ratio > 0.9 && ratio < 1.4, "leakage ratio {ratio}");
    }

    #[test]
    fn dynamic_power_scales_with_utilization_and_clock() {
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let topo = expert::folded_torus(&layout);
        let slow = SimConfig {
            clock_ghz: 2.7,
            ..SimConfig::default()
        };
        let fast = SimConfig {
            clock_ghz: 3.6,
            ..SimConfig::default()
        };
        let low = power_report_from_activity(&topo, &cfg, &slow, &uniform_activity(&topo, 0.1));
        let high = power_report_from_activity(&topo, &cfg, &slow, &uniform_activity(&topo, 0.3));
        assert!(high.dynamic_mw > low.dynamic_mw);
        let faster = power_report_from_activity(&topo, &cfg, &fast, &uniform_activity(&topo, 0.1));
        assert!(faster.dynamic_mw > low.dynamic_mw);
        // Static power does not depend on activity.
        assert!((high.static_mw - low.static_mw).abs() < 1e-9);
    }

    #[test]
    fn measured_report_matches_analytic_expectation_on_uniform_activity() {
        // When every link carries the same load, the per-link accounting
        // must agree with the closed-form expectation: flit rate per link
        // times (router energy + wire energy for that link's length),
        // summed over links.  On the mesh every link has the same length,
        // so the sum collapses to one product.
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let sim = SimConfig::default();
        let mesh = expert::mesh(&layout);
        let utilization = 0.2;
        let activity = uniform_activity(&mesh, utilization);
        let measured = power_report_from_activity(&mesh, &cfg, &sim, &activity);
        let link_mm = mesh.total_wire_length_mm() / mesh.num_links() as f64;
        let flits_per_ns = mesh.num_directed_links() as f64 * utilization * sim.clock_ghz;
        let expected_dynamic = flits_per_ns
            * (cfg.router_energy_pj_per_flit + cfg.wire_energy_pj_per_flit_mm * link_mm);
        assert!((measured.static_mw - static_power_mw(&mesh, &cfg)).abs() < 1e-9);
        assert!(
            (measured.dynamic_mw - expected_dynamic).abs() < 1e-6 * expected_dynamic,
            "measured {} vs expected {}",
            measured.dynamic_mw,
            expected_dynamic
        );
    }

    #[test]
    fn measured_report_charges_the_link_actually_used() {
        // Concentrating all traffic on the longest links must cost more
        // dynamic power than the same flit count on the shortest links.
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let sim = SimConfig::default();
        let torus = expert::folded_torus(&layout);
        let mut links: Vec<(usize, usize)> = torus.links().collect();
        links.sort_by(|a, b| {
            layout
                .distance_mm(a.0, a.1)
                .total_cmp(&layout.distance_mm(b.0, b.1))
        });
        let activity_on = |subset: &[(usize, usize)]| ActivityProfile {
            measured_cycles: 1_000,
            links: subset
                .iter()
                .map(|&(from, to)| LinkActivity {
                    from,
                    to,
                    flits: 500,
                    busy_cycles: 500,
                })
                .collect(),
        };
        let short = power_report_from_activity(&torus, &cfg, &sim, &activity_on(&links[..4]));
        let long =
            power_report_from_activity(&torus, &cfg, &sim, &activity_on(&links[links.len() - 4..]));
        assert!(
            long.dynamic_mw > short.dynamic_mw,
            "long {} vs short {}",
            long.dynamic_mw,
            short.dynamic_mw
        );
        assert!((long.static_mw - short.static_mw).abs() < 1e-9);
    }

    #[test]
    fn empty_activity_has_zero_dynamic_power() {
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let sim = SimConfig::default();
        let mesh = expert::mesh(&layout);
        let report = power_report_from_activity(&mesh, &cfg, &sim, &ActivityProfile::empty());
        assert_eq!(report.dynamic_mw, 0.0);
        assert!(report.static_mw > 0.0);
    }

    #[test]
    fn wire_area_dominates_router_area() {
        // The paper notes total wire area is the dominant fraction.
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        for topo in expert::all_baselines(&layout) {
            let area = area_report(&topo, &cfg);
            assert!(
                area.wire_mm2 > area.router_mm2,
                "{}: wire {} vs router {}",
                topo.name(),
                area.wire_mm2,
                area.router_mm2
            );
        }
    }

    #[test]
    fn longer_link_classes_use_more_wire_area() {
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let mesh = area_report(&expert::mesh(&layout), &cfg);
        let torus = area_report(&expert::folded_torus(&layout), &cfg);
        assert!(torus.wire_mm2 > mesh.wire_mm2);
    }

    #[test]
    fn interposer_stays_minimally_active() {
        // Router area must stay a tiny fraction of a ~24x22mm interposer
        // (the paper reports under 3%).
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let area = area_report(&expert::kite_large(&layout), &cfg);
        let interposer_mm2 = 24.0 * 22.0;
        assert!(area.router_mm2 / interposer_mm2 < 0.03);
    }

    #[test]
    fn relative_normalization() {
        assert_eq!(relative_to(4.0, 2.0), 2.0);
        assert_eq!(relative_to(1.0, 0.0), 0.0);
    }

    #[test]
    fn empty_topology_has_zero_dynamic_power() {
        let layout = Layout::noi_4x5();
        let cfg = PowerConfig::default();
        let sim = SimConfig::default();
        let t = netsmith_topo::Topology::empty("none", layout, LinkClass::Small);
        let p = power_report_from_activity(&t, &cfg, &sim, &uniform_activity(&t, 0.5));
        assert_eq!(p.dynamic_mw, 0.0);
        assert!(p.static_mw > 0.0);
    }
}
