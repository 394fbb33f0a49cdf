//! Energy policy configuration and reporting.

use netsmith_power::PowerConfig;

/// Parameters shared by every energy-management policy.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyConfig {
    /// Technology constants of the underlying DSENT-style power model.
    pub power: PowerConfig,
    /// Fraction of a link's wire leakage still burned while the link is
    /// power-gated (retention/controller overhead); 0 would be an ideal
    /// switch, 1 makes gating pointless.
    pub gated_leakage_fraction: f64,
    /// Energy charged per wake event of a gated link, in picojoules
    /// (charging the sleep transistors and re-arming the receiver).
    pub wake_energy_pj: f64,
    /// Virtual-channel budget available when re-verifying that a gated
    /// sub-topology still routes deadlock-free (6 in the paper).
    pub vc_budget: usize,
    /// Seed for the deterministic re-route of gated sub-topologies.
    pub reroute_seed: u64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            power: PowerConfig::default(),
            gated_leakage_fraction: 0.1,
            wake_energy_pj: 10.0,
            vc_budget: 6,
            reroute_seed: 0xECCE,
        }
    }
}

/// Power and energy of one topology under one management policy at one
/// measured operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Name of the policy that produced the report.
    pub policy: String,
    /// Static (leakage) power after the policy's gating/scaling, in mW.
    pub static_mw: f64,
    /// Dynamic power including any policy overhead (wake events), in mW.
    pub dynamic_mw: f64,
    /// Static power saved relative to always-on operation, in mW.
    pub gated_savings_mw: f64,
    /// Number of power-gated full-duplex links (0 for non-gating policies).
    pub gated_links: usize,
    /// Energy per *delivered* flit in pJ (total power over delivered flit
    /// rate; 0 when nothing was delivered).
    pub energy_per_flit_pj: f64,
    /// Energy-delay product: energy per delivered flit times average packet
    /// latency, in pJ·ns.
    pub edp_pj_ns: f64,
    /// Average packet latency in cycles including policy penalties (wake
    /// latency for gating policies).
    pub avg_latency_cycles: f64,
    /// The same latency in nanoseconds at the policy's effective clock.
    pub avg_latency_ns: f64,
    /// Whether the managed configuration was verified to remain strongly
    /// connected and deadlock-free (gated sub-topology re-routed and
    /// re-allocated through the standard machinery).
    pub routable: bool,
}

impl EnergyReport {
    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }

    /// Derive the per-flit energy and EDP figures from power, latency and
    /// the delivered flit rate (flits per nanosecond).
    pub(crate) fn finalize(mut self, delivered_flits_per_ns: f64) -> Self {
        if delivered_flits_per_ns > 0.0 {
            self.energy_per_flit_pj = self.total_mw() / delivered_flits_per_ns;
        } else {
            self.energy_per_flit_pj = 0.0;
        }
        self.edp_pj_ns = self.energy_per_flit_pj * self.avg_latency_ns;
        self
    }

    /// CSV header matching [`EnergyReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "policy,static_mw,dynamic_mw,gated_savings_mw,total_mw,gated_links,\
         energy_per_flit_pj,edp_pj_ns,latency_cycles,latency_ns,routable"
    }

    /// One CSV row of the report.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{:.3},{:.3},{:.3},{:.3},{},{:.3},{:.3},{:.2},{:.2},{}",
            self.policy,
            self.static_mw,
            self.dynamic_mw,
            self.gated_savings_mw,
            self.total_mw(),
            self.gated_links,
            self.energy_per_flit_pj,
            self.edp_pj_ns,
            self.avg_latency_cycles,
            self.avg_latency_ns,
            self.routable
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EnergyReport {
        EnergyReport {
            policy: "test".into(),
            static_mw: 60.0,
            dynamic_mw: 40.0,
            gated_savings_mw: 0.0,
            gated_links: 0,
            energy_per_flit_pj: 0.0,
            edp_pj_ns: 0.0,
            avg_latency_cycles: 30.0,
            avg_latency_ns: 10.0,
            routable: true,
        }
    }

    #[test]
    fn finalize_divides_power_by_flit_rate() {
        let r = base().finalize(2.0);
        assert!((r.energy_per_flit_pj - 50.0).abs() < 1e-9);
        assert!((r.edp_pj_ns - 500.0).abs() < 1e-9);
        assert!((r.total_mw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn finalize_handles_zero_delivery() {
        let r = base().finalize(0.0);
        assert_eq!(r.energy_per_flit_pj, 0.0);
        assert_eq!(r.edp_pj_ns, 0.0);
    }

    #[test]
    fn csv_row_has_as_many_fields_as_the_header() {
        let r = base().finalize(1.0);
        assert_eq!(
            r.to_csv_row().split(',').count(),
            EnergyReport::csv_header().split(',').count()
        );
    }

    #[test]
    fn default_config_is_physical() {
        let c = EnergyConfig::default();
        assert!((0.0..1.0).contains(&c.gated_leakage_fraction));
        assert!(c.wake_energy_pj >= 0.0);
        assert!(c.vc_budget >= 1);
    }
}
