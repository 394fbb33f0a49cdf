//! SLA-level output of a serving horizon.

use netsmith_sim::LatencyStats;

/// One served (or lost) epoch of the horizon, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    pub epoch: u64,
    /// Offered load the load process scheduled for this epoch.
    pub offered: f64,
    /// Data-packet fraction of the epoch's traffic mix.
    pub data_fraction: f64,
    /// Whether the fabric could route at all this epoch (false = downtime).
    pub routable: bool,
    /// Delivered fraction of the epoch's injected traffic (0 in downtime).
    pub delivered_fraction: f64,
    /// Flits delivered inside the epoch's measurement window.
    pub delivered_flits: u64,
    /// Total power over the epoch, in mW (0 in downtime).
    pub total_mw: f64,
    /// Energy spent over the epoch, in pJ.
    pub energy_pj: f64,
    /// Mean utilization over the links that served the epoch — the
    /// signal the next epoch's policy decision reads (0 in downtime).
    pub avg_link_utilization: f64,
    /// Mean packet latency in cycles at the nominal clock (0 when nothing
    /// was delivered); a downclocked epoch's own cycles are divided by its
    /// `freq_scale`.
    pub mean_latency_cycles: f64,
    /// In-epoch p95 latency in cycles at the nominal clock.
    pub p95_latency_cycles: f64,
    /// Full-duplex pairs the online policy kept gated this epoch.
    pub gated_pairs: u32,
    /// DVFS frequency scale the epoch ran at (1.0 = nominal).
    pub freq_scale: f64,
    /// Whether a fault landed at this epoch's boundary.
    pub fault_arrived: bool,
}

/// Horizon-level SLA report of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Label of the online policy that ran the horizon.
    pub policy: String,
    /// Epochs in the horizon (served + downtime).
    pub epochs: u64,
    /// Faults injected by the tape over the horizon.
    pub faults_injected: u64,
    /// Faults whose online repair succeeded.
    pub repairs_ok: u64,
    /// Epochs lost because the surviving fabric could not be repaired.
    pub downtime_epochs: u64,
    /// Availability: mean over epochs of `routable × delivered_fraction`.
    pub availability: f64,
    /// Flits delivered across the whole horizon.
    pub delivered_flits: u64,
    /// Energy spent across the whole horizon, in pJ.
    pub energy_pj: f64,
    /// Horizon energy per delivered flit, in pJ.
    pub energy_per_flit_pj: f64,
    /// Epochs whose offered load sat below the low-load threshold.
    pub low_load_epochs: u64,
    /// Energy per delivered flit restricted to low-load epochs — the
    /// column the "LinkSleep saves energy at low load" assertion reads.
    pub low_load_energy_per_flit_pj: f64,
    /// The merged latency histogram of every served epoch, in cycles at
    /// the nominal clock (a DVFS epoch's latencies are divided by its
    /// `freq_scale` as they merge); horizon-exact percentiles come from
    /// here, not from averaging per-epoch tails.
    pub latency: LatencyStats,
    /// Horizon-exact tail latencies, in cycles at the nominal clock.
    pub p95_latency_cycles: f64,
    pub p99_latency_cycles: f64,
    /// Mean latency over every delivered packet of the horizon, in cycles
    /// at the nominal clock.
    pub mean_latency_cycles: f64,
    /// Gated pair-epochs accumulated by LinkSleep (0 for other policies).
    pub gated_pair_epochs: u64,
    /// LinkSleep gate decisions made over the horizon (0 for other
    /// policies).
    pub gate_calls: u64,
    /// Gate route attempts that ran shortest paths, MCLB and VC
    /// allocation; a decision that walks back makes several.
    pub gate_routes: u64,
    /// Gate route attempts that reused the previous attempt's routing.
    pub gate_reuses: u64,
    /// Per-epoch series, one record per epoch of the horizon.
    pub records: Vec<EpochRecord>,
}

impl ServingReport {
    /// Horizon-exact percentile in nanoseconds, given the nominal clock
    /// the latency histogram is counted in.
    pub fn percentile_ns(&self, p: f64, clock_ghz: f64) -> f64 {
        self.latency.percentile(p) / clock_ghz
    }
}
