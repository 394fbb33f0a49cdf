//! `design48`: the paper's design flow at scale on the 48-router 8x6
//! interposer.  Each iteration discovers NS-LatOp (with a fixed annealing
//! seed; the workload seed drives the traffic), prepares the medium
//! line-up (folded torus and Kite-Medium with NDBT, NS-LatOp with MCLB:
//! route, VCs, deadlock check, metrics) and sweeps uniform-random load on
//! every network.  It is dominated by the control plane, and it is the
//! only workload large enough for the simulator's parallel arbitration
//! (48 routers and up) to engage.

use crate::checks::{Checks, Digest};
use crate::common::{self, Quality, Scale, Source};
use crate::probe::Probe;
use crate::Workload;
use netsmith::prelude::*;
use netsmith::topo::Topology;

/// Annealing seed of every discovery.  Fixed, so the workload seed drives
/// only the traffic: preparing a discovered 48-router topology (mostly
/// `allocate_vcs`) costs up to a third more for one discovered topology
/// than for another, a spread no useful bound on `best_cpu_s` absorbs.
const DISCOVERY_SEED: u64 = 1;

pub struct Design48 {
    scale: Scale,
    /// The scale's windows with traffic seeded from the workload seed.
    sim: SimConfig,
    experts: Vec<Topology>,
}

pub fn setup(seed: u64, scale: &Scale, checks: &mut Checks) -> Design48 {
    let layout = &scale.design_layout;
    let experts = vec![expert::folded_torus(layout), expert::kite_medium(layout)];
    for topo in &experts {
        checks.check(topo.is_valid(), || format!("{} invalid", topo.name()));
    }
    Design48 {
        scale: scale.clone(),
        sim: scale.sim_for(seed),
        experts,
    }
}

impl Workload for Design48 {
    fn iterate(&mut self, probe: &mut Probe, checks: &mut Checks) -> Option<Quality> {
        let scale = &self.scale;
        let discovered = common::discover(
            &scale.design_layout,
            DISCOVERY_SEED,
            scale.evals_per_worker,
            probe,
            checks,
        );
        let mut lineup: Vec<(&Topology, RoutingScheme)> = self
            .experts
            .iter()
            .map(|t| (t, RoutingScheme::Ndbt))
            .collect();
        if let Some(ns) = &discovered {
            lineup.push((ns, RoutingScheme::Mclb));
        }
        let uniform = Source::Pattern(TrafficPattern::UniformRandom);
        let mut digest = Digest::default();
        let mut quality = None;
        for (topo, scheme) in lineup {
            let Some(net) = common::prepare(topo, scheme, probe, checks) else {
                continue;
            };
            let run = common::sweep(&net, &uniform, &self.sim, &scale.grid, probe);
            common::check_sweep(&run, &net.label(), checks);
            common::digest_topology(topo, &mut digest);
            run.digest_into(&mut digest);
            if scheme == RoutingScheme::Mclb {
                quality = Some(Quality {
                    sat_pkts_per_ns: run.saturation_packets_per_ns(&self.sim),
                    avg_hops: net.metrics.average_hops,
                    low_load_latency_ns: run.low_load_latency_ns(),
                    p99_latency_cycles: common::merged_p99(run.low_load()),
                    availability: run.availability(),
                    energy_per_flit_pj: run.energy_per_flit_pj(&net, &self.sim, probe),
                    digest: 0,
                });
            }
        }
        quality.map(|q| Quality {
            digest: digest.finish(),
            ..q
        })
    }
}
