//! `sweep20`: the paper's main 20-router 4x5 comparison.  Set-up
//! discovers NS-LatOp and prepares it with the medium expert line-up;
//! each iteration then sweeps uniform-random and shuffle traffic and
//! replays the `onoff-hotspot` and `pointer-chase` traces across the load
//! grid on every network.  It is simulator-bound with almost no control
//! plane, and synthetic injection and trace replay reach the engine by
//! different paths (injection schedule vs trace cursor), so an
//! injection-path change should move only the synthetic half.

use crate::checks::{Checks, Digest};
use crate::common::{self, Quality, Scale, Source};
use crate::probe::Probe;
use crate::Workload;
use netsmith::prelude::*;
use std::sync::Arc;

const TRACES: [&str; 2] = ["onoff-hotspot", "pointer-chase"];

/// Generator seed of the replayed traces.  A trace stands for a recorded
/// application run, so it is a fixed input: the workload seed varies the
/// discovered topology and the synthetic traffic, not the traces, whose
/// burst structure would otherwise swing the replay tail by 2x.
const TRACE_SEED: u64 = 15;

pub struct Sweep20 {
    scale: Scale,
    /// The scale's windows with traffic seeded from the workload seed.
    sim: SimConfig,
    /// Experts first, NS-LatOp (MCLB) last.
    networks: Vec<EvaluatedNetwork>,
    sources: Vec<Source>,
}

pub fn setup(seed: u64, scale: &Scale, checks: &mut Checks) -> Sweep20 {
    let layout = &scale.sweep_layout;
    let mut probe = Probe::off();
    let mut lineup: Vec<_> = expert::baselines_for_class(layout, LinkClass::Medium)
        .into_iter()
        .map(|t| (t, RoutingScheme::Ndbt))
        .collect();
    if let Some(ns) = common::discover(layout, seed, scale.evals_per_worker, &mut probe, checks) {
        lineup.push((ns, RoutingScheme::Mclb));
    }
    let networks = lineup
        .iter()
        .filter_map(|(t, scheme)| common::prepare(t, *scheme, &mut probe, checks))
        .collect();
    let mut sources = vec![
        Source::Pattern(TrafficPattern::UniformRandom),
        Source::Pattern(TrafficPattern::Shuffle),
    ];
    for name in TRACES {
        let trace = netsmith::trace::generate_named(
            name,
            layout.num_routers() as u32,
            scale.trace_cycles,
            TRACE_SEED,
        );
        if let Some(trace) = checks.op(name, trace.ok_or("unknown trace model")) {
            sources.push(Source::Trace(Arc::new(trace)));
        }
    }
    Sweep20 {
        scale: scale.clone(),
        sim: scale.sim_for(seed),
        networks,
        sources,
    }
}

impl Workload for Sweep20 {
    fn iterate(&mut self, probe: &mut Probe, checks: &mut Checks) -> Option<Quality> {
        let scale = &self.scale;
        let mut digest = Digest::default();
        let mut quality = None;
        for net in &self.networks {
            let label = net.label();
            let runs: Vec<_> = self
                .sources
                .iter()
                .map(|source| common::sweep(net, source, &self.sim, &scale.grid, probe))
                .collect();
            for run in &runs {
                common::check_sweep(run, &label, checks);
                run.digest_into(&mut digest);
            }
            if net.scheme == RoutingScheme::Mclb {
                let uniform = &runs[0];
                let replays = runs
                    .iter()
                    .zip(&self.sources)
                    .filter(|(_, s)| matches!(s, Source::Trace(_)))
                    .flat_map(|(run, _)| run.low_load());
                quality = Some(Quality {
                    sat_pkts_per_ns: uniform.saturation_packets_per_ns(&self.sim),
                    avg_hops: net.metrics.average_hops,
                    low_load_latency_ns: uniform.low_load_latency_ns(),
                    p99_latency_cycles: common::merged_p99(replays),
                    availability: uniform.availability(),
                    energy_per_flit_pj: uniform.energy_per_flit_pj(net, &self.sim, probe),
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
