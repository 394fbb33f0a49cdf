//! Application-model trace generators.
//!
//! Two seeded, reproducible models stand in for the application classes the
//! paper's workload discussion highlights as poorly served by Bernoulli
//! injection:
//!
//! * [`TraceModel::PointerChase`] — a garbage-collector / pointer-chasing
//!   phase pattern: each core alternates between *chase* phases (bursts of
//!   short request flits to a small working set of "heap-home" routers,
//!   answered with long data replies) and quiescent *scan* phases with only
//!   background traffic.  Spatially skewed and temporally phased.
//! * [`TraceModel::OnOffHotspot`] — Markov-modulated ON/OFF sources with a
//!   shared hotspot destination set: bursty at every timescale the ON/OFF
//!   durations span, with most demand concentrated on a few sinks.
//!
//! Each model's shape is a fixed set of constants below.  Generation is a
//! pure function of `(model, routers, horizon, seed)`; the same arguments
//! always produce the identical trace, so experiment specs can reference a
//! generator by name + seed instead of shipping trace files.

use crate::format::{Trace, TraceMessage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// Pointer-chasing / GC model.

/// Mean length of a chase or scan phase, in cycles.
const PHASE_CYCLES: u64 = 192;
/// Per-cycle injection probability while chasing.
const CHASE_INJECT_PROB: f64 = 0.35;
/// Per-cycle injection probability while scanning (background load).
const SCAN_INJECT_PROB: f64 = 0.03;
/// Number of heap-home routers each source chases into.
const HEAP_TARGETS: usize = 2;
/// Fraction of chase messages that go to the source's heap homes (the
/// rest are uniform pointer spillover).
const HOT_FRACTION: f64 = 0.7;
/// Fraction of messages that are long data replies instead of short
/// requests.
const CHASE_DATA_FRACTION: f64 = 0.35;

// ON/OFF bursty hotspot model.

/// Mean ON-burst duration in cycles.
const MEAN_ON: u64 = 48;
/// Mean OFF-gap duration in cycles.
const MEAN_OFF: u64 = 160;
/// Per-cycle injection probability while ON.
const ON_INJECT_PROB: f64 = 0.5;
/// Fraction of messages aimed at the hotspot set (the rest uniform).
const HOTSPOT_FRACTION: f64 = 0.6;
/// Number of hotspot destinations, drawn from the seed.
const HOTSPOTS: usize = 2;

/// Flit size of a short request / control message.
pub const REQUEST_FLITS: u32 = 1;
/// Flit size of a long data message (cache-line sized, matching the
/// simulator's large packet class).
pub const DATA_FLITS: u32 = 9;

/// A named trace model.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceModel {
    /// GC / pointer-chasing phases (see module docs).
    PointerChase,
    /// Markov-modulated ON/OFF sources over a hotspot sink set.
    OnOffHotspot,
}

impl TraceModel {
    /// The model's wire name, accepted by [`TraceModel::by_name`].
    pub fn name(&self) -> &'static str {
        match self {
            TraceModel::PointerChase => "pointer-chase",
            TraceModel::OnOffHotspot => "onoff-hotspot",
        }
    }

    /// Look up a model by wire name.
    pub fn by_name(name: &str) -> Option<TraceModel> {
        match name {
            "pointer-chase" => Some(TraceModel::PointerChase),
            "onoff-hotspot" => Some(TraceModel::OnOffHotspot),
            _ => None,
        }
    }

    /// Names accepted by [`TraceModel::by_name`].
    pub fn names() -> &'static [&'static str] {
        &["pointer-chase", "onoff-hotspot"]
    }

    /// Generate a trace over `routers` routers and `horizon` cycles.  Pure
    /// in `(self, routers, horizon, seed)`.
    pub fn generate(&self, routers: u32, horizon: u64, seed: u64) -> Trace {
        assert!(routers >= 2, "trace generation needs at least two routers");
        let mut messages = match self {
            TraceModel::PointerChase => pointer_chase(routers, horizon, seed),
            TraceModel::OnOffHotspot => on_off_hotspot(routers, horizon, seed),
        };
        messages.sort_by_key(|m| m.issue);
        Trace::new(routers, horizon, messages)
    }
}

/// Generate a trace from a model's wire name.
pub fn generate_named(name: &str, routers: u32, horizon: u64, seed: u64) -> Option<Trace> {
    TraceModel::by_name(name).map(|m| m.generate(routers, horizon, seed))
}

/// A geometric duration with the given mean, at least 1 cycle.
fn geometric(rng: &mut SmallRng, mean: u64) -> u64 {
    let p = 1.0 / mean.max(1) as f64;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    ((u.ln() / (1.0 - p).ln()).ceil() as u64).max(1)
}

fn uniform_other(rng: &mut SmallRng, n: u32, src: u32) -> u32 {
    let d = rng.gen_range(0..n - 1);
    if d >= src {
        d + 1
    } else {
        d
    }
}

fn pointer_chase(routers: u32, horizon: u64, seed: u64) -> Vec<TraceMessage> {
    let mut messages = Vec::new();
    for src in 0..routers {
        // One RNG per source so each source's stream is self-contained.
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(src) + 1)),
        );
        // This source's heap homes: a small fixed working set.
        let homes: Vec<u32> = (0..HEAP_TARGETS)
            .map(|_| uniform_other(&mut rng, routers, src))
            .collect();
        let mut chasing = rng.gen_bool(0.5);
        let mut phase_end = geometric(&mut rng, PHASE_CYCLES);
        for cycle in 0..horizon {
            if cycle >= phase_end {
                chasing = !chasing;
                phase_end = cycle + geometric(&mut rng, PHASE_CYCLES);
            }
            let inject_prob = if chasing {
                CHASE_INJECT_PROB
            } else {
                SCAN_INJECT_PROB
            };
            if !rng.gen_bool(inject_prob) {
                continue;
            }
            let dst = if chasing && rng.gen_bool(HOT_FRACTION) {
                homes[rng.gen_range(0..homes.len())]
            } else {
                uniform_other(&mut rng, routers, src)
            };
            let flits = if rng.gen_bool(CHASE_DATA_FRACTION) {
                DATA_FLITS
            } else {
                REQUEST_FLITS
            };
            messages.push(TraceMessage {
                src,
                dst,
                flits,
                issue: cycle,
            });
        }
    }
    messages
}

fn on_off_hotspot(routers: u32, horizon: u64, seed: u64) -> Vec<TraceMessage> {
    // The hotspot set is a seed-derived sample shared by all sources.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    let want = HOTSPOTS.min(routers as usize);
    let mut targets = Vec::with_capacity(want);
    while targets.len() < want {
        let t = rng.gen_range(0..routers);
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    let mut messages = Vec::new();
    for src in 0..routers {
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (0xBF58_476D_1CE4_E5B9u64.wrapping_mul(u64::from(src) + 1)),
        );
        let mut on = rng.gen_bool(MEAN_ON as f64 / (MEAN_ON + MEAN_OFF) as f64);
        let mut phase_end = geometric(&mut rng, if on { MEAN_ON } else { MEAN_OFF });
        for cycle in 0..horizon {
            if cycle >= phase_end {
                on = !on;
                phase_end = cycle + geometric(&mut rng, if on { MEAN_ON } else { MEAN_OFF });
            }
            if !on || !rng.gen_bool(ON_INJECT_PROB) {
                continue;
            }
            let dst = if rng.gen_bool(HOTSPOT_FRACTION) {
                let pick: Vec<u32> = targets.iter().copied().filter(|&t| t != src).collect();
                if pick.is_empty() {
                    uniform_other(&mut rng, routers, src)
                } else {
                    pick[rng.gen_range(0..pick.len())]
                }
            } else {
                uniform_other(&mut rng, routers, src)
            };
            let flits = if rng.gen_bool(0.5) {
                DATA_FLITS
            } else {
                REQUEST_FLITS
            };
            messages.push(TraceMessage {
                src,
                dst,
                flits,
                issue: cycle,
            });
        }
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn generated_traces_validate() {
        for name in TraceModel::names() {
            let t = generate_named(name, 20, 2048, 7).unwrap();
            t.validate().unwrap();
            assert!(!t.messages.is_empty(), "{name} generated nothing");
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for name in TraceModel::names() {
            let a = generate_named(name, 20, 1024, 42).unwrap();
            let b = generate_named(name, 20, 1024, 42).unwrap();
            assert_eq!(a, b, "{name} is not reproducible");
            let c = generate_named(name, 20, 1024, 43).unwrap();
            assert_ne!(a, c, "{name} ignores its seed");
        }
    }

    #[test]
    fn onoff_hotspot_is_bursty_and_skewed() {
        let t = generate_named("onoff-hotspot", 20, 4096, 11).unwrap();
        let stats = TraceStats::of(&t);
        // Burstiness is measured on the aggregate of 20 independent ON/OFF
        // sources, which partially smooths the per-source bursts; a
        // Bernoulli trace of the same volume sits below 0.05.
        assert!(stats.burstiness > 0.2, "burstiness {}", stats.burstiness);
        assert!(
            stats.top_decile_destination_share > 0.3,
            "share {}",
            stats.top_decile_destination_share
        );
    }

    #[test]
    fn pointer_chase_is_spatially_skewed() {
        let t = generate_named("pointer-chase", 20, 4096, 11).unwrap();
        let stats = TraceStats::of(&t);
        // Each source chases into 2 heap homes; aggregate destination
        // demand is far from uniform.
        assert!(
            stats.top_decile_destination_share > 0.15,
            "share {}",
            stats.top_decile_destination_share
        );
    }

    #[test]
    fn unknown_model_names_are_rejected() {
        assert!(generate_named("zipf", 20, 128, 1).is_none());
        assert!(TraceModel::by_name("pointer-chase").is_some());
    }
}
