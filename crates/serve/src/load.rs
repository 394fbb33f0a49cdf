//! The seeded load process that drives a serving horizon.
//!
//! Per-epoch offered loads compose three multiplicative ingredients:
//!
//! * a **diurnal sinusoid** — the slow day/night swing every serving
//!   fleet sees: a mean load of 0.22 flits/node/cycle swinging ±75% over
//!   [`LoadSpec::period_epochs`],
//! * **ON/OFF bursts** — a seeded two-state Markov chain that enters a
//!   burst with probability [`LoadSpec::burst_rate`] per epoch, stays in
//!   it for 6 epochs on average and multiplies the load by 1.8 while ON,
//!   modelling flash crowds, and
//! * optional **trace-derived modulation** — the per-window demand shape
//!   of a [`netsmith_trace::Trace`], normalized to mean 1, so a measured
//!   workload's burstiness can be stamped onto the horizon.
//!
//! The offered load is then clamped to `[0.01, 0.85]`, and the traffic
//! mix follows the day from 35% data packets at the trough to 65% at the
//! peak.
//!
//! The whole horizon is precomputed at construction from the seed, so an
//! epoch's load is a pure function of `(spec, trace, horizon, seed)` —
//! the property the replay proptests pin down.

use netsmith_trace::Trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The settable shape of the load process (the horizon and the seed
/// belong to the serving config).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Diurnal period in epochs.
    pub period_epochs: u64,
    /// Per-epoch probability of entering a burst while OFF.
    pub burst_rate: f64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            period_epochs: 96,
            burst_rate: 0.04,
        }
    }
}

/// Mean offered load, in flits per node per cycle.
const BASE: f64 = 0.22;
/// Diurnal swing as a fraction of [`BASE`] (0.75 ⇒ ±75%).
const AMPLITUDE: f64 = 0.75;
/// Mean burst length in epochs (geometric exit).
const BURST_MEAN_EPOCHS: f64 = 6.0;
/// Load multiplier while a burst is ON.
const BURST_FACTOR: f64 = 1.8;
/// Data-packet fraction of the traffic mix at the diurnal trough.
const MIX_LOW: f64 = 0.35;
/// Data-packet fraction of the traffic mix at the diurnal peak.
const MIX_HIGH: f64 = 0.65;
/// Offered load is clamped to `[MIN_LOAD, MAX_LOAD]` after all modulation,
/// keeping every epoch inside the simulable range.
const MIN_LOAD: f64 = 0.01;
const MAX_LOAD: f64 = 0.85;

/// One epoch's operating point: the offered load and the traffic mix
/// (the data-packet fraction fed to the simulator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochLoad {
    pub offered: f64,
    pub data_fraction: f64,
    /// Whether the ON/OFF chain was bursting this epoch.
    pub burst: bool,
}

/// The materialized load process: one [`EpochLoad`] per epoch of the
/// horizon, precomputed from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProcess {
    epochs: Vec<EpochLoad>,
}

/// How many windows the modulation trace is folded into.  Epochs map to
/// windows round-robin, so a short trace still modulates a long horizon.
const MODULATION_WINDOWS: usize = 64;

/// Modulation factors are clamped to this band: a silent trace window
/// dims the epoch, it does not switch the fabric off.
const MODULATION_BAND: (f64, f64) = (0.25, 3.0);

impl LoadProcess {
    /// Materialize `horizon` epochs of load from the spec and seed,
    /// optionally modulated by a trace's per-window demand shape.
    pub fn new(spec: &LoadSpec, horizon: u64, seed: u64, modulation: Option<&Trace>) -> Self {
        let shape = modulation.map(trace_shape).unwrap_or_default();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB005_7ED0_DEAD_BEEF);
        let mut bursting = false;
        let exit_p = 1.0 / BURST_MEAN_EPOCHS;
        let mut epochs = Vec::with_capacity(horizon as usize);
        for e in 0..horizon {
            // Markov burst chain: one uniform draw per epoch either way,
            // so the tape is independent of the branch taken.
            let draw: f64 = rng.gen();
            bursting = if bursting {
                draw >= exit_p
            } else {
                draw < spec.burst_rate
            };
            let phase = if spec.period_epochs == 0 {
                0.0
            } else {
                2.0 * std::f64::consts::PI * e as f64 / spec.period_epochs as f64
            };
            let diurnal = 1.0 + AMPLITUDE * phase.sin();
            let mut offered = BASE * diurnal.max(0.0);
            if bursting {
                offered *= BURST_FACTOR;
            }
            if !shape.is_empty() {
                offered *= shape[e as usize % shape.len()];
            }
            let day = (phase.sin() + 1.0) / 2.0;
            epochs.push(EpochLoad {
                offered: offered.clamp(MIN_LOAD, MAX_LOAD),
                data_fraction: MIX_LOW + (MIX_HIGH - MIX_LOW) * day,
                burst: bursting,
            });
        }
        LoadProcess { epochs }
    }

    /// The operating point of epoch `e` (pure lookup).
    pub fn epoch(&self, e: u64) -> EpochLoad {
        self.epochs[e as usize]
    }

    /// Number of materialized epochs.
    pub fn horizon(&self) -> u64 {
        self.epochs.len() as u64
    }
}

/// Fold a trace into [`MODULATION_WINDOWS`] per-window flit counts and
/// normalize them to mean 1 inside [`MODULATION_BAND`].
fn trace_shape(trace: &Trace) -> Vec<f64> {
    if trace.header.horizon == 0 || trace.messages.is_empty() {
        return Vec::new();
    }
    let mut flits = vec![0u64; MODULATION_WINDOWS];
    let span = trace.header.horizon;
    for m in &trace.messages {
        let w =
            (m.issue.min(span - 1) as u128 * MODULATION_WINDOWS as u128 / span as u128) as usize;
        flits[w] += m.flits as u64;
    }
    let mean = flits.iter().sum::<u64>() as f64 / MODULATION_WINDOWS as f64;
    if mean <= 0.0 {
        return Vec::new();
    }
    flits
        .iter()
        .map(|&f| (f as f64 / mean).clamp(MODULATION_BAND.0, MODULATION_BAND.1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_trace::TraceMessage;

    #[test]
    fn loads_stay_in_band_and_are_deterministic() {
        let spec = LoadSpec::default();
        let a = LoadProcess::new(&spec, 300, 42, None);
        let b = LoadProcess::new(&spec, 300, 42, None);
        assert_eq!(a, b);
        for e in 0..a.horizon() {
            let l = a.epoch(e);
            assert!((MIN_LOAD..=MAX_LOAD).contains(&l.offered));
            assert!(l.data_fraction >= MIX_LOW - 1e-12);
            assert!(l.data_fraction <= MIX_HIGH + 1e-12);
        }
        let c = LoadProcess::new(&spec, 300, 43, None);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn diurnal_trough_is_lighter_than_peak() {
        let spec = LoadSpec {
            burst_rate: 0.0,
            ..LoadSpec::default()
        };
        let p = LoadProcess::new(&spec, spec.period_epochs, 7, None);
        let peak = p.epoch(spec.period_epochs / 4).offered;
        let trough = p.epoch(3 * spec.period_epochs / 4).offered;
        assert!(trough < peak / 2.0, "trough {trough} vs peak {peak}");
    }

    #[test]
    fn trace_modulation_reshapes_the_horizon() {
        // All traffic in the first tenth of the trace: early windows are
        // amplified, late windows dimmed to the clamp floor.
        let messages = (0..100)
            .map(|i| TraceMessage {
                src: 0,
                dst: 1,
                flits: 5,
                issue: i,
            })
            .collect();
        let trace = Trace::new(4, 1_000, messages);
        let spec = LoadSpec {
            burst_rate: 0.0,
            ..LoadSpec::default()
        };
        let flat = LoadProcess::new(&spec, 64, 9, None);
        let shaped = LoadProcess::new(&spec, 64, 9, Some(&trace));
        assert!(shaped.epoch(0).offered > flat.epoch(0).offered);
        assert!(shaped.epoch(40).offered < flat.epoch(40).offered);
    }
}
