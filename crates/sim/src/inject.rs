//! Batched Bernoulli injection: precomputed per-source next-injection
//! schedules.
//!
//! A per-cycle Bernoulli generator draws one coin per alive source per
//! cycle — `n` RNG draws per simulated cycle whether or not anything
//! injects, which on small networks would be the single largest cost in
//! the hot loop.
//!
//! [`InjectionSchedule`] removes the per-cycle draws by *skip sampling*
//! the same Bernoulli process: for a per-cycle injection probability `p`,
//! the gap between successive injections of one source is geometric, so
//! each source draws one uniform variate per *arrival* and jumps straight
//! to its next injection cycle:
//!
//! ```text
//! gap = 1 + floor(ln(u) / ln(1 - p)),   u uniform in (0, 1]
//! ```
//!
//! `u` is built from the top 53 bits of one `u64` draw (`(bits >> 11) + 1`
//! scaled by `2^-53`), an exact-integer construction, so the sampler is
//! deterministic and platform-independent.  Each source owns an
//! independent stream seeded from the run's [`point_seed`] material mixed
//! with the source id; destination and packet-class draws come from the
//! owning source's stream, in arrival order.  A cycle with no arrivals
//! due draws **zero** RNG, and [`InjectionSchedule::next_due`] tells the
//! compiled engine how far it may jump over provably idle cycles.
//!
//! Both simulation engines construct the schedule identically from
//! `(config, offered load, alive mask)` and consume it through the same
//! [`InjectionSchedule::pop_due`] drain, so runs are bit-identical
//! between the compiled and reference engines — the
//! `compiled_equivalence` proptests assert exactly that.
//!
//! [`point_seed`]: crate::point_seed

use crate::config::{PacketClass, SimConfig};
use crate::network::{point_seed, splitmix64};
use netsmith_topo::{Layout, TrafficPattern};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// 2^53: the resolution of a 53-bit unit-interval draw, which the
/// exact-integer gap and class thresholds are scaled by.
const F53: f64 = 9_007_199_254_740_992.0;

/// One resolved injection: the packet `src` puts into its source queue at
/// the cycle [`InjectionSchedule::pop_due`] returned it for.  Destination
/// and class are already drawn and validated (dead or unroutable
/// destinations were consumed and dropped inside the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionEvent {
    /// Injecting (source) router.
    pub src: u32,
    /// Destination router (alive, distinct from `src`).
    pub dst: u32,
    /// Packet size drawn from the configured class mix.
    pub flits: u32,
}

/// Upper bound on the arming calendar's bucket count.  Gaps that overshoot
/// the calendar park at its far edge and re-park forward on each lap —
/// one bit-op per lap per source, so even near-zero loads stay cheap.
const CAL_MAX_BUCKETS: usize = 4096;

/// Precomputed per-source injection schedule over a measurement horizon.
/// See the [module docs](self) for the sampling construction.
///
/// Arming uses a calendar ring of per-cycle source bitmaps rather than a
/// heap: arming is one bit-OR, draining a cycle pops set bits in ascending
/// source order, and a cycle with
/// nothing armed costs one word load.  A source whose exact due cycle
/// overshoots the calendar parks at the far edge and re-parks forward when
/// the drain reaches it (`due` keeps the exact cycle).
#[derive(Debug, Clone)]
pub struct InjectionSchedule {
    /// One independent stream per router (dead routers keep a never-used
    /// stream so the vector stays indexable by source id).
    streams: Vec<SmallRng>,
    /// Exact next injection cycle per source (`u64::MAX` = retired).
    due: Vec<u64>,
    /// Calendar ring: `cal_mask + 1` buckets of `words` source-bitmap
    /// words each.
    cal: Vec<u64>,
    cal_mask: u64,
    words: usize,
    /// Next bucket cycle `pop_due` drains (all earlier buckets are empty).
    pos: u64,
    /// Drain cursor within bucket `pos`: current word and its remaining
    /// bits.
    cur_w: usize,
    cur_bits: u64,
    /// `ln(1 - p)` (strictly negative for `0 < p < 1`); the deep-tail
    /// fallback of the gap sampler.
    ln_one_minus_p: f64,
    /// Exact-integer gap thresholds: `gap_thr[j] = floor((1-p)^(j+1) *
    /// 2^53)`, strictly decreasing.  A gap draw `B` (53 uniform bits)
    /// resolves to `1 + #{j : B < gap_thr[j]}` by binary search — no
    /// logarithm on the common path; only a draw below the last
    /// threshold (probability `(1-p)^64` at most) falls back to the log
    /// formula.
    gap_thr: Vec<u64>,
    /// `p >= 1`: every gap is 1 and the gap sampler draws no RNG.
    every_cycle: bool,
    /// One past the last cycle that may inject (`warmup + measure`);
    /// arrivals scheduled at or past it are dropped, never re-armed.
    horizon: u64,
    /// Exact-integer class coin threshold: `ceil(data_fraction * 2^53)`.
    data_thr: u64,
    data_flits: u32,
    ctrl_flits: u32,
}

impl InjectionSchedule {
    /// Build the schedule both engines share for one run: seed material
    /// from `point_seed(cfg.seed, offered)`, per-cycle probability
    /// `offered / average_flits` (clamped to `[0, 1]`), horizon at the end
    /// of the measurement window.
    pub fn for_run(cfg: &SimConfig, offered_flits_per_node_cycle: f64, alive: &[bool]) -> Self {
        let base = point_seed(cfg.seed, offered_flits_per_node_cycle);
        let p = (offered_flits_per_node_cycle / cfg.average_flits()).clamp(0.0, 1.0);
        let horizon = cfg.warmup_cycles + cfg.measure_cycles;
        let buckets = (horizon as usize + 1)
            .next_power_of_two()
            .clamp(64, CAL_MAX_BUCKETS);
        let words = alive.len().div_ceil(64);
        let mut sched = InjectionSchedule {
            streams: (0..alive.len())
                .map(|src| SmallRng::seed_from_u64(splitmix64(base ^ splitmix64(src as u64))))
                .collect(),
            due: vec![u64::MAX; alive.len()],
            cal: vec![0; buckets * words],
            cal_mask: buckets as u64 - 1,
            words,
            pos: 0,
            cur_w: 0,
            cur_bits: 0,
            ln_one_minus_p: (-p).ln_1p(),
            gap_thr: {
                let mut thr = Vec::new();
                if p > 0.0 && p < 1.0 {
                    let mut qj = 1.0f64;
                    for _ in 0..64 {
                        qj *= 1.0 - p;
                        let t = (qj * F53) as u64;
                        if t == 0 {
                            break;
                        }
                        thr.push(t);
                    }
                }
                thr
            },
            every_cycle: p >= 1.0,
            horizon,
            data_thr: (cfg.data_fraction * F53).ceil() as u64,
            data_flits: cfg.flits(PacketClass::Data) as u32,
            ctrl_flits: cfg.flits(PacketClass::Control) as u32,
        };
        if p > 0.0 {
            for (src, &alive) in alive.iter().enumerate() {
                if !alive {
                    continue;
                }
                // The first gap counts from "one cycle before the run", so
                // a gap of 1 lands on cycle 0 — a source is allowed to
                // inject on the very first cycle.
                let first = sched.gap(src) - 1;
                if first < sched.horizon {
                    sched.due[src] = first;
                    sched.arm(first.min(sched.cal_mask), src as u32);
                }
            }
            // Stage bucket 0's first word so the drain cursor invariant
            // (`cur_bits` holds word `cur_w` of bucket `pos`) holds.
            sched.cur_bits = std::mem::take(&mut sched.cal[0]);
        }
        sched
    }

    /// Set source `src`'s bit in the calendar bucket for cycle `t`.
    #[inline]
    fn arm(&mut self, t: u64, src: u32) {
        let idx = (t & self.cal_mask) as usize * self.words + (src / 64) as usize;
        self.cal[idx] |= 1u64 << (src % 64);
    }

    /// Draw one geometric inter-arrival gap (in cycles, `>= 1`) from
    /// `src`'s stream: binary search of the 53-bit draw against the
    /// exact-integer threshold table, falling back to the log formula
    /// only below the last threshold (where a tiny `u` saturates toward
    /// `u64::MAX`, which the horizon check then drops).
    #[inline]
    fn gap(&mut self, src: usize) -> u64 {
        if self.every_cycle {
            return 1;
        }
        let bits = self.streams[src].next_u64() >> 11;
        let hits = self.gap_thr.partition_point(|&t| bits < t);
        if hits < self.gap_thr.len() {
            return 1 + hits as u64;
        }
        let u = (bits + 1) as f64 * (1.0 / F53);
        1 + (u.ln() / self.ln_one_minus_p) as u64
    }

    /// A lower bound on the earliest scheduled injection cycle, if any —
    /// always strictly greater than the last fully drained cycle, which is
    /// what lets the compiled engine jump idle stretches without missing
    /// an arrival.  (A bound rather than the exact cycle: a far-future
    /// arrival parks at the calendar edge, and a visit that finds only
    /// such parks emits nothing and re-arms them forward — the engine
    /// treats any returned cycle as "worth visiting", so an early visit is
    /// harmless.)
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        if self.cur_bits != 0 {
            return Some(self.pos);
        }
        // Finish bucket `pos`'s remaining words, then whole buckets, one
        // lap at most (every armed entry lives within one calendar lap of
        // the drain cursor).
        for w in self.cur_w + 1..self.words {
            if self.cal[(self.pos & self.cal_mask) as usize * self.words + w] != 0 {
                return Some(self.pos);
            }
        }
        for delta in 1..=self.cal_mask {
            let t = self.pos + delta;
            let idx = (t & self.cal_mask) as usize * self.words;
            if self.cal[idx..idx + self.words].iter().any(|&w| w != 0) {
                return Some(t);
            }
        }
        None
    }

    /// Advance the drain cursor to the next non-empty calendar word at or
    /// before `cycle`.  Returns `false` once every bucket through `cycle`
    /// is drained.
    #[inline]
    fn refill(&mut self, cycle: u64) -> bool {
        debug_assert_eq!(self.cur_bits, 0);
        loop {
            self.cur_w += 1;
            if self.cur_w >= self.words {
                if self.pos >= cycle {
                    // Keep the cursor on the drained bucket's last word so
                    // the invariant "everything before (pos, cur_w) is
                    // drained" still holds for the next call.
                    self.cur_w = self.words - 1;
                    return false;
                }
                self.pos += 1;
                self.cur_w = 0;
            }
            let idx = (self.pos & self.cal_mask) as usize * self.words + self.cur_w;
            self.cur_bits = std::mem::take(&mut self.cal[idx]);
            if self.cur_bits != 0 {
                return true;
            }
        }
    }

    /// Pop the next injection due at or before `cycle`, drawing its
    /// destination and class from the source's stream and re-arming the
    /// source at its next gap.  Arrivals whose destination is unroutable
    /// (`sample_destination` returns `None`) or dead are consumed and
    /// skipped — the source still advances.  Returns `None` once nothing
    /// further is due this cycle.
    ///
    /// Events come out in `(due cycle, source)` order provided `cycle`
    /// never exceeds an armed arrival's due cycle between calls — which
    /// holds for both engines: the reference loop drains every cycle, and
    /// the compiled loop's idle jumps are bounded by [`next_due`].
    ///
    /// [`next_due`]: InjectionSchedule::next_due
    pub fn pop_due(
        &mut self,
        cycle: u64,
        pattern: &TrafficPattern,
        layout: &Layout,
        alive: &[bool],
    ) -> Option<InjectionEvent> {
        loop {
            if self.cur_bits == 0 && !self.refill(cycle) {
                return None;
            }
            let b = self.cur_bits.trailing_zeros();
            self.cur_bits &= self.cur_bits - 1;
            let s = self.cur_w * 64 + b as usize;
            let d = self.due[s];
            if d > cycle {
                // Parked short of its real due cycle by the calendar edge:
                // push it one more lap forward.
                let t = d.min(self.pos + self.cal_mask);
                self.arm(t, s as u32);
                continue;
            }
            let event = match pattern.sample_destination(layout, s, &mut self.streams[s]) {
                Some(dst) if alive[dst] => {
                    // Class coin only after the destination is validated.
                    let flits = if (self.streams[s].next_u64() >> 11) < self.data_thr {
                        self.data_flits
                    } else {
                        self.ctrl_flits
                    };
                    Some(InjectionEvent {
                        src: s as u32,
                        dst: dst as u32,
                        flits,
                    })
                }
                _ => None,
            };
            let next = d.saturating_add(self.gap(s));
            if next < self.horizon {
                self.due[s] = next;
                self.arm(next.min(self.pos + self.cal_mask), s as u32);
            } else {
                self.due[s] = u64::MAX;
            }
            if let Some(ev) = event {
                return Some(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(sched: &mut InjectionSchedule, horizon: u64, n: usize) -> Vec<(u64, InjectionEvent)> {
        let layout = Layout::interposer_grid(2, n / 2, 4);
        let pattern = TrafficPattern::UniformRandom;
        let alive = vec![true; n];
        let mut events = Vec::new();
        let mut cycle = 0;
        while cycle < horizon {
            while let Some(ev) = sched.pop_due(cycle, &pattern, &layout, &alive) {
                events.push((cycle, ev));
            }
            cycle += 1;
        }
        events
    }

    #[test]
    fn schedule_is_deterministic_and_horizon_bounded() {
        let cfg = SimConfig::quick();
        let alive = vec![true; 8];
        let horizon = cfg.warmup_cycles + cfg.measure_cycles;
        let a = drain(
            &mut InjectionSchedule::for_run(&cfg, 0.3, &alive),
            horizon + 500,
            8,
        );
        let b = drain(
            &mut InjectionSchedule::for_run(&cfg, 0.3, &alive),
            horizon + 500,
            8,
        );
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|&(cycle, _)| cycle < horizon));
        // Same-cycle arrivals pop in ascending source order.
        for w in a.windows(2) {
            let ((c0, e0), (c1, e1)) = (w[0], w[1]);
            assert!(c0 < c1 || (c0 == c1 && e0.src < e1.src));
        }
    }

    #[test]
    fn arrival_rate_tracks_the_bernoulli_probability() {
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 200_000,
            ..SimConfig::default()
        };
        let alive = vec![true; 4];
        // offered 0.5 flits/node/cycle over 5-flit average packets:
        // p = 0.1 per source per cycle.
        let events = drain(
            &mut InjectionSchedule::for_run(&cfg, 0.5, &alive),
            200_000,
            4,
        );
        let rate = events.len() as f64 / (4.0 * 200_000.0);
        assert!((rate - 0.1).abs() < 0.005, "arrival rate {rate} vs p = 0.1");
        // The class mix tracks data_fraction = 0.5 (9-flit data packets).
        let data = events.iter().filter(|(_, e)| e.flits == 9).count() as f64;
        let frac = data / events.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "data fraction {frac}");
    }

    #[test]
    fn zero_load_never_injects_and_full_load_fires_every_cycle() {
        let cfg = SimConfig::quick();
        let alive = vec![true; 4];
        let mut zero = InjectionSchedule::for_run(&cfg, 0.0, &alive);
        assert_eq!(zero.next_due(), None);
        assert!(drain(&mut zero, 3_000, 4).is_empty());

        // Offered >= average_flits clamps p to 1: every alive source
        // injects every cycle up to the horizon.
        let horizon = cfg.warmup_cycles + cfg.measure_cycles;
        let every = drain(
            &mut InjectionSchedule::for_run(&cfg, 5.0, &alive),
            horizon,
            4,
        );
        assert_eq!(every.len(), 4 * horizon as usize);
    }

    #[test]
    fn dead_sources_and_destinations_are_masked() {
        let cfg = SimConfig::quick();
        let alive = vec![true, false, true, true];
        let layout = Layout::interposer_grid(2, 2, 4);
        let pattern = TrafficPattern::UniformRandom;
        let mut sched = InjectionSchedule::for_run(&cfg, 0.8, &alive);
        for cycle in 0..2_000 {
            while let Some(ev) = sched.pop_due(cycle, &pattern, &layout, &alive) {
                assert_ne!(ev.src, 1, "dead source injected");
                assert_ne!(ev.dst, 1, "dead destination sampled");
                assert_ne!(ev.src, ev.dst);
            }
        }
    }

    #[test]
    fn next_due_is_strictly_ahead_after_a_drain() {
        let cfg = SimConfig::quick();
        let alive = vec![true; 6];
        let layout = Layout::interposer_grid(2, 3, 4);
        let pattern = TrafficPattern::UniformRandom;
        let mut sched = InjectionSchedule::for_run(&cfg, 0.1, &alive);
        let mut cycle = 0;
        while let Some(due) = sched.next_due() {
            assert!(due >= cycle, "next_due went backwards");
            cycle = due;
            let mut got = 0;
            while sched.pop_due(cycle, &pattern, &layout, &alive).is_some() {
                got += 1;
            }
            // A due cycle either yields events or was consumed by masked
            // destinations; either way the schedule advanced past it.
            let _ = got;
            if let Some(next) = sched.next_due() {
                assert!(next > cycle);
            }
            cycle += 1;
        }
    }
}
