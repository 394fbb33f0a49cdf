//! The one per-source arrival schedule: each source's arrival stream,
//! Bernoulli or trace replay, behind a calendar of the sources waiting on
//! their next arrival.  Both simulation engines read it for both kinds of
//! traffic.
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
//! deterministic and platform-independent.  The common case needs no
//! logarithm: the gap is one plus the number of exact-integer thresholds
//! `floor((1-p)^j * 2^53)` above the draw, found by a table lookup on the
//! draw's top ten bits and a short forward scan.  Each source owns an
//! independent stream seeded from the run's [`point_seed`] material mixed
//! with the source id; destination and packet-class draws come from the
//! owning source's stream, in arrival order.  A cycle with no arrivals
//! due draws **zero** RNG, and [`InjectionSchedule::next_due`] tells the
//! compiled engine how far it may jump over provably idle cycles.
//!
//! Trace replay ([`InjectionSchedule::for_trace`]) swaps the RNG streams
//! for per-source trace cursors ([`SourceCursors`]): a source's next
//! arrival is its next message at the load-stretched trace schedule, and
//! several may come due at one cycle.
//!
//! A source's arrivals are read one at a time through three steps:
//! [`InjectionSchedule::pop_due_source`] takes a source whose next
//! arrival is due off the calendar without drawing,
//! [`InjectionSchedule::draw`] draws that arrival and advances the source
//! to the next one, and [`InjectionSchedule::rearm`] puts the source back
//! on the calendar.  [`InjectionSchedule::pop_due`] is their composition,
//! which the reference engine drains every cycle.  The compiled engine
//! keeps one head packet per source instead of a queue: it takes a source
//! off the calendar when its head leaves and draws the next arrival then,
//! so a backlogged source is nowhere on the calendar and its backlog is
//! the unread rest of its stream.  Each source's stream is drawn in the
//! same order either way, so runs are bit-identical between the engines —
//! the `compiled_equivalence` tests assert exactly that.
//!
//! [`point_seed`]: crate::point_seed
//! [`SourceCursors`]: netsmith_trace::SourceCursors

use crate::config::{PacketClass, SimConfig};
use crate::network::{point_seed, splitmix64};
use netsmith_topo::{Layout, TrafficPattern};
use netsmith_trace::{SourceCursors, Trace};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// 2^53: the resolution of a 53-bit unit-interval draw, which the
/// exact-integer gap and class thresholds are scaled by.
const F53: f64 = 9_007_199_254_740_992.0;

/// One resolved injection: the packet `src` injects at the cycle its
/// arrival was due.  Destination and class are already drawn and
/// validated (dead or unroutable destinations were consumed and dropped
/// inside the schedule).
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

/// The calendar of sources waiting on their next arrival: each source's
/// exact due cycle plus a ring of per-cycle source bitmaps.
///
/// Arming is one bit-OR, draining a cycle pops set bits in ascending
/// source order, and a cycle with nothing armed costs one word load.  A
/// source whose exact due cycle overshoots the ring parks at its far edge
/// and re-parks forward when the drain reaches it (`due` keeps the exact
/// cycle).  A source off the calendar keeps its due cycle, so a caller
/// can read it and draw ahead before re-arming.
#[derive(Debug, Clone)]
pub(crate) struct SourceCalendar {
    /// Exact next arrival cycle per source (`u64::MAX` = retired).
    due: Vec<u64>,
    /// One past the last cycle that may inject; arrivals due at or past
    /// it are retired, never armed.
    horizon: u64,
    /// Ring: `cal_mask + 1` buckets of `words` source-bitmap words each.
    cal: Vec<u64>,
    cal_mask: u64,
    words: usize,
    /// Next bucket cycle `pop_due` drains (all earlier buckets are empty).
    pos: u64,
    /// Drain cursor within bucket `pos`: current word and its remaining
    /// bits.
    cur_w: usize,
    cur_bits: u64,
}

impl SourceCalendar {
    /// A calendar with every source armed at its first due cycle in
    /// `due` (sources due at or past `horizon` are retired).
    pub(crate) fn new(mut due: Vec<u64>, horizon: u64) -> Self {
        for d in due.iter_mut().filter(|d| **d >= horizon) {
            *d = u64::MAX;
        }
        let buckets = (horizon as usize + 1)
            .next_power_of_two()
            .clamp(64, CAL_MAX_BUCKETS);
        let words = due.len().div_ceil(64);
        let mut cal = SourceCalendar {
            due,
            horizon,
            cal: vec![0; buckets * words],
            cal_mask: buckets as u64 - 1,
            words,
            pos: 0,
            cur_w: 0,
            cur_bits: 0,
        };
        for src in 0..cal.due.len() {
            if cal.due[src] != u64::MAX {
                cal.park(src, cal.due[src].min(cal.cal_mask));
            }
        }
        // Stage bucket 0's first word so the drain cursor invariant
        // (`cur_bits` holds word `cur_w` of bucket `pos`) holds.
        if words > 0 {
            cal.cur_bits = std::mem::take(&mut cal.cal[0]);
        }
        cal
    }

    /// Source `src`'s next arrival cycle (`u64::MAX` once retired).
    #[inline]
    pub(crate) fn due(&self, src: usize) -> u64 {
        self.due[src]
    }

    /// Record `src`'s next arrival cycle without arming it, retiring the
    /// source when the cycle is at or past the horizon.
    #[inline]
    fn set_due(&mut self, src: usize, due: u64) {
        self.due[src] = if due < self.horizon { due } else { u64::MAX };
    }

    /// Set `src`'s bit in the ring bucket of cycle `t`.
    #[inline]
    fn park(&mut self, src: usize, t: u64) {
        let idx = (t & self.cal_mask) as usize * self.words + src / 64;
        self.cal[idx] |= 1u64 << (src % 64);
    }

    /// Put `src` back on the calendar at its due cycle, parked at the
    /// ring's far edge when that is further (no-op once retired).  The due
    /// cycle must lie past the drain cursor, unless `src` was just taken
    /// off the bucket being drained (a trace source with several messages
    /// due at one cycle): it then goes back into the drain cursor's word
    /// and pops next.
    #[inline]
    pub(crate) fn arm(&mut self, src: usize) {
        let due = self.due[src];
        if due == u64::MAX {
            return;
        }
        if due <= self.pos {
            debug_assert_eq!(
                src / 64,
                self.cur_w,
                "source {src} armed at {due}, at or behind the drain cursor {}",
                self.pos
            );
            self.cur_bits |= 1u64 << (src % 64);
        } else {
            self.park(src, due.min(self.pos + self.cal_mask));
        }
    }

    /// A lower bound on the earliest armed due cycle, if any — always
    /// strictly greater than the last fully drained cycle, which is what
    /// lets the compiled engine jump idle stretches without missing an
    /// arrival.  (A bound rather than the exact cycle: a far-future
    /// arrival parks at the ring edge, and a visit that finds only such
    /// parks pops nothing and re-parks them forward — the engine treats
    /// any returned cycle as "worth visiting", so an early visit is
    /// harmless.)
    #[inline]
    pub(crate) fn next_due(&self) -> Option<u64> {
        if self.cur_bits != 0 {
            return Some(self.pos);
        }
        // Finish bucket `pos`'s remaining words, then whole buckets, one
        // lap at most (every armed entry lives within one lap of the
        // drain cursor).
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

    /// Advance the drain cursor to the next non-empty ring word at or
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

    /// Take the next source whose arrival is due at or before `cycle` off
    /// the calendar, in `(due cycle, source)` order, re-parking sources
    /// the ring edge held short of their real due cycle.  Returns `None`
    /// once nothing further is due by `cycle`.
    #[inline]
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<usize> {
        if self.words == 0 {
            return None;
        }
        loop {
            if self.cur_bits == 0 && !self.refill(cycle) {
                return None;
            }
            let b = self.cur_bits.trailing_zeros();
            self.cur_bits &= self.cur_bits - 1;
            let s = self.cur_w * 64 + b as usize;
            if self.due[s] > cycle {
                // Parked short of its real due cycle by the ring edge:
                // push it one more lap forward.
                self.arm(s);
                continue;
            }
            return Some(s);
        }
    }
}

/// The geometric inter-arrival gap sampler for one per-cycle injection
/// probability `p`.
#[derive(Debug, Clone)]
struct GapSampler {
    /// `p >= 1`: every gap is 1 and the sampler draws no RNG.
    every_cycle: bool,
    /// `ln(1 - p)` (strictly negative for `0 < p < 1`); the deep-tail
    /// fallback.
    ln_one_minus_p: f64,
    /// Exact-integer gap thresholds: `thr[j] = floor((1-p)^(j+1) *
    /// 2^53)`, strictly decreasing, at most 64 of them.  A draw `B` (53
    /// uniform bits) resolves to `1 + #{j : B < thr[j]}`; only a draw
    /// below the last threshold (probability `(1-p)^64` at most) falls
    /// back to the log formula.
    thr: Vec<u64>,
    /// `start[h]`: the number of thresholds above every draw whose top
    /// ten bits are `h`, where the forward scan over `thr` begins.
    start: Vec<u8>,
}

impl GapSampler {
    /// Bits of a 53-bit draw below its top ten: `draw >> START_SHIFT`
    /// indexes [`GapSampler::start`].
    const START_SHIFT: u32 = 43;

    fn new(p: f64) -> Self {
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
        // Thresholds strictly above bucket `h`'s largest draw
        // `((h + 1) << START_SHIFT) - 1` are the ones at or above the next
        // bucket's first draw: a prefix of the decreasing `thr` that
        // shrinks as `h` grows, so one merge pass walks its end down.
        let mut above = thr.len();
        let start = (1..=1u64 << (53 - Self::START_SHIFT))
            .map(|h| {
                while above > 0 && thr[above - 1] < h << Self::START_SHIFT {
                    above -= 1;
                }
                above as u8
            })
            .collect();
        GapSampler {
            every_cycle: p >= 1.0,
            ln_one_minus_p: (-p).ln_1p(),
            thr,
            start,
        }
    }

    /// `#{j : bits < thr[j]}` for a 53-bit draw: the table gives the
    /// thresholds above `bits`'s whole bucket, and the scan counts the
    /// few inside it.  Equal to `thr.partition_point(|&t| bits < t)`.
    #[inline]
    fn hits(&self, bits: u64) -> usize {
        let mut i = self.start[(bits >> Self::START_SHIFT) as usize] as usize;
        while i < self.thr.len() && bits < self.thr[i] {
            i += 1;
        }
        i
    }

    /// Draw one geometric inter-arrival gap (in cycles, `>= 1`) from
    /// `rng`, falling back to the log formula only below the last
    /// threshold (where a tiny `u` saturates toward `u64::MAX`, which the
    /// horizon check then retires).
    #[inline]
    fn gap(&self, rng: &mut SmallRng) -> u64 {
        if self.every_cycle {
            return 1;
        }
        let bits = rng.next_u64() >> 11;
        let hits = self.hits(bits);
        if hits < self.thr.len() {
            return 1 + hits as u64;
        }
        let u = (bits + 1) as f64 * (1.0 / F53);
        1 + (u.ln() / self.ln_one_minus_p) as u64
    }
}

/// The per-source arrival schedule over a measurement horizon: the
/// calendar of sources waiting on their next arrival plus each source's
/// arrival stream, Bernoulli or trace replay.  See the [module
/// docs](self) for the sampling construction and the per-source steps.
#[derive(Debug, Clone)]
pub struct InjectionSchedule<'t> {
    cal: SourceCalendar,
    streams: Streams<'t>,
}

/// Where each source's arrivals come from.
#[derive(Debug, Clone)]
enum Streams<'t> {
    /// Synthetic traffic: one independent RNG stream per router (dead
    /// routers keep a never-used stream so the vector stays indexable by
    /// source id), the geometric gap sampler and the class coin.
    Bernoulli {
        rngs: Vec<SmallRng>,
        gaps: GapSampler,
        /// Exact-integer class coin threshold: `ceil(data_fraction *
        /// 2^53)`.
        data_thr: u64,
        data_flits: u32,
        ctrl_flits: u32,
    },
    /// Trace replay: each source's messages at the load-stretched trace
    /// schedule.
    Trace(SourceCursors<'t>),
}

impl InjectionSchedule<'static> {
    /// The Bernoulli schedule both engines share for one run: seed
    /// material from `point_seed(cfg.seed, offered)`, per-cycle
    /// probability `offered / average_flits` (clamped to `[0, 1]`),
    /// horizon at the end of the measurement window.
    pub fn for_run(cfg: &SimConfig, offered_flits_per_node_cycle: f64, alive: &[bool]) -> Self {
        let base = point_seed(cfg.seed, offered_flits_per_node_cycle);
        let p = (offered_flits_per_node_cycle / cfg.average_flits()).clamp(0.0, 1.0);
        let gaps = GapSampler::new(p);
        let mut rngs: Vec<SmallRng> = (0..alive.len())
            .map(|src| SmallRng::seed_from_u64(splitmix64(base ^ splitmix64(src as u64))))
            .collect();
        // The first gap counts from "one cycle before the run", so a gap
        // of 1 lands on cycle 0 — a source is allowed to inject on the
        // very first cycle.
        let first = alive
            .iter()
            .zip(rngs.iter_mut())
            .map(|(&alive, rng)| {
                if alive && p > 0.0 {
                    gaps.gap(rng) - 1
                } else {
                    u64::MAX
                }
            })
            .collect();
        InjectionSchedule {
            cal: SourceCalendar::new(first, cfg.warmup_cycles + cfg.measure_cycles),
            streams: Streams::Bernoulli {
                rngs,
                gaps,
                data_thr: (cfg.data_fraction * F53).ceil() as u64,
                data_flits: cfg.flits(PacketClass::Data) as u32,
                ctrl_flits: cfg.flits(PacketClass::Control) as u32,
            },
        }
    }
}

impl<'t> InjectionSchedule<'t> {
    /// The schedule replaying `trace` at `offered` flits per node per
    /// cycle (see [`SourceCursors`]), horizon at the end of the
    /// measurement window.  A failed source never arms: its messages are
    /// all dropped.
    pub fn for_trace(
        cfg: &SimConfig,
        trace: &'t Trace,
        offered_flits_per_node_cycle: f64,
        alive: &[bool],
    ) -> Self {
        let cursors = SourceCursors::new(trace, offered_flits_per_node_cycle);
        let first = (0..alive.len())
            .map(|src| match alive[src] {
                true => cursors.next_due(src).unwrap_or(u64::MAX),
                false => u64::MAX,
            })
            .collect();
        InjectionSchedule {
            cal: SourceCalendar::new(first, cfg.warmup_cycles + cfg.measure_cycles),
            streams: Streams::Trace(cursors),
        }
    }

    /// A lower bound on the earliest due cycle of any source on the
    /// calendar, if any (see the module docs); strictly past the last
    /// fully drained cycle.
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        self.cal.next_due()
    }

    /// Take the next source whose arrival is due at or before `cycle` off
    /// the calendar without drawing anything, in `(due cycle, source)`
    /// order; `None` once nothing further is due by `cycle`.
    #[inline]
    pub fn pop_due_source(&mut self, cycle: u64) -> Option<usize> {
        self.cal.pop_due(cycle)
    }

    /// The cycle `src`'s next arrival is due (`u64::MAX` once none is due
    /// before the horizon).
    #[inline]
    pub fn due(&self, src: usize) -> u64 {
        self.cal.due(src)
    }

    /// Draw `src`'s next arrival and advance the source's due cycle to
    /// the arrival after it.  A Bernoulli source draws its destination,
    /// then its class coin, then the gap to its next arrival; a trace
    /// source takes its next message.  An arrival whose destination is
    /// unroutable (`sample_destination` returns `None`) or dead is
    /// consumed and yields `None`; the source still advances.  The source
    /// stays off the calendar until [`InjectionSchedule::rearm`].
    #[inline]
    pub fn draw(
        &mut self,
        src: usize,
        pattern: &TrafficPattern,
        layout: &Layout,
        alive: &[bool],
    ) -> Option<InjectionEvent> {
        let (event, next) = match &mut self.streams {
            Streams::Bernoulli {
                rngs,
                gaps,
                data_thr,
                data_flits,
                ctrl_flits,
            } => {
                let rng = &mut rngs[src];
                let event = match pattern.sample_destination(layout, src, rng) {
                    Some(dst) if alive[dst] => {
                        // Class coin only after the destination is validated.
                        let flits = if (rng.next_u64() >> 11) < *data_thr {
                            *data_flits
                        } else {
                            *ctrl_flits
                        };
                        Some(InjectionEvent {
                            src: src as u32,
                            dst: dst as u32,
                            flits,
                        })
                    }
                    _ => None,
                };
                (event, self.cal.due(src).saturating_add(gaps.gap(rng)))
            }
            Streams::Trace(cursors) => {
                let (due, m) = cursors.pop(src).expect("an armed source has a message");
                debug_assert_eq!(due, self.cal.due(src));
                let event = alive[m.dst as usize].then_some(InjectionEvent {
                    src: m.src,
                    dst: m.dst,
                    flits: m.flits,
                });
                (event, cursors.next_due(src).unwrap_or(u64::MAX))
            }
        };
        self.cal.set_due(src, next);
        event
    }

    /// Put `src` back on the calendar at its due cycle (no-op once
    /// retired).  The due cycle must be later than every cycle already
    /// drained; it may equal the cycle being drained only right after
    /// `src` was taken off it.
    #[inline]
    pub fn rearm(&mut self, src: usize) {
        self.cal.arm(src);
    }

    /// Pop the next injection due at or before `cycle`: the composition
    /// of [`pop_due_source`], [`draw`] and [`rearm`], skipping consumed
    /// masked arrivals.  Returns `None` once nothing further is due this
    /// cycle.
    ///
    /// Events come out in `(due cycle, source)` order, a source's
    /// arrivals due at one cycle back to back, provided `cycle` never
    /// exceeds an armed arrival's due cycle between calls — which holds
    /// for the reference loop, which drains every cycle.
    ///
    /// [`pop_due_source`]: InjectionSchedule::pop_due_source
    /// [`draw`]: InjectionSchedule::draw
    /// [`rearm`]: InjectionSchedule::rearm
    pub fn pop_due(
        &mut self,
        cycle: u64,
        pattern: &TrafficPattern,
        layout: &Layout,
        alive: &[bool],
    ) -> Option<InjectionEvent> {
        while let Some(src) = self.pop_due_source(cycle) {
            let event = self.draw(src, pattern, layout, alive);
            self.rearm(src);
            if event.is_some() {
                return event;
            }
        }
        None
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

    #[test]
    fn gap_table_lookup_equals_the_threshold_binary_search() {
        let mut rng = SmallRng::seed_from_u64(0x9A9);
        for p in [1e-4, 0.004, 0.06, 0.24, 0.5, 0.99] {
            let gaps = GapSampler::new(p);
            assert!(!gaps.thr.is_empty());
            let search = |bits: u64| gaps.thr.partition_point(|&t| bits < t);
            let top = (1u64 << 53) - 1;
            // Every bucket edge and its neighbours, every threshold and
            // its neighbours, then uniform draws.
            let edges = (0..=1u64 << 10).map(|h| h << GapSampler::START_SHIFT);
            let mut draws: Vec<u64> = edges
                .chain(gaps.thr.iter().copied())
                .flat_map(|x| [x.saturating_sub(1), x, x + 1])
                .filter(|&x| x <= top)
                .collect();
            draws.extend((0..20_000).map(|_| rng.next_u64() >> 11));
            for bits in draws {
                assert_eq!(gaps.hits(bits), search(bits), "p {p}, draw {bits:#x}");
            }
        }
    }
}
