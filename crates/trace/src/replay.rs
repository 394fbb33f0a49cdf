//! The replay schedule: each source's trace messages at their
//! load-scaled issue cycles.
//!
//! [`SourceCursors`] turns a validated trace into per-source injection
//! sequences: [`SourceCursors::next_due`] peeks the cycle a source's next
//! message comes due and [`SourceCursors::pop`] takes it.  Both simulation
//! engines read replay through it, one source at a time, and three
//! deliberately boring properties make it their common foundation:
//!
//! * **Determinism** — the schedule is a pure function of
//!   `(trace, offered load)`; no RNG is consumed, so a source's messages
//!   come due at the same cycles whichever engine reads them, and the two
//!   engines inject bit-identical traffic.
//! * **Load scaling by cycle-stretch** — a trace natively offers
//!   `total_flits / (routers * horizon)` flits per node per cycle; to
//!   replay at a different offered load every issue cycle is multiplied by
//!   `native / offered` (stretched when quieter, compressed when hotter),
//!   preserving the trace's burst structure instead of resampling it.
//! * **Wrap-around** — when a source exhausts its messages of the
//!   (stretched) horizon it restarts at the next wave, so measurement
//!   windows longer than the trace keep seeing traffic.

use crate::format::{Trace, TraceMessage};

/// The load-scaled replay clock: issue cycles are
/// multiplied by `stretch`, and wave `w` is offset by `w *
/// scaled_horizon`.
#[derive(Debug, Clone, Copy)]
struct Clock {
    /// Scale factor applied to issue cycles (`native / offered`).
    stretch: f64,
    /// Horizon after scaling: the wave period.
    scaled_horizon: u64,
}

impl Clock {
    /// The clock for replaying `trace` at `offered` flits per node per
    /// cycle, and the messages it replays: none at zero load or for an
    /// empty trace.
    fn new(trace: &Trace, offered_flits_per_node_cycle: f64) -> (&[TraceMessage], Clock) {
        let native = trace.offered_flits_per_node_cycle();
        let (messages, stretch) = if offered_flits_per_node_cycle > 0.0 && native > 0.0 {
            (
                trace.messages.as_slice(),
                native / offered_flits_per_node_cycle,
            )
        } else {
            (&trace.messages[..0], 1.0)
        };
        let scaled_horizon = ((trace.header.horizon as f64 * stretch).ceil() as u64).max(1);
        (
            messages,
            Clock {
                stretch,
                scaled_horizon,
            },
        )
    }

    /// The cycle a message issued at `issue` is due in the wave starting
    /// at `base`.  Same float expression on every engine; `as u64` and
    /// the add saturate, so an extreme stretch parks the message past any
    /// finite run.
    #[inline]
    fn due(&self, base: u64, issue: u64) -> u64 {
        base.saturating_add((issue as f64 * self.stretch).floor() as u64)
    }

    /// The start of the wave after the one starting at `base`.  Scaled
    /// issues stay strictly inside a wave (`scaled_horizon >= 1`), so the
    /// next wave's cycles never precede this one's.
    #[inline]
    fn next_wave(&self, base: u64) -> u64 {
        base.saturating_add(self.scaled_horizon)
    }
}

/// The replay schedule of a trace, read one source at a time: each
/// source's messages in trace order at their scaled issue cycles, wave
/// after wave, so an engine can pull a source's next message only when it
/// needs it.
#[derive(Debug, Clone)]
pub struct SourceCursors<'t> {
    messages: &'t [TraceMessage],
    clock: Clock,
    /// Message indices grouped by source, in trace order within a source:
    /// source `s` owns `order[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    order: Vec<u32>,
    /// Per source: the cycle offset of its current wave and its next
    /// position in `order`.
    base: Vec<u64>,
    pos: Vec<u32>,
}

impl<'t> SourceCursors<'t> {
    /// Per-source schedules for replaying `trace` at `offered` flits per
    /// node per cycle, one per router of the trace header.
    pub fn new(trace: &'t Trace, offered_flits_per_node_cycle: f64) -> Self {
        let (messages, clock) = Clock::new(trace, offered_flits_per_node_cycle);
        let n = trace.header.routers as usize;
        let mut starts = vec![0u32; n + 1];
        for m in messages {
            starts[m.src as usize + 1] += 1;
        }
        for s in 0..n {
            starts[s + 1] += starts[s];
        }
        let mut pos = starts[..n].to_vec();
        let mut order = vec![0u32; messages.len()];
        for (i, m) in messages.iter().enumerate() {
            let at = &mut pos[m.src as usize];
            order[*at as usize] = i as u32;
            *at += 1;
        }
        pos.copy_from_slice(&starts[..n]);
        SourceCursors {
            messages,
            clock,
            starts,
            order,
            base: vec![0; n],
            pos,
        }
    }

    /// The issue cycle of source `src`'s next message, without advancing
    /// (`None` when the source sends nothing).
    #[inline]
    pub fn next_due(&self, src: usize) -> Option<u64> {
        let (lo, hi) = (self.starts[src], self.starts[src + 1]);
        if lo == hi {
            return None;
        }
        let (base, at) = if self.pos[src] == hi {
            (self.clock.next_wave(self.base[src]), lo)
        } else {
            (self.base[src], self.pos[src])
        };
        let m = &self.messages[self.order[at as usize] as usize];
        Some(self.clock.due(base, m.issue))
    }

    /// Source `src`'s next message and its issue cycle, advancing the
    /// source (and its wave, at wrap-around); `None` when the source
    /// sends nothing.
    #[inline]
    pub fn pop(&mut self, src: usize) -> Option<(u64, &'t TraceMessage)> {
        let (lo, hi) = (self.starts[src], self.starts[src + 1]);
        if lo == hi {
            return None;
        }
        if self.pos[src] == hi {
            self.base[src] = self.clock.next_wave(self.base[src]);
            self.pos[src] = lo;
        }
        let m = &self.messages[self.order[self.pos[src] as usize] as usize];
        self.pos[src] += 1;
        Some((self.clock.due(self.base[src], m.issue), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::new(
            4,
            10,
            vec![
                TraceMessage {
                    src: 0,
                    dst: 1,
                    flits: 2,
                    issue: 0,
                },
                TraceMessage {
                    src: 1,
                    dst: 2,
                    flits: 2,
                    issue: 4,
                },
                TraceMessage {
                    src: 2,
                    dst: 3,
                    flits: 4,
                    issue: 9,
                },
            ],
        )
    }

    /// Every message due before `cycles`, merged over the sources in
    /// `(due cycle, source)` order.
    fn schedule(cursors: &mut SourceCursors<'_>, cycles: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        for src in 0..cursors.base.len() {
            while cursors.next_due(src).is_some_and(|due| due < cycles) {
                let (due, m) = cursors.pop(src).unwrap();
                out.push((due, m.src));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn native_rate_replays_issue_cycles_verbatim() {
        let t = trace();
        let native = t.offered_flits_per_node_cycle();
        let mut cursors = SourceCursors::new(&t, native);
        assert!((cursors.clock.stretch - 1.0).abs() < 1e-12);
        assert_eq!(schedule(&mut cursors, 10), vec![(0, 0), (4, 1), (9, 2)]);
    }

    #[test]
    fn wrap_around_replays_waves_past_the_horizon() {
        let t = trace();
        let native = t.offered_flits_per_node_cycle();
        let mut cursors = SourceCursors::new(&t, native);
        // Three full waves in 30 cycles, offset by the 10-cycle horizon.
        assert_eq!(
            schedule(&mut cursors, 30),
            vec![
                (0, 0),
                (4, 1),
                (9, 2),
                (10, 0),
                (14, 1),
                (19, 2),
                (20, 0),
                (24, 1),
                (29, 2)
            ]
        );
    }

    #[test]
    fn half_load_stretches_cycles_twofold() {
        let t = trace();
        let native = t.offered_flits_per_node_cycle();
        let mut cursors = SourceCursors::new(&t, native / 2.0);
        assert_eq!(cursors.clock.scaled_horizon, 20);
        assert_eq!(
            schedule(&mut cursors, 40),
            vec![(0, 0), (8, 1), (18, 2), (20, 0), (28, 1), (38, 2)]
        );
    }

    #[test]
    fn double_load_compresses_cycles() {
        let t = trace();
        let native = t.offered_flits_per_node_cycle();
        let mut cursors = SourceCursors::new(&t, native * 2.0);
        assert_eq!(cursors.clock.scaled_horizon, 5);
        assert_eq!(
            schedule(&mut cursors, 10),
            vec![(0, 0), (2, 1), (4, 2), (5, 0), (7, 1), (9, 2)]
        );
    }

    #[test]
    fn zero_load_and_empty_traces_yield_nothing() {
        let t = trace();
        let mut cursors = SourceCursors::new(&t, 0.0);
        assert_eq!(schedule(&mut cursors, 100), vec![]);
        let empty = Trace::new(4, 10, vec![]);
        let mut cursors = SourceCursors::new(&empty, 0.3);
        assert_eq!(schedule(&mut cursors, 100), vec![]);
    }

    #[test]
    fn next_due_peeks_without_advancing_and_wraps() {
        let t = trace();
        let native = t.offered_flits_per_node_cycle();
        let mut cursors = SourceCursors::new(&t, native);
        // Source 1 sends one message, issued at cycle 4.
        assert_eq!(cursors.next_due(1), Some(4));
        assert_eq!(cursors.next_due(1), Some(4), "peeking must not advance");
        assert_eq!(cursors.pop(1), Some((4, &t.messages[1])));
        // Its wave is exhausted: the peek wraps to the next wave's copy
        // (issue 4 offset by the 10-cycle horizon), without committing.
        assert_eq!(cursors.next_due(1), Some(14));
        assert_eq!(cursors.next_due(1), Some(14));
        assert_eq!(cursors.pop(1), Some((14, &t.messages[1])));
        assert_eq!(cursors.next_due(1), Some(24));
        // An empty schedule has no next due cycle.
        let empty = Trace::new(4, 10, vec![]);
        assert_eq!(SourceCursors::new(&empty, 0.3).next_due(0), None);
    }

    #[test]
    fn same_arguments_give_identical_schedules() {
        let t = trace();
        let a = schedule(&mut SourceCursors::new(&t, 0.17), 500);
        let b = schedule(&mut SourceCursors::new(&t, 0.17), 500);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn source_cursors_split_the_cursor_schedule_by_source() {
        let t = trace();
        let native = t.offered_flits_per_node_cycle();
        for load in [native / 3.0, native, native * 2.5, 0.0] {
            let mut cursors = SourceCursors::new(&t, load);
            let Clock {
                stretch,
                scaled_horizon,
            } = cursors.clock;
            for src in 0..4usize {
                // Three waves or more of the source's messages, each due
                // at its wave's start plus its stretched issue cycle.
                let mine: Vec<&TraceMessage> = cursors
                    .messages
                    .iter()
                    .filter(|m| m.src as usize == src)
                    .collect();
                let expected: Vec<(u64, TraceMessage)> = (0..100 / scaled_horizon + 1)
                    .flat_map(|wave| {
                        mine.iter().map(move |&&m| {
                            let due = wave * scaled_horizon + (m.issue as f64 * stretch) as u64;
                            (due, m)
                        })
                    })
                    .filter(|&(due, _)| due < 100)
                    .collect();
                for &(cycle, m) in &expected {
                    assert_eq!(
                        cursors.next_due(src),
                        Some(cycle),
                        "load {load}, source {src}"
                    );
                    assert_eq!(cursors.pop(src), Some((cycle, &m)));
                }
                if mine.is_empty() {
                    // Source 3 sends nothing, as does every source at
                    // zero load.
                    assert_eq!(cursors.next_due(src), None);
                    assert_eq!(cursors.pop(src), None);
                } else {
                    assert!(expected.len() >= 3);
                    assert!(cursors.next_due(src).unwrap() >= 100);
                }
            }
        }
    }
}
