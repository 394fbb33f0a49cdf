//! Oracle test for per-source trace replay: [`SourceCursors`] must yield,
//! for every source, exactly the messages and due cycles the merged
//! all-source cursor below yields for that source, wave after wave.
//!
//! The oracle is the merged cursor the reference simulation engine used
//! to drain (`TraceCursor` and its `Clock`), kept verbatim so the
//! per-source schedule stays pinned to it.

use netsmith_trace::{SourceCursors, Trace, TraceMessage};
use proptest::prelude::*;

mod oracle {
    use netsmith_trace::{Trace, TraceMessage};

    /// The load-scaled replay clock every cursor shares: issue cycles are
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

    /// A forward-only cursor yielding trace messages at their scaled issue
    /// cycles, wave after wave.
    #[derive(Debug, Clone)]
    pub struct TraceCursor<'t> {
        messages: &'t [TraceMessage],
        clock: Clock,
        /// Cycle offset of the current wave.
        base: u64,
        /// Next message index within the current wave.
        idx: usize,
    }

    impl<'t> TraceCursor<'t> {
        /// Build the schedule for replaying `trace` at `offered` flits per
        /// node per cycle.  An offered load of zero (or an empty trace) yields
        /// an empty schedule.
        pub fn new(trace: &'t Trace, offered_flits_per_node_cycle: f64) -> Self {
            let (messages, clock) = Clock::new(trace, offered_flits_per_node_cycle);
            TraceCursor {
                messages,
                clock,
                base: 0,
                idx: 0,
            }
        }

        /// The stretch factor applied to issue cycles.
        #[allow(dead_code)]
        pub fn stretch(&self) -> f64 {
            self.clock.stretch
        }

        /// The scaled wrap-around period.
        pub fn scaled_horizon(&self) -> u64 {
            self.clock.scaled_horizon
        }

        /// The next message due at or before `cycle`, advancing the cursor
        /// (and the wave, at wrap-around).  Call in a loop to drain a cycle.
        #[inline]
        pub fn pop_due(&mut self, cycle: u64) -> Option<&'t TraceMessage> {
            if self.messages.is_empty() {
                return None;
            }
            if self.idx == self.messages.len() {
                self.base = self.clock.next_wave(self.base);
                self.idx = 0;
            }
            let due = self.clock.due(self.base, self.messages[self.idx].issue);
            if due > cycle {
                return None;
            }
            let m = &self.messages[self.idx];
            self.idx += 1;
            Some(m)
        }
    }
}

/// A random valid trace in which only the first `senders` routers send
/// (the rest send nothing) and issue cycles are rounded down to multiples
/// of `clump`, so many messages share one issue cycle.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (2u32..16, 1u64..256, 0usize..64, 1u64..32).prop_flat_map(|(routers, horizon, count, clump)| {
        (1..=routers).prop_flat_map(move |senders| {
            proptest::collection::vec((0..senders, 1..routers, 1u32..10, 0..horizon), count)
                .prop_map(move |raw| {
                    let mut messages: Vec<TraceMessage> = raw
                        .into_iter()
                        .map(|(src, dst_off, flits, issue)| TraceMessage {
                            src,
                            dst: (src + dst_off) % routers,
                            flits,
                            issue: issue / clump * clump,
                        })
                        .collect();
                    messages.sort_by_key(|m| m.issue);
                    Trace::new(routers, horizon, messages)
                })
        })
    })
}

/// Check `SourceCursors` against the oracle at one offered load, draining
/// at least three full waves.
fn check_load(trace: &Trace, load: f64) {
    let mut cursor = oracle::TraceCursor::new(trace, load);
    let end = cursor.scaled_horizon() * 3 + cursor.scaled_horizon() / 2 + 1;
    let mut merged = Vec::new();
    for cycle in 0..end {
        while let Some(m) = cursor.pop_due(cycle) {
            merged.push((cycle, *m));
        }
    }
    let mut cursors = SourceCursors::new(trace, load);
    for src in 0..trace.header.routers as usize {
        let expected: Vec<(u64, TraceMessage)> = merged
            .iter()
            .copied()
            .filter(|(_, m)| m.src as usize == src)
            .collect();
        for (cycle, m) in &expected {
            prop_assert_eq!(
                cursors.next_due(src),
                Some(*cycle),
                "load {}, source {}",
                load,
                src
            );
            prop_assert_eq!(
                cursors.pop(src),
                Some((*cycle, m)),
                "load {}, source {}",
                load,
                src
            );
        }
        if expected.is_empty() {
            // A silent source, or any source at zero load.
            prop_assert_eq!(cursors.next_due(src), None);
            prop_assert_eq!(cursors.pop(src), None);
        } else {
            prop_assert!(cursors.next_due(src).unwrap() >= end);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Each source's per-source schedule is the merged schedule filtered
    /// to that source, at zero load, below, at and above the native rate.
    #[test]
    fn source_cursors_match_the_merged_cursor(
        trace in arb_trace(),
        below in 0.05f64..1.0,
        above in 1.0f64..8.0,
    ) {
        let native = trace.offered_flits_per_node_cycle();
        for load in [0.0, native * below, native, native * above] {
            check_load(&trace, load);
        }
    }
}
