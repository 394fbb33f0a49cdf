//! Timing of the benchmark's own calls into each layer.
//!
//! A [`Probe`] is either off (the untraced run: every call goes straight
//! through) or on (the traced run: each call is timed with
//! [`Instant`] and accumulated under its layer name).  Nothing inside the
//! program is instrumented; the probe only wraps the public calls the
//! benchmark itself makes.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one named call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    pub calls: u64,
    pub seconds: f64,
    /// The call site this one runs inside, when the benchmark knows it
    /// (serve20's per-call estimates nest inside `serve.horizon`).
    pub parent: Option<&'static str>,
}

#[derive(Debug, Default)]
pub struct Probe {
    on: bool,
    stats: BTreeMap<&'static str, Stat>,
    counts: BTreeMap<&'static str, f64>,
}

impl Probe {
    pub fn off() -> Self {
        Probe::default()
    }

    pub fn on() -> Self {
        Probe {
            on: true,
            ..Probe::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Run `f`, timing it under `name` when the probe is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_in(name, None, f)
    }

    /// [`Probe::time`] for a call made inside the call site `parent`.
    pub fn time_in<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, 1, start.elapsed().as_secs_f64());
        out
    }

    /// Add `calls` calls totalling `seconds` under `name`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        calls: u64,
        seconds: f64,
    ) {
        if !self.on {
            return;
        }
        let stat = self.stats.entry(name).or_default();
        stat.calls += calls;
        stat.seconds += seconds;
        stat.parent = parent;
    }

    /// Add `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Fold another probe's totals into this one.
    pub fn absorb(&mut self, other: Probe) {
        for (name, s) in other.stats {
            self.record(name, s.parent, s.calls, s.seconds);
        }
        for (name, n) in other.counts {
            self.count(name, n);
        }
    }

    pub fn stat(&self, name: &str) -> Stat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    pub fn seconds(&self, name: &str) -> f64 {
        self.stat(name).seconds
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn stats(&self) -> impl Iterator<Item = (&'static str, Stat)> + '_ {
        self.stats.iter().map(|(&k, &v)| (k, v))
    }

    /// A call site's time minus the time of the call sites nested in it,
    /// floored at zero: nested times that were measured by re-making the
    /// call (serve20's replay) can exceed the parent by timing noise.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let children: f64 = self
            .stats
            .values()
            .filter(|s| s.parent == Some(name))
            .map(|s| s.seconds)
            .sum();
        (self.seconds(name) - children).max(0.0)
    }
}
