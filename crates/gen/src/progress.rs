//! Solver progress tracking: incumbent, bound and objective-bounds gap over
//! time (the quantity the paper plots in Figure 5).

use std::time::Duration;

/// A single progress sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSample {
    /// Time since the solve started.
    pub elapsed: Duration,
    /// Objective value of the best feasible topology found so far
    /// (in the engine's minimization direction).
    pub incumbent: f64,
    /// Best proven bound on the optimum.
    pub bound: f64,
    /// Relative objective bounds gap `|incumbent - bound| / |incumbent|`.
    pub gap: f64,
    /// Evaluations (moves / nodes) performed so far.
    pub evaluations: u64,
}

/// The full progress trace of a topology-generation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverProgress {
    samples: Vec<ProgressSample>,
}

impl SolverProgress {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample whenever the incumbent improves (or at checkpoints).
    pub fn record(&mut self, elapsed: Duration, incumbent: f64, bound: f64, evaluations: u64) {
        let gap = if incumbent.abs() < 1e-12 {
            0.0
        } else {
            ((incumbent - bound).abs() / incumbent.abs()).max(0.0)
        };
        self.samples.push(ProgressSample {
            elapsed,
            incumbent,
            bound,
            gap,
            evaluations,
        });
    }

    /// All samples in recording (or, after [`SolverProgress::merge`],
    /// evaluation) order.
    pub fn samples(&self) -> &[ProgressSample] {
        &self.samples
    }

    /// Merge another trace (e.g. from a parallel worker), keeping samples
    /// sorted by evaluation count and recomputing the running best
    /// incumbent.  The sort is stable, so merging workers in index order
    /// orders the result by `(evaluations, worker index)`: the merged
    /// trace depends only on the seeds, never on wall-clock timing.
    pub fn merge(&mut self, other: &SolverProgress) {
        self.samples.extend_from_slice(&other.samples);
        self.samples.sort_by_key(|s| s.evaluations);
        // Re-apply the running minimum so the merged trace is monotone.
        let mut best = f64::INFINITY;
        for s in &mut self.samples {
            best = best.min(s.incumbent);
            s.incumbent = best;
            s.gap = if best.abs() < 1e-12 {
                0.0
            } else {
                ((best - s.bound).abs() / best.abs()).max(0.0)
            };
        }
    }

    /// Render as CSV rows `elapsed_ms,incumbent,bound,gap,evaluations`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("elapsed_ms,incumbent,bound,gap,evaluations\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{:.1},{:.4},{:.4},{:.6},{}\n",
                s.elapsed.as_secs_f64() * 1e3,
                s.incumbent,
                s.bound,
                s.gap,
                s.evaluations
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_relative_and_non_negative() {
        let mut p = SolverProgress::new();
        p.record(Duration::from_millis(1), 100.0, 90.0, 10);
        p.record(Duration::from_millis(2), 95.0, 90.0, 20);
        assert!((p.samples()[0].gap - 0.1).abs() < 1e-12);
        assert!(p.samples()[1].gap < 0.06);
        assert_eq!(p.samples()[1].incumbent, 95.0);
    }

    #[test]
    fn merge_keeps_monotone_incumbent() {
        let mut a = SolverProgress::new();
        a.record(Duration::from_millis(1), 100.0, 80.0, 1);
        a.record(Duration::from_millis(5), 90.0, 80.0, 5);
        let mut b = SolverProgress::new();
        b.record(Duration::from_millis(3), 85.0, 80.0, 3);
        a.merge(&b);
        let inc: Vec<f64> = a.samples().iter().map(|s| s.incumbent).collect();
        assert_eq!(inc, vec![100.0, 85.0, 85.0]);
        // Monotone non-increasing.
        for w in a.samples().windows(2) {
            assert!(w[1].incumbent <= w[0].incumbent + 1e-12);
            assert!(w[1].evaluations >= w[0].evaluations);
        }
    }

    #[test]
    fn merge_orders_by_evaluations_then_worker_index() {
        // Worker 1's samples are recorded "earlier" in wall-clock time, but
        // the merge must ignore `elapsed`: ties on evaluations keep worker
        // order.
        let mut a = SolverProgress::new();
        a.record(Duration::from_millis(9), 100.0, 80.0, 0);
        a.record(Duration::from_millis(9), 95.0, 80.0, 10);
        let mut b = SolverProgress::new();
        b.record(Duration::from_millis(1), 90.0, 80.0, 0);
        b.record(Duration::from_millis(1), 92.0, 80.0, 5);
        let mut merged = SolverProgress::new();
        merged.merge(&a);
        merged.merge(&b);
        let order: Vec<(u64, Duration)> = merged
            .samples()
            .iter()
            .map(|s| (s.evaluations, s.elapsed))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, Duration::from_millis(9)),
                (0, Duration::from_millis(1)),
                (5, Duration::from_millis(1)),
                (10, Duration::from_millis(9)),
            ]
        );
        let inc: Vec<f64> = merged.samples().iter().map(|s| s.incumbent).collect();
        assert_eq!(inc, vec![100.0, 90.0, 90.0, 90.0]);
    }

    #[test]
    fn csv_contains_header_and_rows() {
        let mut p = SolverProgress::new();
        p.record(Duration::from_millis(1), 10.0, 9.0, 2);
        let csv = p.to_csv();
        assert!(csv.starts_with("elapsed_ms"));
        assert_eq!(csv.lines().count(), 2);
    }
}
