//! The paper's evaluation as registered experiment figures.
//!
//! Every figure is a [`netsmith_exp`] experiment: a declarative spec
//! (candidates × workloads × assertions) plus the figure's measurement
//! code, registered in [`figures::ALL`].  The `suite` binary runs the
//! figures named on its command line, or all of them, against one shared
//! candidate cache (`suite --quick fig12_energy fig14_pareto`); every run
//! accepts the same `--quick` / `--json` / `--seed` / `--obs` flags.  The
//! `perf` binary checks the tracked performance baseline.
//!
//! Budget configuration flows through [`RunProfile`] (construct it directly
//! in tests); the historical `NETSMITH_EVALS` / `NETSMITH_WORKERS`
//! environment variables remain as fallbacks for scripted runs.

pub mod figures;

pub use netsmith_exp::RunProfile;

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_exp::{ObjectiveSpec, Runner, SuiteCache};

    #[test]
    fn run_profile_routes_budget_without_touching_the_environment() {
        // The budget travels through the struct, not process-global state:
        // no `std::env::set_var` anywhere in this test.
        let profile = RunProfile {
            evals: 400,
            workers: 1,
            ..RunProfile::default()
        };
        let cache = SuiteCache::new();
        let runner = Runner::new(profile, &cache);
        let candidate = runner.resolve_synth(
            netsmith_exp::LayoutSpec::Noi4x5,
            netsmith::topo::LinkClass::Medium,
            &ObjectiveSpec::LatOp,
            false,
        );
        assert_eq!(candidate.topology.name(), "NS-LatOp-medium");
        let discovery = candidate.discovery.as_ref().unwrap();
        // One worker, 400-evaluation budget — exactly as routed.
        assert!(discovery.evaluations >= 400);
        assert!(discovery.evaluations < 4_000);
    }

    #[test]
    fn every_figure_is_registered_once() {
        let mut names: Vec<&str> = figures::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 16, "all sixteen figures registered");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "figure names must be unique");
    }
}
