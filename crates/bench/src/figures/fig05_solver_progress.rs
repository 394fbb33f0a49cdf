//! Figure 5: solver progress — the objective-bounds gap narrowing as the
//! search spends its evaluation budget — for the latency-optimized (LatOp) search on the 20-router (a),
//! 30-router (b) and 48-router (c) layouts, for each link-length class.
//!
//! The paper runs Gurobi for minutes (20 routers) to days (48 routers); the
//! reproduction's annealing engine runs for seconds to minutes, but the
//! qualitative shape is the same: small classes converge to (near-)zero gap
//! quickly, large classes plateau at a residual gap yet still beat every
//! expert design.
//!
//! The x-axis is the evaluation count, not wall-clock time, so the figure
//! is the same on every machine and at every thread count; the annealer's
//! wall-clock phases stay visible in the obs log (`anneal.*` spans).

use super::classes;
use netsmith_exp::prelude::*;

pub const HEADER: &str = "layout,class,evaluations,incumbent_avg_hops,bound_avg_hops,gap";

pub fn figure(profile: &RunProfile) -> Figure {
    let mut spec = ExperimentSpec::new("fig05_solver_progress");
    spec.layouts = if profile.quick {
        vec![LayoutSpec::Noi4x5]
    } else {
        vec![LayoutSpec::Noi4x5, LayoutSpec::Noi6x5, LayoutSpec::Noi8x6]
    };
    spec.classes = classes(profile);
    spec.candidates = vec![CandidateSpec::synth(ObjectiveSpec::LatOp)];
    spec.assertions = vec![
        Assertion::MinRows { count: 1 },
        Assertion::ColumnPositive {
            column: "incumbent_avg_hops".into(),
        },
    ];
    Figure::new(spec, HEADER, |cell: &Cell<'_>| {
        let discovery = cell.candidate.discovery.as_ref().expect("synth candidate");
        let n = cell.candidate.layout.num_routers() as f64;
        let pairs = n * (n - 1.0);
        let label = cell.candidate.layout_spec.label();
        let class = cell.candidate.class;
        eprintln!(
            "# {label} {}: final gap {:.1}% (avg hops {:.3}, bound {:.3})",
            class.name(),
            discovery.gap * 100.0,
            discovery.objective.average_hops,
            discovery.bound / pairs
        );
        discovery
            .progress
            .samples()
            .iter()
            .map(|s| {
                Row::new()
                    .str(label)
                    .str(class.name())
                    .int(s.evaluations as i64)
                    .float(s.incumbent / pairs, 4)
                    .float(s.bound / pairs, 4)
                    .float(s.gap, 4)
            })
            .collect()
    })
}
