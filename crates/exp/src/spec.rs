//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] names the *matrix* a figure evaluates — candidate
//! topologies (expert designs by name, or synthesis specs as objective
//! descriptions), workloads (a traffic pattern or a replayed trace ×
//! offered loads × simulator profile) and declarative assertions over the
//! emitted rows — as plain data, built in code by each figure.
//! [`ExperimentSpec::check`] rejects a matrix that cannot run before any
//! candidate is discovered.  The figure-specific *measurement* (which
//! columns a cell produces) stays code, attached by the harness as a
//! closure next to the spec.

use netsmith::gen::{Objective, Term};
use netsmith::prelude::RoutingScheme;
use netsmith_sim::SimConfig;
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{expert, Layout, LinkClass, Topology};
use netsmith_trace::{generate_named, Trace, TraceModel, TraceStats};

/// The interposer layouts of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutSpec {
    /// 20 routers, 4x5 (the paper's primary configuration).
    Noi4x5,
    /// 30 routers, 6x5.
    Noi6x5,
    /// 48 routers, 8x6 (the scalability study).
    Noi8x6,
}

impl LayoutSpec {
    /// Materialize the layout.
    pub fn layout(&self) -> Layout {
        match self {
            LayoutSpec::Noi4x5 => Layout::noi_4x5(),
            LayoutSpec::Noi6x5 => Layout::noi_6x5(),
            LayoutSpec::Noi8x6 => Layout::noi_8x6(),
        }
    }

    /// Label used in CSV rows ("4x5").
    pub fn label(&self) -> &'static str {
        match self {
            LayoutSpec::Noi4x5 => "4x5",
            LayoutSpec::Noi6x5 => "6x5",
            LayoutSpec::Noi8x6 => "8x6",
        }
    }
}

/// A synthesis objective as declarative data; demand-weighted objectives
/// name a traffic pattern and derive the demand matrix from the cell's
/// layout at resolution time, keeping specs compact and layout-portable.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveSpec {
    LatOp,
    SCOp,
    EnergyOp {
        edp_weight: f64,
    },
    /// [`Objective::fault_op_default`].
    FaultOp,
    /// Pattern-weighted latency (`NS-ShufOpt` style).
    PatternLatOp {
        pattern: TrafficPattern,
    },
    /// Trace-weighted latency: the flit-weighted demand matrix extracted
    /// from a replayed trace ([`TraceStats`]), so synthesis can target a
    /// recorded or generated workload instead of an analytic pattern.
    TraceLatOp {
        trace: TraceSpec,
    },
    /// An arbitrary non-negative weighted combination of the axis
    /// objectives above, folded term-by-term (shared terms collapse).
    Composite {
        parts: Vec<(f64, ObjectiveSpec)>,
    },
}

impl ObjectiveSpec {
    /// Resolve to a concrete [`Objective`] for a layout.
    ///
    /// Panics when a [`ObjectiveSpec::TraceLatOp`] trace cannot be
    /// materialized (missing file, router-count mismatch, unknown model) —
    /// the runner treats an unservable candidate as fatal, exactly like an
    /// unpreparable topology.  [`ExperimentSpec::check`] rejects unknown
    /// models before any candidate is resolved.
    pub fn resolve(&self, layout: &Layout) -> Objective {
        match self {
            ObjectiveSpec::LatOp => Objective::LatOp,
            ObjectiveSpec::SCOp => Objective::SCOp,
            ObjectiveSpec::EnergyOp { edp_weight } => Objective::EnergyOp {
                edp_weight: *edp_weight,
            },
            ObjectiveSpec::FaultOp => Objective::fault_op_default(),
            ObjectiveSpec::PatternLatOp { pattern } => {
                Objective::PatternLatOp(pattern.demand_matrix(layout))
            }
            ObjectiveSpec::TraceLatOp { trace } => {
                let resolved = trace
                    .resolve(layout.num_routers())
                    .unwrap_or_else(|e| panic!("trace objective cannot be resolved: {e}"));
                Objective::PatternLatOp(TraceStats::of(&resolved).demand_matrix().clone())
            }
            ObjectiveSpec::Composite { parts } => {
                let mut terms: Vec<(f64, Term)> = Vec::new();
                for (scale, part) in parts {
                    let part = part.resolve(layout).decomposition();
                    fold_terms(
                        &mut terms,
                        *scale,
                        part.into_iter().map(|wt| (wt.weight, wt.term)),
                    );
                }
                Objective::composite(terms)
            }
        }
    }

    /// Check that this objective resolves, nested
    /// [`ObjectiveSpec::Composite`] parts included: every generator model
    /// it names is known, every composite has a part, every composite
    /// scale and `EnergyOp` weight is a finite non-negative number, and
    /// every composite's folded term weights stay finite.  A bad scale or
    /// an overflowing fold would panic in [`Objective::composite`]; a bad
    /// `edp_weight` gives NaN scores or an inadmissible lower bound.
    ///
    /// On success, returns the weighted terms the objective resolves to,
    /// folded as [`ObjectiveSpec::resolve`] folds them, except that every
    /// demand-weighted hop term (`PatternLatOp`, `TraceLatOp`) is one
    /// `None` entry, since its demand matrix needs a layout.  That sums
    /// weights `resolve` may keep apart, never the reverse, so a fold that
    /// stays finite here stays finite on every layout.
    fn check(&self) -> Result<Vec<(f64, Option<Term>)>, String> {
        let axis = |objective: Objective| {
            let terms = objective.decomposition().into_iter();
            Ok(terms.map(|wt| (wt.weight, Some(wt.term))).collect())
        };
        match self {
            ObjectiveSpec::LatOp => axis(Objective::LatOp),
            ObjectiveSpec::SCOp => axis(Objective::SCOp),
            ObjectiveSpec::FaultOp => axis(Objective::fault_op_default()),
            ObjectiveSpec::EnergyOp { edp_weight } => {
                check_weight("EnergyOp edp_weight", *edp_weight)?;
                axis(Objective::EnergyOp {
                    edp_weight: *edp_weight,
                })
            }
            ObjectiveSpec::PatternLatOp { .. } => Ok(vec![(1.0, None)]),
            ObjectiveSpec::TraceLatOp { trace } => {
                trace.check_model()?;
                Ok(vec![(1.0, None)])
            }
            ObjectiveSpec::Composite { parts } if parts.is_empty() => {
                Err("composite objective has no parts".into())
            }
            ObjectiveSpec::Composite { parts } => {
                let mut terms = Vec::new();
                for (scale, part) in parts {
                    check_weight("composite scale", *scale)?;
                    fold_terms(&mut terms, *scale, part.check()?);
                }
                match terms.iter().find(|(weight, _)| !weight.is_finite()) {
                    Some((weight, term)) => Err(format!(
                        "composite weight of {} folds to {weight}, which is not finite",
                        term.as_ref().map_or("PatHops".into(), Term::tag)
                    )),
                    None => Ok(terms),
                }
            }
        }
    }
}

/// Fold one composite part, scaled by `scale`, into `terms` by term, so
/// parts sharing a term (Hops appears in both LatOp and FaultOp) collapse
/// into one weighted entry.
fn fold_terms<T: PartialEq>(
    terms: &mut Vec<(f64, T)>,
    scale: f64,
    part: impl IntoIterator<Item = (f64, T)>,
) {
    for (weight, term) in part {
        match terms.iter_mut().find(|(_, t)| *t == term) {
            Some((w, _)) => *w += scale * weight,
            None => terms.push((scale * weight, term)),
        }
    }
}

/// Reject a weight that is NaN, infinite or negative.
fn check_weight(what: &str, weight: f64) -> Result<(), String> {
    if weight.is_finite() && weight >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{what} {weight} is not a finite non-negative number"
        ))
    }
}

/// One candidate topology of a spec's line-up.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateSpec {
    /// A named expert design (routed with NDBT, like the paper).  When
    /// `only_class` is set the candidate is instantiated only under that
    /// link class (the 48-router study hand-picks which expert designs
    /// scale).
    Expert {
        name: String,
        only_class: Option<LinkClass>,
    },
    /// Every expert baseline registered for the cell's link class.
    ExpertBaselines,
    /// A topology synthesized by the NetSmith annealer (routed with MCLB),
    /// discovered at most once per suite run for a given
    /// (objective-decomposition, layout, class, seed, budget) key.
    Synth {
        objective: ObjectiveSpec,
        /// Force symmetric (paired) links — constraint C9.
        symmetric: bool,
    },
}

impl CandidateSpec {
    /// Shorthand for a named expert candidate available in every class.
    pub fn expert(name: &str) -> Self {
        CandidateSpec::Expert {
            name: name.into(),
            only_class: None,
        }
    }

    /// Shorthand for an expert candidate pinned to one class.
    pub fn expert_in(name: &str, class: LinkClass) -> Self {
        CandidateSpec::Expert {
            name: name.into(),
            only_class: Some(class),
        }
    }

    /// Shorthand for an asymmetric synthesis candidate.
    pub fn synth(objective: ObjectiveSpec) -> Self {
        CandidateSpec::Synth {
            objective,
            symmetric: false,
        }
    }
}

/// Builds one expert design on a layout.
type ExpertBuilder = fn(&Layout) -> Topology;

/// Every expert design [`expert_by_name`] resolves, by name.
const EXPERTS: &[(&str, ExpertBuilder)] = &[
    ("mesh", expert::mesh),
    ("folded-torus", expert::folded_torus),
    ("kite-small", expert::kite_small),
    ("kite-medium", expert::kite_medium),
    ("kite-large", expert::kite_large),
    ("butter-donut", expert::butter_donut),
    ("double-butterfly", expert::double_butterfly),
    ("lpbt-hops", expert::lpbt_hops),
    ("lpbt-power", expert::lpbt_power),
];

/// Resolve an expert-topology name ("mesh", "folded-torus", …).  An
/// unknown name's error quotes it and lists the known experts.
pub fn expert_by_name(name: &str, layout: &Layout) -> Result<Topology, String> {
    let (_, build) = EXPERTS
        .iter()
        .find(|(known, _)| *known == name)
        .ok_or_else(|| unknown_expert(name))?;
    Ok(build(layout))
}

/// [`expert_by_name`]'s check without building the topology.
fn check_expert_name(name: &str) -> Result<(), String> {
    if EXPERTS.iter().any(|(known, _)| *known == name) {
        Ok(())
    } else {
        Err(unknown_expert(name))
    }
}

fn unknown_expert(name: &str) -> String {
    let known: Vec<&str> = EXPERTS.iter().map(|(known, _)| *known).collect();
    format!(
        "unknown expert topology {name:?} (known experts: {})",
        known.join(", ")
    )
}

/// Which [`SimConfig`] a workload's measurements run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimProfile {
    /// [`SimConfig::for_class`] — the per-class clocks of the paper.
    ClassDefault,
    /// [`SimConfig::quick`] at the quick profile's default clock.
    Quick,
    /// [`SimConfig::quick`] with the cell's class clock (structurally quick
    /// but comparable across classes).
    QuickClassClock,
    /// Per-class config with explicit warmup/measure/drain windows (the CI
    /// smoke configuration of the energy study).
    ClassWithWindows {
        warmup: u64,
        measure: u64,
        drain: u64,
    },
}

impl SimProfile {
    /// Materialize the simulator configuration for a link class.
    pub fn resolve(&self, class: LinkClass) -> SimConfig {
        match self {
            SimProfile::ClassDefault => SimConfig::for_class(class),
            SimProfile::Quick => SimConfig::quick(),
            SimProfile::QuickClassClock => SimConfig {
                clock_ghz: class.clock_ghz(),
                ..SimConfig::quick()
            },
            SimProfile::ClassWithWindows {
                warmup,
                measure,
                drain,
            } => SimConfig {
                warmup_cycles: *warmup,
                measure_cycles: *measure,
                drain_cycles: *drain,
                ..SimConfig::for_class(class)
            },
        }
    }
}

/// Where a trace workload's messages come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSpec {
    /// A trace file on disk in the `netsmith-trace` JSON format, whatever
    /// the file's extension.
    File { path: String },
    /// A named generator model ([`netsmith_trace::TraceModel::by_name`]),
    /// materialized for the cell's router count at resolution time so one
    /// spec serves every layout.
    Generator {
        model: String,
        horizon: u64,
        seed: u64,
    },
}

impl TraceSpec {
    /// Shorthand for a generator-backed trace.
    pub fn generator(model: &str, horizon: u64, seed: u64) -> Self {
        TraceSpec::Generator {
            model: model.into(),
            horizon,
            seed,
        }
    }

    /// Label printed in rows ("trace:onoff-hotspot", "trace:parsec_x264").
    pub fn label(&self) -> String {
        match self {
            TraceSpec::File { path } => {
                let stem = std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.clone());
                format!("trace:{stem}")
            }
            TraceSpec::Generator { model, .. } => format!("trace:{model}"),
        }
    }

    /// Materialize the trace for a network of `routers` routers.  File
    /// traces must match the router count exactly; generator traces are
    /// produced for it.
    pub fn resolve(&self, routers: usize) -> Result<Trace, String> {
        let trace = match self {
            TraceSpec::File { path } => {
                let trace = std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| Trace::from_json_str(&text).map_err(|e| e.to_string()))
                    .map_err(|e| format!("trace file {path:?}: {e}"))?;
                if trace.header.routers as usize != routers {
                    return Err(format!(
                        "trace file {path:?} has {} routers, cell needs {routers}",
                        trace.header.routers
                    ));
                }
                trace
            }
            TraceSpec::Generator {
                model,
                horizon,
                seed,
            } => generate_named(model, routers as u32, *horizon, *seed)
                .ok_or_else(|| unknown_trace_model(model))?,
        };
        trace.validate().map_err(|e| format!("trace: {e}"))?;
        Ok(trace)
    }

    /// Check that a generator trace names a known model.  A file trace is
    /// read only when it is resolved.
    fn check_model(&self) -> Result<(), String> {
        match self {
            TraceSpec::Generator { model, .. } if TraceModel::by_name(model).is_none() => {
                Err(unknown_trace_model(model))
            }
            _ => Ok(()),
        }
    }
}

fn unknown_trace_model(model: &str) -> String {
    format!(
        "unknown trace model {model:?} (known models: {})",
        TraceModel::names().join(", ")
    )
}

/// A lifetime-serving workload: the knobs `netsmith-serve` needs to play
/// a long horizon — the serving analogue of a load sweep.  Kept as plain
/// numbers so the spec layer stays independent of the serve crate; the
/// measuring figure assembles the full `ServingConfig` from these plus
/// the cell's sim profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSpec {
    /// Horizon length in epochs.
    pub epochs: u64,
    /// Diurnal period of the load process, in epochs.
    pub period_epochs: u64,
    /// Expected permanent faults over the horizon.
    pub expected_faults: f64,
    /// Offered load below which an epoch counts as low-load.
    pub low_load_threshold: f64,
    /// Master serving seed (load process + per-epoch simulator seeds).
    pub seed: u64,
    /// Fault-tape seed.
    pub tape_seed: u64,
}

/// What a workload injects: a synthetic pattern sampled per cycle, a
/// trace replayed deterministically (stretched to the offered load), or
/// a lifetime serving horizon played by `netsmith-serve`.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    Pattern(TrafficPattern),
    Trace(TraceSpec),
    Serving(ServingSpec),
}

/// A workload cell: traffic source × offered loads × simulator profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Label printed in rows; defaults to the source's own name.
    pub label: Option<String>,
    pub source: WorkloadSource,
    /// Offered loads in flits/node/cycle.
    pub loads: Vec<f64>,
    pub sim: SimProfile,
}

impl WorkloadSpec {
    /// A pattern-driven workload over `loads` with a sim profile.
    pub fn new(pattern: TrafficPattern, loads: Vec<f64>, sim: SimProfile) -> Self {
        WorkloadSpec {
            label: None,
            source: WorkloadSource::Pattern(pattern),
            loads,
            sim,
        }
    }

    /// A trace-driven workload over `loads` with a sim profile.
    pub fn trace(trace: TraceSpec, loads: Vec<f64>, sim: SimProfile) -> Self {
        WorkloadSpec {
            label: None,
            source: WorkloadSource::Trace(trace),
            loads,
            sim,
        }
    }

    /// A lifetime-serving workload.  The load schedule comes from the
    /// serving horizon's own load process, so `loads` stays empty.
    pub fn serving(spec: ServingSpec, sim: SimProfile) -> Self {
        WorkloadSpec {
            label: None,
            source: WorkloadSource::Serving(spec),
            loads: Vec::new(),
            sim,
        }
    }

    /// Attach a row label.
    pub fn labeled(mut self, label: &str) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The traffic pattern of a pattern-driven workload.  Panics for
    /// trace-driven cells — figures that declare only pattern workloads
    /// use this accessor; trace-aware measurements match on
    /// [`WorkloadSpec::source`] instead.
    pub fn pattern(&self) -> &TrafficPattern {
        match &self.source {
            WorkloadSource::Pattern(pattern) => pattern,
            WorkloadSource::Trace(trace) => {
                panic!(
                    "workload {} is trace-driven, not pattern-driven",
                    trace.label()
                )
            }
            WorkloadSource::Serving(_) => {
                panic!("workload is serving-driven, not pattern-driven")
            }
        }
    }

    /// The trace spec of a trace-driven workload, if any.
    pub fn trace_spec(&self) -> Option<&TraceSpec> {
        match &self.source {
            WorkloadSource::Trace(trace) => Some(trace),
            _ => None,
        }
    }

    /// The serving spec of a serving-driven workload, if any.
    pub fn serving_spec(&self) -> Option<&ServingSpec> {
        match &self.source {
            WorkloadSource::Serving(spec) => Some(spec),
            _ => None,
        }
    }

    /// The label printed in rows.
    pub fn name(&self) -> String {
        self.label.clone().unwrap_or_else(|| match &self.source {
            WorkloadSource::Pattern(pattern) => pattern.name(),
            WorkloadSource::Trace(trace) => trace.label(),
            WorkloadSource::Serving(spec) => format!("serving{}", spec.epochs),
        })
    }

    /// Reject a workload no simulation can run: a non-finite or negative
    /// load, an empty load list on a pattern or trace workload, and an
    /// unknown trace model.  A serving workload schedules its own loads,
    /// so its list may be empty.
    fn check(&self) -> Result<(), String> {
        let name = self.name();
        if let Some(load) = self.loads.iter().find(|l| !l.is_finite() || **l < 0.0) {
            return Err(format!(
                "workload {name:?}: load {load} is not a finite non-negative number"
            ));
        }
        if self.loads.is_empty() && self.serving_spec().is_none() {
            return Err(format!("workload {name:?} has no loads"));
        }
        if let Some(trace) = self.trace_spec() {
            trace
                .check_model()
                .map_err(|e| format!("workload {name:?}: {e}"))?;
        }
        Ok(())
    }
}

/// A declarative invariant over the emitted rows, checked by the runner
/// after every cell has completed (figure-specific invariants that need
/// code stay in the harness's `check` hook).
#[derive(Debug, Clone, PartialEq)]
pub enum Assertion {
    /// At least `count` rows were emitted.
    MinRows { count: usize },
    /// Every value in `column` parses as a float strictly greater than 0.
    ColumnPositive { column: String },
    /// Every value in `column` is the literal `true`.
    ColumnAllTrue { column: String },
    /// Within every group keyed by `keys`, the `column` value of the row
    /// whose `pivot` column starts with `lesser` is strictly below the one
    /// whose `pivot` starts with `greater`.  Rows failing any
    /// `(column, value)` filter are ignored.
    GroupedLess {
        keys: Vec<String>,
        pivot: String,
        lesser: String,
        greater: String,
        column: String,
        filters: Vec<(String, String)>,
    },
}

/// A complete experiment matrix: the declarative half of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Figure name ("fig06_synthetic").
    pub name: String,
    pub layouts: Vec<LayoutSpec>,
    pub classes: Vec<LinkClass>,
    pub candidates: Vec<CandidateSpec>,
    /// When set, every candidate is evaluated once per scheme in the list
    /// instead of its default scheme (the routing-isolation study).
    pub scheme_override: Option<Vec<RoutingScheme>>,
    /// Workload cells; an empty list runs one analytic cell per candidate.
    pub workloads: Vec<WorkloadSpec>,
    pub assertions: Vec<Assertion>,
}

impl ExperimentSpec {
    /// A spec with no workloads or assertions for `name`.
    pub fn new(name: &str) -> Self {
        ExperimentSpec {
            name: name.into(),
            layouts: vec![LayoutSpec::Noi4x5],
            classes: LinkClass::STANDARD.to_vec(),
            candidates: Vec::new(),
            scheme_override: None,
            workloads: Vec::new(),
            assertions: Vec::new(),
        }
    }

    /// Check that the matrix can run, before any candidate is discovered:
    /// no axis is empty (an empty `layouts`, `classes`, `candidates` or
    /// `scheme_override` list runs no cell, and the run would pass with no
    /// rows), every expert name and synthesis objective resolves (known
    /// trace models, finite non-negative weights), and every workload's
    /// loads can be simulated.  The error names the spec and the empty
    /// axis, the candidate's index or the workload; an unknown name's error
    /// lists the known ones.
    pub fn check(&self) -> Result<(), String> {
        let axes = [
            ("layouts", self.layouts.is_empty()),
            ("classes", self.classes.is_empty()),
            ("candidates", self.candidates.is_empty()),
            (
                "scheme_override",
                self.scheme_override.as_ref().is_some_and(Vec::is_empty),
            ),
        ];
        if let Some((axis, _)) = axes.into_iter().find(|&(_, empty)| empty) {
            return Err(format!("{}: empty {axis} list runs no cell", self.name));
        }
        for (i, candidate) in self.candidates.iter().enumerate() {
            match candidate {
                CandidateSpec::Expert { name, .. } => check_expert_name(name),
                CandidateSpec::Synth { objective, .. } => objective.check().map(drop),
                CandidateSpec::ExpertBaselines => Ok(()),
            }
            .map_err(|e| format!("{}: candidate {i}: {e}", self.name))?;
        }
        for workload in &self.workloads {
            workload
                .check()
                .map_err(|e| format!("{}: {e}", self.name))?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn composite_objective_folds_shared_terms() {
        let layout = Layout::noi_4x5();
        let spec = ObjectiveSpec::Composite {
            parts: vec![(1.0, ObjectiveSpec::LatOp), (0.5, ObjectiveSpec::FaultOp)],
        };
        // LatOp contributes Hops(1.0) and FaultOp contributes Hops(0.5), so
        // the folded composite has a single Hops term of weight 1.5.
        let decomposition = spec.resolve(&layout).decomposition();
        let hops: Vec<_> = decomposition
            .iter()
            .filter(|wt| wt.term == netsmith::gen::Term::Hops)
            .collect();
        assert_eq!(hops.len(), 1);
        assert!((hops[0].weight - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_composite_that_passes_the_check_resolves() {
        // FaultOp's 1e5 articulation weight times 1e303 is 1e308, just
        // inside f64; LatOp and FaultOp share Hops, summed to 2e303.
        let layout = Layout::noi_4x5();
        let spec = ObjectiveSpec::Composite {
            parts: vec![
                (1e303, ObjectiveSpec::LatOp),
                (1e303, ObjectiveSpec::FaultOp),
            ],
        };
        spec.check().unwrap();
        let weights: Vec<f64> = spec
            .resolve(&layout)
            .decomposition()
            .iter()
            .map(|wt| wt.weight)
            .collect();
        assert_eq!(weights.len(), 3);
        for (weight, expected) in weights.into_iter().zip([2e303, 1e308, 4e304]) {
            assert!(
                (weight / expected - 1.0).abs() < 1e-12,
                "{weight} vs {expected}"
            );
        }
    }

    #[test]
    fn corner_composites_share_the_axis_decomposition() {
        // A pure corner resolves to exactly the axis objective's
        // decomposition — the property that makes corner discoveries cache
        // hits against the single-objective candidates.
        let layout = Layout::noi_4x5();
        let corner = ObjectiveSpec::Composite {
            parts: vec![(1.0, ObjectiveSpec::FaultOp)],
        };
        assert_eq!(
            corner.resolve(&layout).decomposition(),
            Objective::fault_op_default().decomposition()
        );
    }

    #[test]
    fn trace_objective_resolves_to_a_skewed_demand_matrix() {
        let layout = Layout::noi_4x5();
        let spec = ObjectiveSpec::TraceLatOp {
            trace: TraceSpec::generator("onoff-hotspot", 4_096, 11),
        };
        match spec.resolve(&layout) {
            Objective::PatternLatOp(demand) => {
                assert_eq!(demand.num_nodes(), 20);
                assert!((demand.total() - 1.0).abs() < 1e-9, "normalized demand");
                // The hotspot generator concentrates traffic on a few
                // destinations; uniform demand would give every column 5%.
                let max = (0..20)
                    .map(|d| (0..20).map(|s| demand.demand(s, d)).sum::<f64>())
                    .fold(0.0, f64::max);
                assert!(max > 0.15, "hottest destination draws {max}");
            }
            other => panic!("expected PatternLatOp, got {other:?}"),
        }
    }

    #[test]
    fn trace_spec_resolution_reports_failures() {
        assert!(TraceSpec::generator("no-such-model", 64, 0)
            .resolve(20)
            .unwrap_err()
            .contains("unknown trace model"));
        assert!(TraceSpec::File {
            path: "/nonexistent/trace.json".into()
        }
        .resolve(20)
        .unwrap_err()
        .contains("trace file"));
    }

    #[test]
    fn workload_names_cover_both_sources() {
        let pattern =
            WorkloadSpec::new(TrafficPattern::UniformRandom, vec![0.1], SimProfile::Quick);
        assert_eq!(pattern.name(), "uniform_random");
        assert!(pattern.trace_spec().is_none());
        let trace = WorkloadSpec::trace(
            TraceSpec::generator("pointer-chase", 1_024, 3),
            vec![0.1],
            SimProfile::Quick,
        );
        assert_eq!(trace.name(), "trace:pointer-chase");
        assert!(trace.trace_spec().is_some());
        let file = WorkloadSpec::trace(
            TraceSpec::File {
                path: "traces/parsec_x264.json".into(),
            },
            vec![0.1],
            SimProfile::Quick,
        );
        assert_eq!(file.name(), "trace:parsec_x264");
    }

    #[test]
    #[should_panic(expected = "trace-driven")]
    fn pattern_accessor_rejects_trace_workloads() {
        let w = WorkloadSpec::trace(
            TraceSpec::generator("pointer-chase", 1_024, 3),
            vec![0.1],
            SimProfile::Quick,
        );
        let _ = w.pattern();
    }

    /// The known-expert list every unknown-name error carries.
    pub(crate) const KNOWN_EXPERTS: &str = "known experts: mesh, folded-torus, kite-small, \
        kite-medium, kite-large, butter-donut, double-butterfly, lpbt-hops, lpbt-power";

    #[test]
    fn expert_names_resolve() {
        let layout = Layout::noi_4x5();
        for name in [
            "mesh",
            "folded-torus",
            "kite-small",
            "kite-medium",
            "kite-large",
            "butter-donut",
            "double-butterfly",
            "lpbt-hops",
            "lpbt-power",
        ] {
            expert_by_name(name, &layout).unwrap();
        }
        let err = expert_by_name("hypercube", &layout).unwrap_err();
        assert!(err.contains("\"hypercube\""), "{err}");
        assert!(err.contains(KNOWN_EXPERTS), "{err}");
    }

    /// A LatOp spec with each axis emptied in turn, named after the axis.
    pub(crate) fn specs_with_an_empty_axis() -> Vec<(&'static str, ExperimentSpec)> {
        let full = || {
            let mut spec = ExperimentSpec::new("empty_axis");
            spec.candidates = vec![CandidateSpec::synth(ObjectiveSpec::LatOp)];
            spec
        };
        let mut layouts = full();
        layouts.layouts.clear();
        let mut classes = full();
        classes.classes.clear();
        let mut candidates = full();
        candidates.candidates.clear();
        let mut schemes = full();
        schemes.scheme_override = Some(Vec::new());
        vec![
            ("layouts", layouts),
            ("classes", classes),
            ("candidates", candidates),
            ("scheme_override", schemes),
        ]
    }
}
