//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] names the *matrix* a figure evaluates — candidate
//! topologies (expert designs by name, or synthesis specs as objective
//! descriptions), workloads (a traffic pattern or a replayed trace ×
//! offered loads × simulator profile) and declarative assertions over the
//! emitted rows — as plain data.  Specs round-trip through JSON ([`ExperimentSpec::to_json_string`]
//! / [`ExperimentSpec::from_json_str`]) so a figure can be stored, diffed
//! and replayed; the figure-specific *measurement* (which columns a cell
//! produces) stays code, attached by the harness as a closure next to the
//! spec.

use crate::json::Json;
use netsmith::gen::Objective;
use netsmith::prelude::RoutingScheme;
use netsmith_sim::SimConfig;
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{expert, Layout, LinkClass, Topology};
use netsmith_trace::{generate_named, Trace, TraceStats};

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

    fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "4x5" => Ok(LayoutSpec::Noi4x5),
            "6x5" => Ok(LayoutSpec::Noi6x5),
            "8x6" => Ok(LayoutSpec::Noi8x6),
            other => Err(format!("unknown layout {other:?}")),
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
    /// unpreparable topology.
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
                // Fold by term so axes sharing a term (Hops appears in both
                // LatOp and FaultOp) collapse into one weighted entry.
                let mut terms: Vec<(f64, netsmith::gen::Term)> = Vec::new();
                for (scale, part) in parts {
                    for wt in part.resolve(layout).decomposition() {
                        match terms.iter_mut().find(|(_, t)| *t == wt.term) {
                            Some((w, _)) => *w += scale * wt.weight,
                            None => terms.push((scale * wt.weight, wt.term)),
                        }
                    }
                }
                Objective::composite(terms)
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            ObjectiveSpec::LatOp => Json::Str("lat-op".into()),
            ObjectiveSpec::SCOp => Json::Str("sc-op".into()),
            ObjectiveSpec::FaultOp => Json::Str("fault-op".into()),
            ObjectiveSpec::EnergyOp { edp_weight } => Json::Obj(vec![
                ("objective".into(), Json::Str("energy-op".into())),
                ("edp_weight".into(), Json::Num(*edp_weight)),
            ]),
            ObjectiveSpec::PatternLatOp { pattern } => Json::Obj(vec![
                ("objective".into(), Json::Str("pattern-lat-op".into())),
                ("pattern".into(), pattern_to_json(pattern)),
            ]),
            ObjectiveSpec::TraceLatOp { trace } => Json::Obj(vec![
                ("objective".into(), Json::Str("trace-lat-op".into())),
                ("trace".into(), trace.to_json()),
            ]),
            ObjectiveSpec::Composite { parts } => Json::Obj(vec![
                ("objective".into(), Json::Str("composite".into())),
                (
                    "parts".into(),
                    Json::Arr(
                        parts
                            .iter()
                            .map(|(w, o)| Json::Arr(vec![Json::Num(*w), o.to_json()]))
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        if let Ok(tag) = json.as_str() {
            return match tag {
                "lat-op" => Ok(ObjectiveSpec::LatOp),
                "sc-op" => Ok(ObjectiveSpec::SCOp),
                "fault-op" => Ok(ObjectiveSpec::FaultOp),
                other => Err(format!("unknown objective {other:?}")),
            };
        }
        match json.require("objective")?.as_str()? {
            "energy-op" => Ok(ObjectiveSpec::EnergyOp {
                edp_weight: json.require("edp_weight")?.as_f64()?,
            }),
            "pattern-lat-op" => Ok(ObjectiveSpec::PatternLatOp {
                pattern: pattern_from_json(json.require("pattern")?)?,
            }),
            "trace-lat-op" => Ok(ObjectiveSpec::TraceLatOp {
                trace: TraceSpec::from_json(json.require("trace")?)?,
            }),
            "composite" => {
                let mut parts = Vec::new();
                for item in json.require("parts")?.as_arr()? {
                    let pair = item.as_arr()?;
                    if pair.len() != 2 {
                        return Err("composite part must be [weight, objective]".into());
                    }
                    parts.push((pair[0].as_f64()?, ObjectiveSpec::from_json(&pair[1])?));
                }
                Ok(ObjectiveSpec::Composite { parts })
            }
            other => Err(format!("unknown objective {other:?}")),
        }
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

    fn to_json(&self) -> Json {
        match self {
            CandidateSpec::Expert { name, only_class } => {
                let mut members = vec![("expert".into(), Json::Str(name.clone()))];
                if let Some(class) = only_class {
                    members.push(("only_class".into(), Json::Str(class.name())));
                }
                Json::Obj(members)
            }
            CandidateSpec::ExpertBaselines => Json::Str("expert-baselines".into()),
            CandidateSpec::Synth {
                objective,
                symmetric,
            } => {
                let mut members = vec![("synth".into(), objective.to_json())];
                if *symmetric {
                    members.push(("symmetric".into(), Json::Bool(true)));
                }
                Json::Obj(members)
            }
        }
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        if let Ok(tag) = json.as_str() {
            return match tag {
                "expert-baselines" => Ok(CandidateSpec::ExpertBaselines),
                other => Err(format!("unknown candidate {other:?}")),
            };
        }
        if let Some(name) = json.get("expert") {
            let name = name.as_str()?;
            check_expert_name(name)?;
            return Ok(CandidateSpec::Expert {
                name: name.into(),
                only_class: match json.get("only_class") {
                    Some(class) => Some(class_from_name(class.as_str()?)?),
                    None => None,
                },
            });
        }
        if let Some(objective) = json.get("synth") {
            return Ok(CandidateSpec::Synth {
                objective: ObjectiveSpec::from_json(objective)?,
                symmetric: match json.get("symmetric") {
                    Some(flag) => flag.as_bool()?,
                    None => false,
                },
            });
        }
        Err(format!("unknown candidate {json:?}"))
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

    fn to_json(self) -> Json {
        match self {
            SimProfile::ClassDefault => Json::Str("class-default".into()),
            SimProfile::Quick => Json::Str("quick".into()),
            SimProfile::QuickClassClock => Json::Str("quick-class-clock".into()),
            SimProfile::ClassWithWindows {
                warmup,
                measure,
                drain,
            } => Json::Obj(vec![
                ("warmup".into(), Json::Num(warmup as f64)),
                ("measure".into(), Json::Num(measure as f64)),
                ("drain".into(), Json::Num(drain as f64)),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        if let Ok(tag) = json.as_str() {
            return match tag {
                "class-default" => Ok(SimProfile::ClassDefault),
                "quick" => Ok(SimProfile::Quick),
                "quick-class-clock" => Ok(SimProfile::QuickClassClock),
                other => Err(format!("unknown sim profile {other:?}")),
            };
        }
        Ok(SimProfile::ClassWithWindows {
            warmup: json.require("warmup")?.as_u64()?,
            measure: json.require("measure")?.as_u64()?,
            drain: json.require("drain")?.as_u64()?,
        })
    }
}

/// Where a trace workload's messages come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSpec {
    /// A trace file on disk: the `netsmith-trace` binary format, or the
    /// JSON encoding when the path ends in `.json`.
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
                let bytes = std::fs::read(path).map_err(|e| format!("trace file {path:?}: {e}"))?;
                let trace = if path.ends_with(".json") {
                    Trace::from_json_str(
                        std::str::from_utf8(&bytes)
                            .map_err(|e| format!("trace file {path:?}: {e}"))?,
                    )
                } else {
                    Trace::read_binary(&mut bytes.as_slice())
                }
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
                .ok_or_else(|| format!("unknown trace model {model:?}"))?,
        };
        trace.validate().map_err(|e| format!("trace: {e}"))?;
        Ok(trace)
    }

    fn to_json(&self) -> Json {
        match self {
            TraceSpec::File { path } => Json::Obj(vec![("file".into(), Json::Str(path.clone()))]),
            TraceSpec::Generator {
                model,
                horizon,
                seed,
            } => Json::Obj(vec![
                ("generator".into(), Json::Str(model.clone())),
                ("horizon".into(), Json::Num(*horizon as f64)),
                ("seed".into(), Json::Num(*seed as f64)),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(path) = json.get("file") {
            return Ok(TraceSpec::File {
                path: path.as_str()?.into(),
            });
        }
        if let Some(model) = json.get("generator") {
            return Ok(TraceSpec::Generator {
                model: model.as_str()?.into(),
                horizon: json.require("horizon")?.as_u64()?,
                seed: json.require("seed")?.as_u64()?,
            });
        }
        Err(format!("unknown trace spec {json:?}"))
    }
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

impl ServingSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("epochs".into(), Json::Num(self.epochs as f64)),
            ("period_epochs".into(), Json::Num(self.period_epochs as f64)),
            ("expected_faults".into(), Json::Num(self.expected_faults)),
            (
                "low_load_threshold".into(),
                Json::Num(self.low_load_threshold),
            ),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("tape_seed".into(), Json::Num(self.tape_seed as f64)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(ServingSpec {
            epochs: json.require("epochs")?.as_u64()?,
            period_epochs: json.require("period_epochs")?.as_u64()?,
            expected_faults: json.require("expected_faults")?.as_f64()?,
            low_load_threshold: json.require("low_load_threshold")?.as_f64()?,
            seed: json.require("seed")?.as_u64()?,
            tape_seed: json.require("tape_seed")?.as_u64()?,
        })
    }
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

    fn to_json(&self) -> Json {
        let mut members = Vec::new();
        if let Some(label) = &self.label {
            members.push(("label".into(), Json::Str(label.clone())));
        }
        match &self.source {
            WorkloadSource::Pattern(pattern) => {
                members.push(("pattern".into(), pattern_to_json(pattern)));
            }
            WorkloadSource::Trace(trace) => {
                members.push(("trace".into(), trace.to_json()));
            }
            WorkloadSource::Serving(spec) => {
                members.push(("serving".into(), spec.to_json()));
            }
        }
        members.push((
            "loads".into(),
            Json::Arr(self.loads.iter().map(|&l| Json::Num(l)).collect()),
        ));
        members.push(("sim".into(), self.sim.to_json()));
        Json::Obj(members)
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let source = match (json.get("pattern"), json.get("trace"), json.get("serving")) {
            (Some(pattern), None, None) => WorkloadSource::Pattern(pattern_from_json(pattern)?),
            (None, Some(trace), None) => WorkloadSource::Trace(TraceSpec::from_json(trace)?),
            (None, None, Some(spec)) => WorkloadSource::Serving(ServingSpec::from_json(spec)?),
            _ => {
                return Err(
                    "workload needs exactly one of \"pattern\", \"trace\" or \"serving\"".into(),
                )
            }
        };
        let workload = WorkloadSpec {
            label: match json.get("label") {
                Some(label) => Some(label.as_str()?.into()),
                None => None,
            },
            source,
            loads: json
                .require("loads")?
                .as_arr()?
                .iter()
                .map(|l| l.as_f64())
                .collect::<Result<_, _>>()?,
            sim: SimProfile::from_json(json.require("sim")?)?,
        };
        workload.check_loads()?;
        Ok(workload)
    }

    /// Reject offered loads no simulation can run: a non-finite or
    /// negative load (`1e999` parses to infinity), and an empty list on a
    /// pattern or trace workload.  A serving workload schedules its own
    /// loads, so its list may be empty.
    fn check_loads(&self) -> Result<(), String> {
        let name = self.name();
        if let Some(load) = self.loads.iter().find(|l| !l.is_finite() || **l < 0.0) {
            return Err(format!(
                "workload {name:?}: load {load} is not a finite non-negative number"
            ));
        }
        if self.loads.is_empty() && self.serving_spec().is_none() {
            return Err(format!("workload {name:?} has no loads"));
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

impl Assertion {
    fn to_json(&self) -> Json {
        match self {
            Assertion::MinRows { count } => {
                Json::Obj(vec![("min_rows".into(), Json::Num(*count as f64))])
            }
            Assertion::ColumnPositive { column } => {
                Json::Obj(vec![("column_positive".into(), Json::Str(column.clone()))])
            }
            Assertion::ColumnAllTrue { column } => {
                Json::Obj(vec![("column_all_true".into(), Json::Str(column.clone()))])
            }
            Assertion::GroupedLess {
                keys,
                pivot,
                lesser,
                greater,
                column,
                filters,
            } => Json::Obj(vec![(
                "grouped_less".into(),
                Json::Obj(vec![
                    (
                        "keys".into(),
                        Json::Arr(keys.iter().map(|k| Json::Str(k.clone())).collect()),
                    ),
                    ("pivot".into(), Json::Str(pivot.clone())),
                    ("lesser".into(), Json::Str(lesser.clone())),
                    ("greater".into(), Json::Str(greater.clone())),
                    ("column".into(), Json::Str(column.clone())),
                    (
                        "filters".into(),
                        Json::Arr(
                            filters
                                .iter()
                                .map(|(c, v)| {
                                    Json::Arr(vec![Json::Str(c.clone()), Json::Str(v.clone())])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )]),
        }
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(count) = json.get("min_rows") {
            return Ok(Assertion::MinRows {
                count: count.as_usize()?,
            });
        }
        if let Some(column) = json.get("column_positive") {
            return Ok(Assertion::ColumnPositive {
                column: column.as_str()?.into(),
            });
        }
        if let Some(column) = json.get("column_all_true") {
            return Ok(Assertion::ColumnAllTrue {
                column: column.as_str()?.into(),
            });
        }
        if let Some(body) = json.get("grouped_less") {
            let strings = |key: &str| -> Result<Vec<String>, String> {
                body.require(key)?
                    .as_arr()?
                    .iter()
                    .map(|s| s.as_str().map(String::from))
                    .collect()
            };
            let mut filters = Vec::new();
            for item in body.require("filters")?.as_arr()? {
                let pair = item.as_arr()?;
                if pair.len() != 2 {
                    return Err("filter must be [column, value]".into());
                }
                filters.push((pair[0].as_str()?.into(), pair[1].as_str()?.into()));
            }
            return Ok(Assertion::GroupedLess {
                keys: strings("keys")?,
                pivot: body.require("pivot")?.as_str()?.into(),
                lesser: body.require("lesser")?.as_str()?.into(),
                greater: body.require("greater")?.as_str()?.into(),
                column: body.require("column")?.as_str()?.into(),
                filters,
            });
        }
        Err(format!("unknown assertion {json:?}"))
    }
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

    /// Check that every named expert candidate resolves, so a bad name
    /// fails before any candidate is discovered.  The error names the
    /// spec, the candidate's index and the name, and lists the known
    /// experts.
    pub fn check_expert_names(&self) -> Result<(), String> {
        for (i, candidate) in self.candidates.iter().enumerate() {
            if let CandidateSpec::Expert { name, .. } = candidate {
                check_expert_name(name)
                    .map_err(|e| format!("{}: candidate {i}: {e}", self.name))?;
            }
        }
        Ok(())
    }

    /// Check that no axis of the matrix is empty: an empty `layouts`,
    /// `classes`, `candidates` or `scheme_override` list runs no cell, and
    /// the run would pass with no rows.  The error names the spec and the
    /// empty axis.
    pub fn check_axes(&self) -> Result<(), String> {
        let axes = [
            ("layouts", self.layouts.is_empty()),
            ("classes", self.classes.is_empty()),
            ("candidates", self.candidates.is_empty()),
            (
                "scheme_override",
                self.scheme_override.as_ref().is_some_and(Vec::is_empty),
            ),
        ];
        match axes.into_iter().find(|&(_, empty)| empty) {
            Some((axis, _)) => Err(format!("{}: empty {axis} list runs no cell", self.name)),
            None => Ok(()),
        }
    }

    /// Encode as a JSON document.
    pub fn to_json_string(&self) -> String {
        let mut members = vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "layouts".into(),
                Json::Arr(
                    self.layouts
                        .iter()
                        .map(|l| Json::Str(l.label().into()))
                        .collect(),
                ),
            ),
            (
                "classes".into(),
                Json::Arr(self.classes.iter().map(|c| Json::Str(c.name())).collect()),
            ),
            (
                "candidates".into(),
                Json::Arr(self.candidates.iter().map(|c| c.to_json()).collect()),
            ),
        ];
        if let Some(schemes) = &self.scheme_override {
            members.push((
                "scheme_override".into(),
                Json::Arr(
                    schemes
                        .iter()
                        .map(|s| Json::Str(s.label().into()))
                        .collect(),
                ),
            ));
        }
        members.push((
            "workloads".into(),
            Json::Arr(self.workloads.iter().map(|w| w.to_json()).collect()),
        ));
        members.push((
            "assertions".into(),
            Json::Arr(self.assertions.iter().map(|a| a.to_json()).collect()),
        ));
        Json::Obj(members).to_string()
    }

    /// Decode a JSON document produced by [`ExperimentSpec::to_json_string`].
    /// A document with an empty axis fails [`ExperimentSpec::check_axes`].
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let json = Json::parse(text)?;
        let mut layouts = Vec::new();
        for l in json.require("layouts")?.as_arr()? {
            layouts.push(LayoutSpec::from_label(l.as_str()?)?);
        }
        let mut classes = Vec::new();
        for c in json.require("classes")?.as_arr()? {
            classes.push(class_from_name(c.as_str()?)?);
        }
        let mut candidates = Vec::new();
        for (i, c) in json.require("candidates")?.as_arr()?.iter().enumerate() {
            candidates
                .push(CandidateSpec::from_json(c).map_err(|e| format!("candidate {i}: {e}"))?);
        }
        let scheme_override = match json.get("scheme_override") {
            None => None,
            Some(schemes) => {
                let mut out = Vec::new();
                for s in schemes.as_arr()? {
                    out.push(match s.as_str()? {
                        "MCLB" => RoutingScheme::Mclb,
                        "NDBT" => RoutingScheme::Ndbt,
                        other => return Err(format!("unknown scheme {other:?}")),
                    });
                }
                Some(out)
            }
        };
        let mut workloads = Vec::new();
        for w in json.require("workloads")?.as_arr()? {
            workloads.push(WorkloadSpec::from_json(w)?);
        }
        let mut assertions = Vec::new();
        for a in json.require("assertions")?.as_arr()? {
            assertions.push(Assertion::from_json(a)?);
        }
        let spec = ExperimentSpec {
            name: json.require("name")?.as_str()?.into(),
            layouts,
            classes,
            candidates,
            scheme_override,
            workloads,
            assertions,
        };
        spec.check_axes()?;
        Ok(spec)
    }
}

fn class_from_name(name: &str) -> Result<LinkClass, String> {
    match name {
        "small" => Ok(LinkClass::Small),
        "medium" => Ok(LinkClass::Medium),
        "large" => Ok(LinkClass::Large),
        other => Err(format!("unknown link class {other:?}")),
    }
}

fn pattern_to_json(pattern: &TrafficPattern) -> Json {
    match pattern {
        TrafficPattern::UniformRandom => Json::Str("uniform_random".into()),
        TrafficPattern::Shuffle => Json::Str("shuffle".into()),
        TrafficPattern::Transpose => Json::Str("transpose".into()),
        TrafficPattern::Memory => Json::Str("memory".into()),
        TrafficPattern::Coherence => Json::Str("coherence".into()),
        TrafficPattern::BitComplement => Json::Str("bit_complement".into()),
        TrafficPattern::Tornado => Json::Str("tornado".into()),
        TrafficPattern::Hotspot { targets, fraction } => Json::Obj(vec![
            (
                "hotspot".into(),
                Json::Arr(targets.iter().map(|&t| Json::Num(t as f64)).collect()),
            ),
            ("fraction".into(), Json::Num(*fraction)),
        ]),
    }
}

fn pattern_from_json(json: &Json) -> Result<TrafficPattern, String> {
    if let Ok(tag) = json.as_str() {
        return match tag {
            "uniform_random" => Ok(TrafficPattern::UniformRandom),
            "shuffle" => Ok(TrafficPattern::Shuffle),
            "transpose" => Ok(TrafficPattern::Transpose),
            "memory" => Ok(TrafficPattern::Memory),
            "coherence" => Ok(TrafficPattern::Coherence),
            "bit_complement" => Ok(TrafficPattern::BitComplement),
            "tornado" => Ok(TrafficPattern::Tornado),
            other => Err(format!("unknown traffic pattern {other:?}")),
        };
    }
    Ok(TrafficPattern::Hotspot {
        targets: json
            .require("hotspot")?
            .as_arr()?
            .iter()
            .map(|t| t.as_usize())
            .collect::<Result<_, _>>()?,
        fraction: json.require("fraction")?.as_f64()?,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "fig_test".into(),
            layouts: vec![LayoutSpec::Noi4x5, LayoutSpec::Noi8x6],
            classes: vec![LinkClass::Medium, LinkClass::Large],
            candidates: vec![
                CandidateSpec::ExpertBaselines,
                CandidateSpec::expert_in("mesh", LinkClass::Small),
                CandidateSpec::synth(ObjectiveSpec::LatOp),
                CandidateSpec::Synth {
                    objective: ObjectiveSpec::Composite {
                        parts: vec![
                            (1.0, ObjectiveSpec::LatOp),
                            (0.25, ObjectiveSpec::EnergyOp { edp_weight: 5.0 }),
                        ],
                    },
                    symmetric: true,
                },
                CandidateSpec::synth(ObjectiveSpec::PatternLatOp {
                    pattern: TrafficPattern::Shuffle,
                }),
                CandidateSpec::synth(ObjectiveSpec::TraceLatOp {
                    trace: TraceSpec::generator("onoff-hotspot", 4_096, 11),
                }),
            ],
            scheme_override: Some(vec![RoutingScheme::Ndbt, RoutingScheme::Mclb]),
            workloads: vec![
                WorkloadSpec::new(
                    TrafficPattern::UniformRandom,
                    vec![0.05, 0.3],
                    SimProfile::QuickClassClock,
                )
                .labeled("coherence"),
                WorkloadSpec::new(
                    TrafficPattern::Hotspot {
                        targets: vec![2, 17],
                        fraction: 0.6,
                    },
                    vec![0.02],
                    SimProfile::ClassWithWindows {
                        warmup: 500,
                        measure: 3_000,
                        drain: 1_500,
                    },
                ),
                WorkloadSpec::trace(
                    TraceSpec::generator("pointer-chase", 2_048, 7),
                    vec![0.05, 0.1],
                    SimProfile::Quick,
                ),
                WorkloadSpec::trace(
                    TraceSpec::File {
                        path: "traces/parsec_x264.nstr".into(),
                    },
                    vec![0.08],
                    SimProfile::QuickClassClock,
                )
                .labeled("x264"),
            ],
            assertions: vec![
                Assertion::MinRows { count: 4 },
                Assertion::ColumnPositive {
                    column: "latency_ns".into(),
                },
                Assertion::GroupedLess {
                    keys: vec!["class".into(), "topology".into()],
                    pivot: "policy".into(),
                    lesser: "link_sleep".into(),
                    greater: "always_on".into(),
                    column: "total_mw".into(),
                    filters: vec![("load".into(), "0.02".into())],
                },
            ],
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = sample_spec();
        let text = spec.to_json_string();
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
    }

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
            path: "/nonexistent/trace.nstr".into()
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
                path: "traces/parsec_x264.nstr".into(),
            },
            vec![0.1],
            SimProfile::Quick,
        );
        assert_eq!(file.name(), "trace:parsec_x264");
    }

    /// Decode `workload` after replacing its JSON `loads` array with
    /// `loads`.
    fn decode_with_loads(workload: &WorkloadSpec, loads: &str) -> Result<WorkloadSpec, String> {
        let text = workload.to_json().to_string();
        let start = text.find("\"loads\":[").expect("loads member") + "\"loads\":".len();
        let end = start + text[start..].find(']').expect("loads array end") + 1;
        let text = format!("{}{loads}{}", &text[..start], &text[end..]);
        WorkloadSpec::from_json(&Json::parse(&text)?)
    }

    fn pattern_workload() -> WorkloadSpec {
        WorkloadSpec::new(TrafficPattern::Shuffle, vec![0.1], SimProfile::Quick).labeled("hot")
    }

    #[test]
    fn workload_decoding_keeps_valid_loads() {
        let workload = pattern_workload();
        assert_eq!(decode_with_loads(&workload, "[0.1]"), Ok(workload.clone()));
        assert_eq!(
            decode_with_loads(&workload, "[0, 0.5]").unwrap().loads,
            vec![0.0, 0.5]
        );
    }

    #[test]
    fn workload_decoding_rejects_a_non_finite_load() {
        let err = decode_with_loads(&pattern_workload(), "[0.1, 1e999]").unwrap_err();
        assert!(err.contains("\"hot\"") && err.contains("inf"), "{err}");
        let err = decode_with_loads(&pattern_workload(), "[-1e999]").unwrap_err();
        assert!(err.contains("\"hot\"") && err.contains("-inf"), "{err}");
    }

    #[test]
    fn workload_decoding_rejects_a_negative_load() {
        let err = decode_with_loads(&pattern_workload(), "[0.1, -0.05]").unwrap_err();
        assert!(err.contains("\"hot\"") && err.contains("-0.05"), "{err}");
    }

    #[test]
    fn workload_decoding_rejects_an_empty_pattern_load_list() {
        let err = decode_with_loads(&pattern_workload(), "[]").unwrap_err();
        assert!(err.contains("\"hot\" has no loads"), "{err}");
    }

    #[test]
    fn workload_decoding_rejects_an_empty_trace_load_list() {
        let trace = WorkloadSpec::trace(
            TraceSpec::generator("pointer-chase", 1_024, 3),
            vec![0.1],
            SimProfile::Quick,
        );
        let err = decode_with_loads(&trace, "[]").unwrap_err();
        assert!(
            err.contains("\"trace:pointer-chase\" has no loads"),
            "{err}"
        );
    }

    #[test]
    fn serving_workloads_decode_without_loads() {
        let serving = WorkloadSpec::serving(
            ServingSpec {
                epochs: 32,
                period_epochs: 16,
                expected_faults: 1.0,
                low_load_threshold: 0.12,
                seed: 5,
                tape_seed: 6,
            },
            SimProfile::Quick,
        );
        assert_eq!(decode_with_loads(&serving, "[]"), Ok(serving));
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

    #[test]
    fn unknown_expert_names_fail_to_decode() {
        let mut spec = ExperimentSpec::new("bad_expert");
        spec.candidates = vec![
            CandidateSpec::synth(ObjectiveSpec::LatOp),
            CandidateSpec::expert("hypercube"),
        ];
        let err = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap_err();
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

    #[test]
    fn empty_axes_fail_to_decode() {
        let mut spec = ExperimentSpec::new("full");
        spec.candidates = vec![CandidateSpec::synth(ObjectiveSpec::LatOp)];
        ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        for (axis, spec) in specs_with_an_empty_axis() {
            let err = ExperimentSpec::from_json_str(&spec.to_json_string())
                .expect_err(&format!("an empty {axis} list must not decode"));
            assert!(err.contains(&format!("empty_axis: empty {axis} ")), "{err}");
        }
    }
}
