//! The experiment runner: candidate resolution through the suite cache,
//! parallel cell execution, declarative assertion checking.

use crate::cache::{DiscoveryRequest, SuiteCache};
use crate::cli::RunProfile;
use crate::row::{OutputMode, Row};
use crate::spec::{
    expert_by_name, Assertion, CandidateSpec, ExperimentSpec, LayoutSpec, WorkloadSpec,
};
use netsmith::gen::{DiscoveryResult, GenerationProblem};
use netsmith::pipeline::{EvaluatedNetwork, RoutingScheme};
use netsmith_obs::Obs;
use netsmith_pool::WorkerPool;
use netsmith_sim::SimConfig;
use netsmith_topo::{expert, Layout, LinkClass, PipelineError, Topology};
use std::sync::{Arc, OnceLock};

/// The paper's virtual-channel budget, shared by every figure.
pub const VC_BUDGET: usize = 6;

/// A candidate instantiated for one (layout, class) cell of the matrix,
/// with its routed/allocated network prepared lazily and shared across
/// every workload cell that touches it.
#[derive(Clone)]
pub struct ResolvedCandidate {
    pub layout_spec: LayoutSpec,
    pub layout: Layout,
    pub class: LinkClass,
    pub scheme: RoutingScheme,
    pub topology: Arc<Topology>,
    /// Present for synthesized candidates (progress traces, bounds, gaps).
    pub discovery: Option<Arc<DiscoveryResult>>,
    /// The objective spec a synthesized candidate was resolved from, so
    /// measurements never have to reconstruct it from cell indices.
    pub objective: Option<crate::spec::ObjectiveSpec>,
    prepare_seed: u64,
    #[allow(clippy::type_complexity)]
    prepared: Arc<OnceLock<Result<Arc<EvaluatedNetwork>, PipelineError>>>,
}

impl ResolvedCandidate {
    /// The routed, VC-allocated network; prepared on first use and shared.
    /// The typed error names why preparation failed.
    fn try_network(&self) -> Result<Arc<EvaluatedNetwork>, PipelineError> {
        self.prepared
            .get_or_init(|| {
                EvaluatedNetwork::prepare(&self.topology, self.scheme, VC_BUDGET, self.prepare_seed)
                    .map(Arc::new)
            })
            .clone()
    }

    /// The prepared network, panicking with the typed error's message when
    /// the candidate cannot be served (figures treat that as fatal, exactly
    /// like the legacy binaries did).
    pub fn network(&self) -> Arc<EvaluatedNetwork> {
        self.try_network()
            .unwrap_or_else(|e| panic!("{} cannot be prepared: {e}", self.topology.name()))
    }
}

/// One executable cell: a resolved candidate crossed with a workload (or
/// with nothing, for analytic figures).  Cells borrow the runner so
/// measurements can resolve auxiliary candidates through the same cache.
pub struct Cell<'r> {
    pub runner: &'r Runner<'r>,
    pub candidate: ResolvedCandidate,
    pub workload: Option<WorkloadSpec>,
    /// Index of the candidate in the resolved candidate list.
    pub candidate_index: usize,
    /// Index of the workload in the spec (0 when the spec has none).
    pub workload_index: usize,
}

impl Cell<'_> {
    pub fn profile(&self) -> &RunProfile {
        &self.runner.profile
    }

    /// The runner's instrumentation handle, so measurements can emit
    /// domain-specific events (the trace figure publishes per-epoch
    /// simulator time-series through this).
    pub fn obs(&self) -> &Obs {
        &self.runner.obs
    }

    /// The workload's simulator configuration for this cell's class.
    pub fn sim_config(&self) -> SimConfig {
        self.workload
            .as_ref()
            .expect("cell has no workload")
            .sim
            .resolve(self.candidate.class)
    }
}

/// How candidate × workload cells are ordered (and therefore how rows are
/// grouped in the output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellOrder {
    /// All workloads of a candidate together (the default).
    #[default]
    CandidateMajor,
    /// All candidates of a workload together (the synthetic-traffic
    /// figures group by traffic class first).
    WorkloadMajor,
}

/// A figure: the declarative spec plus the measurement and (optional)
/// post-processing / invariant code the spec cannot express.
pub struct Figure {
    pub spec: ExperimentSpec,
    /// The exact CSV header (held stable across the port of the legacy
    /// binaries; guarded by a golden-header test).
    pub header: String,
    pub output: OutputMode,
    pub cell_order: CellOrder,
    /// Measure one cell into zero or more rows.
    #[allow(clippy::type_complexity)]
    pub measure: Box<dyn Fn(&Cell<'_>) -> Vec<Row> + Send + Sync>,
    /// Whole-output pass run after all cells (cross-row columns such as a
    /// Pareto-front flag).
    #[allow(clippy::type_complexity)]
    pub postprocess: Option<Box<dyn Fn(&mut Vec<Row>) + Send + Sync>>,
    /// Figure-specific invariants that need code; declarative invariants
    /// belong in `spec.assertions`.
    #[allow(clippy::type_complexity)]
    pub check: Option<Box<dyn Fn(&RunOutput, &Runner<'_>) -> Result<(), String> + Send + Sync>>,
}

impl Figure {
    /// A CSV figure with default ordering and no extra hooks.
    pub fn new(
        spec: ExperimentSpec,
        header: &str,
        measure: impl Fn(&Cell<'_>) -> Vec<Row> + Send + Sync + 'static,
    ) -> Self {
        Figure {
            spec,
            header: header.into(),
            output: OutputMode::Csv,
            cell_order: CellOrder::CandidateMajor,
            measure: Box::new(measure),
            postprocess: None,
            check: None,
        }
    }

    pub fn with_order(mut self, order: CellOrder) -> Self {
        self.cell_order = order;
        self
    }

    pub fn with_output(mut self, output: OutputMode) -> Self {
        self.output = output;
        self
    }

    pub fn with_postprocess(
        mut self,
        postprocess: impl Fn(&mut Vec<Row>) + Send + Sync + 'static,
    ) -> Self {
        self.postprocess = Some(Box::new(postprocess));
        self
    }

    pub fn with_check(
        mut self,
        check: impl Fn(&RunOutput, &Runner<'_>) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.check = Some(Box::new(check));
        self
    }
}

/// The collected result of running one figure.
pub struct RunOutput {
    pub name: String,
    pub header: String,
    pub rows: Vec<Row>,
    pub candidates: Vec<ResolvedCandidate>,
}

impl RunOutput {
    /// Index of a header column.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.header.split(',').position(|c| c == name)
    }

    /// Rendered value of a row's column.
    pub fn value(&self, row: usize, column: &str) -> Option<String> {
        let idx = self.column(column)?;
        self.rows.get(row)?.columns().into_iter().nth(idx)
    }

    /// A row's column parsed as a float.
    pub fn float(&self, row: usize, column: &str) -> Option<f64> {
        self.value(row, column)?.parse().ok()
    }
}

/// Executes figures against a shared profile and candidate cache.
pub struct Runner<'c> {
    pub profile: RunProfile,
    pub cache: &'c SuiteCache,
    /// Maximum cells measured concurrently.
    pub parallelism: usize,
    /// Instrumentation handle: every measured cell runs under a `cell`
    /// span, and measurements reach it through [`Cell::obs`].
    pub obs: Obs,
}

impl<'c> Runner<'c> {
    pub fn new(profile: RunProfile, cache: &'c SuiteCache) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 8);
        Runner {
            profile,
            cache,
            parallelism,
            obs: Obs::noop(),
        }
    }

    /// Attach an instrumentation handle (defaults to the no-op handle).
    /// Usually the same handle the [`SuiteCache`] was built with, so cache
    /// counters, annealer spans and cell spans share one recorder.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Resolve a synthesis candidate through the suite cache (the same path
    /// spec candidates take; exposed so measurements can resolve auxiliary
    /// candidates such as a symmetric-links twin).
    pub fn resolve_synth(
        &self,
        layout_spec: LayoutSpec,
        class: LinkClass,
        objective: &crate::spec::ObjectiveSpec,
        symmetric: bool,
    ) -> ResolvedCandidate {
        let layout = layout_spec.layout();
        let request = DiscoveryRequest {
            layout: layout.clone(),
            layout_label: layout_spec.label().into(),
            class,
            objective: objective.resolve(&layout),
            symmetric,
            seed: self.profile.seed,
            evaluations: self.profile.evals,
            workers: self.profile.workers,
        };
        let discovery = self.cache.discover(&request);
        // A cache hit may come from another objective with the same
        // decomposition; name the candidate after this request, as an
        // uncached discovery would, so output never depends on run order.
        let name = GenerationProblem::new(request.layout, class, request.objective).topology_name();
        ResolvedCandidate {
            layout_spec,
            layout,
            class,
            scheme: RoutingScheme::Mclb,
            topology: Arc::new(discovery.topology.clone().with_name(name)),
            discovery: Some(discovery),
            objective: Some(objective.clone()),
            prepare_seed: self.profile.seed,
            prepared: Arc::new(OnceLock::new()),
        }
    }

    /// Resolve an expert candidate (no discovery, NDBT routing).
    fn resolve_expert(
        &self,
        layout_spec: LayoutSpec,
        class: LinkClass,
        topology: Topology,
    ) -> ResolvedCandidate {
        ResolvedCandidate {
            layout_spec,
            layout: layout_spec.layout(),
            class,
            scheme: RoutingScheme::Ndbt,
            topology: Arc::new(topology),
            discovery: None,
            objective: None,
            prepare_seed: self.profile.seed,
            prepared: Arc::new(OnceLock::new()),
        }
    }

    /// Expand a spec's candidate matrix into resolved candidates, in
    /// (layout, class, candidate, scheme) order.
    fn resolve_candidates(&self, spec: &ExperimentSpec) -> Result<Vec<ResolvedCandidate>, String> {
        let mut resolved = Vec::new();
        for &layout_spec in &spec.layouts {
            let layout = layout_spec.layout();
            for &class in &spec.classes {
                for candidate in &spec.candidates {
                    let base: Vec<ResolvedCandidate> = match candidate {
                        CandidateSpec::Expert { name, only_class } => {
                            if only_class.is_some_and(|c| c != class) {
                                continue;
                            }
                            vec![self.resolve_expert(
                                layout_spec,
                                class,
                                expert_by_name(name, &layout)?,
                            )]
                        }
                        CandidateSpec::ExpertBaselines => {
                            expert::baselines_for_class(&layout, class)
                                .into_iter()
                                .map(|t| self.resolve_expert(layout_spec, class, t))
                                .collect()
                        }
                        CandidateSpec::Synth {
                            objective,
                            symmetric,
                        } => {
                            vec![self.resolve_synth(layout_spec, class, objective, *symmetric)]
                        }
                    };
                    match &spec.scheme_override {
                        None => resolved.extend(base),
                        Some(schemes) => {
                            for candidate in base {
                                for &scheme in schemes {
                                    let mut rerouted = candidate.clone();
                                    rerouted.scheme = scheme;
                                    // A different scheme is a different
                                    // preparation; drop the shared slot.
                                    rerouted.prepared = Arc::new(OnceLock::new());
                                    resolved.push(rerouted);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(resolved)
    }

    /// Run a figure: check its spec, resolve its candidates,
    /// execute every cell (in parallel, deterministic row order),
    /// post-process.  Assertions are *not* checked here — the CLI emits
    /// rows first, then verifies, so a failing run still prints its data
    /// like the legacy binaries did.
    pub fn run(&self, figure: &Figure) -> Result<RunOutput, String> {
        // Resolution discovers synthesized candidates in order: a spec
        // that cannot run must fail before any annealer runs.
        figure.spec.check()?;
        let candidates = self.resolve_candidates(&figure.spec)?;

        // Build the cell list in the figure's grouping order.
        let mut cells: Vec<(usize, usize)> = Vec::new(); // (candidate, workload)
        let workload_count = figure.spec.workloads.len().max(1);
        match figure.cell_order {
            CellOrder::CandidateMajor => {
                for c in 0..candidates.len() {
                    for w in 0..workload_count {
                        cells.push((c, w));
                    }
                }
            }
            CellOrder::WorkloadMajor => {
                for w in 0..workload_count {
                    for c in 0..candidates.len() {
                        cells.push((c, w));
                    }
                }
            }
        }

        let measure_cell = |c: usize, w: usize| -> Vec<Row> {
            let cell = Cell {
                runner: self,
                candidate: candidates[c].clone(),
                workload: figure.spec.workloads.get(w).cloned(),
                candidate_index: c,
                workload_index: w,
            };
            let mut span = self.obs.span("cell");
            let rows = (figure.measure)(&cell);
            span.attr("figure", figure.spec.name.as_str());
            span.attr("candidate", c as u64);
            span.attr("workload", w as u64);
            span.attr("rows", rows.len() as u64);
            span.close();
            rows
        };
        let mut row_groups: Vec<Vec<Row>> = Vec::with_capacity(cells.len());
        for batch in cells.chunks(self.parallelism.max(1)) {
            let batch_rows: Vec<Vec<Row>> = WorkerPool::global().run(
                batch
                    .iter()
                    .map(|&(c, w)| {
                        let measure_cell = &measure_cell;
                        Box::new(move || measure_cell(c, w))
                            as Box<dyn FnOnce() -> Vec<Row> + Send + '_>
                    })
                    .collect(),
            );
            row_groups.extend(batch_rows);
        }
        let mut rows: Vec<Row> = row_groups.into_iter().flatten().collect();
        if let Some(postprocess) = &figure.postprocess {
            postprocess(&mut rows);
        }
        Ok(RunOutput {
            name: figure.spec.name.clone(),
            header: figure.header.clone(),
            rows,
            candidates,
        })
    }

    /// Check the spec's declarative assertions, then the figure's code
    /// check.
    pub fn verify(&self, figure: &Figure, output: &RunOutput) -> Result<(), String> {
        check_assertions(output, &figure.spec.assertions)?;
        if let Some(check) = &figure.check {
            check(output, self)?;
        }
        Ok(())
    }
}

/// Evaluate declarative assertions against an output's rendered rows.
fn check_assertions(output: &RunOutput, assertions: &[Assertion]) -> Result<(), String> {
    let columns: Vec<&str> = output.header.split(',').collect();
    let index = |name: &str| -> Result<usize, String> {
        columns
            .iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("{}: no column {name:?}", output.name))
    };
    let rendered: Vec<Vec<String>> = output.rows.iter().map(|r| r.columns()).collect();
    for assertion in assertions {
        match assertion {
            Assertion::MinRows { count } => {
                if rendered.len() < *count {
                    return Err(format!(
                        "{}: expected at least {count} rows, got {}",
                        output.name,
                        rendered.len()
                    ));
                }
            }
            Assertion::ColumnPositive { column } => {
                let idx = index(column)?;
                for (i, row) in rendered.iter().enumerate() {
                    let value: f64 = row[idx]
                        .parse()
                        .map_err(|_| format!("{}: row {i} {column}={:?}", output.name, row[idx]))?;
                    if value <= 0.0 {
                        return Err(format!(
                            "{}: row {i} has non-positive {column} = {value}",
                            output.name
                        ));
                    }
                }
            }
            Assertion::ColumnAllTrue { column } => {
                let idx = index(column)?;
                for (i, row) in rendered.iter().enumerate() {
                    if row[idx] != "true" {
                        return Err(format!(
                            "{}: row {i} has {column} = {:?}, expected true",
                            output.name, row[idx]
                        ));
                    }
                }
            }
            Assertion::GroupedLess {
                keys,
                pivot,
                lesser,
                greater,
                column,
                filters,
            } => {
                let key_idx: Vec<usize> =
                    keys.iter().map(|k| index(k)).collect::<Result<_, _>>()?;
                let pivot_idx = index(pivot)?;
                let value_idx = index(column)?;
                let filter_idx: Vec<(usize, &String)> = filters
                    .iter()
                    .map(|(c, v)| Ok((index(c)?, v)))
                    .collect::<Result<_, String>>()?;
                use std::collections::HashMap;
                let mut groups: HashMap<Vec<&str>, (Vec<f64>, Vec<f64>)> = HashMap::new();
                for row in &rendered {
                    if filter_idx.iter().any(|&(idx, v)| &row[idx] != v) {
                        continue;
                    }
                    let key: Vec<&str> = key_idx.iter().map(|&i| row[i].as_str()).collect();
                    let value: f64 = row[value_idx].parse().map_err(|_| {
                        format!("{}: unparsable {column} {:?}", output.name, row[value_idx])
                    })?;
                    let entry = groups.entry(key).or_default();
                    if row[pivot_idx].starts_with(lesser.as_str()) {
                        entry.0.push(value);
                    } else if row[pivot_idx].starts_with(greater.as_str()) {
                        entry.1.push(value);
                    }
                }
                if groups.is_empty() {
                    return Err(format!(
                        "{}: grouped_less on {column} matched no rows",
                        output.name
                    ));
                }
                for (key, (lo, hi)) in &groups {
                    if lo.is_empty() || hi.is_empty() {
                        return Err(format!(
                            "{}: group {key:?} is missing a {lesser:?} or {greater:?} row",
                            output.name
                        ));
                    }
                    let worst_lo = lo.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let best_hi = hi.iter().copied().fold(f64::INFINITY, f64::min);
                    if worst_lo >= best_hi {
                        return Err(format!(
                            "{}: group {key:?}: {lesser} {column} {worst_lo} is not below {greater} {best_hi}",
                            output.name
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ObjectiveSpec, ServingSpec, SimProfile, TraceSpec};
    use netsmith_topo::traffic::TrafficPattern;

    #[test]
    fn synth_names_come_from_the_request_not_the_cache_entry() {
        // A composite with LatOp's decomposition shares LatOp's cache entry;
        // each candidate is still named after the objective it asked for.
        let profile = RunProfile {
            evals: 400,
            workers: 1,
            ..RunProfile::default()
        };
        let cache = SuiteCache::new();
        let runner = Runner::new(profile, &cache);
        let resolve = |objective: &ObjectiveSpec| {
            runner.resolve_synth(LayoutSpec::Noi4x5, LinkClass::Medium, objective, false)
        };
        let latop = resolve(&ObjectiveSpec::LatOp);
        let mix = resolve(&ObjectiveSpec::Composite {
            parts: vec![(1.0, ObjectiveSpec::LatOp)],
        });
        assert_eq!(cache.discoveries(), 1);
        assert_eq!(latop.topology.adjacency(), mix.topology.adjacency());
        assert_eq!(latop.topology.name(), "NS-LatOp-medium");
        assert_eq!(mix.topology.name(), "NS-Mix[1xHops]-medium");
    }

    /// Run `spec` with a measurement that emits nothing and return the
    /// error it fails with, asserting that no candidate was discovered.
    fn fails_before_any_discovery(spec: ExperimentSpec) -> String {
        let cache = SuiteCache::new();
        let runner = Runner::new(RunProfile::quick(), &cache);
        let figure = Figure::new(spec, "topology", |_: &Cell<'_>| Vec::new());
        let err = runner.run(&figure).err().expect("the spec must fail");
        assert_eq!(cache.discoveries(), 0, "{err}");
        assert_eq!(cache.references(), 0, "{err}");
        err
    }

    /// Run `spec` with a measurement that emits nothing; it must pass.
    fn runs(spec: ExperimentSpec) {
        let cache = SuiteCache::new();
        let runner = Runner::new(RunProfile::quick(), &cache);
        runner
            .run(&Figure::new(spec, "topology", |_: &Cell<'_>| Vec::new()))
            .unwrap();
    }

    /// One workload after a synthesized candidate, which a check made after
    /// resolution would already have discovered.
    fn latop_spec_with(workload: WorkloadSpec) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new("bad_workload");
        spec.candidates = vec![CandidateSpec::synth(ObjectiveSpec::LatOp)];
        spec.workloads = vec![workload];
        spec
    }

    /// A mesh-only spec, which resolves without any discovery.
    fn mesh_spec_with(workload: WorkloadSpec) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new("mesh_workload");
        spec.classes = vec![LinkClass::Medium];
        spec.candidates = vec![CandidateSpec::expert("mesh")];
        spec.workloads = vec![workload];
        spec
    }

    fn hot_workload(loads: Vec<f64>) -> WorkloadSpec {
        WorkloadSpec::new(TrafficPattern::Shuffle, loads, SimProfile::Quick).labeled("hot")
    }

    #[test]
    fn unknown_expert_fails_before_any_discovery() {
        let mut spec = ExperimentSpec::new("bad_expert");
        spec.candidates = vec![
            CandidateSpec::synth(ObjectiveSpec::LatOp),
            CandidateSpec::expert("hypercube"),
        ];
        let err = fails_before_any_discovery(spec);
        assert!(err.contains("bad_expert: candidate 1"), "{err}");
        assert!(err.contains("\"hypercube\""), "{err}");
        assert!(err.contains(crate::spec::tests::KNOWN_EXPERTS), "{err}");
    }

    #[test]
    fn empty_axis_fails_before_any_discovery() {
        for (axis, spec) in crate::spec::tests::specs_with_an_empty_axis() {
            let err = fails_before_any_discovery(spec);
            assert!(err.contains(&format!("empty_axis: empty {axis} ")), "{err}");
        }
    }

    #[test]
    fn unknown_trace_model_fails_before_any_discovery() {
        let bad = || TraceSpec::generator("no-such-model", 64, 0);
        let known = "(known models: pointer-chase, onoff-hotspot)";
        let mut direct = ExperimentSpec::new("bad_trace");
        direct.candidates = vec![
            CandidateSpec::synth(ObjectiveSpec::LatOp),
            CandidateSpec::synth(ObjectiveSpec::TraceLatOp { trace: bad() }),
        ];
        let mut nested = direct.clone();
        nested.candidates[1] = CandidateSpec::synth(ObjectiveSpec::Composite {
            parts: vec![
                (1.0, ObjectiveSpec::LatOp),
                (0.5, ObjectiveSpec::TraceLatOp { trace: bad() }),
            ],
        });
        for spec in [direct, nested] {
            let err = fails_before_any_discovery(spec);
            assert!(
                err.contains("bad_trace: candidate 1: unknown trace model \"no-such-model\""),
                "{err}"
            );
            assert!(err.contains(known), "{err}");
        }
        let workload = WorkloadSpec::trace(bad(), vec![0.1], SimProfile::Quick);
        let err = fails_before_any_discovery(latop_spec_with(workload));
        assert!(
            err.contains("bad_workload: workload \"trace:no-such-model\": unknown trace model"),
            "{err}"
        );
        assert!(err.contains(known), "{err}");
    }

    #[test]
    fn bad_objective_weights_fail_before_any_discovery() {
        let composite = |parts| ObjectiveSpec::Composite { parts };
        let energy = |edp_weight| ObjectiveSpec::EnergyOp { edp_weight };
        let not_a_weight = "is not a finite non-negative number";
        for (objective, expected) in [
            (
                composite(vec![
                    (1.0, ObjectiveSpec::LatOp),
                    (-0.5, ObjectiveSpec::FaultOp),
                ]),
                "composite scale -0.5",
            ),
            (
                composite(vec![(
                    1.0,
                    composite(vec![(f64::NAN, ObjectiveSpec::LatOp)]),
                )]),
                "composite scale NaN",
            ),
            (energy(-1.0), "EnergyOp edp_weight -1"),
            (
                composite(vec![(0.5, energy(f64::INFINITY))]),
                "EnergyOp edp_weight inf",
            ),
        ] {
            let mut spec = ExperimentSpec::new("bad_weight");
            spec.candidates = vec![
                CandidateSpec::synth(ObjectiveSpec::LatOp),
                CandidateSpec::synth(objective),
            ];
            let err = fails_before_any_discovery(spec);
            let expected = format!("bad_weight: candidate 1: {expected} {not_a_weight}");
            assert!(err.contains(&expected), "{err}");
        }
        let mut spec = ExperimentSpec::new("no_parts");
        spec.candidates = vec![CandidateSpec::synth(composite(vec![(
            1.0,
            composite(Vec::new()),
        )]))];
        let err = fails_before_any_discovery(spec);
        assert!(
            err.contains("no_parts: candidate 0: composite objective has no parts"),
            "{err}"
        );
    }

    #[test]
    fn overflowing_composite_weights_fail_before_any_discovery() {
        let composite = |parts| ObjectiveSpec::Composite { parts };
        let shuffle = || ObjectiveSpec::PatternLatOp {
            pattern: TrafficPattern::Shuffle,
        };
        for (objective, expected) in [
            // FaultOp's 1e5 articulation weight times the scale.
            (
                composite(vec![(1e304, ObjectiveSpec::FaultOp)]),
                "weight of Crit folds to inf",
            ),
            // Nested scales multiply through.
            (
                composite(vec![(
                    1e200,
                    composite(vec![(1e200, ObjectiveSpec::LatOp)]),
                )]),
                "weight of Hops folds to inf",
            ),
            // Shared terms sum: LatOp's and FaultOp's Hops, and one
            // pattern's demand-weighted hops twice.
            (
                composite(vec![
                    (1e308, ObjectiveSpec::LatOp),
                    (1e308, ObjectiveSpec::FaultOp),
                ]),
                "weight of Hops folds to inf",
            ),
            (
                composite(vec![(1e308, shuffle()), (1e308, shuffle())]),
                "weight of PatHops folds to inf",
            ),
        ] {
            let mut spec = ExperimentSpec::new("overflow");
            spec.candidates = vec![
                CandidateSpec::synth(ObjectiveSpec::LatOp),
                CandidateSpec::synth(objective),
            ];
            let err = fails_before_any_discovery(spec);
            let expected =
                format!("overflow: candidate 1: composite {expected}, which is not finite");
            assert!(err.contains(&expected), "{err}");
        }
    }

    #[test]
    fn valid_loads_pass_the_check() {
        runs(mesh_spec_with(hot_workload(vec![0.1])));
        runs(mesh_spec_with(hot_workload(vec![0.0, 0.5])));
    }

    #[test]
    fn a_non_finite_load_fails_before_any_discovery() {
        for (load, printed) in [
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::NAN, "NaN"),
        ] {
            let err = fails_before_any_discovery(latop_spec_with(hot_workload(vec![0.1, load])));
            let expected = format!("bad_workload: workload \"hot\": load {printed} is not");
            assert!(err.contains(&expected), "{err}");
        }
    }

    #[test]
    fn a_negative_load_fails_before_any_discovery() {
        let err = fails_before_any_discovery(latop_spec_with(hot_workload(vec![0.1, -0.05])));
        assert!(
            err.contains("bad_workload: workload \"hot\": load -0.05 is not"),
            "{err}"
        );
    }

    #[test]
    fn an_empty_pattern_load_list_fails_before_any_discovery() {
        let err = fails_before_any_discovery(latop_spec_with(hot_workload(Vec::new())));
        assert!(
            err.contains("bad_workload: workload \"hot\" has no loads"),
            "{err}"
        );
    }

    #[test]
    fn an_empty_trace_load_list_fails_before_any_discovery() {
        let trace = TraceSpec::generator("pointer-chase", 1_024, 3);
        let workload = WorkloadSpec::trace(trace, Vec::new(), SimProfile::Quick);
        let err = fails_before_any_discovery(latop_spec_with(workload));
        assert!(
            err.contains("workload \"trace:pointer-chase\" has no loads"),
            "{err}"
        );
    }

    #[test]
    fn a_serving_workload_without_loads_passes_the_check() {
        let serving = ServingSpec {
            epochs: 32,
            period_epochs: 16,
            expected_faults: 1.0,
            low_load_threshold: 0.12,
            seed: 5,
            tape_seed: 6,
        };
        runs(mesh_spec_with(WorkloadSpec::serving(
            serving,
            SimProfile::Quick,
        )));
    }
}
