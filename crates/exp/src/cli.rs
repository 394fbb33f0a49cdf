//! The command-line entry point of the experiment suite.
//!
//! `suite [FIGURE...]` runs the named registered figures, in the order
//! given, or every registered figure when no name is given.  It accepts
//! these flags in any position:
//!
//! * `--quick` — the CI smoke matrix (small discovery budget, reduced
//!   classes/loads/windows as declared by the figure's quick spec).
//! * `--json` — emit rows as JSON Lines instead of CSV.
//! * `--seed N` — override the harness seed (changes every discovery and
//!   routing seed coherently).
//! * `--obs FILE.jsonl` — record the run's instrumentation (spans,
//!   counters, simulator time-series) to a JSON-Lines event log, plus a
//!   `FILE.manifest.json` run manifest; env fallback `NETSMITH_OBS`.
//!
//! Budget configuration flows through [`RunProfile`] with the historical
//! `NETSMITH_EVALS` / `NETSMITH_WORKERS` environment variables as
//! fallbacks, so scripted runs keep working while tests construct profiles
//! directly instead of mutating process-global state.  A value that does
//! not parse stops the suite with exit code 2.

use crate::cache::SuiteCache;
use crate::row::emit;
use crate::runner::{Figure, Runner};
use crate::spec::CandidateSpec;
use netsmith_obs::{JsonlRecorder, Obs};
use netsmith_pool::WorkerPool;
use netsmith_topo::json::Json;
use std::path::{Path, PathBuf};

/// Deterministic seed shared by the harness so repeated runs reproduce the
/// same topologies (and so every figure's candidates share cache entries).
pub const DEFAULT_SEED: u64 = 20_240_402;

/// Per-worker annealing budget used by `--quick` runs.
const QUICK_EVALS: u64 = 1_500;

/// Worker count used by `--quick` runs.
const QUICK_WORKERS: usize = 2;

/// Search-budget and mode configuration for a run.  Construct directly in
/// tests; CLI entry points build it from flags with env fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProfile {
    /// Per-worker annealing evaluation budget.
    pub evals: u64,
    /// Parallel annealing workers per discovery.
    pub workers: usize,
    /// Base seed for discovery, routing and VC allocation.
    pub seed: u64,
    /// Whether the quick (CI smoke) matrix was requested.
    pub quick: bool,
}

impl Default for RunProfile {
    fn default() -> Self {
        RunProfile {
            evals: 30_000,
            workers: 4,
            seed: DEFAULT_SEED,
            quick: false,
        }
    }
}

impl RunProfile {
    /// The default profile with `NETSMITH_EVALS` / `NETSMITH_WORKERS`
    /// applied when set.  A value that does not parse is an error naming
    /// the variable and the value.
    fn from_env() -> Result<Self, String> {
        let mut profile = RunProfile::default();
        if let Some(evals) = env_number("NETSMITH_EVALS")? {
            profile.evals = evals;
        }
        if let Some(workers) = env_number("NETSMITH_WORKERS")? {
            profile.workers = workers;
        }
        Ok(profile)
    }

    /// The CI smoke profile: fixed small budget regardless of environment.
    pub fn quick() -> Self {
        RunProfile {
            evals: QUICK_EVALS,
            workers: QUICK_WORKERS,
            quick: true,
            ..RunProfile::default()
        }
    }
}

/// Environment variable `name` parsed as a number, or `None` when unset.
fn env_number<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
    let Some(value) = std::env::var_os(name) else {
        return Ok(None);
    };
    match value.to_str().map(str::parse) {
        Some(Ok(number)) => Ok(Some(number)),
        _ => Err(format!("invalid {name} value {value:?}")),
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    pub profile: RunProfile,
    /// Emit JSON Lines instead of CSV.
    pub json: bool,
    /// Instrumentation event-log path (`--obs`, env fallback
    /// `NETSMITH_OBS`); `None` leaves the run unobserved.
    pub obs_path: Option<PathBuf>,
    /// Figure names given as positional arguments, in order; empty runs
    /// the whole registry.
    pub figures: Vec<String>,
}

impl CliOptions {
    /// Parse `--quick` / `--json` / `--seed N` / `--obs PATH` and
    /// positional figure names from an argument list (without the program
    /// name).  Names are checked against the registry when the suite runs.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut profile = RunProfile::from_env()?;
        let mut json = false;
        let mut obs_path = None;
        let mut figures = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    profile.quick = true;
                    profile.evals = QUICK_EVALS;
                    profile.workers = QUICK_WORKERS;
                }
                "--json" => json = true,
                "--seed" => {
                    let value = args.next().ok_or("--seed requires a value")?;
                    profile.seed = value
                        .parse()
                        .map_err(|_| format!("invalid --seed value {value:?}"))?;
                }
                "--obs" => {
                    let value = args.next().ok_or("--obs requires a path")?;
                    obs_path = Some(PathBuf::from(value));
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown argument {other:?}"))
                }
                name => figures.push(name.to_string()),
            }
        }
        let obs_path = obs_path.or_else(|| std::env::var_os("NETSMITH_OBS").map(PathBuf::from));
        Ok(CliOptions {
            profile,
            json,
            obs_path,
            figures,
        })
    }

    /// The instrumentation handle for this invocation: a JSON-Lines sink
    /// when `--obs` (or `NETSMITH_OBS`) names a path, the no-op handle
    /// otherwise.
    fn obs(&self) -> Obs {
        match &self.obs_path {
            None => Obs::noop(),
            Some(path) => match JsonlRecorder::create(path) {
                Ok(recorder) => Obs::to(recorder),
                Err(e) => {
                    eprintln!("error: cannot create obs event log {}: {e}", path.display());
                    std::process::exit(2);
                }
            },
        }
    }
}

/// Does a spec reference at least one synthesized candidate?
fn references_synth(figure: &Figure) -> bool {
    figure
        .spec
        .candidates
        .iter()
        .any(|c| matches!(c, CandidateSpec::Synth { .. }))
}

/// One figure's summary entry in the run manifest.
struct FigureRecord {
    name: String,
    rows: usize,
    seconds: f64,
    status: &'static str,
}

/// The manifest path derived from an event-log path: `run.jsonl` →
/// `run.manifest.json`.
fn manifest_path(event_log: &Path) -> PathBuf {
    event_log.with_extension("manifest.json")
}

/// Build the run manifest: invocation parameters, per-figure outcomes,
/// cache accounting and the aggregated span/counter totals.
fn build_manifest(
    options: &CliOptions,
    figures: &[FigureRecord],
    cache: &SuiteCache,
    snapshot: &netsmith_obs::MetricsSnapshot,
) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    Json::Obj(vec![
        ("command".into(), Json::Str("suite".into())),
        ("seed".into(), num(options.profile.seed)),
        ("evals".into(), num(options.profile.evals)),
        ("workers".into(), num(options.profile.workers as u64)),
        ("quick".into(), Json::Bool(options.profile.quick)),
        (
            "figures".into(),
            Json::Arr(
                figures
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(f.name.clone())),
                            ("rows".into(), num(f.rows as u64)),
                            ("seconds".into(), Json::Num(f.seconds)),
                            ("status".into(), Json::Str(f.status.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cache".into(),
            Json::Obj(vec![
                ("discoveries".into(), num(cache.discoveries() as u64)),
                ("references".into(), num(cache.references() as u64)),
            ]),
        ),
        (
            "counters".into(),
            Json::Obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v)))
                    .collect(),
            ),
        ),
        (
            "spans".into(),
            Json::Obj(
                snapshot
                    .spans
                    .iter()
                    .map(|(k, s)| {
                        (
                            k.clone(),
                            Json::Obj(vec![
                                ("count".into(), num(s.count)),
                                ("total_us".into(), num(s.total_us)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Re-read and parse both artifacts, proving the run left a complete,
/// machine-readable account: every event-log line parses, every figure has
/// a closed span, the manifest lists every figure, and (for whole-registry
/// runs) at least one simulator time-series was captured.
fn verify_artifacts(
    event_log: &Path,
    manifest: &Path,
    figures: &[FigureRecord],
    require_series: bool,
) -> Result<(), String> {
    let text = std::fs::read_to_string(event_log)
        .map_err(|e| format!("cannot re-read {}: {e}", event_log.display()))?;
    let mut closed_spans = std::collections::HashSet::new();
    let mut series = 0usize;
    for (i, line) in text.lines().enumerate() {
        let json = Json::parse(line)
            .map_err(|e| format!("{}:{}: unparsable event: {e}", event_log.display(), i + 1))?;
        let field = |key: &str| {
            json.require(key)
                .and_then(Json::as_str)
                .map_err(|e| format!("{}:{}: {e}", event_log.display(), i + 1))
        };
        match field("ev")? {
            "span_close" => {
                closed_spans.insert(field("name")?.to_string());
            }
            "series" => series += 1,
            _ => {}
        }
    }
    for figure in figures {
        if !closed_spans.contains(&figure.name) {
            return Err(format!(
                "event log {} has no span for figure {}",
                event_log.display(),
                figure.name
            ));
        }
    }
    if require_series && series == 0 {
        return Err(format!(
            "event log {} captured no simulator time-series",
            event_log.display()
        ));
    }
    let manifest_text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot re-read {}: {e}", manifest.display()))?;
    let parsed = Json::parse(&manifest_text)
        .map_err(|e| format!("{}: unparsable manifest: {e}", manifest.display()))?;
    let listed = parsed
        .require("figures")
        .and_then(Json::as_arr)
        .map_err(|e| format!("{}: {e}", manifest.display()))?
        .len();
    if listed != figures.len() {
        return Err(format!(
            "{} lists {listed} figures, expected {}",
            manifest.display(),
            figures.len()
        ));
    }
    Ok(())
}

/// Finalize an observed run: publish the worker pool's counters, flush the
/// sink (which appends every counter total), check the obs counters against
/// the cache's own accounting, write the manifest, and self-verify both
/// artifacts.  A no-op when the run is unobserved.
fn finish_obs(
    options: &CliOptions,
    obs: &Obs,
    cache: &SuiteCache,
    figures: &[FigureRecord],
    require_series: bool,
) -> Result<(), String> {
    let Some(event_log) = &options.obs_path else {
        return Ok(());
    };
    let stats = WorkerPool::global().stats();
    obs.add("pool.batches", stats.batches);
    obs.add("pool.tasks", stats.tasks);
    obs.add("pool.queue_wait_us", stats.queue_wait_us);
    obs.flush();
    let snapshot = obs.snapshot().expect("an observed run has a recorder");
    let hits = snapshot.counter("cache.hits") as usize;
    let misses = snapshot.counter("cache.misses") as usize;
    if misses != cache.discoveries() || hits + misses != cache.references() {
        return Err(format!(
            "obs counters disagree with cache accounting: {hits} hits + {misses} misses \
             vs {} discoveries / {} references",
            cache.discoveries(),
            cache.references()
        ));
    }
    let manifest = manifest_path(event_log);
    let doc = build_manifest(options, figures, cache, &snapshot);
    std::fs::write(&manifest, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", manifest.display()))?;
    verify_artifacts(event_log, &manifest, figures, require_series)?;
    eprintln!(
        "# obs: event log {} + manifest {} (verified)",
        event_log.display(),
        manifest.display()
    );
    Ok(())
}

/// A named figure constructor, as registered in a suite.
pub type FigureEntry = (&'static str, fn(&RunProfile) -> Figure);

/// The registry entries a run asks for: every entry when `names` is empty,
/// otherwise the named entries in the order given.  An unknown or repeated
/// name is an error that lists the registered figures.
fn select(registry: &[FigureEntry], names: &[String]) -> Result<Vec<FigureEntry>, String> {
    if names.is_empty() {
        return Ok(registry.to_vec());
    }
    let mut selected: Vec<FigureEntry> = Vec::with_capacity(names.len());
    for name in names {
        let problem = match registry.iter().find(|(n, _)| n == name) {
            None => "unknown",
            Some(_) if selected.iter().any(|(n, _)| n == name) => "repeated",
            Some(&entry) => {
                selected.push(entry);
                continue;
            }
        };
        let registered: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "{problem} figure {name:?}; registered figures: {}",
            registered.join(", ")
        ));
    }
    Ok(selected)
}

/// Report a command-line error with the usage line and exit with code 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: suite [--quick] [--json] [--seed N] [--obs FILE.jsonl] [FIGURE...]");
    std::process::exit(2);
}

/// Run the figures named on the command line (every registered figure when
/// none is named) against one shared cache.  Prints each figure's CSV
/// (section-prefixed) to stdout and verifies every declared assertion.  A
/// whole-registry run also fails unless the shared candidate cache
/// demonstrably collapsed discovery work (total discovery invocations <
/// number of figure specs referencing synthesized candidates).
pub fn run_suite(registry: &[FigureEntry]) {
    let options =
        CliOptions::parse(std::env::args().skip(1)).unwrap_or_else(|message| usage_error(&message));
    let selected =
        select(registry, &options.figures).unwrap_or_else(|message| usage_error(&message));
    let whole_registry = options.figures.is_empty();
    let obs = options.obs();
    let cache = SuiteCache::new().with_obs(obs.clone());
    let runner = Runner::new(options.profile, &cache).with_obs(obs.clone());
    let mut failures: Vec<String> = Vec::new();
    let mut records: Vec<FigureRecord> = Vec::new();
    let mut synth_specs = 0usize;
    let started = std::time::Instant::now();
    for (name, build) in &selected {
        let figure = build(&runner.profile);
        if references_synth(&figure) {
            synth_specs += 1;
        }
        let figure_started = std::time::Instant::now();
        let mut span = obs.span(name);
        let outcome = runner.run(&figure);
        let mut record = FigureRecord {
            name: name.to_string(),
            rows: 0,
            seconds: 0.0,
            status: "failed",
        };
        match outcome {
            Ok(output) => {
                span.attr("rows", output.rows.len() as u64);
                span.close();
                record.rows = output.rows.len();
                println!("# figure: {name}");
                emit(&output.header, &output.rows, figure.output, options.json);
                if let Err(message) = runner.verify(&figure, &output) {
                    eprintln!("# {name}: ASSERTION FAILED: {message}");
                    failures.push(format!("{name}: {message}"));
                } else {
                    record.status = "ok";
                    eprintln!(
                        "# {name}: ok ({} rows, {:.1}s)",
                        output.rows.len(),
                        figure_started.elapsed().as_secs_f64()
                    );
                }
            }
            Err(message) => {
                eprintln!("# {name}: RUN FAILED: {message}");
                failures.push(format!("{name}: {message}"));
            }
        }
        record.seconds = figure_started.elapsed().as_secs_f64();
        records.push(record);
    }
    eprintln!(
        "# suite: {} figures in {:.1}s; candidate cache: {} discoveries / {} references \
         across {synth_specs} synth-referencing specs",
        selected.len(),
        started.elapsed().as_secs_f64(),
        cache.discoveries(),
        cache.references()
    );
    // The cache-effectiveness invariant is defined on the quick matrix of
    // the whole registry: full runs sweep more classes/layouts, so their
    // distinct-key count legitimately exceeds the spec count, and two named
    // figures with disjoint candidates share nothing.
    if whole_registry
        && options.profile.quick
        && synth_specs > 1
        && cache.discoveries() >= synth_specs
    {
        failures.push(format!(
            "candidate cache ineffective: {} discoveries for {synth_specs} synth-referencing specs",
            cache.discoveries()
        ));
    }
    if let Err(message) = finish_obs(&options, &obs, &cache, &records, whole_registry) {
        eprintln!("# suite: OBS FAILED: {message}");
        failures.push(format!("obs: {message}"));
    }
    if !failures.is_empty() {
        eprintln!("# suite: {} failure(s)", failures.len());
        for failure in &failures {
            eprintln!("#   {failure}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_handles_all_flags() {
        let options = CliOptions::parse(
            ["--quick", "--json", "--seed", "42", "--obs", "run.jsonl"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert!(options.profile.quick);
        assert!(options.json);
        assert_eq!(options.profile.seed, 42);
        assert_eq!(options.profile.evals, QUICK_EVALS);
        assert_eq!(options.profile.workers, QUICK_WORKERS);
        assert_eq!(options.obs_path, Some(PathBuf::from("run.jsonl")));
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(CliOptions::parse(["--fast".to_string()]).is_err());
        assert!(CliOptions::parse(["--seed".to_string()]).is_err());
        assert!(CliOptions::parse(["--seed".to_string(), "x".to_string()]).is_err());
        assert!(CliOptions::parse(["--obs".to_string()]).is_err());
    }

    #[test]
    fn parse_collects_figure_names_in_order_among_flags() {
        let options = CliOptions::parse(
            [
                "fig14_pareto",
                "--quick",
                "fig04_topology",
                "--seed",
                "3",
                "table02_metrics",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            options.figures,
            ["fig14_pareto", "fig04_topology", "table02_metrics"]
        );
        assert!(options.profile.quick);
        assert_eq!(options.profile.seed, 3);
        assert!(CliOptions::parse(["--quick".to_string()])
            .unwrap()
            .figures
            .is_empty());
    }

    fn unbuilt(_: &RunProfile) -> Figure {
        unreachable!("selection never builds a figure")
    }

    const REGISTRY: &[FigureEntry] = &[("alpha", unbuilt), ("beta", unbuilt), ("gamma", unbuilt)];

    fn selected_names(names: &[&str]) -> Result<Vec<&'static str>, String> {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        select(REGISTRY, &names).map(|entries| entries.iter().map(|(n, _)| *n).collect())
    }

    #[test]
    fn select_keeps_the_registry_or_the_named_order() {
        assert_eq!(selected_names(&[]).unwrap(), ["alpha", "beta", "gamma"]);
        assert_eq!(
            selected_names(&["gamma", "alpha"]).unwrap(),
            ["gamma", "alpha"]
        );
    }

    #[test]
    fn select_rejects_an_unknown_name_listing_the_registry() {
        let message = selected_names(&["beta", "delta"]).unwrap_err();
        assert!(message.contains("unknown figure \"delta\""), "{message}");
        assert!(message.contains("alpha, beta, gamma"), "{message}");
    }

    #[test]
    fn select_rejects_a_repeated_name_listing_the_registry() {
        let message = selected_names(&["beta", "alpha", "beta"]).unwrap_err();
        assert!(message.contains("repeated figure \"beta\""), "{message}");
        assert!(message.contains("alpha, beta, gamma"), "{message}");
    }

    #[test]
    fn manifest_path_swaps_the_extension() {
        assert_eq!(
            manifest_path(Path::new("out/run.jsonl")),
            PathBuf::from("out/run.manifest.json")
        );
    }

    #[test]
    fn profile_defaults_are_sane_without_env() {
        // Reads (never mutates) the environment: defaults apply when the
        // variables are unset, and any value present must parse into the
        // profile unchanged.
        let profile = RunProfile::from_env().expect("budget variables parse when set");
        assert!(profile.evals > 0);
        assert!(profile.workers >= 1);
        assert_eq!(profile.seed, DEFAULT_SEED);
        assert!(!profile.quick);
    }
}
