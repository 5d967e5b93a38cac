//! The experiment engine: one `Experiment` trait behind every driver.
//!
//! Historically each figure/table of the paper had its own binary with a
//! copy of the same scaffolding — parse flags, load the topology, run,
//! hand-format a table, hand-write CSV/JSON, write a manifest. This
//! module is that scaffolding, written once:
//!
//! * [`Experiment`] — a named, self-describing driver that turns a
//!   [`RunContext`] into structured [`Artifact`]s. Drivers never print
//!   tables or touch the filesystem; the engine renders every artifact
//!   exactly once through the shared sinks in [`crate::output`].
//! * [`RunContext`] — the resolved topology, a fresh telemetry
//!   [`Registry`], per-run seed streams via [`derive_seed`], and a
//!   process-wide [`DeploymentCache`] of built [`Splicing`] deployments,
//!   so a sweep builds each `(topology, config, seed)` deployment exactly
//!   once.
//! * [`run_experiment`] / [`run_all`] — the engine: configure, resolve,
//!   run, sink artifacts, stamp a schema-versioned [`RunManifest`].
//!   `run_all` additionally journals every completed experiment as a
//!   seed-stamped JSONL *shard* under the output directory, so an
//!   interrupted sweep resumes by skipping completed shards.
//!
//! Cache hits/misses are recorded in every manifest
//! (`"deployment_cache"`), which is how the exactly-once property is
//! checked in CI rather than merely asserted.

use crate::output::{artifact_to_terminal, write_artifact, write_text, Artifact, ArtifactError};
use crate::reliability::SpliceSemantics;
use splice_core::perturb::Perturbation;
use splice_core::slices::{Splicing, SplicingConfig};
use splice_core::strategy::StrategyKind;
use splice_graph::Graph;
use splice_telemetry::{FlightRecorder, JsonArray, JsonObject, Registry, Span};
use splice_topology::{Topology, TopologyError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version stamped into every manifest and shard header. Bump when the
/// manifest or shard layout changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Flight-recorder depth per run: enough to hold every repair trigger
/// and span closure of a full default sweep without wrapping.
pub const FLIGHT_CAPACITY: usize = 4096;

/// The flags shared by every experiment:
/// `[--trials N] [--seed N] [--topology NAME] [--out DIR] [--semantics union|directed]
/// [--strategy NAME] [--listen ADDR] [--linger-secs N]`.
pub const USAGE_FLAGS: &str = "[--trials N] [--seed N] [--topology NAME] [--out DIR] \
     [--semantics union|directed] [--strategy perturbed-spf|tree|lst|arc] \
     [--listen ADDR] [--linger-secs N]";

/// Why the shared experiment flags failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag that takes a value appeared last.
    MissingValue {
        /// The offending flag.
        flag: String,
    },
    /// A value did not parse or is out of range.
    BadValue {
        /// The offending flag.
        flag: String,
        /// The value as given.
        value: String,
        /// What was wrong with it.
        reason: String,
    },
    /// An unrecognized flag.
    UnknownFlag {
        /// The offending flag.
        flag: String,
    },
    /// `--help` was requested; callers print usage and exit 0.
    Help,
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingValue { flag } => write!(f, "missing value for {flag}"),
            ArgsError::BadValue {
                flag,
                value,
                reason,
            } => write!(f, "bad {flag} {value:?}: {reason}"),
            ArgsError::UnknownFlag { flag } => {
                write!(f, "unknown argument {flag:?} (try --help)")
            }
            ArgsError::Help => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// The shared experiment flags as parsed: `trials` stays `None` until an
/// experiment fills in its own default via [`LabArgs::configure`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabArgs {
    /// `--trials`, if given (experiments default it per-driver).
    pub trials: Option<usize>,
    /// `--seed` (default 20080817, SIGCOMM 2008's opening day).
    pub seed: u64,
    /// `--topology` (default `sprint`): a built-in map or a generator
    /// spec, resolved by [`splice_topology::resolve`].
    pub topology: String,
    /// `--out` (default `results`).
    pub out: PathBuf,
    /// `--semantics` (default `union`): `union` or `directed`.
    pub semantics: String,
    /// `--strategy` (default perturbed-SPF): the slice-construction
    /// strategy experiments that honor it build their deployments with.
    pub strategy: StrategyKind,
    /// `--listen`, if given: serve `/metrics`, `/healthz` and
    /// `/snapshot` on this address for the duration of the run (port
    /// `0` picks an ephemeral port, printed at startup).
    pub listen: Option<String>,
    /// `--linger-secs` (default 0): keep the scrape endpoint up this
    /// many seconds after the run finishes, so a scraper can collect
    /// the final state of a short run.
    pub linger_secs: u64,
}

impl Default for LabArgs {
    fn default() -> LabArgs {
        LabArgs {
            trials: None,
            seed: 20080817,
            topology: "sprint".into(),
            out: PathBuf::from("results"),
            semantics: "union".into(),
            strategy: StrategyKind::PerturbedSpf,
            listen: None,
            linger_secs: 0,
        }
    }
}

impl LabArgs {
    /// Parse the shared flags from `argv` (binary name already stripped).
    pub fn parse(argv: &[String]) -> Result<LabArgs, ArgsError> {
        let mut args = LabArgs::default();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].clone();
            let value = || -> Result<&String, ArgsError> {
                argv.get(i + 1)
                    .ok_or(ArgsError::MissingValue { flag: flag.clone() })
            };
            let number = |v: &str| -> Result<u64, ArgsError> {
                v.parse::<u64>().map_err(|e| ArgsError::BadValue {
                    flag: flag.clone(),
                    value: v.to_string(),
                    reason: e.to_string(),
                })
            };
            match argv[i].as_str() {
                "--trials" => args.trials = Some(number(value()?)? as usize),
                "--seed" => args.seed = number(value()?)?,
                "--topology" => args.topology = value()?.clone(),
                "--out" => args.out = PathBuf::from(value()?),
                "--semantics" => {
                    let v = value()?.clone();
                    if v != "union" && v != "directed" {
                        return Err(ArgsError::BadValue {
                            flag,
                            value: v,
                            reason: "must be union or directed".into(),
                        });
                    }
                    args.semantics = v;
                }
                "--strategy" => {
                    let v = value()?.clone();
                    args.strategy = StrategyKind::parse(&v).ok_or_else(|| ArgsError::BadValue {
                        flag: flag.clone(),
                        value: v,
                        reason: "must be perturbed-spf, tree, lst or arc".into(),
                    })?;
                }
                "--listen" => args.listen = Some(value()?.clone()),
                "--linger-secs" => args.linger_secs = number(value()?)?,
                "--help" | "-h" => return Err(ArgsError::Help),
                other => {
                    return Err(ArgsError::UnknownFlag {
                        flag: other.to_string(),
                    })
                }
            }
            i += 2;
        }
        Ok(args)
    }

    /// Fix the trial count, producing the run's final configuration.
    pub fn configure(&self, default_trials: usize) -> RunConfig {
        RunConfig {
            trials: self.trials.unwrap_or(default_trials),
            seed: self.seed,
            topology: self.topology.clone(),
            out: self.out.clone(),
            semantics: self.semantics.clone(),
            strategy: self.strategy,
        }
    }
}

/// One experiment's fully-resolved configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Topology name or generator spec.
    pub topology: String,
    /// Output directory for artifacts.
    pub out: PathBuf,
    /// Spliced-path semantics: "union" (the paper's accounting) or
    /// "directed" (operationally exact forwarding reachability).
    pub semantics: String,
    /// Slice-construction strategy for experiments that honor it.
    pub strategy: StrategyKind,
}

impl RunConfig {
    /// Output path for an artifact of this run.
    pub fn artifact(&self, name: &str) -> PathBuf {
        self.out.join(name)
    }

    /// The selected splice-path semantics as the simulator's enum.
    pub fn splice_semantics(&self) -> SpliceSemantics {
        match self.semantics.as_str() {
            "directed" => SpliceSemantics::Directed,
            _ => SpliceSemantics::UnionGraph,
        }
    }
}

/// Hit/miss snapshot of a [`DeploymentCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Deployments served from the cache.
    pub hits: u64,
    /// Deployments built (first sighting of their key).
    pub misses: u64,
}

/// A cache of built [`Splicing`] deployments keyed by
/// `(topology, splicing-config, build-seed)`.
///
/// Slice construction is the expensive step shared across experiments —
/// several drivers build the *same* degree-based deployment over the
/// same topology at the same seed. Within one `run-all` sweep the cache
/// makes that build happen exactly once; the `Arc` hands the immutable
/// deployment to every consumer. The config key is the perturbation's
/// own [`Perturbation::label`], so two configs collide only when they
/// build bit-identical slices.
pub struct DeploymentCache {
    entries: Mutex<HashMap<(String, String, u64), Arc<Splicing>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for DeploymentCache {
    fn default() -> DeploymentCache {
        DeploymentCache::new()
    }
}

/// Lookups and inserts cannot panic, so the lock is never poisoned.
const CACHE_LOCK: &str = "deployment cache lock poisoned";

fn config_key(cfg: &SplicingConfig) -> String {
    format!(
        "k={};{};base={};strategy={}",
        cfg.k,
        cfg.perturbation.label(),
        cfg.include_base_slice,
        cfg.strategy.name()
    )
}

impl DeploymentCache {
    /// An empty cache.
    pub fn new() -> DeploymentCache {
        DeploymentCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The deployment for `(topology, cfg, seed)`, building it on first
    /// request. `g` must be the graph of `topology` — the name is the
    /// cache key, the graph is what gets built.
    pub fn get_or_build(
        &self,
        topology: &str,
        g: &Graph,
        cfg: &SplicingConfig,
        seed: u64,
    ) -> Arc<Splicing> {
        let key = (topology.to_string(), config_key(cfg), seed);
        if let Some(hit) = self.entries.lock().expect(CACHE_LOCK).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Build outside the lock: deployments take seconds, lookups don't.
        // A racing duplicate build is wasted work, not an error.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(Splicing::build(g, cfg, seed));
        self.entries
            .lock()
            .expect(CACHE_LOCK)
            .entry(key)
            .or_insert_with(|| Arc::clone(&built));
        built
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Everything an [`Experiment`] runs against.
pub struct RunContext<'a> {
    /// The run's configuration (trials already defaulted).
    pub config: RunConfig,
    /// The resolved base topology.
    pub topology: Topology,
    /// Fresh per-run metric registry; snapshot lands in the manifest.
    pub registry: Registry,
    /// Per-run flight recorder: repair triggers, span closures and walk
    /// anomalies land here, scrape-able via `--listen` at `/snapshot`.
    pub flight: FlightRecorder,
    cache: &'a DeploymentCache,
}

impl<'a> RunContext<'a> {
    /// A context over an already-resolved topology.
    pub fn new(
        config: RunConfig,
        topology: Topology,
        cache: &'a DeploymentCache,
    ) -> RunContext<'a> {
        RunContext {
            config,
            topology,
            registry: Registry::new(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            cache,
        }
    }

    /// The base graph of the run's topology.
    pub fn graph(&self) -> Graph {
        self.topology.graph()
    }

    /// The run's full metric bundle, with the flight recorder already
    /// attached: repair triggers and per-plane repairs recorded through
    /// it land in this context's [`RunContext::flight`]. Arena-size and
    /// repair histograms carry the run's strategy as a label, so a
    /// cross-strategy sweep's metrics stay separable in one registry.
    pub fn experiment_telemetry(&self) -> crate::telemetry::ExperimentTelemetry {
        crate::telemetry::ExperimentTelemetry::register_for_strategy(
            &self.registry,
            self.config.strategy.name(),
        )
        .with_flight(self.flight.clone())
    }

    /// A spliced deployment over `g`, served from the run's
    /// [`DeploymentCache`] (built at most once per `(topology, cfg,
    /// seed)` across the whole sweep). Each fetch — hit or build — is
    /// timed under the `splice_lab_deployment` span.
    pub fn deployment(&self, g: &Graph, cfg: &SplicingConfig, seed: u64) -> Arc<Splicing> {
        let span = Span::new(
            "splice_lab_deployment",
            self.registry.histogram_seconds(
                "splice_lab_deployment_seconds",
                "Deployment fetch (cache hit or slice build) wall time",
            ),
        )
        .with_flight(self.flight.clone());
        span.time(|| self.cache.get_or_build(&self.config.topology, g, cfg, seed))
    }

    /// Seed of `index` in RNG stream `stream` of this run's base seed
    /// (see [`crate::parallel::derive_seed`]).
    pub fn derive_seed(&self, stream: u64, index: u64) -> u64 {
        crate::parallel::derive_seed(self.config.seed, stream, index)
    }

    /// Hit/miss counters of the run's deployment cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// What an experiment hands back: artifacts for the sinks, free-form
/// notes (headlines, aggregate summaries) printed after them.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Structured results, rendered once to terminal and once to disk.
    pub artifacts: Vec<Artifact>,
    /// Lines printed verbatim after the artifacts.
    pub notes: Vec<String>,
}

/// One driver of the experiment engine: a named, self-describing unit
/// that maps a [`RunContext`] to structured output. Implementations hold
/// no state; all run inputs arrive through the context.
pub trait Experiment {
    /// Canonical name (`fig3_reliability`, `loop_stats`, ...): the `run`
    /// subcommand argument, the shard key, and the manifest stamp.
    fn name(&self) -> &'static str;

    /// Short aliases accepted by `run` (e.g. `fig3`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description for `splice-lab list`.
    fn describe(&self) -> &'static str;

    /// Default Monte-Carlo trial count when `--trials` is absent.
    fn default_trials(&self) -> usize;

    /// Turn parsed flags into this run's configuration.
    fn configure(&self, args: &LabArgs) -> RunConfig {
        args.configure(self.default_trials())
    }

    /// Run the experiment. Implementations may print progress but must
    /// route all results through the returned [`ExperimentOutput`].
    fn run(&self, ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError>;
}

/// Why an engine run failed.
#[derive(Debug)]
pub enum LabError {
    /// The shared flags were malformed.
    Args(ArgsError),
    /// The topology name did not resolve.
    Topology(TopologyError),
    /// An artifact failed to render or write.
    Artifact(ArtifactError),
    /// Filesystem failure outside artifact writing (manifest, shard).
    Io(std::io::Error),
    /// `run <name>` named no registered experiment.
    UnknownExperiment {
        /// The name as given.
        name: String,
    },
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Args(e) => write!(f, "{e}"),
            LabError::Topology(e) => write!(f, "{e}"),
            LabError::Artifact(e) => write!(f, "{e}"),
            LabError::Io(e) => write!(f, "{e}"),
            LabError::UnknownExperiment { name } => {
                write!(f, "unknown experiment {name:?} (try `splice-lab list`)")
            }
        }
    }
}

impl std::error::Error for LabError {}

impl From<ArgsError> for LabError {
    fn from(e: ArgsError) -> LabError {
        LabError::Args(e)
    }
}

impl From<TopologyError> for LabError {
    fn from(e: TopologyError) -> LabError {
        LabError::Topology(e)
    }
}

impl From<ArtifactError> for LabError {
    fn from(e: ArtifactError) -> LabError {
        LabError::Artifact(e)
    }
}

impl From<std::io::Error> for LabError {
    fn from(e: std::io::Error) -> LabError {
        LabError::Io(e)
    }
}

/// A machine-readable record of one experiment run: what was asked for,
/// how long each phase took, the deployment-cache counters, and the
/// final telemetry snapshot. Written next to the run's artifacts so a
/// plot can always be traced back to its exact configuration.
pub struct RunManifest {
    experiment: String,
    config: RunConfig,
    phases: Vec<(String, f64)>,
    started: Instant,
    phase_start: Instant,
}

impl RunManifest {
    /// Start the run clock for `experiment`.
    pub fn start(experiment: &str, config: &RunConfig) -> RunManifest {
        let now = Instant::now();
        RunManifest {
            experiment: experiment.to_string(),
            config: config.clone(),
            phases: Vec::new(),
            started: now,
            phase_start: now,
        }
    }

    /// Close the current phase: records the wall time since the previous
    /// mark (or since [`RunManifest::start`]) under `name`.
    pub fn phase_done(&mut self, name: &str) {
        let now = Instant::now();
        self.phases
            .push((name.to_string(), (now - self.phase_start).as_secs_f64()));
        self.phase_start = now;
    }

    /// Render the manifest as one JSON object, embedding the current
    /// snapshot of `registry` and the deployment-cache counters.
    pub fn render(&self, registry: &Registry, cache: &CacheStats) -> String {
        let mut phases = JsonArray::new();
        for (name, secs) in &self.phases {
            phases = phases.push_raw(
                &JsonObject::new()
                    .field_str("name", name)
                    .field_f64("seconds", *secs)
                    .finish(),
            );
        }
        JsonObject::new()
            .field_u64("schema_version", SCHEMA_VERSION as u64)
            .field_str("experiment", &self.experiment)
            .field_str("topology", &self.config.topology)
            .field_u64("trials", self.config.trials as u64)
            .field_u64("seed", self.config.seed)
            .field_str("semantics", &self.config.semantics)
            .field_str("strategy", self.config.strategy.name())
            .field_raw("phases", &phases.finish())
            .field_f64("total_seconds", self.started.elapsed().as_secs_f64())
            .field_raw(
                "deployment_cache",
                &JsonObject::new()
                    .field_u64("hits", cache.hits)
                    .field_u64("misses", cache.misses)
                    .finish(),
            )
            .field_raw("metrics", &registry.render_json())
            .finish()
    }

    /// Write the rendered manifest to `path`, creating parent directories.
    pub fn write(
        &self,
        path: impl AsRef<Path>,
        registry: &Registry,
        cache: &CacheStats,
    ) -> std::io::Result<()> {
        let mut text = self.render(registry, cache);
        text.push('\n');
        write_text(path, &text)
    }
}

/// The set of known experiments, in `run-all` order.
#[derive(Default)]
pub struct ExperimentRegistry {
    experiments: Vec<Box<dyn Experiment>>,
}

impl ExperimentRegistry {
    /// An empty registry.
    pub fn new() -> ExperimentRegistry {
        ExperimentRegistry::default()
    }

    /// Add an experiment. Panics on a name/alias collision — a collision
    /// is a bug in the registration list, not a runtime condition.
    pub fn register(&mut self, exp: Box<dyn Experiment>) {
        let clash = self
            .experiments
            .iter()
            .any(|e| e.name() == exp.name() || e.aliases().contains(&exp.name()));
        assert!(!clash, "duplicate experiment name {:?}", exp.name());
        self.experiments.push(exp);
    }

    /// Look an experiment up by canonical name or alias.
    pub fn find(&self, name: &str) -> Option<&dyn Experiment> {
        self.experiments
            .iter()
            .map(|e| e.as_ref())
            .find(|e| e.name() == name || e.aliases().contains(&name))
    }

    /// All experiments, in registration (= `run-all`) order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.experiments.iter().map(|e| e.as_ref())
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }
}

/// What one engine run produced.
#[derive(Debug)]
pub struct RunSummary {
    /// The experiment's canonical name.
    pub experiment: String,
    /// Every artifact file written, in write order.
    pub artifacts: Vec<PathBuf>,
    /// The manifest path.
    pub manifest: PathBuf,
}

/// Run one experiment end to end: configure, resolve the topology, run,
/// sink every artifact (terminal + disk), print the notes, stamp the
/// manifest. The manifest lands next to the artifacts as
/// `<first-artifact-stem>_manifest.json` (or `<name>_manifest.json` for
/// artifact-less runs).
pub fn run_experiment(
    exp: &dyn Experiment,
    args: &LabArgs,
    cache: &DeploymentCache,
) -> Result<RunSummary, LabError> {
    let config = exp.configure(args);
    let topology = splice_topology::resolve(&config.topology)?;
    let mut ctx = RunContext::new(config, topology, cache);
    // The scrape endpoint observes the run's registry and flight
    // recorder live; it never feeds back into the run, so `--listen`
    // runs stay byte-identical to plain ones.
    let server = match &args.listen {
        Some(addr) => {
            let server =
                splice_telemetry::serve(addr, ctx.registry.clone(), Some(ctx.flight.clone()))?;
            println!("[splice-lab] listening on http://{}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let mut manifest = RunManifest::start(exp.name(), &ctx.config);
    let experiment_span = Span::new(
        "splice_lab_experiment",
        ctx.registry.histogram_seconds(
            "splice_lab_experiment_seconds",
            "Wall time of the experiment phase (excludes artifact writing)",
        ),
    )
    .with_flight(ctx.flight.clone());
    let output = {
        let _g = experiment_span.enter();
        exp.run(&mut ctx)?
    };
    manifest.phase_done("experiment");
    let mut written = Vec::new();
    for artifact in &output.artifacts {
        println!("{}", artifact_to_terminal(artifact));
        for path in write_artifact(&ctx.config.out, artifact)? {
            println!("wrote {}", path.display());
            written.push(path);
        }
    }
    for note in &output.notes {
        println!("{note}");
    }
    manifest.phase_done("artifacts");
    let stem = output
        .artifacts
        .first()
        .map(|a| a.base_name().to_string())
        .unwrap_or_else(|| exp.name().to_string());
    let manifest_path = ctx.config.artifact(&format!("{stem}_manifest.json"));
    manifest.write(&manifest_path, &ctx.registry, &cache.stats())?;
    println!("wrote {}", manifest_path.display());
    if let Some(server) = server {
        if args.linger_secs > 0 {
            println!(
                "[splice-lab] lingering {}s for final scrapes (http://{})",
                args.linger_secs,
                server.local_addr()
            );
            std::thread::sleep(Duration::from_secs(args.linger_secs));
        }
        server.shutdown();
    }
    Ok(RunSummary {
        experiment: exp.name().to_string(),
        artifacts: written,
        manifest: manifest_path,
    })
}

/// Shard file of `experiment` under `out`: the JSONL journal `run-all`
/// uses to make sweeps resumable.
pub fn shard_path(out: &Path, experiment: &str) -> PathBuf {
    out.join("shards").join(format!("{experiment}.jsonl"))
}

/// The shard's header line: the exact configuration the shard's results
/// were produced under. `resume` re-runs any experiment whose recomputed
/// header no longer matches (different seed, trials, topology, ...).
pub fn shard_header(experiment: &str, config: &RunConfig) -> String {
    JsonObject::new()
        .field_u64("schema_version", SCHEMA_VERSION as u64)
        .field_str("experiment", experiment)
        .field_str("topology", &config.topology)
        .field_u64("trials", config.trials as u64)
        .field_u64("seed", config.seed)
        .field_str("semantics", &config.semantics)
        .field_str("strategy", config.strategy.name())
        .finish()
}

fn shard_is_complete(path: &Path, header: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let mut lines = text.lines();
    if lines.next() != Some(header) {
        return false;
    }
    text.lines()
        .last()
        .is_some_and(|l| l.contains(r#""complete":true"#))
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    writeln!(f, "{line}")
}

/// What a sweep did.
#[derive(Debug)]
pub struct RunAllSummary {
    /// Experiments that ran this invocation.
    pub ran: Vec<String>,
    /// Experiments skipped because their shard was already complete.
    pub skipped: Vec<String>,
    /// Final deployment-cache counters for the sweep.
    pub cache: CacheStats,
}

/// Run every registered experiment in order, sharing one deployment
/// cache. Each experiment is journaled to its shard (header first, then
/// one line per artifact, then a completion line); with `resume`,
/// experiments whose shard is already complete *under the same
/// configuration* are skipped.
pub fn run_all(
    registry: &ExperimentRegistry,
    args: &LabArgs,
    resume: bool,
) -> Result<RunAllSummary, LabError> {
    let cache = DeploymentCache::new();
    let mut ran = Vec::new();
    let mut skipped = Vec::new();
    for exp in registry.iter() {
        let config = exp.configure(args);
        let header = shard_header(exp.name(), &config);
        let shard = shard_path(&config.out, exp.name());
        if resume && shard_is_complete(&shard, &header) {
            println!("[splice-lab] {}: shard complete, skipping", exp.name());
            skipped.push(exp.name().to_string());
            continue;
        }
        // Truncate to header-only first: the shard stays incomplete until
        // the run lands, so a crash mid-experiment re-runs it on resume.
        write_text(&shard, &format!("{header}\n"))?;
        let summary = run_experiment(exp, args, &cache)?;
        for path in &summary.artifacts {
            append_line(
                &shard,
                &JsonObject::new()
                    .field_str("artifact", &path.display().to_string())
                    .finish(),
            )?;
        }
        append_line(
            &shard,
            &JsonObject::new()
                .field_bool("complete", true)
                .field_str("manifest", &summary.manifest.display().to_string())
                .finish(),
        )?;
        ran.push(exp.name().to_string());
    }
    let cache = cache.stats();
    println!(
        "[splice-lab] sweep done: {} ran, {} skipped; deployment cache {} hits / {} misses",
        ran.len(),
        skipped.len(),
        cache.hits,
        cache.misses
    );
    Ok(RunAllSummary {
        ran,
        skipped,
        cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn args_defaults_and_overrides() {
        let a = LabArgs::parse(&[]).unwrap();
        assert_eq!(a, LabArgs::default());
        assert_eq!(a.configure(250).trials, 250);
        let a = LabArgs::parse(&argv(&[
            "--trials",
            "7",
            "--seed",
            "11",
            "--topology",
            "abilene",
            "--out",
            "o",
            "--semantics",
            "directed",
            "--strategy",
            "tree",
            "--listen",
            "127.0.0.1:0",
            "--linger-secs",
            "3",
        ]))
        .unwrap();
        assert_eq!(a.trials, Some(7));
        assert_eq!(a.configure(250).trials, 7);
        assert_eq!(a.seed, 11);
        assert_eq!(a.topology, "abilene");
        assert_eq!(a.out, PathBuf::from("o"));
        assert_eq!(a.configure(1).splice_semantics(), SpliceSemantics::Directed);
        assert_eq!(a.strategy, StrategyKind::RandomSpanningTree);
        assert_eq!(a.configure(1).strategy, StrategyKind::RandomSpanningTree);
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.linger_secs, 3);
        // Aliases parse; the default is the paper's construction.
        let spf = LabArgs::parse(&argv(&["--strategy", "spf"])).unwrap();
        assert_eq!(spf.strategy, StrategyKind::PerturbedSpf);
        assert_eq!(LabArgs::default().strategy, StrategyKind::PerturbedSpf);
    }

    #[test]
    fn args_errors_are_typed() {
        assert!(matches!(
            LabArgs::parse(&argv(&["--trials"])),
            Err(ArgsError::MissingValue { .. })
        ));
        assert!(matches!(
            LabArgs::parse(&argv(&["--trials", "x"])),
            Err(ArgsError::BadValue { .. })
        ));
        assert!(matches!(
            LabArgs::parse(&argv(&["--semantics", "both"])),
            Err(ArgsError::BadValue { .. })
        ));
        assert!(matches!(
            LabArgs::parse(&argv(&["--strategy", "ospf"])),
            Err(ArgsError::BadValue { .. })
        ));
        assert!(matches!(
            LabArgs::parse(&argv(&["--frobnicate"])),
            Err(ArgsError::UnknownFlag { .. })
        ));
        assert!(matches!(
            LabArgs::parse(&argv(&["--help"])),
            Err(ArgsError::Help)
        ));
    }

    fn degree_cfg(k: usize) -> SplicingConfig {
        SplicingConfig::degree_based(k, 0.0, 3.0)
    }

    #[test]
    fn deployment_cache_builds_each_key_once() {
        let g = splice_topology::resolve("abilene").unwrap().graph();
        let cache = DeploymentCache::new();
        let a = cache.get_or_build("abilene", &g, &degree_cfg(3), 7);
        let b = cache.get_or_build("abilene", &g, &degree_cfg(3), 7);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // Different seed, k, or topology name are distinct keys.
        cache.get_or_build("abilene", &g, &degree_cfg(3), 8);
        cache.get_or_build("abilene", &g, &degree_cfg(2), 7);
        cache.get_or_build("abilene2", &g, &degree_cfg(3), 7);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 4 });
        // A different slice-construction strategy is a distinct key.
        cache.get_or_build(
            "abilene",
            &g,
            &degree_cfg(3).with_strategy(StrategyKind::RandomSpanningTree),
            7,
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 5 });
    }

    struct Dummy;

    impl Experiment for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn aliases(&self) -> &'static [&'static str] {
            &["dum"]
        }
        fn describe(&self) -> &'static str {
            "engine test double"
        }
        fn default_trials(&self) -> usize {
            3
        }
        fn run(&self, ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
            ctx.registry.counter("dummy_runs_total", "Runs").add(1);
            let g = ctx.graph();
            ctx.deployment(&g, &degree_cfg(2), ctx.config.seed);
            Ok(ExperimentOutput {
                artifacts: vec![Artifact::table(
                    "dummy_table.txt",
                    &["trials"],
                    vec![vec![ctx.config.trials.to_string()]],
                )],
                notes: vec!["dummy done".into()],
            })
        }
    }

    fn temp_out(tag: &str) -> LabArgs {
        let mut args = LabArgs {
            topology: "ring-4".into(),
            ..LabArgs::default()
        };
        args.out = std::env::temp_dir().join(format!("splice-lab-{tag}"));
        std::fs::remove_dir_all(&args.out).ok();
        args
    }

    #[test]
    fn engine_writes_artifacts_and_schema_stamped_manifest() {
        let args = temp_out("engine");
        let cache = DeploymentCache::new();
        let summary = run_experiment(&Dummy, &args, &cache).unwrap();
        assert_eq!(summary.experiment, "dummy");
        assert_eq!(summary.artifacts, vec![args.out.join("dummy_table.txt")]);
        assert!(summary.artifacts[0].exists());
        let manifest = std::fs::read_to_string(&summary.manifest).unwrap();
        assert!(manifest.contains(r#""schema_version":1"#), "{manifest}");
        assert!(manifest.contains(r#""experiment":"dummy""#));
        assert!(manifest.contains(r#""topology":"ring-4""#));
        assert!(manifest.contains(r#""name":"experiment""#));
        assert!(manifest.contains(r#""name":"artifacts""#));
        assert!(manifest.contains(r#""deployment_cache":{"hits":0,"misses":1}"#));
        assert!(manifest.contains(r#""name":"dummy_runs_total""#));
        std::fs::remove_dir_all(&args.out).ok();
    }

    #[test]
    fn deployment_fetches_are_spanned_into_the_flight_recorder() {
        let args = temp_out("flight");
        let config = args.configure(1);
        let topology = splice_topology::resolve("ring-4").unwrap();
        let cache = DeploymentCache::new();
        let ctx = RunContext::new(config, topology, &cache);
        let g = ctx.graph();
        ctx.deployment(&g, &degree_cfg(2), 7);
        ctx.deployment(&g, &degree_cfg(2), 7); // cache hit, still spanned
        let events = ctx.flight.snapshot();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.event.kind == "span" && e.event.name == "splice_lab_deployment"));
        assert!(ctx
            .registry
            .render_prometheus()
            .contains("splice_lab_deployment_seconds_count 2"));
        // The bundled telemetry shares both the registry and the recorder.
        let tel = ctx.experiment_telemetry();
        assert!(tel.spf.flight.is_some());
        std::fs::remove_dir_all(&args.out).ok();
    }

    #[test]
    fn listen_flag_serves_the_run_and_stamps_span_histograms() {
        let mut args = temp_out("listen");
        args.listen = Some("127.0.0.1:0".into());
        let cache = DeploymentCache::new();
        let summary = run_experiment(&Dummy, &args, &cache).unwrap();
        let manifest = std::fs::read_to_string(&summary.manifest).unwrap();
        assert!(manifest.contains(r#""name":"splice_lab_experiment_seconds""#));
        assert!(manifest.contains(r#""name":"splice_lab_deployment_seconds""#));
        std::fs::remove_dir_all(&args.out).ok();
    }

    #[test]
    fn registry_finds_by_name_and_alias() {
        let mut reg = ExperimentRegistry::new();
        reg.register(Box::new(Dummy));
        assert_eq!(reg.len(), 1);
        assert!(reg.find("dummy").is_some());
        assert!(reg.find("dum").is_some());
        assert!(reg.find("nope").is_none());
    }

    #[test]
    fn run_all_journals_shards_and_resume_skips() {
        let args = temp_out("runall");
        let mut reg = ExperimentRegistry::new();
        reg.register(Box::new(Dummy));
        let first = run_all(&reg, &args, false).unwrap();
        assert_eq!(first.ran, vec!["dummy".to_string()]);
        assert!(first.skipped.is_empty());
        assert_eq!(first.cache.misses, 1);
        let shard = shard_path(&args.out, "dummy");
        let text = std::fs::read_to_string(&shard).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            shard_header("dummy", &args.configure(3))
        );
        assert!(text.lines().last().unwrap().contains(r#""complete":true"#));

        // Resume with the same configuration: everything skips.
        let second = run_all(&reg, &args, true).unwrap();
        assert!(second.ran.is_empty());
        assert_eq!(second.skipped, vec!["dummy".to_string()]);

        // A configuration change invalidates the shard.
        let mut moved = args.clone();
        moved.seed = 999;
        let third = run_all(&reg, &moved, true).unwrap();
        assert_eq!(third.ran, vec!["dummy".to_string()]);
        std::fs::remove_dir_all(&args.out).ok();
    }

    #[test]
    fn incomplete_shard_reruns_on_resume() {
        let args = temp_out("partial");
        let mut reg = ExperimentRegistry::new();
        reg.register(Box::new(Dummy));
        let shard = shard_path(&args.out, "dummy");
        // Header only — as if the process died mid-experiment.
        write_text(
            &shard,
            &format!("{}\n", shard_header("dummy", &args.configure(3))),
        )
        .unwrap();
        let s = run_all(&reg, &args, true).unwrap();
        assert_eq!(s.ran, vec!["dummy".to_string()]);
        std::fs::remove_dir_all(&args.out).ok();
    }
}
