//! The experiment engine: one catalogue record type behind every driver.
//!
//! Historically each figure/table of the paper had its own binary with a
//! copy of the same scaffolding — parse flags, load the topology, run,
//! hand-format a table, hand-write CSV/JSON, write a manifest. This
//! module is that scaffolding, written once:
//!
//! * [`Experiment`] — a plain record (name, aliases, description,
//!   default trial count, `run` function) that turns a [`RunContext`]
//!   into structured [`Artifact`]s. A catalogue is a `&[Experiment]`
//!   looked up with [`find`]. Drivers never print tables or touch the
//!   filesystem; the engine renders every artifact exactly once through
//!   the shared sinks in [`crate::output`].
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
use splice_core::slices::{Splicing, SplicingConfig};
use splice_core::strategy::StrategyKind;
use splice_graph::Graph;
use splice_telemetry::series::{self, Series};
use splice_telemetry::{FlightEvent, FlightRecorder, JsonArray, JsonObject, Registry, Router};
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

/// The shared experiment flags (`splice exp`'s): `trials` stays `None`
/// until an experiment fills in its own default via [`LabArgs::configure`].
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
    /// `--semantics` (default union).
    pub semantics: SpliceSemantics,
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
            semantics: SpliceSemantics::UnionGraph,
            strategy: StrategyKind::PerturbedSpf,
            listen: None,
            linger_secs: 0,
        }
    }
}

impl LabArgs {
    /// Fix the trial count, producing the run's final configuration.
    pub fn configure(&self, default_trials: usize) -> RunConfig {
        RunConfig {
            trials: self.trials.unwrap_or(default_trials),
            seed: self.seed,
            topology: self.topology.clone(),
            out: self.out.clone(),
            semantics: self.semantics,
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
    /// Spliced-path semantics: union (the paper's accounting) or
    /// directed (operationally exact forwarding reachability).
    pub semantics: SpliceSemantics,
    /// Slice-construction strategy for experiments that honor it.
    pub strategy: StrategyKind,
}

impl RunConfig {
    /// Output path for an artifact of this run.
    pub fn artifact(&self, name: &str) -> PathBuf {
        self.out.join(name)
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
/// own [`PerturbationKind::label`](splice_core::perturb::PerturbationKind::label),
/// so two configs collide only when they build bit-identical slices.
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
        "k={};{};strategy={}",
        cfg.k,
        cfg.perturbation.label(),
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
    /// A context over an already-resolved topology. Both lab phase
    /// histograms are registered up front, so every manifest lists them
    /// (the deployment one empty for an experiment that fetches none).
    pub fn new(
        config: RunConfig,
        topology: Topology,
        cache: &'a DeploymentCache,
    ) -> RunContext<'a> {
        let registry = Registry::new();
        for phase in [
            &series::LAB_DEPLOYMENT_SECONDS,
            &series::LAB_EXPERIMENT_SECONDS,
        ] {
            registry.histogram(phase, None);
        }
        RunContext {
            config,
            topology,
            registry,
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
    /// timed as the `splice_lab_deployment` phase.
    pub fn deployment(&self, g: &Graph, cfg: &SplicingConfig, seed: u64) -> Arc<Splicing> {
        timed_phase(
            &series::LAB_DEPLOYMENT_SECONDS,
            &self.registry,
            &self.flight,
            || self.cache.get_or_build(&self.config.topology, g, cfg, seed),
        )
    }

    /// Seed of `index` in RNG stream `stream` of this run's base seed
    /// (see [`crate::parallel::derive_seed`]).
    pub fn derive_seed(&self, stream: u64, index: u64) -> u64 {
        crate::parallel::derive_seed(self.config.seed, stream, index)
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

/// One entry of the experiment catalogue: a named, self-describing
/// driver that maps a [`RunContext`] to structured output. Entries hold
/// no state; all run inputs arrive through the context.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Canonical name (`fig3_reliability`, `loop_stats`, ...): the `run`
    /// subcommand argument, the shard key, and the manifest stamp.
    pub name: &'static str,
    /// Short aliases accepted by `run` (e.g. `fig3`).
    pub aliases: &'static [&'static str],
    /// One-line description for `splice exp list`.
    pub describe: &'static str,
    /// Monte-Carlo trial count when `--trials` is absent.
    pub default_trials: usize,
    /// Run the experiment. It may print progress but must route all
    /// results through the returned [`ExperimentOutput`].
    pub run: fn(&mut RunContext<'_>) -> Result<ExperimentOutput, LabError>,
}

/// The entry of `catalogue` whose canonical name or alias is `name`.
pub fn find<'a>(catalogue: &'a [Experiment], name: &str) -> Option<&'a Experiment> {
    catalogue
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

/// Why an engine run failed.
#[derive(Debug)]
pub enum LabError {
    /// The topology name did not resolve.
    Topology(TopologyError),
    /// An artifact failed to render or write.
    Artifact(ArtifactError),
    /// Filesystem failure outside artifact writing (manifest, shard).
    Io(std::io::Error),
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Topology(e) => write!(f, "{e}"),
            LabError::Artifact(e) => write!(f, "{e}"),
            LabError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LabError {}

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
            .field_str("semantics", self.config.semantics.name())
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

/// Run `f` as the lab phase `phase`: its wall time lands in the phase's
/// histogram in `registry`, and a `span/<name>` closure event carrying
/// it as `nanos` lands in `flight`, where `<name>` is the series name
/// without its `_seconds` suffix.
fn timed_phase<T>(
    phase: &'static Series,
    registry: &Registry,
    flight: &FlightRecorder,
    f: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed();
    registry.histogram(phase, None).record_duration(elapsed);
    let name = phase.name.strip_suffix("_seconds").unwrap_or(phase.name);
    let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
    flight.record(FlightEvent::new("span", name).field("nanos", nanos));
    out
}

/// Run one experiment end to end: configure, resolve the topology, run,
/// sink every artifact (terminal + disk), print the notes, stamp the
/// manifest. The manifest lands next to the artifacts as
/// `<first-artifact-stem>_manifest.json` (or `<name>_manifest.json` for
/// artifact-less runs).
pub fn run_experiment(
    exp: &Experiment,
    args: &LabArgs,
    cache: &DeploymentCache,
) -> Result<RunSummary, LabError> {
    let config = args.configure(exp.default_trials);
    let topology = splice_topology::resolve(&config.topology)?;
    let mut ctx = RunContext::new(config, topology, cache);
    // The scrape endpoint observes the run's registry and flight
    // recorder live; it never feeds back into the run, so `--listen`
    // runs stay byte-identical to plain ones.
    let server = match &args.listen {
        Some(addr) => {
            let (registry, flight) = (ctx.registry.clone(), Some(ctx.flight.clone()));
            let server =
                splice_telemetry::serve_with_router(addr, registry, flight, Router::new())?;
            println!("[splice-lab] listening on http://{}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let mut manifest = RunManifest::start(exp.name, &ctx.config);
    let (registry, flight) = (ctx.registry.clone(), ctx.flight.clone());
    let output = timed_phase(&series::LAB_EXPERIMENT_SECONDS, &registry, &flight, || {
        (exp.run)(&mut ctx)
    })?;
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
        .unwrap_or_else(|| exp.name.to_string());
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
        experiment: exp.name.to_string(),
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
        .field_str("semantics", config.semantics.name())
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
    /// Experiments that returned an error, in catalogue order; their
    /// shards stay header-only, so `resume` retries them.
    pub failed: Vec<String>,
    /// Final deployment-cache counters for the sweep.
    pub cache: CacheStats,
}

/// Run every experiment of `catalogue` in order, sharing one deployment
/// cache. Each experiment is journaled to its shard (header first, then
/// one line per artifact, then a completion line); with `resume`,
/// experiments whose shard is already complete *under the same
/// configuration* are skipped. An experiment that errors is reported and
/// the sweep goes on to the next row; the summary names every failed
/// row. Only a journal that cannot be written stops the sweep.
pub fn run_all(
    catalogue: &[Experiment],
    args: &LabArgs,
    resume: bool,
) -> Result<RunAllSummary, LabError> {
    let cache = DeploymentCache::new();
    let mut ran = Vec::new();
    let mut skipped = Vec::new();
    let mut failed = Vec::new();
    for exp in catalogue {
        let config = args.configure(exp.default_trials);
        let header = shard_header(exp.name, &config);
        let shard = shard_path(&config.out, exp.name);
        if resume && shard_is_complete(&shard, &header) {
            println!("[splice-lab] {}: shard complete, skipping", exp.name);
            skipped.push(exp.name.to_string());
            continue;
        }
        // Truncate to header-only first: the shard stays incomplete until
        // the run lands, so a crash mid-experiment re-runs it on resume.
        write_text(&shard, &format!("{header}\n"))?;
        let summary = match run_experiment(exp, args, &cache) {
            Ok(summary) => summary,
            Err(e) => {
                eprintln!("[splice-lab] {}: failed: {e}", exp.name);
                failed.push(exp.name.to_string());
                continue;
            }
        };
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
        ran.push(exp.name.to_string());
    }
    let cache = cache.stats();
    println!(
        "[splice-lab] sweep done: {} ran, {} skipped, {} failed; deployment cache {} hits / {} misses",
        ran.len(),
        skipped.len(),
        failed.len(),
        cache.hits,
        cache.misses
    );
    Ok(RunAllSummary {
        ran,
        skipped,
        failed,
        cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    const DUMMY_RUNS: Series = Series {
        name: "dummy_runs_total",
        help: "Runs",
        kind: splice_telemetry::series::Kind::Counter,
        label: None,
    };

    const DUMMY: Experiment = Experiment {
        name: "dummy",
        aliases: &["dum"],
        describe: "engine test double",
        default_trials: 3,
        run: run_dummy,
    };

    fn run_dummy(ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
        ctx.registry.counter(&DUMMY_RUNS, None).add(1);
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

    /// A row that always errors, as `overlay_splicing` does on a graph
    /// too small for an overlay.
    const BROKEN: Experiment = Experiment {
        name: "broken",
        aliases: &[],
        describe: "engine test double that fails",
        default_trials: 3,
        run: |_| Err(LabError::Io(std::io::Error::other("no overlay fits"))),
    };

    /// The dummy under another name, so it journals its own shard.
    const DUMMY_TAIL: Experiment = Experiment {
        name: "dummy_tail",
        ..DUMMY
    };

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
        let summary = run_experiment(&DUMMY, &args, &cache).unwrap();
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
        let summary = run_experiment(&DUMMY, &args, &cache).unwrap();
        let manifest = std::fs::read_to_string(&summary.manifest).unwrap();
        assert!(manifest.contains(r#""name":"splice_lab_experiment_seconds""#));
        assert!(manifest.contains(r#""name":"splice_lab_deployment_seconds""#));
        std::fs::remove_dir_all(&args.out).ok();
    }

    #[test]
    fn run_all_journals_shards_and_resume_skips() {
        let args = temp_out("runall");
        let first = run_all(&[DUMMY], &args, false).unwrap();
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
        let second = run_all(&[DUMMY], &args, true).unwrap();
        assert!(second.ran.is_empty());
        assert_eq!(second.skipped, vec!["dummy".to_string()]);

        // A configuration change invalidates the shard.
        let mut moved = args.clone();
        moved.seed = 999;
        let third = run_all(&[DUMMY], &moved, true).unwrap();
        assert_eq!(third.ran, vec!["dummy".to_string()]);
        std::fs::remove_dir_all(&args.out).ok();
    }

    /// A failing middle row is reported and the rows after it still run;
    /// its shard stays header-only, so `resume` retries only it.
    #[test]
    fn run_all_runs_the_rows_after_a_failing_one() {
        let args = temp_out("failing-row");
        let catalogue = [DUMMY, BROKEN, DUMMY_TAIL];
        let first = run_all(&catalogue, &args, false).unwrap();
        assert_eq!(first.ran, ["dummy", "dummy_tail"]);
        assert_eq!(first.failed, ["broken"]);
        let shard = std::fs::read_to_string(shard_path(&args.out, "broken")).unwrap();
        assert_eq!(
            shard,
            format!("{}\n", shard_header("broken", &args.configure(3)))
        );
        let second = run_all(&catalogue, &args, true).unwrap();
        assert_eq!(second.skipped, ["dummy", "dummy_tail"]);
        assert!(second.ran.is_empty());
        assert_eq!(second.failed, ["broken"]);
        std::fs::remove_dir_all(&args.out).ok();
    }

    #[test]
    fn incomplete_shard_reruns_on_resume() {
        let args = temp_out("partial");
        let shard = shard_path(&args.out, "dummy");
        // Header only — as if the process died mid-experiment.
        write_text(
            &shard,
            &format!("{}\n", shard_header("dummy", &args.configure(3))),
        )
        .unwrap();
        let s = run_all(&[DUMMY], &args, true).unwrap();
        assert_eq!(s.ran, vec!["dummy".to_string()]);
        std::fs::remove_dir_all(&args.out).ok();
    }
}
