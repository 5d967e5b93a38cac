//! The `splice` command-line tool: every surface of the reproduction
//! behind one binary and one flag grammar. [`COMMANDS`] is that grammar:
//! `main` dispatches through it, a command accepts the flags its row
//! lists and reads their defaults from it, and `splice help` prints it.

use splice_bench::CATALOGUE;
use splice_cli::{resolve_failures, resolve_node, resolve_topology, ArgsError, Flag, Flags};
use splice_core::prelude::*;
use splice_core::stretch::{per_slice_stretch, StretchStats};
use splice_dataplane::{
    drop_reason_label, run_live, walk_to_json, ForwardTelemetry, NetTelemetry, RouterStats,
};
use splice_graph::mincut::min_cut_links;
use splice_graph::{EdgeMask, Graph, NodeId, Rng};
use splice_routing::spf::SpfTelemetry;
use splice_sim::lab::{find, run_all, run_experiment, DeploymentCache, LabArgs};
use splice_sim::reliability::{reliability_experiment, ReliabilityConfig, SpliceSemantics};
use splice_sim::telemetry::ExperimentTelemetry;
use splice_sim::FailureModel;
use splice_telemetry::{
    series, serve_with_router, AdminResponse, FlightRecorder, JsonArray, JsonObject, Registry,
    Router, Ticker,
};
use splice_testkit::{
    apply_batches, derive_seed, flight_tail, forward_oracle, replay, schedule_to_batches, shrink,
    Divergence, ForwardOracleOptions, ReplayOptions, Scenario,
};
use splice_topology::Topology;
use splice_traffic::{FlowConfig, FlowGen};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One `splice` command: its words (a `<placeholder>` matches any one
/// operand), a one-line summary, its body, and every flag it reads. A
/// body's `Err` is a usage error (exit 2); a failed run exits 1 itself.
struct Command {
    words: &'static [&'static str],
    summary: &'static str,
    run: fn(&[&str], &Flags) -> Result<(), String>,
    flags: &'static [Flag],
}

/// Flags more than one row reads, each written once, and `flag`, which
/// builds a table entry on one line.
#[rustfmt::skip]
mod flag {
    use splice_cli::Flag;
    pub const fn flag(name: &'static str, value: &'static str, default: Option<&'static str>, help: &'static str) -> Flag {
        Flag { name, value, default, help }
    }
    pub const TOPOLOGY: Flag = flag("topology", "NAME", Some("sprint"), "built-in (sprint|geant|abilene) or a generator spec like rand-24-40-7");
    pub const FILE: Flag = flag("file", "PATH", None, "edge-list topology file instead");
    pub const K: Flag = flag("k", "N", Some("5"), "number of slices");
    pub const SEED: Flag = flag("seed", "N", Some("1"), "RNG seed");
    pub const STRATEGY: Flag = flag("strategy", "perturbed-spf|tree|lst|arc", Some("perturbed-spf"), "slice construction");
    pub const FAIL: Flag = flag("fail", "A-B", None, "fail the named link (repeatable)");
    pub const FAIL_EDGE: Flag = flag("fail-edge", "ID", None, "fail a link by edge id (repeatable)");
    pub const SRC: Flag = flag("src", "NAME", None, "source node (required)");
    pub const DST: Flag = flag("dst", "NAME", None, "destination node (required)");
    pub const SEMANTICS: Flag = flag("semantics", "union|directed", Some("union"), "spliced-path accounting");
    pub const METRICS: Flag = flag("metrics", "PATH", None, "write a Prometheus metric snapshot when the run ends");
    pub const TRACE: Flag = flag("trace", "PATH", None, "write packet walks as JSON lines");
    /// What `exp run`, `exp run-all` and `exp resume` read.
    pub const EXP: &[Flag] = &[
        flag("trials", "N", None, "Monte-Carlo trials (default per experiment)"),
        flag("seed", "N", Some("20080817"), "base seed"),
        TOPOLOGY,
        flag("out", "DIR", Some("results"), "artifact directory"),
        SEMANTICS,
        STRATEGY,
        flag("listen", "ADDR", None, "serve /metrics, /healthz, /snapshot during the run"),
        flag("linger-secs", "N", Some("0"), "keep that endpoint up N s after the run"),
    ];
}
use flag::*;

/// Every command, in `splice help`'s order.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { words: &["info"], summary: "topology statistics (nodes, links, degrees, min cut)",
        run: |_, f| cmd_info(f), flags: &[TOPOLOGY, FILE, FAIL, FAIL_EDGE] },
    Command { words: &["route"], summary: "forward a packet and print the hop-by-hop trace",
        run: |_, f| cmd_route(f), flags: &[TOPOLOGY, FILE, K, SEED, STRATEGY, FAIL, FAIL_EDGE, SRC, DST,
            flag("slice", "N", Some("0"), "pin to one slice")] },
    Command { words: &["recover"], summary: "break links and run recovery",
        run: |_, f| cmd_recover(f), flags: &[TOPOLOGY, FILE, K, SEED, STRATEGY, FAIL, FAIL_EDGE, SRC, DST,
            flag("scheme", "end-system|network", Some("end-system"), "recovery scheme"),
            flag("trials", "N", Some("5"), "recovery trials"),
            METRICS, TRACE] },
    Command { words: &["reliability"], summary: "quick Monte-Carlo disconnection numbers",
        run: |_, f| cmd_reliability(f), flags: &[TOPOLOGY, FILE,
            flag("k", "N,N,..", Some("1,5,10"), "slice counts"),
            flag("p", "P,P,..", Some("0.05"), "failure probabilities"),
            flag("trials", "N", Some("200"), "Monte-Carlo trials"),
            SEED, SEMANTICS, STRATEGY, METRICS, TRACE] },
    Command { words: &["slices"], summary: "per-slice stretch statistics",
        run: |_, f| cmd_slices(f), flags: &[TOPOLOGY, FILE, K, SEED, STRATEGY] },
    Command { words: &["forward"], summary: "drain seeded Zipf bursts through the sharded batch forwarder",
        run: |_, f| cmd_forward(f), flags: &[TOPOLOGY, FILE, K, SEED, STRATEGY, FAIL, FAIL_EDGE,
            flag("burst", "N", Some("256"), "packets per burst"),
            flag("bursts", "N", Some("64"), "bursts per shard"),
            flag("shards", "N", Some("2"), "batch workers on scoped threads")] },
    Command { words: &["daemon"], summary: "the long-running control-plane daemon",
        run: |_, f| cmd_daemon(f), flags: &[TOPOLOGY, FILE, K, SEED, STRATEGY,
            flag("listen", "ADDR", Some("127.0.0.1:0"), "admin address, printed once bound: /metrics, /healthz, \
                /snapshot, GET /show/fib, GET /show/slices, POST /events, POST /shutdown"),
            flag("schedule", "SPEC", None, "'+'-joined event tokens fed one per tick: f<e> g<e1>.<e2> n<v> w<slice>.<edge>.<milli> r<e>"),
            flag("schedule-churn", "N", Some("0"), "generate an N-event churn schedule instead, seeded by --seed"),
            flag("interval-ms", "N", Some("50"), "event-injection tick, deadline-paced"),
            flag("max-batch", "N", Some("16"), "events coalesced per repair pass"),
            flag("workers", "N", Some("2"), "subscribed forwarding workers"),
            flag("burst", "N", Some("128"), "packets per worker burst"),
            flag("duration-secs", "N", Some("0"), "exit after N seconds; 0 runs until POST /shutdown"),
            METRICS,
            flag("manifest", "PATH", None, "write the run-manifest JSON on exit")] },
    Command { words: &["exp", "list"], summary: "list the experiment catalogue",
        run: |_, _| { exp_list(); Ok(()) }, flags: &[] },
    Command { words: &["exp", "run", "<experiment>"], summary: "run one experiment",
        run: |w, f| exp_run(w[2], f), flags: EXP },
    Command { words: &["exp", "run-all"], summary: "run every experiment, journaling shards",
        run: |_, f| exp_run_all(false, f), flags: EXP },
    Command { words: &["exp", "resume"], summary: "like run-all, skipping completed shards",
        run: |_, f| exp_run_all(true, f), flags: EXP },
    Command { words: &["testkit", "replay", "<spec>"], summary: "replay the scenario a failing soak prints, e.g. rand-8-12-99/k3d/s7/f4+n1",
        run: |w, _| testkit_replay(w[2]), flags: &[] },
    Command { words: &["testkit", "soak"], summary: "replay generated scenarios; shrink and print the first divergence",
        run: |_, f| testkit_soak(f), flags: &[
            flag("trials", "N", Some("200"), "scenarios"),
            flag("seed", "N", Some("7"), "scenario seed"),
            flag("budget-secs", "N", None, "stop early after N seconds"),
            flag("forward-flows", "N", Some("0"), "forward-oracle flows per scenario")] },
    Command { words: &["help"], summary: "this message",
        run: |_, _| { print!("{}", help()); Ok(()) }, flags: &[] },
];

/// The row `words` name; no words is `help`.
fn lookup(words: &[&str]) -> Option<&'static Command> {
    let words = if words.is_empty() { &["help"] } else { words };
    let fits = |(p, w): (&&str, &&str)| p.starts_with('<') || p == w;
    COMMANDS
        .iter()
        .find(|c| c.words.len() == words.len() && c.words.iter().zip(words).all(fits))
}

/// Split a command line into its operand words (command, subcommand,
/// experiment name, replay spec) and its flags: everything from the first
/// `-`-prefixed argument on.
fn split_words(argv: &[String]) -> (Vec<&str>, &[String]) {
    let (words, flags) = argv.split_at(argv.iter().take_while(|a| !a.starts_with('-')).count());
    (words.iter().map(String::as_str).collect(), flags)
}

/// `splice help`: every row of [`COMMANDS`], then each row's flags. A
/// flag an earlier row already described is only named.
fn help() -> String {
    let mut out =
        "splice — path splicing on ISP topologies\n\nusage: splice <command> [flags]\n       \
        (`--help` after any command prints this message)\n\ncommands:\n"
            .to_string();
    for c in COMMANDS {
        let words = c.words.join(" ") + if c.flags.is_empty() { "" } else { " [flags]" };
        out += &format!("  {words:<30} {}\n", c.summary);
    }
    out += "\nEach command rejects a flag it does not read. Exit status: 0 ok, 1 the run failed\n\
        (daemon: the live FIB differs from its replay oracle; testkit: a divergence), 2 bad usage.\n";
    let mut described: Vec<&Flag> = Vec::new();
    for c in COMMANDS.iter().filter(|c| !c.flags.is_empty()) {
        out += &format!("\n{} flags:\n", c.words.join(" "));
        let (known, new): (Vec<&Flag>, _) = c.flags.iter().partition(|f| described.contains(f));
        if !known.is_empty() {
            let names: Vec<String> = known.iter().map(|f| format!("--{}", f.name)).collect();
            out += &format!("  {}  (as above)\n", names.join(" "));
        }
        for f in new {
            let flag = format!("--{} {}", f.name, f.value);
            let flag = if flag.len() <= 30 {
                flag
            } else {
                format!("{flag}\n{:32}", "")
            };
            let default = f.default.map(|d| format!(" (default {d})"));
            out += &format!("  {flag:<30} {}{}\n", f.help, default.unwrap_or_default());
            described.push(f);
        }
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{}", help());
        exit(2);
    }
    let (words, flags) = split_words(&argv);
    let Some(command) = lookup(&words) else {
        let words = words.join(" ");
        fail(&format!("unknown command {words:?} (try `splice help`)"))
    };
    let result = match Flags::parse(flags, command.flags) {
        Ok(flags) => (command.run)(&words, &flags),
        Err(ArgsError::Help) => {
            print!("{}", help());
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    };
    if let Err(e) = result {
        fail(&e);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("splice: {msg}");
    exit(2);
}

/// Exit 1 on a run failure: the command's input was fine, its run was not.
fn run_failed(e: impl std::fmt::Display) -> ! {
    eprintln!("splice: {e}");
    exit(1);
}

/// The deployment `--k`, `--seed` and `--strategy` ask for, over `topo`'s
/// graph.
fn build(topo: &Topology, flags: &Flags) -> Result<(Graph, Splicing), ArgsError> {
    let k = flags.get_count("k")?.expect("--k has a default");
    let seed: u64 = flags.get_parsed("seed")?;
    let cfg = SplicingConfig::degree_based(k, 0.0, 3.0)
        .with_strategy(flags.get_choice("strategy", StrategyKind::parse)?);
    let g = topo.graph();
    let splicing = Splicing::build(&g, &cfg, seed);
    Ok((g, splicing))
}

/// Write `contents` to `path`, creating parent directories.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// The experiment engine's arguments from [`flag::EXP`], whose defaults
/// are [`LabArgs::default`]'s.
fn lab_args(flags: &Flags) -> Result<LabArgs, ArgsError> {
    Ok(LabArgs {
        trials: flags.get_count("trials")?,
        seed: flags.get_parsed("seed")?,
        topology: flags.value("topology").to_string(),
        out: PathBuf::from(flags.value("out")),
        semantics: flags.get_choice("semantics", SpliceSemantics::parse)?,
        strategy: flags.get_choice("strategy", StrategyKind::parse)?,
        listen: flags.get("listen").map(String::from),
        linger_secs: flags.get_parsed("linger-secs")?,
    })
}

/// `splice exp list`: the experiment catalogue, one line each.
fn exp_list() {
    println!("experiments ({}):", CATALOGUE.len());
    for exp in CATALOGUE {
        let aliases = if exp.aliases.is_empty() {
            String::new()
        } else {
            format!(" (alias: {})", exp.aliases.join(", "))
        };
        println!("  {:<26} {}{}", exp.name, exp.describe, aliases);
    }
}

/// `splice exp run <name>`: one experiment through the lab engine.
fn exp_run(name: &str, flags: &Flags) -> Result<(), String> {
    let exp = find(CATALOGUE, name)
        .ok_or_else(|| format!("unknown experiment {name:?} (try `splice exp list`)"))?;
    let args = lab_args(flags)?;
    run_experiment(exp, &args, &DeploymentCache::new()).unwrap_or_else(|e| run_failed(e));
    Ok(())
}

/// `splice exp run-all` / `resume`: the whole catalogue, journaled to
/// per-experiment shards; `resume` skips shards already complete. Every
/// row runs; the command exits 1 naming the rows that failed.
fn exp_run_all(resume: bool, flags: &Flags) -> Result<(), String> {
    let args = lab_args(flags)?;
    let summary = run_all(CATALOGUE, &args, resume).unwrap_or_else(|e| run_failed(e));
    if !summary.failed.is_empty() {
        run_failed(format!(
            "{} of {} experiment(s) failed: {}",
            summary.failed.len(),
            CATALOGUE.len(),
            summary.failed.join(", ")
        ));
    }
    Ok(())
}

/// `splice testkit replay <spec>` — re-run a scenario printed by a
/// failing soak/CI run through the full differential harness.
fn testkit_replay(spec: &str) -> Result<(), String> {
    let sc = Scenario::from_spec(spec)?;
    match replay(&sc, &ReplayOptions::default()) {
        Ok(report) => {
            println!(
                "PASS {spec}: {} event(s), {} next-hop + {} distance checks, {} walk(s)",
                report.events_applied,
                report.next_hop_checks,
                report.distance_checks,
                report.walks_checked
            );
            Ok(())
        }
        Err(div) => {
            eprintln!("FAIL {spec}");
            eprintln!("  {div}");
            exit(1);
        }
    }
}

/// Flight-recorder events dumped after a soak failure report.
const FLIGHT_TAIL: usize = 16;

/// `splice testkit soak` — generate random scenarios, replay each
/// against the differential oracles, and shrink + report the first
/// divergence (exit 1).
fn testkit_soak(flags: &Flags) -> Result<(), String> {
    let trials: u64 = flags.get_parsed("trials")?;
    let seed: u64 = flags.get_parsed("seed")?;
    let budget_secs: Option<u64> = flags.get_opt("budget-secs")?;
    let forward_flows: usize = flags.get_parsed("forward-flows")?;
    let opts = ReplayOptions::default();
    let fwd_opts = ForwardOracleOptions {
        flows: forward_flows,
        ..Default::default()
    };
    let started = Instant::now();
    let mut events_total = 0usize;
    let mut walks_total = 0usize;
    let mut flows_total = 0usize;
    let mut ran = 0u64;

    for trial in 0..trials {
        if let Some(budget) = budget_secs {
            if started.elapsed().as_secs() >= budget {
                println!("soak: budget of {budget}s reached after {ran} trials; stopping early");
                break;
            }
        }
        let sc = Scenario::generate(derive_seed(seed, 0, trial));
        ran += 1;
        match replay(&sc, &opts) {
            Ok(report) => {
                events_total += report.events_applied;
                walks_total += report.walks_checked;
            }
            Err(div) => soak_failed(trial, "", &sc, *div, &opts, |c| {
                replay(c, &opts).err().map(|b| *b)
            }),
        }
        // Forwarding under churn: the same scenario's flows through
        // batch, scalar, and naive engines at every repair checkpoint.
        if forward_flows > 0 {
            match forward_oracle(&sc, &fwd_opts) {
                Ok(report) => flows_total += report.flows_checked,
                Err(div) => soak_failed(trial, " forward-oracle", &sc, *div, &opts, |c| {
                    forward_oracle(c, &fwd_opts).err().map(|b| *b)
                }),
            }
        }
    }

    println!(
        "soak: {ran} trials clean in {:.1}s ({events_total} events, {walks_total} walks, \
         {flows_total} flows checked) seed={seed}",
        started.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// Report trial `trial`'s divergence, shrink the scenario under `check`
/// (which must keep reproducing it), print the shrunk counterexample
/// with its replay command, and exit 1.
fn soak_failed(
    trial: u64,
    oracle: &str,
    sc: &Scenario,
    div: Divergence,
    opts: &ReplayOptions,
    check: impl Fn(&Scenario) -> Option<Divergence>,
) -> ! {
    eprintln!("soak: trial {trial}{oracle} diverged: {div}");
    eprintln!("soak: original scenario: {}", sc.spec());
    let out = shrink(sc, div, check);
    let shrunk = &out.scenario;
    eprintln!(
        "soak: shrunk to ({} candidates tried): {}",
        out.attempts,
        shrunk.spec()
    );
    eprintln!("soak: divergence: {}", out.divergence);
    eprintln!("soak: reproduce with:");
    eprintln!("  {}", shrunk.replay_command());
    eprintln!("soak: flight recorder, last {FLIGHT_TAIL} events of the shrunk replay:");
    for line in flight_tail(shrunk, opts, FLIGHT_TAIL).lines() {
        eprintln!("  {line}");
    }
    exit(1);
}

/// Append `ev` to the daemon's ingest log and enqueue it, under one lock
/// so the log's order is exactly the channel's order (the ticker and any
/// number of `POST /events` clients race on this).
fn submit_event(log: &Mutex<Vec<ControlEvent>>, handle: &ControlHandle, ev: ControlEvent) -> bool {
    let mut log = log.lock().expect("event log lock poisoned");
    log.push(ev.clone());
    handle.event(ev)
}

/// `splice daemon` — the long-running control-plane daemon. Its log
/// lines keep the `[spliced]` tag they have always had.
///
/// One process, three thread groups, no async runtime:
///
/// - the **event loop** ([`run_event_loop`]) owns the mutable
///   deployment, coalesces typed topology events into `repair_batch`
///   passes, and publishes immutable FIB snapshots to a `SnapshotHub`
///   under monotone epochs;
/// - **forwarding workers** ([`run_live`]) subscribe to the hub and
///   drain seeded traffic bursts over whatever snapshot is current,
///   never blocking the control plane;
/// - the **admin server** ([`serve_with_router`], plain `std::net`)
///   serves the scrape routes (`/metrics`, `/healthz`, `/snapshot`) plus
///   the daemon routes: `GET /show/fib`, `GET /show/slices`,
///   `POST /events` (a `+`-joined schedule of event tokens like
///   `f4+w2.5.1500+r4`), and `POST /shutdown`.
///
/// Events reach the loop from two producers — the `--schedule` ticker
/// (deadline-paced, one event per tick) and `POST /events` — both
/// funneled through one submission lock so the daemon's ingest order is
/// recorded exactly. On exit, everything ingested is replayed through a
/// *second* control plane with a different batch partition; the run
/// fails (exit 1) unless both final FIB checksums are bit-identical.
/// That is the daemon's contract: live coalescing must land on exactly
/// the state the offline batch path computes.
///
/// There is no signal handling (pure std): stop the daemon with
/// `curl -X POST <addr>/shutdown` or bound the run with
/// `--duration-secs`. Both paths exit cleanly, flushing the final
/// registry snapshot (`--metrics`) and run manifest (`--manifest`).
fn cmd_daemon(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let (g, base) = build(&topo, flags)?;
    let (k, strategy) = (base.k(), base.strategy());
    let seed: u64 = flags.get_parsed("seed")?;
    let listen = flags.value("listen");
    let interval_ms: u64 = flags.get_parsed("interval-ms")?;
    let max_batch: usize = flags.get_parsed("max-batch")?;
    let workers: usize = flags.get_parsed("workers")?;
    let burst_size: usize = flags.get_parsed("burst")?;
    let duration_secs: u64 = flags.get_parsed("duration-secs")?;
    if max_batch == 0 || workers == 0 || burst_size == 0 {
        return Err("--max-batch, --workers and --burst must all be at least 1".into());
    }

    // The schedule fed on the tick grid: explicit tokens, or a seeded
    // churn stream, or nothing (events then arrive only via POST).
    let schedule: Vec<ControlEvent> = if let Some(spec) = flags.get("schedule") {
        ControlEvent::parse_schedule(spec)?
    } else {
        let churn: usize = flags.get_parsed("schedule-churn")?;
        splice_testkit::churn_schedule(&g, k, churn, seed)
    };
    for ev in &schedule {
        ev.validate(&g, k)?;
    }

    let registry = Registry::new();
    let flight = FlightRecorder::new(1024);
    let spf_tel = SpfTelemetry::register(&registry).with_flight(flight.clone());
    let latency = registry.histogram(&series::EVENT_VISIBLE_SECONDS, None);

    let cp = ControlPlane::new(g.clone(), base.clone(), max_batch).with_telemetry(spf_tel);
    let hub = Arc::clone(cp.hub());
    let (handle, rx) = control_channel();
    let stop = Arc::new(AtomicBool::new(false));
    let log: Arc<Mutex<Vec<ControlEvent>>> = Arc::new(Mutex::new(Vec::new()));

    // Admin routes. `/show/slices` is construction-time state, built
    // once; `/show/fib` reads the hub live.
    let slices_json = {
        let mut obj = JsonObject::new()
            .field_str("topology", &topo.name)
            .field_u64("k", k as u64)
            .field_str("strategy", strategy.name())
            .field_u64("seed", seed)
            .field_u64("nodes", g.node_count() as u64)
            .field_u64("links", g.edge_count() as u64);
        let mut sums = JsonArray::new();
        for s in 0..k {
            sums = sums.push_f64(base.weights(s).iter().sum::<f64>());
        }
        obj = obj.field_raw("slice_weight_sums", &sums.finish());
        obj.finish()
    };
    let router = Router::new()
        .route("GET", "/show/fib", {
            let hub = Arc::clone(&hub);
            move |_req| {
                let fib = hub.load();
                AdminResponse::json(
                    JsonObject::new()
                        .field_u64("epoch", hub.epoch())
                        .field_u64("k", fib.k() as u64)
                        .field_u64("n", fib.n() as u64)
                        .field_u64("state_bytes", fib.state_bytes() as u64)
                        .finish(),
                )
            }
        })
        .route("GET", "/show/slices", move |_req| {
            AdminResponse::json(slices_json.clone())
        })
        .route("POST", "/events", {
            let g = g.clone();
            let handle = handle.clone();
            let log = Arc::clone(&log);
            move |req| match ControlEvent::parse_schedule(&req.body) {
                Err(e) => AdminResponse::bad_request(format!("{e}\n")),
                Ok(events) => {
                    if let Some(e) = events.iter().find_map(|ev| ev.validate(&g, k).err()) {
                        return AdminResponse::bad_request(format!("{e}\n"));
                    }
                    let count = events.len();
                    for ev in events {
                        submit_event(&log, &handle, ev);
                    }
                    AdminResponse::text(format!("accepted {count} event(s)\n"))
                }
            }
        })
        .route("POST", "/shutdown", {
            let stop = Arc::clone(&stop);
            move |_req| {
                stop.store(true, Ordering::SeqCst);
                AdminResponse::text("shutting down\n")
            }
        });
    let server = serve_with_router(listen, registry.clone(), Some(flight.clone()), router)
        .map_err(|e| format!("cannot bind --listen {listen}: {e}"))?;
    println!("[spliced] listening on http://{}", server.local_addr());
    println!(
        "[spliced] {} (k = {k}, strategy {}), {} scheduled event(s), \
         max batch {max_batch}, {} worker(s), tick {interval_ms} ms, {}",
        topo.name,
        strategy.name(),
        schedule.len(),
        workers,
        if duration_secs == 0 {
            "running until POST /shutdown".to_string()
        } else {
            format!("running {duration_secs}s")
        }
    );

    // Control plane on its own thread; workers on another. The main
    // thread is the schedule ticker and lifecycle owner.
    let loop_latency = Arc::clone(&latency);
    let event_loop = std::thread::spawn(move || run_event_loop(cp, rx, Some(&loop_latency)));

    let fwd_tel = ForwardTelemetry::register(&registry);
    let worker_handle = {
        let hub = Arc::clone(&hub);
        let stop = Arc::clone(&stop);
        let tel = fwd_tel.clone();
        let mask = EdgeMask::all_up(g.edge_count());
        let n = g.node_count() as u32;
        std::thread::spawn(move || {
            let gen = FlowGen::new(FlowConfig::new(n, k, seed));
            run_live(
                workers,
                ForwarderOptions::default(),
                &hub,
                &mask,
                Some(&tel),
                &stop,
                move |shard, burst, buf| {
                    // Per-(shard, burst) seeded streams, same construction
                    // as `splice forward`, wrapped so the daemon can run
                    // indefinitely.
                    let stream = shard * (1 << 20) + (burst as usize & ((1 << 20) - 1));
                    gen.stream(stream).fill_burst(burst_size, buf);
                },
            )
        })
    };

    let started = Instant::now();
    let mut ticker = Ticker::new(Duration::from_millis(interval_ms));
    let mut fed = 0usize;
    while !stop.load(Ordering::SeqCst) {
        if duration_secs > 0 && started.elapsed() >= Duration::from_secs(duration_secs) {
            break;
        }
        if fed < schedule.len() {
            submit_event(&log, &handle, schedule[fed].clone());
            fed += 1;
        }
        ticker.wait();
    }
    let wall = started.elapsed();

    // Graceful teardown: stop the workers, then flush + drain the
    // control plane, then verify against the oracle.
    stop.store(true, Ordering::SeqCst);
    let reports = worker_handle.join().expect("forwarding workers panicked");
    handle.shutdown();
    let (cp, loop_report) = event_loop.join().expect("control event loop panicked");

    // Exit oracle: fold the exact ingest log, one event per pass, through
    // the memo-free `Splicing::repair_batch` — a different batch
    // partition and none of the control plane's state (its shadow
    // weights, its distance memo). The two final FIBs must be
    // bit-identical: any batch partition of the same schedule lands on
    // the same deployment.
    let events = log.lock().expect("event log lock poisoned").clone();
    let weights: Vec<Vec<f64>> = (0..base.k()).map(|s| base.weights(s).to_vec()).collect();
    let oracle = apply_batches(&g, &base, &schedule_to_batches(&weights, &events, 1));
    let daemon_sum = fib_checksum(cp.graph(), cp.current());
    let oracle_sum = fib_checksum(&g, &oracle);

    let packets: u64 = reports.iter().map(|r| r.stats.packets).sum();
    let bursts: u64 = reports.iter().map(|r| r.bursts).sum();
    let epochs_seen: u64 = reports.iter().map(|r| r.epochs_seen).max().unwrap_or(0);
    let pps = packets as f64 / wall.as_secs_f64().max(1e-9);
    let (lat_p50, _, lat_p99) = latency.quantiles();
    let stats = loop_report.stats;
    println!(
        "[spliced] {} event(s) in {:.1}s: {} repair pass(es), {} as full rebuild(s), \
         {} publish(es) (final epoch {}), {} arena(s) recycled",
        stats.events,
        wall.as_secs_f64(),
        stats.repair_batches,
        stats.rebuilds,
        stats.publishes,
        loop_report.final_epoch,
        stats.arenas_recycled
    );
    println!(
        "[spliced] event->FIB-visible p50 {:.6}s p99 {:.6}s; \
         forwarded {packets} packet(s) in {bursts} burst(s) ({pps:.0} pps), \
         workers saw {epochs_seen} epoch(s); {} tick(s) missed",
        lat_p50,
        lat_p99,
        ticker.missed()
    );
    println!(
        "[spliced] fib checksum {daemon_sum:016x} vs batch oracle {oracle_sum:016x} ({})",
        if daemon_sum == oracle_sum {
            "match"
        } else {
            "MISMATCH"
        }
    );

    if let Some(path) = flags.get("metrics") {
        write_file(path, &registry.render_prometheus())?;
        println!("[spliced] wrote {path}");
    }
    if let Some(path) = flags.get("manifest") {
        let manifest = JsonObject::new()
            .field_u64("schema", 1)
            .field_str("topology", &topo.name)
            .field_u64("k", k as u64)
            .field_str("strategy", strategy.name())
            .field_u64("seed", seed)
            .field_u64("max_batch", max_batch as u64)
            .field_u64("workers", workers as u64)
            .field_u64("interval_ms", interval_ms)
            .field_f64("wall_seconds", wall.as_secs_f64())
            .field_u64("events", stats.events)
            .field_u64("repair_batches", stats.repair_batches)
            .field_u64("rebuilds", stats.rebuilds)
            .field_u64("publishes", stats.publishes)
            .field_u64("arenas_recycled", stats.arenas_recycled)
            .field_u64("final_epoch", loop_report.final_epoch)
            .field_bool("clean_shutdown", loop_report.clean_shutdown)
            .field_f64("event_visible_p50_seconds", lat_p50)
            .field_f64("event_visible_p99_seconds", lat_p99)
            .field_u64("packets_forwarded", packets)
            .field_f64("forward_pps", pps)
            .field_u64("ticks_missed", ticker.missed())
            .field_str("fib_checksum", &format!("{daemon_sum:016x}"))
            .field_str("oracle_checksum", &format!("{oracle_sum:016x}"))
            .field_bool("checksums_match", daemon_sum == oracle_sum)
            .finish();
        write_file(path, &(manifest + "\n"))?;
        println!("[spliced] wrote {path}");
    }
    server.shutdown();

    if daemon_sum != oracle_sum {
        run_failed("daemon: live FIB diverged from the batch oracle");
    }
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let g = topo.graph();
    println!("topology : {}", topo.name);
    println!("nodes    : {}", g.node_count());
    println!("links    : {}", g.edge_count());
    println!(
        "degrees  : min {} / avg {:.2} / max {}",
        g.min_degree(),
        2.0 * g.edge_count() as f64 / g.node_count() as f64,
        g.max_degree()
    );
    if let Some(cut) = min_cut_links(&g) {
        println!("min cut  : {cut} link(s)");
    }
    let mask = resolve_failures(&topo, flags)?;
    if mask.failed_count() > 0 {
        let disc = splice_graph::traversal::disconnected_pairs(&g, &mask);
        let n = g.node_count();
        println!(
            "with {} failed link(s): {} of {} ordered pairs disconnected",
            mask.failed_count(),
            disc,
            n * (n - 1)
        );
    }
    let hubs: Vec<String> = {
        let mut by_degree: Vec<_> = g.nodes().map(|u| (g.degree(u), u)).collect();
        by_degree.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
        by_degree
            .iter()
            .take(5)
            .map(|&(d, u)| format!("{} ({d})", topo.node_name(u)))
            .collect()
    };
    println!("hubs     : {}", hubs.join(", "));
    Ok(())
}

fn trace_names(topo: &Topology, trace: &Trace) -> String {
    trace
        .steps
        .iter()
        .map(|s| format!("{}[s{}]", topo.node_name(s.node), s.slice))
        .chain(std::iter::once(topo.node_name(trace.last).to_string()))
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn cmd_route(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let (g, splicing) = build(&topo, flags)?;
    let src = resolve_node(&topo, flags.get("src").ok_or("--src required")?)?;
    let dst = resolve_node(&topo, flags.get("dst").ok_or("--dst required")?)?;
    let mask = resolve_failures(&topo, flags)?;
    let slice: usize = flags.get_parsed("slice")?;
    if slice >= splicing.k() {
        return Err(format!(
            "--slice {slice} out of range (k = {})",
            splicing.k()
        ));
    }
    let fwd = Forwarder::new(&splicing, &mask);
    let out = fwd.forward(
        src,
        dst,
        ForwardingBits::stay_in_slice(slice, splicing.k()),
        &ForwarderOptions::default(),
    );
    match out {
        ForwardingOutcome::Delivered(trace) => {
            println!("delivered in {} hops via slice {slice}", trace.hop_count());
            println!("{}", trace_names(&topo, &trace));
            // A zero-hop delivery (src = dst) has no path to stretch.
            if trace.hop_count() == 0 {
                println!("latency 0.00 ms");
            } else {
                let latency = trace.length(&topo.latencies());
                let spt = splice_graph::dijkstra(&g, dst, &g.base_weights());
                let base = spt
                    .path_from(src)
                    .map(|p| p.length(&topo.latencies()))
                    .unwrap_or(f64::NAN);
                println!(
                    "latency {latency:.2} ms ({:.2}x the base shortest path)",
                    latency / base
                );
            }
        }
        ForwardingOutcome::LinkDown { trace, slice } => {
            println!(
                "dropped at {} — slice {slice}'s next hop link is down",
                topo.node_name(trace.last)
            );
            println!("(try `splice recover` with the same flags)");
        }
        other => println!("not delivered: {other:?}"),
    }
    Ok(())
}

fn cmd_recover(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let (g, splicing) = build(&topo, flags)?;
    let src = resolve_node(&topo, flags.get("src").ok_or("--src required")?)?;
    let dst = resolve_node(&topo, flags.get("dst").ok_or("--dst required")?)?;
    let mask = resolve_failures(&topo, flags)?;
    if mask.failed_count() == 0 {
        return Err("recovery needs at least one --fail".into());
    }
    let scheme = flags.value("scheme");
    // The walk the data-plane lines below report on.
    let replay = match scheme {
        "end-system" => {
            let seed: u64 = flags.get_parsed("seed")?;
            let mut rng = Rng::seed_from_u64(seed);
            let trials = flags.get_count("trials")?.expect("--trials has a default");
            let fwd = Forwarder::new(&splicing, &mask);
            let opts = ForwarderOptions::default();
            let rec = EndSystemRecovery {
                max_trials: trials,
                ..Default::default()
            };
            let out = rec.recover(&fwd, src, dst, 0, &opts, &mut rng);
            if out.recovered {
                let trace = out
                    .delivery
                    .expect("recovered outcome always carries its delivery trace");
                println!(
                    "recovered in {} trial(s); {} hops, {} slice switch(es)",
                    out.trials,
                    trace.hop_count(),
                    trace.slice_switches()
                );
                println!("{}", trace_names(&topo, &trace));
            } else {
                println!("not recovered within {trials} trials");
            }
            // What the routers see before the end system reacts: the
            // slice-0 packet, no in-network recovery.
            let slice0 = ForwardingBits::stay_in_slice(0, splicing.k());
            fwd.forward(src, dst, slice0, &opts)
        }
        "network" => {
            let out = NetworkRecovery::default().forward(&splicing, &mask, src, dst, 0);
            match &out {
                ForwardingOutcome::Delivered(trace) => {
                    println!(
                        "delivered with in-network deflection; {} hops, {} slice switch(es)",
                        trace.hop_count(),
                        trace.slice_switches()
                    );
                    println!("{}", trace_names(&topo, trace));
                }
                other => println!("not delivered: {other:?}"),
            }
            out
        }
        other => return Err(format!("unknown --scheme {other:?}")),
    };

    let registry = Registry::new();
    NetTelemetry::register(&registry).observe(&replay, 0);
    let mut stats = vec![RouterStats::default(); g.node_count()];
    RouterStats::tally(&mut stats, &replay, 0);
    let latencies = topo.latencies();
    let trace = replay.trace();
    println!(
        "data plane replay ({}): {}",
        if scheme == "network" {
            "network recovery on"
        } else {
            "no in-network recovery"
        },
        match drop_reason_label(&replay) {
            None => format!(
                "delivered, {} hop(s), {:.2} ms",
                trace.hop_count(),
                trace.length(&latencies)
            ),
            Some(reason) => format!("dropped at {} ({reason})", topo.node_name(trace.last)),
        }
    );
    print_router_stats(&topo, &stats);
    if let Some(path) = flags.get("metrics") {
        write_reported(path, &registry.render_prometheus())?;
    }
    if let Some(path) = flags.get("trace") {
        write_reported(path, &(walk_to_json(&replay, &latencies) + "\n"))?;
    }
    Ok(())
}

/// Print the aggregate and noteworthy per-router counters of a walk.
fn print_router_stats(topo: &Topology, stats: &[RouterStats]) {
    let forwarded: u64 = stats.iter().map(|s| s.forwarded).sum();
    let delivered: u64 = stats.iter().map(|s| s.delivered).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped).sum();
    let deflections: u64 = stats.iter().map(|s| s.deflections).sum();
    println!(
        "router stats: forwarded {forwarded} | delivered {delivered} | dropped {dropped} | deflections {deflections}"
    );
    for (i, st) in stats.iter().enumerate() {
        if st.deflections > 0 || st.dropped > 0 {
            println!(
                "  {}: {} forwarded, {} deflection(s), {} dropped",
                topo.node_name(NodeId(i as u32)),
                st.forwarded,
                st.deflections,
                st.dropped
            );
        }
    }
}

/// Write a `--metrics` or `--trace` file and say so.
fn write_reported(path: &str, contents: &str) -> Result<(), String> {
    write_file(path, contents)?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_reliability(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let g = topo.graph();
    let ks = flags.get_counts("k")?;
    let ps: Vec<f64> = flags.get_list("p")?;
    let trials = flags.get_count("trials")?.expect("--trials has a default");
    let seed: u64 = flags.get_parsed("seed")?;
    let semantics = flags.get_choice("semantics", SpliceSemantics::parse)?;
    let kmax = *ks.iter().max().expect("--k lists a count");
    // NaN would panic a worker's coin flip; anything else outside [0, 1]
    // would be clamped while the table still printed it.
    if let Some(p) = ps.iter().find(|p| !(0.0..=1.0).contains(*p)) {
        return Err(format!("bad --p {p}: a failure probability is in [0, 1]"));
    }
    let strategy = flags.get_choice("strategy", StrategyKind::parse)?;
    let cfg = ReliabilityConfig {
        ks: ks.clone(),
        ps: ps.clone(),
        trials,
        splicing: SplicingConfig::degree_based(kmax, 0.0, 3.0).with_strategy(strategy),
        semantics,
        seed,
    };
    let metrics = flags.get("metrics");
    let trace = flags.get("trace");
    let registry = Registry::new();
    let telemetry =
        (metrics.is_some() || trace.is_some()).then(|| ExperimentTelemetry::register(&registry));
    let out = reliability_experiment(&g, &cfg, telemetry.as_ref());
    println!(
        "{}: fraction of pairs disconnected ({trials} trials, {:?}):",
        topo.name, semantics
    );
    print!("  {:<8}", "p");
    for curve in &out.curves {
        print!("{:<18}", curve.label);
    }
    println!("{:<14}", "best possible");
    for (pi, &p) in ps.iter().enumerate() {
        print!("  {p:<8}");
        for curve in &out.curves {
            print!("{:<18.4}", curve.points[pi].1);
        }
        println!("{:<14.4}", out.best_possible.points[pi].1);
    }

    if telemetry.is_some() {
        // Data-plane sampling pass: one deflecting walk per ordered pair
        // under one sampled failure mask per p, so the packet counters in
        // the snapshot reflect the sweep just printed.
        let splicing = Splicing::build(&g, &cfg.splicing, seed);
        let tel = NetTelemetry::register(&registry);
        let mut jsonl = String::new();
        let latencies = topo.latencies();
        let nr = NetworkRecovery::default();
        let mut rng = Rng::seed_from_u64(seed);
        for &p in &ps {
            let fail_mask: EdgeMask = FailureModel::IidLinks { p }.sample(&g, &mut rng);
            for s in g.nodes() {
                for t in g.nodes().filter(|&t| t != s) {
                    let out = nr.forward(&splicing, &fail_mask, s, t, 0);
                    tel.observe(&out, 0);
                    if trace.is_some() {
                        jsonl += &walk_to_json(&out, &latencies);
                        jsonl.push('\n');
                    }
                }
            }
        }
        let walks = (ps.len() * g.node_count() * (g.node_count() - 1)) as u64;
        println!(
            "data-plane sample: {walks} walk(s), forwarded {} | dropped {} | deflections {}",
            tel.forwarded.get(),
            walks - tel.delivered.get(),
            tel.deflections.get(),
        );
        if let Some(path) = trace {
            write_reported(path, &jsonl)?;
        }
    }
    if let Some(path) = metrics {
        write_reported(path, &registry.render_prometheus())?;
    }
    Ok(())
}

/// `splice forward` — drain seeded Zipf bursts through the sharded
/// batch forwarding workers over this deployment's FIB arena (respecting
/// `--fail`/`--fail-edge`), then print aggregate throughput, outcome
/// classes, and burst-latency quantiles. The workers are the daemon's
/// (`run_live`) on a hub nobody publishes to, so every burst forwards
/// over the one primed snapshot. The first burst is replayed through the
/// scalar walk packet-for-packet, so every run carries its own
/// batch-vs-scalar differential check.
fn cmd_forward(flags: &Flags) -> Result<(), String> {
    use splice_dataplane::{outcomes_checksum, scalar_walk, WalkOutcome};
    use splice_routing::SnapshotHub;

    let topo = resolve_topology(flags)?;
    let (g, splicing) = build(&topo, flags)?;
    let mask = resolve_failures(&topo, flags)?;
    let burst_size: usize = flags.get_parsed("burst")?;
    let bursts: u64 = flags.get_parsed("bursts")?;
    let shards: usize = flags.get_parsed("shards")?;
    if burst_size == 0 || bursts == 0 || shards == 0 {
        return Err("--burst, --bursts and --shards must all be at least 1".into());
    }
    let seed: u64 = flags.get_parsed("seed")?;
    let opts = ForwarderOptions::default();
    let gen = FlowGen::new(FlowConfig::new(g.node_count() as u32, splicing.k(), seed));
    let hub = SnapshotHub::new(std::sync::Arc::clone(splicing.arena()));
    let never_stop = std::sync::atomic::AtomicBool::new(false);

    let registry = Registry::new();
    let tel = ForwardTelemetry::register(&registry);
    let reports = run_live(
        shards,
        opts,
        &hub,
        &mask,
        Some(&tel),
        &never_stop,
        |shard, burst, buf| {
            if burst < bursts {
                gen.stream(shard * bursts as usize + burst as usize)
                    .fill_burst(burst_size, buf);
            }
        },
    );

    // Differential spot check: shard 0's first burst, scalar vs batch.
    let mut buf = Vec::new();
    gen.stream(0).fill_burst(burst_size, &mut buf);
    let scalar: Vec<WalkOutcome> = buf
        .iter()
        .map(|&(s, d, h)| {
            WalkOutcome::from_outcome(&scalar_walk(
                splicing.arena(),
                &mask,
                NodeId(s),
                NodeId(d),
                h,
                &opts,
            ))
        })
        .collect();
    let scalar_sum = outcomes_checksum(&scalar);
    let mut check_engine = splice_dataplane::BatchForwarder::new(opts);
    let batch_sum = outcomes_checksum(check_engine.forward_burst(splicing.arena(), &mask, &buf));

    let mut stats = splice_dataplane::BatchStats::default();
    let mut busy = 0.0;
    println!(
        "{}: {} shards x {} bursts x {} packets, k={}, {} links failed",
        topo.name,
        shards,
        bursts,
        burst_size,
        splicing.k(),
        mask.failed_count()
    );
    println!("  shard   packets     hops  busy_ms");
    for r in &reports {
        stats.merge(&r.stats);
        busy += r.busy_seconds;
        println!(
            "  {:<5} {:>9} {:>8} {:>8.2}",
            r.shard,
            r.stats.packets,
            r.stats.hops,
            r.busy_seconds * 1e3
        );
    }
    let secs = busy.max(1e-12);
    let (p50, _, p99) = tel.burst_seconds.quantiles();
    println!(
        "aggregate: {:.0} pps, {:.1} ns/hop, burst p50 {:.1}us p99 {:.1}us",
        stats.packets as f64 / secs,
        secs * 1e9 / stats.hops.max(1) as f64,
        p50 * 1e6,
        p99 * 1e6
    );
    println!(
        "outcomes: {} delivered, {} dead-end, {} link-down, {} loop, {} ttl",
        stats.delivered, stats.dead_end, stats.link_down, stats.persistent_loop, stats.ttl_exceeded
    );
    if scalar_sum == batch_sum {
        println!(
            "differential spot check: shard 0 burst 0 scalar == batch ({scalar_sum:016x}, {} packets)",
            scalar.len()
        );
    } else {
        return Err(format!(
            "differential spot check FAILED: scalar {scalar_sum:016x} != batch {batch_sum:016x}"
        ));
    }
    Ok(())
}

fn cmd_slices(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let (g, splicing) = build(&topo, flags)?;
    let latencies = topo.latencies();
    let per_slice = per_slice_stretch(&splicing, &g, &latencies);
    println!("{}: per-slice path stretch over all pairs:", topo.name);
    println!("  slice   mean    p99     max");
    for (i, samples) in per_slice.into_iter().enumerate() {
        let st = StretchStats::from_samples(samples).ok_or("no samples")?;
        println!("  {:<6}  {:.3}   {:.3}   {:.3}", i, st.mean, st.p99, st.max);
    }
    let diversity: usize = g
        .nodes()
        .map(|t| splicing.diversity_toward(t, splicing.k()))
        .sum();
    let n = g.node_count();
    println!(
        "mean next-hop diversity: {:.2} per (node, destination)",
        diversity as f64 / (n * (n - 1)) as f64
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(s: &[&str]) -> Flags {
        let argv: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        Flags::parse(&argv, flag::EXP).unwrap()
    }

    #[test]
    fn lab_args_defaults_and_overrides() {
        let a = lab_args(&flags(&[])).unwrap();
        assert_eq!(a, LabArgs::default());
        // The default is the paper's construction.
        assert_eq!(a.strategy, StrategyKind::PerturbedSpf);
        assert_eq!(a.configure(250).trials, 250);
        let a = lab_args(&flags(&[
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
        assert_eq!(a.configure(1).semantics, SpliceSemantics::Directed);
        assert_eq!(a.configure(1).strategy, StrategyKind::RandomSpanningTree);
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.linger_secs, 3);
        // Aliases parse; zero trials would average 0.0/0 into NaN rows.
        let spf = lab_args(&flags(&["--strategy", "spf"])).unwrap();
        assert_eq!(spf.strategy, StrategyKind::PerturbedSpf);
        for (args, flag) in [
            (&["--trials", "0"], "--trials"),
            (&["--strategy", "ospf"], "--strategy"),
            (&["--semantics", "both"], "--semantics"),
        ] {
            assert!(matches!(
                lab_args(&flags(args)),
                Err(ArgsError::BadValue { flag: f, .. }) if f == flag
            ));
        }
    }

    /// `line`'s words as a POSIX shell splits them, for the quoting the
    /// docs use (`"…"`, `'…'`), up to a `#` comment or a `&`, `|`, `;` or
    /// `>` that ends the command.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote) = (Vec::new(), None::<String>, None);
        for c in line.chars() {
            match quote {
                Some(q) if c == q => quote = None,
                Some(_) => word.get_or_insert_with(String::new).push(c),
                None if c == '"' || c == '\'' => {
                    quote = Some(c);
                    word.get_or_insert_with(String::new);
                }
                None if c.is_whitespace() => words.extend(word.take()),
                None if word.is_none() && "#&|;>".contains(c) => break,
                None => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        words
    }

    /// The `splice …` commands in `text`'s fenced blocks (a `.rs` file's
    /// from its `//!` doc), each with the line it starts on: a `$ ` or
    /// `lib/` prefix dropped, `\`-continued lines joined.
    fn fenced_commands(path: &str, text: &str) -> Vec<(usize, String)> {
        let mut commands: Vec<(usize, String)> = Vec::new();
        let (mut fenced, mut continued) = (false, false);
        for (i, line) in text.lines().enumerate() {
            let line = if path.ends_with(".rs") {
                line.strip_prefix("//!").unwrap_or("")
            } else {
                line
            };
            let line = line.trim();
            if continued {
                commands.last_mut().expect("a command continues").1 += line;
            } else if line.starts_with("```") {
                fenced = !fenced;
                continue;
            } else {
                let command = line.strip_prefix("$ ").unwrap_or(line);
                let command = command.strip_prefix("lib/").unwrap_or(command);
                if !fenced || !command.starts_with("splice ") {
                    continue;
                }
                commands.push((i + 1, command.to_string()));
            }
            let last = &mut commands.last_mut().expect("a command was read").1;
            continued = last.ends_with('\\');
            if continued {
                last.pop();
                last.push(' ');
            }
        }
        commands
    }

    /// Look `argv` (after `splice`) up as `main` does and parse its flags,
    /// then check an `exp run` experiment against the catalogue and a
    /// `testkit replay` spec against the scenario grammar. Runs nothing.
    fn check(argv: &[String]) -> Result<(), String> {
        let (words, flags) = split_words(argv);
        let command = lookup(&words).ok_or(format!("unknown command {:?}", words.join(" ")))?;
        Flags::parse(flags, command.flags)?;
        match words.as_slice() {
            ["exp", "run", name] if find(CATALOGUE, name).is_none() => {
                Err(format!("unknown experiment {name:?}"))
            }
            ["testkit", "replay", spec] => Scenario::from_spec(spec).map(drop),
            _ => Ok(()),
        }
    }

    /// Every `splice …` line in the docs' fenced blocks, and every
    /// `$LAB run …` line of `scripts/reproduce.sh`, names a command, flags
    /// and experiment the table and catalogue know.
    #[test]
    fn documented_commands_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |path: &str| {
            std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let mut commands: Vec<(&str, usize, String)> = Vec::new();
        for path in [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            "CONTRIBUTING.md",
            ".claude/skills/verify/SKILL.md",
            "crates/cli/src/lib.rs",
        ] {
            let found = fenced_commands(path, &read(path));
            commands.extend(found.into_iter().map(|(line, cmd)| (path, line, cmd)));
        }
        let script = "scripts/reproduce.sh";
        let text = read(script);
        assert!(
            text.contains(r#"LAB="target/release/splice exp""#),
            "{script}: $LAB moved"
        );
        for (i, line) in text.lines().enumerate() {
            if let Some(rest) = line.strip_prefix("run $LAB ") {
                commands.push((script, i + 1, format!("splice exp {rest}")));
            }
        }
        // A reader that found nothing would pass vacuously.
        for path in [
            "README.md",
            "EXPERIMENTS.md",
            "crates/cli/src/lib.rs",
            script,
        ] {
            assert!(
                commands.iter().any(|c| c.0 == path),
                "no command read from {path}"
            );
        }
        let failures: Vec<String> = commands
            .iter()
            .filter_map(|(path, line, cmd)| {
                let argv = shell_words(cmd);
                let e = check(&argv[1..]).err()?;
                Some(format!("{path}:{line}: {e}\n    {cmd}"))
            })
            .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// One registry built through every registrar in the workspace holds
    /// exactly the families [`SERIES`](splice_telemetry::SERIES) lists:
    /// a series registered outside the table, or a row nothing
    /// registers, fails here.
    #[test]
    fn series_table_is_what_the_registrars_register() {
        use splice_sim::lab::RunContext;
        use splice_sim::telemetry::TrialTelemetry;
        let cache = DeploymentCache::new();
        let topology = splice_topology::resolve("ring-4").unwrap();
        // The lab's two phase histograms.
        let ctx = RunContext::new(LabArgs::default().configure(1), topology, &cache);
        let registry = ctx.registry.clone();
        SpfTelemetry::register_for_strategy(&registry, "tree");
        NetTelemetry::register(&registry);
        ForwardTelemetry::register(&registry);
        TrialTelemetry::register(&registry);
        // `splice daemon`'s event-visible latency.
        registry.histogram(&series::EVENT_VISIBLE_SECONDS, None);

        let text = registry.render_prometheus();
        let mut registered: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_once(' '))
            .filter(|(_, kind)| *kind != "gauge")
            .map(|(name, _)| name)
            .collect();
        let mut listed: Vec<&str> = splice_telemetry::SERIES.iter().map(|s| s.name).collect();
        registered.sort_unstable();
        listed.sort_unstable();
        assert_eq!(registered, listed);
    }

    /// Every row of README.md's metric table names a series of the table
    /// with the type it states.
    #[test]
    fn readme_metric_table_names_series() {
        use splice_telemetry::series::Kind;
        let path = "README.md";
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join(path)).unwrap();
        let rows: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .skip_while(|(_, l)| !l.starts_with("| Metric | Type |"))
            .skip(2)
            .take_while(|(_, l)| l.starts_with('|'))
            .collect();
        assert!(!rows.is_empty(), "{path}: no metric table");
        let failures: Vec<String> = rows
            .iter()
            .filter_map(|&(i, row)| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let name = cells[1].trim_matches('`');
                let name = name.split('{').next().unwrap_or(name);
                let kind = match splice_telemetry::SERIES.iter().find(|s| s.name == name) {
                    None => return Some(format!("{path}:{}: {name} is not a series", i + 1)),
                    Some(s) => match s.kind {
                        Kind::Counter => "counter",
                        Kind::Histogram { .. } => "histogram",
                    },
                };
                (cells[2] != kind)
                    .then(|| format!("{path}:{}: {name} is a {kind}, not a {}", i + 1, cells[2]))
            })
            .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
