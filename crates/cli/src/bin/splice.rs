//! The `splice` command-line tool.
//!
//! ```text
//! splice <command> [flags]
//!
//! commands:
//!   info         topology statistics (nodes, links, degrees, min cut)
//!   route        forward a packet and print the hop-by-hop trace
//!   recover      break links and run end-system or network recovery
//!   reliability  quick Monte-Carlo disconnection numbers
//!   slices       per-slice stretch statistics
//!   forward      drain seeded traffic bursts through the sharded
//!                batch forwarding engine
//!   testkit      replay a fault-injection scenario by seed-spec
//!   exp          the experiment engine (same as `splice-lab`)
//! ```
//!
//! Run `splice help` for the full flag list.

use rand::rngs::StdRng;
use rand::SeedableRng;
use splice_cli::{resolve_failures, resolve_node, resolve_topology, Flags};
use splice_core::prelude::*;
use splice_core::slices::SplicingConfig;
use splice_core::strategy::StrategyKind;
use splice_core::stretch::{per_slice_stretch, StretchStats};
use splice_dataplane::{drop_reason_label, walk_to_json, NetTelemetry, RouterStats};
use splice_graph::mincut::min_cut_links;
use splice_graph::{EdgeMask, NodeId};
use splice_sim::reliability::{
    reliability_experiment_instrumented, ReliabilityConfig, SpliceSemantics,
};
use splice_sim::telemetry::ExperimentTelemetry;
use splice_sim::FailureModel;
use splice_telemetry::{Registry, TraceSink};
use splice_topology::Topology;

const HELP: &str = "\
splice — path splicing on ISP topologies

usage: splice <command> [flags]

commands:
  info         topology statistics (nodes, links, degrees, min cut)
  route        forward a packet and print the hop-by-hop trace
  recover      break links and run recovery
  reliability  quick Monte-Carlo disconnection numbers
  slices       per-slice stretch statistics
  forward      drain seeded Zipf bursts through the sharded batch
               forwarding engine and print throughput
  testkit      replay a fault-injection scenario by seed-spec
  exp          the experiment engine (same as `splice-lab`; try `splice exp list`)
  help         this message

common flags:
  --topology NAME                   built-in (sprint|geant|abilene) or a
                                    generator spec like rand-24-40-7 (default sprint)
  --file PATH                       edge-list topology file instead
  --k N                             number of slices (default 5)
  --seed N                          RNG seed (default 1)
  --strategy NAME                   slice construction: perturbed-spf
                                    (default), tree, lst or arc
  --fail A-B                        fail the named link (repeatable)
  --fail-edge ID                    fail a link by edge id (repeatable)

route/recover flags:
  --src NAME --dst NAME             endpoints (required)
  --slice N                         pin to one slice (route; default 0)
  --scheme end-system|network       recovery scheme (default end-system)
  --trials N                        recovery trials (default 5)

reliability flags:
  --k 1,5,10                        slice counts (comma list)
  --p 0.02,0.05,0.1                 failure probabilities (comma list)
  --trials N                        Monte-Carlo trials (default 200)
  --semantics union|directed        spliced-path accounting (default union)

forward flags:
  --burst N                         packets per burst (default 256)
  --bursts N                        bursts per shard (default 64)
  --shards N                        batch workers on scoped threads (default 2)

telemetry flags (recover, reliability):
  --metrics PATH                    write a Prometheus metric snapshot
  --trace PATH                      write packet walks as JSON lines

testkit:
  testkit replay <SPEC>             replay a scenario through the
                                    differential harness; SPEC is the
                                    token a failing soak/CI run prints,
                                    e.g. rand-8-12-99/k3d/s7/f4+n1
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprint!("{HELP}");
        std::process::exit(2);
    };
    // `testkit` takes positional operands, so it dispatches before the
    // flag parser (which rejects positionals).
    if command == "testkit" {
        if let Err(e) = cmd_testkit(&argv[1..]) {
            fail(&e);
        }
        return;
    }
    // `exp` forwards to the splice-lab experiment engine, which has its
    // own subcommand grammar (positional operands included).
    if command == "exp" {
        std::process::exit(splice_bench::lab_main(&argv[1..]));
    }
    let flags = match Flags::parse(&argv[1..]) {
        Ok(f) => f,
        Err(e) => fail(&e),
    };
    let result = match command {
        "info" => cmd_info(&flags),
        "route" => cmd_route(&flags),
        "recover" => cmd_recover(&flags),
        "reliability" => cmd_reliability(&flags),
        "slices" => cmd_slices(&flags),
        "forward" => cmd_forward(&flags),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `splice help`)")),
    };
    if let Err(e) = result {
        fail(&e);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("splice: {msg}");
    std::process::exit(2);
}

/// `splice testkit replay <spec>` — re-run a scenario printed by a
/// failing soak/CI run through the full differential harness.
fn cmd_testkit(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("replay") => {
            let [spec] = &args[1..] else {
                return Err("usage: splice testkit replay <SPEC>".into());
            };
            let sc = splice_testkit::Scenario::from_spec(spec)?;
            match splice_testkit::replay(&sc, &splice_testkit::ReplayOptions::default()) {
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
                    std::process::exit(1);
                }
            }
        }
        Some(other) => Err(format!(
            "unknown testkit subcommand {other:?} (try `splice testkit replay <SPEC>`)"
        )),
        None => Err("usage: splice testkit replay <SPEC>".into()),
    }
}

fn strategy_flag(flags: &Flags) -> Result<StrategyKind, String> {
    match flags.get("strategy") {
        None => Ok(StrategyKind::PerturbedSpf),
        Some(name) => StrategyKind::parse(name).ok_or_else(|| {
            format!("--strategy {name:?} unknown (perturbed-spf, tree, lst or arc)")
        }),
    }
}

fn build(topo: &Topology, flags: &Flags) -> Result<(splice_graph::Graph, Splicing), String> {
    let k: usize = flags.get_parsed("k", 5)?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let strategy = strategy_flag(flags)?;
    let g = topo.graph();
    let cfg = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(strategy);
    let splicing = Splicing::build(&g, &cfg, seed);
    Ok((g, splicing))
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
    let slice: usize = flags.get_parsed("slice", 0)?;
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
            println!(
                "latency {:.2} ms ({}x the base shortest path)",
                trace.length(&topo.latencies()),
                {
                    let spt = splice_graph::dijkstra(&g, dst, &g.base_weights());
                    let base = spt
                        .path_from(src)
                        .map(|p| p.length(&topo.latencies()))
                        .unwrap_or(f64::NAN);
                    format!("{:.2}", trace.length(&topo.latencies()) / base)
                }
            );
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
    let scheme = flags.get("scheme").unwrap_or("end-system");
    // The walk the data-plane lines below report on.
    let replay = match scheme {
        "end-system" => {
            let seed: u64 = flags.get_parsed("seed", 1)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let trials: usize = flags.get_parsed("trials", 5)?;
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
    if let Some(path) = flags.get("trace") {
        open_trace(path)?.emit(&walk_to_json(&replay, &latencies));
    }
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
        write_metrics(path, &registry)?;
    }
    if let Some(path) = flags.get("trace") {
        println!("wrote {path}");
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

/// Open a `--trace` JSONL sink.
fn open_trace(path: &str) -> Result<TraceSink, String> {
    TraceSink::create(path).map_err(|e| format!("cannot create --trace {path}: {e}"))
}

/// Write a Prometheus snapshot of `registry` to `path`.
fn write_metrics(path: &str, registry: &Registry) -> Result<(), String> {
    let parent = std::path::Path::new(path).parent();
    if let Some(parent) = parent.filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(path, registry.render_prometheus())
        .map_err(|e| format!("writing --metrics {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_reliability(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let g = topo.graph();
    let ks: Vec<usize> = flags.get_list("k", vec![1, 5, 10])?;
    let ps: Vec<f64> = flags.get_list("p", vec![0.05])?;
    let trials: usize = flags.get_parsed("trials", 200)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let semantics = match flags.get("semantics").unwrap_or("union") {
        "directed" => SpliceSemantics::Directed,
        _ => SpliceSemantics::UnionGraph,
    };
    let kmax = *ks.iter().max().ok_or("--k list empty")?;
    if ps.is_empty() {
        return Err("--p list empty".into());
    }
    let strategy = strategy_flag(flags)?;
    let cfg = ReliabilityConfig {
        ks: ks.clone(),
        ps: ps.clone(),
        trials,
        splicing: SplicingConfig::degree_based(kmax.max(1), 0.0, 3.0).with_strategy(strategy),
        semantics,
        seed,
    };
    let metrics = flags.get("metrics");
    let trace = flags.get("trace");
    let registry = Registry::new();
    let telemetry =
        (metrics.is_some() || trace.is_some()).then(|| ExperimentTelemetry::register(&registry));
    let out = reliability_experiment_instrumented(&g, &cfg, telemetry.as_ref());
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
        let sink = trace.map(open_trace).transpose()?;
        let latencies = topo.latencies();
        let nr = NetworkRecovery::default();
        let mut rng = StdRng::seed_from_u64(seed);
        for &p in &ps {
            let fail_mask: EdgeMask = FailureModel::IidLinks { p }.sample(&g, &mut rng);
            for s in g.nodes() {
                for t in g.nodes().filter(|&t| t != s) {
                    let out = nr.forward(&splicing, &fail_mask, s, t, 0);
                    tel.observe(&out, 0);
                    if let Some(sink) = &sink {
                        sink.emit(&walk_to_json(&out, &latencies));
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
            println!("wrote {path}");
        }
    }
    if let Some(path) = metrics {
        write_metrics(path, &registry)?;
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
    use splice_dataplane::{
        outcomes_checksum, run_live, scalar_walk, ForwardTelemetry, WalkOutcome,
    };
    use splice_routing::SnapshotHub;
    use splice_traffic::{FlowConfig, FlowGen};

    let topo = resolve_topology(flags)?;
    let (g, splicing) = build(&topo, flags)?;
    let mask = resolve_failures(&topo, flags)?;
    let burst_size: usize = flags.get_parsed("burst", 256)?;
    let bursts: u64 = flags.get_parsed("bursts", 64)?;
    let shards: usize = flags.get_parsed("shards", 2)?;
    if burst_size == 0 || bursts == 0 || shards == 0 {
        return Err("--burst, --bursts and --shards must all be at least 1".into());
    }
    let seed: u64 = flags.get_parsed("seed", 1)?;
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
