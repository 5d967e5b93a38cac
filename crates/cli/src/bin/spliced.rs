//! `spliced` — the long-running path-splicing control-plane daemon.
//!
//! One process, three thread groups, no async runtime:
//!
//! - the **event loop** ([`splice_core::control::run_event_loop`]) owns
//!   the mutable deployment, coalesces typed topology events into
//!   `repair_batch` passes, and publishes immutable FIB snapshots to a
//!   [`SnapshotHub`](splice_routing::SnapshotHub) under monotone epochs;
//! - **forwarding workers** ([`splice_dataplane::run_live`]) subscribe
//!   to the hub and drain seeded traffic bursts over whatever snapshot
//!   is current, never blocking the control plane;
//! - the **admin server** (`splice_telemetry::serve_with_router`, plain
//!   `std::net`) serves the scrape routes (`/metrics`, `/healthz`,
//!   `/snapshot`) plus the daemon routes: `GET /show/fib`,
//!   `GET /show/slices`, `POST /events` (a `+`-joined schedule of event
//!   tokens like `f4+w2.5.1500+r4`), and `POST /shutdown`.
//!
//! Events reach the loop from two producers — the `--schedule` ticker
//! (deadline-paced, one event per tick) and `POST /events` — both
//! funneled through one submission lock so the daemon's ingest order is
//! recorded exactly. On exit, everything ingested is replayed through a
//! *second* control plane with a different batch partition; the run
//! fails (exit 1) unless both final FIB checksums are bit-identical.
//! That is the daemon's contract: live coalescing must land on exactly
//! the state the offline batch path computes.
//!
//! There is no signal handling (pure std): stop the daemon with
//! `curl -X POST <addr>/shutdown` or bound the run with
//! `--duration-secs`. Both paths exit cleanly, flushing the final
//! registry snapshot (`--metrics`) and run manifest (`--manifest`).

use splice_cli::{resolve_topology, Flags};
use splice_core::control::{
    control_channel, fib_checksum, run_event_loop, ControlEvent, ControlPlane,
};
use splice_core::forwarding::ForwarderOptions;
use splice_core::slices::{Splicing, SplicingConfig};
use splice_core::strategy::StrategyKind;
use splice_dataplane::{run_live, ForwardTelemetry};
use splice_graph::EdgeMask;
use splice_routing::spf::SpfTelemetry;
use splice_telemetry::{
    serve_with_router, AdminResponse, FlightRecorder, JsonObject, Registry, Router, Ticker,
};
use splice_traffic::{FlowConfig, FlowGen};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const HELP: &str = "\
spliced — long-running path-splicing control-plane daemon

usage: spliced [flags]

flags:
  --topology NAME       built-in (sprint|geant|abilene) or a generator
                        spec like rand-24-40-7 (default sprint)
  --file PATH           edge-list topology file instead
  --k N                 number of slices (default 5)
  --seed N              build + traffic RNG seed (default 1)
  --strategy NAME       perturbed-spf (default), tree, lst or arc
  --listen ADDR         admin/scrape address (default 127.0.0.1:0;
                        the bound address is printed)
  --schedule SPEC       '+'-joined event tokens fed one per tick:
                        f<e> g<e1>.<e2> n<v> w<slice>.<edge>.<milli> r<e>
  --schedule-churn N    generate an N-event churn schedule instead
                        (seeded by --seed)
  --interval-ms N       event-injection tick, deadline-paced (default 50)
  --max-batch N         events coalesced per repair pass (default 16)
  --workers N           subscribed forwarding workers (default 2)
  --burst N             packets per worker burst (default 128)
  --duration-secs N     exit after N seconds (default 0 = run until
                        POST /shutdown)
  --metrics PATH        write the final Prometheus snapshot on exit
  --manifest PATH       write the run-manifest JSON on exit

admin routes (next to /metrics, /healthz, /snapshot):
  GET  /show/fib        current snapshot epoch and arena shape
  GET  /show/slices     deployment construction summary
  POST /events          submit a '+'-joined schedule (body)
  POST /shutdown        graceful exit: final flush, oracle check, exit 0
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        print!("{HELP}");
        return;
    }
    let flags = match Flags::parse(&argv) {
        Ok(f) => f,
        Err(e) => fail(&e),
    };
    match run(&flags) {
        Ok(()) => {}
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("spliced: {msg}");
    std::process::exit(2);
}

/// Append `ev` to the ingest log and enqueue it, under one lock so the
/// log's order is exactly the channel's order (the ticker and any
/// number of `POST /events` clients race on this).
fn submit(
    log: &Mutex<Vec<ControlEvent>>,
    handle: &splice_core::control::ControlHandle,
    ev: ControlEvent,
) -> bool {
    let mut log = log.lock().expect("event log lock poisoned");
    log.push(ev.clone());
    handle.event(ev)
}

fn run(flags: &Flags) -> Result<(), String> {
    let topo = resolve_topology(flags)?;
    let g = topo.graph();
    let k: usize = flags.get_parsed("k", 5)?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let strategy = match flags.get("strategy") {
        None => StrategyKind::PerturbedSpf,
        Some(name) => StrategyKind::parse(name).ok_or_else(|| {
            format!("--strategy {name:?} unknown (perturbed-spf, tree, lst or arc)")
        })?,
    };
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let interval_ms: u64 = flags.get_parsed("interval-ms", 50)?;
    let max_batch: usize = flags.get_parsed("max-batch", 16)?;
    let workers: usize = flags.get_parsed("workers", 2)?;
    let burst_size: usize = flags.get_parsed("burst", 128)?;
    let duration_secs: u64 = flags.get_parsed("duration-secs", 0)?;
    if max_batch == 0 || workers == 0 || burst_size == 0 {
        return Err("--max-batch, --workers and --burst must all be at least 1".into());
    }

    // The schedule fed on the tick grid: explicit tokens, or a seeded
    // churn stream, or nothing (events then arrive only via POST).
    let schedule: Vec<ControlEvent> = if let Some(spec) = flags.get("schedule") {
        ControlEvent::parse_schedule(spec)?
    } else {
        let churn: usize = flags.get_parsed("schedule-churn", 0)?;
        splice_testkit::churn_schedule(&g, k, churn, seed)
            .iter()
            .map(splice_testkit::to_control_event)
            .collect()
    };
    for ev in &schedule {
        ev.validate(&g, k)?;
    }

    let cfg = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(strategy);
    let base = Splicing::build(&g, &cfg, seed);

    let registry = Registry::new();
    let flight = FlightRecorder::new(1024);
    let spf_tel = SpfTelemetry::register(&registry).with_flight(flight.clone());
    let latency = registry.histogram_seconds(
        "spliced_event_visible_seconds",
        "Event enqueue to FIB-visible publish",
    );

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
        let mut sums = splice_telemetry::JsonArray::new();
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
                        submit(&log, &handle, ev);
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
            submit(&log, &handle, schedule[fed].clone());
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

    // Exit oracle: replay the exact ingest log through a second control
    // plane with a different batch partition (one event per pass). The
    // two final FIBs must be bit-identical — any batch partition of the
    // same schedule lands on the same deployment.
    let events = log.lock().expect("event log lock poisoned").clone();
    let mut oracle = ControlPlane::new(g.clone(), base, 1);
    for ev in &events {
        oracle.ingest(ev);
    }
    oracle.flush();
    let daemon_sum = fib_checksum(cp.graph(), cp.current());
    let oracle_sum = fib_checksum(oracle.graph(), oracle.current());

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
        eprintln!("spliced: live FIB diverged from the batch oracle");
        std::process::exit(1);
    }
    Ok(())
}

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
