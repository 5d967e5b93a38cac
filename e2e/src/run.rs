//! One run of one workload: inputs from the seed, oracle, cold set-ups,
//! the measured pipeline(s), the correctness gate, the metrics.

use crate::layers;
use crate::oracle::{digest, Oracle};
use crate::pacing::{pace, Grid};
use crate::pipeline::{
    self, available_parallelism, burst_ring, cold_setup, worker_count, Deployment, Finished, Pkt,
};
use crate::procfs;
use crate::replay::{oracle_by_replay, StepCost};
use crate::spans::NameTotals;
use crate::stats::{median, median_of_fifths, quantile};
use crate::traced::TraceOut;
use crate::workload::{
    churn_schedule, Load, Workload, BURST, K, MAX_BATCH, SETUPS, VERIFY_BURSTS, WARMUP_SECONDS,
};
use splice_core::control::{fib_checksum, ControlEvent};
use splice_core::forwarding::ForwarderOptions;
use splice_dataplane::{outcomes_checksum, scalar_walk, BatchForwarder, WalkOutcome};
use splice_graph::{EdgeMask, NodeId};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed for the event schedule and the traffic.
    pub seed: u64,
    /// Seconds of control load.
    pub seconds: f64,
    /// Per-layer run (own span-recording loops, micro-drivers) instead
    /// of the end-to-end run.
    pub traced: bool,
    /// Smoke mode: Abilene instead of the workload's topology and three
    /// set-ups instead of nine.
    pub quick: bool,
    /// Test only: build the oracle from the schedule with one event
    /// dropped, so the run must end in a divergence.
    pub inject_fault: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Samples it summarizes (1 for a plain count or total).
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// What was run.
    pub config: RunConfig,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Events sent plus verification bursts compared.
    pub attempted: u64,
    /// Events never visible plus verification bursts that differed.
    pub failed: u64,
    /// Everything the correctness gate found wrong (empty = correct).
    pub problems: Vec<String>,
    /// Whether the generator held its rate (lateness and backlog rule).
    pub valid: bool,
    /// `fib_checksum` of the final deployment of a full-schedule run.
    pub fib_checksum: u64,
    /// Deployment and machine description for `results.json`.
    pub context: Vec<(&'static str, String)>,
    /// Per-name span totals of a traced run.
    pub span_totals: BTreeMap<&'static str, NameTotals>,
    /// Spans of a traced run as JSON lines.
    pub trace_lines: Vec<String>,
}

impl RunResult {
    /// Whether the correctness gate passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// One pipeline's life under load: a paced segment or a flood round.
pub(crate) struct Round {
    pub(crate) events: usize,
    pub(crate) due: Vec<Instant>,
    pub(crate) lateness_us: Vec<f64>,
    pub(crate) window: (Instant, Instant),
    pub(crate) backlog_mid: usize,
    pub(crate) backlog_end: usize,
    pub(crate) cpu_s: f64,
    pub(crate) invol_switches: u64,
    pub(crate) first_burst: Instant,
    pub(crate) finished: Finished,
    pub(crate) trace: Option<Arc<TraceOut>>,
}

/// What a round's observations say.
pub(crate) struct RoundStats {
    /// Due→visible of FIB-changing events due in the window, in due
    /// order, milliseconds.
    pub(crate) latencies_ms: Vec<f64>,
    /// FIB-changing events no worker ever saw.
    pub(crate) invisible: usize,
    pub(crate) events_per_s: f64,
    pub(crate) forward_mpps: f64,
}

pub(crate) struct Inputs {
    pub(crate) dep: Deployment,
    pub(crate) events: Vec<ControlEvent>,
    pub(crate) oracle: Arc<Oracle>,
    pub(crate) oracle_checksum: u64,
    pub(crate) oracle_s: f64,
    pub(crate) batch1_costs: Vec<StepCost>,
    pub(crate) ring: Arc<Vec<Vec<Pkt>>>,
    pub(crate) fill_s: f64,
    pub(crate) topology: &'static str,
    pub(crate) warmup_s: f64,
}

/// Run one workload once.
pub fn run_workload(cfg: &RunConfig) -> Result<RunResult, String> {
    let w = cfg.workload;
    if cfg.seconds.is_nan() || cfg.seconds < 0.5 {
        return Err(format!("--seconds {} is too short to measure", cfg.seconds));
    }
    let topology = if cfg.quick { "abilene" } else { w.topology };
    let warmup_s = WARMUP_SECONDS.min(cfg.seconds / 4.0);
    let rate = w.rate_hz;

    // A traced paced run spends a quarter of its measured time on an
    // untraced reference segment (for `trace.overhead_share`); both
    // segments replay the schedule from its start.
    let reference_s = warmup_s + (cfg.seconds - 2.0 * warmup_s) / 4.0;
    let traced_s = cfg.seconds - reference_s;
    let schedule_s = match (w.load, cfg.traced) {
        (Load::Paced, true) => traced_s,
        _ => cfg.seconds,
    };

    // Inputs, all from the seed.
    let dep = pipeline::deploy(w, topology)?;
    let events = churn_schedule(&dep.g, K, w.events(schedule_s), cfg.seed);
    for ev in &events {
        ev.validate(&dep.g, K)?;
    }
    let (ring, fill_s) = burst_ring(dep.g.node_count() as u32, cfg.seed);

    // The oracle: a batch-1 `ControlPlane` for the end-to-end run; the
    // stand-alone replayer (which also prices every single-event pass)
    // for the per-layer run.
    let t_oracle = Instant::now();
    let faulty: Vec<ControlEvent>;
    let oracle_events: &[ControlEvent] = if cfg.inject_fault {
        let mut kept = events.clone();
        kept.remove(fault_index(&events));
        faulty = kept;
        &faulty
    } else {
        &events
    };
    let (oracle, oracle_checksum, batch1_costs) = if cfg.traced {
        oracle_by_replay(&dep.g, &dep.base, oracle_events)
    } else {
        let (oracle, sum) = Oracle::replay(&dep.g, &dep.base, oracle_events);
        (oracle, sum, Vec::new())
    };
    let inputs = Inputs {
        dep,
        events,
        oracle: Arc::new(oracle),
        oracle_checksum,
        oracle_s: t_oracle.elapsed().as_secs_f64(),
        batch1_costs,
        ring: Arc::new(ring),
        fill_s,
        topology,
        warmup_s,
    };

    // Cold set-ups.
    let mut setup_s = Vec::new();
    let mut resolve_ms = Vec::new();
    let mut build_ms = Vec::new();
    for _ in 0..if cfg.quick { 3 } else { SETUPS } {
        let cold = cold_setup(w, topology, &inputs.oracle, &inputs.ring, None)?;
        setup_s.push(cold.total_s);
        resolve_ms.push(cold.dep.resolve_s * 1e3);
        build_ms.push(cold.dep.build_s * 1e3);
        cold.pipeline.finish();
    }

    // The measured pipelines. `reference` rounds run the shipped loops;
    // `traced` rounds (per-layer run only) run the recording ones.
    let mut problems = Vec::new();
    let mut reference: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let n = inputs.events.len();
    match w.load {
        Load::Paced => {
            if cfg.traced {
                let n_ref = ((rate as f64 * reference_s) as usize).min(n);
                reference.push(paced_round(w, &inputs, n_ref, None)?);
                traced_rounds.push(paced_round(w, &inputs, n, Some(TraceOut::new()))?);
            } else {
                reference.push(paced_round(w, &inputs, n, None)?);
            }
        }
        Load::Flood => {
            // A short discarded round warms the process up, then full
            // rounds until the time is used: at least three for the
            // end-to-end run; one reference and at least one traced for
            // the per-layer run.
            let began = Instant::now();
            let warm = flood_round(w, &inputs, (n / 5).max(1), None)?;
            attempted += warm.events as u64;
            check_round(&warm, &inputs, &mut problems);
            failed += round_stats(&warm, &inputs.oracle).invisible as u64;
            let budget = Duration::from_secs_f64(cfg.seconds);
            loop {
                let round_began = Instant::now();
                if cfg.traced && !reference.is_empty() {
                    traced_rounds.push(flood_round(w, &inputs, n, Some(TraceOut::new()))?);
                } else {
                    reference.push(flood_round(w, &inputs, n, None)?);
                }
                let enough = if cfg.traced {
                    !traced_rounds.is_empty()
                } else {
                    reference.len() >= 3
                };
                if enough && began.elapsed() + round_began.elapsed() > budget {
                    break;
                }
            }
        }
    }

    // The correctness gate.
    let mut ref_stats = Vec::new();
    let mut traced_stats = Vec::new();
    for (rounds, stats) in [
        (&reference, &mut ref_stats),
        (&traced_rounds, &mut traced_stats),
    ] {
        for round in rounds {
            attempted += round.events as u64;
            check_round(round, &inputs, &mut problems);
            let s = round_stats(round, &inputs.oracle);
            failed += s.invisible as u64;
            stats.push(s);
        }
    }
    let last = traced_rounds
        .last()
        .or(reference.last())
        .expect("at least one round ran");
    let final_checksum = fib_checksum(last.finished.cp.graph(), last.finished.cp.current());
    if last.events == n && final_checksum != inputs.oracle_checksum {
        problems.push(format!(
            "final fib_checksum {final_checksum:016x} differs from the batch-1 oracle's {:016x}",
            inputs.oracle_checksum
        ));
    }
    let verify = verify_engines(last, &inputs.ring);
    attempted += VERIFY_BURSTS as u64;
    failed += verify.mismatched_bursts;

    // Validity of the offered load.
    let load_round = traced_rounds.first().unwrap_or(&reference[0]);
    let lateness_p99 = quantile(&load_round.lateness_us, 0.99).unwrap_or(0.0);
    let lateness_p90 = quantile(&load_round.lateness_us, 0.9).unwrap_or(0.0);
    // The load was the load asked for when nine sends in ten began within
    // a millisecond of their due time and the backlog did not grow over
    // the second half. (The p99 is reported but not judged: on a small
    // shared box it is whole-machine stalls of tens of milliseconds.)
    let valid = match w.load {
        Load::Paced => {
            lateness_p90 <= 1000.0 && load_round.backlog_end <= load_round.backlog_mid + MAX_BATCH
        }
        Load::Flood => true,
    };

    let mut metrics = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, value: Option<f64>, samples: usize| {
        metrics.push(Metric {
            name,
            unit,
            value: value.unwrap_or(0.0),
            samples,
        });
    };

    let (span_totals, trace_lines) = if !cfg.traced {
        push("setup_s", "s", median(&setup_s), setup_s.len());
        let (p50, p90, samples) = latency_summary(w, &ref_stats);
        push("visible_p50_ms", "ms", p50, samples);
        push("visible_p90_ms", "ms", p90, samples);
        let eps: Vec<f64> = ref_stats.iter().map(|s| s.events_per_s).collect();
        push("events_per_s", "1/s", median(&eps), eps.len());
        let mpps: Vec<f64> = ref_stats.iter().map(|s| s.forward_mpps).collect();
        push("forward_mpps", "Mpkt/s", median(&mpps), mpps.len());
        match procfs::peak_rss_mb() {
            Ok(mb) => push("peak_rss_mb", "MB", Some(mb), 1),
            Err(e) => problems.push(format!("peak_rss_mb: {e}")),
        }
        (BTreeMap::new(), Vec::new())
    } else {
        let layers = layers::LayerInputs {
            w,
            inputs: &inputs,
            resolve_ms: &resolve_ms,
            build_ms: &build_ms,
            reference: &ref_stats,
            traced: &traced_rounds,
            traced_stats: &traced_stats,
            lateness_p99,
            verify_hops: verify.hops,
        };
        layers::layer_metrics(&layers, &mut push, &mut problems)
    };

    let context = vec![
        ("available_parallelism", available_parallelism().to_string()),
        ("workers", worker_count().to_string()),
        ("topology", inputs.topology.to_string()),
        ("n", inputs.dep.g.node_count().to_string()),
        ("m", inputs.dep.g.edge_count().to_string()),
        ("k", K.to_string()),
        ("strategy", w.strategy.name().to_string()),
        ("max_batch", MAX_BATCH.to_string()),
        ("burst", BURST.to_string()),
        ("events", n.to_string()),
        ("rate_hz", rate.to_string()),
        (
            "load",
            match w.load {
                Load::Paced => "open-loop",
                Load::Flood => "flood",
            }
            .to_string(),
        ),
        (
            "rounds",
            (reference.len() + traced_rounds.len()).to_string(),
        ),
        ("warmup_s", inputs.warmup_s.to_string()),
        ("oracle_s", inputs.oracle_s.to_string()),
        ("gen_lateness_us_p90", lateness_p90.to_string()),
        ("gen_lateness_us_p99", lateness_p99.to_string()),
        ("gen_backlog_mid", load_round.backlog_mid.to_string()),
        ("gen_backlog_end", load_round.backlog_end.to_string()),
        ("fib_checksum", format!("{final_checksum:016x}")),
        ("outcomes_checksum", format!("{:016x}", verify.checksum)),
    ];
    Ok(RunResult {
        config: cfg.clone(),
        metrics,
        attempted,
        failed,
        problems,
        valid,
        fib_checksum: final_checksum,
        context,
        span_totals,
        trace_lines,
    })
}

/// The event the injected fault drops from the oracle's schedule: the
/// first node failure in the last two thirds (a node failure always
/// moves next hops), else the event a third of the way in.
fn fault_index(events: &[ControlEvent]) -> usize {
    let from = events.len() / 3;
    events[from..]
        .iter()
        .position(|ev| matches!(ev, ControlEvent::FailNode(_)))
        .map_or(from, |i| from + i)
}

/// Resource counters at the start of a window.
struct WindowStart {
    at: Instant,
    cpu_s: f64,
    switches: u64,
}

fn open_window(p: &pipeline::Pipeline, trace: Option<&TraceOut>) -> WindowStart {
    let start = WindowStart {
        at: Instant::now(),
        cpu_s: procfs::cpu_seconds().unwrap_or(0.0),
        switches: procfs::involuntary_switches().unwrap_or(0),
    };
    p.shared.counting.store(true, Ordering::Relaxed);
    if let Some(t) = trace {
        t.counting.store(true, Ordering::Relaxed);
    }
    start
}

/// Close the window; returns (window, cpu seconds, involuntary
/// switches) over it.
fn close_window(
    p: &pipeline::Pipeline,
    trace: Option<&TraceOut>,
    start: WindowStart,
) -> ((Instant, Instant), f64, u64) {
    p.shared.counting.store(false, Ordering::Relaxed);
    if let Some(t) = trace {
        t.counting.store(false, Ordering::Relaxed);
    }
    let end = Instant::now();
    (
        (start.at, end),
        procfs::cpu_seconds().unwrap_or(0.0) - start.cpu_s,
        procfs::involuntary_switches()
            .unwrap_or(0)
            .saturating_sub(start.switches),
    )
}

/// Set a pipeline up cold and pace the first `n` events at the workload's rate;
/// the window opens once the warm-up has passed.
fn paced_round(
    w: &Workload,
    inputs: &Inputs,
    n: usize,
    trace: Option<Arc<TraceOut>>,
) -> Result<Round, String> {
    let cold = cold_setup(
        w,
        inputs.topology,
        &inputs.oracle,
        &inputs.ring,
        trace.clone(),
    )?;
    let (p, first_burst) = (cold.pipeline, cold.first_burst);
    let rate_hz = w.rate_hz;
    let warm_events = ((inputs.warmup_s * rate_hz as f64) as usize).min(n - 1);
    let mid = (warm_events + n) / 2;
    let grid = Grid::at_rate(Instant::now() + Duration::from_millis(2), rate_hz);
    let mut queue = inputs.events[..n].iter().cloned();
    let mut window = None;
    let mut backlog_mid = 0;
    let lateness = pace(&grid, n, |i| {
        if i == warm_events {
            window = Some(open_window(&p, trace.as_deref()));
        }
        if i == mid {
            backlog_mid = i - p.shared.resolved.load(Ordering::Acquire).min(i);
        }
        p.shared.sent.store(i + 1, Ordering::Release);
        p.handle
            .event(queue.next().expect("one event per grid slot"));
    });
    let target = inputs.oracle.last_change(n);
    let backlog_end = target.saturating_sub(p.shared.resolved.load(Ordering::Acquire));
    p.await_visible(target, Duration::from_secs(5));
    let (window, cpu_s, invol_switches) =
        close_window(&p, trace.as_deref(), window.expect("the window opened"));
    Ok(Round {
        events: n,
        due: (0..n).map(|i| grid.due(i)).collect(),
        lateness_us: lateness[warm_events..]
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect(),
        window,
        backlog_mid,
        backlog_end,
        cpu_s,
        invol_switches,
        first_burst,
        finished: p.finish(),
        trace,
    })
}

/// Set a pipeline up cold and enqueue the first `n` events at once; all
/// are due at the moment the flood starts, and the window is the drain.
fn flood_round(
    w: &Workload,
    inputs: &Inputs,
    n: usize,
    trace: Option<Arc<TraceOut>>,
) -> Result<Round, String> {
    let cold = cold_setup(
        w,
        inputs.topology,
        &inputs.oracle,
        &inputs.ring,
        trace.clone(),
    )?;
    let (p, first_burst) = (cold.pipeline, cold.first_burst);
    let batch = inputs.events[..n].to_vec();
    p.shared.sent.store(n, Ordering::Release);
    let window = open_window(&p, trace.as_deref());
    let t0 = window.at;
    p.handle.events(batch);
    let target = inputs.oracle.last_change(n);
    p.await_visible(target, Duration::from_secs(60));
    let (window, cpu_s, invol_switches) = close_window(&p, trace.as_deref(), window);
    Ok(Round {
        events: n,
        due: vec![t0; n],
        lateness_us: Vec::new(),
        window,
        backlog_mid: 0,
        backlog_end: 0,
        cpu_s,
        invol_switches,
        first_burst,
        finished: p.finish(),
        trace,
    })
}

/// Per-round gate: no divergence, a clean shutdown, the final arena is
/// the oracle's state after the round's events, and the feed's packet
/// count is the engines'.
fn check_round(round: &Round, inputs: &Inputs, problems: &mut Vec<String>) {
    let f = &round.finished;
    let mut fed = 0;
    for shard in 0..f.shared.workers() {
        let obs = f.shared.shard(shard);
        if let Some(d) = &obs.divergence {
            problems.push(format!("divergence on worker {shard}: {d}"));
        }
        fed += obs.bursts * BURST as u64;
    }
    if !f.loop_report.clean_shutdown {
        problems.push("the event loop did not shut down cleanly".to_string());
    }
    let walked: u64 = f.shards.iter().map(|r| r.stats.packets).sum();
    if walked != fed {
        problems.push(format!("fed {fed} packets but the engines report {walked}"));
    }
    let expected = inputs.oracle.events().min(round.events);
    let have = digest(f.cp.current().arena());
    if round.events <= inputs.oracle.events() && have != inputs.oracle.digest_at(expected) {
        problems.push(format!(
            "final arena digest {have:016x} is not the oracle's after {expected} events"
        ));
    }
}

/// When each event first became visible to any worker.
pub(crate) fn visible_at(round: &Round) -> Vec<Option<Instant>> {
    let f = &round.finished;
    let mut visible: Vec<Option<Instant>> = vec![None; round.events];
    for shard in 0..f.shared.workers() {
        let obs = f.shared.shard(shard);
        let mut mark = |range: std::ops::Range<usize>, at: Instant| {
            for slot in &mut visible[range.start.min(round.events)..range.end.min(round.events)] {
                *slot = Some(slot.map_or(at, |seen| seen.min(at)));
            }
        };
        let mut prev = 0;
        for step in &obs.steps {
            mark(prev..step.prefix, step.at);
            prev = step.prefix;
        }
        // A recurring final state resolves to its first candidate; the
        // epoch settles it: the worker that forwarded on the last epoch
        // published has seen every event.
        if let Some(last) = obs.steps.last() {
            if last.epoch == f.loop_report.final_epoch {
                mark(prev..round.events, last.at);
            }
        }
    }
    visible
}

fn round_stats(round: &Round, oracle: &Oracle) -> RoundStats {
    let visible = visible_at(round);
    let mut latencies_ms = Vec::new();
    let mut invisible = 0;
    let mut last_visible = round.due[0];
    for (e, seen) in visible.iter().enumerate() {
        if e >= oracle.events() || !oracle.changes_fib(e) {
            continue;
        }
        match seen {
            None => invisible += 1,
            Some(at) => {
                last_visible = last_visible.max(*at);
                if round.due[e] >= round.window.0 {
                    latencies_ms
                        .push(at.saturating_duration_since(round.due[e]).as_secs_f64() * 1e3);
                }
            }
        }
    }
    let drain_s = last_visible.duration_since(round.due[0]).as_secs_f64();
    let window_s = round.window.1.duration_since(round.window.0).as_secs_f64();
    let f = &round.finished;
    let window_packets: u64 = (0..f.shared.workers())
        .map(|s| f.shared.shard(s).window_bursts * BURST as u64)
        .sum();
    RoundStats {
        latencies_ms,
        invisible,
        events_per_s: if drain_s > 0.0 {
            round.events as f64 / drain_s
        } else {
            0.0
        },
        forward_mpps: window_packets as f64 / window_s.max(1e-9) / 1e6,
    }
}

/// (p50, p90, samples) of due→visible over `rounds`. A paced run has one
/// round and votes its p90 over fifths; a flood run reports the median
/// round.
pub(crate) fn latency_summary(
    w: &Workload,
    rounds: &[RoundStats],
) -> (Option<f64>, Option<f64>, usize) {
    let samples = rounds.iter().map(|r| r.latencies_ms.len()).sum();
    match w.load {
        Load::Paced => {
            let lat = &rounds[0].latencies_ms;
            (quantile(lat, 0.5), median_of_fifths(lat, 0.9), samples)
        }
        Load::Flood => {
            let of = |q: f64| {
                let per_round: Vec<f64> = rounds
                    .iter()
                    .filter_map(|r| quantile(&r.latencies_ms, q))
                    .collect();
                median(&per_round)
            };
            (of(0.5), of(0.9), samples)
        }
    }
}

struct Verified {
    mismatched_bursts: u64,
    hops: u64,
    checksum: u64,
}

/// Forward the first `VERIFY_BURSTS` ring bursts on the final FIB through
/// `BatchForwarder` and through `scalar_walk`; the outcome checksums must
/// agree burst by burst.
fn verify_engines(round: &Round, ring: &[Vec<Pkt>]) -> Verified {
    let cp = &round.finished.cp;
    let fib = cp.current().arena();
    let mask = EdgeMask::all_up(cp.graph().edge_count());
    let opts = ForwarderOptions::default();
    let mut engine = BatchForwarder::new(opts);
    let mut all: Vec<WalkOutcome> = Vec::new();
    let mut mismatched_bursts = 0;
    for burst in ring.iter().take(VERIFY_BURSTS) {
        let batch = engine.forward_burst(fib, &mask, burst).to_vec();
        let scalar: Vec<WalkOutcome> = burst
            .iter()
            .map(|&(s, d, h)| {
                WalkOutcome::from_outcome(&scalar_walk(fib, &mask, NodeId(s), NodeId(d), h, &opts))
            })
            .collect();
        if outcomes_checksum(&batch) != outcomes_checksum(&scalar) {
            mismatched_bursts += 1;
        }
        all.extend(batch);
    }
    Verified {
        mismatched_bursts,
        hops: engine.stats().hops,
        checksum: outcomes_checksum(&all),
    }
}
