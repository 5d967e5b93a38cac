//! Batched forwarding throughput under churn, written to
//! `BENCH_forward.json`.
//!
//! Four engines drain the *same* pre-generated seeded Zipf bursts over
//! the *same* rotating sequence of churn-repaired FIB snapshots:
//!
//! 1. **scalar** — the pre-existing one-packet-at-a-time path
//!    (`Forwarder::forward`, what `BENCH_fib.json`'s per-hop numbers
//!    and every figure before this report drove): a fresh trace
//!    allocation and a `HashSet` loop detector per packet. This is the
//!    baseline every `speedup_vs_scalar` is quoted against.
//! 2. **scalar_walk** — the allocation-light arena walk
//!    ([`splice_dataplane::scalar_walk`]) that mirrors it exactly, kept
//!    as its own row so the batch engine is not compared against a
//!    strawman: the distance between rows 1 and 2 is what leaner
//!    per-packet code buys, rows 2 to 3 what the batch layout buys.
//! 3. **batch** — one [`splice_dataplane::BatchForwarder`] draining
//!    whole bursts through struct-of-arrays lanes, allocation-free
//!    after warmup.
//! 4. **batch_sharded** — [`splice_dataplane::run_sharded`] workers on
//!    scoped threads, one engine per shard, fed by copies of the same
//!    pre-generated bursts.
//!
//! Every engine is timed the same way: bursts are generated *before*
//! any clock starts, and the measured quantity is the sum of per-burst
//! drain times — the forwarding path alone, with no flow generation,
//! checksum folding, or scheduling gaps inside it. `pps` is packets
//! over that sum, so the sharded row claims no parallelism credit the
//! machine didn't deliver: on a single core it lands at the batch row
//! minus worker overhead, on many cores its per-shard busy times are
//! what each core actually spent.
//!
//! Every engine folds its outcomes into the same per-shard FNV
//! checksums, and the report asserts all four merged checksums are
//! equal — a speedup that changes where packets go cannot ship. The
//! snapshots come from folding a [`splice_testkit::churn_schedule`]
//! through `repair_batch`, and bursts rotate across them, so the
//! numbers describe forwarding *under churn*, not a static FIB. The
//! run-wide failure mask is all-up: every snapshot's slices already
//! route around the failures they absorbed, so walks run their full
//! length instead of truncating at whatever the schedule's final
//! failure state happened to down. A final section replays the same
//! scenario — with its real evolving failure masks, so the `LinkDown`
//! path is exercised there — through the testkit's three-way forward
//! oracle (batch vs scalar vs naive walker) and records the flow count
//! it verified.

use splice_core::forwarding::{Forwarder, ForwarderOptions};
use splice_core::header::ForwardingBits;
use splice_core::slices::{Splicing, SplicingConfig};
use splice_dataplane::{
    fold_outcomes_checksum, merged_checksum, outcomes_checksum, run_sharded, scalar_walk,
    BatchForwarder, BatchStats, ForwardTelemetry, RotatingSnapshots, ShardReport, WalkOutcome,
};
use splice_graph::{EdgeMask, NodeId};
use splice_sim::lab::LabError;
use splice_telemetry::{Histogram, JsonArray, JsonObject, Registry};
use splice_testkit::{
    churn_schedule, forward_oracle, schedule_to_batches, ForwardOracleOptions, PerturbationSpec,
    Scenario, TopologySpec,
};
use splice_topology::TopologyError;
use splice_traffic::{FlowConfig, FlowGen};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::load_topology;

/// One in-flight packet: `(src, dst, header)`.
type Pkt = (u32, u32, ForwardingBits);

/// Workload shape shared by every engine in the sweep.
#[derive(Clone, Debug)]
pub struct ForwardBenchConfig {
    /// Topology name (built-ins or generator specs).
    pub topology: String,
    /// Slices.
    pub k: usize,
    /// Churn events folded into the snapshot rotation.
    pub schedule_len: usize,
    /// Repair events coalesced per `repair_batch` call.
    pub batch: usize,
    /// Worker shards for the sharded engine (and independent flow
    /// streams for all engines).
    pub shards: usize,
    /// Bursts per shard.
    pub bursts_per_shard: u64,
    /// Packets per burst.
    pub burst_size: usize,
    /// Seed for the deployment, the churn schedule, and the flows.
    pub seed: u64,
}

impl ForwardBenchConfig {
    /// The committed-report operating point: sprint at the paper's
    /// k = 5, one shard per available core (the sharding design is one
    /// worker per core; overcommitting a small machine only charges
    /// the workers' preemption gaps to each other's burst clocks),
    /// ~100k packets per engine.
    pub fn default_for(topology: &str, seed: u64) -> ForwardBenchConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shards = cores.clamp(1, 8);
        ForwardBenchConfig {
            topology: topology.to_string(),
            k: 5,
            schedule_len: 60,
            batch: 5,
            shards,
            bursts_per_shard: (400 / shards.max(1) as u64).max(1),
            burst_size: 256,
            seed,
        }
    }

    /// Total packets each engine walks.
    pub fn total_packets(&self) -> u64 {
        self.shards as u64 * self.bursts_per_shard * self.burst_size as u64
    }
}

/// Measured numbers for one engine.
#[derive(Clone, Debug)]
pub struct ForwardBenchEntry {
    /// `"scalar"`, `"scalar_walk"`, `"batch"`, or `"batch_sharded"`.
    pub engine: &'static str,
    /// Outcome-class counters over every packet.
    pub stats: BatchStats,
    /// Aggregate packets per second — the headline number. Packets over
    /// summed drain busy time, measured identically for every engine.
    pub pps: f64,
    /// Nanoseconds per hop (busy time / total hops).
    pub ns_per_hop: f64,
    /// Median per-burst drain time.
    pub burst_seconds_p50: f64,
    /// Tail per-burst drain time.
    pub burst_seconds_p99: f64,
    /// Worst per-burst drain time.
    pub burst_seconds_max: f64,
    /// Checksum-of-per-shard-checksums. Identical across engines, or
    /// the batch path is broken.
    pub checksum: u64,
    /// `pps` relative to the scalar entry.
    pub speedup_vs_scalar: f64,
}

/// What the three-way differential oracle verified alongside the
/// timings.
#[derive(Clone, Copy, Debug)]
pub struct ForwardOracleSummary {
    /// Packets walked through batch, scalar, and naive engines.
    pub flows_checked: u64,
    /// Churn checkpoints the flows were split across.
    pub checkpoints: u64,
    /// Always 0 in a written report — a divergence aborts the run.
    pub divergences: u64,
}

/// The full measured document.
#[derive(Clone, Debug)]
pub struct ForwardBenchReport {
    /// Workload shape.
    pub config: ForwardBenchConfig,
    /// Scalar / scalar_walk / batch / batch_sharded rows.
    pub engines: Vec<ForwardBenchEntry>,
    /// Differential-oracle coverage.
    pub oracle: ForwardOracleSummary,
}

/// Splicing handles a churn schedule walks through: the base deployment
/// plus the state after every repair batch. The run-wide mask is
/// all-up — each snapshot's slices already route around the failures
/// they absorbed, so outcomes stay meaningful while walks run their
/// full length (the oracle section replays the schedule with its real
/// evolving masks).
fn churn_snapshots(
    g: &splice_graph::Graph,
    base: &Splicing,
    schedule_len: usize,
    batch: usize,
    seed: u64,
) -> (Vec<Splicing>, EdgeMask) {
    let k = base.k();
    let weights: Vec<Vec<f64>> = (0..k).map(|s| base.weights(s).to_vec()).collect();
    let events = churn_schedule(g, k, schedule_len, seed);
    let steps = schedule_to_batches(&weights, &events, batch);
    let mut snapshots = vec![base.clone()];
    let mut sp = base.clone();
    for events in &steps {
        sp = sp.repair_batch(g, events);
        snapshots.push(sp.clone());
    }
    (snapshots, EdgeMask::all_up(g.edge_count()))
}

/// Generate every `(shard, burst)` packet buffer up front, so no
/// engine's timed region contains flow generation. Indexed
/// `shard * bursts_per_shard + burst`, matching the per-shard stream
/// split the workers use.
fn pregen_bursts(gen: &FlowGen, cfg: &ForwardBenchConfig) -> Vec<Vec<Pkt>> {
    let bps = cfg.bursts_per_shard as usize;
    let mut all = Vec::with_capacity(cfg.shards * bps);
    for shard in 0..cfg.shards {
        for burst in 0..bps {
            let mut buf = Vec::with_capacity(cfg.burst_size);
            gen.stream(shard * bps + burst)
                .fill_burst(cfg.burst_size, &mut buf);
            all.push(buf);
        }
    }
    all
}

/// Run one serial engine over the pre-generated bursts, visiting shards
/// and bursts in order. `drain` turns `(shard, burst)`'s packets into
/// outcomes (appended to `out`); only the `drain` call is timed, and
/// each shard's busy time is the sum of its burst drains — the same
/// quantity the sharded workers report in
/// [`ShardReport::busy_seconds`].
fn run_serial<F>(
    cfg: &ForwardBenchConfig,
    pre: &[Vec<Pkt>],
    hist: &Histogram,
    mut drain: F,
) -> Vec<ShardReport>
where
    F: FnMut(usize, u64, &[Pkt], &mut Vec<WalkOutcome>),
{
    let bps = cfg.bursts_per_shard as usize;
    let mut out: Vec<WalkOutcome> = Vec::new();
    let mut reports = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let mut checksum = outcomes_checksum(&[]);
        let mut stats = BatchStats::default();
        let mut busy = Duration::ZERO;
        for burst in 0..cfg.bursts_per_shard {
            let pkts = &pre[shard * bps + burst as usize];
            out.clear();
            let t0 = Instant::now();
            drain(shard, burst, pkts, &mut out);
            let elapsed = t0.elapsed();
            busy += elapsed;
            hist.record_duration(elapsed);
            checksum = fold_outcomes_checksum(checksum, &out);
            for o in &out {
                stats.record(o);
            }
        }
        reports.push(ShardReport {
            shard,
            stats,
            checksum,
            bursts: cfg.bursts_per_shard,
            busy_seconds: busy.as_secs_f64(),
        });
    }
    reports
}

fn entry_from(
    engine: &'static str,
    reports: &[ShardReport],
    hist: &Histogram,
) -> ForwardBenchEntry {
    let mut stats = BatchStats::default();
    let mut busy = 0.0;
    for r in reports {
        stats.merge(&r.stats);
        busy += r.busy_seconds;
    }
    let secs = busy.max(1e-12);
    let (p50, _, p99) = hist.quantiles();
    ForwardBenchEntry {
        engine,
        stats,
        pps: stats.packets as f64 / secs,
        ns_per_hop: secs * 1e9 / (stats.hops.max(1) as f64),
        burst_seconds_p50: p50,
        burst_seconds_p99: p99,
        burst_seconds_max: hist.max_scaled(),
        checksum: merged_checksum(reports),
        speedup_vs_scalar: 1.0,
    }
}

/// Measure all four engines on `cfg`'s workload, then run the
/// three-way differential oracle over the same scenario.
///
/// # Panics
/// Panics if the engines' merged checksums disagree or the oracle finds
/// a divergence — a forwarding bug must never ship inside a performance
/// number.
pub fn measure(cfg: &ForwardBenchConfig) -> Result<ForwardBenchReport, TopologyError> {
    let topo = load_topology(&cfg.topology)?;
    let g = topo.graph();
    let base = Splicing::build(&g, &SplicingConfig::degree_based(cfg.k, 0.0, 3.0), cfg.seed);
    let (splicings, mask) = churn_snapshots(&g, &base, cfg.schedule_len, cfg.batch, cfg.seed);
    let source = RotatingSnapshots(splicings.iter().map(|sp| Arc::clone(sp.arena())).collect());
    let gen = FlowGen::new(FlowConfig::new(g.node_count() as u32, cfg.k, cfg.seed));
    let pre = pregen_bursts(&gen, cfg);
    let opts = ForwarderOptions::default();

    // Engine 1: the pre-existing one-packet-at-a-time path, via the
    // same snapshot rotation as everyone else.
    let scalar_hist = Histogram::with_scale(1e-9);
    let scalar_reports = run_serial(cfg, &pre, &scalar_hist, |shard, burst, pkts, out| {
        let sp = &splicings[(shard as u64 + burst) as usize % splicings.len()];
        let fwd = Forwarder::new(sp, &g, &mask);
        for &(src, dst, bits) in pkts {
            out.push(WalkOutcome::from_outcome(&fwd.forward(
                NodeId(src),
                NodeId(dst),
                bits,
                &opts,
            )));
        }
    });

    // Engine 2: the allocation-light scalar arena walk.
    let walk_hist = Histogram::with_scale(1e-9);
    let walk_reports = run_serial(cfg, &pre, &walk_hist, |shard, burst, pkts, out| {
        let snap = source.snapshot(shard, burst);
        for &(src, dst, bits) in pkts {
            out.push(WalkOutcome::from_outcome(&scalar_walk(
                &snap,
                &mask,
                NodeId(src),
                NodeId(dst),
                bits,
                &opts,
            )));
        }
    });

    // Engine 3: one batch engine draining whole bursts.
    let batch_hist = Histogram::with_scale(1e-9);
    let mut engine = BatchForwarder::new(opts);
    let batch_reports = run_serial(cfg, &pre, &batch_hist, |shard, burst, pkts, out| {
        let snap = source.snapshot(shard, burst);
        out.extend_from_slice(engine.forward_burst(&snap, &mask, pkts));
    });

    // Engine 4: sharded batch workers on scoped threads, fed by copies
    // of the same pre-generated bursts.
    let registry = Registry::new();
    let sharded_tel = ForwardTelemetry::register(&registry);
    let bps = cfg.bursts_per_shard;
    let sharded_reports = run_sharded(
        cfg.shards,
        opts,
        &source,
        &mask,
        Some(&sharded_tel),
        |shard, burst, buf: &mut Vec<Pkt>| {
            if burst < bps {
                buf.extend_from_slice(&pre[shard * bps as usize + burst as usize]);
            }
        },
    );

    let mut engines = vec![
        entry_from("scalar", &scalar_reports, &scalar_hist),
        entry_from("scalar_walk", &walk_reports, &walk_hist),
        entry_from("batch", &batch_reports, &batch_hist),
        entry_from(
            "batch_sharded",
            &sharded_reports,
            &sharded_tel.burst_seconds,
        ),
    ];

    let expect = engines[0].checksum;
    for e in &engines {
        assert_eq!(
            e.checksum, expect,
            "engine {} diverged from the scalar reference",
            e.engine
        );
    }
    let scalar_pps = engines[0].pps.max(1e-12);
    for e in &mut engines {
        e.speedup_vs_scalar = e.pps / scalar_pps;
    }

    // The differential oracle over the same scenario: batch vs scalar
    // vs naive walker at every churn checkpoint.
    let sc = Scenario {
        topology: TopologySpec::Named(cfg.topology.clone()),
        k: cfg.k,
        perturbation: PerturbationSpec::DegreeBased,
        strategy: splice_core::strategy::StrategyKind::PerturbedSpf,
        build_seed: cfg.seed,
        events: churn_schedule(&g, cfg.k, cfg.schedule_len, cfg.seed),
    };
    let oracle_opts = ForwardOracleOptions {
        flows: 100_000,
        batch: cfg.batch,
        ..Default::default()
    };
    let oracle = match forward_oracle(&sc, &oracle_opts) {
        Ok(report) => ForwardOracleSummary {
            flows_checked: report.flows_checked as u64,
            checkpoints: report.checkpoints as u64,
            divergences: 0,
        },
        Err(div) => panic!("forward oracle diverged on {}: {div}", sc.spec()),
    };

    Ok(ForwardBenchReport {
        config: cfg.clone(),
        engines,
        oracle,
    })
}

/// Schema version stamped into every `BENCH_forward.json`. Bump when a
/// field is renamed, removed, or changes meaning; adding fields is
/// compatible.
pub const SCHEMA_VERSION: u64 = 1;

/// Render the report as the `BENCH_forward.json` document.
///
/// Stable schema (version [`SCHEMA_VERSION`]):
///
/// ```json
/// {
///   "benchmark": "forward",
///   "schema_version": 1,
///   "topology": "<name>", "seed": <u64>, "k": <usize>,
///   "schedule_len": <usize>, "batch": <usize>, "shards": <usize>,
///   "bursts_per_shard": <u64>, "burst_size": <usize>,
///   "engines": [ { one object per engine, fields as in ForwardBenchEntry } ],
///   "oracle": { "flows_checked", "checkpoints", "divergences" }
/// }
/// ```
pub fn render(report: &ForwardBenchReport) -> String {
    let cfg = &report.config;
    let mut arr = JsonArray::new();
    for e in &report.engines {
        arr = arr.push_raw(
            &JsonObject::new()
                .field_str("engine", e.engine)
                .field_u64("packets", e.stats.packets)
                .field_u64("hops", e.stats.hops)
                .field_f64("pps", e.pps)
                .field_f64("ns_per_hop", e.ns_per_hop)
                .field_f64("burst_seconds_p50", e.burst_seconds_p50)
                .field_f64("burst_seconds_p99", e.burst_seconds_p99)
                .field_f64("burst_seconds_max", e.burst_seconds_max)
                .field_u64("delivered", e.stats.delivered)
                .field_u64("dead_end", e.stats.dead_end)
                .field_u64("link_down", e.stats.link_down)
                .field_u64("persistent_loop", e.stats.persistent_loop)
                .field_u64("ttl_exceeded", e.stats.ttl_exceeded)
                .field_u64("checksum", e.checksum)
                .field_f64("speedup_vs_scalar", e.speedup_vs_scalar)
                .finish(),
        );
    }
    let oracle = JsonObject::new()
        .field_u64("flows_checked", report.oracle.flows_checked)
        .field_u64("checkpoints", report.oracle.checkpoints)
        .field_u64("divergences", report.oracle.divergences)
        .finish();
    JsonObject::new()
        .field_str("benchmark", "forward")
        .field_u64("schema_version", SCHEMA_VERSION)
        .field_str("topology", &cfg.topology)
        .field_u64("seed", cfg.seed)
        .field_u64("k", cfg.k as u64)
        .field_u64("schedule_len", cfg.schedule_len as u64)
        .field_u64("batch", cfg.batch as u64)
        .field_u64("shards", cfg.shards as u64)
        .field_u64("bursts_per_shard", cfg.bursts_per_shard)
        .field_u64("burst_size", cfg.burst_size as u64)
        .field_raw("engines", &arr.finish())
        .field_raw("oracle", &oracle)
        .finish()
}

/// Measure `cfg` and write `BENCH_forward.json` to `path`.
pub fn write_forward_report(
    path: impl AsRef<Path>,
    cfg: &ForwardBenchConfig,
) -> Result<(), LabError> {
    let report = measure(cfg)?;
    let mut text = render(&report);
    text.push('\n');
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ForwardBenchConfig {
        ForwardBenchConfig {
            topology: "abilene".into(),
            k: 3,
            schedule_len: 16,
            batch: 4,
            shards: 2,
            bursts_per_shard: 4,
            burst_size: 64,
            seed: 7,
        }
    }

    #[test]
    fn engines_agree_and_cover_the_workload() {
        let cfg = small_cfg();
        // measure() runs its own 100k-flow oracle; keep the unit test on
        // the engine sweep by driving the pieces directly.
        let topo = load_topology(&cfg.topology).unwrap();
        let g = topo.graph();
        let base = Splicing::build(&g, &SplicingConfig::degree_based(cfg.k, 0.0, 3.0), cfg.seed);
        let (splicings, mask) = churn_snapshots(&g, &base, cfg.schedule_len, cfg.batch, cfg.seed);
        assert!(splicings.len() > 1, "churn produced no snapshots");
        let source = RotatingSnapshots(splicings.iter().map(|sp| Arc::clone(sp.arena())).collect());
        let gen = FlowGen::new(FlowConfig::new(g.node_count() as u32, cfg.k, cfg.seed));
        let pre = pregen_bursts(&gen, &cfg);
        let opts = ForwarderOptions::default();

        let hist = Histogram::with_scale(1e-9);
        let scalar_reports = run_serial(&cfg, &pre, &hist, |shard, burst, pkts, out| {
            let sp = &splicings[(shard as u64 + burst) as usize % splicings.len()];
            let fwd = Forwarder::new(sp, &g, &mask);
            for &(src, dst, bits) in pkts {
                out.push(WalkOutcome::from_outcome(&fwd.forward(
                    NodeId(src),
                    NodeId(dst),
                    bits,
                    &opts,
                )));
            }
        });
        let walk_reports = run_serial(&cfg, &pre, &hist, |shard, burst, pkts, out| {
            let snap = source.snapshot(shard, burst);
            for &(src, dst, bits) in pkts {
                out.push(WalkOutcome::from_outcome(&scalar_walk(
                    &snap,
                    &mask,
                    NodeId(src),
                    NodeId(dst),
                    bits,
                    &opts,
                )));
            }
        });
        let mut engine = BatchForwarder::new(opts);
        let batch_reports = run_serial(&cfg, &pre, &hist, |shard, burst, pkts, out| {
            let snap = source.snapshot(shard, burst);
            out.extend_from_slice(engine.forward_burst(&snap, &mask, pkts));
        });
        let bps = cfg.bursts_per_shard;
        let sharded = run_sharded(
            cfg.shards,
            opts,
            &source,
            &mask,
            None,
            |shard, burst, buf: &mut Vec<Pkt>| {
                if burst < bps {
                    buf.extend_from_slice(&pre[shard * bps as usize + burst as usize]);
                }
            },
        );

        let expect = merged_checksum(&scalar_reports);
        assert_eq!(merged_checksum(&walk_reports), expect);
        assert_eq!(merged_checksum(&batch_reports), expect);
        assert_eq!(merged_checksum(&sharded), expect);
        let total: u64 = scalar_reports.iter().map(|r| r.stats.packets).sum();
        assert_eq!(total, cfg.total_packets());
        for r in &scalar_reports {
            assert!(r.busy_seconds > 0.0, "busy time must be measured");
        }
    }

    #[test]
    fn report_renders_and_writes() {
        let report = ForwardBenchReport {
            config: small_cfg(),
            engines: vec![ForwardBenchEntry {
                engine: "scalar",
                stats: BatchStats {
                    packets: 10,
                    hops: 30,
                    delivered: 10,
                    ..Default::default()
                },
                pps: 1e6,
                ns_per_hop: 33.0,
                burst_seconds_p50: 1e-6,
                burst_seconds_p99: 2e-6,
                burst_seconds_max: 3e-6,
                checksum: 0xdead,
                speedup_vs_scalar: 1.0,
            }],
            oracle: ForwardOracleSummary {
                flows_checked: 1000,
                checkpoints: 5,
                divergences: 0,
            },
        };
        let json = render(&report);
        assert!(json.contains(r#""benchmark":"forward""#));
        assert!(json.contains(r#""schema_version":1"#));
        assert!(json.contains(r#""pps""#));
        assert!(json.contains(r#""speedup_vs_scalar""#));
        assert!(json.contains(r#""divergences":0"#));

        let dir = std::env::temp_dir().join("splice-bench-forward-report");
        let path = dir.join("BENCH_forward.json");
        let mut text = json;
        text.push('\n');
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &text).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains(r#""benchmark":"forward""#));
        assert!(back.ends_with('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
