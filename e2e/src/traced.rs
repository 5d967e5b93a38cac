//! The traced run's stand-ins for `run_event_loop` and `run_live`, and
//! the stand-alone micro-drivers for the layers below them.
//!
//! Spans belong in the benchmark's files, not the program's, so a traced
//! run substitutes these loops: the same public calls in the same order
//! (`rx.recv`/`try_recv`, `cp.ingest`, `cp.flush`, `feed.refresh`,
//! `engine.forward_burst`), with a timestamp pair around each. The
//! end-to-end metrics never come from here; `trace.overhead_share`
//! reports what the substitution costs.

use crate::pipeline::Pkt;
use crate::replay::ReplayStep;
use crate::spans::Trace;
use crate::workload::MAX_BATCH;
use splice_core::control::{
    ControlEnvelope, ControlEvent, ControlMsg, ControlPlane, EventLoopReport,
};
use splice_core::forwarding::ForwarderOptions;
use splice_core::slices::Splicing;
use splice_core::strategy::with_spf_workspace;
use splice_dataplane::{BatchForwarder, ForwardTelemetry, LiveShardReport};
use splice_graph::{EdgeMask, Graph};
use splice_routing::spf::Histogram;
use splice_routing::SnapshotHub;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where the traced loops leave what they recorded.
pub struct TraceOut {
    /// Shared clock origin of every span.
    pub origin: Instant,
    /// Whether the measurement window is open (workers keep per-burst
    /// samples only then).
    pub counting: AtomicBool,
    /// The event loop's record, set when it exits.
    pub event_loop: Mutex<Option<LoopTrace>>,
    /// One record per worker, pushed as each exits.
    pub workers: Mutex<Vec<WorkerTrace>>,
}

impl TraceOut {
    /// An empty sink with its clock starting now.
    pub fn new() -> Arc<TraceOut> {
        Arc::new(TraceOut {
            origin: Instant::now(),
            counting: AtomicBool::new(false),
            event_loop: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
        })
    }
}

/// What the traced event loop recorded.
pub struct LoopTrace {
    /// `loop.iter` > `loop.recv`, `loop.drain`, `loop.ingest` (tag =
    /// event id), `loop.rebuild` (ingest of a `Recover`), `loop.flush`
    /// (a flush with something pending).
    pub trace: Trace,
    /// When each event (by arrival order = schedule order) left the
    /// queue.
    pub dequeued_at: Vec<Instant>,
    /// When the call that published epoch `i + 1` returned.
    pub published_at: Vec<Instant>,
    /// Envelopes taken per loop iteration.
    pub batch_lens: Vec<usize>,
    /// The repair passes the control plane formed, in order.
    pub steps: Vec<ReplayStep>,
}

/// What one traced worker recorded while the window was open.
pub struct WorkerTrace {
    /// Which shard.
    pub shard: usize,
    /// `worker.burst` > `worker.refresh`, `worker.forward_burst` for the
    /// first burst after each epoch change (tag = epoch).
    pub trace: Trace,
    /// Nanoseconds per `refresh()`.
    pub refresh_ns: Vec<u32>,
    /// Nanoseconds per `forward_burst` on an unchanged epoch.
    pub burst_ns: Vec<u32>,
    /// Nanoseconds per `forward_burst` that was the first on a new
    /// epoch (cold slabs).
    pub cold_burst_ns: Vec<u32>,
}

/// `run_event_loop`, call for call, recording as it goes.
pub fn event_loop(
    mut cp: ControlPlane,
    rx: crossbeam::channel::Receiver<ControlEnvelope>,
    latency: &Histogram,
    out: &TraceOut,
) -> (ControlPlane, EventLoopReport) {
    let mut lt = LoopTrace {
        trace: Trace::new(out.origin),
        dequeued_at: Vec::new(),
        published_at: Vec::new(),
        batch_lens: Vec::new(),
        steps: Vec::new(),
    };
    let mut arrivals: Vec<Instant> = Vec::new();
    let mut clean_shutdown = false;
    // Events `run_start..next_event` are pending inside `cp`.
    let mut next_event = 0usize;
    let mut run_start = 0usize;

    // What the shipped loop does after every call that may publish.
    let after = |lt: &mut LoopTrace,
                 arrivals: &mut Vec<Instant>,
                 published: Option<u64>,
                 returned: Instant| {
        let Some(epoch) = published else { return };
        while lt.published_at.len() < epoch as usize {
            lt.published_at.push(returned);
        }
        let now = Instant::now();
        for at in arrivals.drain(..) {
            latency.record_duration(now.duration_since(at));
        }
    };
    let flush = |cp: &mut ControlPlane,
                 lt: &mut LoopTrace,
                 parent: Option<u32>,
                 run_start: &mut usize,
                 next_event: usize|
     -> (Option<u64>, Instant) {
        let pending = cp.pending_len() > 0;
        let t0 = Instant::now();
        let published = cp.flush();
        let t1 = Instant::now();
        if pending {
            lt.trace
                .record("loop.flush", parent, t0, t1, *run_start as u64);
            lt.steps.push(ReplayStep::Repair(*run_start..next_event));
            *run_start = next_event;
        }
        (published, t1)
    };

    'outer: loop {
        let t_iter = Instant::now();
        let first = match rx.recv() {
            Ok(env) => env,
            Err(_) => break,
        };
        let t_recv = Instant::now();
        let iter = lt.trace.open("loop.iter", t_iter, next_event as u64);
        lt.trace
            .record("loop.recv", Some(iter), t_iter, t_recv, next_event as u64);
        let mut batch = vec![first];
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(env) => batch.push(env),
                Err(_) => break,
            }
        }
        let t_drain = Instant::now();
        lt.trace
            .record("loop.drain", Some(iter), t_recv, t_drain, next_event as u64);
        lt.batch_lens.push(batch.len());
        for env in batch {
            match env.msg {
                ControlMsg::Event(ev) => {
                    let id = next_event;
                    next_event += 1;
                    lt.dequeued_at.push(t_drain);
                    arrivals.push(env.at);
                    let recover = matches!(ev, ControlEvent::Recover(_));
                    let t0 = Instant::now();
                    let published = cp.ingest(&ev);
                    let t1 = Instant::now();
                    let name = if recover {
                        "loop.rebuild"
                    } else {
                        "loop.ingest"
                    };
                    lt.trace.record(name, Some(iter), t0, t1, id as u64);
                    if recover {
                        if run_start < id {
                            lt.steps.push(ReplayStep::Repair(run_start..id));
                        }
                        lt.steps.push(ReplayStep::Rebuild(id));
                        run_start = next_event;
                    } else if cp.pending_len() == 0 {
                        // `ingest` flushed on reaching the batch cap.
                        lt.steps.push(ReplayStep::Repair(run_start..next_event));
                        run_start = next_event;
                    }
                    after(&mut lt, &mut arrivals, published, t1);
                }
                ControlMsg::Flush => {
                    let (published, t1) =
                        flush(&mut cp, &mut lt, Some(iter), &mut run_start, next_event);
                    after(&mut lt, &mut arrivals, published, t1);
                }
                ControlMsg::Shutdown => {
                    clean_shutdown = true;
                    let (published, t1) =
                        flush(&mut cp, &mut lt, Some(iter), &mut run_start, next_event);
                    after(&mut lt, &mut arrivals, published, t1);
                    lt.trace.close(iter, Instant::now());
                    break 'outer;
                }
            }
        }
        let (published, t1) = flush(&mut cp, &mut lt, Some(iter), &mut run_start, next_event);
        after(&mut lt, &mut arrivals, published, t1);
        lt.trace.close(iter, Instant::now());
    }
    let (published, t1) = flush(&mut cp, &mut lt, None, &mut run_start, next_event);
    after(&mut lt, &mut arrivals, published, t1);
    let now = Instant::now();
    for at in arrivals.drain(..) {
        latency.record_duration(now.duration_since(at));
    }
    let report = EventLoopReport {
        stats: cp.stats(),
        final_epoch: cp.hub().epoch(),
        clean_shutdown,
    };
    *out.event_loop.lock().expect("trace lock poisoned") = Some(lt);
    (cp, report)
}

/// `run_live`, call for call, recording as it goes.
#[allow(clippy::too_many_arguments)]
pub fn live_workers<F>(
    shards: usize,
    opts: ForwarderOptions,
    hub: &SnapshotHub,
    mask: &EdgeMask,
    telemetry: &ForwardTelemetry,
    stop: &AtomicBool,
    feed: F,
    out: &TraceOut,
) -> Vec<LiveShardReport>
where
    F: Fn(usize, u64, &mut Vec<Pkt>) + Sync,
{
    let feed = &feed;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    let mut wt = WorkerTrace {
                        shard,
                        trace: Trace::new(out.origin),
                        refresh_ns: Vec::new(),
                        burst_ns: Vec::new(),
                        cold_burst_ns: Vec::new(),
                    };
                    let mut snapshots = hub.subscribe();
                    let mut engine = BatchForwarder::new(opts);
                    let mut buf: Vec<Pkt> = Vec::new();
                    let mut bursts = 0u64;
                    let mut busy = std::time::Duration::ZERO;
                    let mut epochs_seen = 1u64;
                    let mut final_epoch = snapshots.current().epoch;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        buf.clear();
                        feed(shard, bursts, &mut buf);
                        if buf.is_empty() {
                            break;
                        }
                        let t0 = Instant::now();
                        let up = snapshots.refresh();
                        let t1 = Instant::now();
                        let cold = up.epoch != final_epoch;
                        if cold {
                            epochs_seen += 1;
                            final_epoch = up.epoch;
                        }
                        let snapshot = Arc::clone(&up.fib);
                        let start = Instant::now();
                        let outcomes = engine.forward_burst(&snapshot, mask, &buf);
                        let end = Instant::now();
                        let elapsed = end.duration_since(start);
                        busy += elapsed;
                        telemetry.observe_burst(outcomes, elapsed);
                        bursts += 1;
                        if out.counting.load(Ordering::Relaxed) {
                            wt.refresh_ns.push(t1.duration_since(t0).as_nanos() as u32);
                            if cold {
                                let parent = wt.trace.open("worker.burst", t0, final_epoch);
                                wt.trace.record(
                                    "worker.refresh",
                                    Some(parent),
                                    t0,
                                    t1,
                                    final_epoch,
                                );
                                wt.trace.record(
                                    "worker.forward_burst",
                                    Some(parent),
                                    start,
                                    end,
                                    final_epoch,
                                );
                                wt.trace.close(parent, end);
                                wt.cold_burst_ns.push(elapsed.as_nanos() as u32);
                            } else {
                                wt.burst_ns.push(elapsed.as_nanos() as u32);
                            }
                        }
                    }
                    out.workers.lock().expect("trace lock poisoned").push(wt);
                    LiveShardReport {
                        shard,
                        stats: *engine.stats(),
                        bursts,
                        busy_seconds: busy.as_secs_f64(),
                        epochs_seen,
                        final_epoch,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    })
}

/// Micro-driver: microseconds per `SpliceFib::clone_prefix` (a repair
/// with no spare) and per `SpliceFib::copy_from` (a repair recycling
/// one), `reps` each.
pub fn arena_copy_costs(base: &Splicing, reps: usize) -> (Vec<f64>, Vec<f64>) {
    let src = base.arena();
    let mut spare = src.clone_prefix(src.k());
    let mut clone_us = Vec::with_capacity(reps);
    let mut copy_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let fresh = std::hint::black_box(src.clone_prefix(src.k()));
        clone_us.push(t0.elapsed().as_secs_f64() * 1e6);
        drop(fresh);
        let t1 = Instant::now();
        spare.copy_from(std::hint::black_box(src));
        copy_us.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    std::hint::black_box(&spare);
    (clone_us, copy_us)
}

/// Micro-driver: microseconds per strategy `fill_slice` of one plane on
/// the unfailed graph (what set-up pays `k` times), `rounds` per slice.
pub fn fill_plane_costs(g: &Graph, base: &Splicing, rounds: usize) -> Vec<f64> {
    let strategy = base.strategy().instance();
    let mask = EdgeMask::all_up(g.edge_count());
    let mut fib = base.arena().clone_prefix(base.k());
    let mut us = Vec::with_capacity(rounds * base.k());
    with_spf_workspace(|ws| {
        for _ in 0..rounds {
            for slice in 0..base.k() {
                let t0 = Instant::now();
                strategy.fill_slice(
                    g,
                    slice,
                    base.build_seed(),
                    base.weights(slice),
                    &mask,
                    ws,
                    &mut fib,
                    None,
                );
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    });
    std::hint::black_box(&fib);
    us
}

/// Micro-driver: microseconds per `SnapshotHub::publish` with
/// `subscribers` live feeds (drained between publishes, outside the
/// timer, as workers drain them).
pub fn publish_costs(base: &Splicing, subscribers: usize, reps: usize) -> Vec<f64> {
    let hub = SnapshotHub::new(Arc::clone(base.arena()));
    let mut feeds: Vec<_> = (0..subscribers).map(|_| hub.subscribe()).collect();
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let fib = Arc::clone(base.arena());
        let t0 = Instant::now();
        hub.publish(fib);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        for feed in &mut feeds {
            feed.refresh();
        }
    }
    us
}
