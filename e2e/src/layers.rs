//! The per-layer metrics of a traced run: what the recording loops saw,
//! folded per layer, plus the stand-alone micro-drivers.

use crate::pipeline::worker_count;
use crate::replay::{singleton_steps, ReplayStep, Replayer, StepCost};
use crate::run::{latency_summary, visible_at, Inputs, Round, RoundStats};
use crate::spans::{self_times, span_json, NameTotals, Span};
use crate::stats::{median, quantile};
use crate::traced::{self, LoopTrace, WorkerTrace};
use crate::workload::Workload;
use splice_core::control::fib_checksum;
use std::collections::BTreeMap;
use std::time::Instant;

/// What [`layer_metrics`] reads.
pub(crate) struct LayerInputs<'a> {
    pub(crate) w: &'a Workload,
    pub(crate) inputs: &'a Inputs,
    pub(crate) resolve_ms: &'a [f64],
    pub(crate) build_ms: &'a [f64],
    pub(crate) reference: &'a [RoundStats],
    pub(crate) traced: &'a [Round],
    pub(crate) traced_stats: &'a [RoundStats],
    pub(crate) lateness_p99: f64,
    pub(crate) verify_hops: u64,
}

fn ns_since(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Durations (in `scale` units per second) of the spans named `name`
/// that started inside `window`.
fn span_samples(spans: &[Span], name: &str, window: (u64, u64), scale: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.start_ns >= window.0 && s.start_ns <= window.1)
        .map(|s| s.duration_ns() as f64 * 1e-9 * scale)
        .collect()
}

/// Everything the per-layer run reports. Returns the span totals and the
/// trace as JSON lines.
pub(crate) fn layer_metrics(
    l: &LayerInputs<'_>,
    push: &mut impl FnMut(&'static str, &'static str, Option<f64>, usize),
    problems: &mut Vec<String>,
) -> (BTreeMap<&'static str, NameTotals>, Vec<String>) {
    let inputs = l.inputs;
    let g = &inputs.dep.g;
    let base = &inputs.dep.base;

    // Set-up layers.
    push(
        "topology.resolve_ms",
        "ms",
        median(l.resolve_ms),
        l.resolve_ms.len(),
    );
    push(
        "slices.build_ms",
        "ms",
        median(l.build_ms),
        l.build_ms.len(),
    );
    let fill = traced::fill_plane_costs(g, base, 8);
    push(
        "spf.fill_plane_us_p50",
        "us",
        quantile(&fill, 0.5),
        fill.len(),
    );

    // Fold the traced rounds' records together.
    let mut queue_wait_ms = Vec::new();
    let mut dequeue_to_publish_ms = Vec::new();
    let mut batch_lens = Vec::new();
    let mut ingest_us = Vec::new();
    let mut flush_ms = Vec::new();
    let mut rebuild_ms = Vec::new();
    let mut pickup_lag_us = Vec::new();
    let mut refresh_ns = Vec::new();
    let mut burst_us = Vec::new();
    let mut cold_burst_us = Vec::new();
    let mut recv_wait_s = 0.0;
    let mut window_s = 0.0;
    let mut observed_epochs = 0usize;
    let mut live_steps: Vec<ReplayStep> = Vec::new();
    let mut all_spans: Vec<Span> = Vec::new();
    let mut trace_lines = Vec::new();
    let (mut publishes, mut rebuilds, mut repair_batches, mut recycled) = (0u64, 0u64, 0u64, 0u64);
    let (mut packets, mut hops, mut delivered, mut dead_end) = (0u64, 0u64, 0u64, 0u64);
    let (mut busy_s, mut worker_wall_s, mut bursts, mut epochs_seen) = (0.0, 0.0, 0u64, 0u64);
    let (mut cpu_s, mut switches) = (0.0, 0u64);
    for round in l.traced {
        let out = round.trace.as_ref().expect("traced rounds carry a trace");
        let Some(lt): Option<LoopTrace> =
            out.event_loop.lock().expect("trace lock poisoned").take()
        else {
            problems.push("the traced event loop left no record".to_string());
            continue;
        };
        let workers: Vec<WorkerTrace> =
            std::mem::take(&mut *out.workers.lock().expect("trace lock poisoned"));
        let window = (
            ns_since(out.origin, round.window.0),
            ns_since(out.origin, round.window.1),
        );
        window_s += (window.1 - window.0) as f64 * 1e-9;
        let spans = lt.trace.spans();
        ingest_us.extend(span_samples(spans, "loop.ingest", window, 1e6));
        flush_ms.extend(span_samples(spans, "loop.flush", window, 1e3));
        rebuild_ms.extend(span_samples(spans, "loop.rebuild", window, 1e3));
        recv_wait_s += span_samples(spans, "loop.recv", window, 1.0)
            .iter()
            .sum::<f64>();
        // The i-th `loop.iter` span is the iteration that drained the
        // i-th batch.
        batch_lens.extend(
            spans
                .iter()
                .filter(|s| s.name == "loop.iter")
                .zip(&lt.batch_lens)
                .filter(|(s, _)| s.start_ns >= window.0 && s.start_ns <= window.1)
                .map(|(_, &len)| len as f64),
        );

        // Per event: due → dequeued → the publish that made it visible.
        let visible = visible_at(round);
        for (e, at) in lt.dequeued_at.iter().enumerate().take(round.events) {
            if round.due[e] < round.window.0 {
                continue;
            }
            queue_wait_ms.push(at.saturating_duration_since(round.due[e]).as_secs_f64() * 1e3);
            if e < inputs.oracle.events() && inputs.oracle.changes_fib(e) {
                // The first publish that returned after this event left
                // the queue is the one that carried it.
                let i = lt.published_at.partition_point(|p| p < at);
                if let (Some(published), Some(_)) = (lt.published_at.get(i), visible[e]) {
                    dequeue_to_publish_ms.push(published.duration_since(*at).as_secs_f64() * 1e3);
                }
            }
        }
        // Per observed epoch: publish returned → a worker stamped it.
        let f = &round.finished;
        for shard in 0..f.shared.workers() {
            let obs = f.shared.shard(shard);
            for step in obs.steps.iter().filter(|s| s.at >= round.window.0) {
                observed_epochs += 1;
                if let Some(published) = lt.published_at.get(step.epoch as usize - 1) {
                    let lag = if step.at >= *published {
                        step.at.duration_since(*published).as_secs_f64()
                    } else {
                        -published.duration_since(step.at).as_secs_f64()
                    };
                    pickup_lag_us.push(lag * 1e6);
                }
            }
        }
        for wt in &workers {
            refresh_ns.extend(wt.refresh_ns.iter().map(|&ns| ns as f64));
            burst_us.extend(wt.burst_ns.iter().map(|&ns| ns as f64 * 1e-3));
            cold_burst_us.extend(wt.cold_burst_ns.iter().map(|&ns| ns as f64 * 1e-3));
        }
        let stats = f.loop_report.stats;
        publishes += stats.publishes;
        rebuilds += stats.rebuilds;
        repair_batches += stats.repair_batches;
        recycled += stats.arenas_recycled;
        for r in &f.shards {
            packets += r.stats.packets;
            hops += r.stats.hops;
            delivered += r.stats.delivered;
            dead_end += r.stats.dead_end;
            busy_s += r.busy_seconds;
            bursts += r.bursts;
            epochs_seen = epochs_seen.max(r.epochs_seen);
            worker_wall_s += f.stopped_at.duration_since(round.first_burst).as_secs_f64();
        }
        cpu_s += round.cpu_s;
        switches += round.invol_switches;

        trace_lines.extend(spans.iter().map(|s| span_json("loop", s)));
        for wt in &workers {
            let name = format!("worker{}", wt.shard);
            trace_lines.extend(wt.trace.spans().iter().map(|s| span_json(&name, s)));
        }
        // Re-base span ids so traces of several rounds can share a fold.
        let offset = all_spans.len() as u32;
        all_spans.extend(spans.iter().cloned().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        if live_steps.is_empty() {
            live_steps = lt.steps;
        }
    }

    // `core::control` queue.
    push(
        "control.queue_wait_ms_p50",
        "ms",
        quantile(&queue_wait_ms, 0.5),
        queue_wait_ms.len(),
    );
    push(
        "control.queue_wait_ms_p99",
        "ms",
        quantile(&queue_wait_ms, 0.99),
        queue_wait_ms.len(),
    );
    push(
        "control.batch_len_p50",
        "count",
        quantile(&batch_lens, 0.5),
        batch_lens.len(),
    );
    push("control.batches", "count", Some(batch_lens.len() as f64), 1);
    // `core::control` loop.
    push(
        "control.ingest_us_p50",
        "us",
        quantile(&ingest_us, 0.5),
        ingest_us.len(),
    );
    push(
        "control.flush_ms_p50",
        "ms",
        quantile(&flush_ms, 0.5),
        flush_ms.len(),
    );
    push(
        "control.flush_ms_p99",
        "ms",
        quantile(&flush_ms, 0.99),
        flush_ms.len(),
    );
    push(
        "control.rebuild_ms_p50",
        "ms",
        quantile(&rebuild_ms, 0.5),
        rebuild_ms.len(),
    );
    push(
        "control.rebuild_ms_p99",
        "ms",
        quantile(&rebuild_ms, 0.99),
        rebuild_ms.len(),
    );
    let flush_busy_s = (flush_ms.iter().sum::<f64>() + rebuild_ms.iter().sum::<f64>()) * 1e-3;
    push("control.flush_busy_s", "s", Some(flush_busy_s), 1);
    push(
        "control.loop_busy_share",
        "share",
        Some(1.0 - recv_wait_s / window_s.max(1e-9)),
        1,
    );
    push(
        "control.dequeue_to_publish_ms_p50",
        "ms",
        quantile(&dequeue_to_publish_ms, 0.5),
        dequeue_to_publish_ms.len(),
    );
    // `core::control` counts.
    push("control.publishes", "count", Some(publishes as f64), 1);
    push("control.rebuilds", "count", Some(rebuilds as f64), 1);
    push(
        "control.repair_batches",
        "count",
        Some(repair_batches as f64),
        1,
    );
    push("control.arenas_recycled", "count", Some(recycled as f64), 1);
    push(
        "control.recycle_share",
        "share",
        Some(recycled as f64 / (publishes as f64).max(1.0)),
        1,
    );

    // `core::slices` repair: replay the passes the live loop formed. When
    // every pass held one event, the oracle's batch-1 replay already did.
    let live_costs: Vec<StepCost> = if live_steps == singleton_steps(&inputs.events) {
        inputs.batch1_costs.clone()
    } else {
        let mut replayer = Replayer::new(g, base);
        let costs = live_steps
            .iter()
            .map(|step| replayer.apply(&inputs.events, step))
            .collect();
        if live_steps_cover(&live_steps, inputs.events.len())
            && fib_checksum(g, replayer.current()) != inputs.oracle_checksum
        {
            problems.push("replaying the live batches did not end on the oracle's FIB".to_string());
        }
        costs
    };
    let repair_ms: Vec<f64> = live_costs
        .iter()
        .filter(|c| !c.rebuild)
        .map(|c| c.seconds * 1e3)
        .collect();
    push(
        "slices.repair_ms_p50",
        "ms",
        quantile(&repair_ms, 0.5),
        repair_ms.len(),
    );
    push(
        "slices.repair_ms_p99",
        "ms",
        quantile(&repair_ms, 0.99),
        repair_ms.len(),
    );
    push(
        "slices.repair_busy_s",
        "s",
        Some(live_costs.iter().map(|c| c.seconds).sum()),
        live_costs.len(),
    );
    // Work counts come from the batch-1 replay, whose partition does not
    // depend on timing, so they repeat exactly.
    let patched: usize = inputs
        .batch1_costs
        .iter()
        .map(|c| c.stats.patched_columns)
        .sum();
    let frontier: usize = inputs
        .batch1_costs
        .iter()
        .map(|c| c.stats.frontier_nodes)
        .sum();
    push(
        "slices.patched_columns",
        "count",
        Some(patched as f64),
        inputs.batch1_costs.len(),
    );
    push(
        "slices.frontier_nodes",
        "count",
        Some(frontier as f64),
        inputs.batch1_costs.len(),
    );
    push(
        "control.flush_overhead_ms_p50",
        "ms",
        Some(quantile(&flush_ms, 0.5).unwrap_or(0.0) - quantile(&repair_ms, 0.5).unwrap_or(0.0)),
        flush_ms.len().min(repair_ms.len()),
    );

    // `routing::arena`.
    push(
        "arena.state_bytes",
        "B",
        Some(base.arena().state_bytes() as f64),
        1,
    );
    let (clone_us, copy_us) = traced::arena_copy_costs(base, 200);
    push(
        "arena.clone_us_p50",
        "us",
        quantile(&clone_us, 0.5),
        clone_us.len(),
    );
    push(
        "arena.copy_from_us_p50",
        "us",
        quantile(&copy_us, 0.5),
        copy_us.len(),
    );

    // `routing::snapshot`.
    let publish_us = traced::publish_costs(base, worker_count(), 1000);
    push(
        "snapshot.publish_us_p50",
        "us",
        quantile(&publish_us, 0.5),
        publish_us.len(),
    );
    push(
        "snapshot.refresh_ns_p50",
        "ns",
        quantile(&refresh_ns, 0.5),
        refresh_ns.len(),
    );
    push(
        "snapshot.pickup_lag_us_p50",
        "us",
        quantile(&pickup_lag_us, 0.5),
        pickup_lag_us.len(),
    );
    push(
        "snapshot.pickup_lag_us_p99",
        "us",
        quantile(&pickup_lag_us, 0.99),
        pickup_lag_us.len(),
    );
    let seen_share = observed_epochs as f64 / (publishes as f64 * worker_count() as f64).max(1.0);
    push(
        "snapshot.epochs_skipped_share",
        "share",
        Some((1.0 - seen_share).max(0.0)),
        1,
    );

    // `dataplane::batch`.
    push(
        "batch.ns_per_hop",
        "ns",
        Some(busy_s * 1e9 / (hops as f64).max(1.0)),
        1,
    );
    push(
        "batch.ns_per_pkt",
        "ns",
        Some(busy_s * 1e9 / (packets as f64).max(1.0)),
        1,
    );
    push(
        "batch.burst_us_p50",
        "us",
        quantile(&burst_us, 0.5),
        burst_us.len(),
    );
    push(
        "batch.burst_us_p99",
        "us",
        quantile(&burst_us, 0.99),
        burst_us.len(),
    );
    push(
        "batch.cold_burst_us_p50",
        "us",
        quantile(&cold_burst_us, 0.5),
        cold_burst_us.len(),
    );
    push("batch.packets", "count", Some(packets as f64), 1);
    push("batch.hops", "count", Some(hops as f64), 1);
    push("batch.verify_hops", "count", Some(l.verify_hops as f64), 1);
    push(
        "batch.delivered_share",
        "share",
        Some(delivered as f64 / (packets as f64).max(1.0)),
        1,
    );
    push(
        "batch.dead_end_share",
        "share",
        Some(dead_end as f64 / (packets as f64).max(1.0)),
        1,
    );

    // `dataplane::shard`.
    push(
        "shard.busy_share",
        "share",
        Some(busy_s / worker_wall_s.max(1e-9)),
        1,
    );
    push("shard.bursts", "count", Some(bursts as f64), 1);
    push("shard.epochs_seen", "count", Some(epochs_seen as f64), 1);

    // `traffic::flows`.
    let ring_packets: usize = inputs.ring.iter().map(Vec::len).sum();
    push(
        "flows.fill_ns_per_pkt",
        "ns",
        Some(inputs.fill_s * 1e9 / ring_packets as f64),
        ring_packets,
    );

    // Process, generator, the benchmark itself.
    push("process.cpu_s", "s", Some(cpu_s), 1);
    push(
        "process.ctx_switches_invol",
        "count",
        Some(switches as f64),
        1,
    );
    push("gen.lateness_us_p99", "us", Some(l.lateness_p99), 1);
    push(
        "gen.backlog_end",
        "count",
        Some(l.traced.first().map_or(0, |r| r.backlog_end) as f64),
        1,
    );
    push("bench.oracle_s", "s", Some(inputs.oracle_s), 1);
    let (ref_p50, _, _) = latency_summary(l.w, l.reference);
    let (traced_p50, _, traced_samples) = latency_summary(l.w, l.traced_stats);
    push("trace.visible_p50_ms", "ms", traced_p50, traced_samples);
    push(
        "trace.overhead_share",
        "share",
        match (ref_p50, traced_p50) {
            (Some(r), Some(t)) if r > 0.0 => Some(t / r - 1.0),
            _ => None,
        },
        1,
    );
    (self_times(&all_spans), trace_lines)
}

/// Whether `steps` account for every one of `n` events (a run that
/// diverged or timed out may not).
fn live_steps_cover(steps: &[ReplayStep], n: usize) -> bool {
    let covered: usize = steps
        .iter()
        .map(|s| match s {
            ReplayStep::Repair(r) => r.len(),
            ReplayStep::Rebuild(_) => 1,
        })
        .sum();
    covered == n
}
