//! Data-plane telemetry: the counters a finished packet walk reports
//! into, and the JSONL serialization of packet walks.
//!
//! Everything here is read off a [`ForwardingOutcome`] — the kernel's
//! full [`Trace`] — after the walk: [`RouterStats`] are the *per-router*
//! counters, [`NetTelemetry`] aggregates the same events into a shared
//! [`Registry`] so one metric snapshot covers a whole experiment (many
//! walks, many trials), and [`walk_to_json`] is the one-line record a
//! trace sink gets. All three count one definition of a deflection.
//!
//! A *deflection* is a hop whose slice differs from the slice the packet
//! arrived in. That reads §4.3's network-based recovery off the walks
//! this module is fed — [`NetworkRecovery::forward`] and single-slice
//! headers, which never ask for a slice change themselves — so every
//! change was a router routing around a dead next hop.
//!
//! [`NetworkRecovery::forward`]: splice_core::recovery::NetworkRecovery::forward

use crate::batch::BatchStats;
use crate::walk::WalkOutcome;
use splice_core::forwarding::{ForwardingOutcome, Trace};
use splice_graph::NodeId;
use splice_telemetry::{Counter, Histogram, JsonArray, JsonObject, Registry};
use std::sync::Arc;
use std::time::Duration;

/// The routers that deflected the packet: one item per hop that left in
/// a different slice than the packet arrived in (`initial_slice` before
/// the first hop).
fn deflections(trace: &Trace, initial_slice: usize) -> impl Iterator<Item = NodeId> + '_ {
    let arrived_in = std::iter::once(initial_slice).chain(trace.steps.iter().map(|s| s.slice));
    trace
        .steps
        .iter()
        .zip(arrived_in)
        .filter(|(step, arrived_in)| step.slice != *arrived_in)
        .map(|(step, _)| step.node)
}

/// Stable label for why a walk ended short of its destination (used in
/// metrics and trace lines); `None` for a delivery.
pub fn drop_reason_label(outcome: &ForwardingOutcome) -> Option<&'static str> {
    match outcome {
        ForwardingOutcome::Delivered(_) => None,
        ForwardingOutcome::TtlExceeded(_) => Some("ttl_expired"),
        ForwardingOutcome::DeadEnd(_) => Some("no_route"),
        ForwardingOutcome::LinkDown { .. } => Some("link_down"),
        ForwardingOutcome::PersistentLoop(_) => Some("persistent_loop"),
    }
}

/// Per-router operational counters, accumulated across tallied walks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Packets this router forwarded onward.
    pub forwarded: u64,
    /// Packets delivered to this router as destination.
    pub delivered: u64,
    /// Packets dropped here (any reason).
    pub dropped: u64,
    /// Forwards where this router deflected the packet into an alternate
    /// slice because its next hop was unusable.
    pub deflections: u64,
}

impl RouterStats {
    /// Add one finished walk to `stats` (one entry per node): a forward
    /// at every hop's router, and the delivery or drop where it ended.
    pub fn tally(stats: &mut [RouterStats], outcome: &ForwardingOutcome, initial_slice: usize) {
        let trace = outcome.trace();
        for step in &trace.steps {
            stats[step.node.index()].forwarded += 1;
        }
        for node in deflections(trace, initial_slice) {
            stats[node.index()].deflections += 1;
        }
        let end = &mut stats[trace.last.index()];
        if outcome.is_delivered() {
            end.delivered += 1;
        } else {
            end.dropped += 1;
        }
    }
}

/// Aggregate data-plane counters, shared via `Arc` handles.
#[derive(Clone, Debug)]
pub struct NetTelemetry {
    /// Packets forwarded one hop (any router).
    pub forwarded: Arc<Counter>,
    /// Packets delivered to their destination.
    pub delivered: Arc<Counter>,
    /// Drops with the hop budget exhausted.
    pub dropped_ttl: Arc<Counter>,
    /// Drops where no slice offered a usable next hop.
    pub dropped_no_route: Arc<Counter>,
    /// Drops with the next-hop link down and no in-network recovery.
    pub dropped_link_down: Arc<Counter>,
    /// Drops in a forwarding cycle the packet could never leave.
    pub dropped_loop: Arc<Counter>,
    /// Forwards where local recovery deflected into an alternate slice.
    pub deflections: Arc<Counter>,
    /// Adjacent hops of one walk in different slices.
    pub slice_switches: Arc<Counter>,
}

impl NetTelemetry {
    /// Register (or re-acquire) the data-plane counter set in `registry`.
    pub fn register(registry: &Registry) -> NetTelemetry {
        let dropped = |reason| {
            registry.counter_with(
                "splice_packets_dropped_total",
                "Packets dropped by the data plane, by reason",
                &[("reason", reason)],
            )
        };
        NetTelemetry {
            forwarded: registry.counter(
                "splice_packets_forwarded_total",
                "Packets forwarded one hop by any router",
            ),
            delivered: registry.counter(
                "splice_packets_delivered_total",
                "Packets delivered to their destination",
            ),
            dropped_ttl: dropped("ttl_expired"),
            dropped_no_route: dropped("no_route"),
            dropped_link_down: dropped("link_down"),
            dropped_loop: dropped("persistent_loop"),
            deflections: registry.counter(
                "splice_deflections_total",
                "Local network-based recovery deflections into an alternate slice",
            ),
            slice_switches: registry.counter(
                "splice_slice_switches_total",
                "Hops where a packet changed routing slice",
            ),
        }
    }

    /// Fold one finished walk in — the aggregate of what
    /// [`RouterStats::tally`] spreads over the routers.
    pub fn observe(&self, outcome: &ForwardingOutcome, initial_slice: usize) {
        let trace = outcome.trace();
        self.forwarded.add(trace.hop_count() as u64);
        self.deflections
            .add(deflections(trace, initial_slice).count() as u64);
        self.slice_switches.add(trace.slice_switches() as u64);
        match outcome {
            ForwardingOutcome::Delivered(_) => &self.delivered,
            ForwardingOutcome::TtlExceeded(_) => &self.dropped_ttl,
            ForwardingOutcome::DeadEnd(_) => &self.dropped_no_route,
            ForwardingOutcome::LinkDown { .. } => &self.dropped_link_down,
            ForwardingOutcome::PersistentLoop(_) => &self.dropped_loop,
        }
        .inc();
    }
}

/// Batch-forwarding telemetry: throughput counters plus the latency
/// histograms behind the pps / per-hop-ns / burst-tail numbers.
/// Registered once per run; shard workers share the handles
/// (everything inside is atomic).
#[derive(Clone, Debug)]
pub struct ForwardTelemetry {
    /// Packets fully walked by the batch engine.
    pub packets: Arc<Counter>,
    /// Total hops taken across all walked packets.
    pub hops: Arc<Counter>,
    /// Bursts drained.
    pub bursts: Arc<Counter>,
    /// Packets dropped (any non-delivered class).
    pub dropped: Arc<Counter>,
    /// Wall time to drain one burst (tail latency lives here).
    pub burst_seconds: Arc<Histogram>,
    /// Amortized per-hop time within each burst.
    pub hop_seconds: Arc<Histogram>,
    /// Hops per walked packet.
    pub walk_hops: Arc<Histogram>,
}

impl ForwardTelemetry {
    /// Register (or re-acquire) the batch-forwarding metric set.
    pub fn register(registry: &Registry) -> ForwardTelemetry {
        ForwardTelemetry {
            packets: registry.counter(
                "splice_forward_packets_total",
                "Packets fully walked by the batch forwarding engine",
            ),
            hops: registry.counter(
                "splice_forward_hops_total",
                "Hops taken across all batch-forwarded packets",
            ),
            bursts: registry.counter(
                "splice_forward_bursts_total",
                "Packet bursts drained by the batch forwarding engine",
            ),
            dropped: registry.counter(
                "splice_forward_dropped_total",
                "Batch-forwarded packets that did not reach their destination",
            ),
            burst_seconds: registry.histogram_seconds(
                "splice_forward_burst_seconds",
                "Wall time to drain one packet burst",
            ),
            hop_seconds: registry.histogram_seconds(
                "splice_forward_hop_seconds",
                "Amortized per-hop forwarding time within a burst",
            ),
            walk_hops: registry
                .histogram("splice_forward_walk_hops", "Hops taken per walked packet"),
        }
    }

    /// Fold one drained burst in: its outcomes and the wall time the
    /// engine took to drain it.
    pub fn observe_burst(&self, outcomes: &[WalkOutcome], elapsed: Duration) {
        let mut stats = BatchStats::default();
        outcomes.iter().for_each(|out| stats.record(out));
        self.walk_hops
            .record_all(outcomes.iter().map(|out| out.hops as u64));
        self.bursts.inc();
        self.packets.add(stats.packets);
        self.hops.add(stats.hops);
        self.dropped.add(stats.packets - stats.delivered);
        self.burst_seconds.record_duration(elapsed);
        if let Some(per_hop) = (elapsed.as_nanos() as u64).checked_div(stats.hops) {
            self.hop_seconds.record(per_hop);
        }
    }
}

/// Serialize one packet walk as a single JSON line for a trace sink.
///
/// Fields: `delivered`, `src`/`dst` (node ids), `hops`, `latency_ms`
/// (the walk's length under the per-edge `latencies`), `drop` (reason
/// string or `null`), `path` (node ids visited), and `slices` (slice
/// used at each hop).
pub fn walk_to_json(outcome: &ForwardingOutcome, latencies: &[f64]) -> String {
    let trace = outcome.trace();
    let mut path = JsonArray::new();
    let mut slices = JsonArray::new();
    for step in &trace.steps {
        path = path.push_u64(step.node.0 as u64);
        slices = slices.push_u64(step.slice as u64);
    }
    path = path.push_u64(trace.last.0 as u64);
    let obj = JsonObject::new()
        .field_bool("delivered", outcome.is_delivered())
        .field_u64("src", trace.src.0 as u64)
        .field_u64("dst", trace.dst.0 as u64)
        .field_u64("hops", trace.hop_count() as u64)
        // `+ 0.0`: the empty sum of a walk that never left its source
        // is -0.0, which would print as `-0`.
        .field_f64("latency_ms", trace.length(latencies) + 0.0);
    let obj = match drop_reason_label(outcome) {
        Some(reason) => obj.field_str("drop", reason),
        None => obj.field_raw("drop", "null"),
    };
    obj.field_raw("path", &path.finish())
        .field_raw("slices", &slices.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::forwarding::TraceStep;
    use splice_graph::EdgeId;

    /// A walk from node 0 toward `dst`: `(node, slice, edge)` per hop.
    fn trace(dst: u32, steps: &[(u32, usize, u32)], last: u32) -> Trace {
        Trace {
            src: NodeId(0),
            dst: NodeId(dst),
            steps: steps
                .iter()
                .map(|&(node, slice, edge)| TraceStep {
                    node: NodeId(node),
                    slice,
                    edge: EdgeId(edge),
                })
                .collect(),
            last: NodeId(last),
        }
    }

    #[test]
    fn registers_the_full_counter_set() {
        let reg = Registry::new();
        let tel = NetTelemetry::register(&reg);
        tel.forwarded.add(4);
        tel.deflections.inc();
        tel.dropped_ttl.inc();
        let text = reg.render_prometheus();
        assert!(text.contains("splice_packets_forwarded_total 4"));
        assert!(text.contains("splice_deflections_total 1"));
        assert!(text.contains("splice_packets_dropped_total{reason=\"ttl_expired\"} 1"));
        assert!(text.contains("splice_packets_dropped_total{reason=\"no_route\"} 0"));
        assert!(text.contains("splice_packets_dropped_total{reason=\"link_down\"} 0"));
        assert!(text.contains("splice_packets_dropped_total{reason=\"persistent_loop\"} 0"));
    }

    #[test]
    fn register_twice_shares_counters() {
        let reg = Registry::new();
        let a = NetTelemetry::register(&reg);
        let b = NetTelemetry::register(&reg);
        a.forwarded.inc();
        b.forwarded.inc();
        assert_eq!(a.forwarded.get(), 2);
    }

    /// Per-router counters ≡ aggregate counters ≡ what the traces show,
    /// over every way a deflecting walk from slice 0 ends. The walks are
    /// what `NetworkRecovery::forward` returns on the six-node fixture of
    /// `forwarding::tests::pinned_walks_on_the_six_node_fixture`.
    #[test]
    fn router_stats_and_counters_account_for_every_hop() {
        use ForwardingOutcome::{DeadEnd, Delivered, PersistentLoop, TtlExceeded};
        let walks = [
            // Deflected at 2 into slice 2, back to 1, on to 3.
            Delivered(trace(3, &[(0, 0, 0), (1, 0, 1), (2, 2, 1), (1, 2, 5)], 3)),
            // The same with the way out of 1 cut too: deflected back.
            PersistentLoop(trace(3, &[(0, 0, 0), (1, 0, 1), (2, 2, 1), (1, 0, 1)], 2)),
            // The source cut off entirely.
            DeadEnd(trace(3, &[], 0)),
            // A budget of one hop on a three-hop path.
            TtlExceeded(trace(3, &[(0, 0, 0), (1, 0, 1)], 2)),
            // Deflected on the very first hop: not a slice switch.
            Delivered(trace(3, &[(0, 1, 6), (2, 1, 2)], 3)),
        ];
        let labels: Vec<_> = walks.iter().map(drop_reason_label).collect();
        assert_eq!(
            labels,
            [
                None,
                Some("persistent_loop"),
                Some("no_route"),
                Some("ttl_expired"),
                None
            ]
        );

        let reg = Registry::new();
        let tel = NetTelemetry::register(&reg);
        let mut stats = vec![RouterStats::default(); 6];
        for out in &walks {
            tel.observe(out, 0);
            RouterStats::tally(&mut stats, out, 0);
        }
        let sum = |f: fn(&RouterStats) -> u64| stats.iter().map(f).sum::<u64>();
        let hops: usize = walks.iter().map(|w| w.trace().hop_count()).sum();
        assert_eq!(tel.forwarded.get(), hops as u64);
        assert_eq!(sum(|s| s.forwarded), hops as u64);
        assert_eq!(tel.delivered.get(), 2);
        assert_eq!(sum(|s| s.delivered), 2);
        assert_eq!(stats[3].delivered, 2);
        assert_eq!(sum(|s| s.dropped), 3);
        assert_eq!((tel.dropped_loop.get(), tel.dropped_no_route.get()), (1, 1));
        assert_eq!((tel.dropped_ttl.get(), tel.dropped_link_down.get()), (1, 0));
        // Drops land on the router the walk ended at.
        assert_eq!((stats[0].dropped, stats[2].dropped), (1, 2));
        // Walks 1 and 2 deflect at node 2, walk 2 again back at node 1
        // (slice 2's way out of it is the other dead link), walk 5 at
        // the source.
        assert_eq!(tel.deflections.get(), 4);
        assert_eq!(sum(|s| s.deflections), 4);
        let per_router: Vec<u64> = stats.iter().map(|s| s.deflections).collect();
        assert_eq!(per_router, [1, 1, 2, 0, 0, 0]);
        // A first-hop deflection changes no slice between adjacent hops.
        let switches: usize = walks.iter().map(|w| w.trace().slice_switches()).sum();
        assert_eq!(tel.slice_switches.get(), switches as u64);
        assert_eq!(walks[4].trace().slice_switches(), 0);
    }

    #[test]
    fn delivered_walk_serializes() {
        let walk = ForwardingOutcome::Delivered(trace(7, &[(0, 0, 0), (3, 2, 1)], 7));
        let line = walk_to_json(&walk, &[4.5, 8.0]);
        assert_eq!(
            line,
            r#"{"delivered":true,"src":0,"dst":7,"hops":2,"latency_ms":12.5,"drop":null,"path":[0,3,7],"slices":[0,2]}"#
        );
    }

    #[test]
    fn forward_telemetry_folds_bursts() {
        use crate::walk::{WalkClass, NO_SLICE};
        let reg = Registry::new();
        let tel = ForwardTelemetry::register(&reg);
        let outs = [
            WalkOutcome {
                class: WalkClass::Delivered,
                hops: 3,
                last: 1,
                slice: NO_SLICE,
                path_hash: 1,
            },
            WalkOutcome {
                class: WalkClass::DeadEnd,
                hops: 1,
                last: 2,
                slice: NO_SLICE,
                path_hash: 2,
            },
        ];
        tel.observe_burst(&outs, Duration::from_micros(8));
        assert_eq!(tel.packets.get(), 2);
        assert_eq!(tel.hops.get(), 4);
        assert_eq!(tel.dropped.get(), 1);
        assert_eq!(tel.bursts.get(), 1);
        assert_eq!(tel.burst_seconds.count(), 1);
        assert_eq!(tel.hop_seconds.count(), 1);
        assert_eq!(tel.walk_hops.count(), 2);
    }

    #[test]
    fn dropped_walk_names_the_reason() {
        let trace = trace(9, &[(0, 0, 0), (3, 2, 1)], 7);
        let walk = ForwardingOutcome::LinkDown { trace, slice: 2 };
        let line = walk_to_json(&walk, &[4.5, 8.0]);
        assert!(line.contains(r#""delivered":false"#));
        assert!(line.contains(r#""drop":"link_down""#));
        assert!(line.contains(r#""dst":9"#) && line.contains(r#""path":[0,3,7]"#));
    }
}
