//! Data-plane telemetry: the counter set a [`SimNetwork`] reports into,
//! and the JSONL serialization of packet walks.
//!
//! [`RouterStats`](crate::network::RouterStats) keeps *per-router*
//! counters inside the network object; [`NetTelemetry`] aggregates the
//! same events into a shared [`Registry`] so one metric snapshot covers
//! a whole experiment (many networks, many trials). Both are fed from
//! the same match arms in `inject_with_events`, so they can never
//! disagree.

use crate::batch::BatchStats;
use crate::network::DeliveryReport;
use crate::router::DropReason;
use crate::walk::WalkOutcome;
use splice_telemetry::{Counter, Histogram, JsonArray, JsonObject, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate data-plane counters, shared via `Arc` handles.
#[derive(Clone, Debug)]
pub struct NetTelemetry {
    /// Packets forwarded one hop (any router).
    pub forwarded: Arc<Counter>,
    /// Packets delivered to their destination.
    pub delivered: Arc<Counter>,
    /// Drops with TTL expired.
    pub dropped_ttl: Arc<Counter>,
    /// Drops with no FIB route.
    pub dropped_no_route: Arc<Counter>,
    /// Drops with the next-hop link down (recovery off or exhausted).
    pub dropped_link_down: Arc<Counter>,
    /// Forwards where local recovery deflected into an alternate slice.
    pub deflections: Arc<Counter>,
    /// Hops where the packet left in a different slice than it arrived.
    pub slice_switches: Arc<Counter>,
}

impl NetTelemetry {
    /// Register (or re-acquire) the data-plane counter set in `registry`.
    pub fn register(registry: &Registry) -> NetTelemetry {
        let drops = "Packets dropped by the data plane, by reason";
        NetTelemetry {
            forwarded: registry.counter(
                "splice_packets_forwarded_total",
                "Packets forwarded one hop by any router",
            ),
            delivered: registry.counter(
                "splice_packets_delivered_total",
                "Packets delivered to their destination",
            ),
            dropped_ttl: registry.counter_with(
                "splice_packets_dropped_total",
                drops,
                &[("reason", "ttl_expired")],
            ),
            dropped_no_route: registry.counter_with(
                "splice_packets_dropped_total",
                drops,
                &[("reason", "no_route")],
            ),
            dropped_link_down: registry.counter_with(
                "splice_packets_dropped_total",
                drops,
                &[("reason", "link_down")],
            ),
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

    /// The drop counter for a specific reason.
    pub fn drop_counter(&self, reason: &DropReason) -> &Counter {
        match reason {
            DropReason::TtlExpired => &self.dropped_ttl,
            DropReason::NoRoute => &self.dropped_no_route,
            DropReason::LinkDown => &self.dropped_link_down,
        }
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
        for out in outcomes {
            stats.record(out);
            self.walk_hops.record(out.hops as u64);
        }
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
/// Fields: `delivered`, `src`/`dst` (node ids), `hops`, `latency_ms`,
/// `drop` (reason string or `null`), `path` (node ids visited), and
/// `slices` (slice used at each hop).
pub fn report_to_json(report: &DeliveryReport) -> String {
    let mut path = JsonArray::new();
    for n in &report.path {
        path = path.push_u64(n.0 as u64);
    }
    let mut slices = JsonArray::new();
    for &s in &report.slices {
        slices = slices.push_u64(s as u64);
    }
    let src = report.path.first().map(|n| n.0 as u64).unwrap_or(0);
    let dst = report.path.last().map(|n| n.0 as u64).unwrap_or(0);
    let obj = JsonObject::new()
        .field_bool("delivered", report.delivered)
        .field_u64("src", src)
        .field_u64("dst", dst)
        .field_u64("hops", report.path.len().saturating_sub(1) as u64)
        .field_f64("latency_ms", report.latency_ms);
    let obj = match &report.drop {
        Some(reason) => obj.field_str("drop", drop_reason_label(reason)),
        None => obj.field_raw("drop", "null"),
    };
    obj.field_raw("path", &path.finish())
        .field_raw("slices", &slices.finish())
        .finish()
}

/// Stable label for a drop reason (used in metrics and trace lines).
pub fn drop_reason_label(reason: &DropReason) -> &'static str {
    match reason {
        DropReason::TtlExpired => "ttl_expired",
        DropReason::NoRoute => "no_route",
        DropReason::LinkDown => "link_down",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_graph::NodeId;

    fn report(delivered: bool, drop: Option<DropReason>) -> DeliveryReport {
        DeliveryReport {
            delivered,
            path: vec![NodeId(0), NodeId(3), NodeId(7)],
            slices: vec![0, 2],
            latency_ms: 12.5,
            drop,
            final_packet: None,
        }
    }

    #[test]
    fn registers_the_full_counter_set() {
        let reg = Registry::new();
        let tel = NetTelemetry::register(&reg);
        tel.forwarded.add(4);
        tel.deflections.inc();
        tel.drop_counter(&DropReason::TtlExpired).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("splice_packets_forwarded_total 4"));
        assert!(text.contains("splice_deflections_total 1"));
        assert!(text.contains("splice_packets_dropped_total{reason=\"ttl_expired\"} 1"));
        assert!(text.contains("splice_packets_dropped_total{reason=\"no_route\"} 0"));
        assert!(text.contains("splice_packets_dropped_total{reason=\"link_down\"} 0"));
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

    #[test]
    fn delivered_walk_serializes() {
        let line = report_to_json(&report(true, None));
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
        let line = report_to_json(&report(false, Some(DropReason::LinkDown)));
        assert!(line.contains(r#""delivered":false"#));
        assert!(line.contains(r#""drop":"link_down""#));
    }
}
