//! Per-core sharded batch forwarding on `std::thread::scope` threads.
//!
//! [`run_live`] spawns one worker per shard; each owns a private
//! [`BatchForwarder`] and a [`SnapshotFeed`](splice_routing::SnapshotFeed)
//! on the [`SnapshotHub`], and loops: pull a burst from the feed, refresh
//! the snapshot (latest wins), drain the burst. Workers never share
//! mutable state — only `Arc` clones of immutable arenas and atomic
//! telemetry.
//!
//! The feed is indexed by `(shard, burst)`, so each shard's packet
//! stream is a pure function of its own indices (the traffic crate's
//! per-shard splitmix64 streams), not of scheduling, and reports come
//! back in shard order. Over a hub nobody publishes to, every burst
//! lands on the primed epoch and the whole run is deterministic in its
//! inputs; that is how `splice forward` uses it.

use crate::batch::{BatchForwarder, BatchStats};
use crate::telemetry::ForwardTelemetry;
use splice_core::forwarding::ForwarderOptions;
use splice_core::header::ForwardingBits;
use splice_graph::EdgeMask;
use splice_routing::SnapshotHub;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One live shard's results: outcome counters plus which snapshot
/// epochs the worker actually forwarded over.
#[derive(Clone, Copy, Debug)]
pub struct LiveShardReport {
    /// Which shard.
    pub shard: usize,
    /// Outcome-class counters over every packet this shard walked.
    pub stats: BatchStats,
    /// Bursts drained before the stop flag (or an empty feed) ended the
    /// stream.
    pub bursts: u64,
    /// Time spent inside `forward_burst` — the shard's busy time.
    pub busy_seconds: f64,
    /// Distinct snapshot epochs this worker forwarded over (>= 1: the
    /// primed epoch counts).
    pub epochs_seen: u64,
    /// The epoch of the last snapshot this worker forwarded over. May
    /// trail `SnapshotHub::epoch()` by publishes that landed after the
    /// worker's final refresh.
    pub final_epoch: u64,
}

/// Run `shards` batch-forwarder workers **subscribed** to a live
/// [`SnapshotHub`] until `stop` is raised (or a shard's feed runs dry).
///
/// Each worker owns a [`SnapshotFeed`](splice_routing::SnapshotFeed)
/// and refreshes it at every burst boundary (latest wins), so a control
/// plane publishing repairs is picked up within one burst without ever
/// waiting on a worker. Per-burst atomicity holds as in the batch
/// engine: the arena `Arc` is pinned for the whole burst.
///
/// `mask` is the forwarding-time failure mask; under the daemon the
/// published snapshots are already repaired around failures (no route
/// crosses a failed edge), so workers typically forward with an all-up
/// mask and churn reaches them purely through epochs.
///
/// Checksums are deliberately absent from [`LiveShardReport`]: which
/// epoch a burst lands on depends on publish timing, so per-burst
/// outcome checksums are not reproducible. End-state equality is
/// asserted against the batch oracle on the *final published FIB*
/// instead (see the testkit daemon differential tests).
pub fn run_live<F>(
    shards: usize,
    opts: ForwarderOptions,
    hub: &SnapshotHub,
    mask: &EdgeMask,
    telemetry: Option<&ForwardTelemetry>,
    stop: &AtomicBool,
    feed: F,
) -> Vec<LiveShardReport>
where
    F: Fn(usize, u64, &mut Vec<(u32, u32, ForwardingBits)>) + Sync,
{
    assert!(shards >= 1, "need at least one shard");
    let feed = &feed;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    let mut snapshots = hub.subscribe();
                    let mut engine = BatchForwarder::new(opts);
                    let mut buf: Vec<(u32, u32, ForwardingBits)> = Vec::new();
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
                        let up = snapshots.refresh();
                        if up.epoch != final_epoch {
                            epochs_seen += 1;
                            final_epoch = up.epoch;
                        }
                        let snapshot = Arc::clone(&up.fib);
                        let start = Instant::now();
                        let outcomes = engine.forward_burst(&snapshot, mask, &buf);
                        let elapsed = start.elapsed();
                        busy += elapsed;
                        if let Some(tel) = telemetry {
                            tel.observe_burst(outcomes, elapsed);
                        }
                        bursts += 1;
                    }
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
            .map(|h| h.join().expect("live shard worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::slices::{Splicing, SplicingConfig};
    use splice_telemetry::Registry;

    fn setup() -> (splice_graph::Graph, Splicing) {
        let g = splice_topology::abilene::abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 21);
        (g, sp)
    }

    /// A fixed feed: `bursts` bursts per shard of every (src, dst) pair,
    /// header pinned by (shard, burst) so streams differ but are pure.
    fn pair_feed(
        n: u32,
        k: usize,
        bursts: u64,
    ) -> impl Fn(usize, u64, &mut Vec<(u32, u32, ForwardingBits)>) + Sync {
        move |shard, burst, buf| {
            if burst >= bursts {
                return;
            }
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let hop = ((shard as u64 + burst) % k as u64) as u8;
                    buf.push((s, d, ForwardingBits::from_hops(&[hop], k)));
                }
            }
        }
    }

    /// Subscribed workers over a quiescent hub: the primed epoch is the
    /// only one seen, packet accounting matches the feed exactly, and
    /// each worker's counters equal a hand-driven `BatchForwarder` on the
    /// same bursts — the runner adds orchestration, not semantics.
    #[test]
    fn live_workers_on_a_quiescent_hub_see_one_epoch() {
        let (g, sp) = setup();
        let n = g.node_count() as u32;
        let mask = EdgeMask::all_up(g.edge_count());
        let hub = SnapshotHub::new(Arc::clone(sp.arena()));
        // Publishes that land before any worker subscribes are folded
        // into the primed snapshot.
        hub.publish(Arc::clone(sp.arena()));
        hub.publish(Arc::clone(sp.arena()));
        let stop = AtomicBool::new(false);
        let feed = pair_feed(n, sp.k(), 3);
        let reports = run_live(
            2,
            ForwarderOptions::default(),
            &hub,
            &mask,
            None,
            &stop,
            &feed,
        );
        assert_eq!(reports.len(), 2);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.shard, i);
            assert_eq!(r.bursts, 3);
            assert_eq!(r.stats.packets, 3 * (n as u64) * (n as u64 - 1));
            assert_eq!(r.epochs_seen, 1, "no publish while running");
            assert_eq!(r.final_epoch, 2, "primed with the latest epoch");
            assert!(r.busy_seconds > 0.0, "busy time must be measured");
            let mut direct = BatchForwarder::new(ForwarderOptions::default());
            let mut buf = Vec::new();
            for burst in 0..3 {
                buf.clear();
                feed(i, burst, &mut buf);
                direct.forward_burst(sp.arena(), &mask, &buf);
            }
            assert_eq!(r.stats, *direct.stats(), "shard {i} vs direct engine");
        }
    }

    /// Workers on an endless feed stop when the flag is raised, and a
    /// mid-run publish is observed as a new epoch.
    #[test]
    fn live_workers_pick_up_publishes_and_honor_the_stop_flag() {
        let (g, sp) = setup();
        let n = g.node_count() as u32;
        let mask = EdgeMask::all_up(g.edge_count());
        let hub = SnapshotHub::new(Arc::clone(sp.arena()));
        let stop = AtomicBool::new(false);
        let reg = Registry::new();
        let tel = ForwardTelemetry::register(&reg);
        let reports = std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                hub.publish(Arc::clone(sp.arena()));
                std::thread::sleep(std::time::Duration::from_millis(20));
                stop.store(true, Ordering::Relaxed);
            });
            // Endless feed: only the stop flag ends the run.
            let reports = run_live(
                2,
                ForwarderOptions::default(),
                &hub,
                &mask,
                Some(&tel),
                &stop,
                |_shard, _burst, buf: &mut Vec<(u32, u32, ForwardingBits)>| {
                    for d in 1..n {
                        buf.push((0, d, ForwardingBits::stay_in_slice(0, sp.k())));
                    }
                },
            );
            publisher.join().unwrap();
            reports
        });
        let total: u64 = reports.iter().map(|r| r.stats.packets).sum();
        assert!(total > 0, "workers forwarded before the stop flag");
        let bursts: u64 = reports.iter().map(|r| r.bursts).sum();
        assert_eq!(tel.burst_seconds.count(), bursts);
        for r in &reports {
            assert!(r.bursts >= 1);
            assert!(r.epochs_seen >= 1 && r.epochs_seen <= 2);
            assert!(r.final_epoch <= hub.epoch());
        }
    }
}
