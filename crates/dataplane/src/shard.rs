//! Per-core sharded batch forwarding on crossbeam scoped threads.
//!
//! [`run_sharded`] spawns one worker per shard; each owns a private
//! [`BatchForwarder`] and loops: pull a burst from the feed, take a FIB
//! snapshot from the [`RotatingSnapshots`], drain the burst, fold the
//! outcomes into a per-shard checksum. Workers never share mutable
//! state — only `Arc` clones of immutable arenas and atomic telemetry —
//! so the merged result is deterministic in the inputs:
//!
//! * the feed is indexed by `(shard, burst)`, so each shard's packet
//!   stream is a pure function of its own indices (the traffic crate's
//!   per-shard splitmix64 streams), not of scheduling;
//! * [`RotatingSnapshots`] assigns snapshots by `(shard, burst)` index
//!   (reproducible, what the bench and oracle use); workers that follow
//!   whatever a control plane last published are [`run_live`]'s job;
//! * per-shard reports are returned in shard order, and each shard's
//!   checksum folds its own outcomes in burst order.
//!
//! The concatenated per-shard checksums — and [`merged_checksum`] over
//! them — are therefore identical run to run and engine to engine, which
//! is exactly the equality the CI smoke job asserts between this path
//! and the scalar baseline.

use crate::batch::{BatchForwarder, BatchStats};
use crate::telemetry::ForwardTelemetry;
use crate::walk::{fold_outcomes_checksum, outcomes_checksum};
use splice_core::forwarding::ForwarderOptions;
use splice_core::header::ForwardingBits;
use splice_graph::EdgeMask;
use splice_routing::{SnapshotHub, SpliceFib};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Deterministic source: snapshot `(shard + burst) mod len` from a
/// fixed churn sequence. Every engine given the same sequence maps the
/// same burst to the same snapshot, making cross-engine checksum
/// equality meaningful under churn.
#[derive(Clone, Debug)]
pub struct RotatingSnapshots(pub Vec<Arc<SpliceFib>>);

impl RotatingSnapshots {
    /// The snapshot burst `burst` of shard `shard` forwards over.
    pub fn snapshot(&self, shard: usize, burst: u64) -> Arc<SpliceFib> {
        Arc::clone(&self.0[(shard as u64 + burst) as usize % self.0.len()])
    }
}

/// One shard's merged results.
#[derive(Clone, Copy, Debug)]
pub struct ShardReport {
    /// Which shard.
    pub shard: usize,
    /// Outcome-class counters over every packet this shard walked.
    pub stats: BatchStats,
    /// FNV-1a over this shard's outcomes, in burst order.
    pub checksum: u64,
    /// Bursts drained.
    pub bursts: u64,
    /// Time spent inside `forward_burst` across this shard's bursts —
    /// the shard's forwarding busy time, excluding feed fills, snapshot
    /// loads, checksum folding, and scheduling gaps.
    pub busy_seconds: f64,
}

/// Checksum of checksums, in shard order: one number summarizing an
/// entire sharded run for cross-engine comparison.
pub fn merged_checksum(reports: &[ShardReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in reports {
        for byte in r.checksum.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Run `shards` batch-forwarder workers to completion.
///
/// `feed` fills the worker's reusable burst buffer for `(shard, burst)`;
/// leaving it empty ends that shard's stream. `mask` is the failure
/// state for the whole run (churn is expressed through the snapshot
/// source, which is how the repair path delivers it). `telemetry`, when
/// given, receives per-burst observations from every worker.
///
/// Reports come back in shard order regardless of scheduling.
pub fn run_sharded<F>(
    shards: usize,
    opts: ForwarderOptions,
    source: &RotatingSnapshots,
    mask: &EdgeMask,
    telemetry: Option<&ForwardTelemetry>,
    feed: F,
) -> Vec<ShardReport>
where
    F: Fn(usize, u64, &mut Vec<(u32, u32, ForwardingBits)>) + Sync,
{
    assert!(shards >= 1, "need at least one shard");
    let feed = &feed;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move |_| {
                    let mut engine = BatchForwarder::new(opts);
                    let mut buf: Vec<(u32, u32, ForwardingBits)> = Vec::new();
                    let mut checksum = outcomes_checksum(&[]);
                    let mut bursts = 0u64;
                    let mut busy = std::time::Duration::ZERO;
                    loop {
                        buf.clear();
                        feed(shard, bursts, &mut buf);
                        if buf.is_empty() {
                            break;
                        }
                        let snapshot = source.snapshot(shard, bursts);
                        let start = Instant::now();
                        let outcomes = engine.forward_burst(&snapshot, mask, &buf);
                        let elapsed = start.elapsed();
                        busy += elapsed;
                        checksum = fold_outcomes_checksum(checksum, outcomes);
                        if let Some(tel) = telemetry {
                            tel.observe_burst(outcomes, elapsed);
                        }
                        bursts += 1;
                    }
                    ShardReport {
                        shard,
                        stats: *engine.stats(),
                        checksum,
                        bursts,
                        busy_seconds: busy.as_secs_f64(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
    .expect("crossbeam scope panicked")
}

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
/// This is the daemon-shaped dual of [`run_sharded`]: instead of being
/// handed a fixed snapshot sequence upfront, each worker owns a
/// [`SnapshotFeed`](splice_routing::SnapshotFeed) and refreshes it at
/// every burst boundary (latest wins), so a control plane publishing
/// repairs is picked up within one burst without ever waiting on a
/// worker. Per-burst atomicity holds as in the batch engine: the arena
/// `Arc` is pinned for the whole burst.
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
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move |_| {
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
    .expect("crossbeam scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::WalkOutcome;
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

    #[test]
    fn sharded_run_is_deterministic_and_ordered() {
        let (g, sp) = setup();
        let n = g.node_count() as u32;
        let mask = EdgeMask::all_up(g.edge_count());
        let source = RotatingSnapshots(vec![Arc::clone(sp.arena())]);
        let run = || {
            run_sharded(
                3,
                ForwarderOptions::default(),
                &source,
                &mask,
                None,
                pair_feed(n, sp.k(), 4),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 3);
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.shard, i, "reports in shard order");
            assert_eq!(r.bursts, 4);
            assert_eq!(r.stats.packets, 4 * (n as u64) * (n as u64 - 1));
            assert_eq!(r.checksum, b[i].checksum, "shard {i} deterministic");
        }
        assert_eq!(merged_checksum(&a), merged_checksum(&b));
    }

    /// One shard over a trivial feed must equal a hand-driven
    /// `BatchForwarder` on the same packets — the runner adds
    /// orchestration, not semantics.
    #[test]
    fn single_shard_equals_direct_engine() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let pkts: Vec<_> = (1..g.node_count() as u32)
            .map(|d| (0u32, d, ForwardingBits::stay_in_slice(0, sp.k())))
            .collect();
        let feed = |_shard: usize, burst: u64, buf: &mut Vec<(u32, u32, ForwardingBits)>| {
            if burst == 0 {
                buf.extend_from_slice(&pkts);
            }
        };
        let source = RotatingSnapshots(vec![Arc::clone(sp.arena())]);
        let reports = run_sharded(1, ForwarderOptions::default(), &source, &mask, None, feed);
        let mut engine = BatchForwarder::new(ForwarderOptions::default());
        let direct: Vec<WalkOutcome> = engine.forward_burst(sp.arena(), &mask, &pkts).to_vec();
        assert_eq!(reports[0].checksum, outcomes_checksum(&direct));
        assert_eq!(reports[0].stats, *engine.stats());
    }

    #[test]
    fn sharded_run_feeds_telemetry() {
        let (g, sp) = setup();
        let n = g.node_count() as u32;
        let mask = EdgeMask::all_up(g.edge_count());
        let source = RotatingSnapshots(vec![Arc::clone(sp.arena())]);
        let reg = Registry::new();
        let tel = ForwardTelemetry::register(&reg);
        let reports = run_sharded(
            2,
            ForwarderOptions::default(),
            &source,
            &mask,
            Some(&tel),
            pair_feed(n, sp.k(), 2),
        );
        let total: u64 = reports.iter().map(|r| r.stats.packets).sum();
        assert_eq!(total, 2 * 2 * (n as u64) * (n as u64 - 1));
        assert_eq!(tel.packets.get(), total);
        assert_eq!(tel.bursts.get(), 4);
        assert!(tel.burst_seconds.count() == 4);
    }

    /// Subscribed workers over a quiescent hub: the primed epoch is the
    /// only one seen, and packet accounting matches the feed exactly.
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
        let reports = run_live(
            2,
            ForwarderOptions::default(),
            &hub,
            &mask,
            None,
            &stop,
            pair_feed(n, sp.k(), 3),
        );
        assert_eq!(reports.len(), 2);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.shard, i);
            assert_eq!(r.bursts, 3);
            assert_eq!(r.stats.packets, 3 * (n as u64) * (n as u64 - 1));
            assert_eq!(r.epochs_seen, 1, "no publish while running");
            assert_eq!(r.final_epoch, 2, "primed with the latest epoch");
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
        let reports = crossbeam::thread::scope(|scope| {
            let publisher = scope.spawn(|_| {
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
        })
        .unwrap();
        let total: u64 = reports.iter().map(|r| r.stats.packets).sum();
        assert!(total > 0, "workers forwarded before the stop flag");
        assert_eq!(tel.packets.get(), total);
        for r in &reports {
            assert!(r.bursts >= 1);
            assert!(r.epochs_seen >= 1 && r.epochs_seen <= 2);
            assert!(r.final_epoch <= hub.epoch());
        }
    }
}
