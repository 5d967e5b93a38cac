//! Live-daemon differential replay: drive a [`Scenario`]'s event
//! schedule through the control-plane event loop
//! ([`splice_core::control::run_event_loop`]) on its own thread, exactly
//! as `splice daemon` does, and compare the final *published* FIB against the
//! offline batch oracle ([`crate::schedule`]).
//!
//! The equality under test is the daemon's core correctness claim: the
//! event loop coalesces opportunistically (whatever is queued when it
//! wakes, capped by `max_batch`), so the batch boundaries it picks are
//! timing-dependent — but `Splicing::repair_batch` is bit-identical to
//! folding its events one at a time, so *any* partition of the schedule
//! lands on the same deployment. A daemon run must therefore end on
//! exactly the state `schedule_to_batches` + `apply_batches` computes
//! offline, for every strategy and every batch cap.

use crate::check::build_config;
use crate::scenario::Scenario;
use crate::schedule::{apply_batches, schedule_to_batches};
use splice_core::control::{
    control_channel, fib_checksum, run_event_loop, ControlPlane, ControlStats,
};
use splice_core::slices::Splicing;
use std::sync::Arc;

/// What one live-daemon replay produced, next to its batch oracle.
#[derive(Clone, Copy, Debug)]
pub struct DaemonReplayReport {
    /// FNV-1a checksum of the deployment the event loop ended on.
    pub daemon_checksum: u64,
    /// Checksum of the offline `schedule_to_batches` + `apply_batches`
    /// result for the same schedule. Equal to `daemon_checksum` iff the
    /// daemon is faithful.
    pub batch_checksum: u64,
    /// Epoch of the daemon's final published snapshot.
    pub final_epoch: u64,
    /// Whether an external subscriber's final drained snapshot is the
    /// very arena the control plane ended on (`Arc` identity).
    pub subscriber_in_sync: bool,
    /// Control-plane work counters at exit.
    pub stats: ControlStats,
    /// Whether the loop exited via `Shutdown` (vs. dropped handles).
    pub clean_shutdown: bool,
}

/// Replay `sc`'s schedule through a live event loop and return the
/// daemon's final checksum alongside the batch oracle's.
///
/// The loop runs on its own thread fed over the control channel — the
/// same plumbing `splice daemon` uses — with an external [`SnapshotFeed`]
/// subscriber watching publications, so the comparison covers the full
/// channel → ingest → publish → subscribe path, not just the in-process
/// state machine.
///
/// [`SnapshotFeed`]: splice_routing::SnapshotFeed
pub fn daemon_replay(sc: &Scenario, max_batch: usize) -> Result<DaemonReplayReport, String> {
    let g = sc.graph()?;
    let base = Splicing::build(&g, &build_config(sc), sc.build_seed);

    // Offline oracle: the same schedule coalesced ahead of time.
    let weights: Vec<Vec<f64>> = (0..sc.k).map(|s| base.weights(s).to_vec()).collect();
    let steps = schedule_to_batches(&weights, &sc.events, max_batch.max(1));
    let batch_checksum = fib_checksum(&g, &apply_batches(&g, &base, &steps));

    // Live daemon: event loop on its own thread, events over the channel.
    let cp = ControlPlane::new(g, base, max_batch);
    let mut feed = cp.hub().subscribe();
    let (handle, rx) = control_channel();
    let worker = std::thread::spawn(move || run_event_loop(cp, rx, None));
    handle.events(sc.events.iter().cloned());
    handle.shutdown();
    let (cp, report) = worker
        .join()
        .map_err(|_| "daemon event loop panicked".to_string())?;

    feed.refresh();
    Ok(DaemonReplayReport {
        daemon_checksum: fib_checksum(cp.graph(), cp.current()),
        batch_checksum,
        final_epoch: report.final_epoch,
        subscriber_in_sync: Arc::ptr_eq(&feed.current().fib, cp.current().arena()),
        stats: report.stats,
        clean_shutdown: report.clean_shutdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{replay, ReplayOptions};
    use crate::scenario::{PerturbationSpec, TopologySpec};
    use crate::schedule::churn_schedule;
    use splice_core::control::ControlEvent;
    use splice_core::strategy::StrategyKind;
    use splice_graph::EdgeId;

    const ALL_STRATEGIES: [StrategyKind; 4] = [
        StrategyKind::PerturbedSpf,
        StrategyKind::RandomSpanningTree,
        StrategyKind::LowStretchTree,
        StrategyKind::ArcDisjointFailover,
    ];

    fn scenario(strategy: StrategyKind, events: Vec<ControlEvent>) -> Scenario {
        Scenario {
            topology: TopologySpec::Named("abilene".into()),
            k: 3,
            perturbation: PerturbationSpec::DegreeBased,
            strategy,
            build_seed: 7,
            events,
        }
    }

    /// All five event kinds through the live loop, across every slice
    /// strategy and several batch caps: the published end state must be
    /// bit-identical to the offline batch oracle, and the scenario
    /// itself must be divergence-free under the full incremental replay
    /// engine (tying the daemon, the batch path, and the one-at-a-time
    /// path to the same deployment).
    #[test]
    fn daemon_matches_batch_oracle_across_strategies() {
        let events = ControlEvent::parse_schedule("f4+g2.7+w1.5.1500+n9+r4+f9").unwrap();
        for strategy in ALL_STRATEGIES {
            let sc = scenario(strategy, events.clone());
            replay(&sc, &ReplayOptions::default())
                .unwrap_or_else(|d| panic!("{strategy:?}: incremental replay diverged: {d}"));
            for max_batch in [1usize, 4, 64] {
                let rep = daemon_replay(&sc, max_batch).unwrap();
                assert_eq!(
                    rep.daemon_checksum, rep.batch_checksum,
                    "{strategy:?} max_batch {max_batch}: daemon diverged from batch oracle"
                );
                assert!(
                    rep.clean_shutdown,
                    "{strategy:?}: loop must exit on Shutdown"
                );
                assert!(
                    rep.subscriber_in_sync,
                    "{strategy:?}: subscriber must end on the final arena"
                );
                assert_eq!(rep.stats.events as usize, events.len());
            }
        }
    }

    /// A long generated churn stream (failures, groups, nodes,
    /// reweights, recovery bursts) through the daemon stays checksum-
    /// identical to the batch oracle.
    #[test]
    fn daemon_survives_sustained_churn_bit_identically() {
        let topology = TopologySpec::Random {
            nodes: 8,
            extra: 6,
            seed: 21,
        };
        let g = topology.graph().unwrap();
        let events = churn_schedule(&g, 3, 80, 13);
        let sc = Scenario {
            topology,
            k: 3,
            perturbation: PerturbationSpec::DegreeBased,
            strategy: StrategyKind::PerturbedSpf,
            build_seed: 11,
            events,
        };
        let rep = daemon_replay(&sc, 8).unwrap();
        assert_eq!(rep.daemon_checksum, rep.batch_checksum);
        assert!(rep.subscriber_in_sync);
        assert_eq!(rep.stats.events, 80);
        assert!(
            sc.events
                .iter()
                .any(|e| matches!(e, ControlEvent::Recover(_))),
            "churn schedule must recover links"
        );
        assert_eq!(rep.stats.rebuilds, 0, "recoveries are deltas");
        assert!(rep.final_epoch > 0, "churn must publish new snapshots");
    }

    /// Generated scenarios (every strategy lane, every event kind over
    /// many trials) all agree with the batch oracle — the soak-shaped
    /// sweep, minus the expensive per-step oracles.
    #[test]
    fn generated_scenarios_agree_with_the_batch_oracle() {
        for trial in 0..24u64 {
            let sc = Scenario::generate(crate::scenario::derive_seed(3, 1, trial));
            let rep = daemon_replay(&sc, 4)
                .unwrap_or_else(|e| panic!("trial {trial} ({}): {e}", sc.spec()));
            assert_eq!(
                rep.daemon_checksum,
                rep.batch_checksum,
                "trial {trial} ({}) diverged",
                sc.spec()
            );
            assert!(rep.subscriber_in_sync);
        }
    }

    /// A thousand reweights on three pairs, then fail/fail/recover:
    /// whatever the live loop coalesces, it ends where the offline
    /// oracle's fixed batches end — and a tree deployment counts each
    /// of its passes as the masked rebuild it is.
    #[test]
    fn long_reweight_history_then_recover_matches_the_batch_oracle() {
        let pairs = [(0, 2), (2, 5), (0, 7)];
        let mut events: Vec<ControlEvent> = (0..1000usize)
            .map(|i| ControlEvent::Reweight {
                slice: pairs[i % 3].0,
                edge: EdgeId(pairs[i % 3].1),
                milli: if i % 2 == 0 { 1250 } else { 800 },
            })
            .collect();
        events.extend(ControlEvent::parse_schedule("f1+f4+r1").unwrap());
        let rep = daemon_replay(&scenario(StrategyKind::PerturbedSpf, events.clone()), 16).unwrap();
        assert_eq!(rep.daemon_checksum, rep.batch_checksum);
        assert_eq!(rep.stats.rebuilds, 0);
        assert!(rep.subscriber_in_sync);
        let rep = daemon_replay(&scenario(StrategyKind::RandomSpanningTree, events), 16).unwrap();
        assert_eq!(rep.daemon_checksum, rep.batch_checksum);
        assert_eq!(rep.stats.rebuilds, rep.stats.publishes);
        assert!(rep.stats.rebuilds > 0);
    }

    /// Reweights that would leave the routable range are dropped by the
    /// live plane; the offline oracle must drop the same ones instead of
    /// handing the repair engine a weight it rejects.
    #[test]
    fn offline_oracle_applies_the_routable_range_guard() {
        let mut events = vec![
            ControlEvent::Reweight {
                slice: 0,
                edge: EdgeId(0),
                milli: 1,
            };
            200
        ];
        events.extend(ControlEvent::parse_schedule("f1+r1").unwrap());
        let sc = scenario(StrategyKind::PerturbedSpf, events);
        for max_batch in [1usize, 16] {
            let rep = daemon_replay(&sc, max_batch).unwrap();
            assert_eq!(rep.daemon_checksum, rep.batch_checksum, "{max_batch}");
            assert_eq!(rep.stats.events, 202);
            assert!(rep.clean_shutdown);
        }
        // The one-event-at-a-time replay engine drops them too.
        replay(&sc, &ReplayOptions::default()).expect("guarded replay stays divergence-free");
    }

    /// An empty schedule publishes nothing: epoch stays 0 and the
    /// subscriber keeps the primed base arena.
    #[test]
    fn empty_schedule_never_publishes() {
        let sc = scenario(StrategyKind::PerturbedSpf, Vec::new());
        let rep = daemon_replay(&sc, 4).unwrap();
        assert_eq!(rep.daemon_checksum, rep.batch_checksum);
        assert_eq!(rep.final_epoch, 0);
        assert!(rep.subscriber_in_sync);
        assert_eq!(rep.stats.publishes, 0);
    }

    /// The control plane's distance memo under seeded churn on Abilene
    /// and Sprint, at batch caps 1, 3 and 16. After every pass, every
    /// column the memo knows equals the chain fold of the arena the plane
    /// now holds, bit for bit, and that arena equals the memo-free
    /// `Splicing::repair_batch` fold of the same events. No column is
    /// folded twice, and nudging one memo entry by one ulp is caught.
    #[test]
    fn control_plane_memo_matches_the_chain_fold_after_every_pass() {
        use crate::oracle::memo_divergence;
        use splice_core::slices::SplicingConfig;

        for (name, k, seed) in [("abilene", 3, 31u64), ("sprint", 5, 32)] {
            let g = splice_topology::resolve(name).unwrap().graph();
            let base = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
            let events = churn_schedule(&g, k, 500, seed);
            for max_batch in [1usize, 3, 16] {
                let mut cp = ControlPlane::new(g.clone(), base.clone(), max_batch);
                let mut oracle = base.clone();
                let (mut folded_up_to, mut passes) = (0, 0);
                for i in 0..=events.len() {
                    // One step past the schedule flushes what is pending.
                    match events.get(i) {
                        Some(ev) => cp.ingest(ev),
                        None => cp.flush(),
                    };
                    if cp.pending_len() > 0 {
                        continue;
                    }
                    // Everything before `end` is repaired in: fold the
                    // same events, from the weights the oracle runs now.
                    let end = (i + 1).min(events.len());
                    let weights: Vec<Vec<f64>> =
                        (0..k).map(|s| oracle.weights(s).to_vec()).collect();
                    for batch in schedule_to_batches(&weights, &events[folded_up_to..end], 64) {
                        oracle = oracle.repair_batch(&g, &batch);
                    }
                    folded_up_to = end;
                    let at = format!("{name} max_batch {max_batch} event {i}");
                    assert!(cp.current().arena() == oracle.arena(), "{at}: arena");
                    assert_eq!(cp.current().failed_mask(), oracle.failed_mask(), "{at}");
                    let memo = cp.distance_memo().expect("a delta plane keeps a memo");
                    if let Some(d) = memo_divergence(&g, cp.current(), memo) {
                        panic!("{at}: {d}");
                    }
                    passes += 1;
                }
                assert!(passes >= 500 / max_batch / 2, "{name}: {passes} passes");
                // Each column is folded once, on its first touch, and read
                // from the memo ever after.
                let work = cp.stats().repair;
                assert!(
                    work.folded_columns <= k * g.node_count(),
                    "{name}: {work:?}"
                );
                assert!(work.memo_columns > work.folded_columns, "{name}: {work:?}");

                // The check is sharp: one ulp in one known entry fails it.
                let mut nudged = cp.distance_memo().unwrap().clone();
                let (slice, t) = (0..k)
                    .flat_map(|s| g.nodes().map(move |t| (s, t)))
                    .find(|&(s, t)| nudged.column(s, t).is_some())
                    .expect("churn taught the memo some column");
                let mut column = nudged.column(slice, t).unwrap().to_vec();
                let u = (t.index() + 1) % column.len();
                column[u] = f64::from_bits(column[u].to_bits() + 1);
                nudged.plane_mut(slice).record(t, &column);
                assert!(memo_divergence(&g, cp.current(), &nudged).is_some());
            }
        }
    }
}
