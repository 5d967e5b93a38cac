//! Live-daemon differential replay: drive a [`Scenario`]'s event
//! schedule through the control-plane event loop
//! ([`splice_core::control::run_event_loop`]) on its own thread, exactly
//! as `spliced` does, and compare the final *published* FIB against the
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

use crate::check::{build_config, validate_events};
use crate::scenario::{EventSpec, Scenario};
use crate::schedule::{apply_batches, schedule_to_batches};
use splice_core::control::{
    control_channel, fib_checksum, run_event_loop, ControlEvent, ControlPlane, ControlStats,
};
use splice_core::slices::Splicing;
use splice_graph::{EdgeId, NodeId};
use std::sync::Arc;

/// The daemon-typed twin of an [`EventSpec`]: the two enums share the
/// wire grammar (`f4`, `g2.7`, `n1`, `w2.5.1500`, `r4`) and this is the
/// structural 1:1 between them, so a scenario's schedule can be fed to a
/// live control plane unchanged.
pub fn to_control_event(ev: &EventSpec) -> ControlEvent {
    match ev {
        EventSpec::FailLink(e) => ControlEvent::FailLink(EdgeId(*e)),
        EventSpec::FailGroup(es) => {
            ControlEvent::FailGroup(es.iter().map(|e| EdgeId(*e)).collect())
        }
        EventSpec::FailNode(v) => ControlEvent::FailNode(NodeId(*v)),
        EventSpec::Reweight { slice, edge, milli } => ControlEvent::Reweight {
            slice: *slice as usize,
            edge: EdgeId(*edge),
            milli: *milli,
        },
        EventSpec::Recover(e) => ControlEvent::Recover(EdgeId(*e)),
    }
}

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
/// same plumbing `spliced` uses — with an external [`SnapshotFeed`]
/// subscriber watching publications, so the comparison covers the full
/// channel → ingest → publish → subscribe path, not just the in-process
/// state machine.
///
/// [`SnapshotFeed`]: splice_routing::SnapshotFeed
pub fn daemon_replay(sc: &Scenario, max_batch: usize) -> Result<DaemonReplayReport, String> {
    let g = sc.topology.graph()?;
    validate_events(sc, &g).map_err(|d| d.to_string())?;
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
    handle.events(sc.events.iter().map(to_control_event));
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
    use splice_core::strategy::StrategyKind;

    const ALL_STRATEGIES: [StrategyKind; 4] = [
        StrategyKind::PerturbedSpf,
        StrategyKind::RandomSpanningTree,
        StrategyKind::LowStretchTree,
        StrategyKind::ArcDisjointFailover,
    ];

    fn scenario(strategy: StrategyKind, events: Vec<EventSpec>) -> Scenario {
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
        let events = vec![
            EventSpec::FailLink(4),
            EventSpec::FailGroup(vec![2, 7]),
            EventSpec::Reweight {
                slice: 1,
                edge: 5,
                milli: 1500,
            },
            EventSpec::FailNode(9),
            EventSpec::Recover(4),
            EventSpec::FailLink(9),
        ];
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
            sc.events.iter().any(|e| matches!(e, EventSpec::Recover(_))),
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
        let pairs = [(0u32, 2u32), (2, 5), (0, 7)];
        let mut events: Vec<EventSpec> = (0..1000usize)
            .map(|i| EventSpec::Reweight {
                slice: pairs[i % 3].0,
                edge: pairs[i % 3].1,
                milli: if i % 2 == 0 { 1250 } else { 800 },
            })
            .collect();
        events.extend([
            EventSpec::FailLink(1),
            EventSpec::FailLink(4),
            EventSpec::Recover(1),
        ]);
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
            EventSpec::Reweight {
                slice: 0,
                edge: 0,
                milli: 1,
            };
            200
        ];
        events.extend([EventSpec::FailLink(1), EventSpec::Recover(1)]);
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
}
