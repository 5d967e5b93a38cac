//! End-to-end tests of the harness itself: clean scenarios replay
//! clean, an injected repair bug is caught, shrunk to a minimal
//! scenario, and the printed spec reproduces the failure.

use proptest::prelude::*;
use splice_core::forwarding::ForwarderOptions;
use splice_core::slices::{Splicing, SplicingConfig};
use splice_core::strategy::StrategyKind;
use splice_routing::SnapshotHub;
use splice_testkit::strategies::{arb_backbone_graph, arb_scenario};
use splice_testkit::{
    apply_batches, churn_schedule, derive_seed, flight_tail, forward_oracle, replay,
    schedule_to_batches, shrink, Divergence, EventSpec, ForwardOracleOptions, PerturbationSpec,
    ReplayOptions, Scenario, TopologySpec,
};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The production stack survives arbitrary generated scenarios: no
    /// divergence from any oracle at any checkpoint.
    #[test]
    fn random_scenarios_replay_clean(sc in arb_scenario()) {
        let report = replay(&sc, &ReplayOptions::default());
        prop_assert!(
            report.is_ok(),
            "scenario {} diverged: {}",
            sc.spec(),
            report.unwrap_err()
        );
    }

    /// Batch, scalar, and naive forwarding agree packet-for-packet on
    /// arbitrary generated scenarios — the burst engine's analogue of
    /// `random_scenarios_replay_clean`.
    #[test]
    fn random_scenarios_forward_identically(sc in arb_scenario()) {
        let opts = ForwardOracleOptions { flows: 160, ..Default::default() };
        let report = forward_oracle(&sc, &opts);
        prop_assert!(
            report.is_ok(),
            "scenario {} diverged: {}",
            sc.spec(),
            report.unwrap_err()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A burst racing a `repair_batch` + publish never observes a torn
    /// FIB: every burst's outcomes are a pure function of the one
    /// snapshot it loaded — entirely pre-repair or entirely
    /// post-repair, for every slice-construction strategy.
    #[test]
    fn bursts_never_observe_torn_columns(
        (g, churn_seed, build_seed) in arb_backbone_graph()
            .prop_flat_map(|g| (Just(g), any::<u64>(), any::<u64>())),
    ) {
        let k = 3;
        let events = churn_schedule(&g, k, 8, churn_seed);
        for strategy in StrategyKind::ALL {
            let cfg = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(strategy);
            let before = Splicing::build(&g, &cfg, build_seed);
            let weights: Vec<Vec<f64>> =
                (0..k).map(|s| before.weights(s).to_vec()).collect();
            let steps = schedule_to_batches(&weights, &events, 4);
            let after = apply_batches(&g, &before, &steps);
            let mask = after.failed_mask().clone();

            let flow_gen = splice_traffic::FlowGen::new(splice_traffic::FlowConfig::new(
                g.node_count() as u32,
                k,
                build_seed ^ 0xb1a5,
            ));
            let mut pkts = Vec::new();
            flow_gen.stream(0).fill_burst(64, &mut pkts);

            let opts = ForwarderOptions::default();
            let mut engine = splice_dataplane::BatchForwarder::new(opts);
            let pure_before = engine.forward_burst(before.arena(), &mask, &pkts).to_vec();
            let pure_after = engine.forward_burst(after.arena(), &mask, &pkts).to_vec();

            // Race a reader draining bursts against the repair thread
            // publishing the post-churn arena mid-run.
            let hub = SnapshotHub::new(Arc::clone(before.arena()));
            let result: Result<(), String> = std::thread::scope(|scope| {
                let publisher = scope.spawn(|| {
                    // Redo the real repair work, then publish its arena.
                    let repaired = apply_batches(&g, &before, &steps);
                    hub.publish(Arc::clone(repaired.arena()));
                });
                let mut engine = splice_dataplane::BatchForwarder::new(opts);
                let mut saw_after = false;
                for _ in 0..200 {
                    let snap = hub.load();
                    let outcomes = engine.forward_burst(&snap, &mask, &pkts);
                    let expect = if Arc::ptr_eq(&snap, before.arena()) {
                        &pure_before
                    } else {
                        saw_after = true;
                        &pure_after
                    };
                    if outcomes != expect.as_slice() {
                        return Err(format!(
                            "{strategy:?}: torn burst — outcomes match neither \
                             deployment wholesale"
                        ));
                    }
                    if saw_after {
                        break;
                    }
                }
                publisher.join().expect("publisher panicked");
                // The publish must eventually be visible to the reader.
                let snap = hub.load();
                let outcomes = engine.forward_burst(&snap, &mask, &pkts);
                if outcomes != pure_after.as_slice() {
                    return Err(format!(
                        "{strategy:?}: post-publish burst does not match the \
                         repaired deployment"
                    ));
                }
                Ok(())
            });
            prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }
}

#[test]
fn generated_scenarios_replay_clean_and_deterministically() {
    // The soak binary's exact loop, in miniature.
    for trial in 0..24u64 {
        let sc = Scenario::generate(derive_seed(7, 0, trial));
        let a = replay(&sc, &ReplayOptions::default());
        let b = replay(&sc, &ReplayOptions::default());
        match (a, b) {
            (Ok(ra), Ok(rb)) => assert_eq!(ra, rb, "nondeterministic report for {}", sc.spec()),
            (Err(da), Err(db)) => {
                assert_eq!(da, db, "nondeterministic divergence for {}", sc.spec())
            }
            _ => panic!("replay of {} is nondeterministic", sc.spec()),
        }
    }
}

/// The acceptance-criterion test: inject the bug class the harness
/// exists for (a repair engine that forgets to patch one slice's
/// columns), and demand it is (1) caught, (2) shrunk to a minimal
/// scenario, and (3) reproducible from the printed spec alone.
#[test]
fn sabotaged_repair_is_caught_shrunk_and_replayable() {
    let sabotage = ReplayOptions {
        skip_patch_slice: Some(1),
        ..ReplayOptions::default()
    };
    let check = |sc: &Scenario| replay(sc, &sabotage).err().map(|b| *b);

    // Deterministically scan seeded scenarios for one where the clean
    // stack passes but the sabotaged one diverges: a single link failure
    // on a meshy graph almost always routes slice 1 around the failure,
    // so a stale slice-1 plane is visible to the oracles.
    let mut found = None;
    'scan: for seed in 0..40u64 {
        let topology = TopologySpec::Random {
            nodes: 6,
            extra: 6,
            seed,
        };
        let m = topology.graph().unwrap().edge_count() as u32;
        for edge in 0..m {
            let sc = Scenario {
                topology: topology.clone(),
                k: 3,
                perturbation: PerturbationSpec::DegreeBased,
                strategy: StrategyKind::PerturbedSpf,
                build_seed: seed,
                events: vec![EventSpec::FailLink(edge)],
            };
            if replay(&sc, &ReplayOptions::default()).is_err() {
                continue; // a real stack bug would fail the clean suite, not this scan
            }
            if let Some(div) = check(&sc) {
                found = Some((sc, div));
                break 'scan;
            }
        }
    }
    let (sc, div) = found.expect("sabotage was never observable — harness has lost its teeth");
    assert!(
        !matches!(div, Divergence::Setup(_)),
        "sabotage must surface as a stack divergence, got: {div}"
    );

    // Shrink against the sabotaged replay.
    let out = shrink(&sc, div, check);
    assert!(out.scenario.events.len() <= sc.events.len());
    assert!(out.scenario.k <= sc.k);

    // The shrunk scenario still fails, and its one-line spec reproduces
    // it from scratch — the round trip a bug report relies on.
    let spec = out.scenario.spec();
    let reparsed = Scenario::from_spec(&spec).expect("shrunk spec must parse");
    assert_eq!(reparsed, out.scenario);
    let rediv = check(&reparsed).expect("shrunk spec must still reproduce the divergence");
    assert_eq!(rediv, out.divergence);
    assert_eq!(
        out.replay_command(),
        format!("splice testkit replay {spec}")
    );

    // And the same spec replayed against the healthy stack is clean:
    // the counterexample blames the injected bug, not the scenario.
    assert!(replay(&reparsed, &ReplayOptions::default()).is_ok());

    // The failure report's black-box dump: re-replaying the shrunk
    // scenario under a flight recorder must end with the divergence
    // event, preceded by the repair that triggered it.
    let dump = flight_tail(&out.scenario, &sabotage, 16);
    let lines: Vec<&str> = dump.lines().collect();
    assert!(!lines.is_empty(), "dump must not be empty");
    assert!(
        lines.last().unwrap().contains(r#""kind":"divergence""#),
        "dump must end with the divergence event: {dump}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains(r#""kind":"repair_event""#) && l.contains(r#""patched":"#)),
        "dump must show the repairs that led up to it: {dump}"
    );

    // A clean replay under a recorder narrates repairs but reports no
    // divergence.
    let clean = flight_tail(&out.scenario, &ReplayOptions::default(), 16);
    assert!(!clean.contains(r#""kind":"divergence""#));
    assert!(clean.contains(r#""kind":"repair_event""#));
}

/// Replays accumulate the advertised coverage denominators.
#[test]
fn replay_reports_cover_all_oracles() {
    let sc = Scenario {
        topology: TopologySpec::Random {
            nodes: 5,
            extra: 4,
            seed: 3,
        },
        k: 2,
        perturbation: PerturbationSpec::DegreeBased,
        strategy: StrategyKind::PerturbedSpf,
        build_seed: 11,
        events: vec![EventSpec::FailLink(0), EventSpec::Recover(0)],
    };
    let report = replay(&sc, &ReplayOptions::default()).expect("clean scenario");
    let g = sc.topology.graph().unwrap();
    let columns = sc.k * g.node_count() * g.node_count();
    // Build + two events = three checkpoints, each covering every
    // (slice, dst, node) cell once.
    assert_eq!(report.events_applied, 2);
    assert_eq!(report.next_hop_checks, 3 * columns);
    assert_eq!(report.distance_checks, 3 * columns);
    assert!(report.walks_checked > 0);
}
