//! The batch-forwarding differential oracle: run the same seeded flows
//! through three independent forwarding engines and fail on the first
//! packet whose walk outcomes disagree.
//!
//! The engines share no forwarding code:
//!
//! 1. **batch** — `splice_dataplane::BatchForwarder`, the
//!    struct-of-arrays burst engine (the thing under test);
//! 2. **scalar** — `splice_dataplane::scalar_walk`, the one-packet
//!    reference: splice-core's walk loop (the one `Forwarder::forward`
//!    runs) over the same arena;
//! 3. **naive** — [`crate::oracle::naive_walk`] over from-scratch
//!    [`OracleTables`], written directly from Algorithm 1 with no arena
//!    at all.
//!
//! Flows come from the traffic crate's seeded Zipf generator, so a run
//! is a pure function of the scenario spec; the churn schedule is the
//! scenario's own event list folded through
//! [`crate::schedule::schedule_to_batches`], and a fresh tranche of
//! flows is checked after the build and after every repair batch — the
//! oracle exercises forwarding *between* repairs, not just at the end
//! state. A divergence is reported as [`Divergence::Invariant`] with
//! name `forward-oracle`, so the shrinker ([`crate::shrink::shrink`])
//! and the one-line `splice testkit replay` repro work unchanged.
//!
//! One deliberate asymmetry: the naive walker's tables are rebuilt from
//! the cumulative failure mask, so a failed link simply has no oracle
//! next hop (`DeadEnd`), while the production engines could in
//! principle report `LinkDown`. Checkpoints sit on fully repaired
//! deployments, where the arena installs no failed edges either — so
//! the three engines agree exactly, and any `LinkDown` leaking out of a
//! "repaired" arena is itself a divergence the oracle catches.

use crate::check::{build_config, strategy_oracle, validate_events, Divergence};
use crate::oracle::{naive_walk, OracleTables};
use crate::scenario::{derive_seed, Scenario};
use crate::schedule::schedule_to_batches;
use splice_core::forwarding::ForwarderOptions;
use splice_core::slices::Splicing;
use splice_core::strategy::StrategyKind;
use splice_dataplane::{
    fold_outcomes_checksum, outcomes_checksum, scalar_walk, BatchForwarder, WalkOutcome,
};
use splice_graph::NodeId;
use splice_traffic::{FlowConfig, FlowGen};

/// Knobs for a forward-oracle run. Defaults are what the soak binary
/// and the property suites use.
#[derive(Clone, Debug)]
pub struct ForwardOracleOptions {
    /// Total seeded flows checked, split evenly across checkpoints.
    pub flows: usize,
    /// Repair-batch size the scenario's events are coalesced into (one
    /// checkpoint per batch, plus one for the initial build).
    pub batch: usize,
    /// Hop budget per walk.
    pub ttl: usize,
    /// **Fault injection (tests only):** forward the batch engine's
    /// bursts over the *base* (pre-churn) arena while the scalar and
    /// naive engines see the repaired one — the stale-snapshot bug
    /// class this oracle exists to catch. `false` in real runs.
    pub stale_batch_arena: bool,
}

impl Default for ForwardOracleOptions {
    fn default() -> Self {
        ForwardOracleOptions {
            flows: 2048,
            batch: 4,
            ttl: 64,
            stale_batch_arena: false,
        }
    }
}

/// What a clean forward-oracle run covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForwardOracleReport {
    /// Packets walked through all three engines.
    pub flows_checked: usize,
    /// Deployments checked (initial build + one per repair batch).
    pub checkpoints: usize,
    /// FNV-1a over every batch-engine outcome, in checkpoint order —
    /// the cross-run determinism handle.
    pub checksum: u64,
}

/// Run `sc`'s flows through batch, scalar, and naive engines at every
/// churn checkpoint; return the first per-packet disagreement.
pub fn forward_oracle(
    sc: &Scenario,
    opts: &ForwardOracleOptions,
) -> Result<ForwardOracleReport, Box<Divergence>> {
    let g = sc.topology.graph().map_err(Divergence::Setup)?;
    validate_events(sc, &g)?;

    let cfg = build_config(sc);
    let base = Splicing::build(&g, &cfg, sc.build_seed);
    let base_weights: Vec<Vec<f64>> = (0..sc.k).map(|s| base.weights(s).to_vec()).collect();
    let steps = schedule_to_batches(&base_weights, &sc.events, opts.batch.max(1));

    let checkpoints = steps.len() + 1;
    let per_checkpoint = opts.flows.div_ceil(checkpoints).max(1);
    let flow_gen = FlowGen::new(FlowConfig::new(
        g.node_count() as u32,
        sc.k,
        derive_seed(sc.build_seed, 0xf02d, 0),
    ));
    let fwd_opts = ForwarderOptions {
        ttl: opts.ttl,
        ..Default::default()
    };
    let mut engine = BatchForwarder::new(fwd_opts);
    let mut pkts: Vec<(u32, u32, splice_core::header::ForwardingBits)> = Vec::new();
    let mut report = ForwardOracleReport {
        checkpoints,
        checksum: outcomes_checksum(&[]),
        ..Default::default()
    };

    let mut sp = base.clone();
    for step in 0..checkpoints {
        if step > 0 {
            sp = sp.repair_batch(&g, &steps[step - 1]);
        }

        let mask = sp.failed_mask();
        let weights: Vec<&[f64]> = (0..sc.k).map(|s| sp.weights(s)).collect();
        let tables = if sc.strategy == StrategyKind::PerturbedSpf {
            OracleTables::build(&g, &weights, mask)
        } else {
            strategy_oracle(&g, sc.strategy, sc.build_seed, &weights, mask)
        };

        // Per-checkpoint flow stream: independent of every other
        // checkpoint's, deterministic in the scenario spec alone.
        let mut stream = flow_gen.stream(step);
        stream.fill_burst(per_checkpoint, &mut pkts);

        let batch_arena = if opts.stale_batch_arena {
            base.arena()
        } else {
            sp.arena()
        };
        let outcomes = engine.forward_burst(batch_arena, mask, &pkts);
        report.checksum = fold_outcomes_checksum(report.checksum, outcomes);

        for (i, &(src, dst, bits)) in pkts.iter().enumerate() {
            let batch = outcomes[i];
            let scalar = WalkOutcome::from_outcome(&scalar_walk(
                sp.arena(),
                mask,
                NodeId(src),
                NodeId(dst),
                bits,
                &fwd_opts,
            ));
            let naive = WalkOutcome::from_outcome(&naive_walk(
                &tables,
                sc.k,
                NodeId(src),
                NodeId(dst),
                bits,
                opts.ttl,
            ));
            report.flows_checked += 1;
            if batch != scalar || scalar != naive {
                return Err(Box::new(Divergence::Invariant {
                    step,
                    name: "forward-oracle".into(),
                    detail: format!(
                        "flow {} -> {} (packet {i} of checkpoint {step}): \
                         batch {} vs scalar {} vs naive {}",
                        src,
                        dst,
                        batch.signature(),
                        scalar.signature(),
                        naive.signature()
                    ),
                }));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PerturbationSpec, TopologySpec};
    use crate::schedule::churn_schedule;
    use crate::shrink::shrink;

    fn scenario(strategy: StrategyKind, events: Vec<crate::scenario::EventSpec>) -> Scenario {
        Scenario {
            topology: TopologySpec::Named("abilene".into()),
            k: 3,
            perturbation: PerturbationSpec::DegreeBased,
            strategy,
            build_seed: 17,
            events,
        }
    }

    #[test]
    fn three_engines_agree_under_churn() {
        let g = splice_topology::abilene::abilene().graph();
        let events = churn_schedule(&g, 3, 24, 5);
        let sc = scenario(StrategyKind::PerturbedSpf, events);
        let opts = ForwardOracleOptions {
            flows: 600,
            ..Default::default()
        };
        let a = forward_oracle(&sc, &opts).expect("engines diverged");
        assert!(a.flows_checked >= 600, "{a:?}");
        assert!(a.checkpoints > 1, "churn produced no checkpoints: {a:?}");
        let b = forward_oracle(&sc, &opts).expect("engines diverged on rerun");
        assert_eq!(a, b, "oracle run is deterministic");
    }

    #[test]
    fn agrees_across_all_slice_strategies() {
        let g = splice_topology::abilene::abilene().graph();
        let events = churn_schedule(&g, 3, 10, 8);
        let opts = ForwardOracleOptions {
            flows: 200,
            ..Default::default()
        };
        for strategy in StrategyKind::ALL {
            let sc = scenario(strategy, events.clone());
            forward_oracle(&sc, &opts).unwrap_or_else(|d| panic!("{strategy:?} diverged: {d}"));
        }
    }

    #[test]
    fn empty_schedule_still_checks_the_build() {
        let sc = scenario(StrategyKind::PerturbedSpf, Vec::new());
        let report = forward_oracle(&sc, &ForwardOracleOptions::default()).expect("clean build");
        assert_eq!(report.checkpoints, 1);
        assert!(report.flows_checked >= 1);
    }

    #[test]
    fn bad_event_ids_are_setup_not_divergence() {
        let sc = scenario(
            StrategyKind::PerturbedSpf,
            vec![crate::scenario::EventSpec::FailLink(9999)],
        );
        let err = forward_oracle(&sc, &ForwardOracleOptions::default()).unwrap_err();
        assert!(matches!(*err, Divergence::Setup(_)), "{err:?}");
    }

    /// The stale-snapshot sabotage must (a) be caught as a
    /// forward-oracle divergence and (b) shrink to a scenario that still
    /// prints a one-line replay command — the end-to-end path a real
    /// batch-engine bug would take through the harness.
    #[test]
    fn stale_arena_sabotage_is_caught_and_shrinks() {
        let g = splice_topology::abilene::abilene().graph();
        let events = churn_schedule(&g, 3, 16, 3);
        let sc = scenario(StrategyKind::PerturbedSpf, events);
        let opts = ForwardOracleOptions {
            flows: 400,
            stale_batch_arena: true,
            ..Default::default()
        };
        let div = *forward_oracle(&sc, &opts).expect_err("sabotage went unnoticed");
        match &div {
            Divergence::Invariant { name, .. } => assert_eq!(name, "forward-oracle"),
            other => panic!("wrong divergence class: {other:?}"),
        }
        let check = |c: &Scenario| forward_oracle(c, &opts).err().map(|b| *b);
        let out = shrink(&sc, div, check);
        assert!(out.scenario.events.len() <= sc.events.len());
        assert!(!out.scenario.events.is_empty(), "sabotage needs churn");
        assert!(out.replay_command().starts_with("splice testkit replay "));
    }
}
