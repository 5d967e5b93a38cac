//! Long churn schedules and the schedule → batch adapter feeding
//! [`Splicing::repair_batch`].
//!
//! The differential harness ([`crate::check::replay`]) applies one
//! [`EventSpec`] at a time because it checkpoints after every event. The
//! sustained-churn benchmark wants the opposite: long event streams
//! coalesced into fixed-size batches so the batched repair path earns its
//! keep. This module provides both halves:
//!
//! - [`churn_schedule`] deterministically generates a long mixed event
//!   stream (mostly failures, some per-slice reweights, occasional
//!   recoveries once enough links are down) from a seed, using the
//!   repo's own SplitMix64 chain — no RNG crate in the loop, so the
//!   schedule is bit-stable across toolchains and stub environments.
//! - [`schedule_to_batches`] folds a schedule into [`BatchStep`]s with
//!   exactly the semantics of the replay engine: reweights are
//!   multiplicative against the *current* shadow weights, and a
//!   [`EventSpec::Recover`] re-converges from the base deployment by
//!   carrying the surviving reweights and failures forward.
//!
//! Because `repair_batch` is bit-identical to folding its events one at
//! a time, applying the same schedule at any batch size lands on the
//! same deployment — the invariant the churn experiment's cross-batch
//! checksum column asserts in CI.

use crate::scenario::EventSpec;
use splice_core::hash::splitmix64;
use splice_core::slices::{RepairEvent, Splicing};
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};

/// One unit of work for a churn driver replaying a schedule against the
/// batched repair path.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchStep {
    /// Apply these coalesced events to the *current* deployment in one
    /// [`Splicing::repair_batch`] call. At batch size 1 every step holds
    /// exactly one event, which is the sequential baseline.
    Repair(Vec<RepairEvent>),
    /// A link came back up. There is no incremental un-fail, so the
    /// driver must re-converge from the *base* deployment by applying
    /// `carry`: every surviving reweight (in application order) followed
    /// by one failure set for the links still down. Drivers time
    /// `Repair` steps only; a rebuild is control-plane re-convergence,
    /// not repair throughput.
    Rebuild {
        /// Events to replay from the base deployment.
        carry: Vec<RepairEvent>,
    },
}

/// Fold `events` into batches of at most `batch_size` repair events,
/// mirroring the replay engine's shadow-state semantics (multiplicative
/// reweights, rebuild-from-base on recovery).
///
/// `base_weights` must be the *initial* per-slice weight vectors of the
/// deployment the schedule starts from (`Splicing::weights` per slice).
///
/// # Panics
/// Panics if `batch_size == 0` or an event references an out-of-range
/// slice, edge, or node.
pub fn schedule_to_batches(
    g: &Graph,
    base_weights: &[Vec<f64>],
    events: &[EventSpec],
    batch_size: usize,
) -> Vec<BatchStep> {
    assert!(batch_size >= 1, "batch size must be at least 1");
    let mut shadow_weights: Vec<Vec<f64>> = base_weights.to_vec();
    let mut shadow_mask = EdgeMask::all_up(g.edge_count());
    let mut reweights_applied: Vec<(usize, EdgeId, f64)> = Vec::new();

    let mut steps: Vec<BatchStep> = Vec::new();
    let mut pending: Vec<RepairEvent> = Vec::new();
    for ev in events {
        match ev {
            EventSpec::FailLink(e) => {
                shadow_mask.fail(EdgeId(*e));
                pending.push(RepairEvent::LinkFailure(EdgeId(*e)));
            }
            EventSpec::FailGroup(es) => {
                let ids: Vec<EdgeId> = es.iter().map(|e| EdgeId(*e)).collect();
                for e in &ids {
                    shadow_mask.fail(*e);
                }
                pending.push(RepairEvent::LinkSetFailure(ids));
            }
            EventSpec::FailNode(v) => {
                let node = NodeId(*v);
                for &(_, e) in g.neighbors(node) {
                    shadow_mask.fail(e);
                }
                pending.push(RepairEvent::NodeFailure(node));
            }
            EventSpec::Reweight { slice, edge, milli } => {
                let slice = *slice as usize;
                let e = EdgeId(*edge);
                let new_weight = shadow_weights[slice][e.index()] * (*milli as f64 / 1000.0);
                shadow_weights[slice][e.index()] = new_weight;
                reweights_applied.push((slice, e, new_weight));
                pending.push(RepairEvent::SliceReweight {
                    slice,
                    edge: e,
                    new_weight,
                });
            }
            EventSpec::Recover(e) => {
                if !pending.is_empty() {
                    steps.push(BatchStep::Repair(std::mem::take(&mut pending)));
                }
                shadow_mask.restore(EdgeId(*e));
                let mut carry: Vec<RepairEvent> = reweights_applied
                    .iter()
                    .map(|&(slice, edge, new_weight)| RepairEvent::SliceReweight {
                        slice,
                        edge,
                        new_weight,
                    })
                    .collect();
                let still_failed: Vec<EdgeId> = shadow_mask.failed_edges().collect();
                if !still_failed.is_empty() {
                    carry.push(RepairEvent::LinkSetFailure(still_failed));
                }
                steps.push(BatchStep::Rebuild { carry });
                continue;
            }
        }
        if pending.len() >= batch_size {
            steps.push(BatchStep::Repair(std::mem::take(&mut pending)));
        }
    }
    if !pending.is_empty() {
        steps.push(BatchStep::Repair(pending));
    }
    steps
}

/// Apply `steps` starting from `base` and return the final deployment —
/// the reference driver (untimed) for tests and smoke checks.
pub fn apply_batches(g: &Graph, base: &Splicing, steps: &[BatchStep]) -> Splicing {
    let mut sp = base.clone();
    for step in steps {
        match step {
            BatchStep::Repair(events) => sp = sp.repair_batch(g, events),
            BatchStep::Rebuild { carry } => sp = base.repair_batch(g, carry),
        }
    }
    sp
}

/// Deterministically generate a churn schedule of `len` events for a
/// `k`-slice deployment on `g`: long runs of link/group/node failures
/// (~72%) mixed with per-slice reweights (factor 0.25–3.25, ~28%),
/// punctuated by recovery *bursts* — once more than a third of the
/// links are down the network drains back below a sixth, one
/// [`EventSpec::Recover`] per event. The hysteresis matters for the
/// benchmark: single opportunistic recoveries would flush the pending
/// batch every few events and no batch would ever fill. Link and group
/// failures sample currently-*up* edges, so every failure event is
/// real work rather than a free already-failed no-op.
///
/// The generator is a pure SplitMix64 chain over `seed`: the same
/// `(g, k, len, seed)` always produces the same schedule, everywhere.
pub fn churn_schedule(g: &Graph, k: usize, len: usize, seed: u64) -> Vec<EventSpec> {
    assert!(k >= 1, "need at least one slice");
    let m = g.edge_count();
    let n = g.node_count();
    assert!(m >= 1 && n >= 2, "churn needs a non-trivial graph");
    let mut mask = EdgeMask::all_up(m);
    let mut state = seed;
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let pick_up_edge = |mask: &EdgeMask, next: &mut dyn FnMut() -> u64| -> Option<u32> {
        let up: Vec<EdgeId> = (0..m as u32)
            .map(EdgeId)
            .filter(|&e| mask.is_up(e))
            .collect();
        if up.is_empty() {
            None
        } else {
            Some(up[(next() % up.len() as u64) as usize].0)
        }
    };

    let mut draining = false;
    let mut events = Vec::with_capacity(len);
    for _ in 0..len {
        let failed = mask.failed_count();
        if failed * 3 > m {
            draining = true;
        }
        if failed * 6 <= m {
            draining = false;
        }
        let roll = next() % 100;
        let ev = if draining && failed > 0 {
            let downed: Vec<EdgeId> = mask.failed_edges().collect();
            let e = downed[(next() % downed.len() as u64) as usize];
            mask.restore(e);
            EventSpec::Recover(e.0)
        } else if roll < 28 {
            EventSpec::Reweight {
                slice: (next() % k as u64) as u32,
                edge: (next() % m as u64) as u32,
                milli: 250 + (next() % 3000) as u32,
            }
        } else if roll < 34 {
            let mut group = Vec::new();
            for _ in 0..2 {
                if let Some(e) = pick_up_edge(&mask, &mut next) {
                    mask.fail(EdgeId(e));
                    group.push(e);
                }
            }
            if group.is_empty() {
                // Whole graph already down: reweight instead.
                EventSpec::Reweight {
                    slice: (next() % k as u64) as u32,
                    edge: (next() % m as u64) as u32,
                    milli: 250 + (next() % 3000) as u32,
                }
            } else {
                EventSpec::FailGroup(group)
            }
        } else if roll < 40 {
            let v = (next() % n as u64) as u32;
            for &(_, e) in g.neighbors(NodeId(v)) {
                mask.fail(e);
            }
            EventSpec::FailNode(v)
        } else {
            match pick_up_edge(&mask, &mut next) {
                Some(e) => {
                    mask.fail(EdgeId(e));
                    EventSpec::FailLink(e)
                }
                None => EventSpec::Reweight {
                    slice: (next() % k as u64) as u32,
                    edge: (next() % m as u64) as u32,
                    milli: 250 + (next() % 3000) as u32,
                },
            }
        };
        events.push(ev);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::slices::SplicingConfig;
    use splice_topology::abilene::abilene;

    #[test]
    fn churn_schedule_is_deterministic_and_in_range() {
        let g = abilene().graph();
        let a = churn_schedule(&g, 3, 120, 42);
        let b = churn_schedule(&g, 3, 120, 42);
        assert_eq!(a, b);
        assert_ne!(a, churn_schedule(&g, 3, 120, 43));
        let (m, n) = (g.edge_count() as u32, g.node_count() as u32);
        let mut kinds = [0usize; 5];
        for ev in &a {
            match ev {
                EventSpec::FailLink(e) => {
                    assert!(*e < m);
                    kinds[0] += 1;
                }
                EventSpec::FailGroup(es) => {
                    assert!(es.iter().all(|e| *e < m));
                    kinds[1] += 1;
                }
                EventSpec::FailNode(v) => {
                    assert!(*v < n);
                    kinds[2] += 1;
                }
                EventSpec::Reweight { slice, edge, milli } => {
                    assert!(*slice < 3 && *edge < m && *milli > 0);
                    kinds[3] += 1;
                }
                EventSpec::Recover(e) => {
                    assert!(*e < m);
                    kinds[4] += 1;
                }
            }
        }
        // A long schedule exercises every event class.
        assert!(kinds.iter().all(|&c| c > 0), "missing a class: {kinds:?}");
    }

    #[test]
    fn batches_cover_every_event_and_respect_size() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 5);
        let weights: Vec<Vec<f64>> = (0..3).map(|s| sp.weights(s).to_vec()).collect();
        let schedule = churn_schedule(&g, 3, 80, 9);
        let recoveries = schedule
            .iter()
            .filter(|e| matches!(e, EventSpec::Recover(_)))
            .count();
        for batch_size in [1usize, 4, 16] {
            let steps = schedule_to_batches(&g, &weights, &schedule, batch_size);
            let mut repairs = 0usize;
            let mut rebuilds = 0usize;
            for step in &steps {
                match step {
                    BatchStep::Repair(events) => {
                        assert!(!events.is_empty() && events.len() <= batch_size);
                        repairs += events.len();
                    }
                    BatchStep::Rebuild { .. } => rebuilds += 1,
                }
            }
            // One repair event per non-recovery spec, one rebuild per
            // recovery: nothing dropped, nothing duplicated.
            assert_eq!(repairs + rebuilds, schedule.len());
            assert_eq!(rebuilds, recoveries);
        }
    }

    #[test]
    fn batched_application_matches_single_event_application() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 7);
        let weights: Vec<Vec<f64>> = (0..3).map(|s| sp.weights(s).to_vec()).collect();
        let schedule = churn_schedule(&g, 3, 60, 11);
        let sequential = apply_batches(&g, &sp, &schedule_to_batches(&g, &weights, &schedule, 1));
        for batch_size in [2usize, 8, 64] {
            let steps = schedule_to_batches(&g, &weights, &schedule, batch_size);
            let batched = apply_batches(&g, &sp, &steps);
            assert_eq!(
                sequential.failed_mask().failed_edges().collect::<Vec<_>>(),
                batched.failed_mask().failed_edges().collect::<Vec<_>>()
            );
            for slice in 0..3 {
                for (x, y) in sequential.weights(slice).iter().zip(batched.weights(slice)) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                for u in g.nodes() {
                    for t in g.nodes() {
                        assert_eq!(
                            sequential.next_hop(slice, u, t),
                            batched.next_hop(slice, u, t),
                            "batch size {batch_size}, slice {slice}, {u:?} -> {t:?}"
                        );
                    }
                }
            }
        }
    }
}
