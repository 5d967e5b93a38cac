//! Long churn schedules and the schedule → batch adapter feeding
//! [`Splicing::repair_batch`].
//!
//! The differential harness ([`crate::check::replay`]) applies one
//! [`EventSpec`] at a time because it checkpoints after every event. The
//! daemon and forwarding differentials want the opposite: long event
//! streams coalesced into fixed-size batches, the way the live control
//! plane repairs. This module provides both halves:
//!
//! - [`churn_schedule`] deterministically generates a long mixed event
//!   stream (mostly failures, some per-slice reweights, occasional
//!   recoveries once enough links are down) from a seed, using the
//!   repo's own SplitMix64 chain — no RNG crate in the loop, so the
//!   schedule is bit-stable across toolchains and stub environments.
//! - [`schedule_to_batches`] folds a schedule into batches of
//!   [`RepairEvent`]s with exactly the semantics of the live control
//!   plane: reweights are multiplicative against the *current* shadow
//!   weights (and dropped when they would leave the routable range, by
//!   the control plane's own guard), and an [`EventSpec::Recover`] is a
//!   [`RepairEvent::LinkRestore`] that coalesces like any other event.
//!
//! Because `repair_batch` is bit-identical to folding its events one at
//! a time, applying the same schedule at any batch size lands on the
//! same deployment — the invariant `daemon_replay` asserts against the
//! live control plane at several batch caps.

use crate::scenario::EventSpec;
use splice_core::control::hops_still_count;
use splice_core::hash::splitmix64;
use splice_core::slices::{RepairEvent, Splicing};
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};

/// Fold `events` into batches of at most `batch_size` repair events,
/// mirroring the live control plane's shadow-state semantics:
/// multiplicative reweights, dropped when the result would leave the
/// range the repair engine can route over ([`hops_still_count`]).
///
/// `base_weights` must be the *initial* per-slice weight vectors of the
/// deployment the schedule starts from (`Splicing::weights` per slice).
///
/// # Panics
/// Panics if `batch_size == 0` or a reweight references an out-of-range
/// slice or edge.
pub fn schedule_to_batches(
    base_weights: &[Vec<f64>],
    events: &[EventSpec],
    batch_size: usize,
) -> Vec<Vec<RepairEvent>> {
    assert!(batch_size >= 1, "batch size must be at least 1");
    let mut shadow_weights: Vec<Vec<f64>> = base_weights.to_vec();
    let mut batches: Vec<Vec<RepairEvent>> = Vec::new();
    let mut pending: Vec<RepairEvent> = Vec::new();
    for ev in events {
        match ev {
            EventSpec::FailLink(e) => pending.push(RepairEvent::LinkFailure(EdgeId(*e))),
            EventSpec::FailGroup(es) => pending.push(RepairEvent::LinkSetFailure(
                es.iter().map(|e| EdgeId(*e)).collect(),
            )),
            EventSpec::FailNode(v) => pending.push(RepairEvent::NodeFailure(NodeId(*v))),
            EventSpec::Reweight { slice, edge, milli } => {
                let slice = *slice as usize;
                let e = EdgeId(*edge);
                let new_weight = shadow_weights[slice][e.index()] * (*milli as f64 / 1000.0);
                if !hops_still_count(&shadow_weights[slice], e, new_weight) {
                    continue;
                }
                shadow_weights[slice][e.index()] = new_weight;
                pending.push(RepairEvent::SliceReweight {
                    slice,
                    edge: e,
                    new_weight,
                });
            }
            EventSpec::Recover(e) => pending.push(RepairEvent::LinkRestore(EdgeId(*e))),
        }
        if pending.len() >= batch_size {
            batches.push(std::mem::take(&mut pending));
        }
    }
    if !pending.is_empty() {
        batches.push(pending);
    }
    batches
}

/// Apply `batches` starting from `base` and return the final deployment —
/// the reference driver (untimed) for tests and smoke checks.
pub fn apply_batches(g: &Graph, base: &Splicing, batches: &[Vec<RepairEvent>]) -> Splicing {
    batches
        .iter()
        .fold(base.clone(), |sp, events| sp.repair_batch(g, events))
}

/// Deterministically generate a churn schedule of `len` events for a
/// `k`-slice deployment on `g`: long runs of link/group/node failures
/// (~72%) mixed with per-slice reweights (factor 0.25–3.25, ~28%),
/// punctuated by recovery *bursts* — once more than a third of the
/// links are down the network drains back below a sixth, one
/// [`EventSpec::Recover`] per event. The hysteresis keeps a standing
/// set of failed links for recoveries to draw from. Link and group
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
            let batches = schedule_to_batches(&weights, &schedule, batch_size);
            // Every batch but the last is full: recoveries coalesce like
            // any other event.
            let (last, full) = batches.split_last().unwrap();
            assert!(full.iter().all(|b| b.len() == batch_size));
            assert!(!last.is_empty() && last.len() <= batch_size);
            // One repair event per spec: nothing dropped or duplicated.
            let events: Vec<&RepairEvent> = batches.iter().flatten().collect();
            assert_eq!(events.len(), schedule.len());
            let restores = events
                .iter()
                .filter(|e| matches!(e, RepairEvent::LinkRestore(_)))
                .count();
            assert_eq!(restores, recoveries);
        }
    }

    #[test]
    fn batched_application_matches_single_event_application() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 7);
        let weights: Vec<Vec<f64>> = (0..3).map(|s| sp.weights(s).to_vec()).collect();
        let schedule = churn_schedule(&g, 3, 60, 11);
        let sequential = apply_batches(&g, &sp, &schedule_to_batches(&weights, &schedule, 1));
        for batch_size in [2usize, 8, 64] {
            let steps = schedule_to_batches(&weights, &schedule, batch_size);
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
