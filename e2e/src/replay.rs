//! Stand-alone replay of a schedule through `Splicing`'s repair entry
//! point, outside any control plane: the micro-driver that prices the
//! repair layer on its own.
//!
//! [`Replayer`] keeps the same shadow state `ControlPlane` keeps
//! (multiplicative reweights against the running weights, recovery =
//! rebuild from the base carrying surviving reweights and failures) and
//! calls `Splicing::try_repair_batch_recycling` once per step, timing
//! only that call. Given the batch partition the traced event loop
//! formed it prices exactly the repairs the live run did; given the
//! one-event-per-step partition it *is* the batch-1 oracle, with
//! deterministic work counts as a by-product. Every traced run checks
//! the digests it produces against the arenas the real `ControlPlane`
//! published, so a mistake in the shadow logic here fails the run.

use crate::oracle::{digest, Oracle};
use splice_core::control::{fib_checksum, ControlEvent};
use splice_core::slices::{RepairEvent, Splicing};
use splice_graph::{EdgeId, EdgeMask, Graph};
use splice_routing::{RepairStats, SpliceFib};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One repair pass of a replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayStep {
    /// Events `range` coalesced into one `repair_batch` on the current
    /// deployment.
    Repair(Range<usize>),
    /// Event `index` is a `Recover`: re-converge from the base.
    Rebuild(usize),
}

/// The partition a batch-1 control plane forms: every event its own
/// pass.
pub fn singleton_steps(events: &[ControlEvent]) -> Vec<ReplayStep> {
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| match ev {
            ControlEvent::Recover(_) => ReplayStep::Rebuild(i),
            _ => ReplayStep::Repair(i..i + 1),
        })
        .collect()
}

/// What one step cost.
#[derive(Clone, Copy, Debug)]
pub struct StepCost {
    /// Whether this was a rebuild from the base.
    pub rebuild: bool,
    /// Seconds inside `try_repair_batch_recycling`.
    pub seconds: f64,
    /// Columns patched / skipped and nodes re-relaxed.
    pub stats: RepairStats,
}

/// A deployment being replayed step by step.
pub struct Replayer<'a> {
    g: &'a Graph,
    base: &'a Splicing,
    current: Splicing,
    shadow_weights: Vec<Vec<f64>>,
    shadow_mask: EdgeMask,
    reweights_applied: Vec<(usize, EdgeId, f64)>,
    /// The arena the last step superseded, reused as the next one's
    /// scratch the way the control plane recycles retired snapshots.
    spare: Option<SpliceFib>,
}

impl<'a> Replayer<'a> {
    /// Start from `base`.
    pub fn new(g: &'a Graph, base: &'a Splicing) -> Replayer<'a> {
        Replayer {
            g,
            base,
            current: base.clone(),
            shadow_weights: (0..base.k()).map(|s| base.weights(s).to_vec()).collect(),
            shadow_mask: (*base.failed_mask()).clone(),
            reweights_applied: Vec::new(),
            spare: None,
        }
    }

    /// The deployment after the steps applied so far.
    pub fn current(&self) -> &Splicing {
        &self.current
    }

    /// Apply one step of `events`.
    pub fn apply(&mut self, events: &[ControlEvent], step: &ReplayStep) -> StepCost {
        let (from, batch, rebuild) = match step {
            ReplayStep::Repair(range) => {
                let batch: Vec<RepairEvent> = events[range.clone()]
                    .iter()
                    .map(|ev| self.shadow(ev))
                    .collect();
                (&self.current, batch, false)
            }
            ReplayStep::Rebuild(index) => {
                let ControlEvent::Recover(e) = &events[*index] else {
                    panic!("replay step {index} rebuilds on a non-recovery event");
                };
                self.shadow_mask.restore(*e);
                let mut carry: Vec<RepairEvent> = self
                    .reweights_applied
                    .iter()
                    .map(|&(slice, edge, new_weight)| RepairEvent::SliceReweight {
                        slice,
                        edge,
                        new_weight,
                    })
                    .collect();
                let still_failed: Vec<EdgeId> = self.shadow_mask.failed_edges().collect();
                if !still_failed.is_empty() {
                    carry.push(RepairEvent::LinkSetFailure(still_failed));
                }
                (self.base, carry, true)
            }
        };
        // Like the control plane, spend the spare only on a pass that
        // will produce a new arena.
        let produces = if rebuild {
            !batch.is_empty()
        } else {
            self.shadow_mask != *from.failed_mask()
                || batch
                    .iter()
                    .any(|e| matches!(e, RepairEvent::SliceReweight { .. }))
        };
        let spare = if produces { self.spare.take() } else { None };
        let t0 = Instant::now();
        let (next, stats) = from
            .try_repair_batch_recycling(self.g, &batch, None, spare)
            .expect("schedule reweights are positive by construction");
        let seconds = t0.elapsed().as_secs_f64();

        let old = std::mem::replace(&mut self.current, next);
        let superseded = Arc::clone(old.arena());
        drop(old);
        if !Arc::ptr_eq(&superseded, self.current.arena()) {
            // Fails only for the base's arena, which `base` still holds.
            if let Ok(fib) = Arc::try_unwrap(superseded) {
                self.spare = Some(fib);
            }
        }
        StepCost {
            rebuild,
            seconds,
            stats,
        }
    }

    /// Fold one non-recovery event into the shadow state, as
    /// `ControlPlane::ingest` does, and return the repair event it
    /// becomes.
    fn shadow(&mut self, ev: &ControlEvent) -> RepairEvent {
        match ev {
            ControlEvent::FailLink(e) => {
                self.shadow_mask.fail(*e);
                RepairEvent::LinkFailure(*e)
            }
            ControlEvent::FailGroup(es) => {
                for e in es {
                    self.shadow_mask.fail(*e);
                }
                RepairEvent::LinkSetFailure(es.clone())
            }
            ControlEvent::FailNode(v) => {
                for &(_, e) in self.g.neighbors(*v) {
                    self.shadow_mask.fail(e);
                }
                RepairEvent::NodeFailure(*v)
            }
            ControlEvent::Reweight { slice, edge, milli } => {
                let new_weight =
                    self.shadow_weights[*slice][edge.index()] * (*milli as f64 / 1000.0);
                self.shadow_weights[*slice][edge.index()] = new_weight;
                self.reweights_applied.push((*slice, *edge, new_weight));
                RepairEvent::SliceReweight {
                    slice: *slice,
                    edge: *edge,
                    new_weight,
                }
            }
            ControlEvent::Recover(_) => panic!("a recovery inside a repair step"),
        }
    }
}

/// The batch-1 oracle built by replay: prefix digests, the final
/// `fib_checksum`, and what each single-event pass cost.
pub fn oracle_by_replay(
    g: &Graph,
    base: &Splicing,
    events: &[ControlEvent],
) -> (Oracle, u64, Vec<StepCost>) {
    let mut replayer = Replayer::new(g, base);
    let mut digests = Vec::with_capacity(events.len() + 1);
    digests.push(digest(replayer.current().arena()));
    let mut costs = Vec::with_capacity(events.len());
    for step in singleton_steps(events) {
        costs.push(replayer.apply(events, &step));
        digests.push(digest(replayer.current().arena()));
    }
    let checksum = fib_checksum(g, replayer.current());
    (Oracle::from_digests(digests), checksum, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::churn_schedule;
    use splice_core::slices::SplicingConfig;
    use splice_core::strategy::StrategyKind;

    /// The replayer's shadow logic against the shipped `ControlPlane`:
    /// identical digest after every prefix, identical final checksum,
    /// under delta repair and under rebuild-only strategies, and under a
    /// coarser partition too.
    #[test]
    fn replay_matches_the_control_plane_prefix_by_prefix() {
        let g = splice_topology::abilene::abilene().graph();
        for strategy in [StrategyKind::PerturbedSpf, StrategyKind::RandomSpanningTree] {
            let cfg = SplicingConfig::degree_based(3, 0.0, 3.0).with_strategy(strategy);
            let base = Splicing::build(&g, &cfg, 11);
            let events = churn_schedule(&g, 3, 150, 5);
            let (by_cp, cp_sum) = Oracle::replay(&g, &base, &events);
            let (by_replay, replay_sum, costs) = oracle_by_replay(&g, &base, &events);
            assert_eq!(cp_sum, replay_sum, "{strategy:?}");
            assert_eq!(costs.len(), events.len());
            for p in 0..=events.len() {
                assert_eq!(
                    by_cp.digest_at(p),
                    by_replay.digest_at(p),
                    "{strategy:?} prefix {p}"
                );
            }
            assert!(costs.iter().any(|c| c.rebuild) && costs.iter().any(|c| !c.rebuild));

            // Coalesce runs of up to 4 non-recovery events.
            let mut steps = Vec::new();
            let mut start = 0;
            for (i, ev) in events.iter().enumerate() {
                if matches!(ev, ControlEvent::Recover(_)) {
                    if start < i {
                        steps.push(ReplayStep::Repair(start..i));
                    }
                    steps.push(ReplayStep::Rebuild(i));
                    start = i + 1;
                } else if i + 1 - start == 4 {
                    steps.push(ReplayStep::Repair(start..i + 1));
                    start = i + 1;
                }
            }
            if start < events.len() {
                steps.push(ReplayStep::Repair(start..events.len()));
            }
            let mut coarse = Replayer::new(&g, &base);
            for step in &steps {
                coarse.apply(&events, step);
            }
            assert_eq!(
                fib_checksum(&g, coarse.current()),
                cp_sum,
                "{strategy:?} coarse"
            );
        }
    }
}
