//! Greedy scenario shrinking: given a failing [`Scenario`], find a
//! smaller one that still fails, and print the one-line replay command.
//!
//! The shrinker never needs to understand *why* a scenario fails — it
//! re-runs the caller's check on every candidate and keeps a candidate
//! only if the check still reports a divergence. Candidates that fail to
//! even replay ([`Divergence::Setup`], e.g. an event referencing an edge
//! the smaller topology no longer has) are discarded, not kept.
//!
//! Passes, applied to a fixpoint in order of how much they simplify:
//!
//! 1. **drop events** — remove one scheduled event at a time;
//! 2. **remove edges** — for random topologies, drop extra chords off
//!    the end (the chord stream is prefix-stable, see
//!    [`crate::scenario::TopologySpec::Random`]) and shrink the ring;
//! 3. **lower k** — fewer slices.

use crate::check::Divergence;
use crate::scenario::{Scenario, TopologySpec};

/// Outcome of a shrink run.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimal failing scenario found.
    pub scenario: Scenario,
    /// The divergence the minimal scenario produces.
    pub divergence: Divergence,
    /// Candidate scenarios evaluated.
    pub attempts: usize,
}

impl ShrinkResult {
    /// The one-line reproduction command for the minimal scenario.
    pub fn replay_command(&self) -> String {
        self.scenario.replay_command()
    }
}

/// Hard cap on candidate evaluations, so shrinking a pathological
/// scenario stays bounded.
const MAX_ATTEMPTS: usize = 400;

/// Shrink `sc` with respect to `check`: `check` must return the
/// divergence `sc` currently exhibits (the caller just observed it).
///
/// `check` is any scenario-level predicate — the plain replay for soak
/// runs, or a sabotaged replay in fault-injection tests.
pub fn shrink<F>(sc: &Scenario, initial: Divergence, check: F) -> ShrinkResult
where
    F: Fn(&Scenario) -> Option<Divergence>,
{
    let mut best = sc.clone();
    let mut best_div = initial;
    let mut attempts = 0usize;

    // Re-check a candidate; returns its divergence if it still fails.
    let try_candidate = |cand: &Scenario, attempts: &mut usize| -> Option<Divergence> {
        if *attempts >= MAX_ATTEMPTS {
            return None;
        }
        *attempts += 1;
        match check(cand) {
            Some(Divergence::Setup(_)) | None => None,
            Some(d) => Some(d),
        }
    };

    loop {
        let mut progressed = false;

        // Pass 1: drop one event at a time.
        let mut i = 0;
        while i < best.events.len() {
            let mut cand = best.clone();
            cand.events.remove(i);
            if let Some(d) = try_candidate(&cand, &mut attempts) {
                best = cand;
                best_div = d;
                progressed = true;
                // Same index now holds the next event.
            } else {
                i += 1;
            }
        }

        // Pass 2: shed topology, for seeded random graphs.
        if let TopologySpec::Random { nodes, extra, seed } = best.topology {
            // Chords come off the end first (cheapest structural cut)...
            let mut x = extra;
            while x > 0 {
                let mut cand = best.clone();
                cand.topology = TopologySpec::Random {
                    nodes,
                    extra: x - 1,
                    seed,
                };
                if let Some(d) = try_candidate(&cand, &mut attempts) {
                    best = cand;
                    best_div = d;
                    progressed = true;
                    x -= 1;
                } else {
                    break;
                }
            }
            // ...then the ring itself.
            if let TopologySpec::Random { nodes, extra, seed } = best.topology {
                let mut n = nodes;
                while n > 3 {
                    let mut cand = best.clone();
                    cand.topology = TopologySpec::Random {
                        nodes: n - 1,
                        extra,
                        seed,
                    };
                    if let Some(d) = try_candidate(&cand, &mut attempts) {
                        best = cand;
                        best_div = d;
                        progressed = true;
                        n -= 1;
                    } else {
                        break;
                    }
                }
            }
        }

        // Pass 3: fewer slices.
        while best.k > 1 {
            let mut cand = best.clone();
            cand.k -= 1;
            if let Some(d) = try_candidate(&cand, &mut attempts) {
                best = cand;
                best_div = d;
                progressed = true;
            } else {
                break;
            }
        }

        if !progressed || attempts >= MAX_ATTEMPTS {
            return ShrinkResult {
                scenario: best,
                divergence: best_div,
                attempts,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EventSpec, PerturbationSpec};
    use splice_core::strategy::StrategyKind;

    fn scenario(nodes: u32, extra: u32, k: usize, events: Vec<EventSpec>) -> Scenario {
        Scenario {
            topology: TopologySpec::Random {
                nodes,
                extra,
                seed: 9,
            },
            k,
            perturbation: PerturbationSpec::DegreeBased,
            strategy: StrategyKind::PerturbedSpf,
            build_seed: 1,
            events,
        }
    }

    #[test]
    fn shrinks_to_the_failing_core() {
        // Synthetic failure: diverges iff event FailLink(1) is present,
        // regardless of everything else. The shrinker must strip all
        // other events, all chords, most of the ring, and all but one
        // slice.
        let sc = scenario(
            9,
            7,
            5,
            vec![
                EventSpec::FailLink(0),
                EventSpec::FailNode(2),
                EventSpec::FailLink(1),
                EventSpec::Recover(0),
            ],
        );
        let fails = |c: &Scenario| {
            c.events
                .contains(&EventSpec::FailLink(1))
                .then(|| Divergence::Invariant {
                    step: 0,
                    name: "synthetic".into(),
                    detail: String::new(),
                })
        };
        let initial = fails(&sc).unwrap();
        let out = shrink(&sc, initial, fails);
        assert_eq!(out.scenario.events, vec![EventSpec::FailLink(1)]);
        assert_eq!(out.scenario.k, 1);
        assert_eq!(
            out.scenario.topology,
            TopologySpec::Random {
                nodes: 3,
                extra: 0,
                seed: 9
            }
        );
        assert!(out.replay_command().starts_with("splice testkit replay "));
        assert!(out.attempts <= MAX_ATTEMPTS);
    }

    #[test]
    fn setup_failures_are_not_kept() {
        // A check that reports Setup for anything smaller than the
        // original must leave the scenario untouched.
        let sc = scenario(5, 3, 2, vec![EventSpec::FailLink(0)]);
        let original = sc.clone();
        let fails = |c: &Scenario| {
            if *c == original {
                Some(Divergence::Invariant {
                    step: 0,
                    name: "synthetic".into(),
                    detail: String::new(),
                })
            } else {
                Some(Divergence::Setup("cannot replay".into()))
            }
        };
        let initial = fails(&sc).unwrap();
        let out = shrink(&sc, initial, fails);
        assert_eq!(out.scenario, sc);
    }
}
