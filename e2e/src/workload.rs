//! The four workloads and the seeded churn schedule they replay.
//!
//! Every parameter that shapes a workload is a constant in this file:
//! a later change that claims a gain may not edit it.

use splice_core::control::ControlEvent;
use splice_core::hash::splitmix64;
use splice_core::strategy::StrategyKind;
use splice_graph::{EdgeId, EdgeMask, Graph};

/// Slices per deployment, on every workload.
pub const K: usize = 5;
/// Events one repair pass may coalesce (the `spliced` default).
pub const MAX_BATCH: usize = 16;
/// Packets per forwarding burst (the `spliced` default).
pub const BURST: usize = 128;
/// Pre-generated bursts the feed cycles through.
pub const RING_BURSTS: usize = 512;
/// Seconds at the start of a paced run that are not measured.
pub const WARMUP_SECONDS: f64 = 2.0;
/// Cold set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Bursts of the ring forwarded on the final FIB through both engines.
pub const VERIFY_BURSTS: usize = 64;

/// How events reach the control channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Open loop: event `i` is due at `t0 + i / rate_hz`, sent then (or
    /// at once when the generator is late), whatever the backlog.
    Paced,
    /// The whole schedule (`rate_hz * seconds` events, so exactly what
    /// the paced workload of the same rate paces) enqueued at once, round
    /// after round.
    Flood,
}

/// One workload: a deployment and a control load.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Topology name or generator spec for `splice_topology::resolve`.
    pub topology: &'static str,
    /// Slice construction strategy.
    pub strategy: StrategyKind,
    /// Control load.
    pub load: Load,
    /// Events per second of schedule.
    pub rate_hz: u32,
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paced-churn",
        topology: "sprint",
        strategy: StrategyKind::PerturbedSpf,
        load: Load::Paced,
        rate_hz: 250,
    },
    Workload {
        name: "flood-churn",
        topology: "sprint",
        strategy: StrategyKind::PerturbedSpf,
        load: Load::Flood,
        rate_hz: 250,
    },
    Workload {
        name: "forward-heavy",
        topology: "sprint",
        strategy: StrategyKind::PerturbedSpf,
        load: Load::Paced,
        rate_hz: 100,
    },
    Workload {
        name: "scale-tree",
        topology: "rand-200-200-42",
        strategy: StrategyKind::RandomSpanningTree,
        load: Load::Paced,
        rate_hz: 50,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Events one run (paced) or one round (flood) replays.
    pub fn events(&self, seconds: f64) -> usize {
        ((self.rate_hz as f64 * seconds) as usize).max(20)
    }
}

/// Seed of everything that is part of the deployment rather than of one
/// run's inputs: the slices' random perturbation and the reweight pool.
/// `--seed` varies the event sequence and the traffic over a fixed
/// network, so runs with different seeds measure the same system.
pub const DEPLOY_SEED: u64 = 42;
/// Links, `(slice, edge)` pairs, that reweights tune back and forth.
const REWEIGHT_POOL: usize = 8;
/// One event in this many (outside recovery bursts) is a reweight.
const REWEIGHT_EVERY: u64 = 10;

/// Deterministic churn for a `k`-slice deployment on `g`, a pure
/// SplitMix64 chain over `seed`:
///
/// * failures of links that are up — a single link (40 %), a two-link
///   shared-risk group (30 %) or a whole node (30 %) — so each is real
///   repair work;
/// * every tenth event a reweight, alternately x2.5 and x0.4, of one of
///   eight `(slice, edge)` pairs fixed by [`DEPLOY_SEED`]: an operator tuning a
///   few links. (A rebuild replays every distinct reweighted link, so
///   reweights spread over the whole graph would make recovery cost grow
///   with the length of the schedule and the run could not be steady);
/// * recovery *bursts*: once more than a third of the links are down the
///   network drains back below a sixth, one `Recover` per event. A
///   recovery restores one link and a failure takes down about two, so
///   about 60 % of a long schedule is recoveries: the median event is a
///   re-convergence from the base deployment, well inside that class and
///   not on its boundary with the cheaper failures.
///
/// The shape (hysteresis, event kinds) is the test kit's
/// `churn_schedule`; the generator lives here so that the benchmark owns
/// its inputs and they cannot change under it when the test kit does.
pub fn churn_schedule(g: &Graph, k: usize, len: usize, seed: u64) -> Vec<ControlEvent> {
    let m = g.edge_count();
    let n = g.node_count();
    assert!(
        k >= 1 && m >= 1 && n >= 2,
        "churn needs slices and a non-trivial graph"
    );
    let mut mask = EdgeMask::all_up(m);
    let mut state = seed;
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let mut pool_state = DEPLOY_SEED;
    let mut pool_draw = move || {
        pool_state = splitmix64(pool_state);
        pool_state
    };
    let pool: Vec<(usize, EdgeId)> = (0..REWEIGHT_POOL)
        .map(|_| {
            (
                (pool_draw() % k as u64) as usize,
                EdgeId((pool_draw() % m as u64) as u32),
            )
        })
        .collect();
    let mut raised = [false; REWEIGHT_POOL];
    let pick_up_edge = |mask: &EdgeMask, draw: u64| -> Option<EdgeId> {
        let up = m - mask.failed_count();
        (0..m as u32)
            .map(EdgeId)
            .filter(|&e| mask.is_up(e))
            .nth((draw % up.max(1) as u64) as usize)
    };

    let mut draining = false;
    let mut since_reweight = 0;
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
            let e = mask
                .failed_edges()
                .nth((next() % failed as u64) as usize)
                .expect("index below the failed count");
            mask.restore(e);
            ControlEvent::Recover(e)
        } else if since_reweight + 1 == REWEIGHT_EVERY {
            since_reweight = 0;
            let i = (next() % REWEIGHT_POOL as u64) as usize;
            raised[i] = !raised[i];
            ControlEvent::Reweight {
                slice: pool[i].0,
                edge: pool[i].1,
                milli: if raised[i] { 2500 } else { 400 },
            }
        } else {
            since_reweight += 1;
            let first =
                pick_up_edge(&mask, next()).expect("draining starts long before no link is up");
            if roll < 30 {
                let v = g.edge(first).u;
                for &(_, e) in g.neighbors(v) {
                    mask.fail(e);
                }
                ControlEvent::FailNode(v)
            } else {
                mask.fail(first);
                match pick_up_edge(&mask, next()).filter(|_| roll < 60) {
                    Some(second) => {
                        mask.fail(second);
                        ControlEvent::FailGroup(vec![first, second])
                    }
                    None => ControlEvent::FailLink(first),
                }
            }
        };
        events.push(ev);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_valid_and_mixed() {
        let g = splice_topology::abilene::abilene().graph();
        let a = churn_schedule(&g, 3, 400, 42);
        assert_eq!(a, churn_schedule(&g, 3, 400, 42));
        assert_ne!(a, churn_schedule(&g, 3, 400, 43));
        let mut kinds = [0usize; 5];
        for ev in &a {
            ev.validate(&g, 3).unwrap();
            kinds[match ev {
                ControlEvent::FailLink(_) => 0,
                ControlEvent::FailGroup(_) => 1,
                ControlEvent::FailNode(_) => 2,
                ControlEvent::Reweight { .. } => 3,
                ControlEvent::Recover(_) => 4,
            }] += 1;
        }
        assert!(kinds.iter().all(|&c| c > 0), "missing a class: {kinds:?}");
        let recover_share = kinds[4] as f64 / a.len() as f64;
        assert!(
            (0.5..0.7).contains(&recover_share),
            "recoveries {recover_share}"
        );
        let reweighted: std::collections::BTreeSet<(usize, u32)> = a
            .iter()
            .filter_map(|ev| match ev {
                ControlEvent::Reweight { slice, edge, .. } => Some((*slice, edge.0)),
                _ => None,
            })
            .collect();
        assert!(reweighted.len() <= 8, "reweights stay inside the pool");
    }

    #[test]
    fn flood_replays_the_schedule_paced_churn_paces() {
        let paced = find("paced-churn").unwrap();
        let flood = find("flood-churn").unwrap();
        assert_eq!(paced.events(20.0), 5_000);
        assert_eq!(flood.events(20.0), paced.events(20.0));
        assert_eq!(
            (paced.topology, paced.strategy),
            (flood.topology, flood.strategy)
        );
        assert!(find("nope").is_none());
    }
}
