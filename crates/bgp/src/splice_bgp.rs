//! Spliced BGP: forwarding over the k installed interdomain routes.
//!
//! With k routes per destination in k FIBs, the splicing bits choose which
//! route's next hop each AS uses — giving end systems access to multiple
//! interdomain paths with no BGP protocol changes and no router-to-router
//! coordination (the contrast the paper draws with MIRO).
//!
//! The experiment here is the AS-level analogue of Figure 3: fail
//! inter-AS links, and measure which ASes can still deliver to the
//! destination using *already installed* routes (i.e. before BGP
//! reconverges), as k grows.

use crate::asgraph::{AsGraph, AsId};
use crate::bgp_sim::BgpSim;
use splice_graph::Rng;
use std::collections::VecDeque;

/// A set of failed inter-AS links (by link id).
#[derive(Clone, Debug, Default)]
pub struct AsLinkFailures {
    failed: Vec<bool>,
}

impl AsLinkFailures {
    /// No failures over `m` links.
    pub fn none(m: usize) -> AsLinkFailures {
        AsLinkFailures {
            failed: vec![false; m],
        }
    }

    /// Fail each link independently with probability `p`.
    pub fn sample(g: &AsGraph, p: f64, rng: &mut Rng) -> AsLinkFailures {
        AsLinkFailures {
            failed: (0..g.link_count())
                .map(|_| rng.gen_bool(p.clamp(0.0, 1.0)))
                .collect(),
        }
    }

    /// Whether link `i` is failed.
    pub fn is_failed(&self, i: usize) -> bool {
        self.failed[i]
    }
}

/// Which ASes can still reach the destination by hopping along installed
/// routes (any of the k, switchable at every AS), avoiding failed links.
///
/// Reverse reachability over the "spliced" successor structure — the AS
/// level twin of `Splicing::reachable_to`.
pub fn spliced_reachability(
    g: &AsGraph,
    sim: &BgpSim,
    k: usize,
    failures: &AsLinkFailures,
) -> Vec<bool> {
    let n = g.as_count();
    // succ[a] = next-hop ASes over up links, using the first k routes.
    let mut rev: Vec<Vec<AsId>> = vec![Vec::new(); n];
    for a in g.ases() {
        if a == sim.dest {
            continue;
        }
        for r in sim.ribs[a.index()].iter().take(k) {
            let (Some(nh), Some(link)) = (r.next_hop(), r.via) else {
                continue;
            };
            if !failures.is_failed(link.index()) {
                rev[nh.index()].push(a);
            }
        }
    }
    let mut reach = vec![false; n];
    let mut q = VecDeque::new();
    reach[sim.dest.index()] = true;
    q.push_back(sim.dest);
    while let Some(v) = q.pop_front() {
        for &u in &rev[v.index()] {
            if !reach[u.index()] {
                reach[u.index()] = true;
                q.push_back(u);
            }
        }
    }
    reach
}

/// One point of the AS-level reliability curve.
#[derive(Clone, Debug, PartialEq)]
pub struct BgpReliabilityPoint {
    /// Link-failure probability.
    pub p: f64,
    /// Slice count (routes installed per destination).
    pub k: usize,
    /// Mean fraction of ASes cut off from the destination.
    pub disconnected: f64,
}

/// Sweep `ps × ks` for destination `dest`, with common random failures
/// across `k` (same methodology as the intradomain Figure 3).
pub fn bgp_reliability(
    g: &AsGraph,
    dest: AsId,
    ks: &[usize],
    ps: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<BgpReliabilityPoint> {
    let kmax = ks.iter().copied().max().expect("at least one k");
    let sim = BgpSim::converge(g, dest, kmax);
    let n = g.as_count();
    let mut out = Vec::new();
    for &p in ps {
        let mut sums = vec![0.0; ks.len()];
        for trial in 0..trials {
            let mut rng = Rng::seed_from_u64(
                seed ^ (trial as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ p.to_bits(),
            );
            let failures = AsLinkFailures::sample(g, p, &mut rng);
            for (ki, &k) in ks.iter().enumerate() {
                let reach = spliced_reachability(g, &sim, k, &failures);
                let cut = (0..n).filter(|&i| !reach[i]).count();
                sums[ki] += (cut as f64) / (n - 1) as f64;
            }
        }
        for (ki, &k) in ks.iter().enumerate() {
            out.push(BgpReliabilityPoint {
                p,
                k,
                disconnected: sums[ki] / trials as f64,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_failures_full_reachability() {
        let g = AsGraph::internet_like(3, 5, 10, 2);
        let sim = BgpSim::converge(&g, AsId(0), 2);
        let reach = spliced_reachability(&g, &sim, 2, &AsLinkFailures::none(g.link_count()));
        assert!(reach.iter().all(|&r| r));
    }

    /// Mean fraction of ASes cut off at `p` for each k in `ks`, averaged
    /// over `dests`. Every destination sees trial i's failure set, so
    /// trial i's average over them is one sample in [0, 1].
    fn disconnection_by_k(
        g: &AsGraph,
        dests: &[AsId],
        ks: &[usize],
        p: f64,
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut by_k = vec![0.0; ks.len()];
        for &d in dests {
            let points = bgp_reliability(g, d, ks, &[p], trials, seed);
            for (acc, pt) in by_k.iter_mut().zip(points) {
                *acc += pt.disconnected / dests.len() as f64;
            }
        }
        by_k
    }

    /// Relative entropy KL(p ‖ q) between Bernoulli(p) and Bernoulli(q).
    fn kl(p: f64, q: f64) -> f64 {
        let term = |a: f64, b: f64| if a == 0.0 { 0.0 } else { a * (a / b).ln() };
        term(p, q) + term(1.0 - p, 1.0 - q)
    }

    /// A confidence bound, at level 1 − `delta`, on the true mean of `n`
    /// independent samples in [0, 1] whose sample mean is `mean`: the q
    /// above `mean` (below, if `!upper`) where n·KL(mean ‖ q) reaches
    /// ln(1/δ). Hoeffding's relative-entropy bound (1963, Theorem 1)
    /// puts the true mean past it with probability at most `delta`.
    fn kl_bound(mean: f64, n: usize, delta: f64, upper: bool) -> f64 {
        let budget = (1.0 / delta).ln() / n as f64;
        let (mut inside, mut outside) = (mean, if upper { 1.0 } else { 0.0 });
        for _ in 0..60 {
            let mid = (inside + outside) / 2.0;
            if kl(mean, mid) > budget {
                outside = mid;
            } else {
                inside = mid;
            }
        }
        outside
    }

    /// Trials per destination for the claim below: enough that both
    /// bounds at δ = 1e-3 sit well inside a 5× gap.
    const CLAIM_TRIALS: usize = 5000;

    /// More installed routes never disconnect more ASes (k + 1 routes
    /// keep the first k), on a small hierarchy and on the `bgp_splicing`
    /// row's own graph and destinations at the lab's default seed.
    ///
    /// On the row's graph this also checks §5's interdomain claim: at
    /// p = 0.10, two routes cut AS-level disconnection to at most 1/5 of
    /// one route's. Band: an upper confidence bound on k = 2's mean and a
    /// lower one on k = 1's, each by [`kl_bound`] at δ/2 with δ = 1e-3;
    /// the claim passes only if the first is at most a fifth of the
    /// second, so where the claim is false this passes with probability
    /// at most δ.
    #[test]
    fn more_routes_help_under_failures() {
        let small = AsGraph::internet_like(3, 6, 15, 5);
        let row = AsGraph::internet_like(4, 12, 40, 20080817);
        let row_dests = [AsId(0), AsId(6), AsId(30), AsId(50)];
        let monotone_by_k = |g: &AsGraph, dests: &[AsId], p: f64, trials: usize, seed: u64| {
            let by_k = disconnection_by_k(g, dests, &[1, 2, 3], p, trials, seed);
            assert!(by_k[1] <= by_k[0] + 1e-12, "k=2 worse at p={p}");
            assert!(by_k[2] <= by_k[1] + 1e-12, "k=3 worse at p={p}");
            by_k
        };
        for p in [0.05, 0.1] {
            monotone_by_k(&small, &[AsId(3)], p, 60, 11);
        }
        let by_k = monotone_by_k(&row, &row_dests, 0.1, CLAIM_TRIALS, 20080817);

        let delta = 1e-3;
        let one_route = kl_bound(by_k[0], CLAIM_TRIALS, delta / 2.0, false);
        let two_routes = kl_bound(by_k[1], CLAIM_TRIALS, delta / 2.0, true);
        assert!(
            two_routes <= one_route / 5.0,
            "k=2 disconnection {:.4} (upper bound {two_routes:.4}) is not within 1/5 of \
             k=1's {:.4} (lower bound {one_route:.4})",
            by_k[1],
            by_k[0]
        );
    }

    #[test]
    fn failed_link_cuts_single_homed_stub() {
        // Stub 2 buys only from 1; fail that link: stub cut off.
        let mut g = AsGraph::new(3);
        g.add_transit(AsId(1), AsId(0));
        let l = g.add_transit(AsId(2), AsId(1));
        let sim = BgpSim::converge(&g, AsId(0), 2);
        let mut failures = AsLinkFailures::none(g.link_count());
        failures.failed[l.index()] = true;
        let reach = spliced_reachability(&g, &sim, 2, &failures);
        assert!(reach[1.min(reach.len() - 1)]);
        assert!(!reach[2]);
    }

    #[test]
    fn deterministic() {
        let g = AsGraph::internet_like(2, 4, 8, 3);
        let a = bgp_reliability(&g, AsId(1), &[1, 2], &[0.08], 30, 9);
        let b = bgp_reliability(&g, AsId(1), &[1, 2], &[0.08], 30, 9);
        assert_eq!(a, b);
    }
}
