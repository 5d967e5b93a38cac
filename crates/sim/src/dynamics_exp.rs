//! Splicing during protocol convergence (§6's open question, answered
//! by measurement).
//!
//! While link-state routing reconverges after a failure, routers run a
//! mix of old and new tables: destination-based forwarding suffers
//! blackholes and transient micro-loops ([`splice_routing::dynamics`]).
//! Path splicing changes the picture: a router whose next hop is dead
//! deflects into an alternate slice *whose stale tables are still
//! perfectly usable* — no reconvergence required. This experiment walks
//! every pair over the mixed-table network, with and without splicing
//! deflection, and integrates pair-downtime over the episode.

use splice_core::slices::{RepairEvent, Splicing, SplicingConfig};
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use splice_routing::dynamics::{failure_timeline, DynamicsConfig, TransientCensus};
use std::collections::HashSet;

/// Per-slice mixed-table state for one convergence episode: every slice
/// reconverges on the same timeline (routers batch their SPF runs).
pub struct SplicedTimeline {
    /// Shared install times and the failed link (from slice 0's view).
    pub base: splice_routing::dynamics::ConvergenceTimeline,
    /// The pre-failure deployment.
    pub splicing: Splicing,
    /// The deployment every router ends on.
    pub repaired: Splicing,
}

impl SplicedTimeline {
    /// Next hop of `r` toward `dst` in `slice` at time `t`.
    fn next_hop_at(
        &self,
        slice: usize,
        r: NodeId,
        dst: NodeId,
        t: f64,
    ) -> Option<(NodeId, EdgeId)> {
        let deployment = if self.base.is_updated(r, t) {
            &self.repaired
        } else {
            &self.splicing
        };
        deployment.next_hop(slice, r, dst)
    }
}

/// Build the spliced convergence state for failing `e`.
pub fn spliced_timeline(
    g: &Graph,
    latencies: &[f64],
    splicing: &Splicing,
    e: EdgeId,
    cfg: &DynamicsConfig,
) -> SplicedTimeline {
    let base = failure_timeline(g, latencies, splicing.weights(0), e, cfg);
    // The post-convergence tables come from delta-SPF repair, not k·n
    // fresh Dijkstras — the repaired arena is next-hop-identical to a
    // from-scratch rebuild on the failed topology, so the sweep's numbers
    // are unchanged while each episode only pays for the failed link's
    // dirty subtrees.
    SplicedTimeline {
        base,
        splicing: splicing.clone(),
        repaired: splicing.repair(g, &RepairEvent::LinkFailure(e)),
    }
}

/// Walk every pair at time `t` with splicing deflection over the mixed
/// tables: a dead next hop triggers a switch to the first alternate
/// slice with a live next hop (network-based recovery on stale state).
pub fn transient_outcomes_with_splicing(
    g: &Graph,
    tl: &SplicedTimeline,
    t: f64,
) -> TransientCensus {
    let mask = EdgeMask::from_failed(g.edge_count(), &[tl.base.failed]);
    let k = tl.splicing.k();
    let mut census = TransientCensus::default();
    for dst in g.nodes() {
        for src in g.nodes() {
            if src == dst {
                continue;
            }
            let mut at = src;
            let mut slice = 0usize;
            let mut seen: HashSet<(NodeId, usize)> = HashSet::new();
            let fate = loop {
                if at == dst {
                    break Fate::Delivered;
                }
                if !seen.insert((at, slice)) {
                    break Fate::MicroLoop;
                }
                let usable = |s: usize| {
                    tl.next_hop_at(s, at, dst, t)
                        .filter(|&(_, e)| mask.is_up(e))
                };
                let step = usable(slice).map(|h| (slice, h)).or_else(|| {
                    (0..k)
                        .filter(|&s| s != slice)
                        .find_map(|s| usable(s).map(|h| (s, h)))
                });
                match step {
                    Some((s, (next, _))) => {
                        slice = s;
                        at = next;
                    }
                    None => {
                        break if tl.next_hop_at(slice, at, dst, t).is_some() {
                            Fate::Blackholed
                        } else {
                            Fate::NoRoute
                        }
                    }
                }
            };
            match fate {
                Fate::Delivered => census.delivered += 1,
                Fate::Blackholed => census.blackholed += 1,
                Fate::MicroLoop => census.microlooped += 1,
                Fate::NoRoute => census.no_route += 1,
            }
        }
    }
    census
}

enum Fate {
    Delivered,
    Blackholed,
    MicroLoop,
    NoRoute,
}

/// Downtime integral (pair·ms) over the episode, with splicing deflection.
pub fn downtime_pair_ms_with_splicing(g: &Graph, tl: &SplicedTimeline) -> f64 {
    let times = tl.base.sample_times();
    let mut total = 0.0;
    for w in times.windows(2) {
        let census = transient_outcomes_with_splicing(g, tl, w[0]);
        let down = census.blackholed + census.microlooped;
        total += down as f64 * (w[1] - w[0]);
    }
    total
}

/// Compare plain vs spliced transient downtime for every single-link
/// failure; returns `(plain, spliced)` pair·ms per link.
pub fn downtime_sweep(
    g: &Graph,
    latencies: &[f64],
    splicing_cfg: &SplicingConfig,
    cfg: &DynamicsConfig,
    seed: u64,
) -> Vec<(EdgeId, f64, f64)> {
    let splicing = Splicing::build(g, splicing_cfg, seed);
    g.edge_ids()
        .map(|e| {
            let plain_tl = failure_timeline(g, latencies, splicing.weights(0), e, cfg);
            let plain = splice_routing::dynamics::downtime_pair_ms(g, &plain_tl);
            let spliced_tl = spliced_timeline(g, latencies, &splicing, e, cfg);
            let spliced = downtime_pair_ms_with_splicing(g, &spliced_tl);
            (e, plain, spliced)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::abilene::abilene;

    fn dyncfg() -> DynamicsConfig {
        DynamicsConfig::default()
    }

    #[test]
    fn splicing_reduces_transient_downtime() {
        let topo = abilene();
        let g = topo.graph();
        let sweep = downtime_sweep(
            &g,
            &topo.latencies(),
            &SplicingConfig::degree_based(5, 0.0, 3.0),
            &dyncfg(),
            3,
        );
        assert_eq!(sweep.len(), g.edge_count());
        let plain: f64 = sweep.iter().map(|&(_, p, _)| p).sum();
        let spliced: f64 = sweep.iter().map(|&(_, _, s)| s).sum();
        assert!(plain > 0.0);
        assert!(
            spliced < plain,
            "splicing must cut transient downtime: {spliced} vs {plain}"
        );
    }

    #[test]
    fn k1_splicing_changes_nothing() {
        let topo = abilene();
        let g = topo.graph();
        let sweep = downtime_sweep(
            &g,
            &topo.latencies(),
            &SplicingConfig::degree_based(1, 0.0, 3.0),
            &dyncfg(),
            3,
        );
        for (e, plain, spliced) in sweep {
            assert!(
                (plain - spliced).abs() < 1e-9,
                "{e:?}: k=1 deflection should be a no-op ({plain} vs {spliced})"
            );
        }
    }

    #[test]
    fn after_convergence_spliced_census_is_clean() {
        let topo = abilene();
        let g = topo.graph();
        let splicing = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 1);
        let e = EdgeId(0);
        let tl = spliced_timeline(&g, &topo.latencies(), &splicing, e, &dyncfg());
        let census = transient_outcomes_with_splicing(&g, &tl, tl.base.converged_at() + 1.0);
        let n = g.node_count();
        assert_eq!(census.delivered, n * (n - 1), "{census:?}");
    }
}
