//! Convergence timing: when each router installs its new tables while
//! link-state routing reacts to a failure.
//!
//! §6 of the paper leaves open "the interactions of path splicing with
//! the convergence of the routing protocol, which could affect
//! forwarding-table entries at the same time as path splicing is
//! re-routing traffic". This module models the timeline precisely enough
//! to study that:
//!
//! 1. at `t = 0` a link fails;
//! 2. its two endpoints detect the failure after `detection_delay_ms`
//!    and re-originate their LSAs;
//! 3. the LSAs flood hop-by-hop, each link adding its propagation
//!    latency plus `per_hop_processing_ms`;
//! 4. each router runs SPF `spf_delay_ms` after learning of the failure
//!    and installs its new FIB.
//!
//! Until the last install, the network runs a **mix** of old and new
//! tables — the regime where destination-based routing suffers
//! blackholes *and transient micro-loops* (two routers pointing at each
//! other). `splice-sim`'s `dynamics_exp` walks packets over that mix and
//! classifies every pair.
//!
//! [`flood`] counts what step 3 costs in hop units: the LSA transmissions
//! and flood rounds of reliable flooding, the §4.2 message account.

use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use std::collections::VecDeque;

/// Timing model for one convergence episode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynamicsConfig {
    /// Time for a link's endpoints to detect its failure (carrier loss /
    /// hello timeout), in ms.
    pub detection_delay_ms: f64,
    /// Per-hop LSA processing overhead on top of link propagation, ms.
    pub per_hop_processing_ms: f64,
    /// Delay from learning about the failure to installing the new FIB
    /// (SPF hold-down + computation), ms.
    pub spf_delay_ms: f64,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        // Conventional IGP numbers: ~50 ms detection, ~1 ms per-hop LSA
        // processing, ~100 ms SPF hold.
        DynamicsConfig {
            detection_delay_ms: 50.0,
            per_hop_processing_ms: 1.0,
            spf_delay_ms: 100.0,
        }
    }
}

/// The convergence episode's timeline for one failed link.
#[derive(Clone, Debug)]
pub struct ConvergenceTimeline {
    /// The link that failed at t = 0.
    pub failed: EdgeId,
    /// Per-router time (ms) at which the *new* FIB is installed.
    pub install_at: Vec<f64>,
}

impl ConvergenceTimeline {
    /// When the last router installs — the convergence time.
    pub fn converged_at(&self) -> f64 {
        self.install_at.iter().cloned().fold(0.0, f64::max)
    }

    /// Whether router `r` has installed its new FIB by time `t`.
    pub fn is_updated(&self, r: NodeId, t: f64) -> bool {
        t >= self.install_at[r.index()]
    }

    /// The distinct interesting instants: just after the failure, and
    /// just after each install (sorted, deduplicated).
    pub fn sample_times(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = std::iter::once(0.0)
            .chain(self.install_at.iter().map(|&t| t + 1e-6))
            .collect();
        ts.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        ts.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        ts
    }
}

/// Compute the convergence timeline for failing `e`, with LSA propagation
/// riding the per-edge `latencies` (ms).
pub fn failure_timeline(
    g: &Graph,
    latencies: &[f64],
    e: EdgeId,
    cfg: &DynamicsConfig,
) -> ConvergenceTimeline {
    assert_eq!(latencies.len(), g.edge_count());
    let mask = EdgeMask::from_failed(g.edge_count(), &[e]);

    // LSA arrival: earliest flood time from either endpoint, over the
    // surviving topology, with per-hop cost latency + processing.
    let edge = g.edge(e);
    let delay: Vec<f64> = latencies
        .iter()
        .map(|l| l + cfg.per_hop_processing_ms)
        .collect();
    let from_u = splice_graph::dijkstra_masked(g, edge.u, &delay, &mask);
    let from_v = splice_graph::dijkstra_masked(g, edge.v, &delay, &mask);
    let install_at: Vec<f64> = g
        .nodes()
        .map(|r| {
            let arrival = from_u.distance(r).min(from_v.distance(r));
            if arrival.is_finite() {
                cfg.detection_delay_ms + arrival + cfg.spf_delay_ms
            } else {
                // Partitioned from both endpoints: never learns; keeps the
                // old table (its traffic toward the far side is doomed
                // anyway).
                f64::INFINITY
            }
        })
        .collect();

    ConvergenceTimeline {
        failed: e,
        install_at,
    }
}

/// Cost of flooding one fresh LSA from each of a set of routers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FloodStats {
    /// LSA transmissions (one LSA crossing one link once).
    pub messages: usize,
    /// Rounds until quiescence: the convergence time in hop units.
    pub rounds: usize,
}

/// Flood one fresh LSA from each of the distinct `origins` over the
/// `mask`-up links, all starting in round 0, and count the cost under
/// OSPF-style reliable flooding: the origin sends one copy on every up
/// link; every other router, on first receipt, forwards one copy on
/// every up link except the one it arrived on (split horizon) and drops
/// later duplicates. A copy crosses one link per round, so a router
/// first receives at its hop distance from the origin, and `rounds` is
/// one more than the largest hop distance of a router that sends.
///
/// The count depends on the topology alone, never on link weights.
pub fn flood(g: &Graph, origins: &[NodeId], mask: &EdgeMask) -> FloodStats {
    let mut stats = FloodStats::default();
    let mut hops = vec![usize::MAX; g.node_count()];
    let mut queue = VecDeque::new();
    for &origin in origins {
        hops.fill(usize::MAX);
        hops[origin.index()] = 0;
        queue.push_back(origin);
        while let Some(u) = queue.pop_front() {
            let mut up_links = 0;
            for &(v, e) in g.neighbors(u) {
                if mask.is_up(e) {
                    up_links += 1;
                    if hops[v.index()] == usize::MAX {
                        hops[v.index()] = hops[u.index()] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let sent = up_links - usize::from(u != origin);
            if sent > 0 {
                stats.messages += sent;
                stats.rounds = stats.rounds.max(hops[u.index()] + 1);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_graph::graph::from_edges;

    /// A square with one diagonal: failing an edge leaves alternatives.
    fn square_plus() -> Graph {
        from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (0, 2, 1.4),
            ],
        )
    }

    fn cfg() -> DynamicsConfig {
        DynamicsConfig {
            detection_delay_ms: 50.0,
            per_hop_processing_ms: 1.0,
            spf_delay_ms: 100.0,
        }
    }

    /// A path 0-1-…-(n-1).
    fn line(n: u32) -> Graph {
        let edges: Vec<(u32, u32, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        from_edges(n as usize, &edges)
    }

    /// Every router floods its LSA over the intact topology.
    fn flood_all(g: &Graph) -> FloodStats {
        let origins: Vec<NodeId> = g.nodes().collect();
        flood(g, &origins, &EdgeMask::all_up(g.edge_count()))
    }

    #[test]
    fn flood_counts_follow_the_flooding_rule() {
        use splice_topology::{abilene::abilene, geant::geant, sprint::sprint};
        // Only the origin's component hears it.
        let two_parts = from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let one_part = flood(&two_parts, &[NodeId(0)], &EdgeMask::all_up(3));
        // Failing 0-1 leaves the line 1-2-…-7-0 to flood over.
        let ring8 = splice_topology::generators::ring(8);
        let ring8_down = EdgeMask::from_failed(8, &[EdgeId(0)]);
        let around = flood(&ring8, &[NodeId(0), NodeId(1)], &ring8_down);
        // The paper topologies' counts equal those of a round-based
        // simulation that floods real LSAs into per-router databases.
        let cases = [
            ("abilene", flood_all(&abilene().graph()), 198, 6),
            ("geant", flood_all(&geant().graph()), 1196, 7),
            ("sprint", flood_all(&sprint().graph()), 6084, 7),
            ("two components", one_part, 2, 2),
            ("8-ring, 0-1 down", around, 14, 7),
        ];
        for (case, got, messages, rounds) in cases {
            assert_eq!(got, FloodStats { messages, rounds }, "{case}");
        }
    }

    #[test]
    fn flood_reaches_every_router_of_a_line() {
        // The farthest LSA travels 4 hops.
        assert_eq!(
            flood_all(&line(5)),
            FloodStats {
                messages: 20,
                rounds: 4
            }
        );
    }

    #[test]
    fn flood_messages_bounded_by_origins_times_directed_edges() {
        // Each LSA crosses each link at most once per direction.
        let g = line(6);
        let messages = flood_all(&g).messages;
        assert!(
            messages <= g.node_count() * 2 * g.edge_count(),
            "{messages}"
        );
    }

    #[test]
    fn endpoints_install_first() {
        let g = square_plus();
        let lat = g.base_weights();
        let tl = failure_timeline(&g, &lat, EdgeId(0), &cfg());
        let edge = g.edge(EdgeId(0));
        let endpoint_min = tl.install_at[edge.u.index()].min(tl.install_at[edge.v.index()]);
        for r in g.nodes() {
            assert!(tl.install_at[r.index()] >= endpoint_min - 1e-9);
        }
        // Endpoints: detection + spf only (no propagation).
        assert!((endpoint_min - 150.0).abs() < 1e-9);
        assert!(tl.converged_at() >= endpoint_min);
    }

    #[test]
    fn partitioned_routers_never_install() {
        // A path 0-1: failing it partitions both sides; each endpoint
        // still detects locally but the *other* side's non-endpoint
        // routers (none here) would stay stale. With 3 nodes 0-1-2,
        // failing 0-1 leaves 0 unreachable from 1,2's LSAs only via the
        // dead link — but 0 is itself an endpoint, so it detects.
        let g = from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let lat = vec![1.0; 2];
        let tl = failure_timeline(&g, &lat, EdgeId(0), &cfg());
        assert!(tl.install_at.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn sample_times_sorted_unique() {
        let g = square_plus();
        let lat = g.base_weights();
        let tl = failure_timeline(&g, &lat, EdgeId(1), &cfg());
        let ts = tl.sample_times();
        for w in ts.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(ts[0], 0.0);
    }
}
