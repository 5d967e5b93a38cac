//! Convergence dynamics: what the network looks like *while* link-state
//! routing reacts to a failure.
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
//! other). [`transient_outcomes`] walks packets over the mixed state and
//! classifies every pair; the splicing experiments in `splice-sim` build
//! on it.

use crate::arena::SpliceFib;
use splice_graph::dijkstra::SpfWorkspace;
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use std::collections::HashSet;

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
    /// The pre-failure tables (one plane).
    pub old_fib: SpliceFib,
    /// The post-failure tables (one plane).
    pub new_fib: SpliceFib,
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

    /// The next hop router `r` uses toward `dst` at time `t` (old or new
    /// table depending on its install time).
    pub fn next_hop_at(&self, r: NodeId, dst: NodeId, t: f64) -> Option<(NodeId, EdgeId)> {
        let fib = if self.is_updated(r, t) {
            &self.new_fib
        } else {
            &self.old_fib
        };
        fib.lookup(0, r, dst)
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
    weights: &[f64],
    e: EdgeId,
    cfg: &DynamicsConfig,
) -> ConvergenceTimeline {
    assert_eq!(latencies.len(), g.edge_count());
    let mut ws = SpfWorkspace::new();
    let mut old_fib = SpliceFib::empty(1, g.node_count());
    old_fib.fill_slice(g, weights, 0, &mut ws);
    let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
    // Post-failure tables: SPF with the failed link removed.
    let mut new_fib = SpliceFib::empty(1, g.node_count());
    new_fib.fill_slice_masked(g, weights, 0, &mask, &mut ws);

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
        old_fib,
        new_fib,
    }
}

/// How a pair fares when walked over the mixed old/new tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransientFate {
    /// Reached the destination.
    Delivered,
    /// Hit the failed link while its owner still runs the old table.
    Blackholed,
    /// Entered a forwarding loop between differently-updated routers.
    MicroLoop,
    /// No route (disconnected by the failure).
    NoRoute,
}

/// Classification of all ordered pairs at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransientCensus {
    /// Pairs delivered.
    pub delivered: usize,
    /// Pairs blackholed at the failed link.
    pub blackholed: usize,
    /// Pairs caught in a transient micro-loop.
    pub microlooped: usize,
    /// Pairs with no route at all.
    pub no_route: usize,
}

/// Walk every ordered pair over the mixed tables at time `t`.
pub fn transient_outcomes(g: &Graph, timeline: &ConvergenceTimeline, t: f64) -> TransientCensus {
    let mask = EdgeMask::from_failed(g.edge_count(), &[timeline.failed]);
    let mut census = TransientCensus::default();
    for dst in g.nodes() {
        for src in g.nodes() {
            if src == dst {
                continue;
            }
            match walk_pair(g, timeline, &mask, src, dst, t) {
                TransientFate::Delivered => census.delivered += 1,
                TransientFate::Blackholed => census.blackholed += 1,
                TransientFate::MicroLoop => census.microlooped += 1,
                TransientFate::NoRoute => census.no_route += 1,
            }
        }
    }
    census
}

fn walk_pair(
    g: &Graph,
    timeline: &ConvergenceTimeline,
    mask: &EdgeMask,
    src: NodeId,
    dst: NodeId,
    t: f64,
) -> TransientFate {
    let mut at = src;
    let mut visited: HashSet<NodeId> = HashSet::new();
    loop {
        if at == dst {
            return TransientFate::Delivered;
        }
        if !visited.insert(at) {
            // The mixed-table walk is deterministic, so a revisit is a
            // genuine transient loop.
            return TransientFate::MicroLoop;
        }
        let Some((next, e)) = timeline.next_hop_at(at, dst, t) else {
            return TransientFate::NoRoute;
        };
        if mask.is_failed(e) {
            return TransientFate::Blackholed;
        }
        at = next;
        if visited.len() > g.node_count() {
            return TransientFate::MicroLoop;
        }
    }
}

/// Integrate pair-downtime over the whole episode: for each interval
/// between interesting instants, non-delivered pairs × interval length
/// (pair·ms). The number splicing is trying to drive to zero.
pub fn downtime_pair_ms(g: &Graph, timeline: &ConvergenceTimeline) -> f64 {
    let times = timeline.sample_times();
    let horizon = timeline
        .converged_at()
        .max(times.last().copied().unwrap_or(0.0));
    let mut total = 0.0;
    for w in times.windows(2) {
        let census = transient_outcomes(g, timeline, w[0]);
        let down = census.blackholed + census.microlooped;
        total += down as f64 * (w[1] - w[0]);
    }
    // After the final event the network is converged; only truly
    // disconnected pairs remain down, and they are not transient.
    let _ = horizon;
    total
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

    #[test]
    fn endpoints_install_first() {
        let g = square_plus();
        let lat = g.base_weights();
        let tl = failure_timeline(&g, &lat, &g.base_weights(), EdgeId(0), &cfg());
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
    fn before_detection_everything_blackholes_through_failed_link() {
        let g = square_plus();
        let lat = g.base_weights();
        let tl = failure_timeline(&g, &lat, &g.base_weights(), EdgeId(0), &cfg());
        let census = transient_outcomes(&g, &tl, 0.0);
        // Pairs whose old shortest path crossed 0-1 are blackholed.
        assert!(census.blackholed > 0);
        assert_eq!(census.no_route, 0);
        assert_eq!(
            census.delivered + census.blackholed + census.microlooped,
            12
        );
    }

    #[test]
    fn after_convergence_everything_delivers() {
        let g = square_plus();
        let lat = g.base_weights();
        let tl = failure_timeline(&g, &lat, &g.base_weights(), EdgeId(0), &cfg());
        let census = transient_outcomes(&g, &tl, tl.converged_at() + 1.0);
        assert_eq!(census.delivered, 12, "{census:?}");
    }

    #[test]
    fn microloops_can_appear_mid_convergence() {
        // Classic micro-loop shape: a line 0-1-2-3 plus a long detour from
        // 0 to 3. Fail 2-3: node 2 updates early and routes toward 3 via
        // 1 (long way), but 1 still routes to 3 via 2 -> 1<->2 loop while
        // 1 runs the old table.
        let g = from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)]);
        let lat = vec![1.0; 4];
        // Make node 2 install long before node 1 by using a config where
        // propagation dominates... both endpoints of 2-3 are 2 and 3;
        // node 2 is an endpoint (installs at detection+spf), node 1 one
        // hop later. A window exists where 2 is new and 1 is old.
        let tl = failure_timeline(&g, &lat, &g.base_weights(), EdgeId(2), &cfg());
        assert!(tl.install_at[2] < tl.install_at[1]);
        let mid = (tl.install_at[2] + tl.install_at[1]) / 2.0;
        let census = transient_outcomes(&g, &tl, mid);
        assert!(
            census.microlooped > 0,
            "expected a 1<->2 micro-loop at t={mid}: {census:?}"
        );
    }

    #[test]
    fn downtime_integral_positive_and_finite() {
        let g = square_plus();
        let lat = g.base_weights();
        let tl = failure_timeline(&g, &lat, &g.base_weights(), EdgeId(0), &cfg());
        let d = downtime_pair_ms(&g, &tl);
        assert!(d > 0.0, "failure must cost some pair-downtime");
        assert!(d.is_finite());
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
        let tl = failure_timeline(&g, &lat, &g.base_weights(), EdgeId(0), &cfg());
        assert!(tl.install_at.iter().all(|t| t.is_finite()));
        // Post-convergence, 0<->1 and 0<->2 have no route.
        let census = transient_outcomes(&g, &tl, tl.converged_at() + 1.0);
        assert_eq!(census.no_route, 4);
    }

    #[test]
    fn sample_times_sorted_unique() {
        let g = square_plus();
        let lat = g.base_weights();
        let tl = failure_timeline(&g, &lat, &g.base_weights(), EdgeId(1), &cfg());
        let ts = tl.sample_times();
        for w in ts.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(ts[0], 0.0);
    }
}
