//! The convergence-window experiment (§6).
//!
//! The paper closes with: "path splicing may provide enough reliability
//! from link and node failures to permit dynamic routing to react much
//! more slowly to failures, and, in some settings, may even eliminate
//! the need for dynamic routing altogether." This experiment quantifies
//! that: when a link fails, link-state routing is blind until detection,
//! flooding and SPF complete; during that window every pair whose path
//! crossed the link is blacked out — unless splicing's *already
//! installed* alternate slices carry the traffic.
//!
//! For each single-link failure we count how long the window is — the
//! flood rounds for both endpoints' LSAs to cross the surviving links
//! ([`splice_routing::dynamics::flood`]) — and which pairs splicing
//! rescues inside it.

use splice_core::prelude::*;
use splice_core::slices::SplicingConfig;
use splice_graph::{EdgeId, EdgeMask, Graph};
use splice_routing::dynamics::flood;

/// Outcome for one failed link.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowResult {
    /// The failed link.
    pub failed: EdgeId,
    /// Flood rounds for the failure LSAs to reach every router (the
    /// convergence window, in hop-time units).
    pub flood_rounds: usize,
    /// LSA transmissions caused by the failure re-origination.
    pub flood_messages: usize,
    /// Ordered pairs whose slice-0 path used the link (blacked out
    /// without splicing).
    pub affected_pairs: usize,
    /// Affected pairs that network-based deflection keeps connected
    /// during the window (no reconvergence needed).
    pub rescued_pairs: usize,
    /// Destination columns (across all k slice planes) the incremental
    /// repair at the end of the window actually rewrote — the data-plane
    /// reconvergence cost, vs `k·n` columns for a full rebuild.
    pub repair_patched_columns: usize,
    /// Nodes re-relaxed by the repair across all planes (its frontier).
    pub repair_frontier_nodes: usize,
}

impl WindowResult {
    /// Fraction of affected pairs that ride out the window on splicing.
    pub fn rescue_rate(&self) -> f64 {
        if self.affected_pairs == 0 {
            1.0
        } else {
            self.rescued_pairs as f64 / self.affected_pairs as f64
        }
    }
}

/// Sweep every single-link failure.
pub fn convergence_window_sweep(
    g: &Graph,
    splicing_cfg: &SplicingConfig,
    seed: u64,
) -> Vec<WindowResult> {
    let splicing = Splicing::build(g, splicing_cfg, seed);
    let nr = NetworkRecovery::default();

    g.edge_ids()
        .map(|e| {
            let mask = EdgeMask::from_failed(g.edge_count(), &[e]);

            // The control-plane cost of reacting: both endpoints
            // re-originate; measure flooding on the surviving topology.
            let edge = g.edge(e);
            let stats = flood(g, &[edge.u, edge.v], &mask);

            // Data-plane impact during the window.
            let mut affected = 0usize;
            let mut rescued = 0usize;
            let plane0 = splicing.arena().plane(0);
            for t in g.nodes() {
                for s in g.nodes() {
                    // Does the slice-0 path use the failed link?
                    if s == t || !plane0.path(s, t).any(|(_, pe)| pe == e) {
                        continue;
                    }
                    affected += 1;
                    let out = nr.forward(&splicing, &mask, s, t, 0);
                    if out.is_delivered() {
                        rescued += 1;
                    }
                }
            }
            // What reconvergence costs once the window closes: repair the
            // deployment's FIB incrementally and account for what it
            // touched (next-hop-identical to a full rebuild).
            let (_, repair) = splicing
                .try_repair_batch_recycling(g, &[RepairEvent::LinkFailure(e)], None, None)
                .expect("link failures carry no weights to reject");

            WindowResult {
                failed: e,
                flood_rounds: stats.rounds,
                flood_messages: stats.messages,
                affected_pairs: affected,
                rescued_pairs: rescued,
                repair_patched_columns: repair.patched_columns,
                repair_frontier_nodes: repair.frontier_nodes,
            }
        })
        .collect()
}

/// Aggregate over a sweep: mean rescue rate, worst window, totals.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSummary {
    /// Mean rescue rate over links that affected at least one pair.
    pub mean_rescue_rate: f64,
    /// Largest flood window observed (rounds).
    pub worst_window_rounds: usize,
    /// Total affected ordered pairs across all failures.
    pub total_affected: usize,
    /// Total rescued.
    pub total_rescued: usize,
}

/// Summarize a sweep.
pub fn summarize(results: &[WindowResult]) -> WindowSummary {
    let with_impact: Vec<&WindowResult> = results.iter().filter(|r| r.affected_pairs > 0).collect();
    let mean_rescue_rate = if with_impact.is_empty() {
        1.0
    } else {
        with_impact.iter().map(|r| r.rescue_rate()).sum::<f64>() / with_impact.len() as f64
    };
    WindowSummary {
        mean_rescue_rate,
        worst_window_rounds: results.iter().map(|r| r.flood_rounds).max().unwrap_or(0),
        total_affected: results.iter().map(|r| r.affected_pairs).sum(),
        total_rescued: results.iter().map(|r| r.rescued_pairs).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::abilene::abilene;

    #[test]
    fn sweep_covers_all_links_and_rescues_most_pairs() {
        let g = abilene().graph();
        let cfg = SplicingConfig::degree_based(5, 0.0, 3.0);
        let results = convergence_window_sweep(&g, &cfg, 3);
        assert_eq!(results.len(), g.edge_count());
        let summary = summarize(&results);
        assert!(summary.total_affected > 0, "some pairs must use each link");
        // Abilene's sparse degree-2 corridors limit what deflection can
        // rescue, and the exact rate wobbles with the RNG stream behind
        // the seeded perturbations, so we pin a floor loose enough to be
        // seed-robust rather than the rate one stream happens to produce
        // (Sprint-scale meshes rescue far more — see the bench binary).
        assert!(
            summary.mean_rescue_rate > 0.15,
            "splicing should rescue a meaningful share: {}",
            summary.mean_rescue_rate
        );
        assert!(summary.total_rescued <= summary.total_affected);
        assert!(summary.worst_window_rounds >= 1);
        let k_n_columns = 5 * g.node_count();
        for r in &results {
            assert!(
                r.repair_patched_columns > 0 && r.repair_patched_columns <= k_n_columns,
                "{:?}: repair must touch some columns, never more than k·n",
                r.failed
            );
            assert!(r.repair_frontier_nodes > 0);
        }
    }

    #[test]
    fn k1_rescues_nothing() {
        let g = abilene().graph();
        let cfg = SplicingConfig::degree_based(1, 0.0, 3.0);
        let results = convergence_window_sweep(&g, &cfg, 3);
        for r in &results {
            assert_eq!(r.rescued_pairs, 0, "one slice has no alternates");
        }
    }

    #[test]
    fn rescue_rate_edge_cases() {
        let r = WindowResult {
            failed: EdgeId(0),
            flood_rounds: 2,
            flood_messages: 10,
            affected_pairs: 0,
            rescued_pairs: 0,
            repair_patched_columns: 0,
            repair_frontier_nodes: 0,
        };
        assert_eq!(r.rescue_rate(), 1.0);
    }

    #[test]
    fn failure_lsas_flood_around_the_failed_link() {
        // Failing link 0-1 turns the 8-ring into the line 1-2-…-7-0: each
        // endpoint's LSA reaches the other after 7 hops, where over the
        // intact ring it would take 4.
        let g = splice_topology::generators::ring(8);
        let cfg = SplicingConfig::degree_based(2, 0.0, 3.0);
        let results = convergence_window_sweep(&g, &cfg, 1);
        assert_eq!(results[0].failed, EdgeId(0));
        assert_eq!(results[0].flood_rounds, 7);
    }

    #[test]
    fn deterministic() {
        let g = abilene().graph();
        let cfg = SplicingConfig::degree_based(3, 0.0, 3.0);
        assert_eq!(
            convergence_window_sweep(&g, &cfg, 5),
            convergence_window_sweep(&g, &cfg, 5)
        );
    }
}
