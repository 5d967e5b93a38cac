//! §4.2's cost/benefit account: control-plane cost grows linearly in `k`
//! while the set of reachable paths grows far faster.
//!
//! Costs are *counted* on the topology and the deployment, not estimated:
//! LSA transmissions under reliable flooding
//! ([`splice_routing::dynamics::flood`]), the LSAs one router stores, and
//! the FIB entries the deployment's arena installs. Diversity is measured
//! two ways:
//!
//! * distinct end-to-end paths discovered by sampling random headers —
//!   the end-system's-eye view of "how many paths can I reach with the
//!   bits?";
//! * arc-disjoint connectivity of the per-destination successor graph —
//!   the Theorem A.1 quantity.

use crate::parallel::run_trials;
use splice_core::prelude::*;
use splice_core::slices::SplicingConfig;
use splice_graph::maxflow::succ_connectivity;
use splice_graph::traversal::reachable_from;
use splice_graph::{EdgeMask, Graph, NodeId, Rng};
use splice_routing::dynamics::flood;

/// Measurements for one `k`.
#[derive(Clone, Debug, PartialEq)]
pub struct DiversityPoint {
    /// Slice count.
    pub k: usize,
    /// LSA transmissions to converge all k instances from scratch: every
    /// router floods one LSA per instance.
    pub messages: usize,
    /// Total installed FIB entries network-wide.
    pub fib_entries: usize,
    /// LSDB entries at router 0: one LSA per router of its component,
    /// per instance.
    pub lsdb_entries: usize,
    /// Mean distinct paths per pair discovered by header sampling.
    pub distinct_paths: f64,
    /// Mean arc-disjoint path count in the successor graph per pair.
    pub succ_connectivity: f64,
}

/// Sweep `ks`, counting control-plane cost and measuring diversity by
/// sampling `header_samples` random headers per ordered pair (over a
/// deterministic subset of `pair_samples` pairs to keep runtime bounded).
///
/// Each instance floods and stores the same LSAs whatever its weights,
/// so the message and LSDB counts are one instance's times `k`; the FIB
/// count is read off the first `k` planes of the deployment's arena.
pub fn state_vs_diversity(
    g: &Graph,
    template: &SplicingConfig,
    ks: &[usize],
    header_samples: usize,
    pair_samples: usize,
    seed: u64,
) -> Vec<DiversityPoint> {
    let kmax = ks.iter().copied().max().expect("at least one k");
    let mut scfg = template.clone();
    scfg.k = kmax;
    let splicing = Splicing::build(g, &scfg, seed);
    let mask = EdgeMask::all_up(g.edge_count());
    let n = g.node_count();
    let all_routers: Vec<NodeId> = g.nodes().collect();
    let messages_per_instance = flood(g, &all_routers, &mask).messages;
    let lsdb_per_instance = reachable_from(g, NodeId(0), &mask)
        .iter()
        .filter(|&&seen| seen)
        .count();

    // Deterministic pair subset: stride over the ordered-pair space.
    let all_pairs: Vec<(NodeId, NodeId)> = (0..n as u32)
        .flat_map(|s| {
            (0..n as u32)
                .filter(move |&t| t != s)
                .map(move |t| (NodeId(s), NodeId(t)))
        })
        .collect();
    let stride = (all_pairs.len() / pair_samples.max(1)).max(1);
    let pairs: Vec<(NodeId, NodeId)> = all_pairs
        .into_iter()
        .step_by(stride)
        .take(pair_samples)
        .collect();

    ks.iter()
        .map(|&k| {
            let prefix = splicing.prefix(k);

            // Diversity by header sampling (parallel over pairs).
            let opts = ForwarderOptions::default();
            // One stream per k: with the old `seed ^ k` bases, adjacent
            // k's trial seeds collided pairwise.
            let per_pair: Vec<(usize, usize)> =
                run_trials(pairs.len(), seed, k as u64, None, |i, s| {
                    let (src, dst) = pairs[i];
                    let fwd = Forwarder::new(&prefix, &mask);
                    let mut rng = Rng::seed_from_u64(s);
                    let mut distinct: std::collections::HashSet<Vec<u32>> =
                        std::collections::HashSet::new();
                    for _ in 0..header_samples {
                        let header = ForwardingBits::random(
                            &mut rng,
                            20.min(128 / splice_core::header::bits_per_hop(k).max(1) as usize),
                            k,
                        );
                        if let ForwardingOutcome::Delivered(tr) =
                            fwd.forward(src, dst, header, &opts)
                        {
                            let key: Vec<u32> =
                                tr.steps.iter().map(|st| st.node.0).chain([dst.0]).collect();
                            distinct.insert(key);
                        }
                    }
                    let conn =
                        succ_connectivity(&prefix.successors_toward(dst, k, &mask), src, dst);
                    (distinct.len(), conn)
                });

            let distinct_paths =
                per_pair.iter().map(|&(d, _)| d as f64).sum::<f64>() / pairs.len() as f64;
            let succ_conn =
                per_pair.iter().map(|&(_, c)| c as f64).sum::<f64>() / pairs.len() as f64;

            DiversityPoint {
                k,
                messages: k * messages_per_instance,
                fib_entries: prefix.arena().installed(k),
                lsdb_entries: k * lsdb_per_instance,
                distinct_paths,
                succ_connectivity: succ_conn,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::{abilene::abilene, sprint::sprint};

    #[test]
    fn cost_linear_diversity_growing() {
        let g = abilene().graph();
        let template = SplicingConfig::degree_based(5, 0.0, 3.0);
        let pts = state_vs_diversity(&g, &template, &[1, 2, 4], 30, 20, 13);
        assert_eq!(pts.len(), 3);
        // Linear cost: k=2 costs twice k=1, k=4 four times.
        assert_eq!(pts[1].messages, 2 * pts[0].messages);
        assert_eq!(pts[2].messages, 4 * pts[0].messages);
        assert_eq!(pts[1].fib_entries, 2 * pts[0].fib_entries);
        assert_eq!(pts[2].lsdb_entries, 4 * pts[0].lsdb_entries);
        // Diversity: k=1 has exactly one path per pair; more with slices.
        assert!((pts[0].distinct_paths - 1.0).abs() < 1e-9);
        assert!(pts[2].distinct_paths > pts[0].distinct_paths);
        assert!(pts[2].succ_connectivity >= pts[0].succ_connectivity);
        assert!((pts[0].succ_connectivity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sprint_cost_columns_are_linear_in_k() {
        // One instance on Sprint (52 routers, 84 links) floods
        // 52 × (2·84 − 51) LSAs, installs 52·51 FIB entries and stores
        // 52 LSAs at each router: EXPERIMENTS.md's §4.2 cost columns.
        let g = sprint().graph();
        let template = SplicingConfig::degree_based(10, 0.0, 3.0);
        for p in state_vs_diversity(&g, &template, &[1, 2, 5, 10], 1, 1, 11) {
            assert_eq!(
                (p.messages, p.fib_entries, p.lsdb_entries),
                (6084 * p.k, 2652 * p.k, 52 * p.k),
                "k = {}",
                p.k
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = abilene().graph();
        let template = SplicingConfig::degree_based(3, 0.0, 3.0);
        let a = state_vs_diversity(&g, &template, &[2], 10, 10, 3);
        let b = state_vs_diversity(&g, &template, &[2], 10, 10, 3);
        assert_eq!(a, b);
    }
}
