//! Multipath capacity (§5 "other applications").
//!
//! "End hosts could set splicing bits in packets to simultaneously use
//! disjoint paths … allowing hosts to achieve throughput that approaches
//! the capacity of the underlying graph." What an end host can actually
//! drive traffic over is the per-destination successor graph — at each
//! node, the next hops the k slices offer toward `t` — so the achievable
//! throughput for `(s, t)` is the max-flow of that *directed* structure,
//! and the bound is the full graph's s–t max-flow. This module measures
//! the ratio as `k` grows.
//!
//! (The union of *all* trees toward *all* destinations is much denser —
//! with metric weights every link is the shortest path between its own
//! endpoints, so that union is trivially the whole graph. The directed
//! per-destination view is the one the forwarding bits can exercise.)

use splice_core::slices::Splicing;
use splice_graph::maxflow::{edge_connectivity_st, succ_connectivity};
use splice_graph::{EdgeMask, Graph, NodeId};

/// Mean ratio of splicing-achievable throughput (arc-disjoint paths in
/// the successor graph toward each destination) to the full graph's s–t
/// max-flow, over all ordered pairs, for each `k` in `1..=splicing.k()`.
///
/// Ratio → 1 means splicing exposes the graph's full multipath capacity.
pub fn capacity_ratio_by_k(splicing: &Splicing, g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let up = EdgeMask::all_up(g.edge_count());
    let mut full = vec![vec![0usize; n]; n];
    for s in 0..n as u32 {
        for t in 0..n as u32 {
            if s != t {
                full[s as usize][t as usize] = edge_connectivity_st(g, NodeId(s), NodeId(t));
            }
        }
    }
    (1..=splicing.k())
        .map(|k| {
            let mut sum = 0.0;
            let mut count = 0usize;
            for t in 0..n as u32 {
                let succ = splicing.successors_toward(NodeId(t), k, &up);
                for s in 0..n as u32 {
                    if s == t || full[s as usize][t as usize] == 0 {
                        continue;
                    }
                    let got = succ_connectivity(&succ, NodeId(s), NodeId(t));
                    sum += got as f64 / full[s as usize][t as usize] as f64;
                    count += 1;
                }
            }
            sum / count as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::slices::SplicingConfig;
    use splice_topology::abilene::abilene;
    use splice_topology::sprint::sprint;

    /// §5's capacity claim at `kmax` slices: the ratio never falls as
    /// slices are added, and the k-slice successor graphs expose at least
    /// 0.1 more of the graph's s–t max-flow than one slice does.
    /// Deterministic: no sampling, so no band.
    fn assert_capacity_grows(g: &Graph, kmax: usize, seed: u64) -> Vec<f64> {
        let sp = Splicing::build(g, &SplicingConfig::degree_based(kmax, 0.0, 3.0), seed);
        let ratios = capacity_ratio_by_k(&sp, g);
        assert_eq!(ratios.len(), kmax);
        for w in ratios.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "ratio must be monotone in k: {ratios:?}"
            );
        }
        assert!(
            ratios[kmax - 1] >= ratios[0] + 0.1,
            "splicing should add capacity: {ratios:?}"
        );
        assert!(ratios[kmax - 1] <= 1.0 + 1e-12);
        ratios
    }

    /// On Abilene at k = 8, and on the `capacity_multipath` row's own
    /// deployment (Sprint, k = 10, the lab's default seed).
    #[test]
    fn ratio_grows_from_single_path_toward_capacity() {
        let ratios = assert_capacity_grows(&abilene().graph(), 8, 17);
        // One slice = one path per pair; Abilene pairs have capacity >= 2,
        // so the ratio sits at or below 1/2.
        assert!(ratios[0] <= 0.51, "k=1 ratio {}", ratios[0]);
        assert_capacity_grows(&sprint().graph(), 10, 20080817);
    }
}
