//! Arc-diverse failover slices: the static-failover baseline behind the
//! `arc` slice strategy.
//!
//! "Exploring the Limits of Static Failover Routing" shows that `k`
//! arc-disjoint arborescences per destination, with a circular switching
//! order over them, survive `k - 1` link cuts by local rerouting alone.
//! This module builds neither, and proves no such bound.
//! [`arc_diverse_parents`] is a greedy heuristic in that direction:
//! slice 0 is the plain shortest-path tree; each later slice re-runs
//! Dijkstra with every `(router, out-edge)` pair already claimed by
//! earlier slices toward the same destination charged a penalty larger
//! than any real path, then diverts routers still stuck on a spent arc
//! to a fresh downhill one. Once a router's up-degree runs out it reuses
//! a spent arc, so every slice is a full tree (loop-free and
//! destination-reaching wherever the destination is reachable at all),
//! which is the contract the splicing slice strategy needs. How many
//! failures the result survives is not checked anywhere: the out-arcs
//! are disjoint only as far as the greedy order and the degree allow.
//!
//! Determinism matters more than optimality here (the sweep compares
//! strategies at fixed seeds), so ties break exactly like
//! [`SpfWorkspace`]: first by distance, then by (parent node, edge) id.
//!
//! [`SpfWorkspace`]: crate::dijkstra::SpfWorkspace

use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};
use crate::mask::EdgeMask;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Parent arrays for `k` arc-diverse slices toward `root`.
///
/// `result[s][u]` is the `(next hop, edge)` router `u` uses toward `root`
/// in slice `s`, or `None` when `root` is unreachable from `u` under
/// `mask` (and for `root` itself). Arcs spent by earlier slices cost a
/// penalty exceeding any real path, so a router falls back to a spent arc
/// rather than going unrouted. Every slice is a complete shortest-path
/// tree of the `mask`-up subgraph — loop-free, and reaching `root` from
/// every node that can reach it at all. Out-arcs are kept apart greedily,
/// slice by slice; nothing guarantees they are as disjoint as the
/// router's up-degree would allow.
pub fn arc_diverse_parents(
    g: &Graph,
    root: NodeId,
    weights: &[f64],
    mask: &EdgeMask,
    k: usize,
) -> Vec<Vec<Option<(NodeId, EdgeId)>>> {
    let n = g.node_count();
    // Larger than any loop-free path cost, so Dijkstra reuses a spent arc
    // only when every fresh alternative is exhausted; real weights still
    // break ties among routes with equally many reused arcs.
    let penalty: f64 = weights
        .iter()
        .enumerate()
        .filter(|(i, _)| mask.is_up(EdgeId(*i as u32)))
        .map(|(_, w)| w)
        .sum::<f64>()
        + 1.0;
    // used[u] holds the edge ids router u already spent toward `root`.
    // Degrees are small on ISP maps, so a linear scan beats hashing.
    let mut used: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    let mut slices = Vec::with_capacity(k);
    for _ in 0..k {
        let (mut parents, dist) = penalized_dijkstra(g, root, weights, mask, &used, penalty);
        // Diversion pass: Dijkstra minimizes reused arcs along the whole
        // path, which lets a router far from `root` keep its slice-0 arc
        // because every alternative carries the same downstream penalty.
        // A router stuck on a spent arc instead diverts to any fresh arc
        // that is strictly downhill in the penalized distance field: the
        // potential still decreases at every hop (the Dijkstra parent is
        // downhill by construction, the diverted one by the guard), so
        // columns stay loop-free and delivering.
        for u in g.nodes() {
            let ui = u.index();
            if u == root {
                continue;
            }
            let Some((_, e0)) = parents[ui] else { continue };
            if !used[ui].contains(&e0) {
                continue;
            }
            let mut best: Option<(f64, NodeId, EdgeId)> = None;
            for &(v, e) in g.neighbors(u) {
                if mask.is_failed(e) || used[ui].contains(&e) || dist[v.index()] >= dist[ui] {
                    continue;
                }
                let cost = dist[v.index()] + weights[e.index()];
                let better = match best {
                    None => true,
                    Some((bc, bv, be)) => cost < bc || (cost == bc && (v, e) < (bv, be)),
                };
                if better {
                    best = Some((cost, v, e));
                }
            }
            if let Some((_, v, e)) = best {
                parents[ui] = Some((v, e));
            }
        }
        for (u, p) in parents.iter().enumerate() {
            if let Some((_, e)) = p {
                if !used[u].contains(e) {
                    used[u].push(*e);
                }
            }
        }
        slices.push(parents);
    }
    slices
}

/// Heap entry ordered for a min-heap with the workspace tie-break:
/// smaller distance first, then smaller (parent node, edge).
struct Entry {
    dist: f64,
    node: NodeId,
    parent: (NodeId, EdgeId),
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest pops first.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.parent.cmp(&self.parent))
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra toward `root` that charges router `u` the surcharge `penalty`
/// for any edge listed in `used[u]`. Lazy-deletion variant with the
/// deterministic tie-break.
fn penalized_dijkstra(
    g: &Graph,
    root: NodeId,
    weights: &[f64],
    mask: &EdgeMask,
    used: &[Vec<EdgeId>],
    penalty: f64,
) -> (Vec<Option<(NodeId, EdgeId)>>, Vec<f64>) {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    dist[root.index()] = 0.0;
    heap.push(Entry {
        dist: 0.0,
        node: root,
        parent: (root, EdgeId(u32::MAX)),
    });
    while let Some(Entry {
        dist: d, node: v, ..
    }) = heap.pop()
    {
        if settled[v.index()] || d > dist[v.index()] {
            continue;
        }
        settled[v.index()] = true;
        for &(u, e) in g.neighbors(v) {
            if settled[u.index()] || mask.is_failed(e) {
                continue;
            }
            let surcharge = if used[u.index()].contains(&e) {
                penalty
            } else {
                0.0
            };
            let nd = d + weights[e.index()] + surcharge;
            let better = nd < dist[u.index()]
                || (nd == dist[u.index()] && parent[u.index()].is_none_or(|cur| (v, e) < cur));
            if better {
                dist[u.index()] = nd;
                parent[u.index()] = Some((v, e));
                heap.push(Entry {
                    dist: nd,
                    node: u,
                    parent: (v, e),
                });
            }
        }
    }
    parent[root.index()] = None;
    (parent, dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;

    fn diamond() -> Graph {
        // 0-1-3 and 0-2-3 plus the chord 1-2: two arc-disjoint routes
        // from 0 to 3.
        from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 3, 1.0),
                (0, 2, 1.0),
                (2, 3, 1.0),
                (1, 2, 1.0),
            ],
        )
    }

    #[test]
    fn slice_zero_is_shortest_paths() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        let w = g.base_weights();
        let slices = arc_diverse_parents(&g, NodeId(3), &w, &mask, 1);
        let spt = crate::dijkstra::dijkstra(&g, NodeId(3), &w);
        for u in g.nodes() {
            assert_eq!(
                slices[0][u.index()].map(|(p, _)| p),
                spt.next_hop(u),
                "slice 0 disagrees with plain SPF at {u:?}"
            );
        }
    }

    #[test]
    fn respects_failure_mask() {
        let g = diamond();
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(1)); // 1-3 down
        let w = g.base_weights();
        let slices = arc_diverse_parents(&g, NodeId(3), &w, &mask, 2);
        for sl in &slices {
            for u in g.nodes() {
                if let Some((_, e)) = sl[u.index()] {
                    assert!(mask.is_up(e));
                }
            }
        }
    }

    #[test]
    fn diverse_variant_always_delivers() {
        // Path graph: node 0 has one arc, so every slice after the first
        // must reuse it rather than strand node 0.
        let g = from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let mask = EdgeMask::all_up(g.edge_count());
        let w = g.base_weights();
        let slices = arc_diverse_parents(&g, NodeId(2), &w, &mask, 3);
        for sl in &slices {
            for u in g.nodes() {
                if u != NodeId(2) {
                    assert!(sl[u.index()].is_some(), "{u:?} stranded");
                }
            }
            assert!(sl[2].is_none());
        }
    }

    #[test]
    fn diverse_variant_prefers_fresh_arcs() {
        // Toward node 3 slice 0 (the SPT) spends both arcs into the
        // root, so the root's neighbors must reuse them in slice 1 —
        // delivery outranks disjointness there. Node 0, whose spare arc
        // leads somewhere useful, switches to it.
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        let w = g.base_weights();
        let slices = arc_diverse_parents(&g, NodeId(3), &w, &mask, 2);
        for sl in &slices {
            for u in g.nodes() {
                if u != NodeId(3) {
                    assert!(sl[u.index()].is_some(), "{u:?} stranded");
                }
            }
        }
        let a = slices[0][0].map(|(_, e)| e);
        let b = slices[1][0].map(|(_, e)| e);
        assert_ne!(a, b, "node 0 reused an arc despite a useful spare");
    }

    #[test]
    fn diverse_variant_is_loop_free() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        let w = g.base_weights();
        for root in g.nodes() {
            let slices = arc_diverse_parents(&g, root, &w, &mask, 4);
            for sl in &slices {
                for start in g.nodes() {
                    let mut u = start;
                    let mut hops = 0;
                    while let Some((p, _)) = sl[u.index()] {
                        u = p;
                        hops += 1;
                        assert!(hops <= g.node_count(), "loop toward {root:?}");
                    }
                    assert!(u == root, "{start:?} dead-ends short of {root:?}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        let w = g.base_weights();
        let a = arc_diverse_parents(&g, NodeId(0), &w, &mask, 3);
        let b = arc_diverse_parents(&g, NodeId(0), &w, &mask, 3);
        assert_eq!(a, b);
    }
}
