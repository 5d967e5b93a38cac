//! Property-based tests for the graph substrate.
//!
//! These pin the invariants the rest of the workspace depends on:
//! Dijkstra agrees with Bellman–Ford, SPTs are genuine trees, min-cut
//! equals max-flow, and reachability primitives are mutually consistent.

use proptest::prelude::*;
use splice_graph::bellman_ford::bellman_ford;
use splice_graph::maxflow::{edge_connectivity_st, global_edge_connectivity};
use splice_graph::mincut::min_cut_links;
use splice_graph::traversal::{components, connected, disconnected_pairs, reachable_from};
use splice_graph::{dijkstra, dijkstra_masked, EdgeId, EdgeMask, NodeId, SpfWorkspace, UnionFind};
// The random-graph strategies live in the shared testkit so every
// crate's property suite draws from the same distributions.
use splice_testkit::strategies::{
    arb_multigraph as arb_graph, arb_multigraph_with_mask as arb_graph_with_mask,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dijkstra and Bellman–Ford agree on every distance.
    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_graph()) {
        let w = g.base_weights();
        for root in g.nodes() {
            let spt = dijkstra(&g, root, &w);
            let bf = bellman_ford(&g, root, &w);
            for (i, (&a, &b)) in spt.dist.iter().zip(&bf).enumerate() {
                prop_assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "distance mismatch at node {i}: {a} vs {b}"
                );
            }
        }
    }

    /// An SPT's parent pointers form an acyclic forest rooted at the root,
    /// and every reachable node's path actually ends at the root.
    #[test]
    fn spt_is_a_tree(g in arb_graph()) {
        let w = g.base_weights();
        let root = NodeId(0);
        let spt = dijkstra(&g, root, &w);
        for u in g.nodes() {
            if spt.reaches(u) {
                let p = spt.path_from(u).expect("reachable node has a path");
                prop_assert_eq!(p.source(), u);
                prop_assert_eq!(p.destination(), root);
                prop_assert!(p.validate(&g));
                prop_assert!(p.is_simple(), "SPT paths are simple");
                prop_assert!((p.base_length(&g) - spt.distance(u)).abs() < 1e-9);
            }
        }
    }

    /// Distances can only grow when edges fail.
    #[test]
    fn failures_never_shorten_paths((g, mask) in arb_graph_with_mask()) {
        let w = g.base_weights();
        let root = NodeId(0);
        let free = dijkstra(&g, root, &w);
        let failed = dijkstra_masked(&g, root, &w, &mask);
        for i in 0..g.node_count() {
            prop_assert!(failed.dist[i] >= free.dist[i] - 1e-12);
        }
    }

    /// Stoer–Wagner equals global edge connectivity by max-flow.
    #[test]
    fn mincut_equals_maxflow(g in arb_graph()) {
        prop_assert_eq!(min_cut_links(&g).unwrap(), global_edge_connectivity(&g));
    }

    /// s–t edge connectivity is symmetric in an undirected graph.
    #[test]
    fn st_connectivity_symmetric(g in arb_graph()) {
        let s = NodeId(0);
        let t = NodeId((g.node_count() - 1) as u32);
        if s != t {
            prop_assert_eq!(
                edge_connectivity_st(&g, s, t),
                edge_connectivity_st(&g, t, s)
            );
        }
    }

    /// BFS reachability agrees with union-find components under any mask.
    #[test]
    fn bfs_matches_union_find((g, mask) in arb_graph_with_mask()) {
        let mut uf = UnionFind::new(g.node_count());
        for e in g.edge_ids() {
            if mask.is_up(e) {
                let edge = g.edge(e);
                uf.union(edge.u.index(), edge.v.index());
            }
        }
        let from0 = reachable_from(&g, NodeId(0), &mask);
        for (i, &reach) in from0.iter().enumerate() {
            prop_assert_eq!(reach, uf.same(0, i));
        }
    }

    /// disconnected_pairs is consistent with pairwise connectivity checks.
    #[test]
    fn disconnected_pairs_consistent((g, mask) in arb_graph_with_mask()) {
        let n = g.node_count();
        let mut brute = 0usize;
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                if s != t && !connected(&g, NodeId(s), NodeId(t), &mask) {
                    brute += 1;
                }
            }
        }
        prop_assert_eq!(disconnected_pairs(&g, &mask), brute);
    }

    /// Delta-SPF repair after failing a random edge subset is bit-identical
    /// — distances by `total_cmp`, parents exactly — to a from-scratch
    /// masked run, for every root.
    #[test]
    fn repair_failures_matches_rebuild((g, mask) in arb_graph_with_mask()) {
        let w = g.base_weights();
        let newly: Vec<EdgeId> = mask.failed_edges().collect();
        let mut ws = SpfWorkspace::new();
        let mut fresh = SpfWorkspace::new();
        for root in g.nodes() {
            ws.run(&g, root, &w, None);
            ws.repair_failures(&g, root, &w, &mask, &newly);
            fresh.run(&g, root, &w, Some(&mask));
            for i in 0..g.node_count() {
                prop_assert!(
                    ws.distances()[i].total_cmp(&fresh.distances()[i]).is_eq(),
                    "dist mismatch at node {} of root {:?}: {} vs {}",
                    i, root, ws.distances()[i], fresh.distances()[i]
                );
                prop_assert_eq!(
                    ws.parents()[i], fresh.parents()[i],
                    "parent mismatch at node {} of root {:?}", i, root
                );
            }
        }
    }

    /// Delta-SPF repair of a single weight change (up or down) is
    /// bit-identical to a from-scratch run on the new vector.
    #[test]
    fn repair_reweight_matches_rebuild(
        g in arb_graph(),
        edge_sel in any::<prop::sample::Index>(),
        factor in prop_oneof![0.1f64..0.9, 1.0f64..8.0],
    ) {
        let old_w = g.base_weights();
        let e = EdgeId(edge_sel.index(g.edge_count()) as u32);
        let mut new_w = old_w.clone();
        new_w[e.index()] = old_w[e.index()] * factor;
        let mask = EdgeMask::all_up(g.edge_count());
        let mut ws = SpfWorkspace::new();
        let mut fresh = SpfWorkspace::new();
        for root in g.nodes() {
            ws.run(&g, root, &old_w, Some(&mask));
            ws.repair_reweight(&g, root, &new_w, &mask, e, old_w[e.index()]);
            fresh.run(&g, root, &new_w, Some(&mask));
            for i in 0..g.node_count() {
                prop_assert!(
                    ws.distances()[i].total_cmp(&fresh.distances()[i]).is_eq(),
                    "dist mismatch at node {} of root {:?} (factor {})",
                    i, root, factor
                );
                prop_assert_eq!(
                    ws.parents()[i], fresh.parents()[i],
                    "parent mismatch at node {} of root {:?} (factor {})", i, root, factor
                );
            }
        }
    }

    /// Delta-SPF restore of a failed edge — on a tree reloaded from
    /// parent pointers, the way a FIB column is — is bit-identical to a
    /// from-scratch masked run, one restored edge after another until the
    /// mask is empty. Weights are small integers so equal-cost routes
    /// (and with them the `(parent, edge)` tie-break) are the common
    /// case, not the exception.
    #[test]
    fn repair_restore_matches_rebuild(
        (g, failed) in arb_graph_with_mask(),
        picks in proptest::collection::vec(1u8..=3, 30),
    ) {
        let w: Vec<f64> = (0..g.edge_count()).map(|i| picks[i % picks.len()] as f64).collect();
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            let mut mask = failed.clone();
            let before = dijkstra_masked(&g, root, &w, &mask);
            ws.load_tree(&g, root, &w, |u| before.parent[u]);
            for e in failed.failed_edges() {
                mask.restore(e);
                ws.repair_restore(&g, root, &w, &mask, e);
                let fresh = dijkstra_masked(&g, root, &w, &mask);
                for i in 0..g.node_count() {
                    prop_assert!(
                        ws.distances()[i].total_cmp(&fresh.dist[i]).is_eq(),
                        "dist mismatch at node {} of root {:?} after restoring {:?}: {} vs {}",
                        i, root, e, ws.distances()[i], fresh.dist[i]
                    );
                    prop_assert_eq!(
                        ws.parents()[i], fresh.parent[i],
                        "parent mismatch at node {} of root {:?} after restoring {:?}", i, root, e
                    );
                }
            }
        }
    }

    /// Component labels partition the node set.
    #[test]
    fn components_partition((g, mask) in arb_graph_with_mask()) {
        let comp = components(&g, &mask);
        prop_assert_eq!(comp.len(), g.node_count());
        // Every edge that is up connects same-component nodes.
        for e in g.edge_ids() {
            if mask.is_up(e) {
                let edge = g.edge(e);
                prop_assert_eq!(comp[edge.u.index()], comp[edge.v.index()]);
            }
        }
    }
}
