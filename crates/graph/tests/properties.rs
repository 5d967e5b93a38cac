//! Property-based tests for the graph substrate.
//!
//! These pin the invariants the rest of the workspace depends on:
//! Dijkstra agrees with Bellman–Ford, SPTs are genuine trees, min-cut
//! equals max-flow, and reachability primitives are mutually consistent.

use splice_graph::bellman_ford::bellman_ford;
use splice_graph::maxflow::{edge_connectivity_st, global_edge_connectivity};
use splice_graph::mincut::min_cut_links;
use splice_graph::traversal::{components, connected, disconnected_pairs, reachable_from};
use splice_graph::{
    dijkstra, dijkstra_masked, EdgeId, EdgeMask, Graph, NodeId, Rng, SpfDelta, SpfWorkspace, Spt,
    UnionFind,
};
// The random-graph generators live in the shared testkit so every
// crate's property suite draws from the same distributions.
use splice_testkit::run_cases;
use splice_testkit::strategies::{multigraph, multigraph_with_mask, random_mask, vec_of};

/// Dijkstra and Bellman–Ford agree on every distance.
#[test]
fn dijkstra_matches_bellman_ford() {
    run_cases(128, |rng| {
        let g = multigraph(rng);
        let w = g.base_weights();
        for root in g.nodes() {
            let spt = dijkstra(&g, root, &w);
            let bf = bellman_ford(&g, root, &w);
            for (i, (&a, &b)) in spt.dist.iter().zip(&bf).enumerate() {
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "distance mismatch at node {i}: {a} vs {b}"
                );
            }
        }
    });
}

/// An SPT's parent pointers form an acyclic forest rooted at the root,
/// and every reachable node's path actually ends at the root.
#[test]
fn spt_is_a_tree() {
    run_cases(128, |rng| {
        let g = multigraph(rng);
        let w = g.base_weights();
        let root = NodeId(0);
        let spt = dijkstra(&g, root, &w);
        for u in g.nodes() {
            if spt.reaches(u) {
                let p = spt.path_from(u).expect("reachable node has a path");
                assert_eq!(p.source(), u);
                assert_eq!(p.destination(), root);
                assert!(p.validate(&g));
                assert!(p.is_simple(), "SPT paths are simple");
                assert!((p.base_length(&g) - spt.distance(u)).abs() < 1e-9);
            }
        }
    });
}

/// Distances can only grow when edges fail.
#[test]
fn failures_never_shorten_paths() {
    run_cases(128, |rng| {
        let (g, mask) = multigraph_with_mask(rng);
        let w = g.base_weights();
        let root = NodeId(0);
        let free = dijkstra(&g, root, &w);
        let failed = dijkstra_masked(&g, root, &w, &mask);
        for i in 0..g.node_count() {
            assert!(failed.dist[i] >= free.dist[i] - 1e-12);
        }
    });
}

/// Stoer–Wagner equals global edge connectivity by max-flow.
#[test]
fn mincut_equals_maxflow() {
    run_cases(128, |rng| {
        let g = multigraph(rng);
        assert_eq!(min_cut_links(&g).unwrap(), global_edge_connectivity(&g));
    });
}

/// s–t edge connectivity is symmetric in an undirected graph.
#[test]
fn st_connectivity_symmetric() {
    run_cases(128, |rng| {
        let g = multigraph(rng);
        let s = NodeId(0);
        let t = NodeId((g.node_count() - 1) as u32);
        if s != t {
            assert_eq!(
                edge_connectivity_st(&g, s, t),
                edge_connectivity_st(&g, t, s)
            );
        }
    });
}

/// BFS reachability agrees with union-find components under any mask.
#[test]
fn bfs_matches_union_find() {
    run_cases(128, |rng| {
        let (g, mask) = multigraph_with_mask(rng);
        let mut uf = UnionFind::new(g.node_count());
        for e in g.edge_ids() {
            if mask.is_up(e) {
                let edge = g.edge(e);
                uf.union(edge.u.index(), edge.v.index());
            }
        }
        let from0 = reachable_from(&g, NodeId(0), &mask);
        for (i, &reach) in from0.iter().enumerate() {
            assert_eq!(reach, uf.same(0, i));
        }
    });
}

/// disconnected_pairs is consistent with pairwise connectivity checks.
#[test]
fn disconnected_pairs_consistent() {
    run_cases(128, |rng| {
        let (g, mask) = multigraph_with_mask(rng);
        let n = g.node_count();
        let mut brute = 0usize;
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                if s != t && !connected(&g, NodeId(s), NodeId(t), &mask) {
                    brute += 1;
                }
            }
        }
        assert_eq!(disconnected_pairs(&g, &mask), brute);
    });
}

/// One batch of link changes over `g`, as [`SpfWorkspace::repair`]
/// reads it: the final state, and the links that were failed, raised and
/// lowered on the way to it.
struct Batch {
    weights: Vec<f64>,
    mask: EdgeMask,
    failed: Vec<EdgeId>,
    raised: Vec<EdgeId>,
    lowered: Vec<EdgeId>,
}

impl Batch {
    /// The batch that takes `(w, mask)` to `(weights, after)`.
    fn between(w: &[f64], mask: &EdgeMask, weights: Vec<f64>, after: EdgeMask) -> Batch {
        let edges = || (0..w.len() as u32).map(EdgeId);
        let restored = |e: EdgeId| mask.is_failed(e) && after.is_up(e);
        let raised = edges().filter(|e| weights[e.index()] > w[e.index()]);
        let cheaper =
            |e: EdgeId| weights[e.index()] < w[e.index()] && mask.is_up(e) && after.is_up(e);
        Batch {
            failed: edges()
                .filter(|&e| mask.is_up(e) && after.is_failed(e))
                .collect(),
            raised: raised.collect(),
            lowered: edges().filter(|&e| restored(e) || cheaper(e)).collect(),
            weights,
            mask: after,
        }
    }

    fn delta(&self) -> SpfDelta<'_> {
        SpfDelta {
            weights: &self.weights,
            mask: &self.mask,
            failed: &self.failed,
            raised: &self.raised,
            lowered: &self.lowered,
        }
    }
}

/// Draw the next batch from `(w, mask)`, in one of four shapes: links
/// failed, one link reweighted by a real factor, one link restored, or
/// a mix where every link may be failed or restored and reweighted to a
/// small integer, so a batch holds increases and decreases together and
/// reweighted links that also fail or come back.
fn next_batch(g: &Graph, w: &[f64], mask: &EdgeMask, rng: &mut Rng) -> Batch {
    let (mut weights, mut after) = (w.to_vec(), mask.clone());
    let pick = |rng: &mut Rng| EdgeId(rng.gen_range(0..g.edge_count() as u32));
    match rng.gen_range(0..4u32) {
        0 => g
            .edge_ids()
            .filter(|_| rng.gen_bool(0.3))
            .for_each(|e| after.fail(e)),
        1 => {
            let e = pick(rng);
            weights[e.index()] *= if rng.gen_bool(0.5) {
                rng.gen_range_f64(0.1..0.9)
            } else {
                rng.gen_range_f64(1.0..8.0)
            };
        }
        2 => {
            let down: Vec<EdgeId> = mask.failed_edges().collect();
            if !down.is_empty() {
                after.restore(down[rng.gen_range(0..down.len())]);
            }
        }
        _ => {
            for e in g.edge_ids() {
                if rng.gen_bool(0.3) {
                    if after.is_up(e) {
                        after.fail(e);
                    } else {
                        after.restore(e);
                    }
                }
                if rng.gen_bool(0.4) {
                    weights[e.index()] = rng.gen_range(1..=4u32) as f64;
                }
            }
        }
    }
    Batch::between(w, mask, weights, after)
}

/// Assert `tree` equals a fresh masked run under `(w, mask)`: distances
/// by `to_bits`, parents exactly.
fn assert_matches_fresh(g: &Graph, tree: &Spt, w: &[f64], mask: &EdgeMask, at: &str) {
    let fresh = dijkstra_masked(g, tree.root, w, mask);
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&tree.dist), bits(&fresh.dist), "distances, {at}");
    assert_eq!(tree.parent, fresh.parent, "parents, {at}");
}

/// Delta-SPF repair after failing a random edge subset is bit-identical
/// — distances by `to_bits`, parents exactly — to a from-scratch
/// masked run, for every root.
#[test]
fn repair_failures_matches_rebuild() {
    run_cases(128, |rng| {
        let (g, mask) = multigraph_with_mask(rng);
        let w = g.base_weights();
        let batch = Batch::between(&w, &EdgeMask::all_up(g.edge_count()), w.clone(), mask);
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            let mut tree = dijkstra(&g, root, &w);
            tree.repair(&g, &batch.delta(), &mut ws);
            assert_matches_fresh(&g, &tree, &w, &batch.mask, &format!("root {root:?}"));
        }
    });
}

/// Delta-SPF repair of a single weight change (up or down) is
/// bit-identical to a from-scratch run on the new vector.
#[test]
fn repair_reweight_matches_rebuild() {
    run_cases(128, |rng| {
        let g = multigraph(rng);
        let factor = if rng.gen_bool(0.5) {
            rng.gen_range_f64(0.1..0.9)
        } else {
            rng.gen_range_f64(1.0..8.0)
        };
        let old_w = g.base_weights();
        let e = EdgeId(rng.gen_range(0..g.edge_count() as u32));
        let mut new_w = old_w.clone();
        new_w[e.index()] = old_w[e.index()] * factor;
        let mask = EdgeMask::all_up(g.edge_count());
        let batch = Batch::between(&old_w, &mask, new_w, mask.clone());
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            let mut tree = dijkstra(&g, root, &old_w);
            tree.repair(&g, &batch.delta(), &mut ws);
            let at = format!("root {root:?} (factor {factor})");
            assert_matches_fresh(&g, &tree, &batch.weights, &mask, &at);
        }
    });
}

/// Delta-SPF restore of a failed edge — on a tree whose distances were
/// folded from its parent pointers, the way a deployment assembled from
/// parts gets them — is bit-identical to a from-scratch masked run, one
/// restored edge after another until the mask is empty. Weights are
/// small integers so equal-cost routes (and with them the `(parent,
/// edge)` tie-break) are the common case, not the exception.
#[test]
fn repair_restore_matches_rebuild() {
    run_cases(128, |rng| {
        let (g, failed) = multigraph_with_mask(rng);
        let picks = vec_of(rng, 30..=30, |r| r.gen_range(1..=3u8));
        let w: Vec<f64> = (0..g.edge_count())
            .map(|i| picks[i % picks.len()] as f64)
            .collect();
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            let mut mask = failed.clone();
            let before = dijkstra_masked(&g, root, &w, &mask);
            ws.load_tree(&g, root, &w, |u| before.parent[u]);
            let mut tree = Spt {
                root,
                dist: ws.distances().to_vec(),
                parent: ws.parents().to_vec(),
            };
            for e in failed.failed_edges() {
                let down = mask.clone();
                mask.restore(e);
                let batch = Batch::between(&w, &down, w.clone(), mask.clone());
                tree.repair(&g, &batch.delta(), &mut ws);
                let at = format!("root {root:?} after restoring {e:?}");
                assert_matches_fresh(&g, &tree, &w, &mask, &at);
            }
        }
    });
}

/// One delta repair per batch, reading the tree in place the way a FIB
/// column is read, is bit-identical — distances by `to_bits`, parents exactly — to a
/// fresh masked run at the batch's final state, for every root, over
/// four stacked batches. Weights start as small integers, so equal-cost
/// routes and the `(parent, edge)` tie-break are common. The batches
/// cover failures alone, one reweight either way, one restore, and
/// mixes with a raise and a cut in one batch and reweighted links that
/// fail or come back in it; the mixes must have drawn each overlap.
#[test]
fn a_mixed_batch_repairs_like_a_fresh_run() {
    let mut seen = [0usize; 3];
    run_cases(256, |rng| {
        let g = multigraph(rng);
        let mut w: Vec<f64> = g
            .edge_ids()
            .map(|_| rng.gen_range(1..=3u32) as f64)
            .collect();
        let mut mask = random_mask(&g, rng);
        let mut trees: Vec<Spt> = g
            .nodes()
            .map(|root| dijkstra_masked(&g, root, &w, &mask))
            .collect();
        let mut ws = SpfWorkspace::new();
        for step in 0..4 {
            let batch = next_batch(&g, &w, &mask, rng);
            let reweighted = |e: &EdgeId| batch.weights[e.index()] != w[e.index()];
            let failed = |e: &EdgeId| mask.is_up(*e) && batch.mask.is_failed(*e);
            let restored = |e: &EdgeId| mask.is_failed(*e) && batch.mask.is_up(*e);
            seen[0] += g.edge_ids().any(|e| reweighted(&e) && failed(&e)) as usize;
            seen[1] += g.edge_ids().any(|e| reweighted(&e) && restored(&e)) as usize;
            seen[2] +=
                (!batch.raised.is_empty() && batch.lowered.iter().any(|e| !restored(e))) as usize;
            for tree in &mut trees {
                tree.repair(&g, &batch.delta(), &mut ws);
                let at = format!("step {step}, root {:?}", tree.root);
                assert_matches_fresh(&g, tree, &batch.weights, &batch.mask, &at);
            }
            (w, mask) = (batch.weights, batch.mask);
        }
    });
    assert!(seen.iter().all(|&n| n >= 20), "overlaps drawn: {seen:?}");
}

/// A repair moves only the nodes it lists ([`SpfWorkspace::touched`]),
/// each once, and reads each column entry at most once. Over four
/// stacked batches from the mixed-batch generator, every root's
/// installed tree is read in place, repaired, and written back at the
/// listed nodes only ([`Spt::repair`]); the installed copy then equals a
/// fresh masked run at the batch's final state, bit for bit, so no node
/// off the list needed a new entry.
#[test]
fn a_repair_moves_only_the_nodes_it_lists() {
    let mut listed = 0usize;
    run_cases(256, |rng| {
        let g = multigraph(rng);
        let n = g.node_count();
        let mut w: Vec<f64> = g
            .edge_ids()
            .map(|_| rng.gen_range(1..=3u32) as f64)
            .collect();
        let mut mask = random_mask(&g, rng);
        let mut installed: Vec<_> = g
            .nodes()
            .map(|root| dijkstra_masked(&g, root, &w, &mask))
            .collect();
        let mut ws = SpfWorkspace::new();
        for step in 0..4 {
            let batch = next_batch(&g, &w, &mask, rng);
            for tree in &mut installed {
                let at = format!("step {step}, root {:?}", tree.root);
                let frontier = tree.repair(&g, &batch.delta(), &mut ws);
                assert_eq!(frontier, ws.touched().len(), "{at}");
                let mut on_list = vec![false; n];
                for &u in ws.touched() {
                    assert!(!on_list[u.index()], "{at}: {u:?} listed twice");
                    on_list[u.index()] = true;
                }
                assert!(ws.loaded() <= n, "{at}: {} entries read", ws.loaded());
                assert_matches_fresh(&g, tree, &batch.weights, &batch.mask, &at);
                listed += frontier;
            }
            (w, mask) = (batch.weights, batch.mask);
        }
    });
    assert!(listed > 0, "no repair moved a node");
}

/// Restoring a set of links in one relaxation is bit-identical — distances
/// by `to_bits`, parents exactly — to a from-scratch masked run, and to
/// restoring the same links one at a time, for every root. Weights are
/// small integers, so equal-cost routes are common, and with them an
/// endpoint of a restored link that no lowered distance reaches but whose
/// new link wins the `(parent, edge)` tie-break.
#[test]
fn restoring_a_link_set_in_one_relaxation_matches_rebuild_and_one_at_a_time() {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    run_cases(256, |rng| {
        let g = multigraph(rng);
        let m = g.edge_count();
        let w: Vec<f64> = (0..m).map(|_| rng.gen_range(1..=3u32) as f64).collect();
        let mut edges: Vec<EdgeId> = g.edge_ids().collect();
        rng.shuffle(&mut edges);
        let (restored, rest) = edges.split_at(rng.gen_range(1..=m.min(8)));
        // Some other links stay down through the restore.
        let still_down: Vec<EdgeId> = rest
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.25))
            .collect();
        let after = EdgeMask::from_failed(m, &still_down);
        let mut before = after.clone();
        restored.iter().for_each(|&e| before.fail(e));
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            let down = dijkstra_masked(&g, root, &w, &before);
            let mut restore = |tree: &mut Spt, after: &EdgeMask, restored: &[EdgeId]| {
                let delta = SpfDelta {
                    weights: &w,
                    mask: after,
                    failed: &[],
                    raised: &[],
                    lowered: restored,
                };
                tree.repair(&g, &delta, &mut ws);
            };
            let mut set = down.clone();
            restore(&mut set, &after, restored);
            let at = format!("root {root:?}, restored {restored:?}");
            assert_matches_fresh(&g, &set, &w, &after, &at);

            let mut one = down;
            let mut mask = before.clone();
            for &e in restored {
                mask.restore(e);
                restore(&mut one, &mask, &[e]);
            }
            assert_eq!(bits(&one.dist), bits(&set.dist), "{at}");
            assert_eq!(one.parent, set.parent, "{at}");
        }
    });
}

/// Component labels partition the node set.
#[test]
fn components_partition() {
    run_cases(128, |rng| {
        let (g, mask) = multigraph_with_mask(rng);
        let comp = components(&g, &mask);
        assert_eq!(comp.len(), g.node_count());
        // Every edge that is up connects same-component nodes.
        for e in g.edge_ids() {
            if mask.is_up(e) {
                let edge = g.edge(e);
                assert_eq!(comp[edge.u.index()], comp[edge.v.index()]);
            }
        }
    });
}
