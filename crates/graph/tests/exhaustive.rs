//! Exhaustive small-scope check of the delta-SPF repair.
//!
//! Seeded samples say "agreed on the cases drawn"; this enumerates every
//! case up to a size, so the repair agrees with a fresh Dijkstra on every
//! input in scope. The scope: every labelled simple graph on 4 nodes (each
//! of the 6 possible links present or not), and every state of each
//! present link before and after one batch — up or down, weight 1 or 2,
//! so equal-cost routes and the `(parent, edge)` tie-break are
//! everywhere — with the tree rooted at node 0. Each case repairs the
//! column a fresh run computed before the batch, reading it in place
//! ([`Spt::repair`]), and must equal a fresh masked run after it:
//! parents exactly, distances by `to_bits`.
//!
//! The full scope is 17⁶ = 24,137,569 cases (Σ over link sets of 16^m),
//! 6–10 s in release on a 2-core box; it is `#[ignore]`d here and run by
//! CI in release. The default run covers every graph of up to 5 links.

use splice_graph::graph::from_edges;
use splice_graph::{dijkstra_masked, EdgeId, EdgeMask, NodeId, SpfDelta, SpfWorkspace, Spt};

/// The 6 possible links on 4 nodes.
const PAIRS: [(u32, u32); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// One state of every link of an `m`-link graph, from a base-4 code:
/// digit `i` is link `i`'s state — bit 0 its weight (1 or 2), bit 1
/// whether it is down.
fn link_states(m: usize, code: usize) -> (Vec<f64>, EdgeMask) {
    let digit = |i: usize| code >> (2 * i) & 3;
    let weights = (0..m).map(|i| 1.0 + (digit(i) & 1) as f64).collect();
    let down: Vec<EdgeId> = (0..m)
        .filter(|&i| digit(i) & 2 != 0)
        .map(|i| EdgeId(i as u32))
        .collect();
    (weights, EdgeMask::from_failed(m, &down))
}

/// Check every case on every graph whose link set is one of `link_sets`
/// (bitmasks over [`PAIRS`]); returns how many cases ran.
fn check_link_sets(link_sets: impl Iterator<Item = u32>) -> usize {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let root = NodeId(0);
    let mut ws = SpfWorkspace::new();
    let (mut failed, mut raised, mut lowered) = (Vec::new(), Vec::new(), Vec::new());
    let mut cases = 0;
    for set in link_sets {
        let edges: Vec<(u32, u32, f64)> = PAIRS
            .iter()
            .enumerate()
            .filter(|&(i, _)| set >> i & 1 == 1)
            .map(|(_, &(u, v))| (u, v, 1.0))
            .collect();
        let g = from_edges(4, &edges);
        let m = g.edge_count();
        let states: Vec<(Vec<f64>, EdgeMask)> =
            (0..1 << (2 * m)).map(|c| link_states(m, c)).collect();
        let trees: Vec<Spt> = states
            .iter()
            .map(|(w, mask)| dijkstra_masked(&g, root, w, mask))
            .collect();
        let mut tree = trees[0].clone();
        for (before, (w0, mask0)) in states.iter().enumerate() {
            for (after, (w1, mask1)) in states.iter().enumerate() {
                failed.clear();
                raised.clear();
                lowered.clear();
                for e in g.edge_ids() {
                    let (up0, up1) = (mask0.is_up(e), mask1.is_up(e));
                    let (a, b) = (w0[e.index()], w1[e.index()]);
                    if up0 && !up1 {
                        failed.push(e);
                    }
                    if b > a {
                        raised.push(e);
                    }
                    if up1 && (!up0 || b < a) {
                        lowered.push(e);
                    }
                }
                let delta = SpfDelta {
                    weights: w1,
                    mask: mask1,
                    failed: &failed,
                    raised: &raised,
                    lowered: &lowered,
                };
                tree.dist.clone_from(&trees[before].dist);
                tree.parent.clone_from(&trees[before].parent);
                tree.repair(&g, &delta, &mut ws);
                let want = &trees[after];
                if tree.parent != want.parent || bits(&tree.dist) != bits(&want.dist) {
                    panic!(
                        "links {edges:?}: state {before:#x} -> {after:#x} repaired to \
                         {:?} / {:?}, a fresh run gives {:?} / {:?}",
                        tree.parent, tree.dist, want.parent, want.dist
                    );
                }
                cases += 1;
            }
        }
    }
    cases
}

/// Every graph of up to 5 of the 6 links: 7,360,950 cases.
#[test]
fn repair_matches_a_fresh_run_on_every_case_of_up_to_five_links() {
    let cases = check_link_sets((0..64u32).filter(|s| s.count_ones() <= 5));
    assert_eq!(cases, 17usize.pow(6) - 16usize.pow(6));
}

/// The full scope: every graph on 4 nodes, 24,137,569 cases. Run with
/// `cargo test --release -p splice-graph --test exhaustive -- --ignored`.
#[test]
#[ignore = "24.1 M cases; CI runs it in release"]
fn repair_matches_a_fresh_run_on_every_case_on_four_nodes() {
    assert_eq!(check_link_sets(0..64u32), 17usize.pow(6));
}
