//! Random spanning trees and low-stretch trees for tree-based splicers.
//!
//! "Expanders via Random Spanning Trees" shows that the union of a few
//! *uniform* random spanning trees of a well-connected graph is itself an
//! expander: a handful of trees already carries the edge-disjoint path
//! diversity splicing needs, at O(n) routing state per tree instead of a
//! full shortest-path DAG. The uniform tree is sampled with Wilson's
//! loop-erased random walk, which is exact (unlike random-weight Kruskal)
//! and runs in expected time proportional to the mean hitting time.
//!
//! Both generators write into a [`RootedForest`], which roots every
//! component once (one iterative DFS) and keeps, per node, its parent
//! arc and the interval its subtree occupies in the DFS pre-order. Tree
//! paths are unique, so those three arrays answer "next hop of `u`
//! toward `t`" for every pair without orienting the tree per
//! destination: `t` in the subtree of a child `c` of `u` routes over
//! `c`'s arc, anything else in `u`'s component over `u`'s parent arc.
//! A `RootedForest` owns every buffer construction and rooting need and
//! reuses them from one fill to the next, so a warm one allocates
//! nothing.

use crate::dijkstra::SpfWorkspace;
use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};
use crate::mask::EdgeMask;
use rand::Rng;

/// "No parent" / "not visited yet" in the flat `u32` arrays.
const NONE: u32 = u32::MAX;

/// A spanning forest over a graph's nodes, rooted: the chosen edge set,
/// each node's parent arc, and the DFS pre-order with per-node subtree
/// intervals.
///
/// On a connected (sub)graph this is a spanning tree; under failures each
/// connected component gets its own tree, hence "forest". The value
/// doubles as the reusable scratch of the generators that fill it
/// ([`random_spanning_forest`], [`low_stretch_forest`]).
#[derive(Clone, Debug, Default)]
pub struct RootedForest {
    /// The chosen tree edges, in the order the generator committed them.
    edges: Vec<EdgeId>,
    /// CSR of the tree edges: node `u`'s `(neighbor, edge)` pairs are
    /// `adjacency[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    adjacency: Vec<(u32, u32)>,
    /// `(parent node, edge to it)`, `(NONE, NONE)` at a component root.
    parent: Vec<(u32, u32)>,
    /// Nodes in DFS pre-order, one component after another; `u`'s subtree
    /// is `order[tin[u]..tout[u]]`.
    order: Vec<u32>,
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// The root of each node's component.
    root: Vec<u32>,
    /// Generator scratch: membership flags (Wilson's in-tree set, the
    /// low-stretch cover), a node stack, and Wilson's last-exit pointers.
    flag: Vec<bool>,
    stack: Vec<u32>,
    exit: Vec<(u32, u32)>,
}

impl RootedForest {
    /// An empty forest; buffers grow on the first fill.
    pub fn new() -> RootedForest {
        RootedForest::default()
    }

    /// The chosen tree edges (`n - components` of them), in the order the
    /// generator committed them.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of nodes the forest was rooted over.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// `(neighbor, edge)` pairs of `u` over tree edges only, as raw ids.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[(u32, u32)] {
        &self.adjacency[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// `u`'s parent arc as raw `(node, edge)` ids, `None` at a component
    /// root.
    #[inline]
    pub fn parent(&self, u: usize) -> Option<(u32, u32)> {
        let p = self.parent[u];
        (p.0 != NONE).then_some(p)
    }

    /// The nodes of `u`'s subtree (including `u`), in pre-order.
    #[inline]
    pub fn subtree(&self, u: usize) -> &[u32] {
        &self.order[self.tin[u] as usize..self.tout[u] as usize]
    }

    /// The nodes of `u`'s component: the subtree of its root.
    #[inline]
    pub fn component(&self, u: usize) -> &[u32] {
        self.subtree(self.root[u] as usize)
    }

    /// Label every node, in `root`, with the lowest-id node of its
    /// `mask`-up component.
    fn flood_components(&mut self, g: &Graph, mask: &EdgeMask) {
        let n = g.node_count();
        self.root.clear();
        self.root.resize(n, NONE);
        // Every node is pushed once, so `n` slots never regrow.
        self.stack.clear();
        self.stack.reserve(n);
        for s in 0..n as u32 {
            if self.root[s as usize] != NONE {
                continue;
            }
            self.root[s as usize] = s;
            self.stack.push(s);
            while let Some(u) = self.stack.pop() {
                for &(v, e) in g.neighbors(NodeId(u)) {
                    if mask.is_up(e) && self.root[v.index()] == NONE {
                        self.root[v.index()] = s;
                        self.stack.push(v.0);
                    }
                }
            }
        }
    }

    /// Build the CSR of `self.edges` and root every component: parents,
    /// pre-order and subtree intervals, lowest-id node of each component
    /// as its root. The edges must be acyclic, which only this module's
    /// generators are trusted with; a cycle would send the DFS round it
    /// and is caught when the pre-order outgrows `n`.
    fn root_components(&mut self, g: &Graph) {
        let n = g.node_count();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &e in &self.edges {
            let edge = g.edge(e);
            self.offsets[edge.u.index() + 1] += 1;
            self.offsets[edge.v.index() + 1] += 1;
        }
        for u in 0..n {
            self.offsets[u + 1] += self.offsets[u];
        }
        // `offsets[u]` is `u`'s start and doubles as its write cursor, so
        // after the fill it is `u`'s end — the next node's start.
        self.adjacency.clear();
        self.adjacency.resize(2 * self.edges.len(), (NONE, NONE));
        for &e in &self.edges {
            let edge = g.edge(e);
            for (a, b) in [(edge.u, edge.v), (edge.v, edge.u)] {
                let cursor = &mut self.offsets[a.index()];
                self.adjacency[*cursor as usize] = (b.0, e.0);
                *cursor += 1;
            }
        }
        self.offsets.copy_within(0..n, 1);
        self.offsets[0] = 0;

        self.parent.clear();
        self.parent.resize(n, (NONE, NONE));
        self.tin.clear();
        self.tin.resize(n, NONE);
        self.tout.clear();
        self.tout.resize(n, 0);
        self.root.clear();
        self.root.resize(n, NONE);
        self.order.clear();
        // Every node is pushed once, so `n` slots never regrow.
        self.stack.clear();
        self.stack.reserve(n);
        for r in 0..n {
            if self.tin[r] != NONE {
                continue;
            }
            self.root[r] = r as u32;
            self.stack.push(r as u32);
            // Children are pushed above their later siblings, so a whole
            // subtree is visited before the next sibling pops: subtrees
            // are contiguous in `order`.
            while let Some(u) = self.stack.pop() {
                let u = u as usize;
                assert!(self.order.len() < n, "tree edges contain a cycle");
                self.tin[u] = self.order.len() as u32;
                self.tout[u] = self.tin[u] + 1;
                self.order.push(u as u32);
                let up = self.parent[u].1;
                let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
                for &(v, e) in &self.adjacency[lo..hi] {
                    if e != up {
                        self.parent[v as usize] = (u as u32, e);
                        self.root[v as usize] = r as u32;
                        self.stack.push(v);
                    }
                }
            }
        }
        // Every descendant follows its ancestor in pre-order, so one
        // reverse sweep closes each interval before its parent reads it.
        for &u in self.order.iter().rev() {
            let (p, end) = (self.parent[u as usize].0, self.tout[u as usize]);
            if p != NONE {
                self.tout[p as usize] = self.tout[p as usize].max(end);
            }
        }
    }
}

/// Sample a uniform random spanning forest of the `mask`-up subgraph with
/// Wilson's loop-erased random walk, into `forest`.
///
/// Each connected component is spanned by a tree drawn uniformly from
/// that component's spanning trees. Deterministic given the RNG stream:
/// every step draws `gen_range(0..d)` once, `d` being the walker's count
/// of up neighbors, and takes the draw-th of them in adjacency order.
pub fn random_spanning_forest<R: Rng>(
    g: &Graph,
    mask: &EdgeMask,
    rng: &mut R,
    forest: &mut RootedForest,
) {
    let n = g.node_count();
    forest.edges.clear();
    forest.edges.reserve(n);
    // The lowest-id node of each up-component seeds the tree so every
    // walk has something to hit.
    forest.flood_components(g, mask);
    forest.flag.clear();
    forest
        .flag
        .extend(forest.root.iter().enumerate().map(|(u, &r)| r == u as u32));
    // Walk pointers: the last exit taken from each node during the
    // current walk. Following them after the walk hits the tree yields
    // the loop-erased path for free.
    forest.exit.clear();
    forest.exit.resize(n, (NONE, NONE));
    let in_tree = &mut forest.flag;
    for start in g.nodes() {
        // Random walk from `start` until the tree is hit, remembering
        // only the last exit per node (implicit loop erasure).
        let mut u = start;
        while !in_tree[u.index()] {
            let up = || g.neighbors(u).iter().filter(|&&(_, e)| mask.is_up(e));
            let pick = rng.gen_range(0..up().count());
            let &(v, e) = up().nth(pick).expect("pick is below the up-neighbor count");
            forest.exit[u.index()] = (v.0, e.0);
            u = v;
        }
        // Commit the loop-erased path.
        let mut u = start.index();
        while !in_tree[u] {
            let (v, e) = forest.exit[u];
            in_tree[u] = true;
            forest.edges.push(EdgeId(e));
            u = v as usize;
        }
    }
    forest.root_components(g);
}

/// A low-stretch tree proxy, into `forest`: the shortest-path tree of the
/// `mask`-up subgraph rooted at a random node, under the supplied
/// weights, computed on the caller's `ws`.
///
/// A true low-stretch spanning tree (Abraham–Bartal–Neiman) is overkill
/// here; an SPT from a random center already keeps tree-path stretch
/// small on ISP-scale graphs while being exactly reproducible from the
/// RNG stream.
pub fn low_stretch_forest<R: Rng>(
    g: &Graph,
    weights: &[f64],
    mask: &EdgeMask,
    rng: &mut R,
    ws: &mut SpfWorkspace,
    forest: &mut RootedForest,
) {
    let n = g.node_count();
    forest.edges.clear();
    forest.edges.reserve(n);
    if n > 0 {
        // The SPT from the random center spans its component; remaining
        // components get their own SPTs from their lowest-id node, so
        // the forest spans every up-component like the Wilson sampler's.
        let covered = &mut forest.flag;
        covered.clear();
        covered.resize(n, false);
        let mut center = rng.gen_range(0..n as u32) as usize;
        let mut next_probe = 0;
        loop {
            ws.run(g, NodeId(center as u32), weights, Some(mask));
            covered[center] = true;
            for (i, p) in ws.parents().iter().enumerate() {
                if let Some((_, e)) = p {
                    covered[i] = true;
                    forest.edges.push(*e);
                }
            }
            while next_probe < n && covered[next_probe] {
                next_probe += 1;
            }
            if next_probe == n {
                break;
            }
            center = next_probe;
        }
    }
    forest.root_components(g);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn grid() -> Graph {
        // 3x3 grid, unit weights.
        from_edges(
            9,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (6, 7, 1.0),
                (7, 8, 1.0),
                (0, 3, 1.0),
                (3, 6, 1.0),
                (1, 4, 1.0),
                (4, 7, 1.0),
                (2, 5, 1.0),
                (5, 8, 1.0),
            ],
        )
    }

    fn wilson(g: &Graph, mask: &EdgeMask, seed: u64) -> RootedForest {
        let mut forest = RootedForest::new();
        random_spanning_forest(g, mask, &mut StdRng::seed_from_u64(seed), &mut forest);
        forest
    }

    /// `u`'s next hop toward `t`, read off the rooted arrays: the child
    /// whose subtree holds `t`, else the parent.
    fn next_hop(f: &RootedForest, u: usize, t: usize) -> Option<(u32, u32)> {
        if u == t || !f.component(u).contains(&(t as u32)) {
            return None;
        }
        let up = f.parent(u);
        f.neighbors(u)
            .iter()
            .copied()
            .find(|&(c, e)| {
                up.map(|p| p.1) != Some(e) && f.subtree(c as usize).contains(&(t as u32))
            })
            .or(up)
    }

    fn assert_spanning(g: &Graph, f: &RootedForest, components: usize) {
        assert_eq!(f.edges().len(), g.node_count() - components);
        // n - c edges + exactly c rooted components = acyclic and
        // spanning.
        let roots = (0..g.node_count()).filter(|&u| f.parent(u).is_none());
        assert_eq!(roots.count(), components);
        // Subtree intervals nest: a node's interval covers its children's.
        for u in 0..g.node_count() {
            assert_eq!(f.subtree(u)[0], u as u32);
            if let Some((p, _)) = f.parent(u) {
                let (outer, inner) = (f.subtree(p as usize), f.subtree(u));
                assert!(inner.iter().all(|d| outer.contains(d)));
                assert!(inner.len() < outer.len());
            }
        }
    }

    #[test]
    fn wilson_spans_connected_graph() {
        let g = grid();
        let f = wilson(&g, &EdgeMask::all_up(g.edge_count()), 7);
        assert_spanning(&g, &f, 1);
        // Every node other than the destination has a next hop toward it,
        // and following next hops arrives.
        for t in 0..9 {
            assert_eq!(next_hop(&f, t, t), None);
            for s in 0..9 {
                let (mut at, mut hops) = (s, 0);
                while at != t {
                    at = next_hop(&f, at, t).expect("tree spans the grid").0 as usize;
                    hops += 1;
                    assert!(hops < 9, "loop from {s} toward {t}");
                }
            }
        }
    }

    #[test]
    fn wilson_is_deterministic_per_seed_and_varies_across_seeds() {
        let g = grid();
        let mask = EdgeMask::all_up(g.edge_count());
        assert_eq!(wilson(&g, &mask, 3).edges(), wilson(&g, &mask, 3).edges());
        let distinct: HashSet<Vec<EdgeId>> = (0..16)
            .map(|s| wilson(&g, &mask, s).edges().to_vec())
            .collect();
        assert!(distinct.len() > 1, "16 seeds should not all pick one tree");
    }

    #[test]
    fn wilson_respects_mask_and_spans_components() {
        let g = grid();
        // Cut the grid into left column {0,3,6} and the rest by failing
        // the three horizontal edges out of the left column.
        let mut mask = EdgeMask::all_up(g.edge_count());
        for (i, e) in g.edges().iter().enumerate() {
            let (a, b) = (e.u.0, e.v.0);
            let left = |x: u32| x == 0 || x == 3 || x == 6;
            if left(a) != left(b) {
                mask.fail(EdgeId(i as u32));
            }
        }
        let f = wilson(&g, &mask, 5);
        for &e in f.edges() {
            assert!(mask.is_up(e), "tree used a failed edge");
        }
        assert_spanning(&g, &f, 2);
        assert_eq!(f.component(3), &[0u32, 3, 6][..]);
        assert_eq!(next_hop(&f, 0, 4), None, "no route across the cut");
    }

    #[test]
    fn low_stretch_forest_is_a_shortest_path_tree() {
        let g = grid();
        let mask = EdgeMask::all_up(g.edge_count());
        let mut rng = StdRng::seed_from_u64(11);
        let mut f = RootedForest::new();
        let mut ws = SpfWorkspace::new();
        low_stretch_forest(&g, &g.base_weights(), &mask, &mut rng, &mut ws, &mut f);
        assert_spanning(&g, &f, 1);
    }

    #[test]
    fn rooting_orients_a_path_toward_every_destination() {
        let g = from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let mut f = RootedForest::new();
        f.edges.extend([EdgeId(2), EdgeId(0), EdgeId(1)]);
        f.root_components(&g);
        assert_eq!(f.parent(0), None);
        assert_eq!(f.parent(2), Some((1, 1)));
        assert_eq!(f.subtree(1), &[1u32, 2, 3][..]);
        assert_eq!(next_hop(&f, 0, 3), Some((1, 0)));
        assert_eq!(next_hop(&f, 2, 3), Some((3, 2)));
        assert_eq!(next_hop(&f, 3, 0), Some((2, 2)));
        assert_eq!(next_hop(&f, 3, 3), None);
    }

    #[test]
    fn single_node_graph() {
        let g = from_edges(1, &[]);
        let f = wilson(&g, &EdgeMask::all_up(0), 1);
        assert!(f.edges().is_empty());
        assert_eq!(f.component(0), &[0u32][..]);
    }
}
