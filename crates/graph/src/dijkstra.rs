//! Dijkstra's algorithm producing destination-rooted shortest-path trees.
//!
//! Because the graph is undirected, a tree computed *from* the root equals
//! the tree of shortest paths *toward* the root, which is exactly the FIB a
//! link-state router installs for that destination. The weight vector is a
//! parameter so that each splicing slice can run the same topology under
//! its own perturbed weights.
//!
//! Ties are broken deterministically by preferring the lower-numbered
//! parent node (and then lower edge id), so that two runs over identical
//! inputs produce identical trees — a requirement for reproducible
//! Monte-Carlo experiments with common random numbers.

use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};
use crate::mask::EdgeMask;
use crate::spt::Spt;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Why a weight vector is unusable for shortest-path computation.
///
/// Slice builders validate weights up front with [`validate_weights`] and
/// surface this error, instead of tripping a panic deep inside the heap
/// comparator on a NaN produced by a bad perturbation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightError {
    /// The vector is not edge-indexed: one entry per edge is required.
    LengthMismatch {
        /// The graph's edge count.
        expected: usize,
        /// The vector's length.
        got: usize,
    },
    /// An entry is NaN, infinite, zero, or negative.
    BadWeight {
        /// The offending edge.
        edge: EdgeId,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WeightError::LengthMismatch { expected, got } => write!(
                f,
                "weight vector length {got} must equal edge count {expected}"
            ),
            WeightError::BadWeight { edge, value } => {
                write!(f, "weight {value} on {edge:?} must be positive and finite")
            }
        }
    }
}

impl std::error::Error for WeightError {}

/// Check that `weights` is edge-indexed and every entry is a positive,
/// finite number — the preconditions Dijkstra's relaxations rely on.
pub fn validate_weights(g: &Graph, weights: &[f64]) -> Result<(), WeightError> {
    if weights.len() != g.edge_count() {
        return Err(WeightError::LengthMismatch {
            expected: g.edge_count(),
            got: weights.len(),
        });
    }
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w <= 0.0 {
            return Err(WeightError::BadWeight {
                edge: EdgeId(i as u32),
                value: w,
            });
        }
    }
    Ok(())
}

/// Heap entry: min-heap by distance, tie-broken by node id.
#[derive(Copy, Clone, Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap semantics on BinaryHeap (a max-heap).
        // `total_cmp` gives a total order even on NaN (which validated
        // weights never produce), so ordering cannot panic.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable Dijkstra buffers: distance, parent, settled flags, and the
/// heap, reset in O(n) per run instead of reallocated.
///
/// A splicing build runs k·n destination-rooted Dijkstras over one graph;
/// holding one workspace across all of them keeps the hot loop free of
/// allocator traffic. Results are read through [`SpfWorkspace::parents`]
/// and [`SpfWorkspace::distances`] immediately after [`SpfWorkspace::run`].
#[derive(Debug, Default)]
pub struct SpfWorkspace {
    dist: Vec<f64>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    /// Scratch for repair: per-node clean/dirty classification.
    mark: Vec<u8>,
}

/// `mark` value: the node's tree chain avoids every affected edge, so its
/// distance and parent are provably unchanged by the event.
const MARK_CLEAN: u8 = 1;
/// `mark` value: the node is in an affected subtree and must be re-relaxed.
const MARK_DIRTY: u8 = 2;

impl SpfWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> SpfWorkspace {
        SpfWorkspace::default()
    }

    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(n, None);
        self.settled.clear();
        self.settled.resize(n, false);
        self.heap.clear();
    }

    /// Run Dijkstra rooted at `root` under `weights`, skipping edges
    /// failed in `mask` (if any). Identical tie-breaking to [`dijkstra`]:
    /// lower parent node id, then lower edge id — trees are bit-identical
    /// whichever entry point computes them.
    ///
    /// # Panics
    /// Panics if `weights.len() != g.edge_count()`.
    pub fn run(&mut self, g: &Graph, root: NodeId, weights: &[f64], mask: Option<&EdgeMask>) {
        assert_eq!(
            weights.len(),
            g.edge_count(),
            "weight vector length must equal edge count"
        );
        self.reset(g.node_count());
        self.dist[root.index()] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: root,
        });
        self.drain(g, weights, mask);
    }

    /// The shared settle loop: pop in distance order, relax neighbors with
    /// the deterministic tie-break. Used by both full runs ([`Self::run`])
    /// and incremental repairs, so repaired trees are produced by the exact
    /// relaxation rule a from-scratch build uses.
    fn drain(&mut self, g: &Graph, weights: &[f64], mask: Option<&EdgeMask>) {
        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            if self.settled[u.index()] {
                continue;
            }
            self.settled[u.index()] = true;
            for &(v, e) in g.neighbors(u) {
                if let Some(m) = mask {
                    if m.is_failed(e) {
                        continue;
                    }
                }
                if self.settled[v.index()] {
                    continue;
                }
                // Weight sanity is [`validate_weights`]'s job at slice-build
                // time; the hot loop stays assertion-free and, thanks to
                // `total_cmp`, terminates even on smuggled NaN.
                let nd = d + weights[e.index()];
                if self.offer(u, e, v, nd) {
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
    }

    /// Offer `v` the route "via `u` over `e` at distance `nd`"; record it
    /// if it is better under the canonical rule (strictly shorter, or equal
    /// with a lexicographically smaller `(parent node, edge)` pair) and
    /// report whether it was taken.
    ///
    /// The equal-distance tie-break makes the final parent a pure function
    /// of the exact distances: whichever order offers arrive in, the stored
    /// parent converges to the lexicographic minimum over all optimal
    /// predecessors. That is what lets an incremental repair reproduce a
    /// full rebuild bit for bit.
    #[inline]
    fn offer(&mut self, u: NodeId, e: EdgeId, v: NodeId, nd: f64) -> bool {
        let better = match nd.total_cmp(&self.dist[v.index()]) {
            Ordering::Less => true,
            // Deterministic tie-break: prefer the lower parent node
            // id, then the lower edge id.
            Ordering::Equal => match self.parent[v.index()] {
                Some((pu, pe)) => (u, e) < (pu, pe),
                None => true,
            },
            Ordering::Greater => false,
        };
        if better {
            self.dist[v.index()] = nd;
            self.parent[v.index()] = Some((u, e));
        }
        better
    }

    /// Parent pointers of the last run: `parents()[u]` is `u`'s next hop
    /// and outgoing edge toward the root (`None` at the root itself and on
    /// unreachable nodes).
    #[inline]
    pub fn parents(&self) -> &[Option<(NodeId, EdgeId)>] {
        &self.parent
    }

    /// Distances of the last run, `f64::INFINITY` when unreachable.
    #[inline]
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Load an existing shortest-path tree into the workspace so it can be
    /// repaired incrementally: `parent_of(u)` supplies `u`'s stored next
    /// hop and outgoing edge toward `root` (`None` at the root and on
    /// unreachable nodes), exactly the shape a FIB column stores.
    ///
    /// Distances are reconstructed by walking parent chains and summing
    /// `weights` parent-first — the same `dist[parent] + w(edge)` additions
    /// the original Dijkstra run performed, so the reconstructed values are
    /// bit-identical to the ones the full run computed.
    ///
    /// # Panics
    /// Panics if `weights.len() != g.edge_count()` or the parent pointers
    /// contain a cycle.
    pub fn load_tree<F>(&mut self, g: &Graph, root: NodeId, weights: &[f64], parent_of: F)
    where
        F: Fn(usize) -> Option<(NodeId, EdgeId)>,
    {
        assert_eq!(
            weights.len(),
            g.edge_count(),
            "weight vector length must equal edge count"
        );
        let n = g.node_count();
        self.reset(n);
        self.dist[root.index()] = 0.0;
        self.settled[root.index()] = true;
        for u in 0..n {
            self.parent[u] = parent_of(u);
        }
        debug_assert!(self.parent[root.index()].is_none(), "root has no parent");
        let mut chain = Vec::new();
        for start in 0..n {
            if self.settled[start] || self.parent[start].is_none() {
                continue;
            }
            chain.clear();
            let mut u = start;
            while !self.settled[u] {
                match self.parent[u] {
                    Some((p, _)) => {
                        chain.push(u);
                        assert!(chain.len() <= n, "parent pointers contain a cycle");
                        u = p.index();
                    }
                    None => break,
                }
            }
            if self.settled[u] {
                // Chain reaches the root: fill distances parent-first.
                while let Some(v) = chain.pop() {
                    let (p, e) = self.parent[v].expect("chained node has a parent");
                    self.dist[v] = self.dist[p.index()] + weights[e.index()];
                    self.settled[v] = true;
                }
            } else {
                // Chain dead-ends at a parentless non-root node; such
                // entries cannot come from a valid SPT — treat the whole
                // chain as unreachable rather than trusting them.
                for &v in &chain {
                    self.parent[v] = None;
                }
            }
        }
    }

    /// Classify every node as clean or dirty by walking its parent chain:
    /// dirty if the chain passes through a node for which `dirty_root`
    /// returns true (chains are memoized, so this is O(n) total). Returns
    /// the dirty count.
    fn mark_dirty_subtrees<F>(&mut self, root: NodeId, dirty_root: F) -> usize
    where
        F: Fn(usize, Option<(NodeId, EdgeId)>) -> bool,
    {
        let n = self.parent.len();
        self.mark.clear();
        self.mark.resize(n, 0);
        self.mark[root.index()] = MARK_CLEAN;
        let mut dirty = 0usize;
        let mut chain = Vec::new();
        for start in 0..n {
            if self.mark[start] != 0 {
                continue;
            }
            chain.clear();
            let mut u = start;
            let state = loop {
                if self.mark[u] != 0 {
                    break self.mark[u];
                }
                chain.push(u);
                assert!(chain.len() <= n, "parent pointers contain a cycle");
                if dirty_root(u, self.parent[u]) {
                    break MARK_DIRTY;
                }
                match self.parent[u] {
                    Some((p, _)) => u = p.index(),
                    // Unreachable before the event; stays untouched.
                    None => break MARK_CLEAN,
                }
            };
            for &v in &chain {
                self.mark[v] = state;
                if state == MARK_DIRTY {
                    dirty += 1;
                }
            }
        }
        dirty
    }

    /// Reset every dirty node, then re-seed each one from its settled
    /// (clean, reachable) neighbors over up edges and run the shared
    /// settle loop. The seeding offers every clean optimal predecessor
    /// before any dirty node settles; dirty predecessors are offered in
    /// settle order, exactly as in a full run — so the recomputed subtree
    /// is bit-identical to a from-scratch rebuild.
    fn reseed_dirty(&mut self, g: &Graph, weights: &[f64], mask: &EdgeMask) {
        self.heap.clear();
        for u in 0..self.mark.len() {
            if self.mark[u] == MARK_DIRTY {
                self.dist[u] = f64::INFINITY;
                self.parent[u] = None;
                self.settled[u] = false;
            }
        }
        for d in 0..self.mark.len() {
            if self.mark[d] != MARK_DIRTY {
                continue;
            }
            let v = NodeId(d as u32);
            for &(u, e) in g.neighbors(v) {
                if mask.is_failed(e) || !self.settled[u.index()] {
                    continue;
                }
                let nd = self.dist[u.index()] + weights[e.index()];
                if self.offer(u, e, v, nd) {
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        self.drain(g, weights, Some(mask));
    }

    /// Incrementally repair the loaded tree after the links in
    /// `newly_failed` went down. `mask` is the *new* cumulative failure
    /// mask (with `newly_failed` already failed); the workspace must hold
    /// the tree that was correct immediately before the event (via
    /// [`Self::run`], [`Self::load_tree`], or a previous repair).
    ///
    /// Only the subtrees hanging below a failed tree edge are recomputed;
    /// every other node's distance and parent are provably unchanged.
    /// Returns the number of affected (re-relaxed) nodes — the repair
    /// frontier.
    pub fn repair_failures(
        &mut self,
        g: &Graph,
        root: NodeId,
        weights: &[f64],
        mask: &EdgeMask,
        newly_failed: &[EdgeId],
    ) -> usize {
        assert_eq!(
            weights.len(),
            g.edge_count(),
            "weight vector length must equal edge count"
        );
        assert_eq!(
            self.dist.len(),
            g.node_count(),
            "workspace does not hold a tree for this graph"
        );
        let dirty = self.mark_dirty_subtrees(
            root,
            |_, p| matches!(p, Some((_, e)) if newly_failed.contains(&e)),
        );
        if dirty > 0 {
            self.reseed_dirty(g, weights, mask);
        }
        dirty
    }

    /// Incrementally repair the loaded tree after `edge`'s weight changed
    /// from `old_weight` to `weights[edge]` (`weights` is the full *new*
    /// vector). The workspace must hold the tree that was correct under
    /// the old weights and `mask`. Returns the number of nodes whose
    /// distance or parent changed.
    ///
    /// Weight increases repair the failed-link way: only the subtree below
    /// `edge` (when it is a tree edge) is re-relaxed; an increase on a
    /// non-tree edge is a complete no-op. Weight decreases propagate
    /// strict improvements outward from `edge` and then recompute the
    /// canonical parent wherever a distance changed — parents are a pure
    /// function of exact distances under the deterministic tie-break, so
    /// this too matches a full rebuild bit for bit.
    pub fn repair_reweight(
        &mut self,
        g: &Graph,
        root: NodeId,
        weights: &[f64],
        mask: &EdgeMask,
        edge: EdgeId,
        old_weight: f64,
    ) -> usize {
        assert_eq!(
            weights.len(),
            g.edge_count(),
            "weight vector length must equal edge count"
        );
        assert_eq!(
            self.dist.len(),
            g.node_count(),
            "workspace does not hold a tree for this graph"
        );
        let new_w = weights[edge.index()];
        assert!(
            new_w.is_finite() && new_w > 0.0,
            "weight {new_w} on {edge:?} must be positive and finite"
        );
        if mask.is_failed(edge) || new_w == old_weight {
            return 0;
        }
        let (eu, ev) = (g.edge(edge).u, g.edge(edge).v);
        if new_w > old_weight {
            // Increase: affects shortest paths only when `edge` carries
            // tree traffic, i.e. one endpoint's parent pointer crosses it.
            let child = if self.parent[eu.index()] == Some((ev, edge)) {
                Some(eu)
            } else if self.parent[ev.index()] == Some((eu, edge)) {
                Some(ev)
            } else {
                None
            };
            let Some(x) = child else { return 0 };
            let dirty = self.mark_dirty_subtrees(root, |u, _| u == x.index());
            self.reseed_dirty(g, weights, mask);
            return dirty;
        }
        self.relax_improved_edge(g, root, weights, mask, edge)
    }

    /// Incrementally repair the loaded tree after `edge` came back up.
    /// `mask` is the *new* failure mask (with `edge` already restored);
    /// the workspace must hold the tree that was correct under `weights`
    /// while `edge` was still down. Returns the number of nodes whose
    /// distance or parent changed.
    ///
    /// A restored link is a weight decrease from +∞: it can only improve
    /// distances, re-attach a component that was cut off, or win the
    /// `(parent, edge)` tie-break at one of its endpoints — the same
    /// relaxation [`Self::repair_reweight`] runs for a cheaper link, so
    /// the result matches a full rebuild bit for bit.
    pub fn repair_restore(
        &mut self,
        g: &Graph,
        root: NodeId,
        weights: &[f64],
        mask: &EdgeMask,
        edge: EdgeId,
    ) -> usize {
        assert_eq!(
            weights.len(),
            g.edge_count(),
            "weight vector length must equal edge count"
        );
        assert_eq!(
            self.dist.len(),
            g.node_count(),
            "workspace does not hold a tree for this graph"
        );
        assert!(mask.is_up(edge), "{edge:?} must be up in the new mask");
        self.relax_improved_edge(g, root, weights, mask, edge)
    }

    /// `edge` just got better — cheaper, or back up — and every other
    /// constraint of the loaded tree still holds: relax `edge` in both
    /// directions under `weights`, then propagate strict improvements.
    /// Distances converge to the exact fixpoint (every value is some
    /// path's weight fold, and every edge constraint is re-checked when
    /// its tail improves); parents are then recomputed canonically.
    /// Returns the number of nodes whose distance or parent changed.
    fn relax_improved_edge(
        &mut self,
        g: &Graph,
        root: NodeId,
        weights: &[f64],
        mask: &EdgeMask,
        edge: EdgeId,
    ) -> usize {
        let (eu, ev) = (g.edge(edge).u, g.edge(edge).v);
        let w = weights[edge.index()];
        self.heap.clear();
        self.mark.clear();
        self.mark.resize(g.node_count(), 0);
        let mut changed = 0usize;
        for (a, b) in [(eu, ev), (ev, eu)] {
            if self.dist[a.index()].is_finite() {
                let nd = self.dist[a.index()] + w;
                if nd.total_cmp(&self.dist[b.index()]) == Ordering::Less {
                    self.dist[b.index()] = nd;
                    self.heap.push(HeapEntry { dist: nd, node: b });
                    if self.mark[b.index()] == 0 {
                        self.mark[b.index()] = MARK_DIRTY;
                        changed += 1;
                    }
                }
            }
        }
        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            if d.total_cmp(&self.dist[u.index()]) == Ordering::Greater {
                continue; // stale entry, a better one was pushed later
            }
            for &(v, e) in g.neighbors(u) {
                if mask.is_failed(e) {
                    continue;
                }
                let nd = d + weights[e.index()];
                if nd.total_cmp(&self.dist[v.index()]) == Ordering::Less {
                    self.dist[v.index()] = nd;
                    self.heap.push(HeapEntry { dist: nd, node: v });
                    if self.mark[v.index()] == 0 {
                        self.mark[v.index()] = MARK_DIRTY;
                        changed += 1;
                    }
                }
            }
        }
        if changed == 0 {
            // No distance moved, but the edge may have become an optimal
            // predecessor of one of its endpoints, which can win the
            // lexicographic tie-break.
            let mut touched = 0usize;
            for v in [eu, ev] {
                if self.recompute_parent(g, weights, mask, root, v) {
                    touched += 1;
                }
            }
            return touched;
        }
        // Some distances dropped, so any node adjacent to a changed one
        // may have gained a better-ranked optimal predecessor: recompute
        // every canonical parent from the (now exact) distances.
        for v in g.nodes() {
            self.recompute_parent(g, weights, mask, root, v);
        }
        changed
    }

    /// Set `parent[v]` to the canonical choice — the lexicographically
    /// smallest `(u, e)` over up edges with `dist[u] + w(e) == dist[v]` —
    /// and report whether it changed. This is exactly the parent a full
    /// Dijkstra run converges to under the equal-distance tie-break.
    fn recompute_parent(
        &mut self,
        g: &Graph,
        weights: &[f64],
        mask: &EdgeMask,
        root: NodeId,
        v: NodeId,
    ) -> bool {
        if v == root || !self.dist[v.index()].is_finite() {
            return false;
        }
        let dv = self.dist[v.index()];
        let mut best: Option<(NodeId, EdgeId)> = None;
        for &(u, e) in g.neighbors(v) {
            if mask.is_failed(e) {
                continue;
            }
            let du = self.dist[u.index()];
            if !du.is_finite() {
                continue;
            }
            if (du + weights[e.index()]).total_cmp(&dv) == Ordering::Equal
                && best.is_none_or(|b| (u, e) < b)
            {
                best = Some((u, e));
            }
        }
        if self.parent[v.index()] != best {
            self.parent[v.index()] = best;
            true
        } else {
            false
        }
    }
}

/// Compute the shortest-path tree rooted at `root` under `weights`.
///
/// `weights` must have one positive, finite entry per edge, indexed by
/// [`EdgeId`]. All links are considered up; see [`dijkstra_masked`] for
/// failure scenarios.
///
/// Weights are assumed positive and finite — run [`validate_weights`]
/// first when they come from untrusted input. Ordering inside the walk
/// uses `f64::total_cmp`, so even a NaN that slips past validation
/// terminates the walk instead of panicking a comparator.
///
/// # Panics
/// Panics if `weights.len() != g.edge_count()`.
pub fn dijkstra(g: &Graph, root: NodeId, weights: &[f64]) -> Spt {
    dijkstra_inner(g, root, weights, None)
}

/// Like [`dijkstra`], but edges failed in `mask` are skipped entirely.
pub fn dijkstra_masked(g: &Graph, root: NodeId, weights: &[f64], mask: &EdgeMask) -> Spt {
    dijkstra_inner(g, root, weights, Some(mask))
}

fn dijkstra_inner(g: &Graph, root: NodeId, weights: &[f64], mask: Option<&EdgeMask>) -> Spt {
    let mut ws = SpfWorkspace::new();
    ws.run(g, root, weights, mask);
    Spt {
        root,
        dist: std::mem::take(&mut ws.dist),
        parent: std::mem::take(&mut ws.parent),
    }
}

/// Compute one SPT per destination: `result[t.index()]` is the tree rooted
/// at `t`. This is exactly the state one routing-protocol instance (one
/// slice) installs across the network.
pub fn all_destinations(g: &Graph, weights: &[f64]) -> Vec<Spt> {
    g.nodes().map(|t| dijkstra(g, t, weights)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;

    /// The classic diamond: two routes 0->3, lengths 3 (via 1) and 4 (via 2).
    fn diamond() -> Graph {
        from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)])
    }

    #[test]
    fn picks_shorter_route() {
        let g = diamond();
        let spt = dijkstra(&g, NodeId(3), &g.base_weights());
        assert_eq!(spt.distance(NodeId(0)), 3.0);
        assert_eq!(spt.next_hop(NodeId(0)), Some(NodeId(1)));
    }

    #[test]
    fn alternate_weights_change_route() {
        let g = diamond();
        // Inflate the 1-3 link: now via 2 is shorter.
        let w = vec![1.0, 10.0, 2.0, 2.0];
        let spt = dijkstra(&g, NodeId(3), &w);
        assert_eq!(spt.distance(NodeId(0)), 4.0);
        assert_eq!(spt.next_hop(NodeId(0)), Some(NodeId(2)));
    }

    #[test]
    fn masked_edge_is_avoided() {
        let g = diamond();
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(1)); // kill 1-3
        let spt = dijkstra_masked(&g, NodeId(3), &g.base_weights(), &mask);
        assert_eq!(spt.next_hop(NodeId(0)), Some(NodeId(2)));
        assert_eq!(spt.distance(NodeId(0)), 4.0);
    }

    #[test]
    fn disconnection_under_mask() {
        let g = from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let mut mask = EdgeMask::all_up(2);
        mask.fail(EdgeId(1));
        let spt = dijkstra_masked(&g, NodeId(2), &g.base_weights(), &mask);
        assert!(!spt.reaches(NodeId(0)));
        assert!(!spt.reaches(NodeId(1)));
        assert!(spt.reaches(NodeId(2)));
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-length routes 0->1->3 and 0->2->3; parent of 3 must be
        // the lower node id (1) every time.
        let g = from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        for _ in 0..10 {
            let spt = dijkstra(&g, NodeId(0), &g.base_weights());
            assert_eq!(spt.next_hop(NodeId(3)), Some(NodeId(1)));
        }
    }

    #[test]
    fn parallel_edges_use_cheapest() {
        let g = from_edges(2, &[(0, 1, 5.0), (0, 1, 1.0)]);
        let spt = dijkstra(&g, NodeId(1), &g.base_weights());
        assert_eq!(spt.distance(NodeId(0)), 1.0);
        assert_eq!(spt.next_edge(NodeId(0)), Some(EdgeId(1)));
    }

    #[test]
    fn all_destinations_gives_n_trees() {
        let g = diamond();
        let trees = all_destinations(&g, &g.base_weights());
        assert_eq!(trees.len(), 4);
        for (i, t) in trees.iter().enumerate() {
            assert_eq!(t.root, NodeId(i as u32));
            assert_eq!(t.distance(t.root), 0.0);
        }
    }

    #[test]
    fn spt_distances_satisfy_triangle_property() {
        // For every tree edge (u -> parent p via e): dist[u] = dist[p] + w(e).
        let g = diamond();
        let w = g.base_weights();
        let spt = dijkstra(&g, NodeId(0), &w);
        for u in g.nodes() {
            if let Some((p, e)) = spt.parent[u.index()] {
                let expect = spt.dist[p.index()] + w[e.index()];
                assert!((spt.dist[u.index()] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn wrong_weight_length_panics() {
        let g = diamond();
        dijkstra(&g, NodeId(0), &[1.0]);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let g = diamond();
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            ws.run(&g, root, &w, None);
            let fresh = dijkstra(&g, root, &w);
            assert_eq!(ws.parents(), &fresh.parent[..], "root {root:?}");
            assert_eq!(ws.distances(), &fresh.dist[..], "root {root:?}");
        }
        // Masked runs through the same workspace also match.
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(1));
        ws.run(&g, NodeId(3), &w, Some(&mask));
        let fresh = dijkstra_masked(&g, NodeId(3), &w, &mask);
        assert_eq!(ws.parents(), &fresh.parent[..]);
    }

    #[test]
    fn validate_weights_accepts_good_vectors() {
        let g = diamond();
        assert_eq!(validate_weights(&g, &g.base_weights()), Ok(()));
    }

    #[test]
    fn validate_weights_rejects_bad_vectors() {
        let g = diamond();
        assert_eq!(
            validate_weights(&g, &[1.0]),
            Err(WeightError::LengthMismatch {
                expected: 4,
                got: 1
            })
        );
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut w = g.base_weights();
            w[2] = bad;
            match validate_weights(&g, &w) {
                Err(WeightError::BadWeight { edge, .. }) => assert_eq!(edge, EdgeId(2)),
                other => panic!("expected BadWeight for {bad}, got {other:?}"),
            }
        }
        // The error renders a human-readable message.
        let msg = validate_weights(&g, &[1.0]).unwrap_err().to_string();
        assert!(msg.contains("weight vector length"), "{msg}");
    }

    /// Assert the workspace holds exactly the tree a fresh masked run
    /// computes: distances and parents, bit for bit.
    fn assert_matches_fresh(
        ws: &SpfWorkspace,
        g: &Graph,
        root: NodeId,
        w: &[f64],
        mask: &EdgeMask,
    ) {
        let fresh = dijkstra_masked(g, root, w, mask);
        assert_eq!(ws.parents(), &fresh.parent[..], "parents, root {root:?}");
        assert_eq!(ws.distances(), &fresh.dist[..], "distances, root {root:?}");
    }

    #[test]
    fn load_tree_reconstructs_run_state() {
        let g = diamond();
        let w = g.base_weights();
        for root in g.nodes() {
            let fresh = dijkstra(&g, root, &w);
            let mut ws = SpfWorkspace::new();
            ws.load_tree(&g, root, &w, |u| fresh.parent[u]);
            assert_eq!(ws.parents(), &fresh.parent[..]);
            assert_eq!(ws.distances(), &fresh.dist[..]);
        }
    }

    #[test]
    fn load_tree_leaves_unreachable_nodes_alone() {
        let g = from_edges(3, &[(0, 1, 1.0)]); // node 2 isolated
        let fresh = dijkstra(&g, NodeId(0), &g.base_weights());
        let mut ws = SpfWorkspace::new();
        ws.load_tree(&g, NodeId(0), &g.base_weights(), |u| fresh.parent[u]);
        assert_eq!(ws.distances()[2], f64::INFINITY);
        assert_eq!(ws.parents()[2], None);
    }

    #[test]
    fn repair_single_failure_matches_fresh_run() {
        let g = diamond();
        let w = g.base_weights();
        for root in g.nodes() {
            for e in g.edge_ids() {
                let mut ws = SpfWorkspace::new();
                ws.run(&g, root, &w, None);
                let mut mask = EdgeMask::all_up(g.edge_count());
                mask.fail(e);
                ws.repair_failures(&g, root, &w, &mask, &[e]);
                assert_matches_fresh(&ws, &g, root, &w, &mask);
            }
        }
    }

    #[test]
    fn repair_respects_tie_break() {
        // Two equal routes to 3; fail the winning one, repair must fall
        // back exactly where a fresh run would.
        let g = from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        ws.run(&g, NodeId(0), &w, None);
        assert_eq!(ws.parents()[3], Some((NodeId(1), EdgeId(2))));
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(2));
        ws.repair_failures(&g, NodeId(0), &w, &mask, &[EdgeId(2)]);
        assert_eq!(ws.parents()[3], Some((NodeId(2), EdgeId(3))));
        assert_matches_fresh(&ws, &g, NodeId(0), &w, &mask);
    }

    #[test]
    fn repair_stacked_failures_match_fresh_run() {
        // Ring of 5 with a chord: fail two edges one after the other; each
        // repair starts from the previous repaired state.
        let g = from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
                (1, 3, 2.5),
            ],
        );
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        ws.run(&g, NodeId(0), &w, None);
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(0));
        ws.repair_failures(&g, NodeId(0), &w, &mask, &[EdgeId(0)]);
        assert_matches_fresh(&ws, &g, NodeId(0), &w, &mask);
        mask.fail(EdgeId(4));
        ws.repair_failures(&g, NodeId(0), &w, &mask, &[EdgeId(4)]);
        assert_matches_fresh(&ws, &g, NodeId(0), &w, &mask);
    }

    #[test]
    fn repair_disconnecting_failure_marks_unreachable() {
        let g = from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        ws.run(&g, NodeId(2), &w, None);
        let mut mask = EdgeMask::all_up(2);
        mask.fail(EdgeId(1));
        let frontier = ws.repair_failures(&g, NodeId(2), &w, &mask, &[EdgeId(1)]);
        assert_eq!(frontier, 2, "both 0 and 1 hang below the failed link");
        assert_matches_fresh(&ws, &g, NodeId(2), &w, &mask);
        assert_eq!(ws.distances()[0], f64::INFINITY);
    }

    #[test]
    fn repair_non_tree_failure_is_noop() {
        let g = diamond();
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        ws.run(&g, NodeId(3), &w, None);
        // 0-2 (edge 2) carries no tree traffic toward 3: 0 routes via 1,
        // 2 routes directly via edge 3.
        assert_eq!(ws.parents()[0], Some((NodeId(1), EdgeId(0))));
        assert_eq!(ws.parents()[2], Some((NodeId(3), EdgeId(3))));
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(2));
        let frontier = ws.repair_failures(&g, NodeId(3), &w, &mask, &[EdgeId(2)]);
        assert_eq!(frontier, 0);
        assert_matches_fresh(&ws, &g, NodeId(3), &w, &mask);
    }

    #[test]
    fn repair_weight_increase_matches_fresh_run() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        for root in g.nodes() {
            for e in g.edge_ids() {
                let old = g.base_weights();
                let mut new_w = old.clone();
                new_w[e.index()] *= 7.5;
                let mut ws = SpfWorkspace::new();
                ws.run(&g, root, &old, None);
                ws.repair_reweight(&g, root, &new_w, &mask, e, old[e.index()]);
                assert_matches_fresh(&ws, &g, root, &new_w, &mask);
            }
        }
    }

    #[test]
    fn repair_weight_decrease_matches_fresh_run() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        for root in g.nodes() {
            for e in g.edge_ids() {
                let old = g.base_weights();
                let mut new_w = old.clone();
                new_w[e.index()] *= 0.25;
                let mut ws = SpfWorkspace::new();
                ws.run(&g, root, &old, None);
                ws.repair_reweight(&g, root, &new_w, &mask, e, old[e.index()]);
                assert_matches_fresh(&ws, &g, root, &new_w, &mask);
            }
        }
    }

    #[test]
    fn repair_decrease_rewins_tie_break() {
        // 0-2 costs 2.0 while 0-1-3 keeps 0's route via 1; dropping 0-2 to
        // 1.0 creates an equal-cost two-hop path 0-2-3 — no distance moves
        // for node 0's route toward 3 via 1 (cost 3) vs via 2 (cost 3),
        // and the tie-break must land exactly where a fresh run does.
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        let old = g.base_weights(); // [1, 2, 2, 2]
        let mut new_w = old.clone();
        new_w[2] = 1.0; // 0-2 now 1.0: path 0-2-3 costs 3.0, ties 0-1-3
        let mut ws = SpfWorkspace::new();
        ws.run(&g, NodeId(3), &old, None);
        ws.repair_reweight(&g, NodeId(3), &new_w, &mask, EdgeId(2), old[2]);
        assert_matches_fresh(&ws, &g, NodeId(3), &new_w, &mask);
    }

    #[test]
    fn repair_reweight_same_weight_is_noop() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        ws.run(&g, NodeId(0), &w, None);
        assert_eq!(
            ws.repair_reweight(&g, NodeId(0), &w, &mask, EdgeId(1), w[1]),
            0
        );
        assert_matches_fresh(&ws, &g, NodeId(0), &w, &mask);
    }

    #[test]
    fn restore_rewins_tie_break_without_moving_a_distance() {
        // Two equal routes 0-1-3 and 0-2-3; with 1-3 down node 3 hangs
        // off 2. Restoring 1-3 moves no distance, but (1, e2) outranks
        // (2, e3) and a fresh run picks it.
        let g = from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        let w = g.base_weights();
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(2));
        let down = dijkstra_masked(&g, NodeId(0), &w, &mask);
        assert_eq!(down.parent[3], Some((NodeId(2), EdgeId(3))));
        let mut ws = SpfWorkspace::new();
        ws.load_tree(&g, NodeId(0), &w, |u| down.parent[u]);
        mask.restore(EdgeId(2));
        let touched = ws.repair_restore(&g, NodeId(0), &w, &mask, EdgeId(2));
        assert_eq!(touched, 1, "only node 3 re-picks its parent");
        assert_eq!(ws.distances(), &down.dist[..], "no distance moved");
        assert_eq!(ws.parents()[3], Some((NodeId(1), EdgeId(2))));
        assert_matches_fresh(&ws, &g, NodeId(0), &w, &mask);
    }

    #[test]
    fn restore_reattaches_an_unreachable_component() {
        // Path 0-1-2-3 with a chord 2-3: failing 1-2 cuts {2, 3} off.
        let g = from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 3, 4.0)]);
        let w = g.base_weights();
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(1));
        let down = dijkstra_masked(&g, NodeId(0), &w, &mask);
        assert_eq!(down.dist[2], f64::INFINITY);
        assert_eq!(down.parent[3], None);
        let mut ws = SpfWorkspace::new();
        ws.load_tree(&g, NodeId(0), &w, |u| down.parent[u]);
        mask.restore(EdgeId(1));
        let touched = ws.repair_restore(&g, NodeId(0), &w, &mask, EdgeId(1));
        assert_eq!(touched, 2, "both cut-off nodes come back");
        assert_eq!(ws.distances()[3], 3.0);
        assert_matches_fresh(&ws, &g, NodeId(0), &w, &mask);
        // A link between two nodes that both stay unreachable changes
        // nothing.
        mask.fail(EdgeId(1));
        mask.fail(EdgeId(2));
        let down = dijkstra_masked(&g, NodeId(0), &w, &mask);
        ws.load_tree(&g, NodeId(0), &w, |u| down.parent[u]);
        mask.restore(EdgeId(2));
        assert_eq!(ws.repair_restore(&g, NodeId(0), &w, &mask, EdgeId(2)), 0);
        assert_matches_fresh(&ws, &g, NodeId(0), &w, &mask);
    }

    #[test]
    fn restore_matches_fresh_run_for_every_root_and_edge() {
        let g = diamond();
        let w = g.base_weights();
        for root in g.nodes() {
            for e in g.edge_ids() {
                let mut mask = EdgeMask::all_up(g.edge_count());
                mask.fail(e);
                let mut ws = SpfWorkspace::new();
                ws.run(&g, root, &w, Some(&mask));
                mask.restore(e);
                ws.repair_restore(&g, root, &w, &mask, e);
                assert_matches_fresh(&ws, &g, root, &w, &mask);
            }
        }
    }

    #[test]
    fn nan_distance_does_not_panic_the_heap() {
        // Even with a NaN smuggled past validation, ordering is total:
        // the walk terminates instead of panicking in the comparator.
        let g = diamond();
        let w = vec![f64::NAN, 2.0, 2.0, 2.0];
        let spt = dijkstra(&g, NodeId(3), &w);
        assert_eq!(spt.root, NodeId(3));
    }
}
