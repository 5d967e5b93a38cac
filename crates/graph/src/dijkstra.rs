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
use std::cmp::{Ordering, Reverse};
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

/// Heap entry: min-heap by distance, tie-broken by node id, held as one
/// integer key — the distance's bits above the node — so that a heap
/// comparison is one integer comparison.
///
/// Distances are sums of positive weights, so never negative, and on
/// non-negative floats (infinity included) the bit patterns order exactly
/// as the values do. On any other input the key is still a total order,
/// so the heap cannot panic or loop.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry(Reverse<u128>);

impl HeapEntry {
    #[inline(always)]
    fn new(dist: f64, node: NodeId) -> HeapEntry {
        HeapEntry(Reverse(
            u128::from(dist.to_bits()) << 32 | u128::from(node.0),
        ))
    }

    /// The entry's distance and node.
    #[inline(always)]
    fn get(self) -> (f64, NodeId) {
        let Reverse(key) = self.0;
        (f64::from_bits((key >> 32) as u64), NodeId(key as u32))
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
    /// A full run's settled flags; [`Self::load_tree`]'s "distance
    /// known" flags.
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    /// Repair scratch, per node: `epoch` once the pass has read the
    /// node's entry from its column, `epoch + 1` once the node is also
    /// on `touched`, anything older when the pass has not reached it.
    stamp: Vec<u32>,
    /// The current repair pass's stamp; even, and advanced by two a pass.
    epoch: u32,
    /// Entries the last repair read from its column.
    loaded: usize,
    /// Scratch for [`Self::load_tree`]: the parent chain being walked.
    stack: Vec<u32>,
    /// The nodes the last repair reset or moved, each once.
    touched: Vec<NodeId>,
}

/// One batch of link changes, as a delta repair reads it: the tree's
/// final inputs, and the links that moved.
///
/// A tree link failed in the final `mask` or listed in `raised` is one
/// the batch made worse: a link down before the batch is in no tree, so
/// the failed tree links are exactly the tree links among `failed`.
/// Every other tree link is up in the final state and no dearer.
/// [`SpfWorkspace::repair`] finds the subtrees below the first and
/// relaxes under the final state.
#[derive(Clone, Copy, Debug)]
pub struct SpfDelta<'a> {
    /// The batch's final weights.
    pub weights: &'a [f64],
    /// The batch's final mask.
    pub mask: &'a EdgeMask,
    /// The links the batch failed: up before it, down in `mask`.
    pub failed: &'a [EdgeId],
    /// The links whose weight went up.
    pub raised: &'a [EdgeId],
    /// The links restored or made cheaper that are up in the final mask,
    /// each once.
    pub lowered: &'a [EdgeId],
}

/// The tree a repair starts from, read in place one node at a time: a
/// destination column as installed before the batch, and its distances.
///
/// An out-edge is the whole entry: the next hop is the link's other
/// endpoint. [`SpfWorkspace::repair`] reads a node's distance the first
/// time its pass reaches the node, and out-edges where it searches for
/// dirty subtrees or breaks a tie, so a column stored elsewhere — a FIB
/// plane's out-edge slab and the deployment's distances — is repaired
/// without being copied.
pub trait SptColumn {
    /// `u`'s installed out-edge toward the root: `None` at the root and on
    /// nodes without a route.
    fn out_edge(&self, u: NodeId) -> Option<EdgeId>;

    /// `u`'s distance to the root, `f64::INFINITY` without a route.
    fn distance(&self, u: NodeId) -> f64;
}

impl SptColumn for Spt {
    #[inline]
    fn out_edge(&self, u: NodeId) -> Option<EdgeId> {
        self.parent[u.index()].map(|(_, e)| e)
    }

    #[inline]
    fn distance(&self, u: NodeId) -> f64 {
        self.dist[u.index()]
    }
}

/// The canonical rule: whether the route "via `u` over `e` at `nd`"
/// beats a label at distance `dv` whose parent is `pv()` — strictly
/// shorter, or equal with a lexicographically smaller `(parent node,
/// edge)` pair. The parent is read only on a tie.
///
/// The equal-distance tie-break makes the final parent a pure function
/// of the exact distances: whichever order offers arrive in, the stored
/// parent converges to the lexicographic minimum over all optimal
/// predecessors. That is what lets an incremental repair reproduce a
/// full rebuild bit for bit.
#[inline]
fn beats(
    nd: f64,
    dv: f64,
    via: (NodeId, EdgeId),
    pv: impl FnOnce() -> Option<(NodeId, EdgeId)>,
) -> bool {
    match nd.total_cmp(&dv) {
        Ordering::Less => true,
        Ordering::Equal => pv().is_none_or(|p| via < p),
        Ordering::Greater => false,
    }
}

impl Spt {
    /// Repair this tree in place after one batch of link changes: one
    /// [`SpfWorkspace::repair`] that reads it as its column, then the
    /// nodes that repair reset or moved written back, parents and
    /// distances. Returns the repair frontier.
    ///
    /// This is the seam the repair's tests drive it through, on trees
    /// they check against fresh runs. A deployment's planes are repaired
    /// column by column in the FIB arena instead, which reads its own
    /// slabs as the column and writes back the same frontier.
    pub fn repair(&mut self, g: &Graph, delta: &SpfDelta<'_>, ws: &mut SpfWorkspace) -> usize {
        let frontier = ws.repair(g, self.root, delta, &*self);
        for &u in ws.touched() {
            self.parent[u.index()] = ws.parent[u.index()];
            self.dist[u.index()] = ws.dist[u.index()];
        }
        frontier
    }
}

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
        self.heap.push(HeapEntry::new(0.0, root));
        while let Some((d, u)) = self.heap.pop().map(HeapEntry::get) {
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
                // time; the hot loop stays assertion-free and, its orders
                // being total, terminates even on smuggled NaN.
                let nd = d + weights[e.index()];
                if self.offer(u, e, v, nd) {
                    self.heap.push(HeapEntry::new(nd, v));
                }
            }
        }
    }

    /// Offer `v` the route "via `u` over `e` at distance `nd`"; record it
    /// if it [beats](beats) `v`'s label and report whether it was taken.
    #[inline]
    fn offer(&mut self, u: NodeId, e: EdgeId, v: NodeId, nd: f64) -> bool {
        let i = v.index();
        let better = beats(nd, self.dist[i], (u, e), || self.parent[i]);
        if better {
            self.dist[v.index()] = nd;
            self.parent[v.index()] = Some((u, e));
        }
        better
    }

    /// Parent pointers of the last run: `parents()[u]` is `u`'s next hop
    /// and outgoing edge toward the root (`None` at the root itself and on
    /// unreachable nodes). After a [`Self::repair`], only the entries of
    /// the nodes it [touched](Self::touched) are meaningful.
    #[inline]
    pub fn parents(&self) -> &[Option<(NodeId, EdgeId)>] {
        &self.parent
    }

    /// Distances of the last run, `f64::INFINITY` when unreachable. After
    /// a [`Self::repair`], as [`Self::parents`].
    #[inline]
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// The nodes the last [`Self::repair`] reset or moved, each once: the
    /// only ones whose parent or distance can differ from the column it
    /// read, so a write-back of the repaired tree stores these and
    /// nothing else.
    #[inline]
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// How many column entries the last [`Self::repair`] read: each node
    /// whose entry the pass needed, once. A node reset as dirty is not
    /// read, and neither is any node the pass never reached.
    #[inline]
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Load an existing shortest-path tree and reconstruct its distances:
    /// `parent_of(u)` supplies `u`'s stored next hop and outgoing edge
    /// toward `root` (`None` at the root and on unreachable nodes),
    /// exactly the shape a FIB column stores.
    ///
    /// Distances are reconstructed by walking parent chains and summing
    /// `weights` parent-first — the same `dist[parent] + w(edge)` additions
    /// the original Dijkstra run performed, so the reconstructed values are
    /// bit-identical to the ones the full run computed. That fold is O(n)
    /// per column, so repairs never run it: they read the distances kept
    /// from the tree's last run or repair. This derives them for a tree
    /// whose distances were never kept, and checks the kept ones.
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
        let chain = &mut self.stack;
        for start in 0..n {
            if self.settled[start] || self.parent[start].is_none() {
                continue;
            }
            chain.clear();
            let mut u = start;
            while !self.settled[u] {
                match self.parent[u] {
                    Some((p, _)) => {
                        chain.push(u as u32);
                        assert!(chain.len() <= n, "parent pointers contain a cycle");
                        u = p.index();
                    }
                    None => break,
                }
            }
            if self.settled[u] {
                // Chain reaches the root: fill distances parent-first.
                while let Some(v) = chain.pop() {
                    let v = v as usize;
                    let (p, e) = self.parent[v].expect("chained node has a parent");
                    self.dist[v] = self.dist[p.index()] + weights[e.index()];
                    self.settled[v] = true;
                }
            } else {
                // Chain dead-ends at a parentless non-root node; such
                // entries cannot come from a valid SPT — treat the whole
                // chain as unreachable rather than trusting them.
                for &v in chain.iter() {
                    self.parent[v as usize] = None;
                }
            }
        }
    }

    /// Repair the tree `column` holds, correct before one batch of link
    /// changes `delta` (see [`SpfDelta`]), in one label-correcting heap
    /// pass under the final state. `column` is read in place and never
    /// written: the pass keeps the entries it reads or changes in the
    /// workspace, and returns the repair frontier — the nodes it reset
    /// or moved, each once, which [`Self::touched`] lists and whose new
    /// entries [`Self::parents`] and [`Self::distances`] hold.
    ///
    /// *Dirty subtrees*: a failed or raised link is a tree link exactly
    /// when it is the installed out-edge of one of its endpoints — the
    /// child; both cannot be, or the column would hold a two-node cycle.
    /// The subtree below each such child is dirty, and it is found by a
    /// search down from the children: `w` hangs below `x` exactly when
    /// `w`'s out-edge is a link between `w` and `x`, so the search scans
    /// each dirty node's graph neighbours and reads their out-edges only.
    /// Those are exactly the nodes whose tree chain crosses a link the
    /// batch made worse. Every other node's chain is up in the final
    /// state and no dearer, so its installed distance bounds its new one
    /// from above. Dirty nodes are reset without being read.
    ///
    /// *Seeds*: each dirty node is offered a route from each of its
    /// clean, reachable neighbours over up links, and each `lowered`
    /// link is offered in both directions. A column with no dirty node
    /// and no offer taken is left as it is, with an empty frontier.
    ///
    /// *Drain*: one heap pass that skips stale entries and offers every up
    /// neighbour of each popped node under the canonical rule — a
    /// strictly shorter route lowers and queues the node, clean or dirty;
    /// an equally short one with a smaller `(parent, edge)` re-picks its
    /// parent and queues nothing. Every label stays an upper bound on the
    /// node's distance, and a popped node's is final, so the drain ends
    /// at the exact distances of a fresh masked run.
    ///
    /// *No parent sweep*: any optimal predecessor of a node whose entry
    /// can change is either popped at its final distance, which offers
    /// the node, or clean and unchanged, and then the link between them is
    /// a seed — the node is dirty or the link is lowered; otherwise the
    /// node's entry stood before the batch and still does. So every
    /// parent ends at the lexicographic minimum a fresh run picks, bit
    /// for bit.
    ///
    /// *Loads*: the pass reads an entry the first time it needs one — a
    /// seed's clean endpoint, or a node an offer reaches — and a per-node
    /// stamp tells which it has read, so its work grows with the dirty
    /// subtrees and the frontier's neighbourhood, not with the column.
    ///
    /// # Panics
    /// Panics if the weight vector's length is not the edge count, or a
    /// `lowered` link is failed in the final mask.
    pub fn repair(
        &mut self,
        g: &Graph,
        root: NodeId,
        delta: &SpfDelta<'_>,
        column: &impl SptColumn,
    ) -> usize {
        let (weights, mask) = (delta.weights, delta.mask);
        assert_eq!(
            weights.len(),
            g.edge_count(),
            "weight vector length must equal edge count"
        );
        debug_assert!(column.out_edge(root).is_none(), "the root has no route");
        self.begin_pass(g.node_count());
        for &e in delta.failed.iter().chain(delta.raised) {
            let edge = g.edge(e);
            for child in [edge.u, edge.v] {
                if column.out_edge(child) == Some(e) && !self.listed(child) {
                    self.reset_dirty(child);
                }
            }
        }
        // `touched` is the search's queue: every dirty node is on it.
        let mut next = 0;
        while let Some(&x) = self.touched.get(next) {
            next += 1;
            for &(w, e) in g.neighbors(x) {
                if column.out_edge(w) == Some(e) && !self.listed(w) {
                    self.reset_dirty(w);
                }
            }
        }
        for i in 0..self.touched.len() {
            let v = self.touched[i];
            for &(u, e) in g.neighbors(v) {
                if mask.is_up(e) && !self.listed(u) {
                    let (du, _) = self.label(column, u);
                    if du.is_finite() {
                        self.relax(g, column, (u, e), v, du + weights[e.index()]);
                    }
                }
            }
        }
        for &edge in delta.lowered {
            assert!(mask.is_up(edge), "{edge:?} must be up in the final mask");
            let (a, b) = (g.edge(edge).u, g.edge(edge).v);
            for (u, v) in [(a, b), (b, a)] {
                let (du, _) = self.label(column, u);
                if du.is_finite() {
                    self.relax(g, column, (u, edge), v, du + weights[edge.index()]);
                }
            }
        }
        while let Some((d, u)) = self.heap.pop().map(HeapEntry::get) {
            if d.total_cmp(&self.dist[u.index()]) == Ordering::Greater {
                continue; // stale entry, a better one was pushed later
            }
            for &(v, e) in g.neighbors(u) {
                if mask.is_up(e) {
                    self.relax(g, column, (u, e), v, d + weights[e.index()]);
                }
            }
        }
        self.touched.len()
    }

    /// Start a repair pass over `n` nodes: advance the epoch, so no node
    /// counts as read or listed, and clear the pass's lists.
    fn begin_pass(&mut self, n: usize) {
        self.dist.resize(n, f64::INFINITY);
        self.parent.resize(n, None);
        if self.stamp.len() != n || self.epoch > u32::MAX - 2 {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.epoch = 0;
        }
        self.epoch += 2;
        self.heap.clear();
        self.touched.clear();
        self.loaded = 0;
    }

    /// Whether `v` is on this pass's `touched` list.
    #[inline]
    fn listed(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch + 1
    }

    /// Reset the dirty `v` to unreachable and list it, without reading
    /// its entry.
    #[inline]
    fn reset_dirty(&mut self, v: NodeId) {
        self.dist[v.index()] = f64::INFINITY;
        self.parent[v.index()] = None;
        self.stamp[v.index()] = self.epoch + 1;
        self.touched.push(v);
    }

    /// `v`'s label, its distance read from `column` the first time the
    /// pass needs it, and whether `v` is listed.
    #[inline(always)]
    fn label(&mut self, column: &impl SptColumn, v: NodeId) -> (f64, bool) {
        let i = v.index();
        let stamp = self.stamp[i];
        if stamp < self.epoch {
            self.dist[i] = column.distance(v);
            self.stamp[i] = self.epoch;
            self.loaded += 1;
        }
        (self.dist[i], stamp == self.epoch + 1)
    }

    /// A repair's offer of "via `u` over `e` at `nd`" to `v`, under the
    /// canonical rule ([`beats`]): take it, queue `v` if the route is
    /// strictly shorter, and list `v` the first time it moves. A node off
    /// the list still has its installed parent, which only a tie reads.
    #[inline(always)]
    fn relax(
        &mut self,
        g: &Graph,
        column: &impl SptColumn,
        (u, e): (NodeId, EdgeId),
        v: NodeId,
        nd: f64,
    ) {
        let (i, (dv, listed)) = (v.index(), self.label(column, v));
        let installed = || {
            if listed {
                self.parent[i]
            } else {
                column.out_edge(v).map(|pe| (g.edge(pe).other(v), pe))
            }
        };
        if !beats(nd, dv, (u, e), installed) {
            return;
        }
        self.dist[i] = nd;
        self.parent[i] = Some((u, e));
        if nd.total_cmp(&dv).is_lt() {
            self.heap.push(HeapEntry::new(nd, v));
        }
        if !listed {
            self.stamp[i] = self.epoch + 1;
            self.touched.push(v);
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
/// first when they come from untrusted input. Every order inside the walk
/// is total (`f64::total_cmp`, and the heap's integer key), so even a NaN
/// that slips past validation terminates the walk instead of panicking a
/// comparator.
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
        assert_eq!(spt.parent[0], Some((NodeId(1), EdgeId(1))));
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

    /// A batch that only failed the links of `failed`: `mask` already
    /// has them failed.
    fn failures<'a>(w: &'a [f64], mask: &'a EdgeMask, failed: &'a [EdgeId]) -> SpfDelta<'a> {
        SpfDelta {
            weights: w,
            mask,
            failed,
            raised: &[],
            lowered: &[],
        }
    }

    /// Repair `tree` after `e`'s weight moved from `old[e]` to `new[e]`
    /// (the vectors differ nowhere else), every link of `mask` staying as
    /// it is.
    fn reweight(
        tree: &mut Spt,
        g: &Graph,
        (old, new): (&[f64], &[f64]),
        mask: &EdgeMask,
        e: EdgeId,
    ) -> usize {
        let edge = [e];
        let up = new[e.index()] > old[e.index()];
        let down = new[e.index()] < old[e.index()];
        let delta = SpfDelta {
            weights: new,
            mask,
            failed: &[],
            raised: if up { &edge } else { &[] },
            lowered: if down { &edge } else { &[] },
        };
        tree.repair(g, &delta, &mut SpfWorkspace::new())
    }

    /// Repair `tree`, correct under `w` before the links of `restored`
    /// came back up, to the final mask `after`.
    fn restores(
        tree: &mut Spt,
        g: &Graph,
        w: &[f64],
        after: &EdgeMask,
        restored: &[EdgeId],
    ) -> usize {
        let delta = SpfDelta {
            weights: w,
            mask: after,
            failed: &[],
            raised: &[],
            lowered: restored,
        };
        tree.repair(g, &delta, &mut SpfWorkspace::new())
    }

    /// Assert `tree` is exactly the tree a fresh masked run computes:
    /// distances and parents, bit for bit.
    fn assert_matches_fresh(tree: &Spt, g: &Graph, w: &[f64], mask: &EdgeMask) {
        let fresh = dijkstra_masked(g, tree.root, w, mask);
        assert_eq!(tree.parent, fresh.parent, "parents, root {:?}", tree.root);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&tree.dist),
            bits(&fresh.dist),
            "distances, root {:?}",
            tree.root
        );
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

    /// Repairs of a column whose distances were folded from its parent
    /// chains ([`SpfWorkspace::load_tree`]) equal repairs of the column
    /// with the distances its run left behind, bit for bit, on every root
    /// and failed edge.
    #[test]
    fn repairs_from_folded_distances_match_repairs_from_run_distances() {
        let g = from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        let w = vec![0.1, 0.2, 0.7, 0.3];
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            for e in g.edge_ids() {
                let mut known = dijkstra(&g, root, &w);
                ws.load_tree(&g, root, &w, |u| known.parent[u]);
                let mut folded = Spt {
                    root,
                    dist: ws.distances().to_vec(),
                    parent: ws.parents().to_vec(),
                };
                let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
                folded.repair(&g, &failures(&w, &mask, &[e]), &mut ws);
                known.repair(&g, &failures(&w, &mask, &[e]), &mut ws);
                assert_eq!(known.parent, folded.parent);
                let bits = |t: &Spt| -> Vec<u64> { t.dist.iter().map(|d| d.to_bits()).collect() };
                assert_eq!(bits(&known), bits(&folded), "root {root:?}, {e:?}");
            }
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
        let mut ws = SpfWorkspace::new();
        for root in g.nodes() {
            for e in g.edge_ids() {
                let mut tree = dijkstra(&g, root, &w);
                let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
                tree.repair(&g, &failures(&w, &mask, &[e]), &mut ws);
                assert_matches_fresh(&tree, &g, &w, &mask);
            }
        }
    }

    #[test]
    fn repair_respects_tie_break() {
        // Two equal routes to 3; fail the winning one, repair must fall
        // back exactly where a fresh run would.
        let g = from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        let w = g.base_weights();
        let mut tree = dijkstra(&g, NodeId(0), &w);
        assert_eq!(tree.parent[3], Some((NodeId(1), EdgeId(2))));
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        tree.repair(
            &g,
            &failures(&w, &mask, &[EdgeId(2)]),
            &mut SpfWorkspace::new(),
        );
        assert_eq!(tree.parent[3], Some((NodeId(2), EdgeId(3))));
        assert_matches_fresh(&tree, &g, &w, &mask);
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
        let mut tree = dijkstra(&g, NodeId(0), &w);
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(0));
        tree.repair(&g, &failures(&w, &mask, &[EdgeId(0)]), &mut ws);
        assert_matches_fresh(&tree, &g, &w, &mask);
        mask.fail(EdgeId(4));
        tree.repair(&g, &failures(&w, &mask, &[EdgeId(4)]), &mut ws);
        assert_matches_fresh(&tree, &g, &w, &mask);
    }

    #[test]
    fn repair_disconnecting_failure_marks_unreachable() {
        let g = from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let w = g.base_weights();
        let mut tree = dijkstra(&g, NodeId(2), &w);
        let mask = EdgeMask::from_failed(2, &[EdgeId(1)]);
        let mut ws = SpfWorkspace::new();
        let frontier = tree.repair(&g, &failures(&w, &mask, &[EdgeId(1)]), &mut ws);
        assert_eq!(frontier, 2, "both 0 and 1 hang below the failed link");
        assert_eq!(ws.loaded(), 0, "a dirty node is reset without a read");
        assert_matches_fresh(&tree, &g, &w, &mask);
        assert_eq!(tree.dist[0], f64::INFINITY);
    }

    #[test]
    fn repair_non_tree_failure_is_noop() {
        let g = diamond();
        let w = g.base_weights();
        let mut tree = dijkstra(&g, NodeId(3), &w);
        // 0-2 (edge 2) carries no tree traffic toward 3: 0 routes via 1,
        // 2 routes directly via edge 3.
        assert_eq!(tree.parent[0], Some((NodeId(1), EdgeId(0))));
        assert_eq!(tree.parent[2], Some((NodeId(3), EdgeId(3))));
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        let mut ws = SpfWorkspace::new();
        let frontier = tree.repair(&g, &failures(&w, &mask, &[EdgeId(2)]), &mut ws);
        assert_eq!(frontier, 0);
        assert_eq!(ws.loaded(), 0, "two out-edge reads find no tree link");
        assert_matches_fresh(&tree, &g, &w, &mask);
    }

    #[test]
    fn a_repair_reads_only_the_entries_its_pass_reaches() {
        // A path 0-1-…-7 rooted at 0 with a chord 0-6: failing 2-3 resets
        // 3, 4 and 5 — the subtree below 3 — whose one way back is through
        // 6, which hangs off the chord. The pass reads the one clean
        // neighbour it seeds from, 6, and no other entry.
        let g = from_edges(
            8,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 7, 1.0),
                (0, 6, 5.0),
            ],
        );
        let w = g.base_weights();
        let mut tree = dijkstra(&g, NodeId(0), &w);
        assert_eq!(tree.parent[5], Some((NodeId(4), EdgeId(4))));
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        let mut ws = SpfWorkspace::new();
        assert_eq!(
            tree.repair(&g, &failures(&w, &mask, &[EdgeId(2)]), &mut ws),
            3
        );
        assert_eq!(ws.touched(), &[NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(ws.loaded(), 1, "6 only");
        assert_matches_fresh(&tree, &g, &w, &mask);
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
                let mut tree = dijkstra(&g, root, &old);
                reweight(&mut tree, &g, (&old, &new_w), &mask, e);
                assert_matches_fresh(&tree, &g, &new_w, &mask);
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
                let mut tree = dijkstra(&g, root, &old);
                reweight(&mut tree, &g, (&old, &new_w), &mask, e);
                assert_matches_fresh(&tree, &g, &new_w, &mask);
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
        let mut tree = dijkstra(&g, NodeId(3), &old);
        reweight(&mut tree, &g, (&old, &new_w), &mask, EdgeId(2));
        assert_matches_fresh(&tree, &g, &new_w, &mask);
    }

    #[test]
    fn repair_same_weight_is_noop() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        let w = g.base_weights();
        let mut tree = dijkstra(&g, NodeId(0), &w);
        assert_eq!(reweight(&mut tree, &g, (&w, &w), &mask, EdgeId(1)), 0);
        assert_matches_fresh(&tree, &g, &w, &mask);
    }

    #[test]
    fn restore_rewins_tie_break_without_moving_a_distance() {
        // Two equal routes 0-1-3 and 0-2-3; with 1-3 down node 3 hangs
        // off 2. Restoring 1-3 moves no distance, but (1, e2) outranks
        // (2, e3) and a fresh run picks it.
        let g = from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        let w = g.base_weights();
        let mut mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        let down = dijkstra_masked(&g, NodeId(0), &w, &mask);
        assert_eq!(down.parent[3], Some((NodeId(2), EdgeId(3))));
        let mut tree = down.clone();
        mask.restore(EdgeId(2));
        let touched = restores(&mut tree, &g, &w, &mask, &[EdgeId(2)]);
        assert_eq!(touched, 1, "only node 3 re-picks its parent");
        assert_eq!(tree.dist, down.dist, "no distance moved");
        assert_eq!(tree.parent[3], Some((NodeId(1), EdgeId(2))));
        assert_matches_fresh(&tree, &g, &w, &mask);
    }

    #[test]
    fn restore_rewins_tie_break_at_a_neighbour_of_a_moved_node() {
        // With 0-1 down, 3 hangs off 2 (cost 3) and 1 off 3 (cost 4).
        // Restoring 0-1 moves 1's distance (to 2), which gives 3 — not an
        // endpoint of the restored link — an equal route via 1 that
        // outranks (2, e1): popping 1 must offer it to its neighbours.
        // Both nodes moved.
        let g = from_edges(4, &[(0, 2, 2.0), (2, 3, 1.0), (1, 3, 1.0), (0, 1, 2.0)]);
        let w = g.base_weights();
        let mut mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(3)]);
        let down = dijkstra_masked(&g, NodeId(0), &w, &mask);
        assert_eq!(down.parent[3], Some((NodeId(2), EdgeId(1))));
        let mut tree = down.clone();
        mask.restore(EdgeId(3));
        let delta = SpfDelta {
            weights: &w,
            mask: &mask,
            failed: &[],
            raised: &[],
            lowered: &[EdgeId(3)],
        };
        let mut ws = SpfWorkspace::new();
        assert_eq!(tree.repair(&g, &delta, &mut ws), 2);
        assert_eq!(ws.touched(), &[NodeId(1), NodeId(3)]);
        assert_eq!(tree.dist[3], down.dist[3], "3's distance stays");
        assert_eq!(tree.parent[3], Some((NodeId(1), EdgeId(2))));
        assert_matches_fresh(&tree, &g, &w, &mask);
    }

    #[test]
    fn a_reattached_subtree_lowers_clean_nodes_beyond_it() {
        // Before the batch, 1 hangs off the root over e0 (cost 8), and 2
        // and 3 route round it: 2 over e4 (6), 3 through 2 (7). The batch
        // fails e0 and restores e2 (4-1), so the dirty 1 re-attaches
        // through 4 at 2 — and the clean 2 and 3, whose chains cross no
        // failed link, must be lowered through it (to 3 and 4), though
        // neither is dirty or an endpoint of a lowered link.
        let g = from_edges(
            5,
            &[
                (0, 1, 8.0),
                (0, 4, 1.0),
                (4, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 6.0),
                (2, 3, 1.0),
            ],
        );
        let w = g.base_weights();
        let before = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        let mut tree = dijkstra_masked(&g, NodeId(0), &w, &before);
        assert_eq!(tree.parent[2], Some((NodeId(0), EdgeId(4))));
        assert_eq!(tree.parent[3], Some((NodeId(2), EdgeId(5))));
        let after = EdgeMask::from_failed(g.edge_count(), &[EdgeId(0)]);
        let mut ws = SpfWorkspace::new();
        let delta = SpfDelta {
            weights: &w,
            mask: &after,
            failed: &[EdgeId(0)],
            raised: &[],
            lowered: &[EdgeId(2)],
        };
        assert_eq!(tree.repair(&g, &delta, &mut ws), 3);
        assert_eq!(ws.touched(), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(&tree.dist[1..4], &[2.0, 3.0, 4.0]);
        assert_eq!(tree.parent[3], Some((NodeId(2), EdgeId(5))));
        assert_matches_fresh(&tree, &g, &w, &after);
    }

    #[test]
    fn restore_reattaches_an_unreachable_component() {
        // Path 0-1-2-3 with a chord 2-3: failing 1-2 cuts {2, 3} off.
        let g = from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 3, 4.0)]);
        let w = g.base_weights();
        let mut mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(1)]);
        let mut tree = dijkstra_masked(&g, NodeId(0), &w, &mask);
        assert_eq!(tree.dist[2], f64::INFINITY);
        assert_eq!(tree.parent[3], None);
        mask.restore(EdgeId(1));
        let touched = restores(&mut tree, &g, &w, &mask, &[EdgeId(1)]);
        assert_eq!(touched, 2, "both cut-off nodes come back");
        assert_eq!(tree.dist[3], 3.0);
        assert_matches_fresh(&tree, &g, &w, &mask);
        // A link between two nodes that both stay unreachable changes
        // nothing.
        mask.fail(EdgeId(1));
        mask.fail(EdgeId(2));
        let mut tree = dijkstra_masked(&g, NodeId(0), &w, &mask);
        mask.restore(EdgeId(2));
        assert_eq!(restores(&mut tree, &g, &w, &mask, &[EdgeId(2)]), 0);
        assert_matches_fresh(&tree, &g, &w, &mask);
    }

    #[test]
    fn restore_matches_fresh_run_for_every_root_and_edge() {
        let g = diamond();
        let w = g.base_weights();
        for root in g.nodes() {
            for e in g.edge_ids() {
                let mut mask = EdgeMask::from_failed(g.edge_count(), &[e]);
                let mut tree = dijkstra_masked(&g, root, &w, &mask);
                mask.restore(e);
                restores(&mut tree, &g, &w, &mask, &[e]);
                assert_matches_fresh(&tree, &g, &w, &mask);
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
