//! The flat spliced-FIB arena: all k slices' forwarding state in one
//! contiguous slab.
//!
//! The paper's §4.2 scalability claim is that splicing state grows
//! linearly in k. This module makes that state a measurable object: a
//! [`SpliceFib`] holds `next_hop` and `out_edge` as two slice-major
//! `Box<[u32]>` slabs indexed O(1) by `(slice, router, dst)`, with
//! [`NO_ROUTE`] (`u32::MAX`) standing in for "no entry" — no nesting, no
//! per-entry `Option` overhead, no pointer chasing on the data-plane hot
//! path. A k-prefix of a splicing is literally the first k planes of the
//! slab, so prefix "views" share the arena instead of deep-cloning it.
//!
//! Within a plane the slabs are *destination-major*: the `n` routers'
//! entries toward one destination are one contiguous run (a "column").
//! That is the unit everything here works in — a slice is a family of
//! destination-rooted trees, so a repair loads, scans and rewrites whole
//! columns at unit stride, and a packet, whose destination never
//! changes, stays inside one column per slice for its whole walk.
//!
//! `SpliceFib` is the only table type in the workspace: the protocol
//! simulator and every slice construction fill planes of one directly,
//! through [`PlaneMut`], and a caller that only needs one slice's path
//! reads it down one column through [`Plane::path`].

use splice_graph::dijkstra::SpfWorkspace;
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use std::cmp::Ordering;

/// Sentinel for "no installed entry" in both slabs. Valid node and edge
/// ids are dense and far below `u32::MAX`, so the sentinel can never
/// collide with real state.
pub const NO_ROUTE: u32 = u32::MAX;

/// What an incremental repair of one (or more) slice planes did: how many
/// destination columns were rewritten, how many were proven untouched and
/// skipped, and how many nodes were re-relaxed in total (the repair
/// frontier — the quantity the `splice_spf_repair_frontier` histogram
/// observes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Columns whose entries were recomputed and written back.
    pub patched_columns: usize,
    /// Columns left byte-identical (the event provably could not change
    /// them).
    pub skipped_columns: usize,
    /// Total re-relaxed nodes across all patched columns.
    pub frontier_nodes: usize,
    /// Columns loaded for repair whose distances were re-derived by
    /// folding the installed parent chains ([`SpfWorkspace::load_tree`]).
    pub folded_columns: usize,
    /// Columns loaded for repair whose distances were read from a
    /// [`DistanceMemo`] instead ([`SpfWorkspace::load_known`]).
    pub memo_columns: usize,
}

impl RepairStats {
    /// Fold another plane's stats into this one.
    pub fn absorb(&mut self, other: RepairStats) {
        self.patched_columns += other.patched_columns;
        self.skipped_columns += other.skipped_columns;
        self.frontier_nodes += other.frontier_nodes;
        self.folded_columns += other.folded_columns;
        self.memo_columns += other.memo_columns;
    }
}

/// The SPF distances behind a deployment's delta-repairable planes, kept
/// between repairs: one `f64` per `(slice, router, dst)` entry, in the
/// arena's destination-major order, and one flag per `(slice, dst)`
/// column saying whether that column's distances are known yet.
///
/// A delta repair needs the distances of each tree it patches. Without a
/// memo it re-derives them from the installed parent chains, O(n) per
/// column however few entries the event changes; with one it copies them
/// in, and writes back what the repair computed. The memo is kept beside
/// the arena, never in it, so published snapshots do not carry it. It
/// starts empty and learns a column the first time a repair loads it.
#[derive(Clone, Debug)]
pub struct DistanceMemo {
    n: usize,
    dist: Box<[f64]>,
    known: Box<[bool]>,
}

impl DistanceMemo {
    /// A memo for `k` planes over `n` routers that knows no column yet.
    pub fn new(k: usize, n: usize) -> DistanceMemo {
        DistanceMemo {
            n,
            dist: vec![f64::INFINITY; k * n * n].into_boxed_slice(),
            known: vec![false; k * n].into_boxed_slice(),
        }
    }

    /// Number of planes covered.
    pub fn k(&self) -> usize {
        self.known.len() / self.n.max(1)
    }

    /// Number of routers (= destinations) per plane.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The router-indexed distances toward `dst` in `slice`, if known.
    pub fn column(&self, slice: usize, dst: NodeId) -> Option<&[f64]> {
        let c = slice * self.n + dst.index();
        self.known[c].then(|| &self.dist[c * self.n..(c + 1) * self.n])
    }

    /// Plane `slice`'s share, for the `PlaneMut::patch_*` passes.
    pub fn plane_mut(&mut self, slice: usize) -> PlaneDistances<'_> {
        let n = self.n;
        PlaneDistances {
            n,
            dist: &mut self.dist[slice * n * n..(slice + 1) * n * n],
            known: &mut self.known[slice * n..(slice + 1) * n],
        }
    }
}

/// One plane's distances in a [`DistanceMemo`] (see
/// [`DistanceMemo::plane_mut`]), or none at all
/// ([`PlaneDistances::none`]): the memo-free passes fold every column
/// they load and record nothing.
#[derive(Debug)]
pub struct PlaneDistances<'a> {
    n: usize,
    dist: &'a mut [f64],
    known: &'a mut [bool],
}

impl PlaneDistances<'_> {
    /// No memo: every load folds parent chains, every record is dropped.
    pub fn none() -> PlaneDistances<'static> {
        PlaneDistances {
            n: 0,
            dist: &mut [],
            known: &mut [],
        }
    }

    /// The router-indexed distances toward `dst`, if known.
    #[inline]
    fn column(&self, dst: NodeId) -> Option<&[f64]> {
        let d = dst.index();
        (d < self.known.len() && self.known[d]).then(|| &self.dist[d * self.n..(d + 1) * self.n])
    }

    /// Remember `dist` as the distances toward `dst` (a no-op without a
    /// memo). They must be what folding the column's installed parent
    /// chains gives.
    #[inline]
    pub fn record(&mut self, dst: NodeId, dist: &[f64]) {
        let d = dst.index();
        if d < self.known.len() {
            self.dist[d * self.n..(d + 1) * self.n].copy_from_slice(dist);
            self.known[d] = true;
        }
    }
}

/// Set `marked` to the edge-indexed membership flags of `edges`, once per
/// plane, so the per-column pre-scan costs O(1) per entry instead of
/// O(|edges|) — SRLG-sized failure sets stay linear instead of quadratic.
fn mark_edges(marked: &mut Vec<bool>, edge_count: usize, edges: &[EdgeId]) {
    marked.clear();
    marked.resize(edge_count, false);
    for e in edges {
        marked[e.index()] = true;
    }
}

/// Offset of entry `(router, dst)` within a plane — the one place the
/// destination-major order is written down.
#[inline]
fn plane_idx(n: usize, router: usize, dst: usize) -> usize {
    debug_assert!(router < n && dst < n);
    dst * n + router
}

/// Store `entry` (or the sentinel pair) into one slot of each slab.
#[inline]
fn store(next_hop: &mut u32, out_edge: &mut u32, entry: Option<(NodeId, EdgeId)>) {
    (*next_hop, *out_edge) = match entry {
        Some((nh, e)) => (nh.index() as u32, e.index() as u32),
        None => (NO_ROUTE, NO_ROUTE),
    };
}

/// A mutable view of one slice plane: that plane's `n·n` regions of the
/// two slabs as disjoint `&mut` borrows.
///
/// Planes are contiguous and non-overlapping, so
/// [`SpliceFib::planes_mut`] can hand out every slice at once — this is
/// the unit the batched repair engine works in, one plane after another.
/// This is the only write API for a plane: every fill and patch lives
/// here, and the arena itself writes single entries only
/// ([`SpliceFib::set`]).
#[derive(Debug)]
pub struct PlaneMut<'a> {
    n: usize,
    next_hop: &'a mut [u32],
    out_edge: &'a mut [u32],
}

impl PlaneMut<'_> {
    /// Number of routers (= destinations) in the plane.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, router: usize, dst: usize) -> usize {
        plane_idx(self.n, router, dst)
    }

    /// The `dst` column of both slabs, router-indexed and writable:
    /// `(next_hop, out_edge)`.
    #[inline]
    fn column_mut(&mut self, dst: NodeId) -> (&mut [u32], &mut [u32]) {
        let start = self.idx(0, dst.index());
        let run = start..start + self.n;
        (&mut self.next_hop[run.clone()], &mut self.out_edge[run])
    }

    /// Next hop and outgoing edge of `router` toward `dst` in this plane.
    #[inline]
    pub fn lookup(&self, router: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        let i = self.idx(router.index(), dst.index());
        let nh = self.next_hop[i];
        if nh == NO_ROUTE {
            None
        } else {
            Some((NodeId(nh), EdgeId(self.out_edge[i])))
        }
    }

    /// Overwrite the whole `dst` column from a router-indexed parent
    /// array — the shape [`SpfWorkspace::parents`] produces. The repair
    /// path's write primitive: one pass down one contiguous run per slab.
    pub fn patch_column(&mut self, dst: NodeId, parents: &[Option<(NodeId, EdgeId)>]) {
        assert_eq!(parents.len(), self.n, "parent array must be router-indexed");
        let (next_hop, out_edge) = self.column_mut(dst);
        for ((nh, oe), &parent) in next_hop.iter_mut().zip(out_edge).zip(parents) {
            store(nh, oe, parent);
        }
    }

    /// Write the columns of one rooted tree — the tree *is* the slice on
    /// its nodes — by re-rooting: the column toward the root is the tree's
    /// parent arcs, and the column toward any other node `c` is its
    /// parent's column with two entries changed, because only the arc
    /// between them turns round (`parent(c)` now routes down it, `c` no
    /// longer routes at all). So each column after the first is one
    /// `memcpy` of `4·n` bytes per slab and two stores per slab.
    ///
    /// `preorder` lists the tree's nodes, root first, every node after
    /// its parent; `parent_arc(u)` is `u`'s raw `(parent, edge)` pair,
    /// `None` at the root only. Every entry of the written columns is
    /// overwritten (nodes outside the tree get [`NO_ROUTE`]), so a dirty
    /// plane is fine; columns of nodes outside `preorder` are not touched.
    pub fn fill_tree_columns(
        &mut self,
        preorder: &[u32],
        parent_arc: impl Fn(u32) -> Option<(u32, u32)>,
    ) {
        let Some((&root, below)) = preorder.split_first() else {
            return;
        };
        let arc = |u| parent_arc(u).expect("only the root lacks a parent arc");
        let (next_hop, out_edge) = self.column_mut(NodeId(root));
        next_hop.fill(NO_ROUTE);
        out_edge.fill(NO_ROUTE);
        for &u in below {
            (next_hop[u as usize], out_edge[u as usize]) = arc(u);
        }
        let n = self.n;
        for &c in below {
            let (p, e) = arc(c);
            let (from, to) = (self.idx(0, p as usize), self.idx(0, c as usize));
            for (slab, at_parent) in [(&mut *self.next_hop, c), (&mut *self.out_edge, e)] {
                slab.copy_within(from..from + n, to);
                slab[to + p as usize] = at_parent;
                slab[to + c as usize] = NO_ROUTE;
            }
        }
    }

    /// Whether any router's installed out-edge in the `dst` column is
    /// flagged in the edge-indexed `marked` bitmask — the O(n) pre-scan
    /// that lets repairs skip columns an event cannot have touched.
    fn column_uses_marked(&self, dst: NodeId, marked: &[bool]) -> bool {
        let start = self.idx(0, dst.index());
        self.out_edge[start..start + self.n]
            .iter()
            .any(|&oe| oe != NO_ROUTE && marked[oe as usize])
    }

    /// Run destination-rooted Dijkstra for every node under `weights`
    /// over the `mask`-up subgraph, reusing `ws` across all n roots, and
    /// write every column back whole — the one full-plane SPF write.
    ///
    /// The tree rooted at `t` holds, for every router, its next hop
    /// toward `t`, so each run's parent array *is* one column and lands
    /// as one contiguous run. Unreachable pairs are written as
    /// [`NO_ROUTE`], so a dirty plane is fine.
    pub fn fill(&mut self, g: &Graph, weights: &[f64], mask: &EdgeMask, ws: &mut SpfWorkspace) {
        assert_eq!(self.n, g.node_count(), "plane built for a different graph");
        // An all-up mask filters nothing; skip its per-edge test.
        let mask = (mask.failed_count() > 0).then_some(mask);
        for t in g.nodes() {
            ws.run(g, t, weights, mask);
            self.patch_column(t, ws.parents());
        }
    }

    /// Load the `dst` column into `ws` for a repair: from `memo` when it
    /// knows the column's distances, else by folding the installed parent
    /// chains under `weights` — counted in `stats` either way. Returns
    /// whether it folded (the memo does not know the column yet).
    fn load_column(
        &self,
        g: &Graph,
        dst: NodeId,
        weights: &[f64],
        memo: &PlaneDistances<'_>,
        ws: &mut SpfWorkspace,
        stats: &mut RepairStats,
    ) -> bool {
        let parent_of = |u: usize| self.lookup(NodeId(u as u32), dst);
        match memo.column(dst) {
            Some(dist) => {
                ws.load_known(dst, dist, parent_of);
                stats.memo_columns += 1;
                false
            }
            None => {
                ws.load_tree(g, dst, weights, parent_of);
                stats.folded_columns += 1;
                true
            }
        }
    }

    /// After a column was loaded and repaired in `ws`: write it back when
    /// the repair `touched` any node, and record its distances in `memo`
    /// when they changed or the memo did not know them yet (`folded`).
    fn store_column(
        &mut self,
        dst: NodeId,
        touched: usize,
        folded: bool,
        memo: &mut PlaneDistances<'_>,
        ws: &SpfWorkspace,
        stats: &mut RepairStats,
    ) {
        if touched > 0 {
            self.patch_column(dst, ws.parents());
            stats.patched_columns += 1;
            stats.frontier_nodes += touched;
        } else {
            stats.skipped_columns += 1;
        }
        if touched > 0 || folded {
            memo.record(dst, ws.distances());
        }
    }

    /// Incrementally repair this plane after the links in `newly_failed`
    /// went down. `mask` is the new cumulative failure mask (with
    /// `newly_failed` already failed) and `weights` the slice's weight
    /// vector; the plane must hold the forwarding state that was correct
    /// immediately before the event, and `memo` (if any) its distances.
    ///
    /// Columns whose tree does not cross a newly failed link are skipped
    /// after an O(n) bitmask scan — their entries are provably unchanged.
    /// Touched columns are loaded into `ws`, repaired via
    /// [`SpfWorkspace::repair_failures`], and written back whole, their
    /// distances recorded in `memo`.
    pub fn patch_failures(
        &mut self,
        g: &Graph,
        weights: &[f64],
        mask: &EdgeMask,
        newly_failed: &[EdgeId],
        memo: &mut PlaneDistances<'_>,
        ws: &mut SpfWorkspace,
    ) -> RepairStats {
        assert_eq!(self.n, g.node_count(), "plane built for a different graph");
        mark_edges(&mut ws.edge_flags, g.edge_count(), newly_failed);
        let mut stats = RepairStats::default();
        for t in g.nodes() {
            if !self.column_uses_marked(t, &ws.edge_flags) {
                stats.skipped_columns += 1;
                continue;
            }
            let folded = self.load_column(g, t, weights, memo, ws, &mut stats);
            let touched = ws.repair_failures(g, t, weights, mask, newly_failed);
            self.store_column(t, touched, folded, memo, ws, &mut stats);
        }
        stats
    }

    /// Incrementally repair this plane after `edge`'s weight changed from
    /// `old_weight` to `weights[edge]` (`weights` is the slice's new
    /// vector, handed back unchanged; `memo` as in
    /// [`PlaneMut::patch_failures`], holding pre-event distances). Weight
    /// increases skip columns that do not route over `edge`; decreases
    /// probe every column, but a probe that changes nothing costs one
    /// relaxation and skips the write-back.
    #[allow(clippy::too_many_arguments)]
    pub fn patch_reweight(
        &mut self,
        g: &Graph,
        weights: &mut [f64],
        mask: &EdgeMask,
        edge: EdgeId,
        old_weight: f64,
        memo: &mut PlaneDistances<'_>,
        ws: &mut SpfWorkspace,
    ) -> RepairStats {
        assert_eq!(self.n, g.node_count(), "plane built for a different graph");
        let new_weight = weights[edge.index()];
        let increase = new_weight > old_weight;
        mark_edges(&mut ws.edge_flags, g.edge_count(), &[edge]);
        let mut stats = RepairStats::default();
        for t in g.nodes() {
            // An increase on a link a column does not route over cannot
            // change that column; a decrease can improve any column.
            if increase && !self.column_uses_marked(t, &ws.edge_flags) {
                stats.skipped_columns += 1;
                continue;
            }
            // Loaded trees must hold the *pre-event* distances, so a
            // chain fold sums the old weight; the repair then relaxes
            // under the new one.
            weights[edge.index()] = old_weight;
            let folded = self.load_column(g, t, weights, memo, ws, &mut stats);
            weights[edge.index()] = new_weight;
            let touched = ws.repair_reweight(g, t, weights, mask, edge, old_weight);
            self.store_column(t, touched, folded, memo, ws, &mut stats);
        }
        stats
    }

    /// Incrementally repair this plane after the links in `restored` came
    /// back up. `mask` is the new failure mask (with `restored` already
    /// up) and `weights` the slice's weight vector; the plane must hold
    /// the forwarding state that was correct under `weights` while those
    /// links were still down, and `memo` (if any) its distances.
    ///
    /// A restored link can improve any column, so every column is
    /// probed — but the probe reads two distances (from `memo`, or by
    /// walking two parent chains, [`PlaneMut::chain_distance`]), not a
    /// tree load: a column is loaded into `ws` only once some restored
    /// link shortens a route or wins a tie-break in it, then every
    /// remaining link is relaxed in the same workspace
    /// ([`SpfWorkspace::repair_restore`]) and the column is written back
    /// once.
    pub fn patch_restores(
        &mut self,
        g: &Graph,
        weights: &[f64],
        mask: &EdgeMask,
        restored: &[EdgeId],
        memo: &mut PlaneDistances<'_>,
        ws: &mut SpfWorkspace,
    ) -> RepairStats {
        assert_eq!(self.n, g.node_count(), "plane built for a different graph");
        let mut stats = RepairStats::default();
        for t in g.nodes() {
            let mut folded = None;
            let mut touched = 0usize;
            for &edge in restored {
                if folded.is_none() {
                    if !self.restore_changes_column(g, weights, t, edge, memo, &mut ws.path) {
                        continue;
                    }
                    folded = Some(self.load_column(g, t, weights, memo, ws, &mut stats));
                }
                touched += ws.repair_restore(g, t, weights, mask, edge);
            }
            match folded {
                Some(folded) => self.store_column(t, touched, folded, memo, ws, &mut stats),
                None => stats.skipped_columns += 1,
            }
        }
        stats
    }

    /// Whether bringing `edge` up changes the `dst` column as installed:
    /// it gives one endpoint a strictly shorter route through the other,
    /// or an equally short one that outranks the installed parent in the
    /// `(parent, edge)` tie-break. Exact, not conservative — the same
    /// comparisons [`SpfWorkspace::repair_restore`] starts from. The two
    /// endpoint distances are read from `memo` when it knows the column.
    fn restore_changes_column(
        &self,
        g: &Graph,
        weights: &[f64],
        dst: NodeId,
        edge: EdgeId,
        memo: &PlaneDistances<'_>,
        chain: &mut Vec<u32>,
    ) -> bool {
        let (a, b) = (g.edge(edge).u, g.edge(edge).v);
        let (da, db) = match memo.column(dst) {
            Some(dist) => (dist[a.index()], dist[b.index()]),
            None => (
                self.chain_distance(dst, a, weights, chain),
                self.chain_distance(dst, b, weights, chain),
            ),
        };
        let w = weights[edge.index()];
        [(a, da, b, db), (b, db, a, da)]
            .into_iter()
            .any(|(u, du, v, dv)| {
                du.is_finite()
                    && match (du + w).total_cmp(&dv) {
                        Ordering::Less => true,
                        Ordering::Equal => self.lookup(v, dst).is_none_or(|p| (u, edge) < p),
                        Ordering::Greater => false,
                    }
            })
    }

    /// `node`'s distance to `dst` along its installed parent chain,
    /// summed root-first — the same `dist[parent] + w(edge)` additions,
    /// in the same order, as the Dijkstra run that produced the column
    /// (and as [`SpfWorkspace::load_tree`]), so the value is bit-identical
    /// to both. `f64::INFINITY` when the chain never reaches `dst`.
    fn chain_distance(
        &self,
        dst: NodeId,
        node: NodeId,
        weights: &[f64],
        chain: &mut Vec<u32>,
    ) -> f64 {
        chain.clear();
        let mut u = node;
        while u != dst {
            let Some((p, e)) = self.lookup(u, dst) else {
                return f64::INFINITY;
            };
            chain.push(e.0);
            assert!(chain.len() <= self.n, "parent pointers contain a cycle");
            u = p;
        }
        chain
            .iter()
            .rev()
            .fold(0.0, |d, &e| d + weights[e as usize])
    }
}

/// A read-only borrow of one slice's n×n plane (see
/// [`SpliceFib::plane`]). `Copy`, pointer-sized-cheap, and shareable
/// across threads — the read-side counterpart of [`PlaneMut`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plane<'a> {
    n: usize,
    next_hop: &'a [u32],
    out_edge: &'a [u32],
}

impl<'a> Plane<'a> {
    /// Routers (= destinations) per side of the plane.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw `(next_hop, out_edge)` words at `(router, dst)`; either word
    /// is [`NO_ROUTE`] for an uninstalled entry. No `Option` wrapping —
    /// batch walkers branch on the sentinel themselves.
    #[inline]
    pub fn lookup_raw(&self, router: u32, dst: u32) -> (u32, u32) {
        let i = plane_idx(self.n, router as usize, dst as usize);
        (self.next_hop[i], self.out_edge[i])
    }

    /// The out-edge of every installed entry, in storage order (so an
    /// edge shows up once per `(router, dst)` pair routed over it) — one
    /// linear scan answering "which links does this slice use".
    pub fn used_edges(&self) -> impl Iterator<Item = EdgeId> + 'a {
        self.out_edge
            .iter()
            .filter(|&&e| e != NO_ROUTE)
            .map(|&e| EdgeId(e))
    }

    /// Typed lookup, same contract as [`SpliceFib::lookup`].
    #[inline]
    pub fn lookup(&self, router: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        let (nh, e) = self.lookup_raw(router.index() as u32, dst.index() as u32);
        if nh == NO_ROUTE {
            None
        } else {
            Some((NodeId(nh), EdgeId(e)))
        }
    }

    /// The slice path from `src` toward `dst`: one `(next_hop, out_edge)`
    /// entry per hop, read down the `dst` column. It stops at `dst`, at a
    /// missing entry, or after `n` hops (a loop-free column never needs
    /// more, so the cap only fires on corrupt state), and
    /// [`PlanePath::reached`] then tells whether it delivered.
    /// Allocation-free.
    #[inline]
    pub fn path(&self, src: NodeId, dst: NodeId) -> PlanePath<'a> {
        PlanePath {
            plane: *self,
            at: src.index() as u32,
            dst: dst.index() as u32,
            hops: 0,
        }
    }
}

/// The hops of one slice path (see [`Plane::path`]).
#[derive(Clone, Debug)]
pub struct PlanePath<'a> {
    plane: Plane<'a>,
    at: u32,
    dst: u32,
    hops: usize,
}

impl PlanePath<'_> {
    /// Whether the walk stands at the destination — once the iterator is
    /// exhausted, whether the slice path delivers.
    #[inline]
    pub fn reached(&self) -> bool {
        self.at == self.dst
    }
}

impl Iterator for PlanePath<'_> {
    type Item = (NodeId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, EdgeId)> {
        if self.reached() || self.hops == self.plane.n {
            return None;
        }
        let (nh, e) = self.plane.lookup_raw(self.at, self.dst);
        if nh == NO_ROUTE {
            return None;
        }
        self.at = nh;
        self.hops += 1;
        Some((NodeId(nh), EdgeId(e)))
    }
}

/// All routers' forwarding state for all k slices, as one flat arena.
///
/// Layout: `plane(slice) → column(dst) → router`, i.e. entry
/// `(slice, router, dst)` lives at `(slice·n + dst)·n + router`. The
/// routers' entries toward one destination in one slice are therefore
/// one contiguous run of `n` words per slab, and one slice's full table
/// (a "plane") is a contiguous `n·n` block — which is what makes
/// zero-copy k-prefix views possible. [`SpliceFib::lookup`] and
/// [`SpliceFib::set`] speak `(slice, router, dst)`; only this module and
/// the batch walker (through [`SpliceFib::slabs`]) know the order.
#[derive(Clone, Debug, PartialEq)]
pub struct SpliceFib {
    k: usize,
    n: usize,
    next_hop: Box<[u32]>,
    out_edge: Box<[u32]>,
}

impl SpliceFib {
    /// An arena for `k` slices over `n` routers with no installed entries.
    pub fn empty(k: usize, n: usize) -> SpliceFib {
        let len = k * n * n;
        SpliceFib {
            k,
            n,
            next_hop: vec![NO_ROUTE; len].into_boxed_slice(),
            out_edge: vec![NO_ROUTE; len].into_boxed_slice(),
        }
    }

    #[inline]
    fn idx(&self, slice: usize, router: usize, dst: usize) -> usize {
        debug_assert!(slice < self.k);
        slice * self.n * self.n + plane_idx(self.n, router, dst)
    }

    /// Next hop and outgoing edge of `router` toward `dst` in `slice` —
    /// Algorithm 1's `Lookup(dst, slice)`, one multiply-add and two loads.
    #[inline]
    pub fn lookup(&self, slice: usize, router: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        let i = self.idx(slice, router.index(), dst.index());
        let nh = self.next_hop[i];
        if nh == NO_ROUTE {
            None
        } else {
            Some((NodeId(nh), EdgeId(self.out_edge[i])))
        }
    }

    /// Install (or clear) one entry.
    pub fn set(
        &mut self,
        slice: usize,
        router: NodeId,
        dst: NodeId,
        entry: Option<(NodeId, EdgeId)>,
    ) {
        let i = self.idx(slice, router.index(), dst.index());
        store(&mut self.next_hop[i], &mut self.out_edge[i], entry);
    }

    /// Number of slice planes in the arena.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of routers (= destinations) per plane.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total arena footprint in bytes — the measured §4.2 state size.
    /// Exactly `k · n² · 2 · 4` bytes: linear in k by construction.
    pub fn state_bytes(&self) -> usize {
        (self.next_hop.len() + self.out_edge.len()) * std::mem::size_of::<u32>()
    }

    /// Bytes of a single slice plane (both slabs).
    pub fn plane_bytes(&self) -> usize {
        2 * self.n * self.n * std::mem::size_of::<u32>()
    }

    /// Installed (non-sentinel) entries across the first `k_prefix`
    /// planes — the entry-count state metric.
    pub fn installed(&self, k_prefix: usize) -> usize {
        assert!(k_prefix <= self.k);
        let end = k_prefix * self.n * self.n;
        self.next_hop[..end]
            .iter()
            .filter(|&&v| v != NO_ROUTE)
            .count()
    }

    /// A mutable view of plane `slice` — the borrow every plane write
    /// (fill, column patch, delta repair) goes through.
    pub fn plane_mut(&mut self, slice: usize) -> PlaneMut<'_> {
        assert!(
            slice < self.k,
            "slice {slice} out of range (k = {})",
            self.k
        );
        let len = self.n * self.n;
        let start = slice * len;
        PlaneMut {
            n: self.n,
            next_hop: &mut self.next_hop[start..start + len],
            out_edge: &mut self.out_edge[start..start + len],
        }
    }

    /// Every plane as an independent mutable view, in slice order.
    ///
    /// The views borrow pairwise-disjoint regions of the two slabs, so
    /// they can be moved to worker threads and patched concurrently —
    /// each thread owns its slice's forwarding state outright, and the
    /// "merge" back into the arena is the no-op of dropping the borrows.
    pub fn planes_mut(&mut self) -> Vec<PlaneMut<'_>> {
        let len = self.n * self.n;
        self.next_hop
            .chunks_mut(len)
            .zip(self.out_edge.chunks_mut(len))
            .map(|(next_hop, out_edge)| PlaneMut {
                n: self.n,
                next_hop,
                out_edge,
            })
            .collect()
    }

    /// A new arena holding copies of the first `k` planes: one allocation
    /// and two `memcpy`s, no shortest-path work.
    pub fn clone_prefix(&self, k: usize) -> SpliceFib {
        assert!(k <= self.k, "prefix {k} exceeds arena k = {}", self.k);
        let len = k * self.n * self.n;
        SpliceFib {
            k,
            n: self.n,
            next_hop: self.next_hop[..len].into(),
            out_edge: self.out_edge[..len].into(),
        }
    }

    /// Overwrite this arena with the first `self.k` planes of `src`
    /// without reallocating: [`SpliceFib::copy_planes_from`] with every
    /// plane selected.
    pub fn copy_from(&mut self, src: &SpliceFib) {
        self.copy_planes_from(src, |_| true);
    }

    /// Overwrite each plane `slice < self.k` for which `copy(slice)` holds
    /// with plane `slice` of `src`, without reallocating, and leave the
    /// other planes as they are. This is how a repair starts: a retired
    /// arena (or a fresh one) takes a copy of exactly the planes the
    /// repair will patch or carry over, while the planes it will rebuild
    /// whole are not copied only to be overwritten.
    ///
    /// # Panics
    /// Panics when `src` has a different `n` or fewer than `self.k`
    /// planes.
    pub fn copy_planes_from(&mut self, src: &SpliceFib, mut copy: impl FnMut(usize) -> bool) {
        assert_eq!(self.n, src.n, "arena shape mismatch: n differs");
        assert!(
            self.k <= src.k,
            "cannot copy {} planes from an arena holding {}",
            self.k,
            src.k
        );
        let len = self.n * self.n;
        for slice in (0..self.k).filter(|&slice| copy(slice)) {
            let run = slice * len..(slice + 1) * len;
            self.next_hop[run.clone()].copy_from_slice(&src.next_hop[run.clone()]);
            self.out_edge[run.clone()].copy_from_slice(&src.out_edge[run]);
        }
    }

    /// A read-only view of one slice's full n×n plane, for concurrent
    /// walkers: the view borrows the arena, so any number of data-plane
    /// threads can hold planes of one `Arc<SpliceFib>` snapshot while the
    /// control plane repairs a *different* (cloned) arena and publishes
    /// it through a [`crate::snapshot::SnapshotHub`].
    #[inline]
    pub fn plane(&self, slice: usize) -> Plane<'_> {
        assert!(
            slice < self.k,
            "slice {slice} out of range (k = {})",
            self.k
        );
        let len = self.n * self.n;
        let start = slice * len;
        Plane {
            n: self.n,
            next_hop: &self.next_hop[start..start + len],
            out_edge: &self.out_edge[start..start + len],
        }
    }

    /// The whole arena's raw slabs, `(next_hop, out_edge)`, both indexed
    /// by `(slice·n + dst)·n + router` with [`NO_ROUTE`] holes. This is
    /// the batch-forwarding fast path: a walker precomputes one
    /// [`column_start`](SpliceFib::column_start) per packet and advances
    /// with a single add per hop, re-deriving the base only when the
    /// packet switches slices.
    #[inline]
    pub fn slabs(&self) -> (&[u32], &[u32]) {
        (&self.next_hop, &self.out_edge)
    }

    /// Where the `(slice, dst)` column starts in both
    /// [`slabs`](SpliceFib::slabs): `router`'s entry is at
    /// `column_start + router`.
    #[inline]
    pub fn column_start(&self, slice: usize, dst: usize) -> usize {
        self.idx(slice, 0, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_graph::dijkstra::all_destinations;
    use splice_graph::graph::from_edges;

    fn diamond() -> splice_graph::Graph {
        from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)])
    }

    /// Assert plane `slice` equals the un-fused reference entry for
    /// entry: one standalone Dijkstra per destination, no arena involved;
    /// `spts[t].parent[u]` is router `u`'s entry toward `t`.
    fn assert_plane_matches_spts(
        arena: &SpliceFib,
        slice: usize,
        g: &splice_graph::Graph,
        w: &[f64],
    ) {
        let spts = all_destinations(g, w);
        for u in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    arena.lookup(slice, u, t),
                    spts[t.index()].parent[u.index()],
                    "router {u:?} toward {t:?}"
                );
            }
        }
    }

    /// Fill plane `slice` under `w` with every link up.
    fn fill_up(arena: &mut SpliceFib, slice: usize, g: &splice_graph::Graph, w: &[f64]) {
        let up = EdgeMask::all_up(g.edge_count());
        arena
            .plane_mut(slice)
            .fill(g, w, &up, &mut SpfWorkspace::new());
    }

    #[test]
    fn fill_slice_matches_unfused_dijkstra() {
        let g = diamond();
        let w = g.base_weights();
        let mut arena = SpliceFib::empty(1, g.node_count());
        fill_up(&mut arena, 0, &g, &w);
        assert_plane_matches_spts(&arena, 0, &g, &w);
        // Router 0 toward 3: via 1 (cost 3 < 4); symmetric on the way
        // back; self entries are empty.
        let next = |u: u32, t: u32| arena.lookup(0, NodeId(u), NodeId(t)).map(|(nh, _)| nh);
        assert_eq!(next(0, 3), Some(NodeId(1)));
        assert_eq!(next(3, 0), Some(NodeId(1)));
        assert_eq!(next(2, 2), None);
        // Connected graph: every router has n-1 entries.
        assert_eq!(arena.installed(1), 4 * 3);
        // Every installed out-edge joins the router to its next hop.
        for u in g.nodes() {
            for t in g.nodes() {
                if let Some((nh, e)) = arena.lookup(0, u, t) {
                    let edge = g.edge(e);
                    assert!(edge.touches(u) && edge.touches(nh));
                }
            }
        }
    }

    #[test]
    fn planes_hold_independent_slices() {
        let g = diamond();
        let weights = [g.base_weights(), vec![1.0, 10.0, 2.0, 2.0]];
        let mut arena = SpliceFib::empty(2, g.node_count());
        for (slice, w) in weights.iter().enumerate() {
            fill_up(&mut arena, slice, &g, w);
        }
        assert_eq!(arena.k(), 2);
        for (slice, w) in weights.iter().enumerate() {
            assert_plane_matches_spts(&arena, slice, &g, w);
        }
        assert_ne!(arena.plane(0), arena.plane(1));
    }

    #[test]
    fn sentinel_represents_missing_entries() {
        let g = from_edges(3, &[(0, 1, 1.0)]); // node 2 isolated
        let mut arena = SpliceFib::empty(1, 3);
        fill_up(&mut arena, 0, &g, &g.base_weights());
        assert_eq!(arena.lookup(0, NodeId(0), NodeId(2)), None);
        assert_eq!(arena.lookup(0, NodeId(2), NodeId(0)), None);
        assert_eq!(arena.installed(1), 2); // 0<->1 only
        let used: Vec<EdgeId> = arena.plane(0).used_edges().collect();
        assert_eq!(used, [EdgeId(0), EdgeId(0)]);
    }

    #[test]
    fn state_accounting_is_linear_in_k() {
        let n = 7;
        let a1 = SpliceFib::empty(1, n);
        let a4 = SpliceFib::empty(4, n);
        assert_eq!(a4.state_bytes(), 4 * a1.state_bytes());
        assert_eq!(a1.state_bytes(), 2 * n * n * 4);
        assert_eq!(a1.plane_bytes(), a1.state_bytes());
        assert_eq!(a4.plane_bytes(), a1.state_bytes());
    }

    /// Rebuild `slice` from scratch under `weights`/`mask` and assert the
    /// repaired arena plane equals it entry for entry.
    fn assert_plane_matches_rebuild(
        arena: &SpliceFib,
        g: &splice_graph::Graph,
        w: &[f64],
        slice: usize,
        mask: &EdgeMask,
    ) {
        let mut ws = SpfWorkspace::new();
        let mut fresh = SpliceFib::empty(1, g.node_count());
        let mut plane = fresh.plane_mut(0);
        for t in g.nodes() {
            ws.run(g, t, w, Some(mask));
            plane.patch_column(t, ws.parents());
        }
        for u in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    arena.lookup(slice, u, t),
                    fresh.lookup(0, u, t),
                    "router {u:?} toward {t:?}"
                );
            }
        }
    }

    #[test]
    fn fill_matches_rebuild_and_clears_stale_entries() {
        let g = diamond();
        let w = g.base_weights();
        let mut arena = SpliceFib::empty(1, g.node_count());
        // Dirty plane: all-up fill, then refill under a failure.
        fill_up(&mut arena, 0, &g, &w);
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(0));
        arena
            .plane_mut(0)
            .fill(&g, &w, &mask, &mut SpfWorkspace::new());
        assert_plane_matches_rebuild(&arena, &g, &w, 0, &mask);
    }

    #[test]
    fn clone_prefix_copies_planes() {
        let g = diamond();
        let mut arena = SpliceFib::empty(2, g.node_count());
        fill_up(&mut arena, 0, &g, &g.base_weights());
        fill_up(&mut arena, 1, &g, &[1.0, 10.0, 2.0, 2.0]);
        let one = arena.clone_prefix(1);
        assert_eq!(one.k(), 1);
        assert_eq!(one.plane(0), arena.plane(0));
        let both = arena.clone_prefix(2);
        assert_eq!(both, arena);
    }

    #[test]
    fn copy_from_recycles_an_arena_in_place() {
        let g = diamond();
        let mut arena = SpliceFib::empty(2, g.node_count());
        fill_up(&mut arena, 0, &g, &g.base_weights());
        fill_up(&mut arena, 1, &g, &[1.0, 10.0, 2.0, 2.0]);
        // A stale retired arena of the same shape becomes a copy.
        let mut recycled = SpliceFib::empty(2, g.node_count());
        recycled.copy_from(&arena);
        assert_eq!(recycled, arena);
        // A smaller-k arena takes the prefix, like clone_prefix.
        let mut prefix = SpliceFib::empty(1, g.node_count());
        prefix.copy_from(&arena);
        assert_eq!(prefix, arena.clone_prefix(1));
    }

    #[test]
    fn copy_planes_from_leaves_unselected_planes_alone() {
        let g = diamond();
        let mut arena = SpliceFib::empty(3, g.node_count());
        for slice in 0..3 {
            fill_up(&mut arena, slice, &g, &g.base_weights());
        }
        let mut dst = SpliceFib::empty(3, g.node_count());
        dst.set(1, NodeId(0), NodeId(3), Some((NodeId(2), EdgeId(2))));
        dst.copy_planes_from(&arena, |slice| slice != 1);
        assert_eq!(dst.plane(0), arena.plane(0));
        assert_eq!(dst.plane(2), arena.plane(2));
        // Plane 1 keeps its one stale entry and its holes.
        let stale = Some((NodeId(2), EdgeId(2)));
        assert_eq!(dst.lookup(1, NodeId(0), NodeId(3)), stale);
        assert_eq!(dst.installed(2) - dst.installed(1), 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn copy_from_rejects_mismatched_n() {
        let mut dst = SpliceFib::empty(1, 3);
        dst.copy_from(&SpliceFib::empty(1, 4));
    }

    #[test]
    fn patch_column_roundtrips_workspace_parents() {
        let g = diamond();
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        let mut direct = SpliceFib::empty(1, g.node_count());
        fill_up(&mut direct, 0, &g, &w);
        let mut patched = SpliceFib::empty(1, g.node_count());
        for t in g.nodes() {
            ws.run(&g, t, &w, None);
            patched.plane_mut(0).patch_column(t, ws.parents());
        }
        assert_eq!(patched, direct);
    }

    #[test]
    fn patch_failures_matches_rebuild_and_skips_untouched() {
        let g = diamond();
        let w = g.base_weights();
        for fail in g.edge_ids() {
            let mut arena = SpliceFib::empty(1, g.node_count());
            let mut ws = SpfWorkspace::new();
            fill_up(&mut arena, 0, &g, &w);
            let mut mask = EdgeMask::all_up(g.edge_count());
            mask.fail(fail);
            let stats = arena.plane_mut(0).patch_failures(
                &g,
                &w,
                &mask,
                &[fail],
                &mut PlaneDistances::none(),
                &mut ws,
            );
            assert_eq!(
                stats.patched_columns + stats.skipped_columns,
                g.node_count(),
                "every column accounted for"
            );
            assert_plane_matches_rebuild(&arena, &g, &w, 0, &mask);
        }
    }

    #[test]
    fn patch_reweight_matches_rebuild_both_directions() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        for edge in g.edge_ids() {
            for factor in [4.0, 0.3] {
                let old = g.base_weights();
                let mut new_w = old.clone();
                new_w[edge.index()] *= factor;
                let mut arena = SpliceFib::empty(1, g.node_count());
                let mut ws = SpfWorkspace::new();
                fill_up(&mut arena, 0, &g, &old);
                arena.plane_mut(0).patch_reweight(
                    &g,
                    &mut new_w,
                    &mask,
                    edge,
                    old[edge.index()],
                    &mut PlaneDistances::none(),
                    &mut ws,
                );
                assert_plane_matches_rebuild(&arena, &g, &new_w, 0, &mask);
            }
        }
    }

    #[test]
    fn patch_restores_matches_rebuild_and_skips_untouched() {
        let g = diamond();
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        for down in [
            vec![EdgeId(0)],
            vec![EdgeId(1), EdgeId(2)],
            vec![EdgeId(0), EdgeId(3)],
        ] {
            let mut mask = EdgeMask::from_failed(g.edge_count(), &down);
            let mut arena = SpliceFib::empty(1, g.node_count());
            arena.plane_mut(0).fill(&g, &w, &mask, &mut ws);
            // Bring the links back one batch at a time: first alone, then
            // the rest together.
            for batch in [&down[..1], &down[1..]] {
                for e in batch {
                    mask.restore(*e);
                }
                let stats = arena.plane_mut(0).patch_restores(
                    &g,
                    &w,
                    &mask,
                    batch,
                    &mut PlaneDistances::none(),
                    &mut ws,
                );
                assert_eq!(
                    stats.patched_columns + stats.skipped_columns,
                    g.node_count(),
                    "every column accounted for"
                );
                assert_plane_matches_rebuild(&arena, &g, &w, 0, &mask);
            }
        }
        // A link no column would route over (or tie on) patches nothing:
        // 0-2-3 at 1000 + 2 never competes with 0-1-3 at 1 + 2.
        let heavy = [1.0, 2.0, 1000.0, 2.0];
        let mut mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        let mut arena = SpliceFib::empty(1, g.node_count());
        arena.plane_mut(0).fill(&g, &heavy, &mask, &mut ws);
        mask.restore(EdgeId(2));
        let stats = arena.plane_mut(0).patch_restores(
            &g,
            &heavy,
            &mask,
            &[EdgeId(2)],
            &mut PlaneDistances::none(),
            &mut ws,
        );
        assert_eq!(stats.patched_columns, 0);
        assert_plane_matches_rebuild(&arena, &g, &heavy, 0, &mask);
    }

    /// Every column `memo` knows for plane `slice` holds, bit for bit,
    /// what folding the arena's installed parent chains under `w` gives.
    fn assert_memo_matches_fold(
        arena: &SpliceFib,
        slice: usize,
        g: &splice_graph::Graph,
        w: &[f64],
        memo: &DistanceMemo,
    ) {
        let mut ws = SpfWorkspace::new();
        for t in g.nodes() {
            let Some(dist) = memo.column(slice, t) else {
                continue;
            };
            ws.load_tree(g, t, w, |u| arena.lookup(slice, NodeId(u as u32), t));
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(dist), bits(ws.distances()), "column {t:?}");
        }
    }

    /// The same event sequence patched with and without a memo: equal
    /// planes after every pass, the memo equal to the chain fold, and
    /// columns folded once, then read.
    #[test]
    fn patches_through_a_memo_match_memo_free_patches() {
        let g = from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
                (1, 3, 2.0),
                (0, 2, 2.0),
            ],
        );
        let mut w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        let mut plain = SpliceFib::empty(1, g.node_count());
        fill_up(&mut plain, 0, &g, &w);
        let mut memoed = plain.clone();
        let mut memo = DistanceMemo::new(1, g.node_count());
        let mut mask = EdgeMask::all_up(g.edge_count());
        let mut totals = RepairStats::default();
        for step in 0..8 {
            let e = EdgeId(step % 4);
            let (plain_stats, memo_stats) = match step % 4 {
                0 => {
                    mask.fail(e);
                    let mut run = |plane: &mut PlaneMut<'_>, memo: &mut PlaneDistances<'_>| {
                        plane.patch_failures(&g, &w, &mask, &[e], memo, &mut ws)
                    };
                    (
                        run(&mut plain.plane_mut(0), &mut PlaneDistances::none()),
                        run(&mut memoed.plane_mut(0), &mut memo.plane_mut(0)),
                    )
                }
                1 | 2 => {
                    let e = EdgeId(5 + step % 2);
                    let old = w[e.index()];
                    w[e.index()] = if step % 4 == 1 { old * 3.0 } else { old * 0.25 };
                    let mut run = |plane: &mut PlaneMut<'_>, memo: &mut PlaneDistances<'_>| {
                        let mut cur = w.clone();
                        plane.patch_reweight(&g, &mut cur, &mask, e, old, memo, &mut ws)
                    };
                    (
                        run(&mut plain.plane_mut(0), &mut PlaneDistances::none()),
                        run(&mut memoed.plane_mut(0), &mut memo.plane_mut(0)),
                    )
                }
                _ => {
                    let restored: Vec<EdgeId> = mask.failed_edges().collect();
                    restored.iter().for_each(|&e| mask.restore(e));
                    let mut run = |plane: &mut PlaneMut<'_>, memo: &mut PlaneDistances<'_>| {
                        plane.patch_restores(&g, &w, &mask, &restored, memo, &mut ws)
                    };
                    (
                        run(&mut plain.plane_mut(0), &mut PlaneDistances::none()),
                        run(&mut memoed.plane_mut(0), &mut memo.plane_mut(0)),
                    )
                }
            };
            assert_eq!(memoed, plain, "step {step}");
            assert_plane_matches_rebuild(&memoed, &g, &w, 0, &mask);
            assert_memo_matches_fold(&memoed, 0, &g, &w, &memo);
            let work = |s: RepairStats| (s.patched_columns, s.skipped_columns, s.frontier_nodes);
            assert_eq!(
                work(memo_stats),
                work(plain_stats),
                "step {step}: the memo changes where distances come from, nothing else"
            );
            assert_eq!(plain_stats.memo_columns, 0);
            assert_eq!(
                memo_stats.folded_columns + memo_stats.memo_columns,
                plain_stats.folded_columns
            );
            totals.absorb(memo_stats);
        }
        assert!(totals.folded_columns <= g.node_count(), "{totals:?}");
        assert!(totals.memo_columns > 0, "{totals:?}");
    }

    #[test]
    fn planes_mut_views_are_disjoint_and_complete() {
        let g = diamond();
        let w0 = g.base_weights();
        let w1 = [1.0, 10.0, 2.0, 2.0];
        // Fill through per-plane views handed out together (as the
        // batch repair engine does) ...
        let mut via_planes = SpliceFib::empty(2, g.node_count());
        let mut ws = SpfWorkspace::new();
        {
            let up = EdgeMask::all_up(g.edge_count());
            let mut planes = via_planes.planes_mut();
            assert_eq!(planes.len(), 2);
            planes[0].fill(&g, &w0, &up, &mut ws);
            planes[1].fill(&g, &w1, &up, &mut ws);
        }
        // ... and through one `plane_mut` borrow at a time; bit-identical.
        let mut direct = SpliceFib::empty(2, g.node_count());
        fill_up(&mut direct, 0, &g, &w0);
        fill_up(&mut direct, 1, &g, &w1);
        assert_eq!(via_planes, direct);

        // Repair through a view handed out with its siblings equals
        // repair through a lone `plane_mut` borrow.
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(EdgeId(0));
        let stats_direct = direct.plane_mut(0).patch_failures(
            &g,
            &w0,
            &mask,
            &[EdgeId(0)],
            &mut PlaneDistances::none(),
            &mut ws,
        );
        let stats_plane = {
            let mut planes = via_planes.planes_mut();
            planes[0].patch_failures(
                &g,
                &w0,
                &mask,
                &[EdgeId(0)],
                &mut PlaneDistances::none(),
                &mut ws,
            )
        };
        assert_eq!(stats_plane, stats_direct);
        assert_eq!(via_planes, direct);
    }

    /// The layout contract the walker and the repair engine lean on, at
    /// an `n` that is not a multiple of a cache line's 16 words: one
    /// `(slice, dst)` column is one contiguous router-indexed run of both
    /// slabs, columns tile the plane, planes tile the arena, and
    /// `lookup`/`set` speak `(slice, router, dst)` whatever the order.
    #[test]
    fn a_destination_column_is_one_contiguous_run() {
        let (k, n) = (3, 7);
        let entry = |s: usize, u: usize, t: usize| {
            (u != t).then(|| {
                (
                    NodeId((s * 100 + t * 10 + u) as u32),
                    EdgeId((s + t + u) as u32),
                )
            })
        };
        let cells =
            || (0..k).flat_map(|s| (0..n).flat_map(move |u| (0..n).map(move |t| (s, u, t))));
        let mut arena = SpliceFib::empty(k, n);
        for (s, u, t) in cells() {
            arena.set(s, NodeId(u as u32), NodeId(t as u32), entry(s, u, t));
        }
        let (next_hop, out_edge) = arena.slabs();
        assert_eq!((next_hop.len(), out_edge.len()), (k * n * n, k * n * n));
        for s in 0..k {
            for t in 0..n {
                assert_eq!(arena.column_start(s, t), (s * n + t) * n);
                let run = (s * n + t) * n..(s * n + t + 1) * n;
                for (u, (&nh, &oe)) in next_hop[run.clone()].iter().zip(&out_edge[run]).enumerate()
                {
                    let want = entry(s, u, t).map_or((NO_ROUTE, NO_ROUTE), |(nh, e)| (nh.0, e.0));
                    assert_eq!((nh, oe), want, "slice {s} dst {t} router {u}");
                    assert_eq!(arena.plane(s).lookup_raw(u as u32, t as u32), want);
                    assert_eq!(
                        arena.lookup(s, NodeId(u as u32), NodeId(t as u32)),
                        entry(s, u, t)
                    );
                }
            }
        }
        // `planes_mut` views are those same blocks: a column written
        // through view `s` lands in plane `s` and nowhere else.
        let before = arena.clone();
        let parents: Vec<_> = (0..n).map(|u| entry(9, u, 4)).collect();
        arena.planes_mut()[1].patch_column(NodeId(4), &parents);
        for (s, u, t) in cells() {
            let (u_id, t_id) = (NodeId(u as u32), NodeId(t as u32));
            let want = if (s, t) == (1, 4) {
                entry(9, u, 4)
            } else {
                before.lookup(s, u_id, t_id)
            };
            assert_eq!(
                arena.lookup(s, u_id, t_id),
                want,
                "slice {s} dst {t} router {u}"
            );
        }
    }

    /// Re-rooting writes exactly the per-destination orientation of the
    /// tree, over a dirty plane, and leaves other trees' columns alone.
    #[test]
    fn fill_tree_columns_reroots_one_tree() {
        // A path 3 - 1 - 0 - 2 rooted at 0 (edge ids 0: 0-1, 1: 0-2,
        // 2: 1-3); node 4 is outside the tree.
        let g = from_edges(5, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0)]);
        let parent = [None, Some((0, 0)), Some((0, 1)), Some((1, 2)), None];
        let mut arena = SpliceFib::empty(1, 5);
        for (u, t) in (0..5).flat_map(|u| (0..5).map(move |t| (u, t))) {
            arena.set(0, NodeId(u), NodeId(t), Some((NodeId(77), EdgeId(88))));
        }
        arena
            .plane_mut(0)
            .fill_tree_columns(&[0, 1, 3, 2], |u| parent[u as usize]);
        let mut want = SpliceFib::empty(1, 5);
        fill_up(&mut want, 0, &g, &g.base_weights());
        for (u, t) in (0..5).flat_map(|u| (0..5).map(move |t| (NodeId(u), NodeId(t)))) {
            let expect = if t == NodeId(4) {
                Some((NodeId(77), EdgeId(88)))
            } else {
                want.lookup(0, u, t)
            };
            assert_eq!(arena.lookup(0, u, t), expect, "router {u:?} toward {t:?}");
        }
        // An empty tree writes nothing.
        let before = arena.clone();
        arena.plane_mut(0).fill_tree_columns(&[], |_| None);
        assert_eq!(arena, before);
    }

    /// `Plane::path` reads one column: it delivers, stops at a missing
    /// entry, and on a column made cyclic by hand returns after n hops.
    #[test]
    fn plane_path_follows_one_column() {
        let g = diamond();
        let mut arena = SpliceFib::empty(1, g.node_count());
        fill_up(&mut arena, 0, &g, &g.base_weights());
        let hop = |nh: u32, e: u32| (NodeId(nh), EdgeId(e));
        let (src, dst) = (NodeId(0), NodeId(3));
        // Delivery: 0 -> 1 over edge 0, then 1 -> 3 over edge 1.
        let mut path = arena.plane(0).path(src, dst);
        assert_eq!(path.by_ref().collect::<Vec<_>>(), [hop(1, 0), hop(3, 1)]);
        assert!(path.reached());
        let mut home = arena.plane(0).path(dst, dst);
        assert_eq!(home.next(), None);
        assert!(home.reached());
        // A dead end: router 1 loses its entry toward 3.
        arena.set(0, NodeId(1), dst, None);
        let mut path = arena.plane(0).path(src, dst);
        assert_eq!(path.by_ref().collect::<Vec<_>>(), [hop(1, 0)]);
        assert!(!path.reached());
        // A cycle: router 1 points back at 0. The cap ends it at n hops.
        arena.set(0, NodeId(1), dst, Some(hop(0, 0)));
        let mut path = arena.plane(0).path(src, dst);
        assert_eq!(
            path.by_ref().collect::<Vec<_>>(),
            [hop(1, 0), hop(0, 0), hop(1, 0), hop(0, 0)]
        );
        assert!(!path.reached());
    }

    #[test]
    fn set_and_installed_counts() {
        let mut arena = SpliceFib::empty(2, 3);
        assert_eq!(arena.installed(2), 0);
        arena.set(1, NodeId(0), NodeId(2), Some((NodeId(1), EdgeId(0))));
        assert_eq!(arena.installed(1), 0, "prefix excludes plane 1");
        assert_eq!(arena.installed(2), 1);
        assert_eq!(
            arena.lookup(1, NodeId(0), NodeId(2)),
            Some((NodeId(1), EdgeId(0)))
        );
        arena.set(1, NodeId(0), NodeId(2), None);
        assert_eq!(arena.installed(2), 0);
    }
}
