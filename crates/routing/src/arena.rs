//! The flat spliced-FIB arena: all k slices' forwarding state in one
//! contiguous slab.
//!
//! The paper's §4.2 scalability claim is that splicing state grows
//! linearly in k. This module makes that state a measurable object: a
//! [`SpliceFib`] holds `next_hop` and `out_edge` as two slice-major
//! `Box<[u16]>` slabs indexed O(1) by `(slice, router, dst)`, with
//! [`NO_ROUTE`] (`u16::MAX`) standing in for "no entry" — no nesting, no
//! per-entry `Option` overhead, no pointer chasing on the data-plane hot
//! path. A k-prefix of a splicing is literally the first k planes of the
//! slab, so prefix "views" share the arena instead of deep-cloning it.
//!
//! An entry is two `u16` words, 4 bytes: Sprint's five planes take
//! 54,080 bytes. So an arena covers graphs of fewer than 65,535 routers
//! and links (every id below [`NO_ROUTE`]); [`SpliceFib::for_graph`]
//! rejects a larger graph with a message, and every write converts its
//! ids checked, so an entry is never silently truncated. A dense `k·n²` plane could
//! not reach that size anyway (at 50,000 routers one plane is 10 GB);
//! graphs that large need a compressed representation, not wider words.
//!
//! Within a plane the slabs are *destination-major*: the `n` routers'
//! entries toward one destination are one contiguous run (a "column").
//! That is the unit everything here works in — a slice is a family of
//! destination-rooted trees, so a repair works inside one column
//! and writes back the entries it moved, and a packet, whose
//! destination never changes, stays inside one column per slice for its
//! whole walk.
//!
//! `SpliceFib` is the only table type in the workspace: the protocol
//! simulator and every slice construction fill planes of one directly,
//! through [`PlaneMut`], and a caller that only needs one slice's path
//! reads it down one column through [`Plane::path`]. A plane is written
//! whole by one fill ([`PlaneMut::fill`]) and repaired by one delta call
//! per batch of link changes ([`PlaneMut::patch`]), which relaxes each
//! column once under the batch's final state, reading its out-edges and
//! distances in place only where the pass reaches, and writes back only
//! the entries that moved, whatever mix of
//! failures, restores and reweights the batch holds.

use splice_graph::dijkstra::{SpfDelta, SpfWorkspace, SptColumn};
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use std::ops::Range;

/// Sentinel for "no installed entry" in both slabs. Node and edge ids are
/// dense, and an arena only covers graphs whose ids all lie below it
/// ([`SpliceFib::for_graph`]), so the sentinel never collides with real
/// state.
pub const NO_ROUTE: u16 = u16::MAX;

/// Narrow a node or edge id to an arena word, or panic naming the limit:
/// an entry is never silently truncated.
#[inline]
fn word(id: u32) -> u16 {
    match u16::try_from(id) {
        Ok(w) if w != NO_ROUTE => w,
        _ => panic!("id {id} does not fit an arena entry: node and edge ids must be below 65,535"),
    }
}

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
    /// The repair frontier: the nodes a pass reset or moved, each once
    /// per column, summed over the patched columns.
    pub frontier_nodes: usize,
    /// Entries the pass stored: each delta-repaired column writes back
    /// only its frontier, a masked rebuild all `n²` of its plane.
    pub entries_written: usize,
    /// Column entries the pass read into its workspace, as
    /// [`SpfWorkspace::loaded`] counts them per column: each entry a
    /// delta repair needed, once, and none of the dirty nodes it reset
    /// unread; none for a masked rebuild.
    pub entries_loaded: usize,
}

impl RepairStats {
    /// Fold another plane's stats into this one.
    pub fn absorb(&mut self, other: RepairStats) {
        self.patched_columns += other.patched_columns;
        self.skipped_columns += other.skipped_columns;
        self.frontier_nodes += other.frontier_nodes;
        self.entries_written += other.entries_written;
        self.entries_loaded += other.entries_loaded;
    }
}

/// The SPF distances behind a deployment's delta-repairable planes: one
/// `f64` per `(slice, router, dst)` entry, in the arena's
/// destination-major order, `f64::INFINITY` where no route exists.
///
/// A delta repair needs the distances of each tree it patches. The
/// build's fill records them as Dijkstra leaves them
/// ([`PlaneMut::fill`]), and every repair pass reads them
/// in place ([`SpfWorkspace::repair`]) and writes back what it computed, so
/// they are complete from the start and never re-derived. The memo is
/// kept beside the arena, never in it, so published snapshots do not
/// carry it.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMemo {
    n: usize,
    dist: Box<[f64]>,
}

impl DistanceMemo {
    /// A memo for `k` planes over `n` routers, every distance infinite
    /// until a fill records the planes.
    pub fn new(k: usize, n: usize) -> DistanceMemo {
        DistanceMemo {
            n,
            dist: vec![f64::INFINITY; k * n * n].into_boxed_slice(),
        }
    }

    /// The distances of `fib`'s first `weights.len()` planes, derived by
    /// folding each column's installed parent chains under its slice's
    /// weights ([`SpfWorkspace::load_tree`]) — bit for bit what the fills
    /// and repairs that produced the columns computed. O(k·n²); for a
    /// deployment assembled from explicit parts, which has none recorded.
    pub fn fold(g: &Graph, fib: &SpliceFib, weights: &[&[f64]]) -> DistanceMemo {
        let n = fib.n();
        let mut memo = DistanceMemo::new(weights.len(), n);
        let mut ws = SpfWorkspace::new();
        for (slice, w) in weights.iter().enumerate() {
            let plane = memo.plane_mut(slice);
            for t in g.nodes() {
                ws.load_tree(g, t, w, |u| fib.lookup(slice, NodeId(u as u32), t));
                let d = t.index();
                plane[d * n..(d + 1) * n].copy_from_slice(ws.distances());
            }
        }
        memo
    }

    /// Number of planes covered.
    pub fn k(&self) -> usize {
        self.dist.len() / (self.n * self.n).max(1)
    }

    /// Number of routers (= destinations) per plane.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The router-indexed distances toward `dst` in `slice`.
    pub fn column(&self, slice: usize, dst: NodeId) -> &[f64] {
        let c = slice * self.n + dst.index();
        &self.dist[c * self.n..(c + 1) * self.n]
    }

    /// Plane `slice`'s `n·n` distances, destination-major like the
    /// arena's plane: what [`PlaneMut::fill`] records and
    /// [`PlaneMut::patch`] reads and keeps current.
    pub fn plane_mut(&mut self, slice: usize) -> &mut [f64] {
        let len = self.n * self.n;
        &mut self.dist[slice * len..(slice + 1) * len]
    }

    /// A new memo holding copies of the first `k` planes, as
    /// [`SpliceFib::clone_prefix`] copies an arena's.
    pub fn clone_prefix(&self, k: usize) -> DistanceMemo {
        assert!(k <= self.k(), "prefix {k} exceeds memo k = {}", self.k());
        DistanceMemo {
            n: self.n,
            dist: self.dist[..k * self.n * self.n].into(),
        }
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
fn store(next_hop: &mut u16, out_edge: &mut u16, entry: Option<(NodeId, EdgeId)>) {
    (*next_hop, *out_edge) = match entry {
        Some((nh, e)) => (word(nh.0), word(e.0)),
        None => (NO_ROUTE, NO_ROUTE),
    };
}

/// A mutable view of one slice plane: that plane's `n·n` regions of the
/// two slabs as disjoint `&mut` borrows.
///
/// Planes are contiguous and non-overlapping, so
/// [`SpliceFib::planes_mut`] can hand out every slice at once — this is
/// the unit the batched repair engine works in, one plane after another.
/// This is the only write API for a plane: one whole-plane fill, one
/// delta repair per batch, and the column writes both are made of; the
/// arena itself writes single entries only ([`SpliceFib::set`]).
#[derive(Debug)]
pub struct PlaneMut<'a> {
    n: usize,
    next_hop: &'a mut [u16],
    out_edge: &'a mut [u16],
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

    /// Where the `dst` column sits in the plane's slabs, and in its
    /// distances.
    #[inline]
    fn column(&self, dst: NodeId) -> Range<usize> {
        let start = self.idx(0, dst.index());
        start..start + self.n
    }

    /// The `dst` column of both slabs, router-indexed and writable:
    /// `(next_hop, out_edge)`.
    #[inline]
    fn column_mut(&mut self, dst: NodeId) -> (&mut [u16], &mut [u16]) {
        let run = self.column(dst);
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
            Some((NodeId(nh.into()), EdgeId(self.out_edge[i].into())))
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
    /// `memcpy` of `2·n` bytes per slab and two stores per slab.
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
        let arc = |u| {
            let (p, e) = parent_arc(u).expect("only the root lacks a parent arc");
            (word(p), word(e))
        };
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
            for (slab, at_parent) in [(&mut *self.next_hop, word(c)), (&mut *self.out_edge, e)] {
                slab.copy_within(from..from + n, to);
                slab[to + p as usize] = at_parent;
                slab[to + c as usize] = NO_ROUTE;
            }
        }
    }

    /// Run destination-rooted Dijkstra for every node under `weights`
    /// over the `mask`-up subgraph, reusing `ws` across all n roots, and
    /// write every column back whole — the one full-plane SPF write.
    /// With `dist` (the plane's `n·n` distances, see
    /// [`DistanceMemo::plane_mut`]) each column's distances are recorded
    /// too, as the run leaves them.
    ///
    /// The tree rooted at `t` holds, for every router, its next hop
    /// toward `t`, so each run's parent array *is* one column and lands
    /// as one contiguous run. Unreachable pairs are written as
    /// [`NO_ROUTE`], so a dirty plane is fine.
    pub fn fill(
        &mut self,
        g: &Graph,
        weights: &[f64],
        mask: &EdgeMask,
        ws: &mut SpfWorkspace,
        mut dist: Option<&mut [f64]>,
    ) {
        assert_eq!(self.n, g.node_count(), "plane built for a different graph");
        // An all-up mask filters nothing; skip its per-edge test.
        let mask = (mask.failed_count() > 0).then_some(mask);
        for t in g.nodes() {
            ws.run(g, t, weights, mask);
            self.patch_column(t, ws.parents());
            if let Some(dist) = dist.as_deref_mut() {
                dist[self.column(t)].copy_from_slice(ws.distances());
            }
        }
    }

    /// After a column was repaired in `ws`: write back the entries the
    /// repair reset or moved ([`SpfWorkspace::touched`]),
    /// their parents to the plane and their distances to `dist`, and
    /// nothing else — every other entry of the column is unchanged.
    fn store_column(
        &mut self,
        dst: NodeId,
        dist: &mut [f64],
        ws: &SpfWorkspace,
        stats: &mut RepairStats,
    ) {
        let touched = ws.touched();
        if touched.is_empty() {
            stats.skipped_columns += 1;
            return;
        }
        let dist = &mut dist[self.column(dst)];
        let (next_hop, out_edge) = self.column_mut(dst);
        for &u in touched {
            let u = u.index();
            store(&mut next_hop[u], &mut out_edge[u], ws.parents()[u]);
            dist[u] = ws.distances()[u];
        }
        stats.patched_columns += 1;
        stats.frontier_nodes += touched.len();
        stats.entries_written += touched.len();
    }

    /// Incrementally repair this plane after one batch of link changes:
    /// `delta` (see [`SpfDelta`]) in this slice's weights. The plane must
    /// hold the forwarding state that was correct before the batch, and
    /// `dist` its distances (the plane's `n·n`, see
    /// [`DistanceMemo::plane_mut`]).
    ///
    /// Each column is repaired in one relaxation
    /// ([`SpfWorkspace::repair`]) that reads the column's slabs and
    /// distances in place, only where its pass reaches them: the
    /// out-edges at the failed and raised links' endpoints and below the
    /// dirty children they find, and the entries of the nodes it seeds or
    /// offers a route. Only the entries that relaxation reset or moved
    /// are written back, to the plane and to `dist`. A column with no
    /// failed or raised tree link and no lowered link that shortens a
    /// route or wins a tie-break in it moves nothing and is counted
    /// skipped; finding that out costs two out-edge reads per failed or
    /// raised link and two entries per lowered one.
    pub fn patch(
        &mut self,
        g: &Graph,
        delta: &SpfDelta<'_>,
        dist: &mut [f64],
        ws: &mut SpfWorkspace,
    ) -> RepairStats {
        self.assert_shape(g, dist);
        let mut stats = RepairStats::default();
        for t in g.nodes() {
            let run = self.column(t);
            let column = ColumnView {
                out_edge: &self.out_edge[run.clone()],
                dist: &dist[run],
            };
            ws.repair(g, t, delta, &column);
            stats.entries_loaded += ws.loaded();
            self.store_column(t, dist, ws, &mut stats);
        }
        stats
    }

    /// The delta repair's shape check: a plane over `g`'s routers, and
    /// one distance per entry.
    fn assert_shape(&self, g: &Graph, dist: &[f64]) {
        assert_eq!(self.n, g.node_count(), "plane built for a different graph");
        assert_eq!(dist.len(), self.n * self.n, "one distance per plane entry");
    }
}

/// One column of a plane's out-edge slab and its distances, as a repair
/// reads them in place ([`SptColumn`]).
struct ColumnView<'c> {
    out_edge: &'c [u16],
    dist: &'c [f64],
}

impl SptColumn for ColumnView<'_> {
    #[inline]
    fn out_edge(&self, u: NodeId) -> Option<EdgeId> {
        let oe = self.out_edge[u.index()];
        (oe != NO_ROUTE).then(|| EdgeId(oe.into()))
    }

    #[inline]
    fn distance(&self, u: NodeId) -> f64 {
        self.dist[u.index()]
    }
}

/// A read-only borrow of one slice's n×n plane (see
/// [`SpliceFib::plane`]). `Copy`, pointer-sized-cheap, and shareable
/// across threads — the read-side counterpart of [`PlaneMut`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plane<'a> {
    n: usize,
    next_hop: &'a [u16],
    out_edge: &'a [u16],
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
    pub fn lookup_raw(&self, router: u32, dst: u32) -> (u16, u16) {
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
            .map(|&e| EdgeId(e.into()))
    }

    /// Typed lookup, same contract as [`SpliceFib::lookup`].
    #[inline]
    pub fn lookup(&self, router: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        let (nh, e) = self.lookup_raw(router.index() as u32, dst.index() as u32);
        if nh == NO_ROUTE {
            None
        } else {
            Some((NodeId(nh.into()), EdgeId(e.into())))
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
        self.at = nh.into();
        self.hops += 1;
        Some((NodeId(self.at), EdgeId(e.into())))
    }
}

/// All routers' forwarding state for all k slices, as one flat arena.
///
/// Layout: `plane(slice) → column(dst) → router`, i.e. entry
/// `(slice, router, dst)` lives at `(slice·n + dst)·n + router`. The
/// routers' entries toward one destination in one slice are therefore
/// one contiguous run of `n` `u16` words per slab, and one slice's full table
/// (a "plane") is a contiguous `n·n` block — which is what makes
/// zero-copy k-prefix views possible. [`SpliceFib::lookup`] and
/// [`SpliceFib::set`] speak `(slice, router, dst)`; only this module and
/// the batch walker (through [`SpliceFib::slabs`]) know the order.
#[derive(Clone, Debug, PartialEq)]
pub struct SpliceFib {
    k: usize,
    n: usize,
    next_hop: Box<[u16]>,
    out_edge: Box<[u16]>,
}

impl SpliceFib {
    /// An arena for `k` slices over `n` routers with no installed entries.
    ///
    /// # Panics
    /// Panics when `n` reaches 65,535: router ids must stay below
    /// [`NO_ROUTE`].
    pub fn empty(k: usize, n: usize) -> SpliceFib {
        assert!(
            n < NO_ROUTE as usize,
            "{n} routers exceed the arena's limit: node and edge ids must be below 65,535"
        );
        let len = k * n * n;
        SpliceFib {
            k,
            n,
            next_hop: vec![NO_ROUTE; len].into_boxed_slice(),
            out_edge: vec![NO_ROUTE; len].into_boxed_slice(),
        }
    }

    /// An empty arena for `k` slices over `g`'s routers — the one a build
    /// fills.
    ///
    /// # Panics
    /// Panics when `g` has 65,535 or more routers or links: every id an
    /// entry may hold must stay below [`NO_ROUTE`].
    pub fn for_graph(k: usize, g: &Graph) -> SpliceFib {
        let m = g.edge_count();
        assert!(
            m < NO_ROUTE as usize,
            "{m} links exceed the arena's limit: node and edge ids must be below 65,535"
        );
        SpliceFib::empty(k, g.node_count())
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
            Some((NodeId(nh.into()), EdgeId(self.out_edge[i].into())))
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
    /// Exactly `k · n² · 2 · 2` bytes (two `u16` words per entry): linear
    /// in k by construction.
    pub fn state_bytes(&self) -> usize {
        (self.next_hop.len() + self.out_edge.len()) * std::mem::size_of::<u16>()
    }

    /// Bytes of a single slice plane (both slabs).
    pub fn plane_bytes(&self) -> usize {
        2 * self.n * self.n * std::mem::size_of::<u16>()
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
    /// packet switches slices, and widens each word it reads.
    #[inline]
    pub fn slabs(&self) -> (&[u16], &[u16]) {
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
            .fill(g, w, &up, &mut SpfWorkspace::new(), None);
    }

    /// Fill plane `slice` under `w` over the `mask`-up subgraph and
    /// return the distances the fill recorded.
    fn fill_recording(
        arena: &mut SpliceFib,
        slice: usize,
        g: &splice_graph::Graph,
        w: &[f64],
        mask: &EdgeMask,
        ws: &mut SpfWorkspace,
    ) -> Vec<f64> {
        let mut dist = vec![0.0; g.node_count() * g.node_count()];
        arena.plane_mut(slice).fill(g, w, mask, ws, Some(&mut dist));
        dist
    }

    /// `dist` holds, bit for bit, what folding plane `slice`'s installed
    /// parent chains under `w` gives, column by column.
    fn assert_distances_match_fold(
        arena: &SpliceFib,
        slice: usize,
        g: &splice_graph::Graph,
        w: &[f64],
        dist: &[f64],
    ) {
        let folded = DistanceMemo::fold(g, &arena.clone_prefix(slice + 1), &vec![w; slice + 1]);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for t in g.nodes() {
            let n = g.node_count();
            let column = &dist[t.index() * n..(t.index() + 1) * n];
            assert_eq!(bits(column), bits(folded.column(slice, t)), "column {t:?}");
        }
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
        assert_eq!(a1.plane_bytes(), a1.state_bytes());
        assert_eq!(a4.plane_bytes(), a1.state_bytes());
    }

    /// Two `u16` words per `(slice, router, dst)` entry: `k·n²·2·2`
    /// bytes, 54,080 for Sprint's 52 routers at k = 5.
    #[test]
    fn state_bytes_are_two_u16_words_per_entry() {
        for (k, n) in [(1, 7), (3, 11), (5, 52)] {
            assert_eq!(SpliceFib::empty(k, n).state_bytes(), k * n * n * 2 * 2);
        }
        assert_eq!(SpliceFib::empty(5, 52).state_bytes(), 54_080);
    }

    #[test]
    #[should_panic(expected = "65535 routers exceed the arena's limit")]
    fn an_arena_over_65535_routers_is_rejected() {
        SpliceFib::empty(1, 65_535);
    }

    /// Two routers joined by 65,535 parallel links: the last link's id
    /// would be the sentinel, so the build refuses the graph up front.
    #[test]
    #[should_panic(expected = "65535 links exceed the arena's limit")]
    fn a_graph_with_65535_links_is_rejected_when_its_arena_is_built() {
        let g = from_edges(2, &vec![(0, 1, 1.0); 65_535]);
        SpliceFib::for_graph(1, &g);
    }

    /// One link fewer fits, and every id below the sentinel round-trips.
    #[test]
    fn ids_up_to_65534_fit_an_entry() {
        let g = from_edges(2, &vec![(0, 1, 1.0); 65_534]);
        let mut arena = SpliceFib::for_graph(1, &g);
        let top = Some((NodeId(1), EdgeId(65_534)));
        arena.set(0, NodeId(0), NodeId(1), top);
        assert_eq!(arena.lookup(0, NodeId(0), NodeId(1)), top);
    }

    /// A write of an id the words cannot hold panics; it never truncates.
    #[test]
    #[should_panic(expected = "id 65535 does not fit an arena entry")]
    fn an_entry_is_never_truncated() {
        let mut arena = SpliceFib::empty(1, 3);
        arena.set(0, NodeId(0), NodeId(1), Some((NodeId(1), EdgeId(65_535))));
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
            .fill(&g, &w, &mask, &mut SpfWorkspace::new(), None);
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

    /// Patch `plane` for the batch that takes `(w, mask)` to
    /// `(new_w, after)`, its link lists derived as the repair engine
    /// derives them.
    fn patch_between(
        plane: &mut PlaneMut<'_>,
        g: &splice_graph::Graph,
        (w, mask): (&[f64], &EdgeMask),
        (new_w, after): (&[f64], &EdgeMask),
        dist: &mut [f64],
        ws: &mut SpfWorkspace,
    ) -> RepairStats {
        let restored = |e: EdgeId| mask.is_failed(e) && after.is_up(e);
        let cheaper =
            |e: EdgeId| new_w[e.index()] < w[e.index()] && mask.is_up(e) && after.is_up(e);
        let failed: Vec<EdgeId> = g
            .edge_ids()
            .filter(|&e| mask.is_up(e) && after.is_failed(e))
            .collect();
        let raised: Vec<EdgeId> = g
            .edge_ids()
            .filter(|e| new_w[e.index()] > w[e.index()])
            .collect();
        let lowered: Vec<EdgeId> = g
            .edge_ids()
            .filter(|&e| restored(e) || cheaper(e))
            .collect();
        let delta = SpfDelta {
            weights: new_w,
            mask: after,
            failed: &failed,
            raised: &raised,
            lowered: &lowered,
        };
        plane.patch(g, &delta, dist, ws)
    }

    #[test]
    fn patch_of_a_failure_matches_rebuild_and_skips_untouched() {
        let g = diamond();
        let w = g.base_weights();
        for fail in g.edge_ids() {
            let mut arena = SpliceFib::empty(1, g.node_count());
            let mut ws = SpfWorkspace::new();
            let up = EdgeMask::all_up(g.edge_count());
            let mut dist = fill_recording(&mut arena, 0, &g, &w, &up, &mut ws);
            let mask = EdgeMask::from_failed(g.edge_count(), &[fail]);
            let stats = patch_between(
                &mut arena.plane_mut(0),
                &g,
                (&w, &up),
                (&w, &mask),
                &mut dist,
                &mut ws,
            );
            assert_eq!(
                stats.patched_columns + stats.skipped_columns,
                g.node_count(),
                "every column accounted for"
            );
            assert_plane_matches_rebuild(&arena, &g, &w, 0, &mask);
            assert_distances_match_fold(&arena, 0, &g, &w, &dist);
        }
    }

    #[test]
    fn patch_of_a_reweight_matches_rebuild_both_directions() {
        let g = diamond();
        let mask = EdgeMask::all_up(g.edge_count());
        for edge in g.edge_ids() {
            for factor in [4.0, 0.3] {
                let old = g.base_weights();
                let mut new_w = old.clone();
                new_w[edge.index()] *= factor;
                let mut arena = SpliceFib::empty(1, g.node_count());
                let mut ws = SpfWorkspace::new();
                let mut dist = fill_recording(&mut arena, 0, &g, &old, &mask, &mut ws);
                patch_between(
                    &mut arena.plane_mut(0),
                    &g,
                    (&old, &mask),
                    (&new_w, &mask),
                    &mut dist,
                    &mut ws,
                );
                assert_plane_matches_rebuild(&arena, &g, &new_w, 0, &mask);
                assert_distances_match_fold(&arena, 0, &g, &new_w, &dist);
            }
        }
    }

    #[test]
    fn patch_of_restores_matches_rebuild_and_skips_untouched() {
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
            let mut dist = fill_recording(&mut arena, 0, &g, &w, &mask, &mut ws);
            // Bring the links back one batch at a time: first alone, then
            // the rest together.
            for batch in [&down[..1], &down[1..]] {
                let before = mask.clone();
                for e in batch {
                    mask.restore(*e);
                }
                let stats = patch_between(
                    &mut arena.plane_mut(0),
                    &g,
                    (&w, &before),
                    (&w, &mask),
                    &mut dist,
                    &mut ws,
                );
                assert_eq!(
                    stats.patched_columns + stats.skipped_columns,
                    g.node_count(),
                    "every column accounted for"
                );
                assert_plane_matches_rebuild(&arena, &g, &w, 0, &mask);
                assert_distances_match_fold(&arena, 0, &g, &w, &dist);
            }
        }
        // A link no column would route over (or tie on) patches nothing:
        // 0-2-3 at 1000 + 2 never competes with 0-1-3 at 1 + 2.
        let heavy = [1.0, 2.0, 1000.0, 2.0];
        let before = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        let up = EdgeMask::all_up(g.edge_count());
        let mut arena = SpliceFib::empty(1, g.node_count());
        let mut dist = fill_recording(&mut arena, 0, &g, &heavy, &before, &mut ws);
        let stats = patch_between(
            &mut arena.plane_mut(0),
            &g,
            (&heavy, &before),
            (&heavy, &up),
            &mut dist,
            &mut ws,
        );
        assert_eq!(stats.patched_columns, 0);
        assert_plane_matches_rebuild(&arena, &g, &heavy, 0, &up);
    }

    /// A stack of batches on one plane, each patched in one call: a
    /// failure; a raise and a cut together; every restore with a cut;
    /// a link reweighted up as it fails. After every batch the plane
    /// equals a rebuild, and the distances the patch read and wrote
    /// equal the chain fold of the plane, bit for bit — so each batch
    /// starts from exactly the distances a fold would give it.
    #[test]
    fn patches_keep_their_distances_equal_to_the_chain_fold() {
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
        let mut mask = EdgeMask::all_up(g.edge_count());
        let mut arena = SpliceFib::empty(1, g.node_count());
        let mut dist = fill_recording(&mut arena, 0, &g, &w, &mask, &mut ws);
        assert_distances_match_fold(&arena, 0, &g, &w, &dist);
        let mut patched = 0;
        for step in 0..8u32 {
            let (mut new_w, mut after) = (w.clone(), mask.clone());
            match step % 4 {
                0 => after.fail(EdgeId(step % 4)),
                1 => {
                    new_w[5] *= 3.0;
                    new_w[6] *= 0.25;
                }
                2 => {
                    mask.failed_edges().for_each(|e| after.restore(e));
                    new_w[5] *= 0.5;
                }
                _ => {
                    after.fail(EdgeId(1));
                    new_w[1] *= 2.0;
                }
            }
            let stats = patch_between(
                &mut arena.plane_mut(0),
                &g,
                (&w, &mask),
                (&new_w, &after),
                &mut dist,
                &mut ws,
            );
            (w, mask) = (new_w, after);
            patched += stats.patched_columns;
            assert_plane_matches_rebuild(&arena, &g, &w, 0, &mask);
            assert_distances_match_fold(&arena, 0, &g, &w, &dist);
        }
        assert!(patched > 0);
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
            planes[0].fill(&g, &w0, &up, &mut ws, None);
            planes[1].fill(&g, &w1, &up, &mut ws, None);
        }
        // ... and through one `plane_mut` borrow at a time; bit-identical.
        let mut direct = SpliceFib::empty(2, g.node_count());
        fill_up(&mut direct, 0, &g, &w0);
        fill_up(&mut direct, 1, &g, &w1);
        assert_eq!(via_planes, direct);

        // Repair through a view handed out with its siblings equals
        // repair through a lone `plane_mut` borrow.
        let up = EdgeMask::all_up(g.edge_count());
        let dist = fill_recording(&mut direct, 0, &g, &w0, &up, &mut ws);
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(0)]);
        let states = ((&w0[..], &up), (&w0[..], &mask));
        let mut dist_direct = dist.clone();
        let stats_direct = patch_between(
            &mut direct.plane_mut(0),
            &g,
            states.0,
            states.1,
            &mut dist_direct,
            &mut ws,
        );
        let mut dist_plane = dist;
        let stats_plane = {
            let mut planes = via_planes.planes_mut();
            patch_between(
                &mut planes[0],
                &g,
                states.0,
                states.1,
                &mut dist_plane,
                &mut ws,
            )
        };
        assert_eq!(dist_plane, dist_direct);
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
                    let want = entry(s, u, t)
                        .map_or((NO_ROUTE, NO_ROUTE), |(nh, e)| (nh.0 as u16, e.0 as u16));
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
