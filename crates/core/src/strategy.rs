//! Slice-construction strategies: how a slice's forwarding columns are
//! produced (§3.1, generalized).
//!
//! The paper builds every slice the same way — perturb link weights, run
//! shortest-path-first. [`StrategyKind`] names that choice and carries
//! its construction, each hook one `match` over the variants, so a
//! deployment can instead splice *random spanning trees* ("Expanders via
//! Random Spanning Trees" shows a few uniform trees of a well-connected
//! graph already union into an expander, i.e. carry the path diversity
//! splicing needs at O(n) control state per tree) or *arc-disjoint
//! failover DAGs* (the static-failover line of work: later slices avoid
//! the out-arcs earlier slices committed to, so a slice switch after a
//! failure lands on a genuinely different arc).
//!
//! The contract every strategy honors:
//!
//! * **Determinism.** A slice's columns are a pure function of
//!   `(graph, weights, mask, seed, slice index)`. Rebuilding a plane with
//!   the same inputs reproduces it bit-for-bit — the property
//!   [`Splicing::repair`](crate::slices::Splicing::repair) leans on when
//!   a strategy cannot delta-patch and must rebuild instead.
//! * **k-independence.** Slice `i` never reads `k`, so a
//!   [`prefix`](crate::slices::Splicing::prefix) view equals a smaller
//!   build — the incremental-k methodology holds under every strategy.
//! * **Loop-freedom.** Within one slice, following next hops toward a
//!   destination never cycles (trees and SPF DAGs are loop-free by
//!   construction; the arc-disjoint rounds are each a shortest-path tree
//!   of a restricted subgraph).
//!
//! # Forest planes
//!
//! `tree` and `lst` share one fill: the generator writes its edge set
//! into this thread's [`RootedForest`], which roots every component with
//! one DFS — parent arc and pre-order — and the plane is then written a
//! destination's column at a time by re-rooting
//! ([`PlaneMut::fill_tree_columns`]). Tree paths are unique, so the
//! column toward a component's root is the parent arcs themselves, and
//! the column toward any other node is its parent's column with the one
//! arc between them turned round: n block copies of a contiguous column
//! and 2·n stores per slab, no traversal per destination. After a
//! thread's first fill nothing allocates.
//!
//! # Repair
//!
//! Every strategy's dirty planes are repaired on the thread that calls
//! the batch engine, one after another, through that thread's warm
//! [`with_spf_workspace`]: delta-patched when
//! [`StrategyKind::supports_delta_repair`] says so, rebuilt by
//! [`StrategyKind::fill_plane`] otherwise. Neither path spawns a thread.
//!
//! # Observation
//!
//! Strategies compute; this crate observes. A plane fill — at build time
//! or as a repair's rebuild — is timed in one place (`observed_fill`:
//! one `splice_spf_seconds` sample, one `fill/<strategy>` flight event),
//! and the repair engine times each plane's delta repair the same way
//! (one `splice_spf_repair_{seconds,frontier}` sample, one
//! `repair/patch` event).

use crate::slices::SplicingConfig;
use splice_graph::dijkstra::SpfWorkspace;
use splice_graph::Rng;
use splice_graph::{
    arc_diverse_parents, low_stretch_forest, random_spanning_forest, EdgeMask, Graph, RootedForest,
};
use splice_routing::arena::{PlaneMut, SpliceFib};
use splice_routing::spf::{FlightEvent, SpfTelemetry};
use std::cell::RefCell;
use std::time::Instant;

/// The seed of slice `slice`'s private RNG stream: the build seed xored
/// with a golden-ratio multiple of the slice index. Every perturbed-SPF
/// slice and every tree slice draws from exactly this stream, so slice
/// i's randomness does not depend on k, and fig. 3 artifacts stay
/// byte-identical as long as it does not move.
#[inline]
pub fn slice_seed(seed: u64, slice: usize) -> u64 {
    seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(slice as u64 + 1))
}

thread_local! {
    static SPF_WORKSPACE: RefCell<SpfWorkspace> = RefCell::new(SpfWorkspace::new());
    /// The forest strategies' scratch, beside the SPF one and for the
    /// same reason: a thread's fills reuse one set of buffers.
    static FOREST: RefCell<RootedForest> = RefCell::new(RootedForest::new());
}

/// Run `f` with this thread's shared [`SpfWorkspace`], so builds, repairs
/// and test oracles on the same thread reuse one set of Dijkstra scratch
/// buffers instead of reallocating per call.
///
/// Not reentrant: `f` must not call `with_spf_workspace` again (the
/// nested borrow would panic). Strategy hooks receive the workspace as an
/// argument precisely so they never need to.
pub fn with_spf_workspace<T>(f: impl FnOnce(&mut SpfWorkspace) -> T) -> T {
    SPF_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// How a slice is constructed — a closed enum (like
/// [`PerturbationKind`](crate::perturb::PerturbationKind)) so configs stay
/// `Copy`-cheap, comparable, and trivially serializable in run manifests.
///
/// [`Splicing::build`](crate::slices::Splicing::build) drives the two
/// construction hooks per slice — [`StrategyKind::slice_weights`] then
/// [`StrategyKind::fill_slice`] — and
/// [`Splicing::repair`](crate::slices::Splicing::repair) consults
/// [`StrategyKind::supports_delta_repair`] to pick delta-patching or
/// masked rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// The paper's construction (§3.1): slice 0 keeps the base weights,
    /// slices 1..k perturb them from their own RNG streams, and every
    /// slice runs full SPF ([`PlaneMut::fill`]).
    PerturbedSpf,
    /// One uniform random spanning tree per slice, sampled with Wilson's
    /// loop-erased random walk from the slice's private RNG stream.
    RandomSpanningTree,
    /// One low-stretch tree proxy per slice: the shortest-path tree from a
    /// random center, under the slice's weights.
    LowStretchTree,
    /// Arc-disjoint failover: slice `i`'s column toward each destination
    /// is the `i`-th greedy Dijkstra round where out-arcs spent by rounds
    /// `0..i` carry a path-dominating penalty, so a slice switch after a
    /// failure tries a different link at every router that has one to
    /// spare — while every slice still delivers (a router with exhausted
    /// arcs falls back to a spent one rather than going unrouted). Slice 0
    /// is exactly the shortest-path tree. Draws no randomness.
    ArcDisjointFailover,
}

impl StrategyKind {
    /// Every strategy, in sweep order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::PerturbedSpf,
        StrategyKind::RandomSpanningTree,
        StrategyKind::LowStretchTree,
        StrategyKind::ArcDisjointFailover,
    ];

    /// Canonical token: the CLI `--strategy` value, the testkit scenario
    /// segment, and the `strategy` telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::PerturbedSpf => "perturbed-spf",
            StrategyKind::RandomSpanningTree => "tree",
            StrategyKind::LowStretchTree => "lst",
            StrategyKind::ArcDisjointFailover => "arc",
        }
    }

    /// Parse a CLI / scenario token. Accepts the canonical names plus a
    /// few self-explanatory aliases; returns `None` for anything else so
    /// callers can produce their own error message.
    pub fn parse(token: &str) -> Option<StrategyKind> {
        match token {
            "perturbed-spf" | "spf" | "perturbed" => Some(StrategyKind::PerturbedSpf),
            "tree" | "rst" | "spanning-tree" => Some(StrategyKind::RandomSpanningTree),
            "lst" | "low-stretch" => Some(StrategyKind::LowStretchTree),
            "arc" | "arc-disjoint" => Some(StrategyKind::ArcDisjointFailover),
            _ => None,
        }
    }

    /// `self`: the kind is the strategy. Kept only because `e2e/`'s
    /// harness still calls `kind.instance().fill_slice(..)`.
    pub fn instance(self) -> StrategyKind {
        self
    }

    /// The weight vector recorded for slice `slice`. For perturbed SPF
    /// this is the routing input: the base weights for slice 0, the
    /// configured perturbation drawn from [`slice_seed`]'s stream
    /// otherwise. The other strategies route on structure (or, for `lst`
    /// and `arc`, on the base metric) and return the base vector, so
    /// stretch accounting and weight validation keep working.
    pub fn slice_weights(
        self,
        g: &Graph,
        cfg: &SplicingConfig,
        slice: usize,
        seed: u64,
    ) -> Vec<f64> {
        match self {
            StrategyKind::PerturbedSpf if slice > 0 => {
                let mut rng = Rng::seed_from_u64(slice_seed(seed, slice));
                cfg.perturbation.perturb(g, &mut rng)
            }
            _ => g.base_weights(),
        }
    }

    /// (Re)compute every destination column of an already-borrowed slice
    /// plane over the `mask`-up subgraph. `slice` names the plane for
    /// seeding only — the write target is `plane`, which the
    /// batch-repair engine hands out one plane at a time. Deterministic in
    /// its arguments, and tolerates a dirty plane: every entry is
    /// overwritten, so a repair rebuilds a plane in place over whatever a
    /// recycled arena held there, without copying the old plane first.
    /// Computes and never observes: timing is the caller's, through
    /// [`StrategyKind::fill_slice`] or the repair engine.
    ///
    /// With `dist` (the plane's `n·n` distances, see
    /// [`DistanceMemo::plane_mut`](splice_routing::DistanceMemo::plane_mut))
    /// a strategy with delta repair records each column's SPF distances
    /// as the fill computes them; the build passes it for exactly those
    /// strategies, the others have no distances to record.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_plane(
        self,
        g: &Graph,
        slice: usize,
        seed: u64,
        weights: &[f64],
        mask: &EdgeMask,
        ws: &mut SpfWorkspace,
        plane: &mut PlaneMut<'_>,
        dist: Option<&mut [f64]>,
    ) {
        debug_assert!(dist.is_none() || self.supports_delta_repair());
        match self {
            StrategyKind::PerturbedSpf => plane.fill(g, weights, mask, ws, dist),
            StrategyKind::RandomSpanningTree => {
                fill_plane_from_forest(slice, seed, plane, |rng, forest| {
                    random_spanning_forest(g, mask, rng, forest)
                })
            }
            StrategyKind::LowStretchTree => {
                fill_plane_from_forest(slice, seed, plane, |rng, forest| {
                    low_stretch_forest(g, weights, mask, rng, ws, forest)
                })
            }
            StrategyKind::ArcDisjointFailover => {
                // Recomputing rounds 0..slice keeps the fill a pure
                // function of (slice, inputs) — the k-independence and
                // rebuild-determinism contracts — at an O(k) factor the
                // small k of splicing absorbs.
                for t in g.nodes() {
                    let rounds = arc_diverse_parents(g, t, weights, mask, slice + 1);
                    plane.patch_column(t, &rounds[slice]);
                }
            }
        }
    }

    /// [`StrategyKind::fill_plane`] into plane `slice` of an owned arena,
    /// recording no distances. With `telemetry`, the fill adds one
    /// `splice_spf_seconds` sample and one `fill/<strategy>` flight event.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_slice(
        self,
        g: &Graph,
        slice: usize,
        seed: u64,
        weights: &[f64],
        mask: &EdgeMask,
        ws: &mut SpfWorkspace,
        fib: &mut SpliceFib,
        telemetry: Option<&SpfTelemetry>,
    ) {
        let mut plane = fib.plane_mut(slice);
        observed_fill(
            self, g, slice, seed, weights, mask, ws, &mut plane, None, telemetry,
        );
    }

    /// Whether repairs may delta-patch this strategy's planes with the
    /// incremental-SPF engine: only perturbed SPF, whose slices are
    /// shortest-path trees under known weights. The others get a masked
    /// full rebuild of each plane instead — slower, but exactly equivalent
    /// by the determinism contract.
    pub fn supports_delta_repair(self) -> bool {
        self == StrategyKind::PerturbedSpf
    }

    /// Logical per-slice control state in bytes on an `n`-node graph —
    /// what a compressed control plane would have to carry, as opposed to
    /// the arena's physical (always dense) footprint. A full next-hop
    /// matrix costs `2·n²·2` bytes (two `u16` words per entry, as the
    /// arena stores it); a shared tree costs one `(parent node, out
    /// edge)` pair of `u32`s per node.
    pub fn slice_state_bytes(self, n: usize) -> usize {
        match self {
            StrategyKind::PerturbedSpf | StrategyKind::ArcDisjointFailover => 2 * n * n * 2,
            StrategyKind::RandomSpanningTree | StrategyKind::LowStretchTree => n * 8,
        }
    }
}

/// Run `strategy`'s [`StrategyKind::fill_plane`] and, with `telemetry`,
/// observe it: one `splice_spf_seconds` sample and one `fill/<strategy>`
/// flight event per plane. The one place a fill is timed — the build
/// and the repair engine's rebuild both come here. Tables are
/// bit-identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn observed_fill(
    strategy: StrategyKind,
    g: &Graph,
    slice: usize,
    seed: u64,
    weights: &[f64],
    mask: &EdgeMask,
    ws: &mut SpfWorkspace,
    plane: &mut PlaneMut<'_>,
    dist: Option<&mut [f64]>,
    telemetry: Option<&SpfTelemetry>,
) {
    let Some(tel) = telemetry else {
        return strategy.fill_plane(g, slice, seed, weights, mask, ws, plane, dist);
    };
    let t0 = Instant::now();
    strategy.fill_plane(g, slice, seed, weights, mask, ws, plane, dist);
    tel.spf_seconds.record_duration(t0.elapsed());
    if let Some(flight) = &tel.flight {
        flight.record(FlightEvent::new("fill", strategy.name()).field("slice", slice as u64));
    }
}

/// Write every column of `plane` from a rooted forest — the shared tree
/// *is* the slice — one component's tree at a time. Every node is in
/// exactly one tree, so a dirty plane is overwritten whole.
fn write_forest_columns(forest: &RootedForest, plane: &mut PlaneMut<'_>) {
    assert_eq!(
        plane.n(),
        forest.node_count(),
        "plane built for a different graph"
    );
    for root in (0..plane.n()).filter(|&u| forest.parent(u).is_none()) {
        plane.fill_tree_columns(forest.subtree(root), |u| forest.parent(u as usize));
    }
}

/// The one "forest → plane" path of the tree strategies: seed the slice's
/// private RNG stream, let `grow` build the forest into this thread's
/// scratch, write the plane from it.
fn fill_plane_from_forest(
    slice: usize,
    seed: u64,
    plane: &mut PlaneMut<'_>,
    grow: impl FnOnce(&mut Rng, &mut RootedForest),
) {
    let mut rng = Rng::seed_from_u64(slice_seed(seed, slice));
    FOREST.with(|forest| {
        let forest = &mut forest.borrow_mut();
        grow(&mut rng, forest);
        write_forest_columns(forest, plane);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slices::Splicing;
    use splice_graph::{EdgeId, NodeId};
    use splice_topology::abilene::abilene;

    fn cfg_for(kind: StrategyKind, k: usize) -> SplicingConfig {
        SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(kind)
    }

    /// Follow next hops from every router toward every destination: each
    /// routed walk must reach the destination without revisiting a node.
    fn assert_loop_free_and_delivering(g: &Graph, sp: &Splicing, require_delivery: bool) {
        for slice in 0..sp.k() {
            for t in g.nodes() {
                for s in g.nodes() {
                    let mut at = s;
                    let mut hops = 0;
                    while at != t {
                        match sp.next_hop(slice, at, t) {
                            Some((nh, _)) => at = nh,
                            None => {
                                assert!(
                                    !require_delivery,
                                    "slice {slice}: {s:?} unrouted toward {t:?}"
                                );
                                break;
                            }
                        }
                        hops += 1;
                        assert!(hops <= g.node_count(), "slice {slice}: loop {s:?}->{t:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn tokens_roundtrip_and_reject_garbage() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(StrategyKind::parse("spf"), Some(StrategyKind::PerturbedSpf));
        assert_eq!(
            StrategyKind::parse("arc-disjoint"),
            Some(StrategyKind::ArcDisjointFailover)
        );
        assert_eq!(StrategyKind::parse("ospf"), None);
        assert_eq!(StrategyKind::parse(""), None);
    }

    #[test]
    fn every_strategy_builds_loop_free_delivering_slices() {
        let g = abilene().graph();
        for kind in StrategyKind::ALL {
            let sp = Splicing::build(&g, &cfg_for(kind, 3), 7);
            assert_eq!(sp.strategy(), kind);
            assert_loop_free_and_delivering(&g, &sp, true);
        }
    }

    /// SPF work is observed in one place, the same way for every
    /// strategy: each filled plane adds exactly one `splice_spf_seconds`
    /// sample and one `fill/<strategy>` flight event, each delta-repaired
    /// plane one `splice_spf_repair_*` sample and one `repair/patch`
    /// event — and observing never changes a table.
    #[test]
    fn every_fill_and_delta_pass_is_observed_once() {
        use crate::slices::RepairEvent;
        use splice_routing::spf::{FlightRecorder, Registry};

        let g = abilene().graph();
        let n = g.node_count();
        let up = EdgeMask::all_up(g.edge_count());
        let observe = || {
            let (reg, rec) = (Registry::new(), FlightRecorder::new(64));
            let tel = SpfTelemetry::register(&reg).with_flight(rec.clone());
            (reg, rec, tel)
        };
        for kind in StrategyKind::ALL {
            let (_, rec, tel) = observe();
            let w = kind.slice_weights(&g, &cfg_for(kind, 2), 1, 5);
            let (mut observed, mut plain) = (SpliceFib::empty(2, n), SpliceFib::empty(2, n));
            with_spf_workspace(|ws| {
                kind.fill_slice(&g, 1, 5, &w, &up, ws, &mut observed, Some(&tel));
                kind.fill_slice(&g, 1, 5, &w, &up, ws, &mut plain, None);
            });
            assert_eq!(observed, plain, "{kind:?}: observing changed the plane");
            assert_eq!(tel.spf_seconds.count(), 1, "{kind:?}");
            let events = rec.snapshot();
            assert_eq!(events.len(), 1, "{kind:?}");
            let ev = events[0].event;
            assert_eq!((ev.kind, ev.name), ("fill", kind.name()));
            assert_eq!(ev.fields[0], ("slice", 1));
        }

        // One batch failing a link, restoring another and reweighting
        // slice 1: the delta engine repairs each dirty plane once.
        let batch = |sp: &Splicing| {
            [
                RepairEvent::LinkFailure(EdgeId(3)),
                RepairEvent::LinkRestore(EdgeId(0)),
                RepairEvent::SliceReweight {
                    slice: 1,
                    edge: EdgeId(5),
                    new_weight: 2.0 * sp.weights(1)[5],
                },
            ]
        };
        let sp = Splicing::build(&g, &cfg_for(StrategyKind::PerturbedSpf, 2), 5)
            .repair(&g, &RepairEvent::LinkFailure(EdgeId(0)));
        let (reg, rec, tel) = observe();
        let (repaired, _) = sp
            .try_repair_batch_recycling(&g, &batch(&sp), Some(&tel), None)
            .unwrap();
        assert_eq!(repaired.arena(), sp.repair_batch(&g, &batch(&sp)).arena());
        let passes: Vec<(&str, u64)> = rec
            .snapshot()
            .iter()
            .filter(|e| e.event.kind == "repair")
            .map(|e| (e.event.name, e.event.fields[0].1))
            .collect();
        assert_eq!(passes, [("patch", 0), ("patch", 1)]);
        assert_eq!(tel.spf_repair_seconds.count(), 2);
        assert_eq!(tel.spf_repair_frontier.count(), 2);
        assert_eq!(tel.spf_seconds.count(), 0, "a delta pass is not a fill");
        assert!(reg
            .render_prometheus()
            .contains("splice_spf_repair_seconds"));

        // A strategy without delta repair rebuilds each dirty plane, and
        // the rebuild is observed as the fill it is.
        let sp = Splicing::build(&g, &cfg_for(StrategyKind::RandomSpanningTree, 2), 5);
        let (_, rec, tel) = observe();
        sp.try_repair_batch_recycling(&g, &batch(&sp), Some(&tel), None)
            .unwrap();
        let fills: Vec<(&str, &str)> = rec
            .snapshot()
            .iter()
            .map(|e| (e.event.kind, e.event.name))
            .filter(|&(kind, _)| kind != "repair_event")
            .collect();
        assert_eq!(fills, [("fill", "tree"), ("fill", "tree")]);
        assert_eq!(tel.spf_seconds.count(), 2);
        assert_eq!(tel.spf_repair_seconds.count(), 0);
    }

    #[test]
    fn perturbed_spf_slice_zero_is_plain_spf() {
        // The default config is the paper's: slice 0 is the unperturbed
        // SPF tree, whatever the perturbation.
        let g = abilene().graph();
        let cfg = SplicingConfig::degree_based(3, 0.0, 3.0);
        assert_eq!(cfg.strategy, StrategyKind::PerturbedSpf);
        let sp = Splicing::build(&g, &cfg, 11);
        assert_eq!(sp.weights(0), g.base_weights());
        with_spf_workspace(|ws| {
            for t in g.nodes() {
                ws.run(&g, t, &g.base_weights(), None);
                for u in g.nodes() {
                    assert_eq!(sp.next_hop(0, u, t), ws.parents()[u.index()]);
                }
            }
        });
    }

    #[test]
    fn tree_slices_are_k_independent() {
        let g = abilene().graph();
        for kind in [
            StrategyKind::RandomSpanningTree,
            StrategyKind::LowStretchTree,
            StrategyKind::ArcDisjointFailover,
        ] {
            let s2 = Splicing::build(&g, &cfg_for(kind, 2), 42);
            let s4 = Splicing::build(&g, &cfg_for(kind, 4), 42);
            for slice in 0..2 {
                for u in g.nodes() {
                    for t in g.nodes() {
                        assert_eq!(
                            s2.next_hop(slice, u, t),
                            s4.next_hop(slice, u, t),
                            "{kind:?} slice {slice} depends on k"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repairs_without_delta_support_match_from_scratch_masked_build() {
        let g = abilene().graph();
        for kind in [
            StrategyKind::RandomSpanningTree,
            StrategyKind::LowStretchTree,
            StrategyKind::ArcDisjointFailover,
        ] {
            let sp = Splicing::build(&g, &cfg_for(kind, 3), 9);
            assert!(!kind.supports_delta_repair());
            let (repaired, stats) = sp
                .try_repair_batch_recycling(
                    &g,
                    &[crate::slices::RepairEvent::LinkFailure(EdgeId(2))],
                    None,
                    None,
                )
                .expect("link failures carry no weights to reject");
            assert_eq!(stats.patched_columns, 3 * g.node_count());
            // Stacking a second failure equals the one-shot rebuild with
            // the cumulative mask (determinism contract).
            let stacked = repaired.repair(&g, &crate::slices::RepairEvent::LinkFailure(EdgeId(5)));
            let batch = sp.repair(
                &g,
                &crate::slices::RepairEvent::LinkSetFailure(vec![EdgeId(2), EdgeId(5)]),
            );
            for slice in 0..3 {
                assert_eq!(
                    stacked.arena().plane(slice),
                    batch.arena().plane(slice),
                    "{kind:?} slice {slice}"
                );
            }
            // No plane routes over a failed link.
            for slice in 0..3 {
                for t in g.nodes() {
                    for u in g.nodes() {
                        if let Some((_, e)) = stacked.next_hop(slice, u, t) {
                            assert!(stacked.failed_mask().is_up(e));
                        }
                    }
                }
            }
            assert_loop_free_and_delivering(&g, &stacked, false);
        }
    }

    #[test]
    fn arc_disjoint_slices_use_distinct_out_arcs() {
        // Contract: every slice delivers every pair, and the greedy
        // penalization yields real out-arc diversity. Full divergence is
        // impossible on a sparse backbone (a degree-2 router whose spare
        // neighbor is uphill must reuse, as must the neighbors of a
        // destination whose incoming arcs slice 0 exhausted), so demand
        // a healthy floor: 40% of (router, destination) pairs diverge
        // between slices 0 and 1, and some spread across three arcs.
        let g = abilene().graph();
        let sp = Splicing::build(&g, &cfg_for(StrategyKind::ArcDisjointFailover, 3), 1);
        let mut pairs = 0usize;
        let mut diverge01 = 0usize;
        let mut triple_diverse = 0usize;
        for t in g.nodes() {
            for u in g.nodes() {
                if u == t {
                    continue;
                }
                let arcs: Vec<EdgeId> = (0..3)
                    .map(|slice| {
                        sp.next_hop(slice, u, t)
                            .unwrap_or_else(|| panic!("slice {slice}: {u:?} unrouted to {t:?}"))
                            .1
                    })
                    .collect();
                pairs += 1;
                if arcs[0] != arcs[1] {
                    diverge01 += 1;
                }
                let mut distinct = arcs.clone();
                distinct.sort_unstable();
                distinct.dedup();
                if distinct.len() == 3 {
                    triple_diverse += 1;
                }
            }
        }
        assert!(
            5 * diverge01 >= 2 * pairs,
            "slices 0/1 diverge on only {diverge01}/{pairs} pairs"
        );
        assert!(
            triple_diverse > 0,
            "no router ever used three distinct arcs"
        );
    }

    #[test]
    fn logical_state_is_linear_for_trees_quadratic_for_matrices() {
        let g = abilene().graph();
        let n = g.node_count();
        let spf = Splicing::build(&g, &cfg_for(StrategyKind::PerturbedSpf, 3), 5);
        let tree = Splicing::build(&g, &cfg_for(StrategyKind::RandomSpanningTree, 3), 5);
        assert_eq!(spf.logical_state_bytes(), 3 * 2 * n * n * 2);
        assert_eq!(spf.logical_state_bytes(), spf.state_bytes());
        assert_eq!(tree.logical_state_bytes(), 3 * n * 8);
        assert!(tree.logical_state_bytes() < tree.state_bytes());
        // Physical arena cost is strategy-independent (dense planes).
        assert_eq!(tree.state_bytes(), spf.state_bytes());
    }

    #[test]
    fn tree_strategies_vary_across_slices_and_seeds() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &cfg_for(StrategyKind::RandomSpanningTree, 4), 3);
        let other = Splicing::build(&g, &cfg_for(StrategyKind::RandomSpanningTree, 4), 4);
        let column = |sp: &Splicing, slice: usize| -> Vec<Option<NodeId>> {
            g.nodes()
                .map(|u| sp.next_hop(slice, u, NodeId(0)).map(|(nh, _)| nh))
                .collect()
        };
        let distinct_slices = (0..4)
            .map(|s| column(&sp, s))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct_slices > 1, "4 tree slices should not coincide");
        assert_ne!(column(&sp, 0), column(&other, 0), "seed must matter");
        // Same seed, same deployment: deterministic.
        let again = Splicing::build(&g, &cfg_for(StrategyKind::RandomSpanningTree, 4), 3);
        for s in 0..4 {
            assert_eq!(column(&sp, s), column(&again, s));
        }
    }

    /// Deployments that draw no randomness, pinned by `fib_checksum`: the
    /// `arc` strategy (any seed gives the same bytes) and the MRC
    /// configurations through `Splicing::from_weight_vectors`. Unlike
    /// `forest_strategy_rng_streams_are_pinned`, these hold under any
    /// random stream, so they guard the dispatch itself: routing `arc` through
    /// another strategy's fill, or `from_weight_vectors` through anything
    /// but full SPF, moves them.
    #[test]
    fn deterministic_deployments_are_pinned() {
        use crate::control::fib_checksum;
        let arc = |topology: &str| {
            let g = splice_topology::resolve(topology)
                .expect("a known topology")
                .graph();
            let sp = Splicing::build(&g, &cfg_for(StrategyKind::ArcDisjointFailover, 3), 11);
            fib_checksum(&g, &sp)
        };
        assert_eq!(arc("abilene"), 0x2a664e6d746e87a4);
        assert_eq!(arc("geant"), 0xbdbdfc442fcbcb2a);
        let g = abilene().graph();
        assert_eq!(
            fib_checksum(&g, &crate::mrc::build_mrc(&g, 3)),
            0x41892288254f53e6
        );
    }

    /// `fib_checksum` of a k = 5 build, and of the three deployments a
    /// fail / fail / restore chain walks through, folded into one word.
    fn stream_digests(topology: &str, kind: StrategyKind, seed: u64) -> [u64; 2] {
        use crate::control::fib_checksum;
        use crate::slices::RepairEvent;
        let g = splice_topology::resolve(topology)
            .expect("a known topology")
            .graph();
        let built = Splicing::build(&g, &cfg_for(kind, 5), seed);
        let (a, b) = (EdgeId(2), EdgeId(g.edge_count() as u32 - 1));
        let mut at = built.clone();
        let mut chain = 0;
        for event in [
            RepairEvent::LinkFailure(a),
            RepairEvent::LinkFailure(b),
            RepairEvent::LinkRestore(a),
        ] {
            at = at.repair(&g, &event);
            chain = crate::hash::splitmix64(chain ^ fib_checksum(&g, &at));
        }
        [fib_checksum(&g, &built), chain]
    }

    /// The forest strategies' bytes are a function of how they consume
    /// their RNG stream (Wilson: one `gen_range(0..up_degree)` per step;
    /// low-stretch: one `gen_range(0..n)`), so a change there silently
    /// moves every `tree`/`lst` curve and checksum. These digests were
    /// computed at the commit before the rooted-forest kernel and must
    /// not move. They are a property of `splice_graph::Rng`'s stream as
    /// well, which `splice_graph::rng`'s own test pins draw by draw.
    #[test]
    fn forest_strategy_rng_streams_are_pinned() {
        const PINNED: [(&str, u64, StrategyKind, [u64; 2]); 4] = [
            (
                "abilene",
                11,
                StrategyKind::RandomSpanningTree,
                [0xadf81af2f3f77c45, 0x0f43bbd020915808],
            ),
            (
                "abilene",
                11,
                StrategyKind::LowStretchTree,
                [0xd709cb81f6c67462, 0xa94632040c995d75],
            ),
            (
                "rand-200-200-42",
                42,
                StrategyKind::RandomSpanningTree,
                [0x7bd6d99b27e9de91, 0xaedf8ba92b0a5635],
            ),
            (
                "rand-200-200-42",
                42,
                StrategyKind::LowStretchTree,
                [0x4274dd1589c3e96d, 0x8d06497db6183e1c],
            ),
        ];
        for (topology, seed, kind, pinned) in PINNED {
            let got = stream_digests(topology, kind, seed);
            assert_eq!(got, pinned, "{kind:?} on {topology} seed {seed}");
        }
    }
}
