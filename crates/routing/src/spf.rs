//! Shortest-path-first: from a weight vector to installed arena planes.
//!
//! This is the glue a real router runs after flooding quiesces: take the
//! instance's weight vector (for the protocol simulator,
//! [`crate::lsdb::LinkStateDb::instance_weights`]), run Dijkstra per
//! destination, install next hops into the instance's [`SpliceFib`]
//! plane — one fused pass, with optional timing.

use crate::arena::{PlaneMut, RepairStats, SpliceFib};
use splice_graph::dijkstra::SpfWorkspace;
use splice_graph::{EdgeId, EdgeMask, Graph};
// Re-exported so downstream crates (splice-core) can build flight events,
// registries, and latency histograms without a direct telemetry
// dependency.
pub use splice_telemetry::{FlightEvent, FlightRecorder, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Timing handles for the SPF → FIB pipeline. One observation lands in
/// each histogram per slice computed, so after a Monte-Carlo run the
/// distributions describe per-slice build cost across all trials.
#[derive(Clone, Debug)]
pub struct SpfTelemetry {
    /// Wall time of the all-destinations Dijkstra pass for one slice
    /// ([`spf_fill_arena`]): the whole per-slice build, FIB emission
    /// included.
    pub spf_seconds: Arc<Histogram>,
    /// Measured [`SpliceFib`] arena footprint in bytes, one observation
    /// per splicing build — the §4.2 state-size accounting.
    pub arena_bytes: Arc<Histogram>,
    /// Wall time of one incremental slice-plane repair
    /// ([`PlaneMut::patch_failures`] / [`PlaneMut::patch_restores`] /
    /// [`PlaneMut::patch_reweight`]), one observation per pass — the
    /// counterpart of `spf_seconds` for the delta-SPF path.
    pub spf_repair_seconds: Arc<Histogram>,
    /// Re-relaxed nodes per repaired plane (the repair frontier). Small
    /// frontiers are the whole point of repairing instead of rebuilding;
    /// this histogram is the evidence.
    pub spf_repair_frontier: Arc<Histogram>,
    /// When set, every repaired plane also drops one structured event
    /// into the flight recorder (slice, frontier, patched columns), so a
    /// failure's dump shows what the repair engine just did.
    pub flight: Option<FlightRecorder>,
}

impl SpfTelemetry {
    /// Register (or re-acquire) the SPF timing histograms in `registry`,
    /// labeled for the default perturbed-SPF construction.
    pub fn register(registry: &Registry) -> SpfTelemetry {
        SpfTelemetry::register_for_strategy(registry, "perturbed-spf")
    }

    /// Register the SPF timing histograms with the state and repair
    /// series labeled `strategy="<name>"`, so a cross-strategy sweep
    /// keeps one series per construction instead of aggregating them.
    /// The per-slice SPF timing stays unlabeled: it times the same
    /// Dijkstra substrate whichever strategy drives it.
    pub fn register_for_strategy(registry: &Registry, strategy: &str) -> SpfTelemetry {
        let labels: &[(&str, &str)] = &[("strategy", strategy)];
        SpfTelemetry {
            spf_seconds: registry.histogram_seconds(
                "splice_spf_seconds",
                "Per-slice all-destinations shortest-path (Dijkstra) wall time",
            ),
            arena_bytes: registry.histogram_with(
                "splice_fib_arena_bytes",
                "Flat spliced-FIB arena size in bytes, one observation per splicing build",
                labels,
            ),
            spf_repair_seconds: registry.histogram_seconds_with(
                "splice_spf_repair_seconds",
                "Per-plane incremental SPF repair wall time",
                labels,
            ),
            spf_repair_frontier: registry.histogram_with(
                "splice_spf_repair_frontier",
                "Re-relaxed nodes per repaired slice plane (repair frontier size)",
                labels,
            ),
            flight: None,
        }
    }

    /// Also record per-plane repair events into `flight`.
    pub fn with_flight(mut self, flight: FlightRecorder) -> SpfTelemetry {
        self.flight = Some(flight);
        self
    }
}

// The batched repair path shares one `SpfTelemetry` across its per-plane
// worker threads: every field is an `Arc` over atomics (or a
// `FlightRecorder`, itself atomics plus mutexed slots). Keep that
// property checked at compile time.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<SpfTelemetry>();
};

/// Run the n destination-rooted Dijkstras for one slice and emit next
/// hops straight into plane `slice` of `fib`, reusing `ws` across roots
/// (and across slices, when the caller holds it).
///
/// With telemetry enabled, one `splice_spf_seconds` observation covers
/// the fused SPF + emission pass. Timing is observation only — the
/// installed entries are bit-identical either way.
pub fn spf_fill_arena(
    g: &Graph,
    weights: &[f64],
    fib: &mut SpliceFib,
    slice: usize,
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) {
    spf_fill_plane(g, weights, &mut fib.plane_mut(slice), slice, ws, telemetry)
}

/// [`spf_fill_arena`] on an already-borrowed [`PlaneMut`] — the form the
/// parallel batch-repair workers call, where each thread holds one
/// plane's view. `slice` only labels the flight event.
pub fn spf_fill_plane(
    g: &Graph,
    weights: &[f64],
    plane: &mut PlaneMut<'_>,
    slice: usize,
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) {
    let Some(tel) = telemetry else {
        plane.fill(g, weights, ws);
        return;
    };
    let t0 = Instant::now();
    plane.fill(g, weights, ws);
    tel.spf_seconds.record_duration(t0.elapsed());
    if let Some(flight) = &tel.flight {
        flight.record(FlightEvent::new("spf", "fill_slice").field("slice", slice as u64));
    }
}

/// The mask-aware counterpart of [`spf_fill_plane`]: refill the plane
/// from scratch over the `mask`-up subgraph, overwriting stale entries.
/// One `splice_spf_seconds` observation covers the pass.
pub fn spf_refill_plane(
    g: &Graph,
    weights: &[f64],
    plane: &mut PlaneMut<'_>,
    slice: usize,
    mask: &EdgeMask,
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) {
    let Some(tel) = telemetry else {
        plane.fill_masked(g, weights, mask, ws);
        return;
    };
    let t0 = Instant::now();
    plane.fill_masked(g, weights, mask, ws);
    tel.spf_seconds.record_duration(t0.elapsed());
    if let Some(flight) = &tel.flight {
        flight.record(FlightEvent::new("spf", "refill_slice").field("slice", slice as u64));
    }
}

/// Run one delta-SPF pass over a plane, with optional per-plane timing
/// and frontier-size observations; `pass` names the flight event and
/// `slice` labels it. Entries are bit-identical with telemetry on or off.
fn observed_repair(
    telemetry: Option<&SpfTelemetry>,
    pass: &'static str,
    slice: usize,
    patch: impl FnOnce() -> RepairStats,
) -> RepairStats {
    let Some(tel) = telemetry else {
        return patch();
    };
    let t0 = Instant::now();
    let stats = patch();
    tel.spf_repair_seconds.record_duration(t0.elapsed());
    tel.spf_repair_frontier.record(stats.frontier_nodes as u64);
    if let Some(flight) = &tel.flight {
        flight.record(
            FlightEvent::new("repair", pass)
                .field("slice", slice as u64)
                .field("frontier", stats.frontier_nodes as u64)
                .field("patched", stats.patched_columns as u64)
                .field("skipped", stats.skipped_columns as u64),
        );
    }
    stats
}

/// The delta-SPF counterpart of [`spf_fill_plane`]: repair the plane in
/// place after the links in `newly_failed` went down
/// ([`PlaneMut::patch_failures`]).
#[allow(clippy::too_many_arguments)]
pub fn spf_repair_plane_failures(
    g: &Graph,
    weights: &[f64],
    plane: &mut PlaneMut<'_>,
    slice: usize,
    mask: &EdgeMask,
    newly_failed: &[EdgeId],
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) -> RepairStats {
    observed_repair(telemetry, "patch_failures", slice, || {
        plane.patch_failures(g, weights, mask, newly_failed, ws)
    })
}

/// [`spf_repair_plane_failures`]'s sibling for links that came back up
/// ([`PlaneMut::patch_restores`]): `mask` already has `restored` up.
#[allow(clippy::too_many_arguments)]
pub fn spf_repair_plane_restores(
    g: &Graph,
    weights: &[f64],
    plane: &mut PlaneMut<'_>,
    slice: usize,
    mask: &EdgeMask,
    restored: &[EdgeId],
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) -> RepairStats {
    observed_repair(telemetry, "patch_restore", slice, || {
        plane.patch_restores(g, weights, mask, restored, ws)
    })
}

/// [`spf_repair_plane_failures`]'s sibling for a single-link weight
/// change ([`PlaneMut::patch_reweight`]): `weights` is the slice's new
/// vector, `old_weight` the value `edge` had when the plane was last
/// correct.
#[allow(clippy::too_many_arguments)]
pub fn spf_repair_plane_reweight(
    g: &Graph,
    weights: &[f64],
    plane: &mut PlaneMut<'_>,
    slice: usize,
    mask: &EdgeMask,
    edge: EdgeId,
    old_weight: f64,
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) -> RepairStats {
    observed_repair(telemetry, "patch_reweight", slice, || {
        plane.patch_reweight(g, weights, mask, edge, old_weight, ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::converge_instance;
    use crate::lsdb::LinkStateDb;
    use splice_graph::dijkstra::all_destinations;
    use splice_graph::graph::from_edges;
    use splice_graph::NodeId;

    fn diamond() -> Graph {
        from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)])
    }

    /// Plane 0 of `fib` against the un-fused reference: one standalone
    /// Dijkstra per destination, no arena; `spts[t].parent[u]` is router
    /// `u`'s entry toward `t`.
    fn assert_matches_unfused_dijkstra(fib: &SpliceFib, g: &Graph, w: &[f64]) {
        let spts = all_destinations(g, w);
        for u in g.nodes() {
            for t in g.nodes() {
                assert_eq!(fib.lookup(0, u, t), spts[t.index()].parent[u.index()]);
            }
        }
    }

    /// One plane filled from `db`'s reconstructed view of instance 0 —
    /// what a router computes after flooding quiesces.
    fn plane_from_db(g: &Graph, db: &LinkStateDb) -> SpliceFib {
        let mut fib = SpliceFib::empty(1, g.node_count());
        let weights = db.instance_weights(g, 0);
        spf_fill_arena(g, &weights, &mut fib, 0, &mut SpfWorkspace::new(), None);
        fib
    }

    #[test]
    fn spf_after_flooding_matches_direct_computation() {
        let g = diamond();
        let perturbed = vec![1.0, 10.0, 2.0, 2.0]; // push 0->3 via 2
        let (dbs, _) = converge_instance(&g, 0, &perturbed, 1);
        let from_protocol = plane_from_db(&g, &dbs[0]);
        assert_matches_unfused_dijkstra(&from_protocol, &g, &perturbed);
        assert_eq!(
            from_protocol
                .lookup(0, NodeId(0), NodeId(3))
                .map(|(nh, _)| nh),
            Some(NodeId(2))
        );
    }

    #[test]
    fn timed_fill_matches_untimed_and_records() {
        let g = diamond();
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        let reg = Registry::new();
        let tel = SpfTelemetry::register(&reg);
        let mut timed = SpliceFib::empty(1, g.node_count());
        spf_fill_arena(&g, &w, &mut timed, 0, &mut ws, Some(&tel));
        assert_eq!(tel.spf_seconds.count(), 1);
        let mut untimed = SpliceFib::empty(1, g.node_count());
        spf_fill_arena(&g, &w, &mut untimed, 0, &mut ws, None);
        assert_eq!(timed, untimed, "timing must not change tables");
        assert_eq!(tel.spf_seconds.count(), 1, "None must not record");
    }

    #[test]
    fn arena_fill_matches_unfused_dijkstra() {
        let g = diamond();
        let w = vec![1.0, 10.0, 2.0, 2.0];
        let mut fib = SpliceFib::empty(1, g.node_count());
        let mut ws = SpfWorkspace::new();
        let reg = Registry::new();
        let tel = SpfTelemetry::register(&reg);
        spf_fill_arena(&g, &w, &mut fib, 0, &mut ws, Some(&tel));
        assert_matches_unfused_dijkstra(&fib, &g, &w);
        assert_eq!(tel.spf_seconds.count(), 1, "fused pass records once");
        tel.arena_bytes.record(fib.state_bytes() as u64);
        assert!(reg.render_prometheus().contains("splice_fib_arena_bytes"));
    }

    #[test]
    fn repaired_arena_matches_full_rebuild_and_records() {
        let g = from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)]);
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        let mut fib = SpliceFib::empty(1, g.node_count());
        spf_fill_arena(&g, &w, &mut fib, 0, &mut ws, None);
        let reg = Registry::new();
        let tel = SpfTelemetry::register(&reg);
        let failed = splice_graph::EdgeId(0);
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(failed);
        let stats = spf_repair_plane_failures(
            &g,
            &w,
            &mut fib.plane_mut(0),
            0,
            &mask,
            &[failed],
            &mut ws,
            Some(&tel),
        );
        assert!(stats.patched_columns > 0);
        assert_eq!(tel.spf_repair_seconds.count(), 1);
        assert_eq!(tel.spf_repair_frontier.count(), 1);
        // The repaired plane equals a from-scratch build on the failed
        // topology.
        let mut fresh = SpliceFib::empty(1, g.node_count());
        for t in g.nodes() {
            ws.run(&g, t, &w, Some(&mask));
            fresh.patch_column(0, t, ws.parents());
        }
        assert_eq!(fib, fresh);
        assert!(reg
            .render_prometheus()
            .contains("splice_spf_repair_seconds"));
    }

    #[test]
    fn repairs_land_in_the_flight_recorder_when_attached() {
        let g = from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)]);
        let w = g.base_weights();
        let mut ws = SpfWorkspace::new();
        let mut fib = SpliceFib::empty(1, g.node_count());
        let reg = Registry::new();
        let rec = FlightRecorder::new(16);
        let tel = SpfTelemetry::register(&reg).with_flight(rec.clone());
        spf_fill_arena(&g, &w, &mut fib, 0, &mut ws, Some(&tel));
        let failed = splice_graph::EdgeId(0);
        let mut mask = EdgeMask::all_up(g.edge_count());
        mask.fail(failed);
        spf_repair_plane_failures(
            &g,
            &w,
            &mut fib.plane_mut(0),
            0,
            &mask,
            &[failed],
            &mut ws,
            Some(&tel),
        );
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event.kind, "spf");
        assert_eq!(events[0].event.name, "fill_slice");
        assert_eq!(events[1].event.kind, "repair");
        assert_eq!(events[1].event.name, "patch_failures");
        assert!(rec.to_jsonl().contains(r#""frontier":"#));
    }

    #[test]
    fn all_routers_compute_identical_tables() {
        let g = from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
            ],
        );
        let (dbs, _) = converge_instance(&g, 0, &g.base_weights(), 1);
        let reference = plane_from_db(&g, &dbs[0]);
        for db in &dbs[1..] {
            assert_eq!(plane_from_db(&g, db), reference);
        }
    }
}
