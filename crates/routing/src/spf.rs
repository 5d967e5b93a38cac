//! Shortest-path-first telemetry: the handles a slice plane's SPF work is
//! observed into.
//!
//! The work itself is [`PlaneMut`]'s — [`PlaneMut::fill`] for a whole
//! plane (what a real router runs after flooding quiesces, on the
//! instance's weight vector), [`PlaneMut::patch`] for one batch's delta
//! repair. `splice-core` is the one place that work is timed and
//! recorded, into an [`SpfTelemetry`].
//!
//! [`PlaneMut`]: crate::arena::PlaneMut
//! [`PlaneMut::fill`]: crate::arena::PlaneMut::fill
//! [`PlaneMut::patch`]: crate::arena::PlaneMut::patch

// Re-exported so downstream crates (splice-core) can build flight events,
// registries, and latency histograms without a direct telemetry
// dependency.
pub use splice_telemetry::{FlightEvent, FlightRecorder, Histogram, Registry};

use splice_telemetry::series;
use std::sync::Arc;

/// Timing handles for the SPF → FIB pipeline. One observation lands in
/// each histogram per slice computed, so after a Monte-Carlo run the
/// distributions describe per-slice build cost across all trials.
#[derive(Clone, Debug)]
pub struct SpfTelemetry {
    /// Wall time of one whole-plane fill (`StrategyKind::fill_plane`
    /// in `splice-core`): the whole per-slice build, FIB emission
    /// included.
    pub spf_seconds: Arc<Histogram>,
    /// Measured `SpliceFib` arena footprint in bytes, one observation
    /// per splicing build — the §4.2 state-size accounting.
    pub arena_bytes: Arc<Histogram>,
    /// Wall time of one incremental slice-plane repair (one
    /// `PlaneMut::patch` call), one observation per repaired plane — the
    /// counterpart of `spf_seconds` for the delta-SPF path.
    pub spf_repair_seconds: Arc<Histogram>,
    /// Re-relaxed nodes per repaired plane (the repair frontier). Small
    /// frontiers are the whole point of repairing instead of rebuilding;
    /// this histogram is the evidence.
    pub spf_repair_frontier: Arc<Histogram>,
    /// When set, every filled plane and every delta-repaired plane also
    /// drops one structured event into the flight recorder
    /// (`fill/<strategy>` with the slice; `repair/patch` with slice,
    /// frontier and columns), so a
    /// failure's dump shows what the control plane just did.
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
        let labeled = |row| registry.histogram(row, Some(strategy));
        SpfTelemetry {
            spf_seconds: registry.histogram(&series::SPF_SECONDS, None),
            arena_bytes: labeled(&series::FIB_ARENA_BYTES),
            spf_repair_seconds: labeled(&series::SPF_REPAIR_SECONDS),
            spf_repair_frontier: labeled(&series::SPF_REPAIR_FRONTIER),
            flight: None,
        }
    }

    /// Also record per-plane fill and repair events into `flight`.
    pub fn with_flight(mut self, flight: FlightRecorder) -> SpfTelemetry {
        self.flight = Some(flight);
        self
    }
}

// One `SpfTelemetry` is recorded into on the control loop's thread while
// the registry it feeds is read from others: every field is an `Arc`
// over atomics (or a `FlightRecorder`, itself atomics plus mutexed
// slots). Keep that property checked at compile time.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<SpfTelemetry>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::SpliceFib;
    use splice_graph::dijkstra::{all_destinations, SpfDelta, SpfWorkspace};
    use splice_graph::graph::from_edges;
    use splice_graph::{EdgeId, EdgeMask, Graph};

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

    /// Plane 0 filled under `w` over the `mask`-up subgraph.
    fn filled(g: &Graph, w: &[f64], mask: &EdgeMask) -> SpliceFib {
        let mut fib = SpliceFib::empty(1, g.node_count());
        fib.plane_mut(0)
            .fill(g, w, mask, &mut SpfWorkspace::new(), None);
        fib
    }

    #[test]
    fn arena_fill_matches_unfused_dijkstra() {
        let g = diamond();
        let w = vec![1.0, 10.0, 2.0, 2.0];
        let fib = filled(&g, &w, &EdgeMask::all_up(g.edge_count()));
        assert_matches_unfused_dijkstra(&fib, &g, &w);
        let reg = Registry::new();
        let tel = SpfTelemetry::register(&reg);
        tel.arena_bytes.record(fib.state_bytes() as u64);
        assert!(reg.render_prometheus().contains("splice_fib_arena_bytes"));
    }

    #[test]
    fn repaired_plane_matches_full_rebuild() {
        let g = diamond();
        let w = g.base_weights();
        let mut fib = SpliceFib::empty(1, g.node_count());
        let mut dist = vec![0.0; g.node_count() * g.node_count()];
        let mut ws = SpfWorkspace::new();
        let up = EdgeMask::all_up(g.edge_count());
        fib.plane_mut(0).fill(&g, &w, &up, &mut ws, Some(&mut dist));
        let failed = EdgeId(0);
        let mask = EdgeMask::from_failed(g.edge_count(), &[failed]);
        let delta = SpfDelta {
            weights: &w,
            mask: &mask,
            failed: &[failed],
            raised: &[],
            lowered: &[],
        };
        let stats = fib.plane_mut(0).patch(&g, &delta, &mut dist, &mut ws);
        assert!(stats.patched_columns > 0);
        // The repaired plane equals a from-scratch build on the failed
        // topology.
        assert_eq!(fib, filled(&g, &w, &mask));
    }
}
