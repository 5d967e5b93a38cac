//! Link loads under different routing modes.
//!
//! Demands are routed hop-by-hop over the splicing FIBs; per-link loads
//! accumulate. Three modes:
//!
//! * [`RoutingMode::ShortestPath`] — everything in slice 0 (today's
//!   single-path routing);
//! * [`RoutingMode::HashSpread`] — each flow pinned to its
//!   `Hash(src, dst)` slice, Algorithm 1's default: splicing's "automatic"
//!   load balancing with zero configuration;
//! * [`RoutingMode::EqualSplit`] — each flow split equally over all k
//!   slice paths, the explicit-multipath upper bound on spreading.

use crate::matrix::TrafficMatrix;
use splice_core::hash::slice_for_flow;
use splice_core::slices::Splicing;
use splice_graph::{EdgeMask, Graph, NodeId};

/// How demands map onto slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// All demand in slice 0.
    ShortestPath,
    /// Flow-hash slice selection.
    HashSpread,
    /// Demand split equally across every slice's path.
    EqualSplit,
}

/// Per-link load summary.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadReport {
    /// Load carried by each link (edge-id indexed).
    pub per_edge: Vec<f64>,
    /// Demand that could not be delivered (no working slice path).
    pub undelivered: f64,
}

impl LoadReport {
    /// The busiest link's load.
    pub fn max(&self) -> f64 {
        self.per_edge.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean load over all links (the standard utilization denominator).
    pub fn mean(&self) -> f64 {
        if self.per_edge.is_empty() {
            0.0
        } else {
            self.per_edge.iter().sum::<f64>() / self.per_edge.len() as f64
        }
    }

    /// Coefficient of variation (std / mean) — lower is better balanced.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m <= 0.0 {
            return 0.0;
        }
        let var =
            self.per_edge.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.per_edge.len() as f64;
        var.sqrt() / m
    }
}

/// Route `amount` along the slice path from `s` to `t`, adding it to
/// each traversed link. Returns false, adding nothing, if the path
/// crosses a failed link or has no route.
fn route_flow(
    splicing: &Splicing,
    mask: &EdgeMask,
    slice: usize,
    s: NodeId,
    t: NodeId,
    amount: f64,
    per_edge: &mut [f64],
) -> bool {
    // Check the whole path first, then commit its load.
    let plane = splicing.arena().plane(slice);
    let mut path = plane.path(s, t);
    if !(path.by_ref().all(|(_, e)| mask.is_up(e)) && path.reached()) {
        return false;
    }
    for (_, e) in plane.path(s, t) {
        per_edge[e.index()] += amount;
    }
    true
}

/// Compute link loads for `tm` under `mode` with the links in `mask`
/// failed. A flow whose slice path broke (under
/// [`RoutingMode::EqualSplit`], each share of it) recovers onto the
/// first slice, in id order, with a working path: the post-recovery
/// steady state the §5 "selfish routing" question is about. Demand with
/// no working slice path is undelivered.
pub fn link_loads(
    splicing: &Splicing,
    g: &Graph,
    tm: &TrafficMatrix,
    mode: RoutingMode,
    mask: &EdgeMask,
) -> LoadReport {
    let mut per_edge = vec![0.0; g.edge_count()];
    let mut undelivered = 0.0;
    let k = splicing.k();
    for (s, t, d) in tm.flows() {
        // The primary slices the flow's shares start on, and each share.
        let (primaries, amount) = match mode {
            RoutingMode::ShortestPath => (0..1, d),
            RoutingMode::HashSpread => {
                let slice = slice_for_flow(s, t, k);
                (slice..slice + 1, d)
            }
            RoutingMode::EqualSplit => (0..k, d / k as f64),
        };
        for primary in primaries {
            let delivered = std::iter::once(primary)
                .chain((0..k).filter(|&slice| slice != primary))
                .any(|slice| route_flow(splicing, mask, slice, s, t, amount, &mut per_edge));
            if !delivered {
                undelivered += amount;
            }
        }
    }
    LoadReport {
        per_edge,
        undelivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::slices::SplicingConfig;
    use splice_topology::abilene::abilene;

    fn setup() -> (Graph, Splicing, TrafficMatrix) {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 9);
        let tm = TrafficMatrix::gravity(&g, 100.0, 1);
        (g, sp, tm)
    }

    #[test]
    fn conservation_no_failures() {
        let (g, sp, tm) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        for mode in [
            RoutingMode::ShortestPath,
            RoutingMode::HashSpread,
            RoutingMode::EqualSplit,
        ] {
            let report = link_loads(&sp, &g, &tm, mode, &mask);
            assert_eq!(report.undelivered, 0.0, "{mode:?}");
            assert!(report.max() > 0.0);
            // Total link load >= total demand (paths have >= 1 hop).
            let carried: f64 = report.per_edge.iter().sum();
            assert!(carried >= tm.total() - 1e-6, "{mode:?}");
        }
    }

    #[test]
    fn spreading_reduces_peak_load() {
        let (g, sp, tm) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let single = link_loads(&sp, &g, &tm, RoutingMode::ShortestPath, &mask);
        let split = link_loads(&sp, &g, &tm, RoutingMode::EqualSplit, &mask);
        // Splitting across slices cannot concentrate more than slice 0 does
        // on this workload; peak should drop (or at least not grow much).
        assert!(
            split.max() <= single.max() * 1.05,
            "split {} vs single {}",
            split.max(),
            single.max()
        );
    }

    /// The k = 1 deployment over the same graph and seed: slice 0 alone,
    /// so a broken path has no slice to recover onto.
    fn single_path(g: &Graph) -> Splicing {
        Splicing::build(g, &SplicingConfig::degree_based(1, 0.0, 3.0), 9)
    }

    #[test]
    fn failures_strand_demand_in_single_path_mode() {
        let (g, _, tm) = setup();
        let single = single_path(&g);
        // Fail slice 0's Seattle uplink used toward many destinations.
        let (_, e) = single.next_hop(0, NodeId(0), NodeId(10)).unwrap();
        let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
        let report = link_loads(&single, &g, &tm, RoutingMode::ShortestPath, &mask);
        assert!(report.undelivered > 0.0);
    }

    #[test]
    fn recovery_routing_reduces_stranding() {
        let (g, sp, tm) = setup();
        let single = single_path(&g);
        let (_, e) = sp.next_hop(0, NodeId(0), NodeId(10)).unwrap();
        let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
        let plain = link_loads(&single, &g, &tm, RoutingMode::ShortestPath, &mask);
        let recovered = link_loads(&sp, &g, &tm, RoutingMode::ShortestPath, &mask);
        assert!(recovered.undelivered < plain.undelivered);
        // Recovered demand rides longer paths: total carried load grows.
        let carried = |r: &LoadReport| r.per_edge.iter().sum::<f64>();
        assert!(carried(&recovered) >= carried(&plain) - 1e-9);
    }

    /// With nothing failed no share leaves its primary slice: the loads
    /// are each share's primary slice path, summed.
    #[test]
    fn recovery_routing_no_failures_is_identity() {
        let (g, sp, tm) = setup();
        let up = EdgeMask::all_up(g.edge_count());
        let k = sp.k();
        for mode in [
            RoutingMode::ShortestPath,
            RoutingMode::HashSpread,
            RoutingMode::EqualSplit,
        ] {
            let mut primary_only = vec![0.0; g.edge_count()];
            for (s, t, d) in tm.flows() {
                let shares = match mode {
                    RoutingMode::ShortestPath => vec![(0, d)],
                    RoutingMode::HashSpread => vec![(slice_for_flow(s, t, k), d)],
                    RoutingMode::EqualSplit => (0..k).map(|i| (i, d / k as f64)).collect(),
                };
                for (slice, amount) in shares {
                    for (_, e) in sp.arena().plane(slice).path(s, t) {
                        primary_only[e.index()] += amount;
                    }
                }
            }
            let report = link_loads(&sp, &g, &tm, mode, &up);
            assert_eq!(report.per_edge, primary_only, "{mode:?}");
            assert_eq!(report.undelivered, 0.0, "{mode:?}");
        }
    }

    #[test]
    fn report_metrics() {
        let report = LoadReport {
            per_edge: vec![1.0, 3.0, 2.0, 2.0],
            undelivered: 0.0,
        };
        assert_eq!(report.max(), 3.0);
        assert_eq!(report.mean(), 2.0);
        assert!(report.cv() > 0.0);
        let flat = LoadReport {
            per_edge: vec![2.0; 4],
            undelivered: 0.0,
        };
        assert_eq!(flat.cv(), 0.0);
    }

    #[test]
    fn empty_report() {
        let r = LoadReport {
            per_edge: vec![],
            undelivered: 0.0,
        };
        assert_eq!(r.max(), 0.0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.cv(), 0.0);
    }
}
