//! Failure-induced traffic shifts (§5 "selfish-routing effects").
//!
//! When a link dies, every flow crossing it re-routes. If all end systems
//! deflect the same way, the load lands on one link; if they spread
//! (random slices), it disperses. This experiment fails each link in turn
//! and measures how the busiest surviving link's load changes under each
//! routing mode.

use crate::load::{link_loads, RoutingMode};
use crate::matrix::TrafficMatrix;
use splice_core::slices::Splicing;
use splice_graph::{EdgeId, EdgeMask, Graph};

/// Shift measurement for one failed link.
#[derive(Clone, Debug, PartialEq)]
pub struct ShiftResult {
    /// The failed link.
    pub failed: EdgeId,
    /// Peak link load before the failure.
    pub peak_before: f64,
    /// Peak link load after re-routing.
    pub peak_after: f64,
    /// Demand stranded after the failure.
    pub undelivered: f64,
}

impl ShiftResult {
    /// Relative peak increase (0 = no shift pressure).
    pub fn peak_increase(&self) -> f64 {
        if self.peak_before <= 0.0 {
            0.0
        } else {
            self.peak_after / self.peak_before - 1.0
        }
    }
}

/// Fail every link in turn and record the load shift under `mode`.
/// Broken flows recover onto alternate slices (the post-recovery steady
/// state — failures *add* load to surviving links, which is the shift
/// pressure §5 asks about).
pub fn single_link_failure_sweep(
    splicing: &Splicing,
    g: &Graph,
    tm: &TrafficMatrix,
    mode: RoutingMode,
) -> Vec<ShiftResult> {
    let up = EdgeMask::all_up(g.edge_count());
    let peak_before = link_loads(splicing, g, tm, mode, &up).max();
    g.edge_ids()
        .map(|e| {
            let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
            let after = link_loads(splicing, g, tm, mode, &mask);
            // Peak over *surviving* links.
            let peak_after = after
                .per_edge
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != e.index())
                .map(|(_, &l)| l)
                .fold(0.0, f64::max);
            ShiftResult {
                failed: e,
                peak_before,
                peak_after,
                undelivered: after.undelivered,
            }
        })
        .collect()
}

/// The worst relative peak increase over all single-link failures.
pub fn worst_case_shift(results: &[ShiftResult]) -> f64 {
    results
        .iter()
        .map(ShiftResult::peak_increase)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::slices::SplicingConfig;
    use splice_topology::abilene::abilene;
    use splice_topology::sprint::sprint;

    fn setup() -> (Graph, Splicing, TrafficMatrix) {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 9);
        let tm = TrafficMatrix::gravity(&g, 100.0, 1);
        (g, sp, tm)
    }

    #[test]
    fn sweep_covers_all_links() {
        let (g, sp, tm) = setup();
        let res = single_link_failure_sweep(&sp, &g, &tm, RoutingMode::HashSpread);
        assert_eq!(res.len(), g.edge_count());
        for r in &res {
            assert!(r.peak_after >= 0.0);
            assert!(r.undelivered >= 0.0);
        }
    }

    #[test]
    fn worst_case_shift_is_finite_and_nonnegative() {
        let (g, sp, tm) = setup();
        let res = single_link_failure_sweep(&sp, &g, &tm, RoutingMode::HashSpread);
        let w = worst_case_shift(&res);
        assert!(w >= 0.0);
        assert!(w.is_finite());
    }

    /// §5's selfish-routing claim, on the `te_load_balance` row's
    /// workload (Sprint, k = 5, a gravity matrix of 1000 units, deployment
    /// and matrix drawn from one seed): spreading flows over slices, by
    /// hash or by equal split, shifts less load onto the busiest surviving
    /// link under the worst single-link failure than single-path routing
    /// does, at every seed in 1..=12. Deterministic per seed: no band.
    /// (The claim is Sprint's: hash-spread's worst shift exceeds
    /// single-path's at 10 of these 12 seeds on Abilene, at 4 on GEANT.)
    #[test]
    fn spreading_shifts_less_than_single_path_on_sprint() {
        let g = sprint().graph();
        for seed in 1..=12 {
            let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), seed);
            let tm = TrafficMatrix::gravity(&g, 1000.0, seed);
            let worst = |mode| worst_case_shift(&single_link_failure_sweep(&sp, &g, &tm, mode));
            let single = worst(RoutingMode::ShortestPath);
            for mode in [RoutingMode::HashSpread, RoutingMode::EqualSplit] {
                let spread = worst(mode);
                assert!(
                    spread < single,
                    "seed {seed}: {mode:?} worst shift {spread:.3} vs single-path {single:.3}"
                );
            }
        }
    }

    #[test]
    fn peak_increase_math() {
        let r = ShiftResult {
            failed: EdgeId(0),
            peak_before: 10.0,
            peak_after: 12.0,
            undelivered: 0.0,
        };
        assert!((r.peak_increase() - 0.2).abs() < 1e-12);
        let z = ShiftResult {
            failed: EdgeId(0),
            peak_before: 0.0,
            peak_after: 5.0,
            undelivered: 0.0,
        };
        assert_eq!(z.peak_increase(), 0.0);
    }
}
