//! Conventional link-weight optimization — the comparator §5 names.
//!
//! "Path splicing spreads traffic across the network even in the absence
//! of failure … this 'automatic' load balancing might mitigate the need
//! for various tuning that is necessary with today's routing protocols
//! [Fortz–Thorup]." To measure that, we need the tuned baseline: a
//! local-search optimizer in the Fortz–Thorup style that adjusts OSPF
//! weights to minimize the network's congestion cost for a given traffic
//! matrix.
//!
//! This is deliberately the *simple* variant: single-path routing (our
//! substrate has no ECMP), integer weight moves, first-improvement hill
//! climbing with restarts — enough to produce a competently tuned weight
//! setting, not a research-grade TE engine.

use crate::load::{link_loads, RoutingMode};
use crate::matrix::TrafficMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splice_core::slices::{Splicing, SplicingConfig};
use splice_graph::{EdgeMask, Graph};

/// The Fortz–Thorup piecewise-linear congestion cost of a utilization
/// `u` (load / capacity). Convex, exploding past 100%.
pub fn congestion_cost(u: f64) -> f64 {
    // Segment slopes from the original paper.
    let segments = [
        (0.0, 1.0),
        (1.0 / 3.0, 3.0),
        (2.0 / 3.0, 10.0),
        (0.9, 70.0),
        (1.0, 500.0),
        (1.1, 5000.0),
    ];
    let mut cost = 0.0;
    let mut prev_x = 0.0;
    let mut slope = 0.0;
    for &(x, s) in &segments {
        if u <= x {
            return cost + slope * (u - prev_x);
        }
        cost += slope * (x - prev_x);
        prev_x = x;
        slope = s;
    }
    cost + slope * (u - prev_x)
}

/// Network-wide cost of a weight setting: sum of per-link congestion
/// costs under single-shortest-path routing of `tm`, with every link's
/// capacity `capacity`.
pub fn network_cost(g: &Graph, weights: &[f64], tm: &TrafficMatrix, capacity: f64) -> f64 {
    // Route over a splicing with k = 1 whose slice-0 weights are `weights`.
    let splicing = splicing_for(g, weights);
    let mask = EdgeMask::all_up(g.edge_count());
    let report = link_loads(&splicing, g, tm, RoutingMode::ShortestPath, &mask);
    report
        .per_edge
        .iter()
        .map(|&l| congestion_cost(l / capacity))
        .sum::<f64>()
        + report.undelivered * 1e6 // stranded demand is intolerable
}

/// A 1-slice deployment whose slice-0 weights are `weights`.
fn splicing_for(g: &Graph, weights: &[f64]) -> Splicing {
    Splicing::from_weight_vectors(g, vec![weights.to_vec()])
}

/// Result of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimizedWeights {
    /// The tuned weight vector.
    pub weights: Vec<f64>,
    /// Cost before tuning (base weights).
    pub initial_cost: f64,
    /// Cost after tuning.
    pub final_cost: f64,
    /// Accepted moves.
    pub moves: usize,
}

/// Fortz–Thorup-style local search: repeatedly pick a link and try
/// scaling its weight by a random factor; keep improvements. `budget` is
/// the number of candidate moves examined.
pub fn optimize_weights(
    g: &Graph,
    tm: &TrafficMatrix,
    capacity: f64,
    budget: usize,
    seed: u64,
) -> OptimizedWeights {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights = g.base_weights();
    let initial_cost = network_cost(g, &weights, tm, capacity);
    let mut cost = initial_cost;
    let mut moves = 0usize;
    for _ in 0..budget {
        let e = rng.gen_range(0..g.edge_count());
        let old = weights[e];
        // Multiplicative moves explore scale changes; clamp to sane range.
        let factor = *[0.5, 0.8, 1.25, 2.0, 4.0]
            .get(rng.gen_range(0..5))
            .expect("in range");
        weights[e] = (old * factor).clamp(0.25, 1e4);
        let candidate = network_cost(g, &weights, tm, capacity);
        if candidate < cost {
            cost = candidate;
            moves += 1;
        } else {
            weights[e] = old;
        }
    }
    OptimizedWeights {
        weights,
        initial_cost,
        final_cost: cost,
        moves,
    }
}

/// Max link utilization of a routing mode under `tm` (load / capacity).
pub fn max_utilization(
    splicing: &Splicing,
    g: &Graph,
    tm: &TrafficMatrix,
    mode: RoutingMode,
    capacity: f64,
) -> f64 {
    let mask = EdgeMask::all_up(g.edge_count());
    link_loads(splicing, g, tm, mode, &mask).max() / capacity
}

/// Convenience: the three-way §5 comparison on one topology/matrix —
/// (untuned single-path, tuned single-path, splicing hash-spread,
/// splicing equal-split) max utilizations.
pub fn te_comparison(
    g: &Graph,
    tm: &TrafficMatrix,
    capacity: f64,
    budget: usize,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let base = splicing_for(g, &g.base_weights());
    let untuned = max_utilization(&base, g, tm, RoutingMode::ShortestPath, capacity);

    let opt = optimize_weights(g, tm, capacity, budget, seed);
    let tuned_sp = splicing_for(g, &opt.weights);
    let tuned = max_utilization(&tuned_sp, g, tm, RoutingMode::ShortestPath, capacity);

    let spliced = Splicing::build(g, &SplicingConfig::degree_based(5, 0.0, 3.0), seed);
    let hash = max_utilization(&spliced, g, tm, RoutingMode::HashSpread, capacity);
    let split = max_utilization(&spliced, g, tm, RoutingMode::EqualSplit, capacity);
    (untuned, tuned, hash, split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::abilene::abilene;

    #[test]
    fn cost_function_shape() {
        assert_eq!(congestion_cost(0.0), 0.0);
        assert!(congestion_cost(0.3) < congestion_cost(0.6));
        assert!(congestion_cost(0.95) < congestion_cost(1.05));
        // Convexity at the sampled knots.
        let (a, b, c) = (
            congestion_cost(0.5),
            congestion_cost(0.75),
            congestion_cost(1.0),
        );
        assert!(b - a < c - b, "marginal cost must grow");
        // Continuity at a knot.
        let eps = 1e-9;
        assert!((congestion_cost(0.9 + eps) - congestion_cost(0.9 - eps)).abs() < 1e-6);
    }

    #[test]
    fn optimization_never_hurts() {
        let g = abilene().graph();
        let tm = TrafficMatrix::gravity(&g, 300.0, 2);
        let out = optimize_weights(&g, &tm, 100.0, 150, 7);
        assert!(out.final_cost <= out.initial_cost);
        assert_eq!(out.weights.len(), g.edge_count());
        assert!(out.weights.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn tuning_beats_untuned_on_skewed_load() {
        let g = abilene().graph();
        let tm = TrafficMatrix::gravity(&g, 500.0, 5);
        let (untuned, tuned, _, _) = te_comparison(&g, &tm, 100.0, 250, 3);
        assert!(
            tuned <= untuned + 1e-9,
            "tuned {tuned} should not exceed untuned {untuned}"
        );
    }

    #[test]
    fn deterministic() {
        let g = abilene().graph();
        let tm = TrafficMatrix::gravity(&g, 300.0, 2);
        let a = optimize_weights(&g, &tm, 100.0, 100, 9);
        let b = optimize_weights(&g, &tm, 100.0, 100, 9);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.final_cost, b.final_cost);
    }
}
