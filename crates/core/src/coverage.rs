//! Coverage-aware slice construction (§5 "alternate slicing mechanisms").
//!
//! Random perturbation is oblivious: two slices may rediscover the same
//! trees. The paper suggests splicing "might perform even better if each
//! slice were configured with some consideration of the edges in the
//! underlying graph that were already covered by other slices". This
//! module implements that idea: slices are built sequentially, and each
//! new slice sees the weights of *already-covered* edges inflated by a
//! penalty factor, steering its shortest-path trees onto fresh links.
//!
//! The construction remains fully distributed-friendly: the penalty is a
//! deterministic function of the previous slices' (globally agreed)
//! trees, so every router derives identical weights, exactly as with the
//! pseudorandom perturbations of §3.1.

use crate::perturb::Perturbation;
use crate::slices::{Splicing, SplicingConfig};
use crate::strategy::with_spf_workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splice_graph::{EdgeMask, Graph};
use splice_routing::arena::SpliceFib;

/// Configuration for coverage-aware construction.
#[derive(Clone, Debug, PartialEq)]
pub struct CoverageConfig {
    /// The base (random-perturbation) configuration; its `k` and
    /// perturbation are reused.
    pub base: SplicingConfig,
    /// Multiplicative penalty applied to an edge's weight for each
    /// previous slice that used it, as `w · (1 + penalty·uses)`.
    /// 0 recovers plain independent perturbation.
    pub penalty: f64,
}

/// Build `k` slices where each new slice is repelled from the edges the
/// previous slices' trees already cover.
///
/// Slice 0 stays the unperturbed base (when the base config says so);
/// slice `i > 0` draws its random perturbation, then multiplies each
/// edge's weight by `1 + penalty · uses(e)` where `uses(e)` counts the
/// previous slices whose trees (toward any destination) include `e`.
pub fn build_coverage_aware(g: &Graph, cfg: &CoverageConfig, seed: u64) -> Splicing {
    assert!(cfg.base.k >= 1, "need at least one slice");
    assert!(cfg.penalty >= 0.0 && cfg.penalty.is_finite());
    let m = g.edge_count();
    let mut uses = vec![0u32; m];
    let mut fib = SpliceFib::empty(cfg.base.k, g.node_count());
    let mut slice_weights = Vec::with_capacity(cfg.base.k);
    for id in 0..cfg.base.k {
        let mut weights = if id == 0 && cfg.base.include_base_slice {
            g.base_weights()
        } else {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(id as u64 + 1)));
            cfg.base.perturbation.perturb(g, &mut rng)
        };
        if id > 0 && cfg.penalty > 0.0 {
            for (i, w) in weights.iter_mut().enumerate() {
                *w *= 1.0 + cfg.penalty * uses[i] as f64;
            }
        }
        with_spf_workspace(|ws| fib.fill_slice(g, &weights, id, ws));
        // Record which physical edges this slice's trees cover.
        let mut covered = vec![false; m];
        for e in fib.plane(id).used_edges() {
            covered[e.index()] = true;
        }
        for (i, c) in covered.iter().enumerate() {
            if *c {
                uses[i] += 1;
            }
        }
        slice_weights.push(weights);
    }
    Splicing::from_parts(slice_weights, fib, EdgeMask::all_up(m))
}

/// Fraction of physical edges covered by the union of the first
/// `k_prefix` slices' trees — the quantity coverage-aware construction
/// maximizes.
pub fn edge_coverage(splicing: &Splicing, k_prefix: usize) -> f64 {
    let used = splicing.union_edges(k_prefix);
    let covered = used.iter().filter(|&&b| b).count();
    covered as f64 / used.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::sprint::sprint;

    fn cfg(k: usize, penalty: f64) -> CoverageConfig {
        CoverageConfig {
            base: SplicingConfig::degree_based(k, 0.0, 3.0),
            penalty,
        }
    }

    #[test]
    fn zero_penalty_equals_independent_construction() {
        let g = sprint().graph();
        let aware = build_coverage_aware(&g, &cfg(4, 0.0), 9);
        let plain = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 9);
        for i in 0..4 {
            assert_eq!(aware.weights(i), plain.weights(i));
        }
    }

    #[test]
    fn penalty_improves_edge_coverage() {
        let g = sprint().graph();
        let k = 5;
        let plain = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), 3);
        let aware = build_coverage_aware(&g, &cfg(k, 2.0), 3);
        let cov_plain = edge_coverage(&plain, k);
        let cov_aware = edge_coverage(&aware, k);
        assert!(
            cov_aware >= cov_plain,
            "coverage-aware {cov_aware} < plain {cov_plain}"
        );
    }

    #[test]
    fn slice_zero_untouched() {
        let g = sprint().graph();
        let aware = build_coverage_aware(&g, &cfg(3, 5.0), 1);
        assert_eq!(aware.weights(0), g.base_weights());
    }

    #[test]
    fn deterministic() {
        let g = sprint().graph();
        let a = build_coverage_aware(&g, &cfg(3, 1.5), 7);
        let b = build_coverage_aware(&g, &cfg(3, 1.5), 7);
        for i in 0..3 {
            assert_eq!(a.weights(i), b.weights(i));
        }
    }

    #[test]
    #[should_panic]
    fn negative_penalty_rejected() {
        let g = sprint().graph();
        build_coverage_aware(&g, &cfg(2, -1.0), 1);
    }
}
