//! Random topology generators for the scaling experiments.
//!
//! Theorem A.1 says the number of slices needed for near-optimal
//! connectivity grows like `log n`; validating that empirically requires
//! graph *families* of growing size. These are the standard ones:
//!
//! * [`erdos_renyi`] — G(n, p) with i.i.d. edges,
//! * [`barabasi_albert`] — preferential attachment, giving the heavy-tailed
//!   degree mix real ISP maps show (and the paper's degree-based
//!   perturbation targets),
//! * [`waxman`] — random geometric graph with distance-decaying link
//!   probability, the classic synthetic-ISP model,
//! * [`grid`], [`ring`], [`complete`] — structured baselines.
//!
//! All generators take an explicit RNG so experiments are reproducible
//! from a seed, and all weights default to 1.0 (unit-weight routing)
//! except Waxman, which uses euclidean-distance weights.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splice_graph::graph::from_edges;
use splice_graph::{Graph, GraphBuilder, NodeId};

/// G(n, p): each of the n(n-1)/2 possible edges appears independently
/// with probability `p`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new().with_nodes(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                b.add_edge(NodeId(u), NodeId(v), 1.0);
            }
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a clique of
/// `m + 1` nodes, then each new node attaches `m` edges to existing nodes
/// with probability proportional to their degree.
///
/// # Panics
/// Panics if `n <= m` or `m == 0`.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    assert!(m >= 1, "attachment count must be >= 1");
    assert!(n > m, "need more nodes than the seed clique");
    let mut b = GraphBuilder::new().with_nodes(n);
    // Repeated-node list: picking uniformly from it is degree-proportional.
    let mut chances: Vec<u32> = Vec::new();
    let seed = m + 1;
    for u in 0..seed as u32 {
        for v in (u + 1)..seed as u32 {
            b.add_edge(NodeId(u), NodeId(v), 1.0);
            chances.push(u);
            chances.push(v);
        }
    }
    for new in seed as u32..n as u32 {
        // Distinct targets in pick order (`m` is tiny): edge ids, and so
        // every later degree-proportional pick, depend only on the seed.
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        while targets.len() < m {
            let pick = chances[rng.gen_range(0..chances.len())];
            if !targets.contains(&pick) {
                targets.push(pick);
            }
        }
        for &t in &targets {
            b.add_edge(NodeId(new), NodeId(t), 1.0);
            chances.push(new);
            chances.push(t);
        }
    }
    b.build()
}

/// Waxman random geometric graph on the unit square: nodes get uniform
/// positions; an edge (u, v) appears with probability
/// `alpha * exp(-d(u,v) / (beta * L))` where `L = sqrt(2)` is the maximum
/// distance. Weights are euclidean distances scaled to a minimum of 1.
pub fn waxman(n: usize, alpha: f64, beta: f64, rng: &mut StdRng) -> Graph {
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let l = std::f64::consts::SQRT_2;
    let mut b = GraphBuilder::new().with_nodes(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let d = ((pos[u].0 - pos[v].0).powi(2) + (pos[u].1 - pos[v].1).powi(2)).sqrt();
            let p = alpha * (-d / (beta * l)).exp();
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                b.add_edge(NodeId(u as u32), NodeId(v as u32), (d * 10.0).max(1.0));
            }
        }
    }
    b.build()
}

/// `rows × cols` grid with unit weights.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new().with_nodes(rows * cols);
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), 1.0);
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), 1.0);
            }
        }
    }
    b.build()
}

/// Cycle on `n >= 3` nodes with unit weights.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut b = GraphBuilder::new().with_nodes(n);
    for i in 0..n as u32 {
        b.add_edge(NodeId(i), NodeId((i + 1) % n as u32), 1.0);
    }
    b.build()
}

/// Complete graph K_n with unit weights.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new().with_nodes(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(NodeId(u), NodeId(v), 1.0);
        }
    }
    b.build()
}

/// Keep regenerating an Erdős–Rényi graph until it is connected (bounded
/// retries), for experiments that require a connected base topology.
pub fn connected_erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    try_connected_erdos_renyi(n, p, seed).unwrap_or_else(|| {
        panic!("could not generate a connected G({n}, {p}) in 1000 tries — p too small")
    })
}

/// Non-panicking [`connected_erdos_renyi`]: `None` when 1000 draws all
/// come out disconnected (`p` too small for `n`).
pub fn try_connected_erdos_renyi(n: usize, p: f64, seed: u64) -> Option<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..1000 {
        let g = erdos_renyi(n, p, &mut rng);
        let mask = splice_graph::EdgeMask::all_up(g.edge_count());
        if splice_graph::traversal::is_connected(&g, &mask) {
            return Some(g);
        }
    }
    None
}

/// Ring backbone `0..n` (unit weights, guaranteeing initial connectivity)
/// plus `extra` random chords — the testkit's `rand-N-M-S` scenario
/// grammar, shared here so the same graphs are reachable from the CLI and
/// the experiment engine via `--topology rand-N-M-S`.
///
/// Chords are drawn one at a time with exactly three RNG draws each, so
/// `extra - 1` yields a strict prefix of the same graph — the property the
/// testkit shrinker's remove-edges pass relies on. Do not change the draw
/// sequence: replay specs recorded anywhere would stop reproducing.
///
/// # Panics
/// Panics if `n < 3` (callers that must not panic check first).
pub fn ring_with_chords(n: u32, extra: u32, seed: u64) -> Graph {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut edges: Vec<(u32, u32, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..extra {
        // Exactly three draws per chord; `v = u + d` with `d in 1..n`
        // can never be a self-loop.
        let u = rng.gen_range(0..n);
        let d = rng.gen_range(1..n);
        let w = rng.gen_range(0.5f64..8.0);
        edges.push((u, (u + d) % n, w));
    }
    from_edges(n as usize, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_graph::traversal::is_connected;
    use splice_graph::EdgeMask;

    #[test]
    fn erdos_renyi_edge_count_scales() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi(50, 0.5, &mut rng);
        let expected = 0.5 * 50.0 * 49.0 / 2.0;
        let m = g.edge_count() as f64;
        assert!((m - expected).abs() < expected * 0.25, "m = {m}");
    }

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).edge_count(), 45);
    }

    #[test]
    fn barabasi_albert_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(100, 2, &mut rng);
        // seed clique K3 (3 edges) + 97 nodes * 2 edges.
        assert_eq!(g.edge_count(), 3 + 97 * 2);
        assert!(is_connected(&g, &EdgeMask::all_up(g.edge_count())));
        // Preferential attachment produces a hub much larger than median.
        assert!(g.max_degree() >= 8, "max degree {}", g.max_degree());
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn barabasi_albert_rejects_tiny_n() {
        let mut rng = StdRng::seed_from_u64(4);
        barabasi_albert(2, 2, &mut rng);
    }

    #[test]
    fn waxman_respects_geometry() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = waxman(60, 0.9, 0.3, &mut rng);
        assert!(g.edge_count() > 0);
        for e in g.edges() {
            assert!(e.weight >= 1.0);
        }
    }

    #[test]
    fn grid_counts() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // 3*3 horizontal + 2*4 vertical = 17.
        assert_eq!(g.edge_count(), 17);
        assert!(is_connected(&g, &EdgeMask::all_up(17)));
    }

    #[test]
    fn ring_and_complete() {
        let r = ring(5);
        assert_eq!(r.edge_count(), 5);
        for n in r.nodes() {
            assert_eq!(r.degree(n), 2);
        }
        let k = complete(5);
        assert_eq!(k.edge_count(), 10);
        for n in k.nodes() {
            assert_eq!(k.degree(n), 4);
        }
    }

    #[test]
    fn connected_er_is_connected() {
        let g = connected_erdos_renyi(30, 0.2, 42);
        assert!(is_connected(&g, &EdgeMask::all_up(g.edge_count())));
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let g1 = {
            let mut rng = StdRng::seed_from_u64(9);
            erdos_renyi(20, 0.3, &mut rng)
        };
        let g2 = {
            let mut rng = StdRng::seed_from_u64(9);
            erdos_renyi(20, 0.3, &mut rng)
        };
        assert_eq!(g1.edge_count(), g2.edge_count());
        for (a, b) in g1.edges().iter().zip(g2.edges()) {
            assert_eq!(a.u, b.u);
            assert_eq!(a.v, b.v);
        }
    }
}
