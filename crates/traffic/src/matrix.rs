//! Traffic matrices.
//!
//! The gravity model is the standard synthetic ISP workload: node "masses"
//! (here: degree-weighted with a random factor, mimicking PoP size) and
//! demand proportional to the product of endpoint masses.

use splice_graph::{Graph, NodeId, Rng};

/// A dense origin–destination demand matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `demand[s * n + t]`; zero on the diagonal.
    demand: Vec<f64>,
}

impl TrafficMatrix {
    /// Gravity model: node mass = degree × lognormal-ish random factor;
    /// demand(s, t) ∝ mass(s)·mass(t), normalized so total demand is
    /// `total`.
    pub fn gravity(g: &Graph, total: f64, seed: u64) -> TrafficMatrix {
        let n = g.node_count();
        let mut rng = Rng::seed_from_u64(seed);
        let masses: Vec<f64> = g
            .nodes()
            .map(|u| g.degree(u) as f64 * rng.gen_range_f64(0.5..2.0))
            .collect();
        let mut demand = vec![0.0; n * n];
        let mut sum = 0.0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    let d = masses[s] * masses[t];
                    demand[s * n + t] = d;
                    sum += d;
                }
            }
        }
        if sum > 0.0 {
            for d in &mut demand {
                *d *= total / sum;
            }
        }
        TrafficMatrix { n, demand }
    }

    /// Total offered load.
    pub fn total(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// All ordered pairs with positive demand.
    pub fn flows(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n as u32).flat_map(move |s| {
            (0..self.n as u32).filter_map(move |t| {
                let d = self.demand[s as usize * self.n + t as usize];
                (d > 0.0).then_some((NodeId(s), NodeId(t), d))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::abilene::abilene;

    #[test]
    fn gravity_normalizes_and_respects_degree() {
        let g = abilene().graph();
        let m = TrafficMatrix::gravity(&g, 100.0, 7);
        assert!((m.total() - 100.0).abs() < 1e-9);
        // No self-demand; every other ordered pair has some.
        assert!(m.flows().all(|(s, t, _)| s != t));
        let n = g.node_count();
        assert_eq!(m.flows().count(), n * (n - 1));
        // Bigger-degree nodes attract more demand on average.
        let deg_of = |i: u32| g.degree(NodeId(i));
        let mut into = vec![0.0; n];
        for (_, t, d) in m.flows() {
            into[t.index()] += d;
        }
        let (hub, _) = into
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(
            deg_of(hub as u32) >= 3,
            "highest-demand node should be a hub, got degree {}",
            deg_of(hub as u32)
        );
    }

    #[test]
    fn gravity_deterministic() {
        let g = abilene().graph();
        assert_eq!(
            TrafficMatrix::gravity(&g, 10.0, 1),
            TrafficMatrix::gravity(&g, 10.0, 1)
        );
    }
}
