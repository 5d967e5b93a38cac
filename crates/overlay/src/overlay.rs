//! Overlay networks over an underlay topology, and their spliced routing.

use splice_core::slices::Splicing;
use splice_graph::{dijkstra, EdgeId, EdgeMask, Graph, GraphBuilder, NodeId, Rng};

/// A routing metric an overlay instance can optimize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Minimize end-to-end propagation latency (RON's latency mode).
    Latency,
    /// Maximize delivery probability (RON's loss mode): weights are
    /// `-ln(1 - loss)`, so shortest path = highest success product.
    Loss,
    /// Minimize overlay hop count (SOSR-style indirection economy).
    Hops,
}

/// One overlay link: two member indices, riding an underlay path.
#[derive(Clone, Debug)]
pub struct OverlayLink {
    /// Endpoint indices into [`Overlay::members`].
    pub a: usize,
    /// Second endpoint index.
    pub b: usize,
    /// Underlay links this overlay link traverses.
    pub underlay_path: Vec<EdgeId>,
    /// End-to-end latency (ms) over the underlay path.
    pub latency_ms: f64,
    /// End-to-end loss rate over the underlay path.
    pub loss: f64,
}

/// An overlay: members of an underlay graph plus a link mesh.
#[derive(Clone, Debug)]
pub struct Overlay {
    /// Underlay node ids of the overlay members.
    pub members: Vec<NodeId>,
    /// Overlay links (graph edge ids align with this vector).
    pub links: Vec<OverlayLink>,
}

impl Overlay {
    /// Build an overlay over `members`, meshing each member with its
    /// `degree` nearest (by latency) peers plus `random_extra` random
    /// peers (the RON recipe: mostly-local mesh with a few long chords).
    /// Overlay links ride the underlay's latency-shortest paths;
    /// per-underlay-link loss rates compose multiplicatively.
    pub fn build(
        underlay: &Graph,
        latencies: &[f64],
        loss_rates: &[f64],
        members: Vec<NodeId>,
        degree: usize,
        random_extra: usize,
        seed: u64,
    ) -> Overlay {
        assert!(members.len() >= 2, "an overlay needs at least two members");
        assert_eq!(latencies.len(), underlay.edge_count());
        assert_eq!(loss_rates.len(), underlay.edge_count());
        let mut rng = Rng::seed_from_u64(seed);
        let m = members.len();

        // Underlay latency-shortest paths between all member pairs.
        type MemberPath = Option<(Vec<EdgeId>, f64)>;
        let mut paths: Vec<Vec<MemberPath>> = vec![vec![None; m]; m];
        for (ti, &t) in members.iter().enumerate() {
            let spt = dijkstra(underlay, t, latencies);
            for (si, &s) in members.iter().enumerate() {
                if si == ti {
                    continue;
                }
                if let Some(p) = spt.path_from(s) {
                    let lat = p.length(latencies);
                    paths[si][ti] = Some((p.edges, lat));
                }
            }
        }

        // Choose neighbors: nearest by latency + random extras.
        let mut chosen: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        for (si, row) in paths.iter().enumerate() {
            let mut candidates: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|&(ti, _)| ti != si)
                .filter_map(|(ti, p)| p.as_ref().map(|&(_, lat)| (ti, lat)))
                .collect();
            candidates.sort_by(|x, y| x.1.partial_cmp(&y.1).expect("no NaN"));
            for &(ti, _) in candidates.iter().take(degree) {
                chosen.insert((si.min(ti), si.max(ti)));
            }
            let mut rest: Vec<usize> = candidates.iter().skip(degree).map(|&(ti, _)| ti).collect();
            rng.shuffle(&mut rest);
            for &ti in rest.iter().take(random_extra) {
                chosen.insert((si.min(ti), si.max(ti)));
            }
        }

        let links = chosen
            .into_iter()
            .filter_map(|(a, b)| {
                let (edges, latency_ms) = paths[a][b].clone()?;
                let success: f64 = edges.iter().map(|e| 1.0 - loss_rates[e.index()]).product();
                Some(OverlayLink {
                    a,
                    b,
                    underlay_path: edges,
                    latency_ms,
                    loss: 1.0 - success,
                })
            })
            .collect();
        Overlay { members, links }
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The overlay as an algorithmic graph (unit base weights; metrics
    /// supply the real weights per slice).
    pub fn graph(&self) -> Graph {
        let mut b = GraphBuilder::new().with_nodes(self.members.len());
        for l in &self.links {
            b.add_edge(NodeId(l.a as u32), NodeId(l.b as u32), 1.0);
        }
        b.build()
    }

    /// The weight vector a metric induces over the overlay links.
    pub fn metric_weights(&self, metric: Metric) -> Vec<f64> {
        self.links
            .iter()
            .map(|l| match metric {
                Metric::Latency => l.latency_ms.max(1e-6),
                // -ln(success): additive over a path = -ln of the path's
                // delivery probability; floored to stay a valid weight.
                Metric::Loss => (-(1.0 - l.loss).ln()).max(1e-6),
                Metric::Hops => 1.0,
            })
            .collect()
    }

    /// Map an underlay failure mask to the overlay: an overlay link is
    /// down iff any underlay link on its path is down.
    pub fn project_failures(&self, underlay_mask: &EdgeMask) -> EdgeMask {
        let mut mask = EdgeMask::all_up(self.links.len());
        for (i, l) in self.links.iter().enumerate() {
            if l.underlay_path.iter().any(|&e| underlay_mask.is_failed(e)) {
                mask.fail(EdgeId(i as u32));
            }
        }
        mask
    }
}

/// A spliced overlay: one slice per metric over the overlay graph.
pub struct OverlaySplicing {
    /// The overlay being routed.
    pub overlay: Overlay,
    /// Overlay graph (edge ids align with `overlay.links`).
    pub graph: Graph,
    /// The spliced deployment (slice i = `metrics[i]`).
    pub splicing: Splicing,
    /// Metric order of the slices.
    pub metrics: Vec<Metric>,
}

impl OverlaySplicing {
    /// Build slices for the given metrics.
    pub fn build(overlay: Overlay, metrics: Vec<Metric>) -> OverlaySplicing {
        assert!(!metrics.is_empty());
        let graph = overlay.graph();
        let weights = metrics.iter().map(|&m| overlay.metric_weights(m)).collect();
        let splicing = Splicing::from_weight_vectors(&graph, weights);
        OverlaySplicing {
            overlay,
            graph,
            splicing,
            metrics,
        }
    }

    /// Disconnected ordered member pairs under an *underlay* failure
    /// mask, routing with the first `k` metric slices (directed splicing
    /// semantics — what overlay forwarding can actually do).
    pub fn disconnected_pairs(&self, k: usize, underlay_mask: &EdgeMask) -> usize {
        let overlay_mask = self.overlay.project_failures(underlay_mask);
        self.splicing.disconnected_pairs(k, &overlay_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::sprint::sprint;

    fn setup() -> (Graph, Vec<f64>, Vec<f64>, Vec<NodeId>) {
        let topo = sprint();
        let g = topo.graph();
        let lat = topo.latencies();
        // Loss rates: long links lossier (0.1% per 10 ms), capped at 5%.
        let loss: Vec<f64> = lat.iter().map(|l| (l * 0.0001).min(0.05)).collect();
        // Members: every 4th PoP.
        let members: Vec<NodeId> = g.nodes().step_by(4).collect();
        (g, lat, loss, members)
    }

    fn overlay() -> (Graph, Overlay) {
        let (g, lat, loss, members) = setup();
        let ov = Overlay::build(&g, &lat, &loss, members, 3, 1, 7);
        (g, ov)
    }

    #[test]
    fn mesh_shape() {
        let (_, ov) = overlay();
        assert_eq!(ov.member_count(), 13);
        let og = ov.graph();
        assert_eq!(og.node_count(), 13);
        // Mostly-local mesh: every member got >= its 3 nearest links.
        assert!(og.min_degree() >= 3);
        // Connected.
        let up = EdgeMask::all_up(og.edge_count());
        assert!(splice_graph::traversal::is_connected(&og, &up));
    }

    #[test]
    fn link_properties_compose_from_underlay() {
        let (_, ov) = overlay();
        for l in &ov.links {
            assert!(!l.underlay_path.is_empty());
            assert!(l.latency_ms > 0.0);
            assert!((0.0..1.0).contains(&l.loss));
        }
    }

    #[test]
    fn metrics_give_distinct_weights() {
        let (_, ov) = overlay();
        let lat = ov.metric_weights(Metric::Latency);
        let loss = ov.metric_weights(Metric::Loss);
        let hops = ov.metric_weights(Metric::Hops);
        assert!(lat.iter().all(|&w| w > 0.0));
        assert!(loss.iter().all(|&w| w > 0.0));
        assert!(hops.iter().all(|&w| w == 1.0));
        assert_ne!(lat, hops);
    }

    #[test]
    fn failure_projection() {
        let (g, ov) = overlay();
        // Fail the underlay links of overlay link 0: it must go down.
        let mut under = EdgeMask::all_up(g.edge_count());
        under.fail(ov.links[0].underlay_path[0]);
        let over = ov.project_failures(&under);
        assert!(over.is_failed(EdgeId(0)));
        // One underlay failure can down several overlay links (shared risk).
        let downed = over.failed_count();
        assert!(downed >= 1);
    }

    /// The `overlay_splicing` row's overlay at the lab's default seed:
    /// Sprint, every third PoP a member, i.i.d. link loss in [0, 5 %).
    fn row_overlay() -> (Graph, Overlay) {
        let topo = sprint();
        let g = topo.graph();
        let seed = 20080817;
        let mut loss_rng = Rng::seed_from_u64(seed ^ 0x1055);
        let loss: Vec<f64> = (0..g.edge_count())
            .map(|_| loss_rng.gen_range_f64(0.0..0.05))
            .collect();
        let members = g.nodes().step_by(3).collect();
        let ov = Overlay::build(&g, &topo.latencies(), &loss, members, 3, 1, seed);
        (g, ov)
    }

    /// Underlay storms for the claim below: enough that the Hoeffding
    /// half-width at δ = 1e-3 leaves room for the margin.
    const CLAIM_TRIALS: u64 = 2000;

    /// Splicing the three metric trees never disconnects more member
    /// pairs than any one of them (the union keeps every single tree), and
    /// wins in some storm, on a small overlay and on the
    /// `overlay_splicing` row's own (storm i drawn from `seed + i`, as the
    /// row draws it).
    ///
    /// On the row's overlay at p = 0.05 this also checks §5's overlay
    /// claim: spliced routing disconnects at least 4 points fewer of the
    /// member pairs than each single-metric overlay. Band: each metric's
    /// per-storm gap lies in [0, 1], so by Hoeffding its mean is at most
    /// sqrt(ln(3/δ) / 2n) above the true mean with probability 1 − δ/3;
    /// at δ = 1e-3 over the three metrics, a gap whose true mean is under
    /// 0.04 passes with probability at most δ.
    #[test]
    fn spliced_metrics_survive_more_failures_than_any_single() {
        let metrics = [Metric::Latency, Metric::Loss, Metric::Hops];
        // Each metric's per-storm gap, single-metric minus spliced, as a
        // fraction of the ordered member pairs.
        let gaps_by_metric = |g: &Graph, ov: &Overlay, p: f64, trials: u64, seed: u64| {
            let spliced = OverlaySplicing::build(ov.clone(), metrics.to_vec());
            let singles = metrics.map(|m| OverlaySplicing::build(ov.clone(), vec![m]));
            let m = ov.member_count();
            let pairs = (m * (m - 1)) as f64;
            let mut gaps = [(); 3].map(|_| Vec::new());
            for trial in 0..trials {
                let mut rng = Rng::seed_from_u64(seed + trial);
                let mut under = EdgeMask::all_up(g.edge_count());
                for e in g.edge_ids() {
                    if rng.gen_bool(p) {
                        under.fail(e);
                    }
                }
                let cut = spliced.disconnected_pairs(metrics.len(), &under);
                for (single, gap) in singles.iter().zip(&mut gaps) {
                    let single_cut = single.disconnected_pairs(1, &under);
                    assert!(cut <= single_cut, "splicing metrics must not hurt");
                    gap.push((single_cut - cut) as f64 / pairs);
                }
            }
            for (metric, gap) in metrics.iter().zip(&gaps) {
                assert!(
                    gap.iter().any(|&x| x > 0.0),
                    "{metric:?}: splicing never won"
                );
            }
            gaps
        };
        let (g, ov) = overlay();
        gaps_by_metric(&g, &ov, 0.06, 60, 11);
        let (g, ov) = row_overlay();
        let gaps = gaps_by_metric(&g, &ov, 0.05, CLAIM_TRIALS, 20080817);

        let delta: f64 = 1e-3;
        let half_width = ((3.0 / delta).ln() / (2.0 * CLAIM_TRIALS as f64)).sqrt();
        for (metric, gap) in metrics.iter().zip(&gaps) {
            let mean = gap.iter().sum::<f64>() / gap.len() as f64;
            assert!(
                mean - half_width >= 0.04,
                "{metric:?}: spliced beats it by {mean:.4} ± {half_width:.4}, not by 0.04"
            );
        }
    }

    #[test]
    fn no_failures_everyone_connected() {
        let (g, ov) = overlay();
        let os = OverlaySplicing::build(ov, vec![Metric::Latency, Metric::Loss]);
        let up = EdgeMask::all_up(g.edge_count());
        assert_eq!(os.disconnected_pairs(1, &up), 0);
        assert_eq!(os.disconnected_pairs(2, &up), 0);
    }

    #[test]
    fn deterministic_build() {
        let (g, lat, loss, members) = setup();
        let a = Overlay::build(&g, &lat, &loss, members.clone(), 3, 1, 7);
        let b = Overlay::build(&g, &lat, &loss, members, 3, 1, 7);
        assert_eq!(a.links.len(), b.links.len());
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn tiny_overlay_rejected() {
        let (g, lat, loss, _) = setup();
        Overlay::build(&g, &lat, &loss, vec![NodeId(0)], 2, 0, 1);
    }
}
