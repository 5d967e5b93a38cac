//! Stretch accounting (§2 "Small Stretch", §4.3's numbers).
//!
//! Stretch of a pair `(s, t)` is the ratio of the delivered path's latency
//! to the latency of the shortest path in the base topology; hop stretch
//! is the same ratio in hop counts. The paper reports end-system recovery
//! at ≈1.3× latency / +50% hops, network recovery at ≈1.33× / +55%, and
//! per-slice 99th-percentile stretch < 2.6.

use crate::forwarding::Trace;
use crate::slices::Splicing;
use splice_graph::{dijkstra, Graph, NodeId};

/// Latency stretch of a delivered trace against the base shortest path.
///
/// `base_latency[s][t]`-style data is expensive to precompute for every
/// caller, so this takes the shortest-path latency directly.
pub fn latency_stretch(trace: &Trace, latencies: &[f64], shortest_latency: f64) -> f64 {
    assert!(
        shortest_latency > 0.0,
        "distinct nodes have positive latency"
    );
    trace.length(latencies) / shortest_latency
}

/// Hop stretch of a delivered trace against the base shortest path's hops.
pub fn hop_stretch(trace: &Trace, shortest_hops: usize) -> f64 {
    assert!(shortest_hops > 0);
    trace.hop_count() as f64 / shortest_hops as f64
}

/// Summary statistics over a set of stretch samples.
#[derive(Clone, Debug, PartialEq)]
pub struct StretchStats {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile — the paper's per-slice headline (< 2.6).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl StretchStats {
    /// Compute stats from raw samples. Returns `None` for an empty set.
    pub fn from_samples(mut samples: Vec<f64>) -> Option<StretchStats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN stretch"));
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let pct = |p: f64| -> f64 {
            let idx = ((p * count as f64).ceil() as usize).clamp(1, count) - 1;
            samples[idx]
        };
        Some(StretchStats {
            count,
            mean,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: samples[count - 1],
        })
    }
}

/// Per-slice path stretch over all ordered pairs: for each slice and each
/// pair `(s, t)`, the latency of the slice path divided by the latency of
/// the base shortest path. Returns one vector of samples per slice.
///
/// The slice path is read from the installed FIB column, not recomputed
/// from slice weights — strategies whose slices are not shortest-path
/// trees (spanning-tree and low-stretch splicers report base weights as
/// their slice weights) would otherwise all read as stretch 1.0. For
/// perturbed-SPF the FIB is built from the same Dijkstra run, so the
/// samples are identical either way. Unrouted pairs contribute no sample.
///
/// This is the §4.3 "in any particular slice, 99% of all paths in each
/// tree have stretch of less than 2.6" experiment.
pub fn per_slice_stretch(splicing: &Splicing, g: &Graph, latencies: &[f64]) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut per_slice = vec![Vec::with_capacity(n * (n - 1)); splicing.k()];
    for t in g.nodes() {
        // Base shortest path *by IGP weight*, measured in latency.
        let base = dijkstra(g, t, &g.base_weights());
        let base_latency: Vec<f64> = g
            .nodes()
            .map(|s| base.path_from(s).map_or(f64::NAN, |p| p.length(latencies)))
            .collect();
        for (si, samples) in per_slice.iter_mut().enumerate() {
            for s in g.nodes() {
                if s == t {
                    continue;
                }
                let bl = base_latency[s.index()];
                if bl.is_nan() || bl <= 0.0 {
                    continue;
                }
                // Walk the slice's FIB column hop by hop; slices are
                // loop-free, so the n-hop cap only guards corrupt state.
                let mut len = 0.0;
                let mut u = s;
                let mut hops = 0usize;
                let delivered = loop {
                    if u == t {
                        break true;
                    }
                    let Some((v, e)) = splicing.next_hop(si, u, t) else {
                        break false;
                    };
                    len += latencies[e.index()];
                    u = v;
                    hops += 1;
                    if hops > n {
                        break false;
                    }
                };
                if delivered {
                    samples.push(len / bl);
                }
            }
        }
    }
    per_slice
}

/// Shortest-path latency and hop count between `s` and `t` under base
/// weights — the denominators of both stretch metrics.
pub fn base_path_metrics(
    g: &Graph,
    latencies: &[f64],
    s: NodeId,
    t: NodeId,
) -> Option<(f64, usize)> {
    let spt = dijkstra(g, t, &g.base_weights());
    spt.path_from(s)
        .map(|p| (p.length(latencies), p.hop_count()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::TraceStep;
    use crate::slices::SplicingConfig;
    use splice_graph::EdgeId;
    use splice_topology::abilene::abilene;

    #[test]
    fn stats_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let st = StretchStats::from_samples(samples).unwrap();
        assert_eq!(st.count, 100);
        assert_eq!(st.p50, 50.0);
        assert_eq!(st.p95, 95.0);
        assert_eq!(st.p99, 99.0);
        assert_eq!(st.max, 100.0);
        assert!((st.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_yield_none() {
        assert!(StretchStats::from_samples(vec![]).is_none());
    }

    #[test]
    fn single_sample() {
        let st = StretchStats::from_samples(vec![1.3]).unwrap();
        assert_eq!(st.p50, 1.3);
        assert_eq!(st.p99, 1.3);
        assert_eq!(st.max, 1.3);
    }

    #[test]
    fn trace_stretch_computation() {
        let trace = Trace {
            src: NodeId(0),
            dst: NodeId(2),
            steps: vec![
                TraceStep {
                    node: NodeId(0),
                    slice: 0,
                    edge: EdgeId(0),
                },
                TraceStep {
                    node: NodeId(1),
                    slice: 0,
                    edge: EdgeId(1),
                },
            ],
            last: NodeId(2),
        };
        let latencies = vec![2.0, 3.0];
        assert_eq!(latency_stretch(&trace, &latencies, 5.0), 1.0);
        assert_eq!(latency_stretch(&trace, &latencies, 2.5), 2.0);
        assert_eq!(hop_stretch(&trace, 1), 2.0);
    }

    #[test]
    fn base_slice_has_unit_latency_stretch() {
        // Slice 0 = base weights; since our latencies equal weights in the
        // generated topology, slice-0 stretch is exactly 1 for every pair.
        let topo = abilene();
        let g = topo.graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 4);
        let lat = topo.latencies();
        let per_slice = per_slice_stretch(&sp, &g, &lat);
        assert_eq!(per_slice.len(), 3);
        let s0 = StretchStats::from_samples(per_slice[0].clone()).unwrap();
        // Base weights are distance/100 and latency distance-derived, so
        // the weight-shortest path is also latency-shortest: stretch ~1.
        // (Equal only up to weight/latency proportionality; both are
        // monotone in distance here.)
        assert!(s0.max < 1.01, "slice-0 max stretch {}", s0.max);
        assert_eq!(s0.count, 11 * 10);
    }

    #[test]
    fn perturbed_slices_have_bounded_stretch() {
        let topo = abilene();
        let g = topo.graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 4);
        let lat = topo.latencies();
        let per_slice = per_slice_stretch(&sp, &g, &lat);
        for (i, samples) in per_slice.iter().enumerate() {
            let st = StretchStats::from_samples(samples.clone()).unwrap();
            assert!(st.mean >= 0.99, "slice {i} mean {}", st.mean);
            // Weight(0,3) perturbation keeps weights within 4x, so no path
            // can stretch beyond 4x in weight terms; latency tracks weight.
            assert!(st.max <= 4.0 + 1e-9, "slice {i} max {}", st.max);
        }
    }

    #[test]
    fn base_path_metrics_work() {
        let topo = abilene();
        let g = topo.graph();
        let lat = topo.latencies();
        let (l, h) = base_path_metrics(&g, &lat, NodeId(0), NodeId(10)).unwrap();
        assert!(l > 0.0);
        assert!(h >= 1);
        assert!(base_path_metrics(&g, &lat, NodeId(3), NodeId(3)).is_some());
    }
}
