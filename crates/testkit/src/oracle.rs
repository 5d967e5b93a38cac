//! Independent reference implementations ("oracles") the production
//! stack is differentially tested against.
//!
//! Three oracles, deliberately small and dumb:
//!
//! * [`OracleTables`] — per-(slice, destination) *from-scratch* masked
//!   Dijkstra runs. The production arena is supposed to hold exactly
//!   these parents, whether it got there by full build, prefix view, or
//!   any stack of delta-SPF repairs.
//! * [`bellman_ford_masked`] cross-check — an O(N·M) algorithm with no
//!   heap, no tie-break, and no shared code with `SpfWorkspace`, pinning
//!   the distances themselves.
//! * [`naive_walk`] — a forwarding-bits walker written directly from
//!   Algorithm 1 over the oracle tables, mirroring the data-plane
//!   semantics (an exhausted header stays in its current slice) of
//!   `Forwarder::forward` without sharing any of its code.
//!
//! Beside them, [`memo_divergence`] checks a deployment's SPF distances
//! against the chain fold they stand in for.

use splice_core::forwarding::{ForwardingOutcome, Trace, TraceStep};
use splice_core::hash::slice_for_flow;
use splice_core::header::ForwardingBits;
use splice_core::slices::Splicing;
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId, SpfWorkspace};
use splice_routing::DistanceMemo;
use std::collections::HashSet;

/// A parent pointer: the neighbor one hop closer and the edge to it.
type NextHop = Option<(NodeId, EdgeId)>;

/// From-scratch shortest-path state for every (slice, destination):
/// `next[slice][dst][node]` and `dist[slice][dst][node]`.
pub struct OracleTables {
    /// Parent pointers toward each destination, per slice.
    pub next: Vec<Vec<Vec<NextHop>>>,
    /// Exact distances toward each destination, per slice.
    pub dist: Vec<Vec<Vec<f64>>>,
}

impl OracleTables {
    /// Run k·n fresh masked Dijkstras over `weights_per_slice`.
    pub fn build(g: &Graph, weights_per_slice: &[&[f64]], mask: &EdgeMask) -> OracleTables {
        let mut ws = SpfWorkspace::new();
        let mut next = Vec::with_capacity(weights_per_slice.len());
        let mut dist = Vec::with_capacity(weights_per_slice.len());
        for w in weights_per_slice {
            let mut slice_next = Vec::with_capacity(g.node_count());
            let mut slice_dist = Vec::with_capacity(g.node_count());
            for t in g.nodes() {
                ws.run(g, t, w, Some(mask));
                slice_next.push(ws.parents().to_vec());
                slice_dist.push(ws.distances().to_vec());
            }
            next.push(slice_next);
            dist.push(slice_dist);
        }
        OracleTables { next, dist }
    }

    /// The oracle's next hop for `(slice, node, dst)`.
    #[inline]
    pub fn next_hop(&self, slice: usize, node: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        self.next[slice][dst.index()][node.index()]
    }
}

/// Walk a packet over the *oracle* tables with the production data
/// plane's semantics: read a slice per hop, stay in the current slice
/// once the header is exhausted, detect deterministic periodicity by
/// (node, slice) revisit after exhaustion, and give up past `ttl` hops.
pub fn naive_walk(
    oracle: &OracleTables,
    k: usize,
    src: NodeId,
    dst: NodeId,
    mut header: ForwardingBits,
    ttl: usize,
) -> ForwardingOutcome {
    let mut current_slice = slice_for_flow(src, dst, k);
    let mut at = src;
    let mut steps = Vec::new();
    let mut exhausted_states: HashSet<(NodeId, usize)> = HashSet::new();
    while at != dst {
        if let Some(s) = header.read_and_shift(k) {
            current_slice = s;
        }
        let trace_here = |steps: Vec<TraceStep>| Trace {
            src,
            dst,
            steps,
            last: at,
        };
        if header.is_exhausted() && !exhausted_states.insert((at, current_slice)) {
            return ForwardingOutcome::PersistentLoop(trace_here(steps));
        }
        let Some((next, edge)) = oracle.next_hop(current_slice, at, dst) else {
            return ForwardingOutcome::DeadEnd(trace_here(steps));
        };
        steps.push(TraceStep {
            node: at,
            slice: current_slice,
            edge,
        });
        at = next;
        if steps.len() > ttl {
            return ForwardingOutcome::TtlExceeded(Trace {
                src,
                dst,
                steps,
                last: at,
            });
        }
    }
    ForwardingOutcome::Delivered(Trace {
        src,
        dst,
        steps,
        last: at,
    })
}

/// Render an outcome as a canonical comparison key: variant, endpoint,
/// and the full (node, slice, edge) step sequence. Two walks are "the
/// same" exactly when their signatures match.
pub fn outcome_signature(out: &ForwardingOutcome) -> String {
    let (name, trace) = match out {
        ForwardingOutcome::Delivered(t) => ("Delivered", t),
        ForwardingOutcome::DeadEnd(t) => ("DeadEnd", t),
        ForwardingOutcome::LinkDown { trace, slice } => {
            return format!(
                "LinkDown(slice={slice}) last={} steps={}",
                trace.last.index(),
                steps_signature(trace)
            );
        }
        ForwardingOutcome::PersistentLoop(t) => ("PersistentLoop", t),
        ForwardingOutcome::TtlExceeded(t) => ("TtlExceeded", t),
    };
    format!(
        "{name} last={} steps={}",
        trace.last.index(),
        steps_signature(trace)
    )
}

fn steps_signature(t: &Trace) -> String {
    let hops: Vec<String> = t
        .steps
        .iter()
        .map(|s| format!("{}:{}@{}", s.node.index(), s.slice, s.edge.index()))
        .collect();
    format!("[{}]", hops.join(","))
}

/// The first entry of `memo`'s first `sp.k()` planes that is not, bit
/// for bit, what folding `sp`'s installed parent chains under its weights
/// gives ([`SpfWorkspace::load_tree`]), described; `None` when every
/// column agrees. This is the invariant a deployment's distances
/// ([`Splicing::distances`]) must keep across every repair pass: each
/// pass loads them in place of exactly that fold.
pub fn memo_divergence(g: &Graph, sp: &Splicing, memo: &DistanceMemo) -> Option<String> {
    let mut ws = SpfWorkspace::new();
    for slice in 0..sp.k() {
        for t in g.nodes() {
            let dist = memo.column(slice, t);
            ws.load_tree(g, t, sp.weights(slice), |u| {
                sp.next_hop(slice, NodeId(u as u32), t)
            });
            let folded = ws.distances();
            if let Some(u) = (0..dist.len()).find(|&u| dist[u].to_bits() != folded[u].to_bits()) {
                return Some(format!(
                    "slice {slice} toward {t:?}: router {u} memo {:e} vs fold {:e}",
                    dist[u], folded[u]
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::forwarding::{Forwarder, ForwarderOptions};
    use splice_core::slices::{Splicing, SplicingConfig};
    use splice_graph::graph::from_edges;

    fn diamond() -> Graph {
        from_edges(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.5), (2, 3, 1.5)])
    }

    #[test]
    fn oracle_tables_match_clean_build() {
        let g = diamond();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 11);
        let mask = EdgeMask::all_up(g.edge_count());
        let weights: Vec<&[f64]> = (0..3).map(|s| sp.weights(s)).collect();
        let oracle = OracleTables::build(&g, &weights, &mask);
        for s in 0..3 {
            for u in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(sp.next_hop(s, u, t), oracle.next_hop(s, u, t));
                }
            }
        }
    }

    #[test]
    fn naive_walk_matches_production_forwarder() {
        let g = diamond();
        let k = 3;
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), 11);
        let mask = EdgeMask::all_up(g.edge_count());
        let weights: Vec<&[f64]> = (0..k).map(|s| sp.weights(s)).collect();
        let oracle = OracleTables::build(&g, &weights, &mask);
        let fwd = Forwarder::new(&sp, &mask);
        let opts = ForwarderOptions::default();
        for hops in [vec![], vec![1], vec![2, 0, 1], vec![0, 0, 2, 2, 1]] {
            for s in g.nodes() {
                for t in g.nodes() {
                    if s == t {
                        continue;
                    }
                    let h = ForwardingBits::from_hops(&hops, k);
                    let prod = fwd.forward(s, t, h, &opts);
                    let naive = naive_walk(&oracle, k, s, t, h, opts.ttl);
                    assert_eq!(outcome_signature(&prod), outcome_signature(&naive));
                }
            }
        }
    }
}
