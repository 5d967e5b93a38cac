//! Multi-topology routing: k independent instances over one topology.
//!
//! This is the deployment vehicle the paper names (§3.1.2: Cisco MTR /
//! RFC 4915): one physical network, k logical topologies, each with its
//! own weights, LSAs, SPF runs and FIBs. The [`ResourceUsage`] accounting
//! produced here is what substantiates §4.2's claim that splicing costs
//! grow *linearly* in k while path diversity grows exponentially.

use crate::arena::SpliceFib;
use crate::flooding::converge_instance;
use crate::spf::spf_fill_arena;
use splice_graph::dijkstra::SpfWorkspace;
use splice_graph::{Graph, NodeId};

/// k routing instances converged over one topology.
#[derive(Clone, Debug)]
pub struct MultiTopology {
    /// Per-instance weight vectors (index = instance / slice id).
    pub weights: Vec<Vec<f64>>,
    /// All instances' forwarding state: plane `i` is instance `i`'s
    /// tables.
    pub fib: SpliceFib,
    /// Control-plane cost of converging all instances from scratch.
    pub usage: ResourceUsage,
}

/// Control-plane resource accounting for a converged multi-topology
/// deployment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResourceUsage {
    /// Total LSA transmissions across all instances.
    pub messages: usize,
    /// Total LSA bytes across all instances.
    pub bytes: usize,
    /// Total installed FIB entries across all routers and instances.
    pub fib_entries: usize,
    /// Total LSDB entries (LSAs stored) at one router, across instances.
    pub lsdb_entries: usize,
    /// SPF runs performed (n destinations × k instances).
    pub spf_runs: usize,
}

impl MultiTopology {
    /// Converge `k` instances, one per weight vector, running the full
    /// flooding protocol for each (so message accounting is measured, not
    /// estimated). Each plane is filled from the weights router 0's
    /// converged database reconstructs
    /// ([`crate::lsdb::LinkStateDb::instance_weights`]), not from
    /// `weight_vectors` directly.
    pub fn converge(g: &Graph, weight_vectors: Vec<Vec<f64>>) -> MultiTopology {
        let k = weight_vectors.len();
        let mut usage = ResourceUsage::default();
        let mut fib = SpliceFib::empty(k, g.node_count());
        let mut ws = SpfWorkspace::new();
        for (instance, w) in weight_vectors.iter().enumerate() {
            assert_eq!(w.len(), g.edge_count(), "instance {instance} weight length");
            let (dbs, stats) = converge_instance(g, instance, w, 1);
            usage.messages += stats.messages;
            usage.bytes += stats.bytes;
            usage.lsdb_entries += dbs[0].len();
            let learned = dbs[0].instance_weights(g, instance);
            spf_fill_arena(g, &learned, &mut fib, instance, &mut ws, None);
            usage.spf_runs += g.node_count();
        }
        usage.fib_entries = fib.installed(k);
        MultiTopology {
            weights: weight_vectors,
            fib,
            usage,
        }
    }

    /// Number of instances (slices).
    pub fn k(&self) -> usize {
        self.fib.k()
    }

    /// Next hop of `router` toward `dst` in `slice`.
    #[inline]
    pub fn next_hop(&self, slice: usize, router: NodeId, dst: NodeId) -> Option<NodeId> {
        self.fib.lookup(slice, router, dst).map(|(nh, _)| nh)
    }

    /// The successor sets toward `dst`: `succ[u]` = the distinct next hops
    /// node `u` has across all slices. This directed structure is what
    /// splicing reachability is computed on.
    pub fn successors_toward(&self, dst: NodeId, n: usize) -> Vec<Vec<NodeId>> {
        let mut succ = vec![Vec::new(); n];
        for slice in 0..self.k() {
            for (u, s) in succ.iter_mut().enumerate() {
                if let Some(nh) = self.next_hop(slice, NodeId(u as u32), dst) {
                    if !s.contains(&nh) {
                        s.push(nh);
                    }
                }
            }
        }
        succ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_graph::graph::from_edges;

    fn diamond() -> Graph {
        from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)])
    }

    #[test]
    fn k_instances_with_distinct_routes() {
        let g = diamond();
        let w1 = g.base_weights(); // 0->3 via 1
        let w2 = vec![1.0, 10.0, 2.0, 2.0]; // 0->3 via 2
        let mt = MultiTopology::converge(&g, vec![w1, w2]);
        assert_eq!(mt.k(), 2);
        assert_eq!(mt.next_hop(0, NodeId(0), NodeId(3)), Some(NodeId(1)));
        assert_eq!(mt.next_hop(1, NodeId(0), NodeId(3)), Some(NodeId(2)));
    }

    #[test]
    fn successor_sets_union_slices() {
        let g = diamond();
        let w1 = g.base_weights();
        let w2 = vec![1.0, 10.0, 2.0, 2.0];
        let mt = MultiTopology::converge(&g, vec![w1, w2]);
        let succ = mt.successors_toward(NodeId(3), 4);
        let mut s0 = succ[0].clone();
        s0.sort();
        assert_eq!(s0, vec![NodeId(1), NodeId(2)]); // both slices' hops
        assert!(succ[3].is_empty()); // destination has no successor
    }

    #[test]
    fn resource_usage_is_linear_in_k() {
        let g = diamond();
        let mk = |k: usize| MultiTopology::converge(&g, (0..k).map(|_| g.base_weights()).collect());
        let (u1, u2, u4) = (mk(1).usage, mk(2).usage, mk(4).usage);
        assert_eq!(u2.messages, 2 * u1.messages);
        assert_eq!(u4.messages, 4 * u1.messages);
        assert_eq!(u2.fib_entries, 2 * u1.fib_entries);
        assert_eq!(u4.fib_entries, 4 * u1.fib_entries);
        assert_eq!(u2.lsdb_entries, 2 * u1.lsdb_entries);
        assert_eq!(u4.spf_runs, 4 * u1.spf_runs);
    }

    #[test]
    #[should_panic(expected = "weight length")]
    fn wrong_weight_vector_rejected() {
        let g = diamond();
        MultiTopology::converge(&g, vec![vec![1.0]]);
    }
}
