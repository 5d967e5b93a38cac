//! # path-splicing
//!
//! Facade crate for the Path Splicing reproduction (Motiwala, Feamster,
//! Vempala — *Path Splicing: Reliable Connectivity with Rapid Recovery*).
//!
//! This crate re-exports the workspace's public API under stable module
//! names so that downstream users depend on a single crate:
//!
//! ```
//! use path_splicing::graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new().with_nodes(2);
//! b.add_edge(NodeId(0), NodeId(1), 1.0);
//! let g = b.build();
//! assert_eq!(g.edge_count(), 1);
//! ```
//!
//! See the `examples/` directory for end-to-end usage: building slices
//! from an ISP topology, forwarding packets with splicing headers, and
//! recovering from link failures.

/// Interdomain (BGP) splicing extension (re-export of `splice-bgp`).
pub use splice_bgp as bgp;
/// The path-splicing primitive itself (re-export of `splice-core`).
pub use splice_core as splicing;
/// Burst-forwarding data plane and walk telemetry (re-export of `splice-dataplane`).
pub use splice_dataplane as dataplane;
/// Graph algorithms substrate (re-export of `splice-graph`).
pub use splice_graph as graph;
/// Overlay-routing application (re-export of `splice-overlay`).
pub use splice_overlay as overlay;
/// Routing substrate: FIB arena, repair, flood counts (re-export of `splice-routing`).
pub use splice_routing as routing;
/// Monte-Carlo evaluation engine (re-export of `splice-sim`).
pub use splice_sim as sim;
/// ISP topologies, generators, and parsers (re-export of `splice-topology`).
pub use splice_topology as topology;
/// Traffic-engineering extension (re-export of `splice-traffic`).
pub use splice_traffic as traffic;
