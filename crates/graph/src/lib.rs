//! # splice-graph
//!
//! Graph algorithms substrate for the path-splicing reproduction.
//!
//! This crate provides everything path splicing needs from graph theory,
//! implemented from scratch:
//!
//! * [`Graph`] — a weighted undirected multigraph with stable node and edge
//!   identifiers, built for repeated shortest-path computations under
//!   *externally supplied* weight vectors (so perturbed link weights never
//!   require copying the graph).
//! * [`mod@dijkstra`] — shortest-path trees ([`Spt`]) rooted at a destination,
//!   with support for masking failed edges.
//! * [`bellman_ford`] — a simple oracle used to cross-check Dijkstra in
//!   tests and to support negative-weight sanity checks.
//! * [`traversal`] — BFS/DFS reachability, connected components, and
//!   reachability under an [`EdgeMask`] of failed links.
//! * [`mincut`] — Stoer–Wagner global minimum cut (the "best possible"
//!   disconnection bound of the paper is a cut event).
//! * [`maxflow`] — Dinic's algorithm for s–t edge connectivity and counting
//!   edge-disjoint paths (used by the Theorem A.1 scaling experiments).
//! * [`unionfind`] — disjoint sets, used for fast connectivity under bulk
//!   edge failures.
//! * [`spanning`] — uniform random spanning trees (Wilson's walk) and a
//!   low-stretch SPT proxy, the substrate of the tree-based splicers.
//! * [`failover`] — greedy per-destination arc-disjoint routes, the
//!   static-failover baseline strategy.
//!
//! ## Design notes
//!
//! Node and edge identifiers are dense `u32` indices wrapped in newtypes
//! ([`NodeId`], [`EdgeId`]). All algorithms take `&[f64]` weight slices
//! indexed by `EdgeId`, because path splicing's whole premise is running
//! many routing instances over *one* topology with *different* weights.
//! Failure scenarios are expressed as an [`EdgeMask`] bitset rather than
//! graph mutation, so Monte-Carlo trials never rebuild adjacency.

pub mod bellman_ford;
pub mod dijkstra;
pub mod failover;
pub mod graph;
pub mod ids;
pub mod mask;
pub mod maxflow;
pub mod mincut;
pub mod paths;
pub mod spanning;
pub mod spt;
pub mod traversal;
pub mod unionfind;
pub mod yen;

pub use crate::graph::{Edge, Graph, GraphBuilder};
pub use dijkstra::{dijkstra, dijkstra_masked, validate_weights, SpfWorkspace, WeightError};
pub use failover::{arc_disjoint_parents, arc_diverse_parents};
pub use ids::{EdgeId, NodeId};
pub use mask::EdgeMask;
pub use paths::Path;
pub use spanning::{low_stretch_forest, random_spanning_forest, RootedForest};
pub use spt::Spt;
pub use unionfind::UnionFind;
