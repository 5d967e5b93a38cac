//! # splice-traffic
//!
//! The traffic-engineering side of path splicing (§5 of the paper).
//!
//! The paper raises three traffic questions and leaves them as future
//! work; this crate builds the experiments:
//!
//! * **"Automatic" load balancing** ([`load`]): when sources pick their
//!   initial slice by flow hash (Algorithm 1's default branch), traffic
//!   spreads over k trees even with no failures. We compare link
//!   utilization under single shortest-path routing, hash-spread
//!   splicing, and explicit multipath splitting.
//! * **Selfish-routing shifts** ([`shift`]): when a link fails and every
//!   affected flow re-routes via splicing, how much load lands on the
//!   busiest surviving link?
//! * **Capacity** ([`capacity`]): §5 suggests splicing bits could let end
//!   hosts "achieve throughput that approaches the capacity of the
//!   underlying graph"; we measure the arc-disjoint paths the slices'
//!   successor graphs offer against the full graph's s–t max-flow.
//!
//! Demands come from a gravity-model [`matrix::TrafficMatrix`].
//!
//! A fourth, engine-facing piece rides along: [`flows`] generates the
//! seeded, Zipf-skewed, per-shard-deterministic packet streams the
//! batch forwarding engine and its differential oracle consume.

pub mod capacity;
pub mod flows;
pub mod load;
pub mod matrix;
pub mod shift;

pub use flows::{FlowConfig, FlowGen, FlowStream};
pub use load::{LoadReport, RoutingMode};
pub use matrix::TrafficMatrix;
