//! splice-testkit: deterministic fault-injection harness with
//! differential oracles and scenario shrinking.
//!
//! The testkit replays a [`Scenario`] — a topology plus a schedule of
//! failure/reweight/recovery events — simultaneously through the
//! production stack (`Splicing::repair` feeding the spliced-FIB arena
//! and `Forwarder`) and through independent reference oracles
//! (from-scratch masked Dijkstra, Bellman–Ford, a naive
//! forwarding-bits walker), and fails on the first divergence in
//! distances, parents, next hops, walk outcomes, or paper invariants
//! (loop-freedom under `NoRevisit`, the `BoundedSwitches` cap, the
//! Theorem A.1 stretch bound).
//!
//! Every scenario round-trips through a one-line seed-spec
//! (`rand-8-12-99/k3d/s7/f4+n1`), so a failure found anywhere — a soak
//! run, CI, a property test — is replayed with
//! `splice testkit replay <spec>`. Failing scenarios are shrunk
//! ([`shrink`]) to a minimal reproduction before being reported.
//!
//! The crate also exports the workspace's shared proptest
//! [`strategies`], so the per-crate property suites draw their random
//! graphs and masks from one place.

pub mod check;
pub mod daemon;
pub mod forward_oracle;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod shrink;
pub mod strategies;

pub use check::{flight_tail, replay, Divergence, ReplayOptions, ReplayReport};
pub use daemon::{daemon_replay, to_control_event, DaemonReplayReport};
pub use forward_oracle::{forward_oracle, ForwardOracleOptions, ForwardOracleReport};
pub use oracle::{naive_walk, outcome_signature, OracleTables};
pub use scenario::{derive_seed, EventSpec, PerturbationSpec, Scenario, TopologySpec};
pub use schedule::{apply_batches, churn_schedule, schedule_to_batches};
pub use shrink::{shrink, ShrinkResult};
