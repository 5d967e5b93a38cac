//! # splice-dataplane
//!
//! The burst-forwarding data plane for path splicing, and what a data
//! plane reports.
//!
//! `splice-core` walks one packet at a time and records the full trace
//! (`core::forwarding`, the one hop loop, in-network deflection
//! included); this crate forwards *bursts* over published FIB snapshots
//! and turns finished walks into counters and trace lines.
//!
//! * [`walk`] — the shared walk-outcome shape every forwarding engine
//!   reduces to ([`WalkOutcome`]), plus the one-at-a-time scalar
//!   reference walk the batch engine is measured against.
//! * [`batch`] — the struct-of-arrays packet-burst engine
//!   ([`BatchForwarder`]): parallel per-packet lanes over one FIB
//!   snapshot, pooled loop-stamp tables, no per-packet allocation.
//! * [`shard`] — per-core sharded batch workers on crossbeam scoped
//!   threads ([`run_live`]): fed per-`(shard, burst)`, each worker
//!   subscribes to a [`SnapshotHub`](splice_routing::SnapshotHub) and
//!   follows published epochs until its feed runs dry or a stop flag is
//!   raised.
//! * [`telemetry`] — what a finished `ForwardingOutcome` reports:
//!   per-router counters ([`RouterStats`]), the aggregate counter set
//!   ([`NetTelemetry`]) and the JSONL walk line ([`walk_to_json`]); plus
//!   batch-forwarding throughput/latency metrics ([`ForwardTelemetry`]).

pub mod batch;
pub mod shard;
pub mod telemetry;
pub mod walk;

pub use batch::{BatchForwarder, BatchStats, LaneStamps};
pub use shard::{run_live, LiveShardReport};
pub use telemetry::{drop_reason_label, walk_to_json, ForwardTelemetry, NetTelemetry, RouterStats};
pub use walk::{
    fold_outcomes_checksum, outcomes_checksum, scalar_walk, PathHasher, WalkClass, WalkOutcome,
    NO_SLICE,
};
