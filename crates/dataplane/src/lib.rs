//! # splice-dataplane
//!
//! A packet-level data plane for path splicing.
//!
//! `splice-core` forwards abstract "packets" (just `(src, dst, header)`
//! triples); this crate runs the same Algorithm 1 over *wire-encoded*
//! packets and router objects, the way the paper's §3.2 describes the
//! mechanism deploying: a shim header between the network and transport
//! headers, routers that read and shift the forwarding bits, and legacy
//! routers that ignore the shim entirely and forward on the destination
//! address.
//!
//! * [`packet`] — the wire format: a compact IPv4-like network header, the
//!   splicing shim, and an opaque payload (`bytes`-backed).
//! * [`router`] — one router: k FIBs plus the per-packet pipeline
//!   (parse → pick slice → look up → TTL → re-serialize). Routers can be
//!   configured splicing-capable or legacy, and with local network-based
//!   recovery on or off.
//! * [`network`] — a simulated network of routers and links with failure
//!   injection (including mid-flight flaps) and full delivery traces.
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
//! * [`telemetry`] — the aggregate counter set networks report into
//!   ([`NetTelemetry`]), batch-forwarding throughput/latency metrics
//!   ([`ForwardTelemetry`]), and the JSONL serialization of packet
//!   walks.

pub mod batch;
pub mod network;
pub mod packet;
pub mod router;
pub mod shard;
pub mod telemetry;
pub mod walk;

pub use batch::{BatchForwarder, BatchStats, LaneStamps};
pub use network::{DeliveryReport, LinkEvent, RouterStats, SimNetwork};
pub use packet::{Packet, SPLICE_PROTO};
pub use router::{Router, RouterAction, RouterConfig};
pub use shard::{run_live, LiveShardReport};
pub use telemetry::{drop_reason_label, report_to_json, ForwardTelemetry, NetTelemetry};
pub use walk::{
    fold_outcomes_checksum, outcomes_checksum, scalar_walk, PathHasher, WalkClass, WalkOutcome,
    NO_SLICE,
};
