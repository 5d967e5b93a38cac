//! # splice-routing
//!
//! A link-state routing-protocol simulator: the substrate path splicing
//! composes.
//!
//! Path splicing's control plane "runs multiple routing protocol
//! instances, each with slightly different link weights" (§3.1.2), relying
//! on multi-topology routing for deployment. This crate models that layer
//! faithfully enough to account for the paper's scalability claim (§4.2:
//! state, convergence and message complexity grow *linearly* in the number
//! of slices k):
//!
//! * [`lsa`] — link-state advertisements, one per router, versioned by
//!   sequence number.
//! * [`lsdb`] — the per-router link-state database with freshness rules.
//! * [`flooding`] — reliable flooding over the topology, counting every
//!   LSA transmission so message complexity can be measured rather than
//!   asserted.
//! * [`spf`] — shortest-path-first computation from a weight vector
//!   (for the protocol simulator, the one a synchronized LSDB
//!   reconstructs) into an arena plane, with optional timing.
//! * [`arena`] — the flat spliced-FIB arena packing all k slices'
//!   forwarding state into one contiguous slab: the only table type,
//!   the object Algorithm 1's `Lookup(dst, slice)` consults, and its
//!   byte size is the measured §4.2 state-size accounting.
//! * [`multitopology`] — RFC 4915-style multi-topology routing hosting k
//!   independent instances over one physical topology; this is the
//!   deployment vehicle the paper names (Cisco MTR) and the unit whose
//!   state/message accounting backs Figure-free claim §4.2.
//! * [`dynamics`] — the old/new mixed-table timeline while the protocol
//!   reconverges after a failure.
//! * [`snapshot`] — the control-plane → data-plane hand-off: one
//!   versioned cell holding the current `(epoch, arena)` pair, and the
//!   cursor a forwarding worker keeps on it.

pub mod arena;
pub mod dynamics;
pub mod ecmp;
pub mod flooding;
pub mod lsa;
pub mod lsdb;
pub mod multitopology;
pub mod snapshot;
pub mod spf;

pub use arena::{Plane, PlaneMut, RepairStats, SpliceFib, NO_ROUTE};
pub use lsa::LinkStateAd;
pub use lsdb::LinkStateDb;
pub use multitopology::{MultiTopology, ResourceUsage};
pub use snapshot::{SnapshotFeed, SnapshotHub, SnapshotUpdate};
