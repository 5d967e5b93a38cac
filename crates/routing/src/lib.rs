//! # splice-routing
//!
//! The routing layer path splicing composes: k slices' forwarding state,
//! how it is filled and repaired, and how it reaches the data plane.
//!
//! Path splicing's control plane "runs multiple routing protocol
//! instances, each with slightly different link weights" (§3.1.2), relying
//! on multi-topology routing for deployment. This crate holds what that
//! layer costs and produces, enough to account for the paper's
//! scalability claim (§4.2: state, convergence and message complexity
//! grow *linearly* in the number of slices k):
//!
//! * [`arena`] — the flat spliced-FIB arena packing all k slices'
//!   forwarding state into one contiguous slab: the only table type,
//!   the object Algorithm 1's `Lookup(dst, slice)` consults, and its
//!   byte size is the measured §4.2 state-size accounting. Its
//!   [`PlaneMut`] is the one write API for a slice plane: shortest-path
//!   fill from a weight vector and delta-SPF repair.
//! * [`spf`] — [`spf::SpfTelemetry`], the histograms and flight recorder
//!   that plane fills and repairs are observed into (by `splice-core`).
//! * [`ecmp`] — equal-cost multipath next-hop sets, the baseline
//!   splicing is compared against.
//! * [`dynamics`] — the convergence timing model (when each router
//!   installs its post-failure tables while the protocol reconverges)
//!   and [`dynamics::flood`], the LSA message and flood-round count
//!   behind §4.2's message account and §6's convergence window.
//! * [`snapshot`] — the control-plane → data-plane hand-off: one
//!   versioned cell holding the current `(epoch, arena)` pair, and the
//!   cursor a forwarding worker keeps on it.

pub mod arena;
pub mod dynamics;
pub mod ecmp;
pub mod snapshot;
pub mod spf;

pub use arena::{DistanceMemo, Plane, PlaneMut, RepairStats, SpliceFib, NO_ROUTE};
pub use snapshot::{SnapshotFeed, SnapshotHub, SnapshotUpdate};
