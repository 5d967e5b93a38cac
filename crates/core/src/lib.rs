//! # splice-core
//!
//! The path-splicing primitive (Motiwala, Feamster, Vempala): build `k`
//! routing slices from randomly perturbed link weights, expose them to
//! packets through a few opaque *forwarding bits*, and recover from
//! failures by changing those bits.
//!
//! ## The pieces, mapped to the paper
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1.1 link-weight perturbations (`L' = L + Weight(a,b,i,j)·Random(0,L)`) | [`perturb`] |
//! | §3.1.2 multiple routing instances → k forwarding tables | [`slices`] |
//! | §3.1 generalized: alternative slice constructions (trees, arc-disjoint) | [`strategy`] |
//! | §3.2 forwarding bits + Algorithm 1 | [`header`], [`forwarding`] |
//! | §3.2/§4.3 recovery by changing bits | [`recovery`] |
//! | §2 stretch metrics | [`stretch`] |
//! | Algorithm 1's `Hash(src, dst)` default slice | [`hash`] |
//! | §5 compressed single-counter encoding | [`header::CounterHeader`] |
//! | §3.1.2 operationally: the control plane as a live event-driven owner | [`control`] |
//!
//! ## Quick example
//!
//! ```
//! use splice_core::prelude::*;
//! use splice_graph::{EdgeMask, NodeId};
//! use splice_topology::abilene::abilene;
//!
//! let topo = abilene();
//! let g = topo.graph();
//! // Five slices: the base tree plus four degree-perturbed ones.
//! let cfg = SplicingConfig::degree_based(5, 0.0, 3.0);
//! let splicing = Splicing::build(&g, &cfg, 42);
//!
//! // All links up: slice 0 forwards along plain shortest paths.
//! let mask = EdgeMask::all_up(g.edge_count());
//! let fwd = Forwarder::new(&splicing, &mask);
//! let out = fwd.forward(
//!     NodeId(0),
//!     NodeId(10),
//!     ForwardingBits::stay_in_slice(0, splicing.k()),
//!     &ForwarderOptions::default(),
//! );
//! assert!(out.is_delivered());
//! ```

pub mod control;
pub mod coverage;
pub mod forwarding;
pub mod hash;
pub mod header;
pub mod mrc;
pub mod perturb;
pub mod recovery;
pub mod slices;
pub mod strategy;
pub mod stretch;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::control::{
        control_channel, fib_checksum, run_event_loop, ControlEvent, ControlHandle, ControlMsg,
        ControlPlane, ControlStats, EventLoopReport,
    };
    pub use crate::forwarding::{Forwarder, ForwarderOptions, ForwardingOutcome, Trace};
    pub use crate::header::ForwardingBits;
    pub use crate::perturb::{DegreeBased, Perturbation, Uniform};
    pub use crate::recovery::{EndSystemRecovery, NetworkRecovery, RecoveryOutcome};
    pub use crate::slices::{RepairEvent, Splicing, SplicingConfig};
    pub use crate::strategy::{SliceStrategy, StrategyKind};
    pub use crate::stretch::StretchStats;
}

pub use prelude::*;
