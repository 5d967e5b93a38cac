//! `splice-e2e`: one attributed end-to-end benchmark of the path-splicing
//! daemon pipeline — link event in, first packet on the repaired FIB out.
//!
//! The crate drives the shipped pipeline unchanged (`ControlPlane` +
//! `run_event_loop` + `SnapshotHub` + `run_live` + `BatchForwarder`, wired
//! as `spliced` wires them) and measures it from outside. See `README.md`
//! for the metric definitions and how the workloads separate the layers.

pub mod compare;
pub mod json;
mod layers;
pub mod oracle;
pub mod pacing;
pub mod pipeline;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;
