//! # splice-telemetry
//!
//! Observability primitives for the path-splicing workspace: lock-free
//! [`Counter`]s, fixed-bucket log2 [`Histogram`]s (zero allocation on the
//! hot path, with p50/p90/p99 quantile estimates), a bounded
//! [`FlightRecorder`] keeping the last N structured events, a drift-free
//! [`Ticker`], a global-free [`Registry`] that snapshots everything to
//! Prometheus text exposition or JSON, and a thread-based scrape
//! endpoint ([`serve_with_router`]) exposing `/metrics`, `/healthz`, and
//! `/snapshot` over plain `std::net`.
//!
//! Every series the workspace exports is one row of [`SERIES`]: its
//! name, help text, kind and label key, and the reader that makes it
//! worth keeping. Registrars register through their row, never through
//! a name of their own.
//!
//! Design constraints, in order:
//!
//! 1. **Never perturb the experiment.** Recording is a handful of relaxed
//!    atomic adds; nothing here draws randomness, takes a lock on the hot
//!    path, or changes scheduling. Seeded Monte-Carlo runs are
//!    bit-identical with telemetry enabled or disabled (asserted by
//!    `splice-sim`'s determinism tests).
//! 2. **No globals.** A [`Registry`] is an explicit value; handles are
//!    cheap `Arc`s cloned out of it. Two experiments in one process
//!    cannot contaminate each other's numbers.
//! 3. **No dependencies.** Pure `std`, so the data plane can afford to
//!    link it everywhere.
//!
//! ```
//! use splice_telemetry::{series, Registry};
//! use std::time::Duration;
//!
//! let reg = Registry::new();
//! let forwarded = reg.counter(&series::PACKETS_FORWARDED, None);
//! let latency = reg.histogram(&series::TRIAL_DURATION_SECONDS, None);
//! forwarded.inc();
//! latency.record_duration(Duration::from_micros(250));
//! let text = reg.render_prometheus();
//! assert!(text.contains("splice_packets_forwarded_total 1"));
//! ```

pub mod counter;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod series;
pub mod serve;
pub mod timer;

pub use counter::Counter;
pub use flight::{FlightEvent, FlightRecorder, RecordedEvent};
pub use histogram::{Histogram, NUM_BUCKETS};
pub use json::{JsonArray, JsonObject};
pub use registry::Registry;
pub use series::{Series, SERIES};
pub use serve::{serve_with_router, AdminRequest, AdminResponse, MetricsServer, Router};
pub use timer::Ticker;
