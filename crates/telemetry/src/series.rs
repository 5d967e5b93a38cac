//! The series table: every metric the workspace exports, stated once.
//!
//! Each row is a [`Series`] — name, help text, [`Kind`] and label key —
//! and every registrar in the workspace registers through its row
//! ([`Registry::counter`], [`Registry::histogram`]), so no series name
//! is spelled anywhere else. The line above each row names its reader:
//! a CI grep, a printed line, a doc section, or a test of a system
//! property. A series without one is deleted, not added.
//!
//! `splice`'s `series_table_is_what_the_registrars_register` test builds
//! one registry through every registrar and checks its families against
//! [`SERIES`]; `readme_metric_table_names_series` checks README.md's
//! metric table against it.
//!
//! [`Registry::counter`]: crate::Registry::counter
//! [`Registry::histogram`]: crate::Registry::histogram

/// What a series records, and how it is exposed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// A monotonic [`Counter`](crate::Counter).
    Counter,
    /// A log2 [`Histogram`](crate::Histogram) whose recorded integers are
    /// multiplied by `scale` on exposition: 1 for raw values, 1e-9 for
    /// durations recorded in nanoseconds and exposed in seconds.
    Histogram {
        /// Exposition multiplier of a recorded value.
        scale: f64,
    },
}

/// Durations are recorded in nanoseconds and exposed in seconds, the
/// Prometheus convention for `*_seconds` histograms.
const SECONDS: Kind = Kind::Histogram { scale: 1e-9 };

/// One row of [`SERIES`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Series {
    /// Family name in the exposition.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Counter or histogram, with the histogram's exposition scale.
    pub kind: Kind,
    /// The one label key every member of the family carries, if any;
    /// its value is given at registration.
    pub label: Option<&'static str>,
}

/// README's metric table; the observe-smoke CI job greps its
/// `_quantile{quantile="0.99"}` gauge and its `# TYPE` line.
pub const SPF_SECONDS: Series = Series {
    name: "splice_spf_seconds",
    help: "Per-slice all-destinations shortest-path (Dijkstra) wall time",
    kind: SECONDS,
    label: None,
};

/// README's §4.2 state-size paragraph and DESIGN.md's arena section.
pub const FIB_ARENA_BYTES: Series = Series {
    name: "splice_fib_arena_bytes",
    help: "Flat spliced-FIB arena size in bytes, one observation per splicing build",
    kind: Kind::Histogram { scale: 1.0 },
    label: Some("strategy"),
};

/// README's metric table; the observe-smoke and spliced-smoke CI jobs
/// grep it.
pub const SPF_REPAIR_SECONDS: Series = Series {
    name: "splice_spf_repair_seconds",
    help: "Per-plane incremental SPF repair wall time",
    kind: SECONDS,
    label: Some("strategy"),
};

/// DESIGN.md's delta-SPF section and EXPERIMENTS.md's repair notes: the
/// evidence that a repair touches a small frontier.
pub const SPF_REPAIR_FRONTIER: Series = Series {
    name: "splice_spf_repair_frontier",
    help: "Re-relaxed nodes per repaired slice plane (repair frontier size)",
    kind: Kind::Histogram { scale: 1.0 },
    label: Some("strategy"),
};

/// README's metric table; its `_count` is the number of trials run,
/// which `crates/sim/tests/determinism.rs` checks.
pub const TRIAL_DURATION_SECONDS: Series = Series {
    name: "splice_trial_duration_seconds",
    help: "Wall time of one Monte-Carlo trial",
    kind: SECONDS,
    label: None,
};

/// Every run manifest (EXPERIMENTS.md's manifest section); the lab's
/// `deployment_fetches_are_spanned_into_the_flight_recorder` test.
pub const LAB_DEPLOYMENT_SECONDS: Series = Series {
    name: "splice_lab_deployment_seconds",
    help: "Deployment fetch (cache hit or slice build) wall time",
    kind: SECONDS,
    label: None,
};

/// Every run manifest (EXPERIMENTS.md's manifest section); the lab's
/// `listen_flag_serves_the_run_and_stamps_span_histograms` test.
pub const LAB_EXPERIMENT_SECONDS: Series = Series {
    name: "splice_lab_experiment_seconds",
    help: "Wall time of the experiment phase (excludes artifact writing)",
    kind: SECONDS,
    label: None,
};

/// `splice daemon`'s printed `event->FIB-visible p50 … p99` line and its
/// manifest; the spliced-smoke CI job greps it in `--metrics`.
pub const EVENT_VISIBLE_SECONDS: Series = Series {
    name: "spliced_event_visible_seconds",
    help: "Event enqueue to FIB-visible publish",
    kind: SECONDS,
    label: None,
};

/// README's metric table; `splice reliability`'s printed
/// `data-plane sample` line.
pub const PACKETS_FORWARDED: Series = Series {
    name: "splice_packets_forwarded_total",
    help: "Packets forwarded one hop by any router",
    kind: Kind::Counter,
    label: None,
};

/// README's metric table; `splice reliability`'s printed
/// `data-plane sample` line (its `dropped` count).
pub const PACKETS_DELIVERED: Series = Series {
    name: "splice_packets_delivered_total",
    help: "Packets delivered to their destination",
    kind: Kind::Counter,
    label: None,
};

/// README's metric table: the drop reasons.
pub const PACKETS_DROPPED: Series = Series {
    name: "splice_packets_dropped_total",
    help: "Packets dropped by the data plane, by reason",
    kind: Kind::Counter,
    label: Some("reason"),
};

/// README's metric table: §4.3's deflections; `splice reliability`'s
/// printed `data-plane sample` line.
pub const DEFLECTIONS: Series = Series {
    name: "splice_deflections_total",
    help: "Local network-based recovery deflections into an alternate slice",
    kind: Kind::Counter,
    label: None,
};

/// README's metric table.
pub const SLICE_SWITCHES: Series = Series {
    name: "splice_slice_switches_total",
    help: "Hops where a packet changed routing slice",
    kind: Kind::Counter,
    label: None,
};

/// `splice forward`'s printed `burst p50 … p99` line.
pub const FORWARD_BURST_SECONDS: Series = Series {
    name: "splice_forward_burst_seconds",
    help: "Wall time to drain one packet burst",
    kind: SECONDS,
    label: None,
};

/// Every series the workspace exports.
pub const SERIES: &[&Series] = &[
    &SPF_SECONDS,
    &FIB_ARENA_BYTES,
    &SPF_REPAIR_SECONDS,
    &SPF_REPAIR_FRONTIER,
    &TRIAL_DURATION_SECONDS,
    &LAB_DEPLOYMENT_SECONDS,
    &LAB_EXPERIMENT_SECONDS,
    &EVENT_VISIBLE_SECONDS,
    &PACKETS_FORWARDED,
    &PACKETS_DELIVERED,
    &PACKETS_DROPPED,
    &DEFLECTIONS,
    &SLICE_SWITCHES,
    &FORWARD_BURST_SECONDS,
];
