//! Experiment instrumentation: trial timing, throughput, heartbeats.
//!
//! Telemetry here is strictly observational. Trial seeding, RNG streams
//! and result ordering are untouched, so an instrumented run produces
//! bit-identical curves to a plain one — `tests/determinism.rs` holds
//! that property across thread counts.

use splice_routing::spf::SpfTelemetry;
use splice_telemetry::{series, Histogram, Registry};
use std::sync::Arc;

/// Handles the Monte-Carlo driver records into: one histogram sample per
/// finished trial, so the histogram's count is the trials completed.
#[derive(Clone, Debug)]
pub struct TrialTelemetry {
    /// Wall time of one full trial closure.
    pub trial_seconds: Arc<Histogram>,
    /// Print a stderr progress line every this many trials (off = never).
    pub heartbeat_every: Option<u64>,
}

impl TrialTelemetry {
    /// Register (or re-acquire) the trial metrics in `registry`.
    pub fn register(registry: &Registry) -> TrialTelemetry {
        TrialTelemetry {
            trial_seconds: registry.histogram(&series::TRIAL_DURATION_SECONDS, None),
            heartbeat_every: None,
        }
    }

    /// Enable the stderr heartbeat: a `done/total (rate/s)` line every
    /// `every` trials (clamped to at least 1).
    pub fn with_heartbeat(mut self, every: u64) -> TrialTelemetry {
        self.heartbeat_every = Some(every.max(1));
        self
    }
}

/// Everything one experiment run records: per-trial wall times plus the
/// SPF/FIB build histograms the control plane fills in.
#[derive(Clone, Debug)]
pub struct ExperimentTelemetry {
    /// Per-slice SPF and FIB-build timing (control plane).
    pub spf: SpfTelemetry,
    /// Per-trial timing and throughput (Monte-Carlo driver).
    pub trials: TrialTelemetry,
}

impl ExperimentTelemetry {
    /// Register (or re-acquire) the full experiment metric set.
    pub fn register(registry: &Registry) -> ExperimentTelemetry {
        ExperimentTelemetry {
            spf: SpfTelemetry::register(registry),
            trials: TrialTelemetry::register(registry),
        }
    }

    /// Like [`ExperimentTelemetry::register`], but the SPF arena-size and
    /// repair histograms carry `strategy` as a label (see
    /// [`SpfTelemetry::register_for_strategy`]), so one registry can hold
    /// several strategies' control-plane metrics side by side.
    pub fn register_for_strategy(registry: &Registry, strategy: &str) -> ExperimentTelemetry {
        ExperimentTelemetry {
            spf: SpfTelemetry::register_for_strategy(registry, strategy),
            trials: TrialTelemetry::register(registry),
        }
    }

    /// Enable the trial heartbeat (see [`TrialTelemetry::with_heartbeat`]).
    pub fn with_heartbeat(mut self, every: u64) -> ExperimentTelemetry {
        self.trials = self.trials.with_heartbeat(every);
        self
    }

    /// Attach a flight recorder: repair triggers and per-plane repairs
    /// land in it alongside the histograms (see
    /// [`SpfTelemetry::with_flight`]).
    pub fn with_flight(mut self, flight: splice_telemetry::FlightRecorder) -> ExperimentTelemetry {
        self.spf = self.spf.with_flight(flight);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_trial_metrics() {
        let reg = Registry::new();
        let tel = TrialTelemetry::register(&reg);
        tel.trial_seconds.record(1_000_000); // 1 ms in ns
        let text = reg.render_prometheus();
        assert!(text.contains("splice_trial_duration_seconds_count 1"));
        assert!(tel.heartbeat_every.is_none(), "heartbeat is opt-in");
    }

    #[test]
    fn heartbeat_clamps_to_one() {
        let reg = Registry::new();
        let tel = TrialTelemetry::register(&reg).with_heartbeat(0);
        assert_eq!(tel.heartbeat_every, Some(1));
    }

    #[test]
    fn experiment_bundle_shares_the_registry() {
        let reg = Registry::new();
        let a = ExperimentTelemetry::register(&reg);
        let b = ExperimentTelemetry::register(&reg);
        a.trials.trial_seconds.record(10);
        assert_eq!(b.trials.trial_seconds.count(), 1);
        a.spf.spf_seconds.record(10);
        assert_eq!(b.spf.spf_seconds.count(), 1);
    }
}
