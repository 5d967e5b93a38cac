//! Telemetry must be observation-only: an instrumented run produces
//! bit-identical results to a plain run. (That the thread count never
//! changes what a trial computes is `parallel::tests::explicit_thread_counts_agree`.)

use splice_core::prelude::*;
use splice_graph::Rng;
use splice_sim::parallel::run_trials;
use splice_sim::recovery::{recovery_experiment, RecoveryConfig, RecoveryScheme};
use splice_sim::reliability::{reliability_experiment, ReliabilityConfig, SpliceSemantics};
use splice_sim::telemetry::{ExperimentTelemetry, TrialTelemetry};
use splice_telemetry::Registry;
use splice_topology::abilene::abilene;

#[test]
fn telemetry_does_not_change_trial_results() {
    let job = |_: usize, seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        (0..32).map(|_| rng.next_u64()).collect::<Vec<u64>>()
    };
    let baseline = run_trials(40, 17, 0, None, job);
    let reg = Registry::new();
    let tel = TrialTelemetry::register(&reg);
    assert_eq!(
        run_trials(40, 17, 0, Some(&tel), job),
        baseline,
        "instrumentation changed trial results"
    );
    assert_eq!(tel.trial_seconds.count(), 40);
}

fn quick_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        ks: vec![1, 3],
        ps: vec![0.05, 0.1],
        trials: 24,
        splicing: SplicingConfig::degree_based(3, 0.0, 3.0),
        semantics: SpliceSemantics::UnionGraph,
        seed: 99,
    }
}

#[test]
fn reliability_curves_unchanged_by_telemetry() {
    let g = abilene().graph();
    let plain = reliability_experiment(&g, &quick_reliability(), None);
    let reg = Registry::new();
    let tel = ExperimentTelemetry::register(&reg);
    let instrumented = reliability_experiment(&g, &quick_reliability(), Some(&tel));
    for (a, b) in plain.curves.iter().zip(&instrumented.curves) {
        assert_eq!(a.points, b.points, "curve {} changed", a.label);
    }
    assert_eq!(
        plain.best_possible.points,
        instrumented.best_possible.points
    );
    // One trial observation per trial, one fused SPF+FIB observation per
    // slice built (kmax = 3 slices per trial), and one arena-size
    // observation per splicing build.
    assert_eq!(tel.trials.trial_seconds.count(), 24);
    assert_eq!(tel.spf.spf_seconds.count(), 24 * 3);
    assert_eq!(tel.spf.arena_bytes.count(), 24);
}

#[test]
fn recovery_curves_unchanged_by_telemetry() {
    let topo = abilene();
    let g = topo.graph();
    let cfg = RecoveryConfig {
        ks: vec![3],
        ps: vec![0.06],
        trials: 10,
        splicing: SplicingConfig::degree_based(3, 0.0, 3.0),
        scheme: RecoveryScheme::EndSystem(EndSystemRecovery::default()),
        semantics: SpliceSemantics::UnionGraph,
        seed: 4,
    };
    let plain = recovery_experiment(&g, &topo.latencies(), &cfg, None);
    let reg = Registry::new();
    let tel = ExperimentTelemetry::register(&reg);
    let instrumented = recovery_experiment(&g, &topo.latencies(), &cfg, Some(&tel));
    assert_eq!(plain.no_splicing.points, instrumented.no_splicing.points);
    assert_eq!(plain.stats, instrumented.stats);
    for (a, b) in plain.recovery.iter().zip(&instrumented.recovery) {
        assert_eq!(a.points, b.points);
    }
    for (a, b) in plain.reliability.iter().zip(&instrumented.reliability) {
        assert_eq!(a.points, b.points);
    }
    assert_eq!(tel.trials.trial_seconds.count(), 10);
}
