//! The recovery experiments (Figures 4 and 5, §4.3).
//!
//! Per trial: draw a failure set; every ordered pair whose default
//! (slice-0) path crosses a failed link attempts recovery. A pair counts
//! as *recovered* if the scheme delivers within its budget (≤ 5 random
//! headers for end-system recovery; one deflected walk for network-based
//! recovery). Plotted per `k`:
//!
//! * `k = 1 (no splicing)` — pairs with a broken default path;
//! * `k (recovery)` — pairs still undelivered after recovery;
//! * `k (reliability)` — pairs with no spliced path at all (the bound
//!   recovery is converging to).
//!
//! Alongside the curves, the §4.3 aggregates are collected: average
//! trials to recover, latency stretch, hop stretch, and the §4.4 loop
//! frequencies.

use crate::failure::FailureModel;
use crate::parallel::run_trials_instrumented;
use crate::stats::Series;
use crate::telemetry::ExperimentTelemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splice_core::prelude::*;
use splice_core::slices::SplicingConfig;
use splice_graph::{dijkstra, Graph};

/// Which recovery scheme the experiment exercises.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryScheme {
    /// Figure 4: end-system header re-randomization.
    EndSystem(EndSystemRecovery),
    /// Figure 5: in-network deflection.
    Network(NetworkRecovery),
}

/// Configuration of a recovery run.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Slice counts with recovery (the paper plots 3 and 5).
    pub ks: Vec<usize>,
    /// Failure probabilities.
    pub ps: Vec<f64>,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Slice construction; `k` is overridden by `max(ks)`.
    pub splicing: SplicingConfig,
    /// The scheme under test.
    pub scheme: RecoveryScheme,
    /// Semantics used for the "(reliability)" bound curves (the paper's
    /// union-graph accounting by default; recovery itself always runs on
    /// the real directed data plane).
    pub semantics: crate::reliability::SpliceSemantics,
    /// Base seed.
    pub seed: u64,
}

impl RecoveryConfig {
    /// Figure 4's setup: end-system recovery, k ∈ {3, 5}.
    pub fn figure4(trials: usize, seed: u64) -> RecoveryConfig {
        RecoveryConfig {
            ks: vec![3, 5],
            ps: (1..=10).map(|i| i as f64 * 0.01).collect(),
            trials,
            splicing: SplicingConfig::degree_based(5, 0.0, 3.0),
            scheme: RecoveryScheme::EndSystem(EndSystemRecovery::default()),
            semantics: crate::reliability::SpliceSemantics::UnionGraph,
            seed,
        }
    }

    /// Figure 5's setup: network-based recovery, k ∈ {3, 5}.
    pub fn figure5(trials: usize, seed: u64) -> RecoveryConfig {
        RecoveryConfig {
            scheme: RecoveryScheme::Network(NetworkRecovery::default()),
            ..RecoveryConfig::figure4(trials, seed)
        }
    }
}

/// §4.3/§4.4 aggregates for one `k`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KRecoveryStats {
    /// The slice count these stats describe.
    pub k: usize,
    /// Broken pairs that attempted recovery.
    pub attempts: usize,
    /// Attempts that delivered.
    pub recovered: usize,
    /// Mean trials used over successful end-system recoveries (1 for
    /// network recovery's single walk).
    pub avg_trials: f64,
    /// Mean latency stretch of recovered paths vs the base shortest path.
    pub avg_latency_stretch: f64,
    /// Mean hop stretch of recovered paths.
    pub avg_hop_stretch: f64,
    /// Fraction of attempts whose traces contained any forwarding loop.
    pub loop_fraction: f64,
    /// Two-hop loops observed across all traces.
    pub two_hop_loops: usize,
    /// Loops longer than two hops.
    pub longer_loops: usize,
}

/// Full result of a recovery experiment.
#[derive(Clone, Debug)]
pub struct RecoveryCurves {
    /// `k = 1 (no splicing)`: default-path breakage.
    pub no_splicing: Series,
    /// Per `k`: fraction undelivered after recovery.
    pub recovery: Vec<Series>,
    /// Per `k`: fraction with no spliced path at all.
    pub reliability: Vec<Series>,
    /// Per-`k` aggregates across all `p`.
    pub stats: Vec<KRecoveryStats>,
    /// Echo of the evaluated `ks`.
    pub ks: Vec<usize>,
}

/// Per-trial accumulator for one `k`.
#[derive(Clone, Default)]
struct KAgg {
    attempts: usize,
    recovered: usize,
    trials_sum: usize,
    lat_stretch_sum: f64,
    hop_stretch_sum: f64,
    stretch_n: usize,
    looped_attempts: usize,
    two_hop: usize,
    longer: usize,
}

/// Precomputed base-path metrics: latency and hops of the weight-shortest
/// path for every ordered pair.
struct BaseMetrics {
    /// `lat[t][s]`, NaN when unreachable.
    lat: Vec<Vec<f64>>,
    /// `hops[t][s]`, 0 when unreachable.
    hops: Vec<Vec<usize>>,
}

fn base_metrics(g: &Graph, latencies: &[f64]) -> BaseMetrics {
    let n = g.node_count();
    let w = g.base_weights();
    let mut lat = vec![vec![f64::NAN; n]; n];
    let mut hops = vec![vec![0usize; n]; n];
    for t in g.nodes() {
        let spt = dijkstra(g, t, &w);
        for s in g.nodes() {
            if s == t {
                continue;
            }
            if let Some(p) = spt.path_from(s) {
                lat[t.index()][s.index()] = p.length(latencies);
                hops[t.index()][s.index()] = p.hop_count();
            }
        }
    }
    BaseMetrics { lat, hops }
}

/// Run the recovery experiment. `latencies` is the per-edge delay vector
/// stretch is measured against (pass the topology's latencies).
pub fn recovery_experiment(g: &Graph, latencies: &[f64], cfg: &RecoveryConfig) -> RecoveryCurves {
    recovery_experiment_instrumented(g, latencies, cfg, None)
}

/// [`recovery_experiment`] with optional telemetry: per-trial wall times,
/// SPF/FIB build histograms, and a heartbeat when configured. Curves and
/// stats are bit-identical with telemetry on or off.
pub fn recovery_experiment_instrumented(
    g: &Graph,
    latencies: &[f64],
    cfg: &RecoveryConfig,
    telemetry: Option<&ExperimentTelemetry>,
) -> RecoveryCurves {
    let kmax = cfg.ks.iter().copied().max().expect("at least one k").max(1);
    let mut splicing_cfg = cfg.splicing.clone();
    splicing_cfg.k = kmax;
    let n = g.node_count();
    let pairs = (n * (n - 1)) as f64;
    let base = base_metrics(g, latencies);

    type TrialOut = (Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<KAgg>);
    let trial_tel = telemetry.map(|t| &t.trials);
    let per_trial: Vec<TrialOut> =
        run_trials_instrumented(cfg.trials, cfg.seed, trial_tel, |_, trial_seed| {
            let splicing = Splicing::build_with_telemetry(
                g,
                &splicing_cfg,
                trial_seed,
                telemetry.map(|t| &t.spf),
            );
            let prefixes: Vec<Splicing> = cfg.ks.iter().map(|&k| splicing.prefix(k)).collect();
            let mut broken_frac = Vec::with_capacity(cfg.ps.len());
            let mut unrecovered = vec![Vec::with_capacity(cfg.ps.len()); cfg.ks.len()];
            let mut unreachable = vec![Vec::with_capacity(cfg.ps.len()); cfg.ks.len()];
            let mut aggs: Vec<KAgg> = vec![KAgg::default(); cfg.ks.len()];
            let opts = ForwarderOptions::default();

            for (pi, &p) in cfg.ps.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(
                    trial_seed ^ (0xd1b54a32d192ed03u64.wrapping_mul(pi as u64 + 1)),
                );
                let mask = FailureModel::IidLinks { p }.sample(g, &mut rng);
                let mut broken = 0usize;
                let mut unrec = vec![0usize; cfg.ks.len()];
                let mut unreach = vec![0usize; cfg.ks.len()];

                // Spliced reachability per destination, per k (shared by all s).
                for (ki, &k) in cfg.ks.iter().enumerate() {
                    for t in g.nodes() {
                        let reach = match cfg.semantics {
                            crate::reliability::SpliceSemantics::UnionGraph => {
                                splicing.union_reachable_to(t, k, &mask)
                            }
                            crate::reliability::SpliceSemantics::Directed => {
                                splicing.reachable_to(t, k, &mask)
                            }
                        };
                        for s in g.nodes() {
                            if s != t && !reach[s.index()] {
                                unreach[ki] += 1;
                            }
                        }
                    }
                }

                for t in g.nodes() {
                    for s in g.nodes() {
                        if s == t {
                            continue;
                        }
                        // Default path: slice 0 all the way.
                        let fwd_full = Forwarder::new(&splicing, &mask);
                        let default_out = fwd_full.forward(
                            s,
                            t,
                            ForwardingBits::stay_in_slice(0, splicing.k()),
                            &opts,
                        );
                        if default_out.is_delivered() {
                            continue;
                        }
                        broken += 1;

                        for (ki, prefix) in prefixes.iter().enumerate() {
                            let agg = &mut aggs[ki];
                            agg.attempts += 1;
                            let (delivered, trials_used, loops): (
                                Option<Trace>,
                                usize,
                                Vec<usize>,
                            ) = match cfg.scheme {
                                RecoveryScheme::EndSystem(rec) => {
                                    let fwd = Forwarder::new(prefix, &mask);
                                    let out = rec.recover(&fwd, s, t, 0, &opts, &mut rng);
                                    (out.delivery, out.trials, out.loops_seen)
                                }
                                RecoveryScheme::Network(nr) => {
                                    let out = nr.forward(prefix, &mask, s, t, 0);
                                    let loops = out.trace().loop_lengths();
                                    match out {
                                        ForwardingOutcome::Delivered(tr) => (Some(tr), 1, loops),
                                        _ => (None, 1, loops),
                                    }
                                }
                            };
                            if !loops.is_empty() {
                                agg.looped_attempts += 1;
                                agg.two_hop += loops.iter().filter(|&&l| l == 2).count();
                                agg.longer += loops.iter().filter(|&&l| l > 2).count();
                            }
                            match delivered {
                                Some(trace) => {
                                    agg.recovered += 1;
                                    agg.trials_sum += trials_used;
                                    let bl = base.lat[t.index()][s.index()];
                                    let bh = base.hops[t.index()][s.index()];
                                    if bl.is_finite() && bl > 0.0 && bh > 0 {
                                        agg.lat_stretch_sum += trace.length(latencies) / bl;
                                        agg.hop_stretch_sum += trace.hop_count() as f64 / bh as f64;
                                        agg.stretch_n += 1;
                                    }
                                }
                                None => unrec[ki] += 1,
                            }
                        }
                    }
                }
                broken_frac.push(broken as f64 / pairs);
                for ki in 0..cfg.ks.len() {
                    unrecovered[ki].push(unrec[ki] as f64 / pairs);
                    unreachable[ki].push(unreach[ki] as f64 / pairs);
                }
            }
            (broken_frac, unrecovered, unreachable, aggs)
        });

    // Average curves over trials.
    let avg_curve = |pick: &dyn Fn(&TrialOut, usize) -> f64, label: String| {
        let points = cfg
            .ps
            .iter()
            .enumerate()
            .map(|(pi, &p)| {
                let avg = per_trial.iter().map(|t| pick(t, pi)).sum::<f64>() / cfg.trials as f64;
                (p, avg)
            })
            .collect();
        Series::new(label, points)
    };

    let no_splicing = avg_curve(&|t, pi| t.0[pi], "k = 1 (no splicing)".into());
    let recovery: Vec<Series> = cfg
        .ks
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            avg_curve(
                &move |t: &TrialOut, pi: usize| t.1[ki][pi],
                format!("k = {k} (recovery)"),
            )
        })
        .collect();
    let reliability: Vec<Series> = cfg
        .ks
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            avg_curve(
                &move |t: &TrialOut, pi: usize| t.2[ki][pi],
                format!("k = {k} (reliability)"),
            )
        })
        .collect();

    // Merge aggregates.
    let stats = cfg
        .ks
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let mut m = KAgg::default();
            for (_, _, _, aggs) in &per_trial {
                let a = &aggs[ki];
                m.attempts += a.attempts;
                m.recovered += a.recovered;
                m.trials_sum += a.trials_sum;
                m.lat_stretch_sum += a.lat_stretch_sum;
                m.hop_stretch_sum += a.hop_stretch_sum;
                m.stretch_n += a.stretch_n;
                m.looped_attempts += a.looped_attempts;
                m.two_hop += a.two_hop;
                m.longer += a.longer;
            }
            KRecoveryStats {
                k,
                attempts: m.attempts,
                recovered: m.recovered,
                avg_trials: if m.recovered > 0 {
                    m.trials_sum as f64 / m.recovered as f64
                } else {
                    0.0
                },
                avg_latency_stretch: if m.stretch_n > 0 {
                    m.lat_stretch_sum / m.stretch_n as f64
                } else {
                    0.0
                },
                avg_hop_stretch: if m.stretch_n > 0 {
                    m.hop_stretch_sum / m.stretch_n as f64
                } else {
                    0.0
                },
                loop_fraction: if m.attempts > 0 {
                    m.looped_attempts as f64 / m.attempts as f64
                } else {
                    0.0
                },
                two_hop_loops: m.two_hop,
                longer_loops: m.longer,
            }
        })
        .collect();

    RecoveryCurves {
        no_splicing,
        recovery,
        reliability,
        stats,
        ks: cfg.ks.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::abilene::abilene;

    fn quick(scheme: RecoveryScheme) -> RecoveryConfig {
        RecoveryConfig {
            ks: vec![3, 5],
            ps: vec![0.04, 0.1],
            trials: 25,
            splicing: SplicingConfig::degree_based(5, 0.0, 3.0),
            scheme,
            semantics: crate::reliability::SpliceSemantics::UnionGraph,
            seed: 5,
        }
    }

    #[test]
    fn recovery_between_no_splicing_and_reliability() {
        let topo = abilene();
        let g = topo.graph();
        let cfg = quick(RecoveryScheme::EndSystem(EndSystemRecovery::default()));
        let out = recovery_experiment(&g, &topo.latencies(), &cfg);
        for (ki, _) in cfg.ks.iter().enumerate() {
            for (pi, &(_, ns)) in out.no_splicing.points.iter().enumerate() {
                let rec = out.recovery[ki].points[pi].1;
                let rel = out.reliability[ki].points[pi].1;
                assert!(rec <= ns + 1e-12, "recovery above no-splicing");
                assert!(rel <= rec + 1e-12, "reliability bound violated");
            }
        }
    }

    #[test]
    fn end_system_stats_sane() {
        let topo = abilene();
        let g = topo.graph();
        let cfg = quick(RecoveryScheme::EndSystem(EndSystemRecovery::default()));
        let out = recovery_experiment(&g, &topo.latencies(), &cfg);
        for st in &out.stats {
            assert!(st.attempts > 0, "should see broken pairs at p up to 0.1");
            assert!(st.recovered <= st.attempts);
            if st.recovered > 0 {
                assert!(st.avg_trials >= 1.0 && st.avg_trials <= 5.0);
                assert!(
                    st.avg_latency_stretch >= 1.0 - 1e-9,
                    "{}",
                    st.avg_latency_stretch
                );
                assert!(st.avg_hop_stretch >= 1.0 - 1e-9);
            }
            assert!((0.0..=1.0).contains(&st.loop_fraction));
        }
    }

    #[test]
    fn network_scheme_runs_and_bounds_hold() {
        let topo = abilene();
        let g = topo.graph();
        let cfg = quick(RecoveryScheme::Network(NetworkRecovery::default()));
        let out = recovery_experiment(&g, &topo.latencies(), &cfg);
        for st in &out.stats {
            if st.recovered > 0 {
                assert_eq!(st.avg_trials, 1.0, "network recovery is one walk");
                assert!(st.avg_latency_stretch >= 1.0 - 1e-9);
            }
        }
        // k=5 recovers at least as many as k=3 overall.
        let r3: f64 = out.recovery[0].points.iter().map(|p| p.1).sum();
        let r5: f64 = out.recovery[1].points.iter().map(|p| p.1).sum();
        assert!(r5 <= r3 + 1e-9, "more slices should not hurt recovery");
    }

    #[test]
    fn deterministic() {
        let topo = abilene();
        let g = topo.graph();
        let cfg = quick(RecoveryScheme::EndSystem(EndSystemRecovery::default()));
        let a = recovery_experiment(&g, &topo.latencies(), &cfg);
        let b = recovery_experiment(&g, &topo.latencies(), &cfg);
        assert_eq!(a.no_splicing.points, b.no_splicing.points);
        assert_eq!(a.stats, b.stats);
    }
}
