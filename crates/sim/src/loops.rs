//! Forwarding-loop frequency (§4.4).
//!
//! The paper reports that with random end-system recovery headers, two-hop
//! loops appear in roughly 1 in 100 recovery trials at `k = 2` and up to
//! 1 in 10 at larger `k`, while longer loops are extremely rare — and that
//! strategies like never revisiting a slice eliminate persistent loops.
//! This experiment counts exactly that: each *trial* is one randomized
//! header forwarded for one broken pair.

use crate::failure::FailureModel;
use crate::parallel::run_trials;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splice_core::prelude::*;
use splice_core::recovery::HeaderStrategy;
use splice_core::slices::SplicingConfig;
use splice_graph::Graph;

/// Configuration of a loop-frequency run.
#[derive(Clone, Debug)]
pub struct LoopConfig {
    /// Slice counts to evaluate.
    pub ks: Vec<usize>,
    /// Link-failure probability used to generate broken pairs.
    pub p: f64,
    /// Monte-Carlo trials (failure scenarios).
    pub trials: usize,
    /// Slice construction; `k` overridden by `max(ks)`.
    pub splicing: SplicingConfig,
    /// Header randomization under test.
    pub strategy: HeaderStrategy,
    /// Recovery header length in hops.
    pub header_hops: usize,
    /// Base seed.
    pub seed: u64,
}

impl LoopConfig {
    /// The §4.4 setting: Bernoulli(0.5) headers, 20 hops, p mid-range.
    pub fn paper(ks: Vec<usize>, trials: usize, seed: u64) -> LoopConfig {
        let kmax = ks.iter().copied().max().unwrap_or(2);
        LoopConfig {
            ks,
            p: 0.05,
            trials,
            splicing: SplicingConfig::degree_based(kmax, 0.0, 3.0),
            strategy: HeaderStrategy::Bernoulli { flip_prob: 0.5 },
            header_hops: 20,
            seed,
        }
    }
}

/// Loop counts for one `k`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopStats {
    /// Slice count.
    pub k: usize,
    /// Recovery trials executed (one randomized header each).
    pub attempts: usize,
    /// Trials whose trace contained a two-hop loop.
    pub with_two_hop: usize,
    /// Trials whose trace contained a loop longer than two hops.
    pub with_longer: usize,
    /// Trials that ended in a detected persistent loop.
    pub persistent: usize,
}

impl LoopStats {
    /// Two-hop loop rate per trial.
    pub fn two_hop_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.with_two_hop as f64 / self.attempts as f64
        }
    }

    /// Longer-loop rate per trial.
    pub fn longer_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.with_longer as f64 / self.attempts as f64
        }
    }
}

/// Run the loop-frequency experiment.
pub fn loop_experiment(g: &Graph, cfg: &LoopConfig) -> Vec<LoopStats> {
    let kmax = cfg.ks.iter().copied().max().expect("at least one k");
    let mut scfg = cfg.splicing.clone();
    scfg.k = kmax;
    let opts = ForwarderOptions::default();

    let per_trial: Vec<Vec<LoopStats>> = run_trials(cfg.trials, cfg.seed, |_, trial_seed| {
        let splicing = Splicing::build(g, &scfg, trial_seed);
        let mut rng = StdRng::seed_from_u64(trial_seed ^ 0xabcdef1234567890);
        let mask = FailureModel::IidLinks { p: cfg.p }.sample(g, &mut rng);
        let mut out: Vec<LoopStats> = cfg
            .ks
            .iter()
            .map(|&k| LoopStats {
                k,
                ..Default::default()
            })
            .collect();

        for (ki, &k) in cfg.ks.iter().enumerate() {
            if k < 2 {
                continue; // single slice: headers cannot switch, no loops
            }
            let prefix = splicing.prefix(k);
            let fwd = Forwarder::new(&prefix, &mask);
            for t in g.nodes() {
                for s in g.nodes() {
                    if s == t {
                        continue;
                    }
                    // Only broken default paths enter recovery.
                    let default = fwd.forward(s, t, ForwardingBits::stay_in_slice(0, k), &opts);
                    if default.is_delivered() {
                        continue;
                    }
                    let header = cfg.strategy.generate(0, cfg.header_hops, k, &mut rng);
                    let outcome = fwd.forward(s, t, header, &opts);
                    let st = &mut out[ki];
                    st.attempts += 1;
                    let loops = outcome.trace().loop_lengths();
                    if loops.contains(&2) {
                        st.with_two_hop += 1;
                    }
                    if loops.iter().any(|&l| l > 2) {
                        st.with_longer += 1;
                    }
                    if matches!(outcome, ForwardingOutcome::PersistentLoop(_))
                        || matches!(outcome, ForwardingOutcome::TtlExceeded(_))
                    {
                        st.persistent += 1;
                    }
                }
            }
        }
        out
    });

    // Merge.
    cfg.ks
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let mut m = LoopStats {
                k,
                ..Default::default()
            };
            for trial in &per_trial {
                m.attempts += trial[ki].attempts;
                m.with_two_hop += trial[ki].with_two_hop;
                m.with_longer += trial[ki].with_longer;
                m.persistent += trial[ki].persistent;
            }
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_topology::abilene::abilene;

    #[test]
    fn loops_are_rare_and_rates_bounded() {
        let g = abilene().graph();
        let cfg = LoopConfig::paper(vec![2, 5], 30, 3);
        let out = loop_experiment(&g, &cfg);
        assert_eq!(out.len(), 2);
        for st in &out {
            assert!(st.with_two_hop <= st.attempts);
            assert!((0.0..=1.0).contains(&st.two_hop_rate()));
            assert!(st.longer_rate() <= 0.5, "long loops should not dominate");
        }
    }

    #[test]
    fn no_revisit_strategy_eliminates_persistent_loops() {
        let g = abilene().graph();
        let mut cfg = LoopConfig::paper(vec![5], 30, 3);
        cfg.strategy = HeaderStrategy::NoRevisit { flip_prob: 0.5 };
        let out = loop_experiment(&g, &cfg);
        assert_eq!(
            out[0].persistent, 0,
            "no-revisit headers cannot loop persistently"
        );
    }

    #[test]
    fn k1_trivially_loop_free() {
        let g = abilene().graph();
        let cfg = LoopConfig::paper(vec![1], 10, 3);
        let out = loop_experiment(&g, &cfg);
        assert_eq!(out[0].attempts, 0);
        assert_eq!(out[0].two_hop_rate(), 0.0);
    }

    #[test]
    fn deterministic() {
        let g = abilene().graph();
        let cfg = LoopConfig::paper(vec![2], 15, 8);
        assert_eq!(loop_experiment(&g, &cfg), loop_experiment(&g, &cfg));
    }
}
