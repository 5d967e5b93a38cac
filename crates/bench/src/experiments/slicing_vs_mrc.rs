//! §5 extension: random perturbations vs engineered backup
//! configurations (MRC, the paper's citation \[11\]). MRC guarantees
//! single-failure recovery by isolating every link in some
//! configuration; splicing gets diversity for free from randomness. Who
//! gives more reliability per slice?
//!
//! ```text
//! splice-lab run slicing_vs_mrc
//! ```

use crate::banner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splice_core::mrc::{build_mrc, mrc_assignment, protected_fraction};
use splice_core::prelude::*;
use splice_core::slices::SplicingConfig;
use splice_graph::EdgeMask;
use splice_sim::failure::FailureModel;
use splice_sim::lab::{Experiment, ExperimentOutput, LabError, RunContext};
use splice_sim::output::Artifact;

/// Random slicing vs engineered MRC backup configurations.
pub struct SlicingVsMrc;

impl Experiment for SlicingVsMrc {
    fn name(&self) -> &'static str {
        "slicing_vs_mrc"
    }

    fn describe(&self) -> &'static str {
        "§5: random slices vs engineered MRC backup configurations"
    }

    fn default_trials(&self) -> usize {
        250
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
        let g = ctx.graph();
        banner(&format!(
            "Ablation — random slicing vs MRC configurations, {} topology, {} trials",
            ctx.topology.name, ctx.config.trials
        ));

        let n = g.node_count();
        let pairs = (n * (n - 1)) as f64;
        let nr = NetworkRecovery::default();

        let mut rows = Vec::new();
        for k in [3usize, 5, 8] {
            let protected = protected_fraction(&mrc_assignment(&g, k - 1));
            let mrc = build_mrc(&g, k);

            // Single-failure recovery coverage: fraction of (pair, failed
            // link on the pair's default path) cases deflection delivers.
            let coverage = |sp: &Splicing| -> f64 {
                let (mut cases, mut ok) = (0usize, 0usize);
                for e in g.edge_ids() {
                    let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
                    for t in g.nodes() {
                        for s in g.nodes() {
                            if s == t {
                                continue;
                            }
                            // Does the default path use e?
                            let mut at = s;
                            let mut uses = false;
                            while at != t {
                                let Some((next, pe)) = sp.next_hop(0, at, t) else {
                                    break;
                                };
                                if pe == e {
                                    uses = true;
                                    break;
                                }
                                at = next;
                            }
                            if !uses {
                                continue;
                            }
                            cases += 1;
                            if nr.forward(sp, &mask, s, t, 0).is_delivered() {
                                ok += 1;
                            }
                        }
                    }
                }
                ok as f64 / cases.max(1) as f64
            };

            // Multi-failure reliability (union semantics), p = 0.05, common
            // random failures.
            let reliability = |sp: &Splicing| -> f64 {
                let mut total = 0.0;
                for trial in 0..ctx.config.trials as u64 {
                    let mut r = StdRng::seed_from_u64(ctx.config.seed + trial);
                    let mask = FailureModel::IidLinks { p: 0.05 }.sample(&g, &mut r);
                    total += sp.union_disconnected_pairs(k, &mask) as f64 / pairs;
                }
                total / ctx.config.trials as f64
            };

            for (name, sp) in [
                (
                    "random degree(0,3)",
                    Splicing::build(
                        &g,
                        &SplicingConfig::degree_based(k, 0.0, 3.0),
                        ctx.config.seed,
                    ),
                ),
                ("MRC configs", mrc),
            ] {
                rows.push(vec![
                    k.to_string(),
                    name.to_string(),
                    if name == "MRC configs" {
                        format!("{:.0}%", 100.0 * protected)
                    } else {
                        "-".to_string()
                    },
                    format!("{:.1}%", 100.0 * coverage(&sp)),
                    format!("{:.4}", reliability(&sp)),
                ]);
            }
        }

        Ok(ExperimentOutput {
            artifacts: vec![Artifact::table(
                format!("slicing_vs_mrc_{}.txt", ctx.topology.name),
                &[
                    "k",
                    "construction",
                    "links protected",
                    "single-failure recovery",
                    "disc @ p=.05 (union)",
                ],
                rows,
            )],
            notes: vec![
                "engineered configurations dominate per slice once k is large enough to protect"
                    .to_string(),
                "every link — exactly the §5 conjecture that coverage-conscious schemes 'achieve"
                    .to_string(),
                "more reliability with fewer slices'. What random perturbation buys instead is"
                    .to_string(),
                "zero computation, zero coordination, and per-pair path diversity beyond what"
                    .to_string(),
                "failure protection needs (multipath, load spreading).".to_string(),
            ],
        })
    }
}
