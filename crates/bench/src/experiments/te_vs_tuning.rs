//! §5 extension: splicing's automatic load balancing vs conventional
//! link-weight optimization — the comparison the paper says it was
//! running ("we are currently comparing the traffic balance that path
//! splicing achieves versus that which conventional link-weight
//! optimization achieves, both in the case of failures and in steady
//! state").
//!
//! ```text
//! splice-lab run te_vs_tuning
//! ```

use crate::banner;
use splice_core::slices::{Splicing, SplicingConfig};
use splice_graph::EdgeMask;
use splice_sim::lab::{Experiment, ExperimentOutput, LabError, RunContext};
use splice_sim::output::Artifact;
use splice_traffic::load::{link_loads_with_recovery, RoutingMode};
use splice_traffic::matrix::TrafficMatrix;
use splice_traffic::optimize::{max_utilization, optimize_weights};

/// Splicing's untuned spreading vs Fortz–Thorup-style weight tuning.
pub struct TeVsTuning;

impl Experiment for TeVsTuning {
    fn name(&self) -> &'static str {
        "te_vs_tuning"
    }

    fn describe(&self) -> &'static str {
        "§5: splicing's untuned spreading vs tuned OSPF weights"
    }

    // Here "trials" is the optimizer's move budget, not a Monte-Carlo count.
    fn default_trials(&self) -> usize {
        800
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
        let g = ctx.graph();
        banner(&format!(
            "§5 — splicing vs tuned OSPF weights, {} topology, {} optimizer moves",
            ctx.topology.name, ctx.config.trials
        ));

        let capacity = 100.0;
        let tm = TrafficMatrix::gravity(&g, 1500.0, ctx.config.seed);

        // Tuned single-path baseline. Built directly — the tables come from
        // the optimizer's weights, not a cacheable (k, perturbation, seed).
        let opt = optimize_weights(&g, &tm, capacity, ctx.config.trials, ctx.config.seed);
        println!(
            "weight search: cost {:.1} -> {:.1} over {} accepted moves\n",
            opt.initial_cost, opt.final_cost, opt.moves
        );
        let tuned = Splicing::from_weight_vectors(&g, vec![opt.weights.clone()]);
        let base = ctx.deployment(
            &g,
            &SplicingConfig::degree_based(1, 0.0, 3.0),
            ctx.config.seed,
        );
        let spliced = ctx.deployment(
            &g,
            &SplicingConfig::degree_based(5, 0.0, 3.0),
            ctx.config.seed,
        );

        // Steady state.
        let steady = |sp: &Splicing, mode| max_utilization(sp, &g, &tm, mode, capacity);
        // Under failures: worst max-utilization over all single-link failures
        // with recovery re-routing.
        let worst_failure = |sp: &Splicing, mode| -> f64 {
            g.edge_ids()
                .map(|e| {
                    let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
                    link_loads_with_recovery(sp, &g, &tm, mode, &mask).max() / capacity
                })
                .fold(0.0f64, f64::max)
        };

        let measurements = [
            (
                "untuned OSPF (single path)",
                steady(&base, RoutingMode::ShortestPath),
                worst_failure(&base, RoutingMode::ShortestPath),
            ),
            (
                "tuned OSPF (Fortz-Thorup-style)",
                steady(&tuned, RoutingMode::ShortestPath),
                worst_failure(&tuned, RoutingMode::ShortestPath),
            ),
            (
                "splicing k=5, hash-spread",
                steady(&spliced, RoutingMode::HashSpread),
                worst_failure(&spliced, RoutingMode::HashSpread),
            ),
            (
                "splicing k=5, equal-split",
                steady(&spliced, RoutingMode::EqualSplit),
                worst_failure(&spliced, RoutingMode::EqualSplit),
            ),
        ];
        let rows = measurements
            .iter()
            .map(|(n, s, f)| vec![n.to_string(), format!("{:.3}", s), format!("{:.3}", f)])
            .collect::<Vec<_>>();

        Ok(ExperimentOutput {
            artifacts: vec![Artifact::table(
                format!("te_vs_tuning_{}.txt", ctx.topology.name),
                &["routing", "max util (steady)", "max util (worst failure)"],
                rows,
            )],
            notes: vec![
                "splicing needs no per-matrix tuning; the question is how close its untuned"
                    .to_string(),
                "spreading gets to the tuned baseline, and how each behaves under failures."
                    .to_string(),
            ],
        })
    }
}
