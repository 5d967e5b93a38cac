//! §5 extension: multipath capacity. How much of the underlying graph's
//! s–t max-flow can an end host actually drive through the slices'
//! successor graphs, as k grows?
//!
//! ```text
//! splice exp run capacity_multipath
//! ```

use crate::banner;
use splice_core::slices::SplicingConfig;
use splice_sim::lab::{Experiment, ExperimentOutput, LabError, RunContext};
use splice_sim::output::Artifact;
use splice_traffic::capacity::capacity_ratio_by_k;

/// Spliced multipath capacity vs the graph's max-flow, by k.
pub const EXPERIMENT: Experiment = Experiment {
    name: "capacity_multipath",
    aliases: &[],
    describe: "§5: spliced multipath capacity ratio vs k",
    default_trials: 0,
    run,
};

fn run(ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
    let g = ctx.graph();
    banner(&format!(
        "§5 — multipath capacity ratio vs k, {} topology",
        ctx.topology.name
    ));

    let kmax = 10;
    let splicing = ctx.deployment(
        &g,
        &SplicingConfig::degree_based(kmax, 0.0, 3.0),
        ctx.config.seed,
    );
    let ratios = capacity_ratio_by_k(&splicing, &g);

    let rows: Vec<Vec<String>> = ratios
        .iter()
        .enumerate()
        .map(|(i, r)| vec![(i + 1).to_string(), format!("{:.3}", r)])
        .collect();

    Ok(ExperimentOutput {
        artifacts: vec![Artifact::table(
            format!("capacity_multipath_{}.txt", ctx.topology.name),
            &["k", "capacity ratio (spliced / full graph)"],
            rows,
        )],
        notes: vec![
            "claim: the ratio grows with k toward the graph's max-flow, k=10 at least 0.1 above k=1"
                .to_string(),
        ],
    })
}
