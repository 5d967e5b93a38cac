//! §4.2's scalability claim: control-plane cost (messages, LSDB, FIBs)
//! grows **linearly** in k, while path diversity grows much faster.
//! Costs are counted, not estimated: LSA transmissions under reliable
//! flooding (`splice_routing::dynamics::flood`), the LSAs one router
//! stores, and the FIB entries the deployment's arena installs.
//!
//! ```text
//! splice exp run state_vs_diversity
//! ```

use crate::banner;
use splice_core::slices::SplicingConfig;
use splice_sim::diversity::state_vs_diversity;
use splice_sim::lab::{Experiment, ExperimentOutput, LabError, RunContext};
use splice_sim::output::Artifact;

/// Control-plane cost vs path diversity as k grows.
pub const EXPERIMENT: Experiment = Experiment {
    name: "state_vs_diversity",
    aliases: &[],
    describe: "§4.2: linear control-plane cost vs super-linear path diversity in k",
    default_trials: 50,
    run,
};

fn run(ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
    let g = ctx.graph();
    banner(&format!(
        "§4.2 — state/messages vs path diversity, {} topology",
        ctx.topology.name
    ));

    let ks = [1usize, 2, 3, 4, 5, 8, 10];
    let template = SplicingConfig::degree_based(10, 0.0, 3.0);
    let pts = state_vs_diversity(&g, &template, &ks, ctx.config.trials, 60, ctx.config.seed);

    let base_msgs = pts[0].messages as f64;
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.k.to_string(),
                p.messages.to_string(),
                format!("{:.1}x", p.messages as f64 / base_msgs),
                p.fib_entries.to_string(),
                p.lsdb_entries.to_string(),
                format!("{:.2}", p.distinct_paths),
                format!("{:.2}", p.succ_connectivity),
            ]
        })
        .collect();

    Ok(ExperimentOutput {
        artifacts: vec![Artifact::table(
            format!("state_vs_diversity_{}.txt", ctx.topology.name),
            &[
                "k",
                "LSA msgs",
                "msg growth",
                "FIB entries",
                "LSDB entries",
                "distinct paths/pair",
                "succ connectivity",
            ],
            rows,
        )],
        notes: vec![
            "claim: cost columns scale as k (linear); diversity columns grow super-linearly early"
                .to_string(),
        ],
    })
}
