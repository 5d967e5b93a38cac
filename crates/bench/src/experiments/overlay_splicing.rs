//! §5 extension: overlay splicing — "splicing RON with SOSR". A
//! RON-style overlay routes on one metric; splicing lets its members
//! switch among latency-, loss-, and hop-optimized trees with forwarding
//! bits. We measure overlay pair disconnection under underlay link
//! failures for each single metric and for their spliced combination.
//!
//! ```text
//! splice exp run overlay_splicing
//! ```

use crate::banner;
use splice_graph::{EdgeMask, Rng};
use splice_overlay::{Metric, Overlay, OverlaySplicing};
use splice_sim::lab::{Experiment, ExperimentOutput, LabError, RunContext};
use splice_sim::output::Artifact;
use splice_topology::TopologyError;

/// Overlay pair disconnection: single-metric trees vs their spliced union.
pub const EXPERIMENT: Experiment = Experiment {
    name: "overlay_splicing",
    aliases: &[],
    describe: "§5: splicing a RON-style overlay across latency/loss/hop metrics",
    default_trials: 300,
    run,
};

fn run(ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
    let g = ctx.graph();
    let lat = ctx.topology.latencies();
    // Loss rates i.i.d. per link (congestion is not distance): this keeps
    // the loss metric genuinely independent of the latency metric.
    let mut loss_rng = Rng::seed_from_u64(ctx.config.seed ^ 0x1055);
    let loss: Vec<f64> = (0..g.edge_count())
        .map(|_| loss_rng.gen_range_f64(0.0..0.05))
        .collect();
    let members: Vec<_> = g.nodes().step_by(3).collect();
    if members.len() < 2 {
        return Err(TopologyError::BadSpec {
            spec: ctx.topology.name.clone(),
            reason: format!(
                "overlay_splicing needs >= 4 nodes (every third PoP joins the overlay, \
                 and an overlay needs two members), got {}",
                g.node_count()
            ),
        }
        .into());
    }
    banner(&format!(
        "§5 — overlay splicing over {} ({} members of {} PoPs), {} trials",
        ctx.topology.name,
        members.len(),
        g.node_count(),
        ctx.config.trials
    ));

    let overlay = Overlay::build(&g, &lat, &loss, members.clone(), 3, 1, ctx.config.seed);
    let m = members.len();
    let pairs = (m * (m - 1)) as f64;
    println!(
        "overlay mesh: {} links, each riding the underlay's latency-shortest path\n",
        overlay.links.len()
    );

    // Single-metric overlays and the spliced combination. Ordering the
    // metrics differently changes which is "slice 0" for k = 1 rows.
    let orders: Vec<(&str, Vec<Metric>)> = vec![
        ("latency only", vec![Metric::Latency]),
        ("loss only", vec![Metric::Loss]),
        ("hops only", vec![Metric::Hops]),
        (
            "spliced (latency+loss+hops)",
            vec![Metric::Latency, Metric::Loss, Metric::Hops],
        ),
    ];

    let ps = [0.02f64, 0.05, 0.08];
    let mut rows = Vec::new();
    for (name, metrics) in orders {
        let k = metrics.len();
        let os = OverlaySplicing::build(overlay.clone(), metrics);
        let mut cells = vec![name.to_string()];
        for &p in &ps {
            let mut total = 0.0;
            for trial in 0..ctx.config.trials as u64 {
                let mut rng = Rng::seed_from_u64(ctx.config.seed + trial);
                let mut under = EdgeMask::all_up(g.edge_count());
                for e in g.edge_ids() {
                    if rng.gen_bool(p) {
                        under.fail(e);
                    }
                }
                total += os.disconnected_pairs(k, &under) as f64 / pairs;
            }
            cells.push(format!("{:.4}", total / ctx.config.trials as f64));
        }
        rows.push(cells);
    }

    Ok(ExperimentOutput {
        artifacts: vec![Artifact::table(
            format!("overlay_splicing_{}.txt", ctx.topology.name),
            &[
                "overlay routing",
                "disc @ p=.02",
                "disc @ p=.05",
                "disc @ p=.08",
            ],
            rows,
        )],
        notes: vec![
            "the spliced overlay switches metric trees with forwarding bits, riding out"
                .to_string(),
            "underlay failures that disconnect any single-metric overlay's tree.".to_string(),
        ],
    })
}
