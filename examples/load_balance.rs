//! "Automatic" load balancing (§5): Algorithm 1's hash-default slice
//! selection spreads flows across trees even with no failures, with no
//! per-matrix weight tuning.
//!
//! ```text
//! cargo run --release --example load_balance
//! ```

use path_splicing::graph::EdgeMask;
use path_splicing::splicing::prelude::*;
use path_splicing::topology::sprint::sprint;
use path_splicing::traffic::load::{link_loads, RoutingMode};
use path_splicing::traffic::matrix::TrafficMatrix;

fn main() {
    let topo = sprint();
    let g = topo.graph();
    println!(
        "topology: {} ({} nodes, {} links); gravity traffic matrix, 1000 units total",
        topo.name,
        topo.node_count(),
        topo.link_count()
    );

    let splicing = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 1);
    let tm = TrafficMatrix::gravity(&g, 1000.0, 5);
    let up = EdgeMask::all_up(g.edge_count());

    println!("\n  mode            peak load   mean   cv      (lower cv = better balanced)");
    for (name, mode) in [
        ("shortest-path ", RoutingMode::ShortestPath),
        ("hash-spread   ", RoutingMode::HashSpread),
        ("equal-split   ", RoutingMode::EqualSplit),
    ] {
        let r = link_loads(&splicing, &g, &tm, mode, &up);
        println!(
            "  {name}  {:>8.1}  {:>6.1}  {:.3}",
            r.max(),
            r.mean(),
            r.cv()
        );
    }

    // Show the hottest links under single-path routing and where their
    // traffic went once flows spread across slices.
    let single = link_loads(&splicing, &g, &tm, RoutingMode::ShortestPath, &up);
    let spread = link_loads(&splicing, &g, &tm, RoutingMode::HashSpread, &up);
    let mut hottest: Vec<(usize, f64)> = single.per_edge.iter().cloned().enumerate().collect();
    hottest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\n  hottest links under single-path routing, and after hash-spread:");
    for &(i, load) in hottest.iter().take(5) {
        let e = g.edge(path_splicing::graph::EdgeId(i as u32));
        println!(
            "  {:>18} - {:<18} {:>8.1} -> {:>8.1}",
            topo.node_name(e.u),
            topo.node_name(e.v),
            load,
            spread.per_edge[i]
        );
    }
}
