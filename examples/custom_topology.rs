//! Bring your own topology: load an edge-list file (or a Rocketfuel
//! `weights` file), build slices over it, and check what splicing buys
//! you on *your* network.
//!
//! ```text
//! cargo run --release --example custom_topology [path/to/file.topo]
//! ```
//!
//! Without an argument, uses the shipped `data/geant.topo` — the same
//! file format `splice info --file …` accepts.

use path_splicing::graph::mincut::min_cut_links;
use path_splicing::graph::EdgeMask;
use path_splicing::sim::failure::FailureModel;
use path_splicing::splicing::prelude::*;
use path_splicing::topology::parse::parse_edge_list;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "data/geant.topo".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run from the repo root)"));
    let topo = parse_edge_list(&path, &text).expect("valid topology file");
    let g = topo.graph();
    println!(
        "loaded {}: {} nodes, {} links, min cut {} link(s)",
        path,
        g.node_count(),
        g.edge_count(),
        min_cut_links(&g).unwrap_or(0)
    );

    // How much does each slice buy on this topology?
    let kmax = 8;
    let splicing = Splicing::build(&g, &SplicingConfig::degree_based(kmax, 0.0, 3.0), 1);
    let trials = 300;
    let p = 0.05;
    let n = g.node_count();
    let pairs = (n * (n - 1)) as f64;

    println!("\nfraction of pairs disconnected at p = {p} ({trials} trials):");
    let mut best_total = 0.0;
    let mut per_k = vec![0.0f64; kmax];
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(trial);
        let mask = FailureModel::IidLinks { p }.sample(&g, &mut rng);
        for (ki, acc) in per_k.iter_mut().enumerate() {
            *acc += splicing.union_disconnected_pairs(ki + 1, &mask) as f64 / pairs;
        }
        best_total += path_splicing::graph::traversal::disconnected_pairs(&g, &mask) as f64 / pairs;
    }
    for (ki, acc) in per_k.iter().enumerate() {
        let avg = acc / trials as f64;
        let bar = "#".repeat((avg * 400.0) as usize);
        println!("  k = {:<2} {:.4}  {}", ki + 1, avg, bar);
    }
    println!(
        "  best   {:.4}  (the graph itself)",
        best_total / trials as f64
    );

    // And the forwarding story: fail the first link of some shortest path
    // and watch the bits route around it.
    let (src, dst) = (
        path_splicing::graph::NodeId(0),
        path_splicing::graph::NodeId((n - 1) as u32),
    );
    if let Some((_, edge)) = splicing.next_hop(0, src, dst) {
        let mask = EdgeMask::from_failed(g.edge_count(), &[edge]);
        let fwd = Forwarder::new(&splicing, &mask);
        let mut rng = StdRng::seed_from_u64(9);
        let out = EndSystemRecovery::default().recover(
            &fwd,
            src,
            dst,
            0,
            &ForwarderOptions::default(),
            &mut rng,
        );
        println!(
            "\nfailed the first link of {} -> {}'s default path: {}",
            topo.node_name(src),
            topo.node_name(dst),
            if out.recovered {
                format!("recovered in {} trial(s)", out.trials)
            } else {
                "not recoverable with these slices".to_string()
            }
        );
    }
}
