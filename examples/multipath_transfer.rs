//! Multipath transfer (§5 "other applications"): an end host sets the
//! splicing bits to use several paths *simultaneously*, pushing
//! throughput toward the underlying graph's capacity instead of a single
//! shortest path's.
//!
//! ```text
//! cargo run --release --example multipath_transfer
//! ```

use path_splicing::graph::maxflow::{edge_connectivity_st, succ_connectivity};
use path_splicing::graph::EdgeMask;
use path_splicing::splicing::prelude::*;
use path_splicing::topology::geant::geant;

fn main() {
    let topo = geant();
    let g = topo.graph();
    println!(
        "topology: {} ({} nodes, {} links)",
        topo.name,
        topo.node_count(),
        topo.link_count()
    );

    let src = topo.node_by_name("pt").unwrap(); // Lisbon
    let dst = topo.node_by_name("se").unwrap(); // Stockholm
    let capacity = edge_connectivity_st(&g, src, dst);
    println!("pt -> se: the graph supports {capacity} edge-disjoint paths (unit capacities)");

    let up = EdgeMask::all_up(g.edge_count());
    println!("\n  k | parallel paths usable via splicing bits");
    println!("  --+----------------------------------------");
    for k in 1..=8usize {
        let splicing = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), 11);
        let succ = splicing.successors_toward(dst, k, &up);
        let usable = succ_connectivity(&succ, src, dst);
        let bar = "#".repeat(usable);
        println!("  {k} | {usable} {bar}");
    }
    println!("\nwith one slice a host gets exactly one path; adding slices exposes");
    println!("disjoint paths it can drive concurrently by varying the header bits,");
    println!("approaching the graph capacity of {capacity}.");

    // Demonstrate two concrete disjoint spliced paths.
    let k = 8;
    let splicing = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), 11);
    let fwd = Forwarder::new(&splicing, &up);
    let mut seen_paths: Vec<Vec<String>> = Vec::new();
    for slice in 0..k {
        let out = fwd.forward(
            src,
            dst,
            ForwardingBits::stay_in_slice(slice, k),
            &ForwarderOptions::default(),
        );
        if let ForwardingOutcome::Delivered(tr) = out {
            let names: Vec<String> = tr
                .steps
                .iter()
                .map(|s| topo.node_name(s.node).to_string())
                .chain(std::iter::once(topo.node_name(tr.last).to_string()))
                .collect();
            if !seen_paths.contains(&names) {
                seen_paths.push(names);
            }
        }
    }
    println!("\ndistinct per-slice paths pt -> se:");
    for p in &seen_paths {
        println!("  {}", p.join(" -> "));
    }
}
