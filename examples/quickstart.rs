//! Quickstart: build path splicing over a real backbone, break a link,
//! and watch the forwarding bits route around it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use path_splicing::graph::EdgeMask;
use path_splicing::splicing::prelude::*;
use path_splicing::topology::abilene::abilene;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A topology: the 11-node Abilene backbone.
    let topo = abilene();
    let g = topo.graph();
    println!(
        "topology: {} ({} nodes, {} links)",
        topo.name,
        topo.node_count(),
        topo.link_count()
    );

    // 2. Five slices: slice 0 is plain shortest paths; slices 1..5 come
    //    from degree-based Weight(0,3) link-weight perturbations (§3.1).
    let cfg = SplicingConfig::degree_based(5, 0.0, 3.0);
    let splicing = Splicing::build(&g, &cfg, 3);
    println!("built {} slices", splicing.k());

    let src = topo.node_by_name("Seattle").unwrap();
    let dst = topo.node_by_name("New York").unwrap();

    // 3. Forward a packet along the default slice. The header pins the
    //    packet to slice 0 (Algorithm 1 reads 2 bits per hop).
    let mask = EdgeMask::all_up(g.edge_count());
    let fwd = Forwarder::new(&splicing, &mask);
    let out = fwd.forward(
        src,
        dst,
        ForwardingBits::stay_in_slice(0, splicing.k()),
        &ForwarderOptions::default(),
    );
    let trace = match out {
        ForwardingOutcome::Delivered(t) => t,
        other => panic!("clean network must deliver: {other:?}"),
    };
    print!("default path : ");
    print_path(&topo, &trace);

    // 4. Fail the first link on that path.
    let broken = trace.steps[0].edge;
    let mask = EdgeMask::from_failed(g.edge_count(), &[broken]);
    println!(
        "failing link  : {} - {}",
        topo.node_name(g.edge(broken).u),
        topo.node_name(g.edge(broken).v)
    );
    let fwd = Forwarder::new(&splicing, &mask);
    let out = fwd.forward(
        src,
        dst,
        ForwardingBits::stay_in_slice(0, splicing.k()),
        &ForwarderOptions::default(),
    );
    println!("slice 0 alone : {}", outcome_name(&out));

    // 5. End-system recovery (§4.3): re-toss the forwarding bits — each
    //    hop switches slice with probability 0.5 — up to five times.
    let mut rng = StdRng::seed_from_u64(7);
    let recovery = EndSystemRecovery::default();
    let result = recovery.recover(&fwd, src, dst, 0, &ForwarderOptions::default(), &mut rng);
    assert!(result.recovered, "splicing should route around one failure");
    println!(
        "recovered in  : {} trial(s) by randomizing the forwarding bits",
        result.trials
    );
    let spliced = result.delivery.unwrap();
    print!("spliced path  : ");
    print_path(&topo, &spliced);
    println!(
        "stretch       : {:.2}x latency, {} -> {} hops, slices used: {}",
        spliced.length(&topo.latencies()) / trace.length(&topo.latencies()),
        trace.hop_count(),
        spliced.hop_count(),
        spliced.slices_used()
    );
}

fn print_path(topo: &path_splicing::topology::Topology, trace: &Trace) {
    let names: Vec<&str> = trace
        .steps
        .iter()
        .map(|s| topo.node_name(s.node))
        .chain(std::iter::once(topo.node_name(trace.last)))
        .collect();
    println!("{}", names.join(" -> "));
}

fn outcome_name(out: &ForwardingOutcome) -> &'static str {
    match out {
        ForwardingOutcome::Delivered(_) => "delivered",
        ForwardingOutcome::LinkDown { .. } => "dropped at the failed link",
        ForwardingOutcome::DeadEnd(_) => "dead end",
        ForwardingOutcome::PersistentLoop(_) => "persistent loop",
        ForwardingOutcome::TtlExceeded(_) => "ttl exceeded",
    }
}
