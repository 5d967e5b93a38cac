//! Failure storm on the Sprint backbone: every pair's packet walked
//! through a burst of link failures, comparing plain routing, end-system recovery,
//! and in-network deflection — the scenario the paper's introduction
//! motivates ("an Internet that is always on in the face of fiber cuts").
//!
//! ```text
//! cargo run --release --example failure_storm
//! ```

use path_splicing::sim::failure::FailureModel;
use path_splicing::splicing::prelude::*;
use path_splicing::topology::sprint::sprint;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let topo = sprint();
    let g = topo.graph();
    println!(
        "topology: {} ({} nodes, {} links)",
        topo.name,
        topo.node_count(),
        topo.link_count()
    );

    let k = 5;
    let splicing = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), 42);

    // A storm: each link fails independently with 8% probability.
    let mut rng = StdRng::seed_from_u64(2008);
    let mask = FailureModel::IidLinks { p: 0.08 }.sample(&g, &mut rng);
    println!(
        "storm: {} of {} links down",
        mask.failed_count(),
        g.edge_count()
    );

    let fwd = Forwarder::new(&splicing, &mask);
    let opts = ForwarderOptions::default();
    let recovery = EndSystemRecovery::default();
    let deflecting = NetworkRecovery::default();

    let (mut total, mut plain_ok, mut end_ok, mut net_ok) = (0u32, 0u32, 0u32, 0u32);
    let mut end_trials = 0u32;
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t {
                continue;
            }
            total += 1;
            // Plain destination-based routing: slice 0 end to end.
            let plain = fwd.forward(s, t, ForwardingBits::stay_in_slice(0, k), &opts);
            if plain.is_delivered() {
                plain_ok += 1;
                end_ok += 1; // no recovery needed
                net_ok += 1;
                continue;
            }
            // End-system recovery: retry with randomized forwarding bits.
            let out = recovery.recover(&fwd, s, t, 0, &opts, &mut rng);
            if out.recovered {
                end_ok += 1;
                end_trials += out.trials as u32;
            }
            // Network-based recovery: routers deflect locally.
            if deflecting.forward(&splicing, &mask, s, t, 0).is_delivered() {
                net_ok += 1;
            }
        }
    }

    let pct = |x: u32| 100.0 * x as f64 / total as f64;
    println!("pairs delivered:");
    println!("  plain shortest-path routing : {:>6.2}%", pct(plain_ok));
    println!(
        "  + end-system recovery (k={k}) : {:>6.2}%  (avg {:.2} extra trials per broken pair)",
        pct(end_ok),
        end_trials as f64 / (end_ok - plain_ok).max(1) as f64
    );
    println!("  + in-network deflection     : {:>6.2}%", pct(net_ok));

    // How close is that to the best any routing could do?
    let best = {
        let n = g.node_count();
        let pairs = (n * (n - 1)) as f64;
        let disc = path_splicing::graph::traversal::disconnected_pairs(&g, &mask) as f64;
        100.0 * (1.0 - disc / pairs)
    };
    println!("  best possible (graph cuts)  : {best:>6.2}%");
}
