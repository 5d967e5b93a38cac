//! End-to-end integration: topology → splicing (slice planes in the
//! routing arena) → forwarding, exercised together on the paper's
//! topologies.

use path_splicing::graph::{EdgeId, EdgeMask, NodeId, Rng};
use path_splicing::splicing::prelude::*;
use path_splicing::topology::{geant::geant, sprint::sprint};

/// The full pipeline on Sprint: build the slices, deliver packets across
/// the whole network, and check the forwarding walk crosses exactly the
/// links the installed slice-0 tables name.
#[test]
fn protocol_and_fast_path_agree_end_to_end() {
    let topo = sprint();
    let g = topo.graph();
    let splicing = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 8);

    let mask = EdgeMask::all_up(g.edge_count());
    let fwd = Forwarder::new(&splicing, &mask);
    for (s, t) in [(0u32, 51u32), (17, 3), (40, 22)] {
        let (s, t) = (NodeId(s), NodeId(t));
        let out = fwd.forward(
            s,
            t,
            ForwardingBits::stay_in_slice(0, splicing.k()),
            &ForwarderOptions::default(),
        );
        let ForwardingOutcome::Delivered(trace) = out else {
            panic!("{s:?} -> {t:?} failed: {out:?}");
        };
        let walked: Vec<EdgeId> = trace.steps.iter().map(|st| st.edge).collect();
        let installed: Vec<EdgeId> = splicing
            .arena()
            .plane(0)
            .path(s, t)
            .map(|(_, e)| e)
            .collect();
        assert_eq!(walked, installed, "{s:?} -> {t:?}");
    }
}

/// The paper's Figure 1 motif, end to end: failures that would kill both
/// vanilla paths are survivable by splicing unless they form a cut.
#[test]
fn splicing_survives_non_cut_failures_on_geant() {
    let topo = geant();
    let g = topo.graph();
    let k = 6;
    let splicing = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), 21);

    // Find a pair whose slices diverge at the source, so that failing the
    // slice-0 first hop is survivable by splicing. (Not every pair is:
    // stub PoPs whose alternative egress is far longer route identically
    // in every perturbed slice — the reliability shortfall splicing
    // cannot close, see EXPERIMENTS.md.)
    let mut chosen = None;
    'outer: for src in g.nodes() {
        for dst in g.nodes() {
            if src == dst {
                continue;
            }
            let Some((_, e0)) = splicing.next_hop(0, src, dst) else {
                continue;
            };
            let mask = EdgeMask::from_failed(g.edge_count(), &[e0]);
            if splicing.reachable_to(dst, k, &mask)[src.index()] {
                chosen = Some((src, dst, e0, mask));
                break 'outer;
            }
        }
    }
    let (src, dst, _e0, mask) =
        chosen.expect("GEANT with 6 slices must have some survivable first-hop failure");
    assert!(
        path_splicing::graph::traversal::connected(&g, src, dst, &mask),
        "directed spliced reachability implies graph connectivity"
    );

    // And an actual recovery walk finds it.
    let fwd = Forwarder::new(&splicing, &mask);
    let mut rng = Rng::seed_from_u64(5);
    let out = EndSystemRecovery {
        max_trials: 25,
        ..Default::default()
    }
    .recover(&fwd, src, dst, 0, &ForwarderOptions::default(), &mut rng);
    assert!(
        out.recovered,
        "recovery failed on a reachable pair: {out:?}"
    );
}

/// Cut failures are not survivable by anything — splicing must not claim
/// otherwise (no false recovery).
#[test]
fn splicing_never_recovers_across_a_cut() {
    let topo = sprint();
    let g = topo.graph();
    let k = 5;
    let splicing = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), 4);

    // Cut off Tacoma entirely (its 2 incident links).
    let tacoma = topo.node_by_name("Tacoma").unwrap();
    let incident: Vec<_> = g.neighbors(tacoma).iter().map(|&(_, e)| e).collect();
    let mask = EdgeMask::from_failed(g.edge_count(), &incident);

    for t in g.nodes() {
        if t == tacoma {
            continue;
        }
        let reach = splicing.reachable_to(t, k, &mask);
        assert!(
            !reach[tacoma.index()],
            "claimed to reach {t:?} across a cut"
        );
        let union = splicing.union_reachable_to(t, k, &mask);
        assert!(!union[tacoma.index()]);
    }

    let fwd = Forwarder::new(&splicing, &mask);
    let mut rng = Rng::seed_from_u64(9);
    let out = EndSystemRecovery::default().recover(
        &fwd,
        tacoma,
        topo.node_by_name("Chicago").unwrap(),
        0,
        &ForwarderOptions::default(),
        &mut rng,
    );
    assert!(!out.recovered);
}

/// Slice 0 must behave exactly like vanilla OSPF: same next hops, same
/// path costs, for every pair on both paper topologies.
#[test]
fn slice_zero_is_vanilla_shortest_path_routing() {
    for topo in [sprint(), geant()] {
        let g = topo.graph();
        let splicing = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 77);
        let w = g.base_weights();
        for t in g.nodes() {
            let spt = path_splicing::graph::dijkstra(&g, t, &w);
            for s in g.nodes() {
                if s == t {
                    continue;
                }
                assert_eq!(
                    splicing.next_hop(0, s, t).map(|(n, _)| n),
                    spt.next_hop(s),
                    "{}: slice-0 FIB diverges at {s:?} -> {t:?}",
                    topo.name
                );
            }
        }
    }
}
