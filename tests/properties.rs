//! Workspace-level property tests: splicing invariants under arbitrary
//! topologies, failure sets, and headers.

use path_splicing::graph::NodeId;
use path_splicing::splicing::prelude::*;
use path_splicing::splicing::slices::SplicingConfig;
use proptest::prelude::*;
// Ring-backbone graph + failure mask + seed, from the shared testkit
// strategy library.
use splice_testkit::strategies::arb_backbone_scenario as arb_scenario;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the topology, failures, and seed: spliced reachability is
    /// monotone in k, bounded by the union semantics, and never exceeds
    /// plain graph connectivity.
    #[test]
    fn reachability_sandwich((g, mask, seed) in arb_scenario()) {
        let k = 4;
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
        let mut last = usize::MAX;
        for kk in 1..=k {
            let d = sp.disconnected_pairs(kk, &mask);
            prop_assert!(d <= last, "not monotone in k");
            last = d;
            let u = sp.union_disconnected_pairs(kk, &mask);
            prop_assert!(u <= d, "union disconnects more than directed");
            let best = path_splicing::graph::traversal::disconnected_pairs(&g, &mask);
            prop_assert!(best <= u, "splicing beats physics");
        }
    }

    /// Any delivered forwarding walk is a valid walk over up edges ending
    /// at the destination, and its recorded metrics are self-consistent.
    #[test]
    fn delivered_traces_are_valid((g, mask, seed) in arb_scenario(), hops in proptest::collection::vec(0u8..4, 1..20)) {
        let k = 4;
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
        let fwd = Forwarder::new(&sp, &mask);
        let opts = ForwarderOptions::default();
        let n = g.node_count() as u32;
        for s in 0..n {
            for t in 0..n {
                if s == t { continue; }
                let header = ForwardingBits::from_hops(&hops, k);
                if let ForwardingOutcome::Delivered(tr) =
                    fwd.forward(NodeId(s), NodeId(t), header, &opts)
                {
                    prop_assert_eq!(tr.src, NodeId(s));
                    prop_assert_eq!(tr.last, NodeId(t));
                    let mut at = NodeId(s);
                    for step in &tr.steps {
                        prop_assert_eq!(step.node, at);
                        let e = g.edge(step.edge);
                        prop_assert!(mask.is_up(step.edge), "walked a failed link");
                        prop_assert!(e.touches(at));
                        at = e.other(at);
                        prop_assert!(step.slice < k);
                    }
                    prop_assert_eq!(at, NodeId(t));
                }
            }
        }
    }

    /// Recovery never succeeds across a physical cut, and any success it
    /// reports comes with a genuine delivered trace avoiding failed links.
    #[test]
    fn recovery_success_is_honest((g, mask, seed) in arb_scenario()) {
        let k = 3;
        let sp = Splicing::build(&g, &SplicingConfig::uniform(k, 2.0), seed);
        let fwd = Forwarder::new(&sp, &mask);
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let rec = EndSystemRecovery { max_trials: 3, ..Default::default() };
        let n = g.node_count() as u32;
        for s in 0..n.min(4) {
            for t in 0..n.min(4) {
                if s == t { continue; }
                let out = rec.recover(&fwd, NodeId(s), NodeId(t), 0, &ForwarderOptions::default(), &mut rng);
                if out.recovered {
                    let tr = out.delivery.as_ref().unwrap();
                    prop_assert!(tr.steps.iter().all(|st| mask.is_up(st.edge)));
                    prop_assert!(
                        path_splicing::graph::traversal::connected(&g, NodeId(s), NodeId(t), &mask),
                        "recovered across a cut"
                    );
                }
            }
        }
    }

    /// Header round-trips: arbitrary hop sequences encode, serialize, and
    /// decode to the same per-hop slice choices.
    #[test]
    fn header_roundtrip_arbitrary(hops in proptest::collection::vec(0u8..8, 0..16), kexp in 1u32..=3) {
        let k = 1usize << kexp; // 2, 4, 8
        let clamped: Vec<u8> = hops.iter().map(|&h| h % k as u8).collect();
        let header = ForwardingBits::from_hops(&clamped, k);
        let mut wire = ForwardingBits::from_bytes(&header.to_bytes()).unwrap();
        for &expect in &clamped {
            prop_assert_eq!(wire.read_and_shift(k), Some(expect as usize));
        }
        prop_assert_eq!(wire.read_and_shift(k), None);
    }
}
