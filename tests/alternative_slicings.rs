//! Cross-crate invariants of the alternative slice constructions: MRC
//! configurations, coverage-aware perturbation, metric-based overlay
//! slices, and ECMP all plug into the same `Splicing` machinery — these
//! tests pin that they compose correctly with forwarding and recovery.

use path_splicing::graph::{EdgeMask, NodeId};
use path_splicing::routing::ecmp::{ecmp_disconnected_pairs, ecmp_sets};
use path_splicing::splicing::coverage::{build_coverage_aware, CoverageConfig};
use path_splicing::splicing::mrc::{
    build_mrc, isolating_slice, mrc_assignment, protected_fraction,
};
use path_splicing::splicing::prelude::*;
use path_splicing::splicing::slices::SplicingConfig;
use path_splicing::topology::geant::geant;

/// MRC slices drive the standard forwarder: pinning the header to the
/// isolating slice routes around the failed link end-to-end.
#[test]
fn mrc_slices_work_with_forwarding_bits() {
    let topo = geant();
    let g = topo.graph();
    // Find a k that protects every GEANT link.
    let k = (2..=12)
        .find(|&k| protected_fraction(&mrc_assignment(&g, k - 1)) == 1.0)
        .expect("GEANT is bridge-free");
    let mrc = build_mrc(&g, k);
    let opts = ForwarderOptions::default();

    for e in g.edge_ids().step_by(5) {
        let slice = isolating_slice(&g, k, e).expect("protected");
        let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
        let fwd = Forwarder::new(&mrc, &mask);
        for (s, t) in [(0u32, 12u32), (17, 3), (9, 20)] {
            let out = fwd.forward(
                NodeId(s),
                NodeId(t),
                ForwardingBits::stay_in_slice(slice, k),
                &opts,
            );
            assert!(
                out.is_delivered(),
                "isolating slice {slice} must deliver {s}->{t} around {e:?}: {out:?}"
            );
            // And the delivered walk avoids the failed link by construction.
            assert!(out.trace().steps.iter().all(|st| st.edge != e));
        }
    }
}

/// Coverage-aware and MRC constructions both keep slice 0 = vanilla
/// shortest paths, so `k = 1` behaves identically across constructions.
#[test]
fn all_constructions_share_the_base_slice() {
    let g = geant().graph();
    let random = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 5);
    let aware = build_coverage_aware(
        &g,
        &CoverageConfig {
            base: SplicingConfig::degree_based(4, 0.0, 3.0),
            penalty: 1.0,
        },
        5,
    );
    let mrc = build_mrc(&g, 4);
    let mask = EdgeMask::all_up(g.edge_count());
    for t in g.nodes() {
        let a = random.reachable_to(t, 1, &mask);
        let b = aware.reachable_to(t, 1, &mask);
        let c = mrc.reachable_to(t, 1, &mask);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
    assert_eq!(random.weights(0), mrc.weights(0));
}

/// The k=1 spliced disconnection equals ECMP disconnection whenever the
/// weights have no equal-cost ties (single next hops on both sides).
#[test]
fn ecmp_equals_single_slice_without_ties() {
    let g = geant().graph();
    let w = g.base_weights();
    // Verify tie-freeness first (distance weights are continuous).
    let tie_free = g
        .nodes()
        .all(|t| ecmp_sets(&g, t, &w).sets.iter().all(|s| s.len() <= 1));
    assert!(tie_free, "GEANT distance weights should have no exact ties");

    let sp = Splicing::build(&g, &SplicingConfig::degree_based(1, 0.0, 3.0), 1);
    for seed in [1u64, 2, 3] {
        let mut mask = EdgeMask::all_up(g.edge_count());
        // Deterministic pseudo-random failures.
        for e in g.edge_ids() {
            if (seed.wrapping_mul(0x9e3779b97f4a7c15)
                ^ (e.0 as u64).wrapping_mul(0x517cc1b727220a95))
            .is_multiple_of(10)
            {
                mask.fail(e);
            }
        }
        assert_eq!(
            sp.disconnected_pairs(1, &mask),
            ecmp_disconnected_pairs(&g, &w, &mask),
            "seed {seed}: tie-free ECMP must equal single-path routing"
        );
    }
}

/// Recovery strategies accept any construction: counter recovery over
/// MRC slices finds the engineered detours too.
#[test]
fn counter_recovery_over_mrc() {
    use path_splicing::splicing::recovery::CounterRecovery;
    let g = geant().graph();
    let k = (2..=12)
        .find(|&k| protected_fraction(&mrc_assignment(&g, k - 1)) == 1.0)
        .unwrap();
    let mrc = build_mrc(&g, k);
    // Fail the hash-slice first hop of a pair and sweep counters.
    let (s, t) = (NodeId(2), NodeId(18));
    let hash_slice = path_splicing::splicing::hash::slice_for_flow(s, t, k);
    let (_, edge) = mrc.next_hop(hash_slice, s, t).unwrap();
    let mask = EdgeMask::from_failed(g.edge_count(), &[edge]);
    let fwd = Forwarder::new(&mrc, &mask);
    let out =
        CounterRecovery { max_trials: k + 2 }.recover(&fwd, s, t, &ForwarderOptions::default());
    assert!(out.recovered, "{out:?}");
}
