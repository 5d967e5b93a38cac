//! Property-based tests for the splicing primitive.

use splice_core::coverage::{build_coverage_aware, CoverageConfig};
use splice_core::header::{bits_per_hop, CounterHeader, ForwardingBits};
use splice_core::perturb::PerturbationKind;
use splice_core::recovery::{HeaderStrategy, NetworkRecovery};
use splice_core::slices::{RepairEvent, Splicing, SplicingConfig};
use splice_core::strategy::{slice_seed, StrategyKind};
use splice_graph::graph::from_edges;
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId, Rng, SpfWorkspace};
use splice_routing::SpliceFib;
// Ring-backbone graphs (always initially connected) and masked
// multigraphs from the shared testkit generators.
use splice_testkit::strategies::{backbone_graph, multigraph_with_mask, vec_of};
use splice_testkit::{memo_divergence, run_cases};

/// An index below `len` from a raw draw, for a pick whose range depends
/// on the kind of event it ends up in.
fn pick(sel: u64, len: usize) -> usize {
    (sel % len as u64) as usize
}

/// One event of a random schedule: a kind below `kinds`, two raw picks,
/// and a reweight factor below or above one.
fn event_spec(rng: &mut Rng, kinds: usize) -> (usize, u64, u64, f64) {
    let factor = if rng.gen_bool(0.5) {
        rng.gen_range_f64(0.2..0.9)
    } else {
        rng.gen_range_f64(1.2..4.0)
    };
    (
        rng.gen_range(0..kinds),
        rng.next_u64(),
        rng.next_u64(),
        factor,
    )
}

/// Perturbed weights never fall below base and respect the Weight
/// budget: `L <= L' < L·(1 + W)` with `W <= b` (degree-based)
/// or `W = strength` (uniform).
#[test]
fn perturbation_bounds() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let strength = rng.gen_range_f64(0.0..5.0);
        let b = rng.gen_range_f64(0.0..5.0);
        let mut rng = Rng::seed_from_u64(seed);
        let u = PerturbationKind::uniform(strength).perturb(&g, &mut rng);
        for (i, e) in g.edges().iter().enumerate() {
            assert!(u[i] >= e.weight);
            assert!(u[i] < e.weight * (1.0 + strength) + 1e-9);
        }
        let d = PerturbationKind::degree_based(0.0, b).perturb(&g, &mut rng);
        for (i, e) in g.edges().iter().enumerate() {
            assert!(d[i] >= e.weight);
            assert!(d[i] < e.weight * (1.0 + b) + 1e-9);
        }
    });
}

/// Slice i is identical whether built as part of a k-slice or a
/// k'-slice deployment (k' > k): the incremental-k methodology.
#[test]
fn slice_prefix_stability() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let small = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), seed);
        let large = Splicing::build(&g, &SplicingConfig::degree_based(6, 0.0, 3.0), seed);
        for i in 0..3 {
            assert_eq!(small.weights(i), large.weights(i));
        }
        // prefix() equals building small directly.
        let prefix = large.prefix(3);
        for i in 0..3 {
            assert_eq!(prefix.weights(i), small.weights(i));
        }
    });
}

/// The fused fill is entry-for-entry the un-fused reference: for
/// every (slice, router, dst) the arena lookup equals `u`'s parent in
/// a standalone Dijkstra rooted at `t` under the same weight vector
/// (no arena, no shared workspace).
#[test]
fn arena_matches_unfused_dijkstra() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(1..=5usize);
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
        for slice in 0..k {
            let spts = splice_graph::dijkstra::all_destinations(&g, sp.weights(slice));
            for u in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        sp.next_hop(slice, u, t),
                        spts[t.index()].parent[u.index()],
                        "slice {} {:?} -> {:?}",
                        slice,
                        u,
                        t
                    );
                }
            }
        }
    });
}

/// A k-prefix view shares the arena (zero-copy) yet forwards exactly
/// like an independently built k-slice splicing.
#[test]
fn prefix_views_match_smaller_builds() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(1..=4usize);
        let big = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), seed);
        let view = big.prefix(k);
        assert!(std::sync::Arc::ptr_eq(view.arena(), big.arena()));
        let rebuilt = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
        assert_eq!(view.k(), rebuilt.k());
        for slice in 0..k {
            assert_eq!(view.weights(slice), rebuilt.weights(slice));
            for u in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(view.next_hop(slice, u, t), rebuilt.next_hop(slice, u, t));
                }
            }
        }
        assert_eq!(view.total_state(), rebuilt.total_state());
        assert_eq!(view.state_bytes(), rebuilt.state_bytes());
    });
}

/// Every deployment of a strategy with delta repair carries its SPF
/// distances from the start, bit for bit the chain fold of its arena: a
/// build, one from explicit weight vectors, a coverage-aware build and a
/// prefix view. Rebuild-only strategies carry none. Repairing a prefix
/// view leaves exactly its k planes' worth and its source untouched, and
/// a deployment assembled from parts derives them on its first repair.
#[test]
fn deployments_carry_complete_distances_from_the_start() {
    run_cases(24, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(2..=4usize);
        let cfg = SplicingConfig::degree_based(k, 0.0, 3.0);
        let built = Splicing::build(&g, &cfg, seed);
        let vectors = (0..k).map(|s| built.weights(s).to_vec()).collect();
        let coverage = CoverageConfig {
            base: cfg.clone(),
            penalty: 0.5,
        };
        let view = built.prefix(k - 1);
        for (name, sp) in [
            ("build", &built),
            (
                "weight vectors",
                &Splicing::from_weight_vectors(&g, vectors),
            ),
            ("coverage-aware", &build_coverage_aware(&g, &coverage, seed)),
            ("prefix view", &view),
        ] {
            let memo = sp
                .distances()
                .unwrap_or_else(|| panic!("{name}: no distances"));
            if let Some(d) = memo_divergence(&g, sp, memo) {
                panic!("{name}: {d}");
            }
        }

        let e = EdgeId(pick(rng.next_u64(), g.edge_count()) as u32);
        for strategy in StrategyKind::ALL {
            if strategy.supports_delta_repair() {
                continue;
            }
            let sp = Splicing::build(&g, &cfg.clone().with_strategy(strategy), seed);
            let repaired = sp.repair(&g, &RepairEvent::LinkFailure(e));
            assert!(sp.distances().is_none() && repaired.distances().is_none());
        }

        let before = built.distances().unwrap().clone();
        let repaired = view.repair(&g, &RepairEvent::LinkFailure(e));
        let memo = repaired.distances().expect("a repaired delta deployment");
        assert_eq!((memo.k(), memo.n()), (k - 1, g.node_count()));
        assert_eq!(memo_divergence(&g, &repaired, memo), None);
        assert!(std::ptr::eq(
            view.distances().unwrap(),
            built.distances().unwrap()
        ));
        assert!(
            built.distances().unwrap() == &before,
            "the view's source is untouched"
        );

        let weights = (0..k).map(|s| built.weights(s).to_vec()).collect();
        let parts = Splicing::from_parts(
            weights,
            built.arena().clone_prefix(k),
            built.failed_mask().clone(),
        );
        assert!(parts.distances().is_none());
        let repaired = parts.repair(&g, &RepairEvent::LinkFailure(e));
        let memo = repaired.distances().expect("a repair derives them");
        assert_eq!(memo_divergence(&g, &repaired, memo), None);
        let want = built.repair(&g, &RepairEvent::LinkFailure(e));
        assert!(repaired.arena().slabs() == want.arena().slabs());
        assert!(repaired.distances() == want.distances());
    });
}

/// With no failures, every pair is spliced-reachable at every k,
/// under both semantics (the backbone ring keeps the graph connected).
#[test]
fn clean_network_fully_reachable() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), seed);
        let mask = EdgeMask::all_up(g.edge_count());
        for k in 1..=4 {
            assert_eq!(sp.disconnected_pairs(k, &mask), 0);
            assert_eq!(sp.union_disconnected_pairs(k, &mask), 0);
        }
    });
}

/// The tentpole invariant: repairing a deployment after an event is
/// next-hop-identical, for every (slice, router, dst), to rebuilding
/// every slice plane from scratch on the post-event topology.
#[test]
fn repair_equals_rebuild() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(1..=5usize);
        let m = g.edge_count() as u32;
        let mut failed = vec_of(rng, 1..=3, |r| EdgeId(r.gen_range(0..m)));
        let node = NodeId(rng.gen_range(0..g.node_count() as u32));
        let reweighted = EdgeId(rng.gen_range(0..m));
        let factor = if rng.gen_bool(0.5) {
            rng.gen_range_f64(0.15..0.9)
        } else {
            rng.gen_range_f64(1.2..6.0)
        };
        let which = rng.gen_range(0..3usize);
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
        let event = match which {
            0 => {
                failed.dedup();
                RepairEvent::LinkSetFailure(failed)
            }
            1 => RepairEvent::NodeFailure(node),
            _ => RepairEvent::SliceReweight {
                slice: k - 1,
                edge: reweighted,
                new_weight: sp.weights(k - 1)[reweighted.index()] * factor,
            },
        };
        let (repaired, stats) = sp
            .try_repair_batch_recycling(&g, std::slice::from_ref(&event), None, None)
            .expect("generated reweights are positive and finite");
        // Oracle: fresh masked Dijkstra per (slice, dst) on the repaired
        // deployment's own weights and failure mask.
        let mut ws = SpfWorkspace::new();
        for slice in 0..k {
            for t in g.nodes() {
                ws.run(&g, t, repaired.weights(slice), Some(repaired.failed_mask()));
                for u in g.nodes() {
                    assert_eq!(
                        repaired.next_hop(slice, u, t),
                        ws.parents()[u.index()],
                        "slice {} {:?} -> {:?} after {:?}",
                        slice,
                        u,
                        t,
                        &event
                    );
                }
            }
        }
        // Stats accounting stays within the arena's bounds.
        assert!(stats.patched_columns + stats.skipped_columns <= k * g.node_count());
    });
}

/// Stacked repairs compose: two successive link failures equal the
/// batch failure of both links, plane for plane.
#[test]
fn stacked_repairs_compose() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let m = g.edge_count() as u32;
        let (a, b) = (EdgeId(rng.gen_range(0..m)), EdgeId(rng.gen_range(0..m)));
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), seed);
        let stacked = sp
            .repair(&g, &RepairEvent::LinkFailure(a))
            .repair(&g, &RepairEvent::LinkFailure(b));
        let batch = sp.repair(&g, &RepairEvent::LinkSetFailure(vec![a, b]));
        for slice in 0..3 {
            for u in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        stacked.next_hop(slice, u, t),
                        batch.next_hop(slice, u, t),
                        "slice {} {:?} -> {:?} failing {:?} then {:?}",
                        slice,
                        u,
                        t,
                        a,
                        b
                    );
                }
            }
        }
    });
}

/// The batch-repair invariant: `repair_batch(events)` is bit-identical
/// to folding the events through `repair` one at a time — same failed
/// mask, same weight bits, same (next hop, out edge) for every
/// (slice, router, dst) — under every slice-construction strategy.
#[test]
fn batched_repairs_equal_folded_repairs() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(1..=4usize);
        let strategy_sel = rng.gen_range(0..4usize);
        let specs = vec_of(rng, 0..6, |r| event_spec(r, 4));
        let strategy = [
            StrategyKind::PerturbedSpf,
            StrategyKind::RandomSpanningTree,
            StrategyKind::LowStretchTree,
            StrategyKind::ArcDisjointFailover,
        ][strategy_sel];
        let cfg = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(strategy);
        let sp = Splicing::build(&g, &cfg, seed);
        let events: Vec<RepairEvent> = specs
            .iter()
            .map(|&(which, a, b, factor)| match which {
                0 => RepairEvent::LinkFailure(EdgeId(pick(a, g.edge_count()) as u32)),
                1 => RepairEvent::LinkSetFailure(vec![
                    EdgeId(pick(a, g.edge_count()) as u32),
                    EdgeId(pick(b, g.edge_count()) as u32),
                ]),
                2 => RepairEvent::NodeFailure(splice_graph::NodeId(pick(a, g.node_count()) as u32)),
                _ => {
                    let slice = pick(b, k);
                    let edge = EdgeId(pick(a, g.edge_count()) as u32);
                    RepairEvent::SliceReweight {
                        slice,
                        edge,
                        new_weight: sp.weights(slice)[edge.index()] * factor,
                    }
                }
            })
            .collect();
        let folded = events.iter().fold(sp.clone(), |acc, ev| acc.repair(&g, ev));
        let batched = sp.repair_batch(&g, &events);
        assert_eq!(
            folded.failed_mask().failed_edges().collect::<Vec<_>>(),
            batched.failed_mask().failed_edges().collect::<Vec<_>>()
        );
        for slice in 0..k {
            for (x, y) in folded.weights(slice).iter().zip(batched.weights(slice)) {
                assert_eq!(x.to_bits(), y.to_bits(), "slice {} weight bits", slice);
            }
            for u in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        folded.next_hop(slice, u, t),
                        batched.next_hop(slice, u, t),
                        "slice {} {:?} -> {:?} over {:?} with {:?}",
                        slice,
                        u,
                        t,
                        &events,
                        strategy
                    );
                }
            }
        }
    });
}

/// Restore ≡ rebuild: a random interleaving of failures, restores
/// and reweights, absorbed one event at a time, three at a time, or
/// all at once, ends on the very bytes a from-scratch build at the
/// final weights plus one failure set for the final mask ends on —
/// under every slice-construction strategy.
#[test]
fn interleaved_fails_restores_and_reweights_equal_a_fresh_build() {
    run_cases(64, |rng| {
        let g = backbone_graph(rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(1..=4usize);
        let strategy_sel = rng.gen_range(0..4usize);
        let specs = vec_of(rng, 1..12, |r| event_spec(r, 6));
        let strategy = StrategyKind::ALL[strategy_sel];
        let sp = if strategy == StrategyKind::PerturbedSpf {
            // Small integer weights: equal-cost routes everywhere, so the
            // `(parent, edge)` tie-break decides most columns.
            let mut h = seed;
            let vectors = (0..k)
                .map(|_| {
                    (0..g.edge_count())
                        .map(|_| {
                            h = splice_core::hash::splitmix64(h);
                            1.0 + (h % 3) as f64
                        })
                        .collect()
                })
                .collect();
            Splicing::from_weight_vectors(&g, vectors)
        } else {
            let cfg = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(strategy);
            Splicing::build(&g, &cfg, seed)
        };
        // Shadow state: what the mask and weights should end up as.
        let mut mask = EdgeMask::all_up(g.edge_count());
        let mut weights: Vec<Vec<f64>> = (0..k).map(|s| sp.weights(s).to_vec()).collect();
        let mut reweighted: Vec<(usize, EdgeId)> = Vec::new();
        let edge = |sel: u64| EdgeId(pick(sel, g.edge_count()) as u32);
        let events: Vec<RepairEvent> = specs
            .iter()
            .map(|&(which, a, b, factor)| match which {
                0 => {
                    mask.fail(edge(a));
                    RepairEvent::LinkFailure(edge(a))
                }
                1 => {
                    mask.fail(edge(a));
                    mask.fail(edge(b));
                    RepairEvent::LinkSetFailure(vec![edge(a), edge(b)])
                }
                2 => {
                    let v = splice_graph::NodeId(pick(a, g.node_count()) as u32);
                    g.neighbors(v).iter().for_each(|&(_, e)| mask.fail(e));
                    RepairEvent::NodeFailure(v)
                }
                3 => {
                    let (slice, e) = (pick(b, k), edge(a));
                    weights[slice][e.index()] *= factor;
                    if !reweighted.contains(&(slice, e)) {
                        reweighted.push((slice, e));
                    }
                    RepairEvent::SliceReweight {
                        slice,
                        edge: e,
                        new_weight: weights[slice][e.index()],
                    }
                }
                _ => {
                    // Mostly a link that is down; an up link (a no-op
                    // restore) when none is.
                    let down: Vec<EdgeId> = mask.failed_edges().collect();
                    let e = if down.is_empty() {
                        edge(a)
                    } else {
                        down[pick(a, down.len())]
                    };
                    mask.restore(e);
                    RepairEvent::LinkRestore(e)
                }
            })
            .collect();
        let still_down = RepairEvent::LinkSetFailure(mask.failed_edges().collect());
        let fresh = if strategy == StrategyKind::PerturbedSpf {
            Splicing::try_from_weight_vectors(&g, weights.clone())
                .expect("factors keep weights positive and finite")
                .repair(&g, &still_down)
        } else {
            // Tree constructions draw from the build seed: rebuild from
            // the fresh deployment at the final weights and mask.
            let mut carry: Vec<RepairEvent> = reweighted
                .iter()
                .map(|&(slice, e)| RepairEvent::SliceReweight {
                    slice,
                    edge: e,
                    new_weight: weights[slice][e.index()],
                })
                .collect();
            carry.push(still_down);
            sp.repair_batch(&g, &carry)
        };
        for batch in [1, 3, events.len()] {
            let landed = events
                .chunks(batch)
                .fold(sp.clone(), |acc, chunk| acc.repair_batch(&g, chunk));
            assert_eq!(landed.failed_mask(), &mask, "batch {}", batch);
            for (slice, want) in weights.iter().enumerate() {
                for (x, y) in landed.weights(slice).iter().zip(want) {
                    assert_eq!(x.to_bits(), y.to_bits(), "slice {} weight bits", slice);
                }
            }
            assert!(
                landed.arena().slabs() == fresh.arena().slabs(),
                "batch {} of {:?} under {:?} diverged from the fresh build",
                batch,
                &events,
                strategy
            );
        }
    });
}

/// The rooted-forest fill kernel against the construction it
/// replaced, on multigraphs (parallel links included) under random
/// masks — half the links down on average, so several components and
/// stranded nodes are the common case — with one more node cut off
/// outright.
#[test]
fn forest_kernel_matches_per_destination_orientation() {
    run_cases(64, |rng| {
        let (g, mut mask) = multigraph_with_mask(rng);
        let seed = rng.next_u64();
        let stranded = NodeId(rng.gen_range(0..g.node_count() as u32));
        g.neighbors(stranded)
            .iter()
            .for_each(|&(_, e)| mask.fail(e));
        assert_forest_kernel_matches_reference(&g, &mask, seed);
    });
}

/// The kernel's deflecting instantiation against the hand-written
/// loop it replaced: every pair, every initial slice, all four
/// strategies, on multigraphs built whole and walked under masks that
/// take half the links down — dead first hops, deflection ping-pong
/// and cut-off nodes are the common case — and under a sparser mask
/// where deflected walks run long.
#[test]
fn deflecting_kernel_matches_the_pre_fold_loop() {
    run_cases(64, |rng| {
        let (g, mask) = multigraph_with_mask(rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(1..=4usize);
        let m = g.edge_count() as u32;
        let failed = vec_of(rng, 0..=2, |r| EdgeId(r.gen_range(0..m)));
        assert_deflecting_walk_matches_reference(&g, &mask, seed, k);
        let sparse = EdgeMask::from_failed(g.edge_count(), &failed);
        assert_deflecting_walk_matches_reference(&g, &sparse, seed, k);
    });
}

/// Perturbations are total over any graph the constructor accepts —
/// including near-degenerate tiny weights — and never produce an
/// invalid vector from a valid one.
#[test]
fn perturbations_total_and_valid() {
    run_cases(64, |rng| {
        let seed = rng.next_u64();
        let w = if rng.gen_bool(0.5) {
            rng.gen_range_f64(1e-300..1e-290)
        } else {
            rng.gen_range_f64(1e-9..10.0)
        };
        let g = from_edges(3, &[(0, 1, w), (1, 2, 1.0), (2, 0, w)]);
        let mut rng = Rng::seed_from_u64(seed);
        for v in [
            PerturbationKind::uniform(3.0).perturb(&g, &mut rng),
            PerturbationKind::degree_based(0.0, 3.0).perturb(&g, &mut rng),
            PerturbationKind::theorem_a1(2.0, 4).perturb(&g, &mut rng),
        ] {
            assert!(v.iter().all(|x| x.is_finite() && *x > 0.0));
        }
    });
}

/// Header encoding: any hop sequence below k survives encode + wire
/// round-trip + decode; reading consumes exactly the encoded hops.
#[test]
fn forwarding_bits_roundtrip() {
    run_cases(64, |rng| {
        let hops = vec_of(rng, 0..20, |r| r.gen_range(0..10u8));
        let k = rng.gen_range(2..=10usize);
        let clamped: Vec<u8> = hops.iter().map(|&h| h % k as u8).collect();
        if clamped.len() * bits_per_hop(k) as usize > 128 {
            return;
        }
        let h = ForwardingBits::from_hops(&clamped, k);
        assert_eq!(h.remaining_hops(), clamped.len());
        let mut wire = ForwardingBits::from_bytes(&h.to_bytes()).unwrap();
        for &expect in &clamped {
            assert_eq!(wire.read_and_shift(k), Some(expect as usize));
        }
        assert!(wire.is_exhausted());
    });
}

/// Corrupted shims never decode to something that panics the reader:
/// either rejected, or decoded and readable to exhaustion. Decoding
/// is also canonical: whatever `from_bytes` accepts re-encodes to the
/// very same 18 bytes (so no shim carries dead state above
/// `len_bits`).
#[test]
fn corrupted_shim_is_safe() {
    run_cases(64, |rng| {
        let bytes = vec_of(rng, 18..=18, |r| r.next_u64() as u8);
        let k = rng.gen_range(1..=10usize);
        if let Some(mut h) = ForwardingBits::from_bytes(&bytes) {
            assert_eq!(
                h.to_bytes().to_vec(),
                bytes.clone(),
                "decode -> encode must be the identity on accepted shims"
            );
            let mut guard = 0;
            while h.read_and_shift(k).is_some() {
                guard += 1;
                assert!(guard <= 128, "reader failed to terminate");
            }
        }
    });
}

/// The counter header drains exactly its counter (for k > 1) and
/// every emitted slice stays in range.
#[test]
fn counter_header_drains() {
    run_cases(64, |rng| {
        let n = rng.gen_range(0..40u32);
        let k = rng.gen_range(2..=8usize);
        let start = rng.gen_range(0..8usize);
        let start = start % k;
        let mut c = CounterHeader::new(n);
        let mut slice = start;
        for _ in 0..n {
            let next = c.step(slice, k);
            assert!(next < k);
            assert_ne!(next, slice, "non-zero counter must deflect");
            slice = next;
        }
        assert_eq!(c.counter, 0);
        assert_eq!(c.step(slice, k), slice);
    });
}

/// Every header strategy produces in-range hop values and starts from
/// the base slice distributionally (first value equals base when no
/// flip happened — checked via the strategies' structural guarantees).
#[test]
fn strategies_generate_valid_hops() {
    run_cases(64, |rng| {
        let seed = rng.next_u64();
        let k = rng.gen_range(2..=8usize);
        let base = rng.gen_range(0..8usize);
        let flip = rng.gen_range_f64(0.0..=1.0);
        let base = base % k;
        let mut rng = Rng::seed_from_u64(seed);
        for strategy in [
            HeaderStrategy::Bernoulli { flip_prob: flip },
            HeaderStrategy::FirstHopBiased { flip_prob: flip },
            HeaderStrategy::NoRevisit { flip_prob: flip },
            HeaderStrategy::BoundedSwitches {
                flip_prob: flip,
                max_switches: 3,
            },
        ] {
            let hops = strategy.generate_hops(base, 20, k, &mut rng);
            assert_eq!(hops.len(), 20);
            assert!(hops.iter().all(|&h| (h as usize) < k));
            if flip == 0.0 {
                assert!(hops.iter().all(|&h| h as usize == base));
            }
        }
    });
}

/// The forest strategies as they were built before the rooted-forest
/// kernel, kept as its reference: Wilson's walk collecting each step's up
/// neighbors into a `Vec` and indexing it, the low-stretch SPTs on a
/// private workspace, and one breadth-first orientation of the tree per
/// destination, written down that destination's column.
mod reference {
    use splice_core::forwarding::{ForwardingOutcome, Trace, TraceStep};
    use splice_core::slices::Splicing;
    use splice_graph::{EdgeId, EdgeMask, Graph, NodeId, Rng, SpfWorkspace};
    use splice_routing::SpliceFib;
    use std::collections::{HashSet, VecDeque};

    /// `NetworkRecovery::forward` as it was before it became an
    /// instantiation of the walk kernel: its own hop loop, the loop check
    /// on the incoming slice ahead of the choice, alternates scanned from
    /// slice 0.
    pub fn network_recovery_walk(
        splicing: &Splicing,
        mask: &EdgeMask,
        src: NodeId,
        dst: NodeId,
        initial_slice: usize,
        ttl: usize,
    ) -> ForwardingOutcome {
        let k = splicing.k();
        let mut slice = initial_slice;
        let mut at = src;
        let mut steps = Vec::new();
        let mut seen: HashSet<(NodeId, usize)> = HashSet::new();
        let trace = |steps, last| Trace {
            src,
            dst,
            steps,
            last,
        };

        while at != dst {
            if !seen.insert((at, slice)) {
                return ForwardingOutcome::PersistentLoop(trace(steps, at));
            }
            let usable = |s: usize| {
                splicing
                    .next_hop(s, at, dst)
                    .filter(|&(_, e)| mask.is_up(e))
            };
            let chosen = match usable(slice) {
                Some(hop) => Some((slice, hop)),
                None => {
                    let candidates: Vec<usize> = (0..k)
                        .filter(|&s| s != slice && usable(s).is_some())
                        .collect();
                    candidates
                        .first()
                        .map(|&s| (s, usable(s).expect("candidate is usable")))
                }
            };
            let Some((new_slice, (next, edge))) = chosen else {
                return ForwardingOutcome::DeadEnd(trace(steps, at));
            };
            slice = new_slice;
            steps.push(TraceStep {
                node: at,
                slice,
                edge,
            });
            at = next;
            if steps.len() > ttl {
                return ForwardingOutcome::TtlExceeded(trace(steps, at));
            }
        }
        ForwardingOutcome::Delivered(trace(steps, at))
    }

    /// Lowest-id node of every connected component of the up subgraph.
    fn component_roots(g: &Graph, mask: &EdgeMask) -> Vec<NodeId> {
        let mut seen = vec![false; g.node_count()];
        let mut roots = Vec::new();
        let mut queue = VecDeque::new();
        for s in g.nodes() {
            if seen[s.index()] {
                continue;
            }
            roots.push(s);
            seen[s.index()] = true;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &(v, e) in g.neighbors(u) {
                    if mask.is_up(e) && !seen[v.index()] {
                        seen[v.index()] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        roots
    }

    pub fn wilson_edges(g: &Graph, mask: &EdgeMask, rng: &mut Rng) -> Vec<EdgeId> {
        let n = g.node_count();
        let mut in_tree = vec![false; n];
        let mut next: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut edges = Vec::new();
        for r in component_roots(g, mask) {
            in_tree[r.index()] = true;
        }
        let mut scratch: Vec<(NodeId, EdgeId)> = Vec::new();
        for start in g.nodes() {
            let mut u = start;
            while !in_tree[u.index()] {
                scratch.clear();
                scratch.extend(
                    g.neighbors(u)
                        .iter()
                        .copied()
                        .filter(|&(_, e)| mask.is_up(e)),
                );
                let &(v, e) = &scratch[rng.gen_range(0..scratch.len())];
                next[u.index()] = Some((v, e));
                u = v;
            }
            let mut u = start;
            while !in_tree[u.index()] {
                let (v, e) = next[u.index()].expect("walk recorded an exit");
                in_tree[u.index()] = true;
                edges.push(e);
                u = v;
            }
        }
        edges
    }

    pub fn low_stretch_edges(
        g: &Graph,
        weights: &[f64],
        mask: &EdgeMask,
        rng: &mut Rng,
    ) -> Vec<EdgeId> {
        let n = g.node_count();
        let root = NodeId(rng.gen_range(0..n as u32));
        let mut ws = SpfWorkspace::new();
        let mut edges = Vec::new();
        let mut covered = vec![false; n];
        let mut pending = vec![root];
        let mut next_probe = 0;
        while let Some(r) = pending.pop() {
            if covered[r.index()] {
                continue;
            }
            ws.run(g, r, weights, Some(mask));
            covered[r.index()] = true;
            for (i, p) in ws.parents().iter().enumerate() {
                if let Some((_, e)) = p {
                    covered[i] = true;
                    edges.push(*e);
                }
            }
            while next_probe < n && covered[next_probe] {
                next_probe += 1;
            }
            if next_probe < n {
                pending.push(NodeId(next_probe as u32));
            }
        }
        edges
    }

    /// Orient the tree toward every destination in turn and install each
    /// parent array as that destination's column of plane `slice`.
    pub fn fill_columns(g: &Graph, mut edges: Vec<EdgeId>, fib: &mut SpliceFib, slice: usize) {
        let n = g.node_count();
        edges.sort_unstable();
        edges.dedup();
        let mut adjacency = vec![Vec::new(); n];
        for &e in &edges {
            let edge = g.edge(e);
            adjacency[edge.u.index()].push((edge.v, e));
            adjacency[edge.v.index()].push((edge.u, e));
        }
        for root in g.nodes() {
            let mut parent = vec![None; n];
            let mut seen = vec![false; n];
            seen[root.index()] = true;
            let mut queue = VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                for &(v, e) in &adjacency[u.index()] {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        parent[v.index()] = Some((u, e));
                        queue.push_back(v);
                    }
                }
            }
            fib.plane_mut(slice).patch_column(root, &parent);
        }
    }
}

/// Every strategy's planes from the shipped `fill_slice`, written over a
/// plane pre-filled with garbage (the `StrategyKind::fill_plane` contract:
/// it "tolerates a dirty plane", which lets a repair rebuild a plane it
/// never copied), equal a construction on a clean one, slab for slab: the
/// [`reference`] construction for `tree` and `lst`, and the same
/// `fill_slice` over `SpliceFib::empty` for `arc` and perturbed-SPF.
fn assert_forest_kernel_matches_reference(g: &Graph, mask: &EdgeMask, seed: u64) {
    const K: usize = 2;
    let n = g.node_count();
    let weights = g.base_weights();
    let mut ws = SpfWorkspace::new();
    for kind in StrategyKind::ALL {
        let mut want = SpliceFib::empty(K, n);
        let mut got = SpliceFib::empty(K, n);
        for slice in 0..K {
            for u in g.nodes() {
                for t in g.nodes() {
                    let junk =
                        splice_core::hash::splitmix64(seed ^ (u.0 as u64) << 32 ^ t.0 as u64);
                    let junk = NodeId(u32::from(junk as u16 >> 1));
                    got.set(slice, u, t, Some((junk, EdgeId(t.0))));
                }
            }
            let mut rng = Rng::seed_from_u64(slice_seed(seed, slice));
            match kind {
                StrategyKind::RandomSpanningTree => {
                    let edges = reference::wilson_edges(g, mask, &mut rng);
                    reference::fill_columns(g, edges, &mut want, slice);
                }
                StrategyKind::LowStretchTree => {
                    let edges = reference::low_stretch_edges(g, &weights, mask, &mut rng);
                    reference::fill_columns(g, edges, &mut want, slice);
                }
                StrategyKind::PerturbedSpf | StrategyKind::ArcDisjointFailover => {
                    kind.fill_slice(g, slice, seed, &weights, mask, &mut ws, &mut want, None)
                }
            }
            kind.fill_slice(g, slice, seed, &weights, mask, &mut ws, &mut got, None);
        }
        assert!(
            got.slabs() == want.slabs(),
            "{kind:?} seed {seed} diverged from the reference on {g:?} under {mask:?}"
        );
    }
}

/// Two components, parallel links in the first.
fn islands() -> Graph {
    from_edges(
        7,
        &[
            (0, 1, 1.0),
            (0, 1, 2.0),
            (1, 2, 1.0),
            (2, 0, 3.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (5, 3, 1.0),
            (5, 6, 2.0),
            (6, 4, 1.0),
        ],
    )
}

/// The shapes the random graphs only probably reach, each pinned: a
/// single node, two components with parallel links in one, and a node
/// with every incident link failed.
#[test]
fn forest_kernel_matches_reference_on_degenerate_shapes() {
    let lone = from_edges(1, &[]);
    let islands = islands();
    for seed in 0..16 {
        assert_forest_kernel_matches_reference(&lone, &EdgeMask::all_up(0), seed);
        assert_forest_kernel_matches_reference(&islands, &EdgeMask::all_up(9), seed);
        // Node 4 loses all three of its links and becomes a third,
        // single-node component.
        let cut = EdgeMask::from_failed(9, &[EdgeId(4), EdgeId(5), EdgeId(8)]);
        assert_forest_kernel_matches_reference(&islands, &cut, seed);
    }
}

/// The shipped [`NetworkRecovery::forward`] returns the very
/// `ForwardingOutcome` — variant, every step, `last` — the
/// [`reference`] loop returns, for every ordered pair and initial slice,
/// under each strategy's deployment of the whole graph, at a hop budget
/// of one, of a few, and the default.
fn assert_deflecting_walk_matches_reference(g: &Graph, mask: &EdgeMask, seed: u64, k: usize) {
    for kind in StrategyKind::ALL {
        let cfg = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(kind);
        let sp = Splicing::build(g, &cfg, seed);
        for ttl in [1, 3, 64] {
            let nr = NetworkRecovery { ttl };
            for (s, t) in g.nodes().flat_map(|s| g.nodes().map(move |t| (s, t))) {
                for slice in 0..k {
                    assert_eq!(
                        nr.forward(&sp, mask, s, t, slice),
                        reference::network_recovery_walk(&sp, mask, s, t, slice, ttl),
                        "{kind:?} seed {seed} ttl {ttl}: {s:?} -> {t:?} from slice {slice} \
                         on {g:?} under {mask:?}"
                    );
                }
            }
        }
    }
}

/// What the random masks only probably reach, pinned: a stranded node as
/// source, as destination and mid-path, a second component, and a source
/// equal to its destination.
#[test]
fn deflecting_kernel_matches_reference_around_a_stranded_node() {
    let islands = islands();
    // Node 4 loses all three of its links.
    let cut = EdgeMask::from_failed(9, &[EdgeId(4), EdgeId(5), EdgeId(8)]);
    for seed in 0..8 {
        for k in 1..=4 {
            assert_deflecting_walk_matches_reference(&islands, &cut, seed, k);
        }
    }
}
