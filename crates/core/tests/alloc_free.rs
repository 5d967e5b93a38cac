//! A warm repair allocates nothing per plane or per column: forest fills
//! and the delta-SPF repair run in per-thread scratch that is sized once
//! and reused, so the repair path of a long-running control plane never
//! reaches the allocator for them. A pass through the batch engine
//! allocates as often at any k: one copy of the distances when it shares
//! them, never one per plane. Checked at the allocator itself rather
//! than at each buffer's capacity — a buffer that regrows allocates, and
//! so would any temporary nobody thought to list.
//!
//! Its own test binary, because it replaces the global allocator.

use splice_core::slices::{RepairEvent, Splicing, SplicingConfig};
use splice_core::strategy::StrategyKind;
use splice_graph::{EdgeId, EdgeMask, Graph, SpfDelta, SpfWorkspace};
use splice_routing::{RepairStats, SpliceFib};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without
    /// a destructor, so touching it from inside the allocator is sound.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter bump neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warm_forest_fills_do_not_allocate() {
    const K: usize = 4;
    let g = splice_topology::resolve("rand-60-60-3")
        .expect("a generator spec")
        .graph();
    let m = g.edge_count();
    let masks = [
        EdgeMask::all_up(m),
        EdgeMask::from_failed(m, &[EdgeId(1), EdgeId(70), EdgeId(71), EdgeId(100)]),
        // Node 9 cut off: a second component.
        EdgeMask::from_failed(
            m,
            &g.neighbors(splice_graph::NodeId(9))
                .iter()
                .map(|&(_, e)| e)
                .collect::<Vec<_>>(),
        ),
    ];
    let weights = g.base_weights();
    let inputs: Vec<(usize, &EdgeMask)> = (0..K)
        .flat_map(|slice| masks.iter().map(move |mask| (slice, mask)))
        .collect();
    // `tree` sizes every buffer for the graph on its first fill. `lst`
    // also runs Dijkstra on the caller's workspace, whose heap peaks
    // differently from centre to centre, so its warm-up is one pass over
    // the inputs.
    for (kind, warm_up) in [
        (StrategyKind::RandomSpanningTree, 1),
        (StrategyKind::LowStretchTree, inputs.len()),
    ] {
        let mut fib = SpliceFib::empty(K, g.node_count());
        let mut ws = SpfWorkspace::new();
        let mut fill = |(slice, mask): (usize, &EdgeMask)| {
            kind.fill_slice(&g, slice, 42, &weights, mask, &mut ws, &mut fib, None)
        };
        inputs[..warm_up].iter().copied().for_each(&mut fill);
        let before = ALLOCATIONS.with(Cell::get);
        inputs.iter().cycle().take(100).copied().for_each(&mut fill);
        let after = ALLOCATIONS.with(Cell::get);
        assert_eq!(after - before, 0, "{kind:?}: 100 warm fills allocated");
    }
}

fn rand_60() -> Graph {
    splice_topology::resolve("rand-60-60-3")
        .expect("a generator spec")
        .graph()
}

#[test]
fn warm_delta_repairs_do_not_allocate() {
    let g = rand_60();
    let m = g.edge_count();
    let sp = Splicing::build(&g, &SplicingConfig::degree_based(2, 0.0, 3.0), 42);
    let mut fib = sp.arena().clone_prefix(2);
    let mut plane = fib.plane_mut(1);
    let mut memo = sp.distances().expect("a built delta deployment").clone();
    let dist = memo.plane_mut(1);
    let w = sp.weights(1).to_vec();
    let e = EdgeId(5);
    let mut dearer = w.clone();
    dearer[e.index()] *= 4.0;
    let down = [EdgeId(1), EdgeId(70), EdgeId(71)];
    let (failed, up) = (EdgeMask::from_failed(m, &down), EdgeMask::all_up(m));
    let edge = [e];
    // Fail; restore and reweight up in one batch; reweight down: the
    // plane ends where it started, so every cycle after the first does
    // identical work.
    let batches = [
        SpfDelta {
            weights: &w,
            mask: &failed,
            failed: &down,
            raised: &[],
            lowered: &[],
        },
        SpfDelta {
            weights: &dearer,
            mask: &up,
            failed: &[],
            raised: &edge,
            lowered: &down,
        },
        SpfDelta {
            weights: &w,
            mask: &up,
            failed: &[],
            raised: &[],
            lowered: &edge,
        },
    ];
    let mut ws = SpfWorkspace::new();
    let mut cycle = || {
        let mut stats = RepairStats::default();
        for delta in &batches {
            stats.absorb(plane.patch(&g, delta, dist, &mut ws));
        }
        stats
    };
    cycle();
    let warm = cycle();
    assert!(
        warm.patched_columns > 0 && warm.frontier_nodes > 0,
        "{warm:?}"
    );
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..5 {
        assert_eq!(cycle(), warm);
    }
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(after - before, 0, "5 warm delta cycles allocated");
    assert!(fib == sp.arena().clone_prefix(2), "the cycle returns home");
    assert!(&memo == sp.distances().unwrap(), "and so do its distances");
}

/// Allocator calls on this thread for each pass of a fail /
/// fail+restore+raise / restore+cut cycle through the batch engine, on a
/// recycled arena, after one warm-up cycle. The raise and the cut are
/// slice 1's, so only that slice's weight vector is copied, at any k.
fn engine_pass_allocations(g: &Graph, k: usize) -> Vec<u64> {
    let sp = Splicing::build(g, &SplicingConfig::degree_based(k, 0.0, 3.0), 42);
    let (a, b, e) = (EdgeId(1), EdgeId(70), EdgeId(5));
    let reweight = |new_weight| RepairEvent::SliceReweight {
        slice: 1,
        edge: e,
        new_weight,
    };
    let w = sp.weights(1)[e.index()];
    let batches = [
        vec![RepairEvent::LinkFailure(a)],
        vec![
            RepairEvent::LinkFailure(b),
            RepairEvent::LinkRestore(a),
            reweight(w * 4.0),
        ],
        vec![RepairEvent::LinkRestore(b), reweight(w)],
    ];
    let mut calls = Vec::new();
    for round in 0..2 {
        let mut at = sp.clone();
        for batch in &batches {
            let spare = SpliceFib::empty(k, g.node_count());
            let before = ALLOCATIONS.with(Cell::get);
            let (next, stats) = at
                .try_repair_batch_recycling(g, batch, None, Some(spare))
                .expect("no reweights to reject");
            let after = ALLOCATIONS.with(Cell::get);
            assert!(stats.patched_columns > 0, "k={k} {batch:?}");
            if round == 1 {
                calls.push(after - before);
            }
            at = next;
        }
        assert!(at.arena() == sp.arena(), "the cycle returns home");
    }
    calls
}

#[test]
fn engine_allocations_do_not_grow_with_k() {
    let g = rand_60();
    let (k3, k8) = (
        engine_pass_allocations(&g, 3),
        engine_pass_allocations(&g, 8),
    );
    assert_eq!(k3, k8, "a pass allocated per plane (or spawned)");
}
