//! A warm forest fill allocates nothing: `tree` and `lst` planes are
//! built in per-thread scratch that is sized once and reused, so the
//! repair path of a long-running control plane never reaches the
//! allocator for them. Checked at the allocator itself rather than at
//! each buffer's capacity — a buffer that regrows allocates, and so
//! would any temporary nobody thought to list.
//!
//! Its own test binary, because it replaces the global allocator.

use splice_core::strategy::StrategyKind;
use splice_graph::{EdgeId, EdgeMask, SpfWorkspace};
use splice_routing::SpliceFib;
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
            kind.instance()
                .fill_slice(&g, slice, 42, &weights, mask, &mut ws, &mut fib, None)
        };
        inputs[..warm_up].iter().copied().for_each(&mut fill);
        let before = ALLOCATIONS.with(Cell::get);
        inputs.iter().cycle().take(100).copied().for_each(&mut fill);
        let after = ALLOCATIONS.with(Cell::get);
        assert_eq!(after - before, 0, "{kind:?}: 100 warm fills allocated");
    }
}
