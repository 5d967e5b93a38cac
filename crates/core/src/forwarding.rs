//! The splicing data plane: walking a packet across slices (§3.2).
//!
//! A [`Forwarder`] executes Algorithm 1 over a [`Splicing`]'s forwarding
//! tables under a failure mask: at every hop it reads the header to decide
//! the slice, looks up the next hop in that slice's FIB, and moves the
//! packet if the link is up. The full [`Trace`] is recorded so recovery
//! experiments can measure stretch, hop counts, and forwarding loops
//! (§4.3–§4.4).

use crate::hash::slice_for_flow;
use crate::header::ForwardingBits;
use crate::slices::Splicing;
use splice_graph::{EdgeId, EdgeMask, NodeId};
use splice_routing::SpliceFib;
use std::collections::HashSet;

/// What a hop-by-hop walk recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Origin of the packet.
    pub src: NodeId,
    /// Intended destination.
    pub dst: NodeId,
    /// Per-hop records: the node the packet was at, the slice used to
    /// leave it, and the edge traversed.
    pub steps: Vec<TraceStep>,
    /// Where the packet ended up.
    pub last: NodeId,
}

/// One hop of a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceStep {
    /// Node the packet departed from.
    pub node: NodeId,
    /// Slice whose FIB was consulted.
    pub slice: usize,
    /// Edge the packet crossed.
    pub edge: EdgeId,
}

impl Trace {
    /// Number of hops taken.
    pub fn hop_count(&self) -> usize {
        self.steps.len()
    }

    /// Total length of the walk under a per-edge metric (e.g. latencies).
    pub fn length(&self, metric: &[f64]) -> f64 {
        self.steps.iter().map(|s| metric[s.edge.index()]).sum()
    }

    /// Number of slice switches along the walk.
    pub fn slice_switches(&self) -> usize {
        self.steps
            .windows(2)
            .filter(|w| w[0].slice != w[1].slice)
            .count()
    }

    /// Distinct slices used.
    pub fn slices_used(&self) -> usize {
        let set: HashSet<usize> = self.steps.iter().map(|s| s.slice).collect();
        set.len()
    }

    /// Lengths of forwarding loops in the walk: every time a node is
    /// re-visited, the number of hops since its previous visit. A 2-hop
    /// loop is an immediate bounce (`a → b → a`). Empty when the walk is
    /// simple. This is the §4.4 loop metric.
    ///
    /// The last-visit table is a stamped `Vec` indexed by node id, reused
    /// across calls through a thread-local: bumping the stamp invalidates
    /// all previous entries at once, so per-trace cost is O(hops) with no
    /// hashing and no per-call clear of the table. The Monte-Carlo
    /// harness calls this once per walked packet, which made the old
    /// per-call `HashMap` allocation a measurable hot spot.
    pub fn loop_lengths(&self) -> Vec<usize> {
        thread_local! {
            // (stamp, last position) per node index, plus the current stamp.
            static LAST_SEEN: std::cell::RefCell<(Vec<(u64, usize)>, u64)> =
                const { std::cell::RefCell::new((Vec::new(), 0)) };
        }
        LAST_SEEN.with(|cell| {
            let (table, stamp) = &mut *cell.borrow_mut();
            *stamp += 1;
            let max_id = self
                .steps
                .iter()
                .map(|s| s.node.index())
                .chain(std::iter::once(self.last.index()))
                .max()
                .unwrap_or(0);
            if table.len() <= max_id {
                table.resize(max_id + 1, (0, 0));
            }
            let mut loops = Vec::new();
            let visits = self
                .steps
                .iter()
                .map(|s| s.node)
                .chain(std::iter::once(self.last));
            for (i, n) in visits.enumerate() {
                let entry = &mut table[n.index()];
                if entry.0 == *stamp {
                    loops.push(i - entry.1);
                }
                *entry = (*stamp, i);
            }
            loops
        })
    }

    /// Whether the walk revisited any node.
    pub fn has_loop(&self) -> bool {
        !self.loop_lengths().is_empty()
    }
}

/// Why the walk ended.
#[derive(Clone, Debug, PartialEq)]
pub enum ForwardingOutcome {
    /// The packet reached its destination.
    Delivered(Trace),
    /// The selected slice had no FIB entry at this node — or, for a
    /// deflecting walk, no slice had a next hop whose link is up.
    DeadEnd(Trace),
    /// The selected slice's next-hop link was failed; without a recovery
    /// scheme the packet is dropped here.
    LinkDown {
        /// Walk up to the drop point.
        trace: Trace,
        /// Slice whose next hop was unusable.
        slice: usize,
    },
    /// The packet entered a cycle it can never leave (header exhausted,
    /// same node and slice revisited).
    PersistentLoop(Trace),
    /// Hop budget exhausted (transient loops or extremely long walks).
    TtlExceeded(Trace),
}

impl ForwardingOutcome {
    /// Whether the packet was delivered.
    pub fn is_delivered(&self) -> bool {
        matches!(self, ForwardingOutcome::Delivered(_))
    }

    /// The trace, regardless of outcome.
    pub fn trace(&self) -> &Trace {
        match self {
            ForwardingOutcome::Delivered(t)
            | ForwardingOutcome::DeadEnd(t)
            | ForwardingOutcome::LinkDown { trace: t, .. }
            | ForwardingOutcome::PersistentLoop(t)
            | ForwardingOutcome::TtlExceeded(t) => t,
        }
    }
}

/// What a router does when the header runs out of bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExhaustedPolicy {
    /// §4.4: "the traffic will remain in its current tree en route to the
    /// destination" — the loop-limiting default.
    #[default]
    StayInCurrent,
    /// Algorithm 1 taken literally: `fwdbits == 0` falls back to
    /// `Hash(src, dst)`.
    HashFallback,
}

/// Forwarding knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForwarderOptions {
    /// Hop budget; the IP TTL analogue. 64 covers any sensible walk on
    /// ISP-scale maps while still terminating pathological loops fast.
    pub ttl: usize,
    /// Behaviour on header exhaustion.
    pub exhausted: ExhaustedPolicy,
}

impl Default for ForwarderOptions {
    fn default() -> Self {
        ForwarderOptions {
            ttl: 64,
            exhausted: ExhaustedPolicy::StayInCurrent,
        }
    }
}

/// The one scalar walk loop: Algorithm 1 hop by hop over the first `k`
/// planes of `fib` under `mask`, recording the full [`Trace`].
///
/// `choose` is the only thing that differs between header encodings: once
/// per hop it maps the slice the packet arrived in to the slice it leaves
/// in, plus whether the header is now *pinned* — can never change the
/// slice again. A pinned walk is deterministic in `(node, slice)`, so
/// revisiting such a state proves a persistent loop. `start` is the slice
/// the packet is in before the first hop. The hop budget is checked after
/// moving, so a walk may record `ttl + 1` steps.
///
/// `DEFLECT` is §4.3's network-based recovery, a static function of the
/// node's local link state: when the chosen slice has no next hop or its
/// link is down, the router forwards in the lowest-numbered *other* slice
/// whose next hop is up. A deflecting walk never ends in `LinkDown`; with
/// no usable slice at all it is a `DeadEnd`. With the identity `choose`,
/// always pinned, this is all of [`NetworkRecovery::forward`]: the
/// `(node, slice)` check then runs on the slice the packet arrived in,
/// before any deflection.
///
/// [`NetworkRecovery::forward`]: crate::recovery::NetworkRecovery::forward
#[allow(clippy::too_many_arguments)]
pub(crate) fn walk<const DEFLECT: bool>(
    fib: &SpliceFib,
    k: usize,
    mask: &EdgeMask,
    src: NodeId,
    dst: NodeId,
    start: usize,
    ttl: usize,
    mut choose: impl FnMut(usize) -> (usize, bool),
) -> ForwardingOutcome {
    let mut slice = start;
    let mut steps = Vec::new();
    let mut at = src;
    let mut pinned_states: HashSet<(NodeId, usize)> = HashSet::new();
    let trace = |steps, last| Trace {
        src,
        dst,
        steps,
        last,
    };

    while at != dst {
        let (chosen, pinned) = choose(slice);
        slice = chosen;
        if pinned && !pinned_states.insert((at, slice)) {
            return ForwardingOutcome::PersistentLoop(trace(steps, at));
        }
        let mut hop = fib.lookup(slice, at, dst);
        if DEFLECT && !hop.is_some_and(|(_, e)| mask.is_up(e)) {
            let usable = |s: usize| fib.lookup(s, at, dst).filter(|&(_, e)| mask.is_up(e));
            let alternate = (0..k)
                .filter(|&s| s != slice)
                .find_map(|s| usable(s).map(|h| (s, h)));
            match alternate {
                Some((s, h)) => (slice, hop) = (s, Some(h)),
                None => hop = None,
            }
        }
        let Some((next, edge)) = hop else {
            return ForwardingOutcome::DeadEnd(trace(steps, at));
        };
        if mask.is_failed(edge) {
            return ForwardingOutcome::LinkDown {
                trace: trace(steps, at),
                slice,
            };
        }
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

/// Walk one packet driven by a forwarding-bits `header` over the first
/// `k` planes of a bare arena (a prefix view's `k` is smaller than its
/// arena's): each hop reads `lg k` bits and shifts; an exhausted header
/// follows `opts.exhausted`. [`Forwarder::forward`] and the dataplane's
/// `scalar_walk` are this function.
pub fn walk_bits(
    fib: &SpliceFib,
    k: usize,
    mask: &EdgeMask,
    src: NodeId,
    dst: NodeId,
    mut header: ForwardingBits,
    opts: &ForwarderOptions,
) -> ForwardingOutcome {
    let start = slice_for_flow(src, dst, k);
    walk::<false>(fib, k, mask, src, dst, start, opts.ttl, |current| {
        let slice = match (header.read_and_shift(k), opts.exhausted) {
            (Some(s), _) => s,
            (None, ExhaustedPolicy::StayInCurrent) => current,
            (None, ExhaustedPolicy::HashFallback) => slice_for_flow(src, dst, k),
        };
        (slice, header.is_exhausted())
    })
}

/// A configured data plane: slices + current failure state.
pub struct Forwarder<'a> {
    splicing: &'a Splicing,
    mask: &'a EdgeMask,
}

impl<'a> Forwarder<'a> {
    /// Bind a data plane to a splicing deployment and a failure state.
    pub fn new(splicing: &'a Splicing, mask: &'a EdgeMask) -> Self {
        Forwarder { splicing, mask }
    }

    /// Number of slices behind this forwarder.
    pub fn k(&self) -> usize {
        self.splicing.k()
    }

    /// Walk a packet from `src` to `dst` driven by `header`.
    ///
    /// The slice before the first header read is `Hash(src, dst)`, per
    /// Algorithm 1's default branch — it only matters when the header
    /// starts out empty.
    pub fn forward(
        &self,
        src: NodeId,
        dst: NodeId,
        header: ForwardingBits,
        opts: &ForwarderOptions,
    ) -> ForwardingOutcome {
        let sp = self.splicing;
        walk_bits(sp.arena(), sp.k(), self.mask, src, dst, header, opts)
    }

    /// Walk a packet driven by §5's compressed single-counter header:
    /// every hop with a non-zero counter deflects to a deterministic
    /// alternate slice and decrements; a drained counter pins the packet
    /// to its current tree.
    ///
    /// The starting slice is `Hash(src, dst)`, as in [`Self::forward`].
    pub fn forward_counter(
        &self,
        src: NodeId,
        dst: NodeId,
        mut header: crate::header::CounterHeader,
        opts: &ForwarderOptions,
    ) -> ForwardingOutcome {
        let (fib, k) = (self.splicing.arena(), self.splicing.k());
        let start = slice_for_flow(src, dst, k);
        walk::<false>(fib, k, self.mask, src, dst, start, opts.ttl, |current| {
            (header.step(current, k), header.counter == 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slices::SplicingConfig;
    use splice_graph::graph::from_edges;
    use splice_graph::Graph;
    use splice_topology::abilene::abilene;

    fn setup() -> (Graph, Splicing) {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 21);
        (g, sp)
    }

    #[test]
    fn delivers_on_clean_network() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let out = fwd.forward(
                    s,
                    t,
                    ForwardingBits::stay_in_slice(0, sp.k()),
                    &ForwarderOptions::default(),
                );
                assert!(out.is_delivered(), "{s:?}->{t:?}: {out:?}");
            }
        }
    }

    #[test]
    fn slice0_trace_matches_shortest_path() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        let (s, t) = (NodeId(0), NodeId(10));
        let out = fwd.forward(
            s,
            t,
            ForwardingBits::stay_in_slice(0, sp.k()),
            &ForwarderOptions::default(),
        );
        let ForwardingOutcome::Delivered(trace) = out else {
            panic!("not delivered")
        };
        let spt = splice_graph::dijkstra(&g, t, &g.base_weights());
        let expect = spt.path_from(s).unwrap();
        assert_eq!(trace.hop_count(), expect.hop_count());
        let w = g.base_weights();
        assert!((trace.length(&w) - expect.length(&w)).abs() < 1e-9);
    }

    #[test]
    fn drops_at_failed_link_without_recovery() {
        let (g, sp) = setup();
        // Fail the first edge of 0's shortest path to 10 in slice 0.
        let (_, edge) = sp.next_hop(0, NodeId(0), NodeId(10)).unwrap();
        let mask = EdgeMask::from_failed(g.edge_count(), &[edge]);
        let fwd = Forwarder::new(&sp, &mask);
        let out = fwd.forward(
            NodeId(0),
            NodeId(10),
            ForwardingBits::stay_in_slice(0, sp.k()),
            &ForwarderOptions::default(),
        );
        match out {
            ForwardingOutcome::LinkDown { trace, slice } => {
                assert_eq!(slice, 0);
                assert_eq!(trace.last, NodeId(0));
                assert_eq!(trace.hop_count(), 0);
            }
            other => panic!("expected LinkDown, got {other:?}"),
        }
    }

    #[test]
    fn header_switches_slices_mid_path() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        // Alternate slices every hop; must still deliver (all links up).
        let hops: Vec<u8> = (0..20).map(|i| (i % sp.k()) as u8).collect();
        let out = fwd.forward(
            NodeId(0),
            NodeId(9),
            ForwardingBits::from_hops(&hops, sp.k()),
            &ForwarderOptions::default(),
        );
        assert!(out.is_delivered(), "{out:?}");
    }

    #[test]
    fn ttl_bounds_the_walk() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        let out = fwd.forward(
            NodeId(0),
            NodeId(10),
            ForwardingBits::stay_in_slice(0, sp.k()),
            &ForwarderOptions {
                ttl: 1,
                ..Default::default()
            },
        );
        assert!(matches!(out, ForwardingOutcome::TtlExceeded(_)));
    }

    #[test]
    fn persistent_loop_detected() {
        // Two slices that bounce a packet between nodes 0 and 1 forever:
        // build a 4-cycle and craft FIBs via weights so slice routes differ.
        // Simplest deterministic check: exhausted header + a crafted state
        // where next hops cycle. We emulate by TTL-free loop: node 0 -> 1
        // in slice 0 and 1 -> 0 is impossible in one SPT (trees are loop
        // free), so loops need slice switches. With an exhausted header and
        // StayInCurrent the walk stays in one tree, so delivery or progress
        // is guaranteed -- assert that instead.
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        let out = fwd.forward(
            NodeId(3),
            NodeId(7),
            ForwardingBits::empty(sp.k()),
            &ForwarderOptions::default(),
        );
        assert!(out.is_delivered(), "single-tree walks cannot loop: {out:?}");
    }

    #[test]
    fn empty_header_uses_hash_slice() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        let (s, t) = (NodeId(2), NodeId(8));
        let out = fwd.forward(
            s,
            t,
            ForwardingBits::empty(sp.k()),
            &ForwarderOptions::default(),
        );
        let ForwardingOutcome::Delivered(trace) = out else {
            panic!()
        };
        let expected_slice = crate::hash::slice_for_flow(s, t, sp.k());
        assert!(trace.steps.iter().all(|st| st.slice == expected_slice));
    }

    #[test]
    fn trace_loop_metrics() {
        let t = Trace {
            src: NodeId(0),
            dst: NodeId(3),
            steps: vec![
                TraceStep {
                    node: NodeId(0),
                    slice: 0,
                    edge: EdgeId(0),
                },
                TraceStep {
                    node: NodeId(1),
                    slice: 1,
                    edge: EdgeId(0),
                },
                TraceStep {
                    node: NodeId(0),
                    slice: 0,
                    edge: EdgeId(1),
                },
            ],
            last: NodeId(3),
        };
        assert!(t.has_loop());
        assert_eq!(t.loop_lengths(), vec![2]); // 0 -> 1 -> 0
        assert_eq!(t.slice_switches(), 2);
        assert_eq!(t.slices_used(), 2);
    }

    #[test]
    fn simple_trace_has_no_loops() {
        let t = Trace {
            src: NodeId(0),
            dst: NodeId(2),
            steps: vec![
                TraceStep {
                    node: NodeId(0),
                    slice: 0,
                    edge: EdgeId(0),
                },
                TraceStep {
                    node: NodeId(1),
                    slice: 0,
                    edge: EdgeId(1),
                },
            ],
            last: NodeId(2),
        };
        assert!(!t.has_loop());
        assert_eq!(t.slice_switches(), 0);
    }

    #[test]
    fn counter_zero_follows_hash_slice() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        let (s, t) = (NodeId(1), NodeId(9));
        let out = fwd.forward_counter(
            s,
            t,
            crate::header::CounterHeader::new(0),
            &ForwarderOptions::default(),
        );
        let ForwardingOutcome::Delivered(tr) = out else {
            panic!()
        };
        let expected = crate::hash::slice_for_flow(s, t, sp.k());
        assert!(tr.steps.iter().all(|st| st.slice == expected));
    }

    #[test]
    fn counter_deflections_still_deliver_clean() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        for n in [1u32, 2, 3, 5] {
            let out = fwd.forward_counter(
                NodeId(0),
                NodeId(10),
                crate::header::CounterHeader::new(n),
                &ForwarderOptions::default(),
            );
            assert!(out.is_delivered(), "counter={n}: {out:?}");
        }
    }

    #[test]
    fn counter_changes_the_path() {
        let (g, sp) = setup();
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        let base = fwd.forward_counter(
            NodeId(0),
            NodeId(10),
            crate::header::CounterHeader::new(0),
            &ForwarderOptions::default(),
        );
        // Some counter value must divert the walk (slices differ somewhere).
        let diverted = (1..=4u32).any(|n| {
            let out = fwd.forward_counter(
                NodeId(0),
                NodeId(10),
                crate::header::CounterHeader::new(n),
                &ForwarderOptions::default(),
            );
            out.trace().steps != base.trace().steps
        });
        assert!(diverted, "no counter value changed the path");
    }

    #[test]
    fn dead_end_when_destination_unreachable() {
        let g = from_edges(3, &[(0, 1, 1.0)]); // node 2 isolated
        let sp = Splicing::build(&g, &SplicingConfig::uniform(2, 1.0), 1);
        let mask = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &mask);
        let out = fwd.forward(
            NodeId(0),
            NodeId(2),
            ForwardingBits::stay_in_slice(0, 2),
            &ForwarderOptions::default(),
        );
        assert!(matches!(out, ForwardingOutcome::DeadEnd(_)));
    }

    /// Every outcome variant and header encoding, step by step, on a
    /// hand-built graph with explicit weights (no RNG anywhere). Literals,
    /// not a second implementation: a change to what one hop does must
    /// show up here as an edited literal.
    #[test]
    fn pinned_walks_on_the_six_node_fixture() {
        use crate::header::CounterHeader;
        use crate::recovery::NetworkRecovery;
        use ForwardingOutcome::{DeadEnd, Delivered, LinkDown, PersistentLoop, TtlExceeded};

        // A 5-ring with two chords; node 5 is isolated.
        let g = from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
                (1, 3, 1.0),
                (0, 2, 1.0),
            ],
        );
        let sp = Splicing::from_weight_vectors(
            &g,
            vec![
                vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
                vec![3.0, 1.0, 4.0, 1.5, 9.0, 2.5, 6.0],
            ],
        );
        let trace = |dst: u32, steps: &[(u32, usize, u32)], last: u32| Trace {
            src: NodeId(0),
            dst: NodeId(dst),
            steps: steps
                .iter()
                .map(|&(node, slice, edge)| TraceStep {
                    node: NodeId(node),
                    slice,
                    edge: EdgeId(edge),
                })
                .collect(),
            last: NodeId(last),
        };
        let (src, dst) = (NodeId(0), NodeId(3));
        assert_eq!(slice_for_flow(src, dst, 3), 1);
        let opts = ForwarderOptions::default();
        let hash_fallback = ForwarderOptions {
            exhausted: ExhaustedPolicy::HashFallback,
            ..opts
        };
        let up = EdgeMask::all_up(g.edge_count());
        let fwd = Forwarder::new(&sp, &up);
        let switching = ForwardingBits::from_hops(&[1, 2, 0, 1], 3);

        // A header that switches slices at every hop.
        assert_eq!(
            fwd.forward(src, dst, switching, &opts),
            Delivered(trace(3, &[(0, 1, 6), (2, 2, 1), (1, 0, 1), (2, 1, 2)], 3))
        );
        // One hop of bits, then exhausted: stay in slice 0's tree, or fall
        // back to the flow hash (slice 1).
        let one_hop = ForwardingBits::stay_in_slice(0, 3);
        assert_eq!(
            fwd.forward(src, dst, one_hop, &opts),
            Delivered(trace(3, &[(0, 0, 0), (1, 0, 1), (2, 0, 2)], 3))
        );
        assert_eq!(
            fwd.forward(src, dst, one_hop, &hash_fallback),
            Delivered(trace(3, &[(0, 0, 0), (1, 1, 5)], 3))
        );
        // No bits at all: the hash slice end to end, like counter 0.
        let hash_path = Delivered(trace(3, &[(0, 1, 6), (2, 1, 2)], 3));
        assert_eq!(
            fwd.forward(src, dst, ForwardingBits::empty(3), &opts),
            hash_path
        );
        assert_eq!(
            fwd.forward_counter(src, dst, CounterHeader::new(0), &opts),
            hash_path
        );
        assert_eq!(
            fwd.forward_counter(src, dst, CounterHeader::new(3), &opts),
            Delivered(trace(3, &[(0, 2, 0), (1, 1, 5)], 3))
        );
        // The hop budget is checked after moving: ttl 1 records two hops.
        assert_eq!(
            fwd.forward(src, dst, one_hop, &ForwarderOptions { ttl: 1, ..opts }),
            TtlExceeded(trace(3, &[(0, 0, 0), (1, 0, 1)], 2))
        );
        assert_eq!(
            fwd.forward(src, NodeId(5), ForwardingBits::from_hops(&[1, 2], 3), &opts),
            DeadEnd(trace(5, &[], 0))
        );
        let e2_down = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2)]);
        assert_eq!(
            Forwarder::new(&sp, &e2_down).forward(src, dst, switching, &opts),
            LinkDown {
                trace: trace(3, &[(0, 1, 6), (2, 2, 1), (1, 0, 1)], 2),
                slice: 1,
            }
        );

        // Network-based recovery (deterministic first-alternate) from
        // slice 0: a mid-path deflection that delivers, a deflection
        // cycle, and a source cut off entirely.
        let nr = NetworkRecovery::default();
        assert_eq!(
            nr.forward(&sp, &e2_down, src, dst, 0),
            Delivered(trace(3, &[(0, 0, 0), (1, 0, 1), (2, 2, 1), (1, 2, 5)], 3))
        );
        let e2_e5_down = EdgeMask::from_failed(g.edge_count(), &[EdgeId(2), EdgeId(5)]);
        assert_eq!(
            nr.forward(&sp, &e2_e5_down, src, dst, 0),
            PersistentLoop(trace(3, &[(0, 0, 0), (1, 0, 1), (2, 2, 1), (1, 0, 1)], 2))
        );
        let cut = EdgeMask::from_failed(g.edge_count(), &[EdgeId(0), EdgeId(4), EdgeId(6)]);
        assert_eq!(
            nr.forward(&sp, &cut, src, dst, 0),
            DeadEnd(trace(3, &[], 0))
        );
    }
}
