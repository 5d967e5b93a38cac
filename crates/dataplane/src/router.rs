//! One router's forwarding pipeline.
//!
//! A [`Router`] reads its rows of the shared spliced-FIB arena and processes packets
//! byte-for-byte: parse, pick the slice from the shim (Algorithm 1),
//! look up the next hop, decrement TTL, re-serialize. Three deployment
//! flavours from §3.2:
//!
//! * splicing-capable (default) — executes Algorithm 1;
//! * legacy (`splicing_enabled = false`) — ignores the shim and forwards
//!   on the destination in slice 0, the incremental-deployment story;
//! * locally recovering (`network_recovery = true`) — on a dead next-hop
//!   link, deflects into an alternate slice with a live next hop (§4.3's
//!   network-based recovery).

use crate::packet::Packet;
use splice_core::hash::slice_for_flow;
use splice_core::slices::Splicing;
use splice_graph::{EdgeId, EdgeMask, NodeId};
use splice_routing::SpliceFib;
use std::sync::Arc;

/// Per-router behaviour switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Whether this router reads the splicing shim at all.
    pub splicing_enabled: bool,
    /// Whether this router performs local network-based recovery.
    pub network_recovery: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            splicing_enabled: true,
            network_recovery: false,
        }
    }
}

/// What the router decided to do with a packet.
#[derive(Clone, Debug, PartialEq)]
pub enum RouterAction {
    /// Send the (re-serialized) packet over `edge` to `next`.
    Forward {
        /// Outgoing link.
        edge: EdgeId,
        /// Neighbor on that link.
        next: NodeId,
        /// The packet as it leaves (shifted bits, decremented TTL).
        packet: Packet,
        /// The slice whose FIB made the decision.
        slice: usize,
        /// Whether local network-based recovery overrode the slice the
        /// packet asked for (its link was down).
        deflected: bool,
    },
    /// The packet is for this router.
    Deliver(Packet),
    /// Dropped, with the reason.
    Drop(DropReason),
}

/// Why a router dropped a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// TTL reached zero.
    TtlExpired,
    /// No FIB entry for the destination in the chosen slice.
    NoRoute,
    /// Next-hop link down and recovery disabled or exhausted.
    LinkDown,
}

/// One router: its id, a handle on the shared spliced-FIB arena, and its
/// config.
///
/// Routers don't copy forwarding state: every router in a [`crate::network`]
/// shares one [`SpliceFib`] arena behind an `Arc` and reads its own rows
/// out of it — the same aggregate-state picture §4.2 accounts for, and
/// what makes instantiating n routers O(1) per router.
#[derive(Clone, Debug)]
pub struct Router {
    /// This router's node id.
    pub id: NodeId,
    /// The shared flat spliced-FIB arena.
    fib: Arc<SpliceFib>,
    /// Slices this router forwards over (≤ planes in the arena, when the
    /// splicing was a prefix view).
    k: usize,
    /// Behaviour switches.
    pub config: RouterConfig,
}

impl Router {
    /// Bind router `id` to a converged [`Splicing`]'s shared arena.
    pub fn from_splicing(id: NodeId, splicing: &Splicing, config: RouterConfig) -> Router {
        Router {
            id,
            fib: Arc::clone(splicing.arena()),
            k: splicing.k(),
            config,
        }
    }

    /// Number of slices this router carries tables for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Installed FIB entries attributable to this router (state
    /// footprint): its row of each of the k slice planes.
    pub fn state_size(&self) -> usize {
        (0..self.k)
            .map(|s| self.fib.installed_for_router(s, self.id))
            .sum()
    }

    /// Process one packet. `link_state` tells which incident links are up;
    /// `current_slice` is the slice the packet was travelling in (carried
    /// by the simulator between hops, since §4.4's stay-in-current-tree
    /// rule needs it once bits run out).
    ///
    /// Returns the action and the slice the packet leaves in.
    pub fn process(
        &self,
        mut packet: Packet,
        current_slice: usize,
        link_state: &EdgeMask,
    ) -> RouterAction {
        if packet.dst == self.id {
            return RouterAction::Deliver(packet);
        }
        if packet.ttl == 0 {
            return RouterAction::Drop(DropReason::TtlExpired);
        }
        packet.ttl -= 1;

        let k = self.k();
        let slice = if self.config.splicing_enabled {
            match packet.shim.as_mut().and_then(|s| s.bits.read_and_shift(k)) {
                Some(s) => s,
                // Bits exhausted (or no shim): stay in the current tree
                // (§4.4). A shim-less packet's "current tree" is the flow
                // hash, Algorithm 1's default branch.
                None => {
                    if packet.shim.is_some() {
                        current_slice
                    } else {
                        slice_for_flow(packet.src, packet.dst, k)
                    }
                }
            }
        } else {
            // Legacy router: destination-based forwarding, slice 0.
            0
        };

        let lookup = |s: usize| self.fib.lookup(s, self.id, packet.dst);
        let usable = |s: usize| lookup(s).filter(|&(_, e)| link_state.is_up(e));

        match lookup(slice) {
            None => RouterAction::Drop(DropReason::NoRoute),
            Some((next, edge)) if link_state.is_up(edge) => RouterAction::Forward {
                edge,
                next,
                packet,
                slice,
                deflected: false,
            },
            Some(_) if self.config.network_recovery => {
                // §4.3 network-based recovery: first alternate slice with a
                // connected next hop.
                match (0..k)
                    .filter(|&s| s != slice)
                    .find_map(|s| usable(s).map(|h| (s, h)))
                {
                    Some((s, (next, edge))) => RouterAction::Forward {
                        edge,
                        next,
                        packet,
                        slice: s,
                        deflected: true,
                    },
                    None => RouterAction::Drop(DropReason::LinkDown),
                }
            }
            Some(_) => RouterAction::Drop(DropReason::LinkDown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splice_core::header::ForwardingBits;
    use splice_core::slices::SplicingConfig;
    use splice_topology::abilene::abilene;

    fn setup() -> (splice_graph::Graph, Splicing) {
        let g = abilene().graph();
        // `link_down_deflects_with_recovery` fails slice 0's first hop for
        // 0 -> 10 and expects the router to deflect onto a different slice,
        // so the slices must diverge at node 0 and 10 must stay
        // spliced-reachable under that failure. Seed 3 qualifies under
        // rand 0.8's StdRng stream; the scan keeps the tests pinned to the
        // property, not the stream.
        let sp = (3..200)
            .map(|seed| Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), seed))
            .find(|sp| {
                let first_hops: std::collections::HashSet<_> = (0..sp.k())
                    .filter_map(|s| sp.next_hop(s, NodeId(0), NodeId(10)))
                    .collect();
                first_hops.len() >= 2
                    && first_hops.iter().all(|&(_, e)| {
                        let mask = EdgeMask::from_failed(g.edge_count(), &[e]);
                        sp.reachable_to(NodeId(10), sp.k(), &mask)[0]
                    })
            })
            .expect("some seed in 3..200 must diverge at node 0");
        (g, sp)
    }

    fn pkt(src: u32, dst: u32, k: usize) -> Packet {
        Packet::spliced(
            NodeId(src),
            NodeId(dst),
            64,
            ForwardingBits::stay_in_slice(0, k),
            Bytes::from_static(b"x"),
        )
    }

    #[test]
    fn forwards_along_slice0() {
        let (g, sp) = setup();
        let r = Router::from_splicing(NodeId(0), &sp, RouterConfig::default());
        let up = EdgeMask::all_up(g.edge_count());
        let action = r.process(pkt(0, 10, sp.k()), 0, &up);
        let RouterAction::Forward {
            next,
            slice,
            packet,
            ..
        } = action
        else {
            panic!("expected forward")
        };
        assert_eq!(slice, 0);
        assert_eq!(
            Some(next),
            sp.next_hop(0, NodeId(0), NodeId(10)).map(|(n, _)| n)
        );
        assert_eq!(packet.ttl, 63, "TTL decremented");
        // One hop of bits consumed.
        assert!(packet.shim.unwrap().bits.is_exhausted());
    }

    #[test]
    fn delivers_to_self() {
        let (g, sp) = setup();
        let r = Router::from_splicing(NodeId(5), &sp, RouterConfig::default());
        let up = EdgeMask::all_up(g.edge_count());
        let action = r.process(pkt(0, 5, sp.k()), 0, &up);
        assert!(matches!(action, RouterAction::Deliver(_)));
    }

    #[test]
    fn ttl_expiry_drops() {
        let (g, sp) = setup();
        let r = Router::from_splicing(NodeId(0), &sp, RouterConfig::default());
        let up = EdgeMask::all_up(g.edge_count());
        let mut p = pkt(0, 10, sp.k());
        p.ttl = 0;
        assert_eq!(
            r.process(p, 0, &up),
            RouterAction::Drop(DropReason::TtlExpired)
        );
    }

    #[test]
    fn link_down_drops_without_recovery() {
        let (g, sp) = setup();
        let r = Router::from_splicing(NodeId(0), &sp, RouterConfig::default());
        let (_, edge) = sp.next_hop(0, NodeId(0), NodeId(10)).unwrap();
        let mask = EdgeMask::from_failed(g.edge_count(), &[edge]);
        assert_eq!(
            r.process(pkt(0, 10, sp.k()), 0, &mask),
            RouterAction::Drop(DropReason::LinkDown)
        );
    }

    #[test]
    fn link_down_deflects_with_recovery() {
        let (g, sp) = setup();
        let r = Router::from_splicing(
            NodeId(0),
            &sp,
            RouterConfig {
                splicing_enabled: true,
                network_recovery: true,
            },
        );
        let (nh0, edge) = sp.next_hop(0, NodeId(0), NodeId(10)).unwrap();
        let mask = EdgeMask::from_failed(g.edge_count(), &[edge]);
        match r.process(pkt(0, 10, sp.k()), 0, &mask) {
            RouterAction::Forward { next, slice, .. } => {
                assert_ne!(slice, 0);
                assert_ne!(next, nh0);
            }
            other => panic!("expected deflection, got {other:?}"),
        }
    }

    #[test]
    fn legacy_router_ignores_shim() {
        let (g, sp) = setup();
        let r = Router::from_splicing(
            NodeId(0),
            &sp,
            RouterConfig {
                splicing_enabled: false,
                network_recovery: false,
            },
        );
        let up = EdgeMask::all_up(g.edge_count());
        // Header demands slice 3 but the legacy router must use slice 0.
        let p = Packet::spliced(
            NodeId(0),
            NodeId(10),
            64,
            ForwardingBits::stay_in_slice(3, sp.k()),
            Bytes::new(),
        );
        let RouterAction::Forward { slice, packet, .. } = r.process(p, 0, &up) else {
            panic!()
        };
        assert_eq!(slice, 0);
        // And it must not consume bits it did not read.
        assert!(!packet.shim.unwrap().bits.is_exhausted());
    }

    #[test]
    fn exhausted_bits_stay_in_current_slice() {
        let (g, sp) = setup();
        let r = Router::from_splicing(NodeId(0), &sp, RouterConfig::default());
        let up = EdgeMask::all_up(g.edge_count());
        let p = Packet::spliced(
            NodeId(0),
            NodeId(10),
            64,
            ForwardingBits::empty(sp.k()),
            Bytes::new(),
        );
        let RouterAction::Forward { slice, .. } = r.process(p, 2, &up) else {
            panic!()
        };
        assert_eq!(slice, 2, "stays in the tree it was travelling in");
    }

    #[test]
    fn plain_packet_uses_flow_hash() {
        let (g, sp) = setup();
        let r = Router::from_splicing(NodeId(0), &sp, RouterConfig::default());
        let up = EdgeMask::all_up(g.edge_count());
        let p = Packet::plain(NodeId(0), NodeId(10), 64, Bytes::new());
        let RouterAction::Forward { slice, .. } = r.process(p, 0, &up) else {
            panic!()
        };
        assert_eq!(slice, slice_for_flow(NodeId(0), NodeId(10), sp.k()));
    }

    #[test]
    fn state_size_scales_with_k() {
        let g = abilene().graph();
        let sp1 = Splicing::build(&g, &SplicingConfig::degree_based(1, 0.0, 3.0), 3);
        let sp4 = Splicing::build(&g, &SplicingConfig::degree_based(4, 0.0, 3.0), 3);
        let r1 = Router::from_splicing(NodeId(0), &sp1, RouterConfig::default());
        let r4 = Router::from_splicing(NodeId(0), &sp4, RouterConfig::default());
        assert_eq!(r4.state_size(), 4 * r1.state_size());
        assert_eq!(r1.state_size(), g.node_count() - 1);
    }
}
