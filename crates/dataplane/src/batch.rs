//! The struct-of-arrays packet-burst engine.
//!
//! [`BatchForwarder`] drains a whole burst of in-flight packets over
//! one `SpliceFib` snapshot. Per-packet state lives in two parallel
//! `Vec` lanes (home slice in, outcome out) — a few contiguous columns
//! instead of a heap object per packet — while the immutable inputs
//! (src, dst, header bits) are read straight out of the caller's burst
//! slice rather than copied. A setup pass fills the home-slice column;
//! the drain pass then walks each lane to completion with the lane's
//! cursor (node, slice, hop count) in locals, so the per-hop loop is
//! register arithmetic plus the two slab reads.
//!
//! What the scalar walk pays per packet, this engine pays once per
//! forwarder:
//!
//! * no `Trace` — the path is folded into a [`PathHasher`] digest kept
//!   in a register;
//! * no per-packet `HashSet` — persistent-loop detection uses one
//!   pooled [`LaneStamps`] epoch table shared by every lane, re-armed
//!   per lane by bumping an epoch counter (O(1)) rather than clearing
//!   or reallocating, and small enough to stay cache-hot across the
//!   whole burst;
//! * no per-packet flow hash — `Hash(src, dst)` is memoized in an
//!   `n × n` table built once per `(n, k)` (same values, byte-for-byte,
//!   as [`slice_for_flow`]), so the setup pass does one table load per
//!   packet where the scalar walk re-runs the FNV fold;
//! * no per-hop index arithmetic and no new cache line per hop — the
//!   arena is destination-major, so each lane precomputes where its
//!   `(slice, dst)` column starts, re-derives it only on a slice
//!   switch, and every hop it takes in that slice is `start + node`: one
//!   add, into one contiguous `4·n`-byte run per slab that the walk (and
//!   every other packet toward that destination) keeps hot, with
//!   `NO_ROUTE` (`u32::MAX`) rejected straight off the raw word.
//!
//! Semantics are exactly `Forwarder::forward`'s (the differential
//! oracle in `splice-testkit` holds all engines to that): initial slice
//! `Hash(src, dst)`, per-hop header read, §4.4 exhaustion policy,
//! persistent-loop detection on exhausted `(node, slice)` revisits, hop
//! budget checked after the move.
//!
//! The forwarder holds no FIB reference — `forward_burst` borrows a
//! snapshot per call, so a caller can load an `Arc<SpliceFib>` from a
//! [`SnapshotHub`](splice_routing::SnapshotHub) per burst and let the
//! control plane republish between bursts (never mid-burst: that is the
//! torn-column-freedom argument, enforced by borrow, verified by
//! proptest in the testkit).

use crate::walk::{PathHasher, WalkClass, WalkOutcome, NO_SLICE};
use splice_core::forwarding::{ExhaustedPolicy, ForwarderOptions};
use splice_core::hash::slice_for_flow;
use splice_core::header::ForwardingBits;
use splice_graph::{EdgeMask, NodeId};
use splice_routing::{SpliceFib, NO_ROUTE};

/// A pooled, reset-on-reuse `(node, slice)` visit table: the batch
/// engine's replacement for the scalar walk's per-packet `HashSet` (and
/// the pooled analogue of `Trace::loop_lengths`' thread-local stamped
/// `Vec`, which is per-`Trace` and can't be shared by a lane that
/// recycles across bursts).
///
/// Marks are epoch-stamped: `begin` bumps the epoch, instantly
/// invalidating every mark from previous uses, so a recycled lane can
/// never inherit a stale loop stamp — the regression the satellite test
/// `recycled_lane_never_inherits_stale_stamp` pins down. Because
/// re-arming is O(1), one table serves every lane of every burst in
/// turn, keeping the working set a single `n·k` array instead of a
/// cold table per lane.
#[derive(Clone, Debug, Default)]
pub struct LaneStamps {
    /// `epoch`-stamped marks, indexed by flattened `(node, slice)` state.
    table: Vec<u64>,
    /// Current use's epoch; table entries from older epochs are dead.
    epoch: u64,
}

impl LaneStamps {
    /// An empty pool (no table allocated until first use).
    pub fn new() -> LaneStamps {
        LaneStamps::default()
    }

    /// Start a new use over `states` possible `(node, slice)` states.
    /// O(1) unless the table needs to grow; never clears.
    pub fn begin(&mut self, states: usize) {
        if self.table.len() < states {
            self.table.resize(states, 0);
        }
        // Epoch 0 is reserved as "never marked" (the table's fill value),
        // so marks only exist for epochs >= 1.
        self.epoch += 1;
    }

    /// Whether `state` was already marked this use; marks it if not.
    #[inline]
    pub fn seen_or_mark(&mut self, state: usize) -> bool {
        let slot = &mut self.table[state];
        if *slot == self.epoch {
            true
        } else {
            *slot = self.epoch;
            false
        }
    }
}

/// Outcome-class counters for a stream of bursts, mergeable across
/// shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Packets walked.
    pub packets: u64,
    /// Total hops taken (edges crossed) across all packets.
    pub hops: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Walks ending at a slice with no FIB entry.
    pub dead_end: u64,
    /// Walks dropped at a failed next-hop link.
    pub link_down: u64,
    /// Walks caught in a deterministic cycle.
    pub persistent_loop: u64,
    /// Walks that ran out of hop budget.
    pub ttl_exceeded: u64,
}

impl BatchStats {
    /// Fold one outcome in.
    pub fn record(&mut self, out: &WalkOutcome) {
        self.packets += 1;
        self.hops += out.hops as u64;
        match out.class {
            WalkClass::Delivered => self.delivered += 1,
            WalkClass::DeadEnd => self.dead_end += 1,
            WalkClass::LinkDown => self.link_down += 1,
            WalkClass::PersistentLoop => self.persistent_loop += 1,
            WalkClass::TtlExceeded => self.ttl_exceeded += 1,
        }
    }

    /// Fold another shard's counters in.
    pub fn merge(&mut self, other: &BatchStats) {
        self.packets += other.packets;
        self.hops += other.hops;
        self.delivered += other.delivered;
        self.dead_end += other.dead_end;
        self.link_down += other.link_down;
        self.persistent_loop += other.persistent_loop;
        self.ttl_exceeded += other.ttl_exceeded;
    }

    /// Fraction of packets delivered (1.0 for an empty stream).
    pub fn delivery_rate(&self) -> f64 {
        if self.packets == 0 {
            1.0
        } else {
            self.delivered as f64 / self.packets as f64
        }
    }
}

/// The struct-of-arrays burst engine. One instance per worker; lanes
/// (and the pooled loop-stamp table and memoized flow-slice table) are
/// recycled across bursts, so a long-lived forwarder allocates nothing
/// in steady state.
#[derive(Debug)]
pub struct BatchForwarder {
    opts: ForwarderOptions,
    // Per-lane columns, indexed by position in the input burst.
    /// `Hash(src, dst)` — the initial slice, and the slice HashFallback
    /// re-selects on exhaustion.
    home_slice: Vec<u32>,
    outcome: Vec<WalkOutcome>,
    /// One pooled loop-stamp table, re-armed (O(1)) per lane.
    stamps: LaneStamps,
    /// Memoized `slice_for_flow` over all `(src, dst)` pairs, keyed by
    /// the `(n, k)` it was built for; empty when `n` is past
    /// [`SLICE_TABLE_MAX_NODES`].
    slice_table: Vec<u16>,
    slice_table_nk: (usize, usize),
    stats: BatchStats,
}

/// Largest `n` the engine memoizes the flow-slice table for (an
/// `n × n` array of `u16`, so 2 MiB at the cutoff). Bigger graphs fall
/// back to hashing per packet, like the scalar walk always does.
const SLICE_TABLE_MAX_NODES: usize = 1024;

impl BatchForwarder {
    /// An engine with the given forwarding knobs.
    pub fn new(opts: ForwarderOptions) -> BatchForwarder {
        BatchForwarder {
            opts,
            home_slice: Vec::new(),
            outcome: Vec::new(),
            stamps: LaneStamps::new(),
            slice_table: Vec::new(),
            slice_table_nk: (0, 0),
            stats: BatchStats::default(),
        }
    }

    /// Counters accumulated over every burst so far.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Walk every packet of `pkts` (as `(src, dst, header)`) to
    /// completion over one FIB snapshot and failure mask. Returns the
    /// outcomes in input order.
    ///
    /// The snapshot is borrowed for the whole call: a burst can never
    /// observe a repair mid-flight. Callers interleaving with a control
    /// plane load a fresh `Arc` from a `SnapshotHub` *between* calls.
    pub fn forward_burst(
        &mut self,
        fib: &SpliceFib,
        mask: &EdgeMask,
        pkts: &[(u32, u32, ForwardingBits)],
    ) -> &[WalkOutcome] {
        let k = fib.k();
        let n = fib.n();
        let len = pkts.len();

        self.reset_lanes(len);
        // Columnar setup: the home-slice column, one memoized table load
        // per packet (or the FNV fold itself past the table cutoff).
        self.ensure_slice_table(n, k);
        if self.slice_table.is_empty() {
            self.home_slice.extend(
                pkts.iter()
                    .map(|&(s, d, _)| slice_for_flow(NodeId(s), NodeId(d), k) as u32),
            );
        } else {
            let table = &self.slice_table;
            self.home_slice.extend(
                pkts.iter()
                    .map(|&(s, d, _)| table[s as usize * n + d as usize] as u32),
            );
        }

        // Drain: the clean-mask case (no failed edges — the common case
        // for a converged FIB snapshot, whose slices already route
        // around their own repairs) runs a specialization whose hop loop
        // carries no mask test at all; it cannot ever fire.
        if mask.failed_count() == 0 {
            self.drain::<false>(fib, mask, pkts);
        } else {
            self.drain::<true>(fib, mask, pkts);
        }
        &self.outcome
    }

    /// (Re)build the memoized `Hash(src, dst)` table when the snapshot's
    /// `(n, k)` changes. Entries are exactly [`slice_for_flow`]'s values;
    /// graphs past [`SLICE_TABLE_MAX_NODES`] leave the table empty and
    /// hash per packet instead.
    fn ensure_slice_table(&mut self, n: usize, k: usize) {
        if self.slice_table_nk == (n, k) {
            return;
        }
        self.slice_table_nk = (n, k);
        self.slice_table.clear();
        if n > SLICE_TABLE_MAX_NODES || k > usize::from(u16::MAX) {
            return;
        }
        self.slice_table.reserve(n * n);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                self.slice_table
                    .push(slice_for_flow(NodeId(s), NodeId(d), k) as u16);
            }
        }
    }

    /// Walk every lane to completion, with the lane's cursor state in
    /// locals. The hop loop is split at header exhaustion — selector-
    /// driven hops first, then pinned-slice hops — so each phase only
    /// pays for what it uses: phase one skips loop detection until the
    /// header's last selector is consumed (the scalar's `is_exhausted`
    /// gate, hoisted out of the non-exhausted hops), and phase two drops
    /// the header read entirely, because an exhausted header never
    /// yields again and the slice can no longer change.
    ///
    /// `CHECK_MASK` is false when the mask has no failed edges: the
    /// `LinkDown` test folds away, which is the hop loop for every
    /// converged snapshot.
    fn drain<const CHECK_MASK: bool>(
        &mut self,
        fib: &SpliceFib,
        mask: &EdgeMask,
        pkts: &[(u32, u32, ForwardingBits)],
    ) {
        let k = fib.k();
        let n = fib.n();
        // A hop from node `at` reads `column + at` in both slabs.
        let column_base = |slice: u32, dst: u32| fib.column_start(slice as usize, dst as usize);
        let (next_hop, out_edge) = fib.slabs();
        let ttl = self.opts.ttl;
        let hash_fallback = matches!(self.opts.exhausted, ExhaustedPolicy::HashFallback);
        let mut stats = BatchStats::default();

        for (lane, &(src, dst, header)) in pkts.iter().enumerate() {
            // Hide the next lane's first FIB miss behind this lane's
            // walk: its first lookup — its source's entry in the
            // `(home, dst)` column — is computable from setup state
            // alone, and under snapshot rotation that line is usually
            // cold.
            #[cfg(target_arch = "x86_64")]
            if lane + 1 < pkts.len() {
                let (nsrc, ndst, _) = pkts[lane + 1];
                let nidx = column_base(self.home_slice[lane + 1], ndst) + nsrc as usize;
                // SAFETY: the index is in bounds by construction
                // (home < k, dst < n, src < n), and prefetching reads
                // nothing architecturally.
                unsafe {
                    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                    _mm_prefetch(next_hop.as_ptr().add(nidx) as *const i8, _MM_HINT_T0);
                    _mm_prefetch(out_edge.as_ptr().add(nidx) as *const i8, _MM_HINT_T0);
                }
            }
            let home = self.home_slice[lane];
            let mut at = src;
            let mut slice = home;
            let mut column = column_base(home, dst);
            let mut bits = header;
            let mut digest = PathHasher::new();
            let mut hops = 0u32;

            let (class, blamed) = 'walk: {
                if at == dst {
                    // Self-addressed: delivered with zero hops, empty digest.
                    break 'walk (WalkClass::Delivered, NO_SLICE);
                }
                let stamps = &mut self.stamps;
                stamps.begin(n * k);

                // Phase 1: selector-driven hops. The guard means
                // `read_and_shift` always yields here; the hop consuming
                // the last selector already runs under exhausted-state
                // loop detection, exactly as the scalar walk checks
                // `is_exhausted` after the read.
                while !bits.is_exhausted() {
                    let Some(s) = bits.read_and_shift(k) else {
                        break;
                    };
                    let s = s as u32;
                    if s != slice {
                        slice = s;
                        column = column_base(s, dst);
                    }
                    if bits.is_exhausted() && stamps.seen_or_mark(at as usize * k + slice as usize)
                    {
                        break 'walk (WalkClass::PersistentLoop, NO_SLICE);
                    }
                    let idx = column + at as usize;
                    let nh = next_hop[idx];
                    if nh == NO_ROUTE {
                        break 'walk (WalkClass::DeadEnd, NO_SLICE);
                    }
                    let edge = out_edge[idx];
                    if CHECK_MASK && mask.is_failed(splice_graph::EdgeId(edge)) {
                        break 'walk (WalkClass::LinkDown, slice);
                    }
                    digest.step(at, slice, edge);
                    hops += 1;
                    at = nh;
                    if hops as usize > ttl {
                        break 'walk (WalkClass::TtlExceeded, NO_SLICE);
                    }
                    if nh == dst {
                        break 'walk (WalkClass::Delivered, NO_SLICE);
                    }
                }

                // Phase 2: header exhausted, slice pinned. StayInCurrent
                // keeps the last selection; HashFallback re-selects the
                // home slice once up front — the scalar re-selects it on
                // every exhausted hop, to the same effect.
                if hash_fallback && slice != home {
                    slice = home;
                    column = column_base(home, dst);
                }
                loop {
                    if stamps.seen_or_mark(at as usize * k + slice as usize) {
                        break 'walk (WalkClass::PersistentLoop, NO_SLICE);
                    }
                    let idx = column + at as usize;
                    let nh = next_hop[idx];
                    if nh == NO_ROUTE {
                        break 'walk (WalkClass::DeadEnd, NO_SLICE);
                    }
                    let edge = out_edge[idx];
                    if CHECK_MASK && mask.is_failed(splice_graph::EdgeId(edge)) {
                        break 'walk (WalkClass::LinkDown, slice);
                    }
                    digest.step(at, slice, edge);
                    hops += 1;
                    at = nh;
                    if hops as usize > ttl {
                        break 'walk (WalkClass::TtlExceeded, NO_SLICE);
                    }
                    if nh == dst {
                        break 'walk (WalkClass::Delivered, NO_SLICE);
                    }
                }
            };

            let out = WalkOutcome {
                class,
                hops,
                last: at,
                slice: blamed,
                path_hash: digest.finish(),
            };
            stats.record(&out);
            self.outcome.push(out);
        }

        self.stats.merge(&stats);
    }

    /// Truncate every lane column, keeping capacity — and keeping the
    /// `LaneStamps` pool itself (the stamp table survives across lanes
    /// and bursts; `begin` re-arms it per use).
    fn reset_lanes(&mut self, len: usize) {
        self.home_slice.clear();
        self.outcome.clear();
        self.home_slice.reserve(len);
        self.outcome.reserve(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::scalar_walk;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use splice_core::slices::{Splicing, SplicingConfig};
    use splice_graph::EdgeId;

    fn setup(k: usize, seed: u64) -> (splice_graph::Graph, Splicing) {
        let g = splice_topology::abilene::abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
        (g, sp)
    }

    fn random_burst(
        rng: &mut StdRng,
        n: u32,
        k: usize,
        len: usize,
    ) -> Vec<(u32, u32, ForwardingBits)> {
        (0..len)
            .map(|_| {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                let hops: Vec<u8> = (0..rng.gen_range(0..6))
                    .map(|_| rng.gen_range(0..k) as u8)
                    .collect();
                (src, dst, ForwardingBits::from_hops(&hops, k))
            })
            .collect()
    }

    /// Batch and scalar engines must agree packet for packet — class,
    /// hop count, endpoint, blamed slice, and full path digest — across
    /// masks, header shapes, and both exhaustion policies.
    #[test]
    fn burst_matches_scalar_packet_for_packet() {
        let (g, sp) = setup(4, 21);
        let mut rng = StdRng::seed_from_u64(99);
        for exhausted in [
            ExhaustedPolicy::StayInCurrent,
            ExhaustedPolicy::HashFallback,
        ] {
            let opts = ForwarderOptions {
                exhausted,
                ..Default::default()
            };
            let mut batch = BatchForwarder::new(opts);
            for mask in [
                EdgeMask::all_up(g.edge_count()),
                EdgeMask::from_failed(g.edge_count(), &[EdgeId(1), EdgeId(7)]),
            ] {
                let pkts = random_burst(&mut rng, g.node_count() as u32, sp.k(), 500);
                let got = batch.forward_burst(sp.arena(), &mask, &pkts).to_vec();
                for (i, &(s, d, h)) in pkts.iter().enumerate() {
                    let want = WalkOutcome::from_outcome(&scalar_walk(
                        sp.arena(),
                        &mask,
                        NodeId(s),
                        NodeId(d),
                        h,
                        &opts,
                    ));
                    assert_eq!(got[i], want, "pkt {i}: {s}->{d} ({exhausted:?})");
                }
            }
        }
    }

    /// src == dst lanes deliver with zero hops and an empty digest.
    #[test]
    fn self_addressed_packets_deliver_immediately() {
        let (g, sp) = setup(4, 21);
        let mask = EdgeMask::all_up(g.edge_count());
        let mut batch = BatchForwarder::new(ForwarderOptions::default());
        let pkts = vec![(3, 3, ForwardingBits::empty(sp.k()))];
        let out = batch.forward_burst(sp.arena(), &mask, &pkts);
        assert_eq!(out[0].class, WalkClass::Delivered);
        assert_eq!(out[0].hops, 0);
        assert_eq!(out[0].last, 3);
        assert_eq!(out[0].path_hash, PathHasher::new().finish());
    }

    /// Small TTLs cut off exactly where the scalar walk does (TTL beats
    /// arrival on the final hop, by the shared after-move check order).
    #[test]
    fn ttl_cutoff_matches_scalar() {
        let (g, sp) = setup(4, 21);
        let mask = EdgeMask::all_up(g.edge_count());
        for ttl in [0usize, 1, 2, 3] {
            let opts = ForwarderOptions {
                ttl,
                ..Default::default()
            };
            let mut batch = BatchForwarder::new(opts);
            let pkts: Vec<_> = (1..g.node_count() as u32)
                .map(|d| (0u32, d, ForwardingBits::stay_in_slice(0, sp.k())))
                .collect();
            let got = batch.forward_burst(sp.arena(), &mask, &pkts).to_vec();
            for (i, &(s, d, h)) in pkts.iter().enumerate() {
                let want = WalkOutcome::from_outcome(&scalar_walk(
                    sp.arena(),
                    &mask,
                    NodeId(s),
                    NodeId(d),
                    h,
                    &opts,
                ));
                assert_eq!(got[i], want, "ttl={ttl} pkt {i}");
            }
        }
    }

    /// Satellite regression: a recycled lane must not inherit loop
    /// stamps from an earlier burst. Burst 1 drives lane 0 into marking
    /// `(node, slice)` states with an exhausted header; burst 2 reuses
    /// the lane for a walk through those same states, which must NOT be
    /// misdiagnosed as a persistent loop.
    #[test]
    fn recycled_lane_never_inherits_stale_stamp() {
        let (g, sp) = setup(4, 21);
        let mask = EdgeMask::all_up(g.edge_count());
        let opts = ForwarderOptions::default();
        let mut batch = BatchForwarder::new(opts);

        // Burst 1: exhausted header, so every hop marks its (node, slice)
        // state in lane 0's stamp table.
        let p1 = vec![(0u32, 10u32, ForwardingBits::empty(sp.k()))];
        let first = batch.forward_burst(sp.arena(), &mask, &p1)[0];
        assert!(first.hops > 0, "walk must mark at least one state");

        // Burst 2: the very same packet in the very same lane. With stale
        // stamps surviving, hop 1 would revisit a marked state and
        // misreport PersistentLoop; the epoch bump makes it a fresh walk.
        let second = batch.forward_burst(sp.arena(), &mask, &p1)[0];
        assert_eq!(second, first, "recycled lane must walk identically");
        assert_eq!(
            second,
            WalkOutcome::from_outcome(&scalar_walk(
                sp.arena(),
                &mask,
                NodeId(0),
                NodeId(10),
                ForwardingBits::empty(sp.k()),
                &opts,
            ))
        );
    }

    /// The same stamp-staleness property, directly on the pool.
    #[test]
    fn lane_stamps_reset_on_begin() {
        let mut st = LaneStamps::new();
        st.begin(8);
        assert!(!st.seen_or_mark(3));
        assert!(st.seen_or_mark(3), "second visit in one use is seen");
        st.begin(8);
        assert!(!st.seen_or_mark(3), "begin() must invalidate old marks");
        // Growth keeps old marks dead too.
        st.begin(16);
        assert!(!st.seen_or_mark(3));
        assert!(!st.seen_or_mark(15));
    }

    /// Stats fold every outcome class and merge across instances.
    #[test]
    fn stats_account_for_every_packet() {
        let (g, sp) = setup(4, 21);
        let mut rng = StdRng::seed_from_u64(5);
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(0), EdgeId(3), EdgeId(9)]);
        let mut batch = BatchForwarder::new(ForwarderOptions::default());
        let pkts = random_burst(&mut rng, g.node_count() as u32, sp.k(), 300);
        batch.forward_burst(sp.arena(), &mask, &pkts);
        let s = *batch.stats();
        assert_eq!(s.packets, 300);
        assert_eq!(
            s.delivered + s.dead_end + s.link_down + s.persistent_loop + s.ttl_exceeded,
            300
        );
        let mut merged = BatchStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.packets, 600);
        assert_eq!(merged.hops, 2 * s.hops);
    }
}
