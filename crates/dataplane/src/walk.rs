//! Shared walk-outcome types for every forwarding engine, plus the
//! one-at-a-time scalar reference walk.
//!
//! Three engines walk packets over the spliced-FIB arena: the scalar
//! [`scalar_walk`], the struct-of-arrays
//! [`BatchForwarder`](crate::BatchForwarder), and the testkit's naive
//! oracle walker. For a differential oracle to compare them cheaply,
//! each reduces a walk to the same fixed-size [`WalkOutcome`]: the
//! outcome class, hop count, final node, blamed slice, and an FNV-1a
//! digest of the full `(node, slice, edge)` step sequence. Two walks
//! agree exactly when their outcomes are equal — path included, because
//! the path is hashed, not stored.
//!
//! The scalar walk *is* splice-core's walk loop (the one
//! `Forwarder::forward` runs) pointed at a bare `SpliceFib`, so it is the
//! baseline the batch engine's speedup is measured against: one packet
//! at a time, with the per-packet trace and hash-set allocations the
//! batch engine exists to avoid.

use splice_core::forwarding::{walk_bits, ForwarderOptions, ForwardingOutcome};
use splice_core::header::ForwardingBits;
use splice_graph::{EdgeMask, NodeId};
use splice_routing::SpliceFib;

/// How a walk ended — `ForwardingOutcome` without the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WalkClass {
    /// Reached the destination.
    Delivered = 0,
    /// The selected slice had no FIB entry at the current node.
    DeadEnd = 1,
    /// The selected slice's next-hop link is failed.
    LinkDown = 2,
    /// Header exhausted and a (node, slice) state revisited: the walk is
    /// deterministically periodic.
    PersistentLoop = 3,
    /// Hop budget exhausted.
    TtlExceeded = 4,
}

impl WalkClass {
    /// Stable label for tables, CSV columns, and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            WalkClass::Delivered => "delivered",
            WalkClass::DeadEnd => "dead_end",
            WalkClass::LinkDown => "link_down",
            WalkClass::PersistentLoop => "persistent_loop",
            WalkClass::TtlExceeded => "ttl_exceeded",
        }
    }
}

/// Sentinel for [`WalkOutcome::slice`] when no slice is blamed.
pub const NO_SLICE: u32 = u32::MAX;

/// A fixed-size, allocation-free walk result, identical across engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Why the walk ended.
    pub class: WalkClass,
    /// Hops actually taken (edges crossed).
    pub hops: u32,
    /// Node the walk ended at.
    pub last: u32,
    /// Slice blamed by [`WalkClass::LinkDown`]; [`NO_SLICE`] otherwise.
    pub slice: u32,
    /// FNV-1a over the `(node, slice, edge)` step sequence.
    pub path_hash: u64,
}

impl WalkOutcome {
    /// One-line comparison key for divergence reports.
    pub fn signature(&self) -> String {
        format!(
            "{} hops={} last={} slice={} path={:016x}",
            self.class.label(),
            self.hops,
            self.last,
            if self.slice == NO_SLICE {
                "-".to_string()
            } else {
                self.slice.to_string()
            },
            self.path_hash
        )
    }

    /// Collapse a splice-core [`ForwardingOutcome`] to the shared shape,
    /// hashing its trace with the same digest every engine uses.
    pub fn from_outcome(out: &ForwardingOutcome) -> WalkOutcome {
        use ForwardingOutcome as O;
        let (class, slice) = match out {
            O::Delivered(_) => (WalkClass::Delivered, NO_SLICE),
            O::DeadEnd(_) => (WalkClass::DeadEnd, NO_SLICE),
            O::LinkDown { slice, .. } => (WalkClass::LinkDown, *slice as u32),
            O::PersistentLoop(_) => (WalkClass::PersistentLoop, NO_SLICE),
            O::TtlExceeded(_) => (WalkClass::TtlExceeded, NO_SLICE),
        };
        let trace = out.trace();
        let mut h = PathHasher::new();
        for s in &trace.steps {
            h.step(s.node.0, s.slice as u32, s.edge.0);
        }
        WalkOutcome {
            class,
            hops: trace.steps.len() as u32,
            last: trace.last.0,
            slice,
            path_hash: h.finish(),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a-style digest over `(node, slice, edge)` hop
/// triples: the one path digest every engine computes, so full-path
/// agreement can be checked without any engine recording its path.
///
/// The fold runs word-at-a-time — two xor-multiply rounds per hop over
/// `node | slice << 32` and `edge` — rather than byte-at-a-time: the
/// digest sits on the batch engine's per-hop critical path, and a
/// 24-round multiply chain per hop would cost more than the FIB lookup
/// it rides along with. Collision resistance is equivalent for this
/// use (diffing two walks of the same flow), and every engine shares
/// the one implementation, so agreement checks are unaffected.
#[derive(Clone, Copy, Debug)]
pub struct PathHasher(u64);

impl Default for PathHasher {
    fn default() -> Self {
        PathHasher::new()
    }
}

impl PathHasher {
    /// A fresh digest (the FNV offset basis).
    #[inline]
    pub fn new() -> PathHasher {
        PathHasher(FNV_OFFSET)
    }

    /// Absorb one hop: two word rounds.
    #[inline]
    pub fn step(&mut self, node: u32, slice: u32, edge: u32) {
        let mut h = self.0;
        h = (h ^ ((node as u64) | ((slice as u64) << 32))).wrapping_mul(FNV_PRIME);
        h = (h ^ (edge as u64)).wrapping_mul(FNV_PRIME);
        self.0 = h;
    }

    /// The digest so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a-style word-fold digest over a sequence of walk outcomes,
/// order-sensitive. Two engines that walked the same packets over the
/// same FIB snapshots agree on this checksum exactly when they agree on
/// every outcome — the number CI diffs between the batch and scalar
/// paths.
pub fn outcomes_checksum(outs: &[WalkOutcome]) -> u64 {
    fold_outcomes_checksum(FNV_OFFSET, outs)
}

/// Fold one outcome batch into a running checksum (for streaming use:
/// seed with [`outcomes_checksum`] of an empty slice, i.e. the offset
/// basis, then fold burst after burst).
pub fn fold_outcomes_checksum(mut h: u64, outs: &[WalkOutcome]) -> u64 {
    let mut eat = |v: u64| {
        h = (h ^ v).wrapping_mul(FNV_PRIME);
    };
    for o in outs {
        eat(o.class as u64);
        eat(o.hops as u64);
        eat(o.last as u64);
        eat(o.slice as u64);
        eat(o.path_hash);
    }
    h
}

/// Walk one packet over every plane of the arena, one hop at a time:
/// splice-core's walk loop with its per-packet costs — a `Trace` whose
/// step `Vec` grows hop by hop and a fresh `HashSet` for exhausted-state
/// loop detection. This is the one-at-a-time scalar reference the
/// batch engine is checked against packet for packet; the batch engine
/// exists to shed exactly these per-packet allocations.
pub fn scalar_walk(
    fib: &SpliceFib,
    mask: &EdgeMask,
    src: NodeId,
    dst: NodeId,
    header: ForwardingBits,
    opts: &ForwarderOptions,
) -> ForwardingOutcome {
    walk_bits(fib, fib.k(), mask, src, dst, header, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive_and_foldable() {
        let a = WalkOutcome {
            class: WalkClass::Delivered,
            hops: 3,
            last: 7,
            slice: NO_SLICE,
            path_hash: 42,
        };
        let b = WalkOutcome {
            class: WalkClass::DeadEnd,
            hops: 1,
            last: 2,
            slice: NO_SLICE,
            path_hash: 43,
        };
        assert_ne!(outcomes_checksum(&[a, b]), outcomes_checksum(&[b, a]));
        let whole = outcomes_checksum(&[a, b]);
        let folded =
            fold_outcomes_checksum(fold_outcomes_checksum(outcomes_checksum(&[]), &[a]), &[b]);
        assert_eq!(whole, folded);
    }

    #[test]
    fn signatures_render_the_blamed_slice() {
        let o = WalkOutcome {
            class: WalkClass::LinkDown,
            hops: 2,
            last: 5,
            slice: 3,
            path_hash: 1,
        };
        assert!(o.signature().contains("link_down"));
        assert!(o.signature().contains("slice=3"));
    }
}
