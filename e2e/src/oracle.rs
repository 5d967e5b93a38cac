//! The visibility oracle: which schedule prefix is a given FIB?
//!
//! Repair is bit-identical under any batch partition, so every arena the
//! live control plane publishes equals the state after *some* prefix of
//! the schedule. At set-up the benchmark replays the schedule one event
//! at a time and stores a 64-bit digest of the arena after every prefix;
//! during the run a worker digests the arena it is about to forward on
//! and asks [`Oracle::resolve`] which prefix that is. The program under
//! test is never asked.

use splice_core::control::{fib_checksum, ControlEvent, ControlPlane};
use splice_core::slices::Splicing;
use splice_graph::Graph;
use splice_routing::SpliceFib;
use std::collections::HashMap;

/// Word-wise 64-bit digest of an arena's two slabs (next hops, then out
/// edges). One multiply-rotate round per `u32`: ~10 us for Sprint's
/// 108 KB, so a worker can afford it once per observed epoch.
pub fn digest(fib: &SpliceFib) -> u64 {
    let (next_hops, out_edges) = fib.slabs();
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ (fib.k() as u64) << 32 ^ fib.n() as u64;
    for slab in [next_hops, out_edges] {
        for &w in slab {
            h = (h.rotate_left(5) ^ w as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    h
}

/// Digests of the arena after every schedule prefix, indexed for lookup.
#[derive(Clone, Debug)]
pub struct Oracle {
    /// `digests[p]` = arena digest after the first `p` events (`[0]` is
    /// the base deployment).
    digests: Vec<u64>,
    /// Prefixes holding each digest, ascending.
    by_digest: HashMap<u64, Vec<u32>>,
}

impl Oracle {
    /// Index precomputed prefix digests (`digests[0]` = base state).
    ///
    /// # Panics
    /// Panics on an empty list: there is always a base state.
    pub fn from_digests(digests: Vec<u64>) -> Oracle {
        assert!(!digests.is_empty(), "an oracle needs the base digest");
        let mut by_digest: HashMap<u64, Vec<u32>> = HashMap::new();
        for (p, &d) in digests.iter().enumerate() {
            by_digest.entry(d).or_default().push(p as u32);
        }
        Oracle { digests, by_digest }
    }

    /// Replay `events` through a batch-1 `ControlPlane` (one repair pass
    /// per event), digesting the arena after each. Also returns the
    /// `fib_checksum` of the final deployment.
    pub fn replay(g: &Graph, base: &Splicing, events: &[ControlEvent]) -> (Oracle, u64) {
        let mut cp = ControlPlane::new(g.clone(), base.clone(), 1);
        let mut digests = Vec::with_capacity(events.len() + 1);
        digests.push(digest(cp.current().arena()));
        for ev in events {
            cp.ingest(ev);
            cp.flush();
            digests.push(digest(cp.current().arena()));
        }
        let checksum = fib_checksum(g, cp.current());
        (Oracle::from_digests(digests), checksum)
    }

    /// Number of events the oracle covers.
    pub fn events(&self) -> usize {
        self.digests.len() - 1
    }

    /// Digest after the first `prefix` events.
    pub fn digest_at(&self, prefix: usize) -> u64 {
        self.digests[prefix]
    }

    /// Whether event `index` (0-based) changed the FIB: only those have a
    /// moment of becoming visible.
    pub fn changes_fib(&self, index: usize) -> bool {
        self.digests[index + 1] != self.digests[index]
    }

    /// The last prefix `<= upto` whose final event changes the FIB (0
    /// when none does): once it is visible, the first `upto` events are.
    pub fn last_change(&self, upto: usize) -> usize {
        (0..upto.min(self.events()))
            .rev()
            .find(|&i| self.changes_fib(i))
            .map_or(0, |i| i + 1)
    }

    /// The smallest prefix `q >= floor` whose digest is `digest`, or
    /// `None` — a FIB that is no prefix of the schedule, i.e. a
    /// divergence. Callers pass `floor = max(last resolved + 1, epoch)`:
    /// a new epoch consumed at least one more event than the last one
    /// resolved, and `e` publishes consumed at least `e` events. Taking
    /// the smallest candidate never reports an event visible early; when
    /// a state recurs (fail e, recover e) and the observer skipped its
    /// first occurrence, it reports the later events late instead.
    pub fn resolve(&self, floor: usize, digest: u64) -> Option<usize> {
        let prefixes = self.by_digest.get(&digest)?;
        let at = prefixes.partition_point(|&p| (p as usize) < floor);
        prefixes.get(at).map(|&p| p as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 0xa;
    const B: u64 = 0xb;
    const C: u64 = 0xc;

    #[test]
    fn resolves_recurring_states_to_the_next_occurrence() {
        // prefix: 0:A 1:B 2:A 3:C 4:A
        let o = Oracle::from_digests(vec![A, B, A, C, A]);
        assert_eq!(o.events(), 4);
        // An observer that sees every epoch walks the prefixes in order.
        assert_eq!(o.resolve(1, B), Some(1));
        assert_eq!(o.resolve(2, A), Some(2));
        assert_eq!(o.resolve(3, C), Some(3));
        assert_eq!(o.resolve(4, A), Some(4));
        // One that skipped from the base straight to the second A is
        // placed at the first candidate: late, never early.
        assert_eq!(o.resolve(1, A), Some(2));
        // The epoch floor (3 publishes => at least 3 events) sharpens it.
        assert_eq!(o.resolve(3, A), Some(4));
        assert_eq!(o.last_change(4), 4);
        assert_eq!(o.last_change(2), 2);
    }

    #[test]
    fn runs_of_events_that_leave_the_fib_alone() {
        // Events 2 and 3 (prefixes 2, 3) are reweights that move no next
        // hop: they publish new epochs with the old digest.
        let o = Oracle::from_digests(vec![A, B, B, B, C, C]);
        assert!(o.changes_fib(0));
        assert!(!o.changes_fib(1) && !o.changes_fib(2));
        assert!(o.changes_fib(3));
        assert!(!o.changes_fib(4));
        assert_eq!(
            o.last_change(5),
            4,
            "the trailing no-op is never waited for"
        );
        assert_eq!(o.last_change(3), 1, "nor a run of them in the middle");
        assert_eq!(o.last_change(99), 4);
        // Each extra epoch with an unchanged digest advances one prefix.
        assert_eq!(o.resolve(1, B), Some(1));
        assert_eq!(o.resolve(2, B), Some(2));
        assert_eq!(o.resolve(3, B), Some(3));
        // ...and a fourth has nowhere to go: the program published a
        // state the schedule cannot explain.
        assert_eq!(o.resolve(4, B), None);
        let still = Oracle::from_digests(vec![A, A]);
        assert_eq!(still.last_change(1), 0);
    }

    #[test]
    fn an_unknown_digest_is_a_divergence() {
        let o = Oracle::from_digests(vec![A, B, C]);
        assert_eq!(o.resolve(1, 0xdead), None);
        assert_eq!(o.resolve(3, C), None, "past the end of the schedule");
    }
}
