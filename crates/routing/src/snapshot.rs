//! Epoch-published FIB snapshots: the control-plane → data-plane
//! hand-off.
//!
//! The arena is copy-on-repair (`Splicing::repair_batch` returns a *new*
//! deployment), so the only mutable state the control plane and the
//! data plane share is which arena is current. [`SnapshotHub`] keeps
//! that in one cell holding the `(epoch, Arc<SpliceFib>)` pair:
//! `publish` installs a new immutable arena under the next **epoch**,
//! `load`/`epoch` answer "what is the FIB right now" to a poller, and
//! `subscribe` hands a forwarding worker a [`SnapshotFeed`] — a cursor
//! on the same cell that remembers the last pair it saw.
//!
//! Torn reads are impossible by construction: a walker pins the `Arc`
//! once per packet burst and does not look at the cell again until the
//! burst finishes, so every packet of a burst sees either the whole
//! pre-repair FIB or the whole post-repair FIB — no arena is ever
//! patched after publication.
//!
//! Backpressure policy: snapshots are *complete* state, not deltas, so a
//! worker that falls behind loses nothing by skipping epochs. The cell
//! holds only the latest pair, so [`SnapshotFeed::refresh`] is
//! latest-wins by construction, `publish` never waits on a worker (only
//! on a reader mid-clone of the `Arc`), and a superseded arena is
//! retained only by the workers still forwarding a burst over it.

use crate::arena::SpliceFib;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One published snapshot: the arena plus the epoch it was installed
/// under. Epochs are assigned by [`SnapshotHub::publish`] and strictly
/// increase; epoch 0 is the snapshot the hub was created with.
#[derive(Clone, Debug)]
pub struct SnapshotUpdate {
    /// Monotone publish counter (0 = initial snapshot).
    pub epoch: u64,
    /// The immutable FIB installed at that epoch.
    pub fib: Arc<SpliceFib>,
}

/// The shared cell: the current pair, plus its epoch mirrored in an
/// atomic so "did anything change" costs no lock.
#[derive(Debug)]
struct Cell {
    current: RwLock<SnapshotUpdate>,
    /// Always `current.epoch`, stored (Release) while the write lock is
    /// still held and read with Acquire: a reader that sees epoch `e`
    /// and then takes the read lock finds the pair of epoch `e` or a
    /// later one, never an earlier one.
    epoch: AtomicU64,
}

impl Cell {
    fn read(&self) -> SnapshotUpdate {
        self.current
            .read()
            .expect("snapshot cell lock poisoned")
            .clone()
    }
}

/// Single-writer, many-reader snapshot publication handle.
#[derive(Debug)]
pub struct SnapshotHub {
    cell: Arc<Cell>,
}

impl SnapshotHub {
    /// A hub whose epoch-0 snapshot is `initial`.
    pub fn new(initial: Arc<SpliceFib>) -> SnapshotHub {
        SnapshotHub {
            cell: Arc::new(Cell {
                current: RwLock::new(SnapshotUpdate {
                    epoch: 0,
                    fib: initial,
                }),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The current snapshot, for pollers. Cheap (an `Arc` clone under a
    /// read lock); hold the returned `Arc` for a whole burst rather than
    /// re-loading per packet. An unchanged [`SnapshotHub::epoch`] before
    /// and after the call means the arena is the one published at that
    /// epoch.
    pub fn load(&self) -> Arc<SpliceFib> {
        self.cell.read().fib
    }

    /// The epoch of the currently installed snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch.load(Ordering::Acquire)
    }

    /// Install `fib` as the new current snapshot; returns the new epoch.
    pub fn publish(&self, fib: Arc<SpliceFib>) -> u64 {
        let mut slot = self
            .cell
            .current
            .write()
            .expect("snapshot cell lock poisoned");
        let epoch = slot.epoch + 1;
        *slot = SnapshotUpdate { epoch, fib };
        self.cell.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// A cursor on this hub's cell, primed with the current snapshot.
    pub fn subscribe(&self) -> SnapshotFeed {
        SnapshotFeed {
            current: self.cell.read(),
            cell: Arc::clone(&self.cell),
        }
    }
}

/// A forwarding worker's cursor on the published snapshots: the last
/// pair it saw plus a handle on the cell, so the final snapshot stays
/// reachable after the hub itself is dropped.
///
/// Owned by exactly one worker thread, which calls
/// [`SnapshotFeed::refresh`] at burst boundaries.
#[derive(Debug)]
pub struct SnapshotFeed {
    cell: Arc<Cell>,
    current: SnapshotUpdate,
}

impl SnapshotFeed {
    /// The freshest published snapshot: one atomic epoch compare, and
    /// only when the epoch moved one read-locked clone of the pair.
    /// Intermediate epochs are skipped (latest wins).
    pub fn refresh(&mut self) -> &SnapshotUpdate {
        if self.cell.epoch.load(Ordering::Acquire) != self.current.epoch {
            self.current = self.cell.read();
        }
        &self.current
    }

    /// The snapshot the last [`SnapshotFeed::refresh`] (or the
    /// subscription) observed, without looking at the cell.
    pub fn current(&self) -> &SnapshotUpdate {
        &self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn fib(k: usize) -> Arc<SpliceFib> {
        Arc::new(SpliceFib::empty(k, 3))
    }

    #[test]
    fn subscriber_is_primed_with_the_current_snapshot() {
        let hub = SnapshotHub::new(fib(1));
        hub.publish(fib(2));
        let mut feed = hub.subscribe();
        assert_eq!(feed.current().epoch, 1);
        assert_eq!(feed.refresh().fib.k(), 2);
    }

    #[test]
    fn publishes_fan_out_and_refresh_takes_the_latest() {
        let initial = fib(1);
        let hub = SnapshotHub::new(Arc::clone(&initial));
        assert_eq!(hub.epoch(), 0);
        assert!(Arc::ptr_eq(&hub.load(), &initial));
        let mut feeds = [hub.subscribe(), hub.subscribe()];
        for (i, k) in (2..=5).enumerate() {
            assert_eq!(hub.publish(fib(k)), i as u64 + 1);
        }
        assert_eq!(hub.epoch(), 4);
        assert_eq!(hub.load().k(), 5);
        // Four epochs published; every feed still holds the primed pair
        // until its own refresh, which lands on the last.
        for feed in &mut feeds {
            assert_eq!(feed.current().epoch, 0);
            let snap = feed.refresh();
            assert_eq!(snap.epoch, 4);
            assert_eq!(snap.fib.k(), 5);
            assert_eq!(feed.current().epoch, 4);
        }
    }

    #[test]
    fn feed_outlives_the_hub_with_the_final_snapshot() {
        let hub = SnapshotHub::new(fib(1));
        let mut feed = hub.subscribe();
        hub.publish(fib(4));
        drop(hub);
        assert_eq!(feed.refresh().fib.k(), 4);
        assert_eq!(feed.refresh().epoch, 1);
    }

    #[test]
    fn concurrent_publish_and_subscribe_never_miss_the_latest_epoch() {
        let hub = Arc::new(SnapshotHub::new(fib(1)));
        let total = 200u64;
        let start = Arc::new(Barrier::new(2));
        let publisher = {
            let (hub, start) = (Arc::clone(&hub), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..total {
                    hub.publish(fib(2));
                }
            })
        };
        let subscriber = {
            let (hub, start) = (Arc::clone(&hub), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..50 {
                    // Primed epoch is never behind the epoch the hub
                    // reported before the subscribe, and a refresh never
                    // moves a feed backward.
                    let before = hub.epoch();
                    let mut feed = hub.subscribe();
                    let primed = feed.current().epoch;
                    assert!(primed >= before);
                    assert!(feed.refresh().epoch >= primed);
                }
            })
        };
        publisher.join().unwrap();
        subscriber.join().unwrap();
        // After the publisher finishes, a fresh feed must be primed with
        // the final epoch exactly.
        assert_eq!(hub.subscribe().current().epoch, total);
    }

    /// The contract a polling observer relies on: an unchanged `epoch()`
    /// around a `load()` means the arena is the one published at that
    /// epoch. Arena `k` identifies the publish (epoch e carries k = e+1).
    #[test]
    fn unchanged_epoch_around_load_names_the_loaded_arena() {
        let hub = Arc::new(SnapshotHub::new(fib(1)));
        let total = 300usize;
        let start = Arc::new(Barrier::new(2));
        let publisher = {
            let (hub, start) = (Arc::clone(&hub), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for k in 2..=total + 1 {
                    hub.publish(fib(k));
                }
            })
        };
        start.wait();
        let mut last = 0;
        while last < total as u64 {
            let e = hub.epoch();
            let f = hub.load();
            if hub.epoch() == e {
                assert_eq!(f.k() as u64, e + 1, "arena of another epoch at {e}");
            }
            assert!(e >= last, "epochs never move backward");
            last = e;
        }
        publisher.join().unwrap();
        assert_eq!(hub.load().k(), total + 1);
    }
}
