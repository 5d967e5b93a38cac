//! The flight recorder: a bounded, non-blocking ring of recent events.
//!
//! A [`FlightRecorder`] keeps the last N structured events — plane
//! fills, repair triggers, repair stats, walk anomalies, timed-phase
//! closures — so that when something goes wrong (a testkit divergence,
//! a failed recovery) the recent history ships with the report as JSONL.
//! It is the black box the shrunk repro is read against.
//!
//! Recording never blocks and never allocates: an event is a `Copy`
//! bundle of `&'static str` names and `u64` fields, a slot is claimed
//! with one `fetch_add`, and the slot's lock is only *tried* — if a
//! lapped writer (or a concurrent dump) still holds it, the event is
//! dropped and counted in [`FlightRecorder::dropped`] rather than
//! stalling the hot path. Readers take the slot locks outright, so a
//! snapshot is always a set of intact events in recording order; it may
//! merely miss events that were overwritten or dropped while it ran.

use crate::json::JsonObject;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum number of `(label, value)` payload fields per event.
pub const MAX_FIELDS: usize = 4;

/// One recorded event: static names plus up to [`MAX_FIELDS`] numeric
/// fields. `Copy`, allocation-free, and cheap to construct inline:
///
/// ```
/// use splice_telemetry::FlightEvent;
/// let ev = FlightEvent::new("repair", "link_failure")
///     .field("frontier", 12)
///     .field("patched", 96);
/// assert_eq!(ev.kind, "repair");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event class, e.g. `"repair"`, `"walk_anomaly"`, `"span"`.
    pub kind: &'static str,
    /// Event name within the class, e.g. `"link_failure"`, `"loop"`.
    pub name: &'static str,
    /// Numeric payload; unused slots have an empty label.
    pub fields: [(&'static str, u64); MAX_FIELDS],
}

impl FlightEvent {
    /// A new event with no payload fields.
    pub fn new(kind: &'static str, name: &'static str) -> FlightEvent {
        FlightEvent {
            kind,
            name,
            fields: [("", 0); MAX_FIELDS],
        }
    }

    /// Append a numeric payload field. Fields beyond [`MAX_FIELDS`]
    /// overwrite the last slot — the recorder trades completeness for a
    /// fixed-size, allocation-free event.
    pub fn field(mut self, label: &'static str, value: u64) -> FlightEvent {
        let slot = self
            .fields
            .iter()
            .position(|(l, _)| l.is_empty())
            .unwrap_or(MAX_FIELDS - 1);
        self.fields[slot] = (label, value);
        self
    }
}

/// An event as it sits in the ring: its global sequence number and a
/// timestamp relative to the recorder's creation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Zero-based global sequence number (total recording order).
    pub index: u64,
    /// Nanoseconds since the recorder was created.
    pub t_nanos: u64,
    /// The event payload.
    pub event: FlightEvent,
}

impl RecordedEvent {
    /// Render as one JSON object (one JSONL line without the newline).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .field_u64("i", self.index)
            .field_u64("t_nanos", self.t_nanos)
            .field_str("kind", self.event.kind)
            .field_str("name", self.event.name);
        for &(label, value) in &self.event.fields {
            if !label.is_empty() {
                obj = obj.field_u64(label, value);
            }
        }
        obj.finish()
    }
}

struct Inner {
    slots: Box<[Mutex<Option<RecordedEvent>>]>,
    head: AtomicU64,
    dropped: AtomicU64,
    start: Instant,
}

/// A clonable handle to a shared ring of recent events.
///
/// Clones share the same ring, which is how one recorder threads
/// through the repair engine, the data plane, and the lab driver at
/// once.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Inner {
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                head: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                start: Instant::now(),
            }),
        }
    }

    /// Record one event. Never blocks: a slot still held by a lapped
    /// writer or a concurrent dump drops the event instead (counted in
    /// [`FlightRecorder::dropped`]).
    pub fn record(&self, event: FlightEvent) {
        let t_nanos = self.inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let index = self.inner.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.inner.slots[(index as usize) % self.inner.slots.len()];
        match slot.try_lock() {
            // A racing older claim must not clobber a newer event.
            Ok(mut held) if held.is_none_or(|prev| prev.index <= index) => {
                *held = Some(RecordedEvent {
                    index,
                    t_nanos,
                    event,
                });
            }
            Ok(_) => {}
            Err(_) => {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Total events offered to the ring (including since-overwritten
    /// and dropped ones).
    pub fn recorded(&self) -> u64 {
        self.inner.head.load(Ordering::Relaxed)
    }

    /// Events lost to slot contention (not to ring wrap-around).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The surviving events, oldest first. At most
    /// [`FlightRecorder::capacity`] entries.
    pub fn snapshot(&self) -> Vec<RecordedEvent> {
        let mut out: Vec<RecordedEvent> = self
            .inner
            .slots
            .iter()
            .filter_map(|slot| match slot.lock() {
                Ok(held) => *held,
                Err(poisoned) => *poisoned.into_inner(),
            })
            .collect();
        out.sort_by_key(|e| e.index);
        out
    }

    /// The last `k` surviving events, oldest first.
    pub fn tail(&self, k: usize) -> Vec<RecordedEvent> {
        let mut events = self.snapshot();
        if events.len() > k {
            events.drain(..events.len() - k);
        }
        events
    }

    /// Dump the last `k` surviving events as JSONL (one JSON object per
    /// line, trailing newline when non-empty).
    pub fn tail_jsonl(&self, k: usize) -> String {
        let mut out = String::new();
        for ev in self.tail(k) {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_last_capacity_events_in_order() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(FlightEvent::new("test", "tick").field("i", i));
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        let is: Vec<u64> = events.iter().map(|e| e.event.fields[0].1).collect();
        assert_eq!(is, vec![6, 7, 8, 9], "oldest four were overwritten");
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 0, "single-threaded recording never drops");
        assert!(
            events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos),
            "timestamps are monotone in recording order"
        );
    }

    #[test]
    fn tail_returns_the_most_recent_k() {
        let rec = FlightRecorder::new(8);
        for i in 0..6u64 {
            rec.record(FlightEvent::new("test", "tick").field("i", i));
        }
        let tail = rec.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].event.fields[0].1, 4);
        assert_eq!(tail[1].event.fields[0].1, 5);
        assert_eq!(rec.tail(100).len(), 6, "tail is clamped to what survives");
    }

    #[test]
    fn jsonl_lines_carry_fields_and_skip_empty_span() {
        let rec = FlightRecorder::new(4);
        rec.record(
            FlightEvent::new("repair", "link_failure")
                .field("frontier", 3)
                .field("patched", 12),
        );
        let dump = rec.tail_jsonl(4);
        assert_eq!(dump.lines().count(), 1);
        let line = dump.lines().next().unwrap();
        assert!(line.contains(r#""kind":"repair""#));
        assert!(line.contains(r#""name":"link_failure""#));
        assert!(line.contains(r#""frontier":3"#));
        assert!(line.contains(r#""patched":12"#));
        assert!(!line.contains(r#""span""#), "events carry no span field");
        assert!(dump.ends_with('\n'));
    }

    #[test]
    fn field_overflow_clamps_into_the_last_slot() {
        let mut ev = FlightEvent::new("test", "many");
        for i in 0..6u64 {
            ev = ev.field("f", i);
        }
        assert_eq!(ev.fields[MAX_FIELDS - 1], ("f", 5));
    }

    #[test]
    fn concurrent_recording_keeps_events_intact() {
        let rec = FlightRecorder::new(64);
        let threads = 8u64;
        let per = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        let tag = t * per + i;
                        // Both fields carry the same tag: a torn event
                        // would show a mismatch.
                        rec.record(
                            FlightEvent::new("stress", "tick")
                                .field("a", tag)
                                .field("b", tag),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), threads * per);
        let events = rec.snapshot();
        assert!(events.len() <= rec.capacity());
        for ev in &events {
            assert_eq!(
                ev.event.fields[0].1, ev.event.fields[1].1,
                "event payload must never tear"
            );
        }
        for w in events.windows(2) {
            assert!(w[0].index < w[1].index, "snapshot is in recording order");
        }
    }
}
