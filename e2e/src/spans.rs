//! In-memory spans for the traced run: recorded around each call the
//! benchmark makes into a layer, kept in a `Vec`, written out as JSON
//! lines when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the trace's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its trace.
    pub id: u32,
    /// The span this one ran inside, if any.
    pub parent: Option<u32>,
    /// Which call this is (`loop.ingest`, `worker.forward_burst`, ...).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// The event id or epoch the span worked on (what spans of one
    /// request share).
    pub tag: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span recorder owned by one thread.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace whose clock starts at `origin` (share one origin between
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
        tag: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            tag,
        });
        id
    }

    /// Reserve a parent span whose end is not known yet; close it with
    /// [`Trace::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, tag: u64) -> u32 {
        self.record(name, None, start, start, tag)
    }

    /// Set the end of a span opened with [`Trace::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end_ns =
            end.saturating_duration_since(self.origin).as_nanos() as u64;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part their direct
    /// children cover.
    pub self_ns: u64,
}

/// Self time of every span (duration minus direct children's durations,
/// floored at 0), folded per name. Children are assumed not to overlap
/// each other, which holds for spans recorded by one thread.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
    }
    totals
}

/// One span as a JSON line (`thread` names the recording thread).
pub fn span_json(thread: &str, s: &Span) -> String {
    Json::obj()
        .set("thread", thread)
        .set("id", s.id as u64)
        .set(
            "parent",
            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
        )
        .set("name", s.name)
        .set("start_ns", s.start_ns)
        .set("end_ns", s.end_ns)
        .set("tag", s.tag)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut trace = Trace::new(t0);
        // iter [0, 100): recv [0, 40), ingest [40, 90) containing a
        // repair [50, 80); 10 us of the iteration is nobody's.
        let iter = trace.open("iter", at(0), 7);
        trace.record("recv", Some(iter), at(0), at(40), 7);
        let ingest = trace.record("ingest", Some(iter), at(40), at(90), 7);
        trace.record("repair", Some(ingest), at(50), at(80), 7);
        trace.close(iter, at(100));
        // A second iteration with no children is all self time.
        let iter2 = trace.open("iter", at(100), 8);
        trace.close(iter2, at(130));

        let totals = self_times(trace.spans());
        assert_eq!(
            totals["iter"],
            NameTotals {
                count: 2,
                total_ns: 130_000,
                self_ns: 10_000 + 30_000
            }
        );
        assert_eq!(totals["ingest"].self_ns, 20_000, "grandchildren count once");
        assert_eq!(totals["repair"].self_ns, 30_000);
        assert_eq!(totals["recv"].total_ns, 40_000);
        // Self times partition the root spans' wall time.
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(all_self, 130_000);
    }

    #[test]
    fn spans_render_as_json_lines() {
        let t0 = Instant::now();
        let mut trace = Trace::new(t0);
        let p = trace.open("iter", t0, 3);
        trace.record("flush", Some(p), t0, t0 + Duration::from_nanos(500), 3);
        let line = span_json("loop", &trace.spans()[1]);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("flush"));
        assert_eq!(doc.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("end_ns").unwrap().as_f64(), Some(500.0));
        assert_eq!(
            Json::parse(&span_json("loop", &trace.spans()[0]))
                .unwrap()
                .get("parent"),
            Some(&Json::Null)
        );
    }
}
