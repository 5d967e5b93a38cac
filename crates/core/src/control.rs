//! The control plane as a long-running state machine: typed topology
//! events in, epoch-published FIB snapshots out.
//!
//! Everything below this module is batch-shaped — build a deployment,
//! apply a schedule, exit. [`ControlPlane`] is the daemon-shaped owner
//! the paper's operational story implies (§3.1.2: the control plane
//! *runs* the k instances; recovery happens while forwarding continues):
//! it owns the mutable deployment, consumes a stream of [`ControlEvent`]s,
//! coalesces them into [`Splicing::repair_batch`] passes, and publishes
//! each repaired arena as an immutable `Arc<SpliceFib>` snapshot through
//! a [`SnapshotHub`] that forwarding workers subscribe to.
//!
//! ## Semantics: bit-identical to batch replay
//!
//! Event semantics mirror the testkit's replay engine exactly —
//! reweights are multiplicative against *shadow* weights (the weights
//! the slice currently runs, permille factors), and a recovery is a
//! delta like any other event: it joins the pending batch as a
//! [`RepairEvent::LinkRestore`] and coalesces with the failures and
//! reweights already there, so a link that fails and recovers inside one
//! batch costs no SPF work at all. (A recovery also closes the batch it
//! joins — see [`ControlPlane::ingest`].) There is one convergence path — the pending batch through
//! [`Splicing::try_repair_batch_recycling`] — and because that engine is
//! bit-identical to folding its events one at a time, and each pass to a
//! from-scratch build at the resulting weights and mask, the final
//! deployment does not depend on where batch boundaries fall: a daemon
//! under live churn, the batch driver
//! (`schedule_to_batches`/`apply_batches`), and the one-event-at-a-time
//! oracle all land on the same bytes. [`fib_checksum`] is the digest the
//! acceptance gates compare.
//!
//! ## Arena recycling
//!
//! A repair normally allocates a fresh `k·n²` arena. The control plane
//! instead keeps the last few superseded snapshots in a retirement list;
//! once every subscriber has dropped a retired `Arc`, the arena is
//! reclaimed and handed back to the next repair as scratch
//! ([`Splicing::try_repair_batch_recycling`]) — sustained churn then
//! runs allocation-free in the steady state.

use crate::slices::{RepairEvent, Splicing};
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use splice_routing::spf::{Histogram, SpfTelemetry};
use splice_routing::{SnapshotHub, SpliceFib};
use std::sync::Arc;
use std::time::Instant;

/// How many superseded snapshots the retirement list holds before the
/// oldest are dropped (they still free normally once readers let go —
/// they just stop being recycling candidates).
const RETIRED_CAP: usize = 8;

/// How many reclaimed arenas are kept as repair scratch.
const SPARE_CAP: usize = 2;

/// One typed control-plane event — the daemon-facing mirror of the
/// testkit's `EventSpec`, with the same wire tokens (`f4`, `g2.7`, `n1`,
/// `w2.5.1500`, `r4`) and the same semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlEvent {
    /// Fail one link (`f<edge>`).
    FailLink(EdgeId),
    /// Fail a shared-risk group of links at once (`g<e1>.<e2>...`).
    FailGroup(Vec<EdgeId>),
    /// Fail a node: all incident links go down (`n<node>`).
    FailNode(NodeId),
    /// Reweight one edge in one slice to `current * milli / 1000`
    /// (`w<slice>.<edge>.<milli>`, multiplicative against the weight the
    /// slice is running *now*, like the replay engine's shadow state).
    Reweight {
        /// Slice whose weight vector changes.
        slice: usize,
        /// The reweighted edge.
        edge: EdgeId,
        /// New weight as a permille of the current weight (> 0).
        milli: u32,
    },
    /// Restore a failed link (`r<edge>`); restoring a link that is up
    /// changes nothing.
    Recover(EdgeId),
}

impl ControlEvent {
    /// Parse one event token (the testkit spec grammar).
    pub fn parse(token: &str) -> Result<ControlEvent, String> {
        let mut chars = token.chars();
        let Some(kind) = chars.next() else {
            return Err("empty event token".to_string());
        };
        // Tokens arrive from the admin socket: split on the first char,
        // which need not be one byte wide.
        let rest = chars.as_str();
        let num = |t: &str| -> Result<u32, String> {
            t.parse::<u32>()
                .map_err(|_| format!("bad number {t:?} in event token {token:?}"))
        };
        match kind {
            'f' => Ok(ControlEvent::FailLink(EdgeId(num(rest)?))),
            'g' => {
                let ids: Result<Vec<u32>, String> = rest.split('.').map(num).collect();
                let ids = ids?;
                if ids.is_empty() {
                    return Err(format!("empty link group in {token:?}"));
                }
                Ok(ControlEvent::FailGroup(
                    ids.into_iter().map(EdgeId).collect(),
                ))
            }
            'n' => Ok(ControlEvent::FailNode(NodeId(num(rest)?))),
            'w' => {
                let parts: Vec<&str> = rest.split('.').collect();
                if parts.len() != 3 {
                    return Err(format!(
                        "bad reweight {token:?}; want w<slice>.<edge>.<milli>"
                    ));
                }
                let milli = num(parts[2])?;
                if milli == 0 {
                    return Err(format!("reweight factor must be positive in {token:?}"));
                }
                Ok(ControlEvent::Reweight {
                    slice: num(parts[0])? as usize,
                    edge: EdgeId(num(parts[1])?),
                    milli,
                })
            }
            'r' => Ok(ControlEvent::Recover(EdgeId(num(rest)?))),
            other => Err(format!("unknown event kind {other:?} in {token:?}")),
        }
    }

    /// Parse a `+`-joined token list (`f4+w1.2.1500+r4`). Whitespace
    /// around the whole string is tolerated; an empty string is an empty
    /// schedule.
    pub fn parse_schedule(s: &str) -> Result<Vec<ControlEvent>, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split('+').map(ControlEvent::parse).collect()
    }

    /// The canonical token for this event (inverse of
    /// [`ControlEvent::parse`]).
    pub fn token(&self) -> String {
        match self {
            ControlEvent::FailLink(e) => format!("f{}", e.0),
            ControlEvent::FailGroup(es) => {
                let ids: Vec<String> = es.iter().map(|e| e.0.to_string()).collect();
                format!("g{}", ids.join("."))
            }
            ControlEvent::FailNode(v) => format!("n{}", v.0),
            ControlEvent::Reweight { slice, edge, milli } => {
                format!("w{slice}.{}.{milli}", edge.0)
            }
            ControlEvent::Recover(e) => format!("r{}", e.0),
        }
    }

    /// Bounds-check this event against a graph and slice count.
    pub fn validate(&self, g: &Graph, k: usize) -> Result<(), String> {
        let m = g.edge_count();
        let edge_ok = |e: &EdgeId| -> Result<(), String> {
            if e.index() < m {
                Ok(())
            } else {
                Err(format!("edge {} out of range (m = {m})", e.0))
            }
        };
        match self {
            ControlEvent::FailLink(e) | ControlEvent::Recover(e) => edge_ok(e),
            ControlEvent::FailGroup(es) => es.iter().try_for_each(edge_ok),
            ControlEvent::FailNode(v) => {
                if v.index() < g.node_count() {
                    Ok(())
                } else {
                    Err(format!(
                        "node {} out of range (n = {})",
                        v.0,
                        g.node_count()
                    ))
                }
            }
            ControlEvent::Reweight { slice, edge, milli } => {
                edge_ok(edge)?;
                if *slice >= k {
                    return Err(format!("slice {slice} out of range (k = {k})"));
                }
                if *milli == 0 {
                    return Err("reweight factor must be positive".to_string());
                }
                Ok(())
            }
        }
    }
}

/// Counters describing what a [`ControlPlane`] has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Events ingested (including no-ops).
    pub events: u64,
    /// Coalesced `repair_batch` passes applied.
    pub repair_batches: u64,
    /// Repair passes that ran as a masked full rebuild of every dirty
    /// plane because the slice strategy has no delta repair (always 0
    /// under perturbed-SPF, recoveries included).
    pub rebuilds: u64,
    /// Snapshots published to the hub.
    pub publishes: u64,
    /// Repairs that reused a recycled arena instead of allocating.
    pub arenas_recycled: u64,
}

/// The daemon's mutable owner of one spliced deployment.
///
/// Single-threaded by design: exactly one thread drives `ingest`/`flush`
/// (the event loop); concurrency lives on the read side, behind the
/// [`SnapshotHub`]. See the module docs for semantics.
pub struct ControlPlane {
    g: Graph,
    current: Splicing,
    /// The weights each slice is running now (absolute values);
    /// multiplicative reweights compose against these.
    shadow_weights: Vec<Vec<f64>>,
    /// Links currently failed, as scheduled (matches
    /// `current.failed_mask()` after a flush).
    shadow_mask: EdgeMask,
    pending: Vec<RepairEvent>,
    max_batch: usize,
    hub: Arc<SnapshotHub>,
    telemetry: Option<SpfTelemetry>,
    retired: Vec<Arc<SpliceFib>>,
    spares: Vec<SpliceFib>,
    stats: ControlStats,
}

impl ControlPlane {
    /// Take ownership of a freshly built deployment. The hub's epoch-0
    /// snapshot is `base`'s arena; `max_batch` caps how many events a
    /// single repair pass coalesces (≥ 1).
    pub fn new(g: Graph, base: Splicing, max_batch: usize) -> ControlPlane {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let k = base.k();
        let shadow_weights: Vec<Vec<f64>> = (0..k).map(|s| base.weights(s).to_vec()).collect();
        let shadow_mask = (*base.failed_mask()).clone();
        let hub = Arc::new(SnapshotHub::new(Arc::clone(base.arena())));
        ControlPlane {
            g,
            current: base,
            shadow_weights,
            shadow_mask,
            pending: Vec::new(),
            max_batch,
            hub,
            telemetry: None,
            retired: Vec::new(),
            spares: Vec::new(),
            stats: ControlStats::default(),
        }
    }

    /// Attach SPF/repair telemetry (histograms observe each repair pass).
    pub fn with_telemetry(mut self, telemetry: SpfTelemetry) -> ControlPlane {
        self.telemetry = Some(telemetry);
        self
    }

    /// The snapshot publication handle forwarding workers subscribe to.
    pub fn hub(&self) -> &Arc<SnapshotHub> {
        &self.hub
    }

    /// The deployment as of the last flush (pending events excluded).
    pub fn current(&self) -> &Splicing {
        &self.current
    }

    /// The graph the deployment runs on.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Events ingested but not yet repaired into the FIB.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Work counters so far.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// Ingest one event: failures, recoveries and reweights all join the
    /// pending batch, which is flushed when it reaches `max_batch` — or
    /// when the event is a recovery, which closes the batch it joins
    /// (one pass, one publish, coalesced with everything pending).
    /// Nothing in the engine needs that early flush: it keeps the
    /// `flood-churn` benchmark's memory figure inside its bound, and
    /// CHANGES.md (PR 16) says why and when to delete it.
    /// Reweights compose multiplicatively, so a long
    /// enough run of them leaves the range the repair engine can route
    /// over ([`hops_still_count`]); such a reweight changes nothing (it
    /// still counts in [`ControlStats::events`]). Returns the epoch of
    /// the newest snapshot this call published, if any.
    ///
    /// # Panics
    /// Panics on an out-of-range slice/edge/node (validate untrusted
    /// input with [`ControlEvent::validate`] first) — same contract as
    /// [`Splicing::repair_batch`].
    pub fn ingest(&mut self, ev: &ControlEvent) -> Option<u64> {
        self.stats.events += 1;
        match ev {
            ControlEvent::FailLink(e) => {
                self.shadow_mask.fail(*e);
                self.pending.push(RepairEvent::LinkFailure(*e));
            }
            ControlEvent::FailGroup(es) => {
                for e in es {
                    self.shadow_mask.fail(*e);
                }
                self.pending.push(RepairEvent::LinkSetFailure(es.clone()));
            }
            ControlEvent::FailNode(v) => {
                for &(_, e) in self.g.neighbors(*v) {
                    self.shadow_mask.fail(e);
                }
                self.pending.push(RepairEvent::NodeFailure(*v));
            }
            ControlEvent::Reweight { slice, edge, milli } => {
                let new_weight =
                    self.shadow_weights[*slice][edge.index()] * (*milli as f64 / 1000.0);
                if !hops_still_count(&self.shadow_weights[*slice], *edge, new_weight) {
                    return None;
                }
                self.shadow_weights[*slice][edge.index()] = new_weight;
                self.pending.push(RepairEvent::SliceReweight {
                    slice: *slice,
                    edge: *edge,
                    new_weight,
                });
            }
            ControlEvent::Recover(e) => {
                self.shadow_mask.restore(*e);
                self.pending.push(RepairEvent::LinkRestore(*e));
                return self.flush();
            }
        }
        if self.pending.len() >= self.max_batch {
            self.flush()
        } else {
            None
        }
    }

    /// Repair the pending batch into the deployment and publish the new
    /// snapshot. Returns the new epoch, or `None` when nothing was
    /// pending or the batch coalesced to a no-op (re-failing an already
    /// failed link, or failing and recovering one link inside the batch,
    /// publishes nothing — the FIB did not change).
    pub fn flush(&mut self) -> Option<u64> {
        if self.pending.is_empty() {
            return None;
        }
        let events = std::mem::take(&mut self.pending);
        // Only spend a spare arena when the batch will actually produce
        // a new one: any reweight dirties its slice, and failures and
        // recoveries only matter if the scheduled mask differs from the
        // installed one.
        // (A no-op repair drops the spare it was handed.)
        let changes = self.shadow_mask != *self.current.failed_mask()
            || events
                .iter()
                .any(|e| matches!(e, RepairEvent::SliceReweight { .. }));
        let spare = if changes { self.reclaim_spare() } else { None };
        let recycled = spare.is_some();
        let (next, _stats) = self
            .current
            .try_repair_batch_recycling(&self.g, &events, self.telemetry.as_ref(), spare)
            .expect("ingest only queues finite, positive reweights");
        self.stats.repair_batches += 1;
        self.install(next, recycled)
    }

    /// Swap in the repaired deployment; if its arena actually changed,
    /// retire the superseded one and publish. A pass that coalesced to a
    /// no-op (the result shares the old arena) publishes nothing — the
    /// FIB subscribers would act on did not change.
    fn install(&mut self, next: Splicing, recycled: bool) -> Option<u64> {
        let old = Arc::clone(self.current.arena());
        self.current = next;
        if Arc::ptr_eq(&old, self.current.arena()) {
            return None;
        }
        if recycled {
            self.stats.arenas_recycled += 1;
        }
        if !self.current.strategy().instance().supports_delta_repair() {
            self.stats.rebuilds += 1;
        }
        self.retired.push(old);
        if self.retired.len() > RETIRED_CAP {
            self.retired.remove(0);
        }
        self.stats.publishes += 1;
        Some(self.hub.publish(Arc::clone(self.current.arena())))
    }

    /// Pull a reusable arena out of the retirement list: any retired
    /// snapshot whose last outside reader is gone can be overwritten.
    fn reclaim_spare(&mut self) -> Option<SpliceFib> {
        let mut i = 0;
        while i < self.retired.len() && self.spares.len() < SPARE_CAP {
            if Arc::strong_count(&self.retired[i]) == 1 {
                let arc = self.retired.remove(i);
                match Arc::try_unwrap(arc) {
                    Ok(fib) => self.spares.push(fib),
                    // A reader raced in between the count check and the
                    // unwrap: put it back and move on.
                    Err(arc) => {
                        self.retired.insert(i, arc);
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        self.spares.pop()
    }

    /// Let go of what only a running plane needs — the recycling scratch
    /// (retired snapshots, spare arenas) and the telemetry handles (a
    /// flight ring can be larger than the FIB) — once its loop has
    /// exited. The deployment, the hub and the counters stay for final
    /// inspection.
    fn quiesce(&mut self) {
        self.retired = Vec::new();
        self.spares = Vec::new();
        self.telemetry = None;
    }
}

/// Whether a slice running `weights` with `edge` moved to `new_weight`
/// still makes every hop strictly lengthen a path.
///
/// Delta-SPF keeps parents acyclic only while `dist + w > dist` for
/// every weight `w` and reachable distance `dist`; a weight that
/// vanishes in f64 next to the longest possible path (twice the sum of
/// all weights, for rounding slack) ties a node with its own child.
/// Zero, infinite and NaN results fail the same comparison, so this is
/// also the finite-and-positive check. [`ControlPlane::ingest`] drops a
/// reweight that fails it, and every offline mirror of the control plane
/// (the testkit's batch driver and replay oracle) must apply the same
/// guard to replay a schedule the way the live plane ran it.
pub fn hops_still_count(weights: &[f64], edge: EdgeId, new_weight: f64) -> bool {
    let (mut span, mut least) = (0.0f64, f64::INFINITY);
    for (i, &w) in weights.iter().enumerate() {
        let w = if i == edge.index() { new_weight } else { w };
        span += w;
        least = least.min(w);
    }
    let longest = 2.0 * span;
    longest.is_finite() && longest + least > longest
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("k", &self.current.k())
            .field("epoch", &self.hub.epoch())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// FNV-1a digest over a deployment's forwarding state: every
/// `(slice, node, dst)` next hop plus the failed-edge set. Two
/// deployments with equal checksums forward identically. This is the
/// canonical acceptance oracle shared by the testkit's daemon
/// differential test and `spliced`'s exit check.
pub fn fib_checksum(g: &Graph, sp: &Splicing) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for slice in 0..sp.k() {
        for u in g.nodes() {
            for t in g.nodes() {
                match sp.next_hop(slice, u, t) {
                    Some((via, e)) => {
                        eat(1 + via.0 as u64);
                        eat(e.0 as u64);
                    }
                    None => eat(0),
                }
            }
        }
    }
    for e in sp.failed_mask().failed_edges() {
        eat(e.0 as u64);
    }
    h
}

/// A message consumed by [`run_event_loop`].
#[derive(Clone, Debug)]
pub enum ControlMsg {
    /// Ingest one topology event.
    Event(ControlEvent),
    /// Repair and publish whatever is pending (a tick boundary).
    Flush,
    /// Flush, publish the final state, and exit the loop.
    Shutdown,
}

/// A [`ControlMsg`] stamped with its enqueue time, so the loop can
/// report honest event→FIB-visible latency (queue wait included).
#[derive(Clone, Debug)]
pub struct ControlEnvelope {
    /// When the sender enqueued the message.
    pub at: Instant,
    /// The message itself.
    pub msg: ControlMsg,
}

/// The sending half of a control channel; clone freely (admin routes,
/// schedule feeders, signal handlers).
#[derive(Clone, Debug)]
pub struct ControlHandle {
    tx: crossbeam::channel::Sender<ControlEnvelope>,
}

impl ControlHandle {
    fn send(&self, msg: ControlMsg) -> bool {
        self.tx
            .send(ControlEnvelope {
                at: Instant::now(),
                msg,
            })
            .is_ok()
    }

    /// Enqueue one event; `false` if the loop has exited.
    pub fn event(&self, ev: ControlEvent) -> bool {
        self.send(ControlMsg::Event(ev))
    }

    /// Enqueue a whole schedule in order; `false` if the loop has exited.
    pub fn events(&self, evs: impl IntoIterator<Item = ControlEvent>) -> bool {
        evs.into_iter().all(|ev| self.event(ev))
    }

    /// Ask the loop to repair and publish whatever is pending.
    pub fn flush(&self) -> bool {
        self.send(ControlMsg::Flush)
    }

    /// Ask the loop to flush and exit.
    pub fn shutdown(&self) -> bool {
        self.send(ControlMsg::Shutdown)
    }
}

/// An unbounded control channel. Unbounded is the backpressure policy:
/// events are a few words each, producers (admin endpoint, schedule
/// feeder) must never block behind a slow repair, and the loop drains
/// coalescing — a backlog turns into bigger batches, not latency for
/// the producer.
pub fn control_channel() -> (ControlHandle, crossbeam::channel::Receiver<ControlEnvelope>) {
    let (tx, rx) = crossbeam::channel::unbounded();
    (ControlHandle { tx }, rx)
}

/// What [`run_event_loop`] did before exiting.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventLoopReport {
    /// Control-plane work counters at exit.
    pub stats: ControlStats,
    /// The epoch of the final published snapshot (0 = never published).
    pub final_epoch: u64,
    /// Whether the loop exited via [`ControlMsg::Shutdown`] (vs. all
    /// senders dropping).
    pub clean_shutdown: bool,
}

/// Drive a [`ControlPlane`] from a channel until shutdown.
///
/// Blocks on the first message, then drains whatever else is already
/// queued (up to the plane's batch cap per repair pass) so a backlog
/// coalesces into few repair passes instead of many. After each drain
/// the pending batch is flushed and published; if `latency` is given,
/// every event's enqueue→publish wall time is recorded once its FIB
/// becomes visible. Exits on [`ControlMsg::Shutdown`] or when every
/// [`ControlHandle`] is gone; either way the final state is flushed and
/// published first. Returns the plane (for final inspection — checksum,
/// oracle comparison — with its recycling scratch and telemetry handles
/// released) and a report.
pub fn run_event_loop(
    mut cp: ControlPlane,
    rx: crossbeam::channel::Receiver<ControlEnvelope>,
    latency: Option<&Histogram>,
) -> (ControlPlane, EventLoopReport) {
    let mut arrivals: Vec<Instant> = Vec::new();
    let mut clean_shutdown = false;
    let record_visible = |arrivals: &mut Vec<Instant>, published: bool| {
        if !published {
            return;
        }
        if let Some(h) = latency {
            let now = Instant::now();
            for at in arrivals.drain(..) {
                h.record_duration(now.duration_since(at));
            }
        } else {
            arrivals.clear();
        }
    };

    // `recv` fails only once every handle is dropped.
    'outer: while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < cp.max_batch {
            match rx.try_recv() {
                Ok(env) => batch.push(env),
                Err(_) => break,
            }
        }
        for env in batch {
            match env.msg {
                ControlMsg::Event(ev) => {
                    arrivals.push(env.at);
                    let published = cp.ingest(&ev).is_some();
                    record_visible(&mut arrivals, published);
                }
                ControlMsg::Flush => {
                    let published = cp.flush().is_some();
                    record_visible(&mut arrivals, published);
                }
                ControlMsg::Shutdown => {
                    clean_shutdown = true;
                    let published = cp.flush().is_some();
                    record_visible(&mut arrivals, published);
                    break 'outer;
                }
            }
        }
        let published = cp.flush().is_some();
        record_visible(&mut arrivals, published);
    }
    let published = cp.flush().is_some();
    record_visible(&mut arrivals, published);
    // Events whose batch coalesced to a no-op never trigger a publish;
    // their FIB-visible moment is "already" — record them at the end so
    // the histogram is complete.
    if let Some(h) = latency {
        let now = Instant::now();
        for at in arrivals.drain(..) {
            h.record_duration(now.duration_since(at));
        }
    }
    cp.quiesce();
    let report = EventLoopReport {
        stats: cp.stats(),
        final_epoch: cp.hub().epoch(),
        clean_shutdown,
    };
    (cp, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slices::SplicingConfig;
    use splice_topology::abilene::abilene;

    fn deployment(k: usize, seed: u64) -> (Graph, Splicing) {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
        (g, sp)
    }

    #[test]
    fn event_tokens_roundtrip() {
        for token in ["f4", "g2.7", "n1", "w2.5.1500", "r4"] {
            let ev = ControlEvent::parse(token).unwrap();
            assert_eq!(ev.token(), token);
        }
        let sched = ControlEvent::parse_schedule("f4+g2.7+n1+w2.5.1500+r4").unwrap();
        assert_eq!(sched.len(), 5);
        assert!(ControlEvent::parse_schedule("").unwrap().is_empty());
        // Tokens whose first char is wider than one byte come off the
        // admin socket too (lossy UTF-8 turns any stray byte into U+FFFD).
        for bad in [
            "", "z9", "w1.2", "w1.2.0", "g", "f", "fx", "é4", "\u{fffd}", "€",
        ] {
            assert!(ControlEvent::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validate_bounds_events() {
        let (g, _) = deployment(2, 1);
        let m = g.edge_count() as u32;
        let n = g.node_count() as u32;
        assert!(ControlEvent::FailLink(EdgeId(0)).validate(&g, 2).is_ok());
        assert!(ControlEvent::FailLink(EdgeId(m)).validate(&g, 2).is_err());
        assert!(ControlEvent::FailNode(NodeId(n)).validate(&g, 2).is_err());
        assert!(ControlEvent::Reweight {
            slice: 2,
            edge: EdgeId(0),
            milli: 500
        }
        .validate(&g, 2)
        .is_err());
    }

    /// Every acceptance gate compares `fib_checksum`s for equality; that
    /// only means something if the digest moves when forwarding does.
    #[test]
    fn checksum_tracks_forwarding_state() {
        let (g, sp) = deployment(2, 7);
        let a = fib_checksum(&g, &sp);
        assert_eq!(a, fib_checksum(&g, &sp));
        let repaired = sp.repair(&g, &RepairEvent::LinkFailure(EdgeId(0)));
        assert_ne!(a, fib_checksum(&g, &repaired));
    }

    #[test]
    fn ingest_matches_one_big_repair_batch() {
        let (g, sp) = deployment(3, 7);
        let events = [
            ControlEvent::FailLink(EdgeId(0)),
            ControlEvent::Reweight {
                slice: 1,
                edge: EdgeId(3),
                milli: 1500,
            },
            ControlEvent::FailGroup(vec![EdgeId(4), EdgeId(6)]),
        ];
        // Oracle: fold the same semantics by hand into one batch.
        let w13 = sp.weights(1)[3] * 1.5;
        let oracle = sp.repair_batch(
            &g,
            &[
                RepairEvent::LinkFailure(EdgeId(0)),
                RepairEvent::SliceReweight {
                    slice: 1,
                    edge: EdgeId(3),
                    new_weight: w13,
                },
                RepairEvent::LinkSetFailure(vec![EdgeId(4), EdgeId(6)]),
            ],
        );
        for max_batch in [1usize, 2, 64] {
            let mut cp = ControlPlane::new(g.clone(), sp.clone(), max_batch);
            for ev in &events {
                cp.ingest(ev);
            }
            cp.flush();
            assert_eq!(
                fib_checksum(&g, cp.current()),
                fib_checksum(&g, &oracle),
                "max_batch {max_batch}"
            );
        }
    }

    #[test]
    fn recover_is_a_delta_equal_to_a_rebuild_from_base() {
        let (g, sp) = deployment(2, 3);
        let mut cp = ControlPlane::new(g.clone(), sp.clone(), 64);
        cp.ingest(&ControlEvent::FailLink(EdgeId(2)));
        cp.ingest(&ControlEvent::Reweight {
            slice: 0,
            edge: EdgeId(5),
            milli: 2500,
        });
        cp.ingest(&ControlEvent::FailLink(EdgeId(7)));
        // The recovery coalesces with what is pending and closes the
        // batch: four events, one pass, one publish.
        assert_eq!(cp.pending_len(), 3);
        assert_eq!(cp.ingest(&ControlEvent::Recover(EdgeId(2))), Some(1));
        assert_eq!((cp.pending_len(), cp.stats().repair_batches), (0, 1));
        // Oracle: rebuild from base carrying the reweight + still-down set.
        let w05 = sp.weights(0)[5] * 2.5;
        let oracle = sp.repair_batch(
            &g,
            &[
                RepairEvent::SliceReweight {
                    slice: 0,
                    edge: EdgeId(5),
                    new_weight: w05,
                },
                RepairEvent::LinkSetFailure(vec![EdgeId(7)]),
            ],
        );
        assert_eq!(cp.current().arena(), oracle.arena());
        assert_eq!(fib_checksum(&g, cp.current()), fib_checksum(&g, &oracle));
        assert_eq!(cp.stats().rebuilds, 0, "perturbed-SPF never rebuilds");
        // The failed mask reflects the recovery.
        assert!(cp.current().failed_mask().is_up(EdgeId(2)));
        assert!(!cp.current().failed_mask().is_up(EdgeId(7)));
    }

    /// A link that fails and recovers inside one batch cancels before
    /// any SPF runs; recovering a link that is up is a counted no-op.
    #[test]
    fn fail_recover_pairs_cancel_inside_a_batch() {
        use splice_routing::spf::Registry;

        let (g, sp) = deployment(3, 7);
        let tel = SpfTelemetry::register(&Registry::new());
        let mut cp = ControlPlane::new(g.clone(), sp.clone(), 16).with_telemetry(tel.clone());
        for ev in ControlEvent::parse_schedule("f3+r3").unwrap() {
            assert!(cp.ingest(&ev).is_none(), "a batch that nets to nothing");
        }
        assert_eq!((cp.pending_len(), cp.stats().repair_batches), (0, 1));
        assert_eq!(tel.spf_repair_seconds.count(), 0, "no plane was patched");
        assert!(Arc::ptr_eq(cp.current().arena(), sp.arena()));

        let mut cp = ControlPlane::new(g, sp, 1).with_telemetry(tel.clone());
        assert!(cp.ingest(&ControlEvent::Recover(EdgeId(3))).is_none());
        assert_eq!(tel.spf_repair_seconds.count(), 0);
        let stats = cp.stats();
        assert_eq!((stats.events, stats.repair_batches), (1, 1));
        assert_eq!((stats.publishes, cp.hub().epoch()), (0, 0));
    }

    /// `f3`, flush, then `f5+r3` in one batch: a failure and a restore
    /// of different links coalesce into one pass and land where the
    /// one-event-at-a-time plane lands.
    #[test]
    fn failures_and_recoveries_coalesce_in_one_batch() {
        let (g, sp) = deployment(3, 7);
        let mut batched = ControlPlane::new(g.clone(), sp.clone(), 16);
        batched.ingest(&ControlEvent::FailLink(EdgeId(3)));
        assert_eq!(batched.flush(), Some(1));
        assert!(batched.ingest(&ControlEvent::FailLink(EdgeId(5))).is_none());
        assert_eq!(
            batched.ingest(&ControlEvent::Recover(EdgeId(3))),
            Some(2),
            "one pass, one publish for the pair"
        );
        assert_eq!(batched.stats().repair_batches, 2);
        let mut single = ControlPlane::new(g.clone(), sp, 1);
        for ev in ControlEvent::parse_schedule("f3+f5+r3").unwrap() {
            assert!(single.ingest(&ev).is_some());
        }
        assert_eq!(batched.current().arena(), single.current().arena());
        assert_eq!(
            fib_checksum(&g, batched.current()),
            fib_checksum(&g, single.current())
        );
        let failed: Vec<EdgeId> = batched.current().failed_mask().failed_edges().collect();
        assert_eq!(failed, [EdgeId(5)]);
    }

    /// Strategies without delta repair rebuild every dirty plane, and
    /// `rebuilds` counts exactly those passes.
    #[test]
    fn masked_full_rebuilds_are_what_rebuilds_counts() {
        use crate::strategy::StrategyKind;

        let g = abilene().graph();
        let cfg = SplicingConfig::degree_based(2, 0.0, 3.0)
            .with_strategy(StrategyKind::RandomSpanningTree);
        let sp = Splicing::build(&g, &cfg, 5);
        let mut cp = ControlPlane::new(g.clone(), sp.clone(), 1);
        for ev in ControlEvent::parse_schedule("f1+f1+f4+r1+r4").unwrap() {
            cp.ingest(&ev);
        }
        let stats = cp.stats();
        assert_eq!(stats.repair_batches, 5);
        assert_eq!(stats.rebuilds, 4, "the repeated f1 rebuilt nothing");
        assert_eq!(stats.publishes, 4);
        // All links back up: the same bytes as the fresh build.
        assert_eq!(cp.current().arena(), sp.arena());
    }

    #[test]
    fn published_epochs_track_fib_changes_only() {
        let (g, sp) = deployment(2, 9);
        let mut cp = ControlPlane::new(g, sp, 1);
        let hub = Arc::clone(cp.hub());
        assert_eq!(hub.epoch(), 0);
        assert!(cp.ingest(&ControlEvent::FailLink(EdgeId(1))).is_some());
        assert_eq!(hub.epoch(), 1);
        // Re-failing the same link coalesces to a no-op: no publish.
        assert!(cp.ingest(&ControlEvent::FailLink(EdgeId(1))).is_none());
        assert_eq!(hub.epoch(), 1);
        assert_eq!(cp.stats().events, 2);
    }

    #[test]
    fn steady_churn_recycles_arenas() {
        let (g, sp) = deployment(3, 11);
        let mut cp = ControlPlane::new(g, sp, 1);
        // Fail a link, recover it, move to the next: every pass really
        // repairs. With no outside snapshot holders, retired arenas
        // become spares after the first few passes.
        for i in 0..10u32 {
            let e = EdgeId(i / 2 % 4);
            if i % 2 == 0 {
                cp.ingest(&ControlEvent::FailLink(e));
            } else {
                cp.ingest(&ControlEvent::Recover(e));
            }
        }
        let stats = cp.stats();
        assert!(
            stats.arenas_recycled >= 5,
            "expected sustained recycling, got {stats:?}"
        );
    }

    #[test]
    fn event_loop_drains_coalesces_and_reports() {
        let (g, sp) = deployment(2, 5);
        let cp = ControlPlane::new(g.clone(), sp.clone(), 16);
        let hub = Arc::clone(cp.hub());
        let (handle, rx) = control_channel();
        let latency = Arc::new(Histogram::new());
        let worker = {
            let latency = Arc::clone(&latency);
            std::thread::spawn(move || run_event_loop(cp, rx, Some(&latency)))
        };
        let schedule = ControlEvent::parse_schedule("f1+w0.3.1500+f4+r1").unwrap();
        assert!(handle.events(schedule));
        assert!(handle.shutdown());
        let (cp, report) = worker.join().unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(report.stats.events, 4);
        assert!(report.final_epoch >= 1);
        // A plane that has left its loop holds no recycling scratch.
        assert!(cp.retired.is_empty() && cp.spares.is_empty());
        assert_eq!(hub.epoch(), report.final_epoch);
        // Every event's latency was recorded.
        assert_eq!(latency.count(), 4);
        // Differential: the live loop's final FIB equals the batch oracle.
        let mut oracle = ControlPlane::new(g.clone(), sp, 1);
        for ev in ControlEvent::parse_schedule("f1+w0.3.1500+f4+r1").unwrap() {
            oracle.ingest(&ev);
        }
        oracle.flush();
        assert_eq!(
            fib_checksum(&g, cp.current()),
            fib_checksum(&g, oracle.current())
        );
    }

    /// Composed reweights that leave the range the engine can route over
    /// (vanishing, zero, infinite) are counted no-ops: the loop survives
    /// them and ends where the same schedule without them ends.
    #[test]
    fn reweights_that_leave_the_routable_range_are_dropped() {
        let (g, sp) = deployment(2, 5);
        let shrink = ControlEvent::parse("w0.0.1").unwrap();
        let tail = ControlEvent::parse_schedule("f1+r1").unwrap();
        let cp = ControlPlane::new(g.clone(), sp.clone(), 16);
        let (handle, rx) = control_channel();
        let worker = std::thread::spawn(move || run_event_loop(cp, rx, None));
        assert!(handle.events(std::iter::repeat_n(shrink.clone(), 200)));
        assert!(handle.events(tail.clone()));
        assert!(handle.shutdown());
        let (cp, report) = worker.join().expect("event loop must not panic");
        assert!(report.clean_shutdown);
        assert_eq!(report.stats.events, 202, "rejected reweights still count");
        // Some steps landed, then the weight stopped shrinking.
        let mut w = sp.weights(0)[0];
        let mut accepted = 0;
        while w != cp.current().weights(0)[0] {
            w *= 0.001;
            accepted += 1;
            assert!(w > 0.0, "final weight is not base x 0.001^j");
        }
        assert!((1..200).contains(&accepted), "accepted {accepted} of 200");

        // The same schedule without the rejected reweights.
        let mut oracle = ControlPlane::new(g.clone(), sp.clone(), 1);
        for ev in std::iter::repeat_n(&shrink, accepted).chain(&tail) {
            oracle.ingest(ev);
        }
        assert_eq!(cp.current().arena(), oracle.current().arena());
        assert_eq!(
            fib_checksum(&g, cp.current()),
            fib_checksum(&g, oracle.current())
        );

        // Overflow is rejected the same way, leaving the shadow state
        // (and so the next reweight's base) untouched.
        let mut cp = ControlPlane::new(g, sp, 1);
        let grow = ControlEvent::parse("w1.2.4294967295").unwrap();
        for _ in 0..40 {
            cp.ingest(&grow);
        }
        let w12 = cp.current().weights(1)[2];
        assert!(w12.is_finite() && w12 > 0.0);
        assert_eq!(cp.pending_len(), 0);
    }

    /// A thousand reweights, two failures and a recovery, coalesced
    /// eight at a time, are bit-identical to replaying every event from
    /// the base deployment.
    #[test]
    fn long_reweight_history_then_recover_matches_replay_from_base() {
        let (g, sp) = deployment(3, 13);
        let pairs = [(0usize, EdgeId(2)), (2, EdgeId(5)), (0, EdgeId(7))];
        let mut cp = ControlPlane::new(g.clone(), sp.clone(), 8);
        let mut replayed = Vec::new();
        let mut shadow: Vec<Vec<f64>> = (0..3).map(|s| sp.weights(s).to_vec()).collect();
        for i in 0..1000u32 {
            let (slice, edge) = pairs[i as usize % pairs.len()];
            // Factors straddle 1 so weights wander without escaping.
            let milli = if i % 2 == 0 { 1250 } else { 800 };
            cp.ingest(&ControlEvent::Reweight { slice, edge, milli });
            shadow[slice][edge.index()] *= milli as f64 / 1000.0;
            replayed.push(RepairEvent::SliceReweight {
                slice,
                edge,
                new_weight: shadow[slice][edge.index()],
            });
        }
        cp.ingest(&ControlEvent::FailLink(EdgeId(1)));
        cp.ingest(&ControlEvent::FailLink(EdgeId(4)));
        assert!(cp.ingest(&ControlEvent::Recover(EdgeId(1))).is_some());
        replayed.push(RepairEvent::LinkSetFailure(vec![EdgeId(4)]));
        let oracle = sp.repair_batch(&g, &replayed);
        assert_eq!(cp.current().arena(), oracle.arena());
        assert_eq!(fib_checksum(&g, cp.current()), fib_checksum(&g, &oracle));
    }

    #[test]
    fn event_loop_exits_when_handles_drop() {
        let (g, sp) = deployment(1, 2);
        let cp = ControlPlane::new(g, sp, 4);
        let (handle, rx) = control_channel();
        let worker = std::thread::spawn(move || run_event_loop(cp, rx, None));
        handle.event(ControlEvent::FailLink(EdgeId(0)));
        drop(handle);
        let (_cp, report) = worker.join().unwrap();
        assert!(!report.clean_shutdown);
        assert_eq!(report.stats.events, 1);
        assert_eq!(report.final_epoch, 1, "the last event was still flushed");
    }
}
